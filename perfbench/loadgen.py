"""Open-loop stepped load: a seeded Poisson schedule through fixed rates.

The schedule is a list of :class:`Segment` s — an optional warmup, the
measured steps, then a drain with no arrivals.  :class:`StepProfile`
hands it to :func:`repro.workload.population.launch_arrivals` as a
duck-typed rate profile, so the program receives nothing but the
resulting ``submit()`` calls.  :class:`Recorder` notes every submission
(request id, initiator cluster, virtual send time) by shadowing each
wire client's ``submit`` on the instance; :func:`step_samples` and
:func:`pool_steps` turn the records plus ``Metrics.completions`` into
per-step numbers.  A completion whose reply reports a rejected
execution counts as a request that never committed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any

INF = float("inf")


@dataclass(frozen=True)
class Segment:
    """One stretch of the schedule at a constant offered rate."""

    name: str
    rate: float
    seconds: float
    #: Measured steps get a per-step report; warmup and drain do not.
    measured: bool = True


class StepProfile:
    """Piecewise-constant rate profile for ``launch_arrivals``.

    ``launch_arrivals`` runs non-homogeneous Poisson thinning against
    ``peak()`` and accepts a candidate at virtual offset ``t`` with
    probability ``rate_at(t) / peak``; the ``rate`` argument the engine
    passes in is ignored, because the segments carry the rates.
    """

    constant = False

    def __init__(self, segments: tuple[Segment, ...]):
        arrivals = [s for s in segments if s.rate > 0]
        self._ends: list[float] = []
        end = 0.0
        for segment in arrivals:
            end += segment.seconds
            self._ends.append(end)
        self._rates = [s.rate for s in arrivals]
        self.duration = end
        self._peak = max(self._rates)

    def peak(self, rate: float = 0.0) -> float:
        return self._peak

    def rate_at(self, t: float, rate: float = 0.0) -> float:
        index = bisect.bisect_right(self._ends, t)
        return self._rates[min(index, len(self._rates) - 1)]

    def hot_shard(self, t: float) -> None:
        return None


class Recorder:
    """Submission records: request id, initiator cluster, send time."""

    def __init__(self, deployment: Any, clients: Any):
        self.rids: list[int] = []
        self.sent: list[float] = []
        self.clusters: list[str] = []
        sim = deployment.sim
        initiator = deployment.initiator_cluster
        for client in clients:
            inner = client.submit

            def submit(tx: Any, inner: Any = inner) -> int:
                rid = inner(tx)
                self.rids.append(rid)
                self.sent.append(sim.now)
                self.clusters.append(initiator(tx).name)
                return rid

            client.submit = submit


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile (the rule ``Metrics`` uses); ``inf`` for
    no samples."""
    if not sorted_values:
        return INF
    rank = max(1, math.ceil(len(sorted_values) * p / 100.0))
    return sorted_values[rank - 1]


def step_samples(
    segments: tuple[Segment, ...],
    recorder: Recorder,
    completions: list[tuple[int, float, float]],
    aborted: set[int],
    start: float,
) -> list[dict[str, Any]]:
    """Raw per-step samples of one run: latencies (seconds, ``inf`` for
    a request never answered or ``aborted``) of the requests *submitted*
    in the step, and commits that *landed* in the step."""
    committed = [c for c in completions if c[0] not in aborted]
    latency_of = {rid: latency for rid, _, latency in committed}
    done_at = sorted(sent + latency for _, sent, latency in committed)
    steps = []
    lo = start
    for segment in segments:
        hi = lo + segment.seconds
        if segment.measured:
            first = bisect.bisect_left(recorder.sent, lo)
            last = bisect.bisect_left(recorder.sent, hi)
            latencies = [
                latency_of.get(rid, INF) for rid in recorder.rids[first:last]
            ]
            landed = bisect.bisect_left(done_at, hi) - bisect.bisect_left(
                done_at, lo
            )
            steps.append(
                {
                    "step": segment.name,
                    "rate": segment.rate,
                    "seconds": segment.seconds,
                    "latencies": latencies,
                    "landed": landed,
                }
            )
        lo = hi
    return steps


def pool_steps(runs: list[list[dict[str, Any]]], limit_ms: float) -> list[dict[str, Any]]:
    """Per-step report over several runs of one schedule: latencies
    pooled, committed throughput averaged."""
    report = []
    for index, first in enumerate(runs[0]):
        steps = [run[index] for run in runs]
        latencies = sorted(x for step in steps for x in step["latencies"])
        submitted = len(latencies)
        committed = sum(1 for x in latencies if x != INF)
        expected = first["rate"] * first["seconds"] * len(steps)
        p99 = percentile(latencies, 99) * 1000.0
        report.append(
            {
                "step": first["step"],
                "offered_tps": first["rate"],
                "submitted": submitted,
                "expected": expected,
                "committed": committed,
                "committed_tps": sum(s["landed"] for s in steps)
                / (first["seconds"] * len(steps)),
                "p50_ms": percentile(latencies, 50) * 1000.0,
                "p99_ms": p99,
                "meets_limit": p99 <= limit_ms and committed >= 0.99 * submitted,
                # Poisson count within five standard deviations.
                "poisson_ok": abs(submitted - expected) <= 5 * math.sqrt(expected),
            }
        )
    return report
