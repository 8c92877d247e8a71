"""The benchmark's named workloads.

Each workload is a Qanaat deployment described as a
:class:`~repro.scenarios.spec.ScenarioSpec` plus an open-loop schedule
(:class:`~loadgen.Segment` s).  ``nominal`` names the step whose
latency is reported end to end; ``p99_limit_ms`` is the limit a step
must meet to count toward ``ok_tps``.  ``subseeds`` runs of one
schedule, each under its own seed derived from ``--seed``, are pooled
into one set of modelled numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from loadgen import Segment
from repro.scenarios.spec import FaultEvent, ScenarioSpec, TopologySpec, WorkloadSpec
from repro.workload.generator import WorkloadMix

#: Distance between the seeds of one run's pooled schedules.
SUBSEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    """A deployment, its load schedule, and how its numbers are read.
    README.md says why each workload exists."""

    name: str
    system: str
    topology: dict[str, Any]
    mix: WorkloadMix
    segments: tuple[Segment, ...]
    nominal: str
    p99_limit_ms: float
    subseeds: int = 3
    #: ``(step, node)``: crash ``node`` (the view-0 primary of its
    #: cluster) at the start of ``step`` and recover it at its midpoint.
    failover: tuple[str, str] | None = None
    durable: bool = False
    #: Worker processes of the shard-parallel kernel; ``None`` runs the
    #: sequential kernel.
    kernel_workers: int | None = None

    def seeds(self, seed: int) -> list[int]:
        return [seed + SUBSEED_STRIDE * k for k in range(self.subseeds)]

    def offset(self, step: str) -> float:
        """Virtual seconds from the schedule start to ``step``'s start."""
        t = 0.0
        for segment in self.segments:
            if segment.name == step:
                return t
            t += segment.seconds
        raise KeyError(step)

    def segment(self, step: str) -> Segment:
        return next(s for s in self.segments if s.name == step)

    @property
    def total(self) -> float:
        return sum(s.seconds for s in self.segments)

    def faults(self) -> tuple[FaultEvent, ...]:
        if self.failover is None:
            return ()
        step, node = self.failover
        cluster = node.split(".")[0]
        start = self.offset(step)
        half = self.segment(step).seconds / 2
        return (
            FaultEvent(at=start, kind="crash", target=f"primary:{cluster}"),
            FaultEvent(at=start + half, kind="recover", target=f"node:{node}"),
        )

    def spec(self, seed: int, storage_dir: str | None = None) -> ScenarioSpec:
        topology = dict(self.topology)
        if self.durable:
            topology.update(storage_backend="wal", storage_dir=storage_dir)
        peak = max(s.rate for s in self.segments)
        return ScenarioSpec(
            name=self.name,
            system=self.system,
            topology=TopologySpec(**topology),
            workload=WorkloadSpec(rate=peak, mix=self.mix),
            faults=self.faults(),
            seed=seed,
            kernel_workers=self.kernel_workers,
        )

    def schedule(self) -> dict[str, Any]:
        """The full schedule, as recorded with every result."""
        return {
            "system": self.system,
            "topology": dict(self.topology),
            "mix": vars(self.mix),
            "segments": [vars(s) for s in self.segments],
            "nominal": self.nominal,
            "p99_limit_ms": self.p99_limit_ms,
            "subseeds": self.subseeds,
            "faults": [vars(f) for f in self.faults()],
            "storage": "wal" if self.durable else "memory",
            "kernel_workers": self.kernel_workers,
        }


def _ramp(
    steps: tuple[tuple[float, float], ...], warmup: float = 0.1, drain: float = 0.5
) -> tuple[Segment, ...]:
    """Warmup at the first rate, one step per ``(rate, seconds)``, then a
    drain with no arrivals."""
    return (
        (Segment("warmup", steps[0][0], warmup, measured=False),)
        + tuple(Segment(f"{rate:g}", rate, seconds) for rate, seconds in steps)
        + (Segment("drain", 0.0, drain, measured=False),)
    )


def _firewall(name: str, crash_seconds: float) -> Workload:
    """Flt-B(PF) at 3000 tps: a steady step, then a step that opens with
    a crash of A1's primary and recovers it at its midpoint."""
    return Workload(
        name=name,
        system="Flt-B(PF)",
        topology=dict(
            enterprises=("A", "B", "C"), shards=2, batch_size=16,
            checkpoint_interval=64,
        ),
        mix=WorkloadMix(cross=0.1, cross_type="isce"),
        segments=(
            Segment("warmup", 3000, 0.1, measured=False),
            Segment("steady", 3000, 2.0),
            Segment("crash", 3000, crash_seconds),
            Segment("drain", 0.0, 0.4, measured=False),
        ),
        nominal="steady",
        p99_limit_ms=50.0,
        failover=("crash", "A1.o0"),
        durable=True,
        subseeds=2,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="local-ramp",
            system="Flt-C",
            topology=dict(
                enterprises=("A", "B"), shards=1, batch_size=16,
                batch_adaptive=True, max_inflight=4,
            ),
            mix=WorkloadMix(cross=0.0),
            subseeds=3,
            # The nominal step runs longest, for latency samples; the
            # first step past the knee next, so that its growing backlog
            # keeps its p99 well above the limit on every seed.
            segments=_ramp(
                ((6000, 0.15), (9000, 0.6), (12000, 0.4), (15000, 0.15),
                 (18000, 0.15)),
                drain=0.4,
            ),
            nominal="9000",
            p99_limit_ms=20.0,
        ),
        Workload(
            name="cross-bft-ramp",
            system="Crd-B",
            topology=dict(
                enterprises=("A", "B", "C"), shards=2, batch_size=16,
                batch_wait=0.002,
            ),
            # 60%, not 50%: at 50% the median sits between the internal
            # and cross-shard latency modes, and 1200 tx/s sits at the
            # knee (see README.md).
            mix=WorkloadMix(cross=0.6, cross_type="csce"),
            # The nominal step is 600, not 900: at 900 the p99 rests on a
            # few queueing episodes at A1 and moved 27-54 ms between
            # seeds (README.md).  It runs long, for latency samples; so
            # does the 1200 step, just past the knee, so that its growing
            # backlog keeps its p99 well above the limit on every seed.
            segments=_ramp(
                ((600, 2.0), (900, 1.5), (1200, 1.0), (1500, 0.3), (1800, 0.3)),
                drain=1.0,
            ),
            nominal="600",
            p99_limit_ms=100.0,
            subseeds=3,
        ),
        Workload(
            name="shardpar-lan",
            system="Flt-C",
            topology=dict(enterprises=("A", "B"), shards=2, batch_size=16),
            mix=WorkloadMix(cross=0.2, cross_type="csce"),
            segments=(
                Segment("warmup", 3000, 0.1, measured=False),
                Segment("steady", 3000, 1.2),
                Segment("drain", 0.0, 0.3, measured=False),
            ),
            nominal="steady",
            p99_limit_ms=20.0,
            subseeds=1,
            # One worker: two processes on a 2-core host timed the
            # wake-ups at 4 001 barriers more than the program (README.md).
            kernel_workers=1,
        ),
        # A1's primary is down 0.4 s and back before the request
        # timeout (0.5 s) can start a view change.
        _firewall("firewall-wal-restart", crash_seconds=0.8),
        # Down 1.5 s: a view change completes before it recovers.  Not
        # gated: requests stall forever after the view change (README.md).
        _firewall("firewall-wal-failover", crash_seconds=3.0),
    )
}

#: The registered ``geo-wan`` scenario at ``--scale full`` on the
#: shard-parallel kernel.  Runnable by name, but not among the
#: workloads the benchmark gates: it raises a ConsistencyViolation on
#: some seeds (see README.md).
GEO = dict(
    name="geo-paper-shardpar",
    scenario="geo-wan",
    scale="full",
    kernel_workers=2,
    p99_limit_ms=1000.0,
)
