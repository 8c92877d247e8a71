"""Measure one scenario: drive it, observe every window, report.

The one measurement loop of the repository: :func:`run_scenario`
reports **per-window** results — throughput, mean latency,
completions, and abort rate for each of the warmup / measure / drain
windows — plus the resolved fault trace, so a scenario with a mid-run
crash shows the dip *and* the recovery.  A bench point
(:func:`repro.bench.runner.run_point`) is the measure-window
projection of the same report.

The simulator advance runs under the spec's event budget
(``measurement.max_events``) with ``raise_on_limit``: a protocol bug
that schedules a timer loop surfaces as a
:class:`~repro.errors.SimulationLimitError` naming the virtual time
and queue head instead of an apparent hang.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.scenarios.spec import ScenarioSpec


class paused_gc:
    """Disable the cyclic garbage collector for the duration of one
    bounded simulation run.

    A point run allocates millions of short-lived objects, all freed
    by reference counting; the generational collector just re-scans
    the long-lived deployment graph over and over (measured at ~25%
    of smoke-matrix wall-clock).  Cyclic garbage produced during the
    run is bounded by the run itself and is collected as soon as the
    collector is re-enabled.  No-op when the collector was already
    disabled by the caller.
    """

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        if self._was_enabled:
            gc.disable()

    def __exit__(self, *exc: Any) -> None:
        if self._was_enabled:
            gc.enable()


def counter_delta(
    before: dict[str, int], after: dict[str, int] | None = None
) -> dict[str, int]:
    """Hot-path counter deltas (:func:`repro.crypto.hashing.counters`)
    from ``before`` to ``after`` (default: now)."""
    from repro.crypto import hashing

    if after is None:
        after = hashing.counters()
    return {name: after[name] - before[name] for name in before}


def perf_block(
    wall_start: float, events: int, counters: dict[str, int]
) -> dict[str, Any]:
    """The ``perf`` metadata block every report records: wall clock
    since ``wall_start``, simulated ``events`` (+ rate), and the run's
    hot-path ``counters`` (a :func:`counter_delta`)."""
    wall = time.perf_counter() - wall_start
    return {
        "wall_clock_s": round(wall, 6),
        "events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        **counters,
    }


@contextmanager
def observed_run(spec: ScenarioSpec) -> Iterator[bool]:
    """The :mod:`repro.obs` lifecycle of one run; yields whether the
    run *owns* the tracer.

    A spec with ``trace=True`` owns it for this run (enable before
    construction — hot objects capture obs state when built — disable
    on exit); a caller that enabled obs beforehand (``bench --trace``)
    keeps ownership.  Either way, deployment-scoped obs state (block/
    instance keys, probe decisions) is reset so it cannot leak between
    runs sharing one tracer.
    """
    from repro import obs

    owned = spec.trace and not obs.enabled()
    if owned:
        obs.enable()
    if obs.enabled():
        obs.TRACER.new_run()
        if obs.PROBES is not None:
            obs.PROBES.reset()
    try:
        yield owned
    finally:
        if owned:
            obs.disable()


def launch_workload(
    sim: Any, spec: ScenarioSpec, submit: Any, duration: float
) -> None:
    """Schedule the spec's offered load onto a simulator.

    One dispatcher for every execution path (sequential, shard-parallel
    root kernel, bench points): a workload spec with a ``replay_trace``
    walks the loaded trace with the single-cursor scheduler; anything
    else runs open-loop arrivals through
    :func:`repro.workload.population.launch_arrivals`, building the
    rate profile from the spec's :class:`~repro.scenarios.spec.
    ArrivalSpec` (``None`` → the byte-identical constant-rate loop).
    ``submit`` is the builder's closure (``build_workload``'s return),
    which carries the trace/replay plumbing as attributes.
    """
    from repro.workload.population import launch_arrivals

    trace = getattr(submit, "trace", None)
    if trace is not None:
        trace.schedule(sim, submit.submit_entry)
        return
    workload = spec.workload
    profile = None
    if workload.arrival is not None:
        profile = workload.arrival.build_profile(spec.topology.shards)
    launch_arrivals(
        sim, workload.rate, duration, submit, spec.seed,
        profile=profile,
        supports_hotspot=getattr(submit, "supports_hotspot", False),
    )


def write_capture(spec: ScenarioSpec, jsonl: str | None) -> None:
    """Persist a run's captured trace (JSONL, one entry per submitted
    transaction; ``None`` when the spec captures nothing) to the spec's
    ``capture_trace`` path."""
    if jsonl is None:
        return
    path = Path(spec.workload.capture_trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(jsonl + "\n")


def series_report(
    metrics: Any, m: Any
) -> list[dict[str, Any]]:
    """Per-bucket window reports over the measure window: the measure
    interval sliced into ``m.window``-second buckets (last bucket
    clipped at the measure edge)."""
    total = m.warmup + m.measure
    series: list[dict[str, Any]] = []
    start = m.warmup
    while start < total - 1e-12:
        end = min(start + m.window, total)
        series.append(_window_report(metrics, start, end))
        start = end
    return series


def _window_report(metrics: Any, start: float, end: float) -> dict[str, Any]:
    return {
        # Window edges rounded like every other virtual-time stamp in
        # the report (fault-trace fire times, obs spans): 9 decimals.
        "start_s": round(start, 9),
        "end_s": round(end, 9),
        "throughput_tps": metrics.throughput(start, end),
        "mean_latency_ms": metrics.mean_latency(start, end) * 1000.0,
        "p50_latency_ms": metrics.percentile_latency(50, start, end) * 1000.0,
        "p95_latency_ms": metrics.percentile_latency(95, start, end) * 1000.0,
        "p99_latency_ms": metrics.percentile_latency(99, start, end) * 1000.0,
        "completed": metrics.completed_count(start, end),
        "aborted": metrics.aborted_count(start, end),
        "abort_rate": metrics.abort_rate(start, end),
    }


def scenario_report(
    spec: ScenarioSpec,
    metrics: Any,
    perf: dict[str, Any],
    fault_trace: list[tuple],
    generated: dict[str, int],
    population: dict[str, Any] | None = None,
    kernel: dict[str, Any] | None = None,
    obs_block: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The JSON-ready report of one measured scenario, shared by the
    sequential and shard-parallel runners: per-window numbers from the
    client-observed ``metrics``, the resolved fault trace, and the
    ``perf`` (and optional ``obs``) metadata blocks."""
    m = spec.measurement
    total = m.warmup + m.measure
    report: dict[str, Any] = {
        "scenario": spec.name,
        "system": spec.system,
        "seed": spec.seed,
        "offered_tps": spec.workload.rate,
        "enterprises": list(spec.topology.enterprises),
        "shards": spec.topology.shards,
        "fault_events": len(spec.faults),
        "fault_trace": [
            {"t": t, "kind": kind, "detail": detail}
            for t, kind, detail in fault_trace
        ],
        "generated": generated,
    }
    if kernel is not None:
        report["kernel"] = kernel
    report["windows"] = {
        "warmup": _window_report(metrics, 0.0, m.warmup),
        "measure": _window_report(metrics, m.warmup, total),
        "drain": _window_report(metrics, total, m.total),
    }
    report["perf"] = perf
    if population is not None:
        report["population"] = population
        perf["client_pool"] = population["wire_clients"]
    if m.window > 0:
        report["series"] = series_report(metrics, m)
    if obs_block is not None:
        report["obs"] = obs_block
    return report


def run_scenario(spec: ScenarioSpec) -> dict[str, Any]:
    """Build the spec's system, replay its timeline, measure every
    window; returns a JSON-ready report (see :func:`scenario_report`).

    The report carries a ``perf`` block — wall-clock seconds,
    simulated events, events/sec, and the hot-path counter deltas from
    :func:`repro.crypto.hashing.counters` — so every
    ``BENCH_scenarios.json`` records a perf trajectory.  ``perf`` is
    metadata, not a result: artifact comparisons exclude it (see
    ``repro.bench.report.strip_perf`` and ``python -m
    repro.bench.compare``).
    """
    from repro import obs
    from repro.bench.drivers import build_driver
    from repro.crypto import hashing

    if spec.kernel_workers is not None:
        from repro.scenarios.shardpar import run_scenario_shardpar

        return run_scenario_shardpar(spec)
    m = spec.measurement
    with observed_run(spec) as owned:
        counters_before = hashing.counters()
        wall_start = time.perf_counter()
        with paused_gc():
            driver = build_driver(spec)
        try:
            total = m.warmup + m.measure
            submit = getattr(driver, "_submit", None) or driver.submit_next
            with paused_gc():
                launch_workload(driver.sim, spec, submit, total)
                if obs.enabled():
                    # Segmented advance: pause at every window edge to
                    # sample gauges.  Back-to-back bounded runs tile
                    # the timeline exactly (the kernel advances the
                    # clock to `until` between calls), so event order
                    # — and every reported number — matches the single
                    # run below.
                    base = driver.sim.now
                    for offset, edge in (
                        (m.warmup, "warmup"),
                        (total, "measure"),
                        (m.total, "drain"),
                    ):
                        driver.sim.run(
                            until=base + offset,
                            max_events=m.max_events,
                            raise_on_limit=True,
                        )
                        obs.sample(driver, edge)
                else:
                    driver.sim.run(
                        until=driver.sim.now + m.total,
                        max_events=m.max_events,
                        raise_on_limit=True,
                    )
            perf = perf_block(
                wall_start,
                driver.sim.events_processed,
                counter_delta(counters_before),
            )
            capture = getattr(submit, "capture", None)
            write_capture(
                spec, capture.to_jsonl() if capture is not None else None
            )
            scheduler = getattr(driver.system, "fault_scheduler", None)
            workload = getattr(submit, "workload", None)
            population = getattr(submit, "population", None)
            return scenario_report(
                spec,
                driver.metrics(),
                perf,
                fault_trace=scheduler.trace if scheduler is not None else [],
                generated=(
                    dict(workload.generated) if workload is not None else {}
                ),
                population=(
                    population.stats() if population is not None else None
                ),
                obs_block=_obs_report(driver, owned) if obs.enabled() else None,
            )
        finally:
            driver.close()


def _obs_report(driver: Any, owned: bool) -> dict[str, Any]:
    """The ``obs`` block a traced scenario embeds next to ``perf``:
    schema version, span count, and metric snapshot.  When the run
    *owns* the tracer (``spec.trace=True``), the trace JSONL rides
    along too — that is how process-pool workers and spec-owned runs
    hand the trace back after :func:`repro.obs.disable` tears the
    tracer down.  Under a caller-enabled tracer (``bench --trace``)
    the tracer is cumulative across runs, so the caller exports it.

    Runs the end-of-run invariant probes first — a traced run that
    broke sequence monotonicity or ledger agreement fails loudly here
    rather than reporting plausible numbers.
    """
    from repro import obs
    from repro.obs import TRACE_SCHEMA_VERSION

    system = getattr(driver, "system", driver)
    if obs.PROBES is not None and hasattr(system, "executors_of"):
        obs.PROBES.ledger_agreement(system)
    block: dict[str, Any] = {
        "schema": TRACE_SCHEMA_VERSION,
        "spans": obs.TRACER.span_count if obs.TRACER is not None else 0,
        "metrics": obs.REGISTRY.snapshot() if obs.REGISTRY is not None else {},
    }
    if owned and obs.TRACER is not None:
        block["trace_jsonl"] = obs.TRACER.to_jsonl()
    return block


def run_scenarios(
    specs: dict[str, ScenarioSpec], jobs: int | None = None
) -> dict[str, dict[str, Any]]:
    """Measure several scenarios, optionally in parallel.

    Each scenario is independent (its spec carries everything a worker
    needs), so with ``jobs`` > 1 the matrix fans out over a process
    pool via :mod:`repro.bench.parallel`.  The returned mapping is
    keyed and ordered like ``specs`` regardless of job count or worker
    completion order — the determinism guarantee ``BENCH_scenarios.json``
    is stated over.
    """
    from repro.bench.parallel import PointTask, execute_tasks

    tasks = [PointTask(key=(name,), spec=spec) for name, spec in specs.items()]
    raw = execute_tasks(tasks, jobs=jobs)
    return {name: raw[(name,)] for name in specs}


def summary_row(report: dict[str, Any]) -> str:
    """One printable row per scenario (paper-style)."""
    measure = report["windows"]["measure"]
    return (
        f"{report['scenario']:<24} {report['system']:<10} "
        f"offered={report['offered_tps']:>8.0f} tps  "
        f"achieved={measure['throughput_tps']:>8.0f} tps  "
        f"latency={measure['mean_latency_ms']:>7.2f} ms  "
        f"aborts={measure['abort_rate']:>5.1%}  "
        f"faults={report['fault_events']}"
    )
