#!/usr/bin/env python3
"""Run one benchmark workload against the ``repro`` package in ``src/``.

    python3 perfbench/run.py --workload local-ramp --seed 1 --seconds 15 --trace 0

Each run simulates the workload's fixed open-loop schedule in rounds,
one run per pooled seed, for about ``--seconds`` of wall time (at
least one round), checks every run's outputs, and prints a per-step
table, a full JSON report (also written under ``perfbench/out/``) and,
as the last line, the result object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: set-up and run times in
reference seconds (``hostspeed.py``), peak memory, and the modelled
(virtual-time) latency and throughput pooled over the seeds.
``--trace 1`` adds one traced run of the first seed and reports
per-layer counts and self times instead (see ``tracing.py``).

Exit status: 0 when every output check passed, 1 when a check failed
or the program raised, 2 when the program cannot be found or the
arguments are wrong.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Runaway guard for one simulator advance (raises, never truncates).
MAX_EVENTS = 20_000_000
#: Deployments built per repeat; all are timed for ``setup_s``, one runs.
BUILDS_PER_REPEAT = 8
#: Virtual seconds a run may take, after its drain, to answer every
#: outstanding request before the output checks.
SETTLE_LIMIT = 5.0
#: Virtual seconds per timed slice of a sequential run.
SLICE_VIRTUAL_S = 0.01
#: Barrier windows between reference loops in a shard-parallel run.
PACE_WINDOWS = 20
#: Cap on the repeats of one run.
MAX_REPEATS = 64


def fingerprint() -> dict[str, Any]:
    """Host and code identity recorded with every result."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode())
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def flush_disk(workload: Any) -> None:
    """Write back the journal data of earlier repeats before a timed
    region.  Left pending, it made directory creation up to 20 times
    slower, and the slowdown grew from run to run."""
    if workload.durable:
        os.sync()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# one simulated run of a workload's schedule
# ----------------------------------------------------------------------
class Probe:
    """Per-layer observations of the traced run, limited to its timed
    region: the tracer's self times and call counts between
    :meth:`start` and :meth:`stop`, plus what the hooks see.

    In a shard-parallel run every worker process holds its own copy
    (forked after :meth:`start`) and reports it from the run's
    ``collect`` callback; :func:`merge_probes` adds the copies up.
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.active = False
        #: The nominal step, in virtual seconds.
        self.window = (0.0, 0.0)
        self.cpu_waits: list[float] = []
        self.instances = 0
        self.instance_txs = 0
        self.retransmits = 0
        #: ``SimNode.busy_time`` at each node's first delivery at or
        #: after the start and the end of the nominal step.
        self.busy_lo: dict[str, float] = {}
        self.busy_hi: dict[str, float] = {}
        self.nodes: dict[str, Any] = {}

    def _snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        return (
            self.tracer.self_times(),
            {name: cell[0] for name, cell in self.tracer.calls.items()},
        )

    def start(self) -> None:
        self.active = True
        self._before = self._snapshot()

    def stop(self) -> dict[str, Any]:
        """What this process observed since :meth:`start`."""
        self.active = False
        (self_s, calls), (self_0, calls_0) = self._snapshot(), self._before
        return {
            "self_s": {k: v - self_0.get(k, 0.0) for k, v in self_s.items()},
            "calls": {k: v - calls_0.get(k, 0) for k, v in calls.items()},
            "cpu_waits": self.cpu_waits,
            "instances": self.instances,
            "instance_txs": self.instance_txs,
            "retransmits": self.retransmits,
            "busy": {
                name: self.busy_hi.get(name, self.nodes[name].busy_time) - b0
                for name, b0 in self.busy_lo.items()
            },
        }

    def hooks(self) -> dict[str, Any]:
        from repro.consensus.messages import Block, ClientRequest

        def deliver(node: Any) -> None:
            lo, hi = self.window
            now = node.sim.now
            if now < lo:
                return
            name = node.node_id
            if now < hi:
                if name not in self.busy_lo:
                    self.busy_lo[name] = node.busy_time
                    self.nodes[name] = node
                if not node.crashed:
                    self.cpu_waits.append(node.queue_delay())
            elif name not in self.busy_hi:
                self.busy_hi[name] = node.busy_time

        def seal(value: Any) -> None:
            if self.active:
                self.instances += 1
                self.instance_txs += value.tx_count()

        def propose(value: Any) -> None:
            if isinstance(value, Block):
                seal(value)

        def multicast(msg: Any) -> None:
            if self.active and isinstance(msg, ClientRequest) and msg.retransmission:
                self.retransmits += 1

        return {
            "deliver": deliver, "seal": seal, "propose": propose,
            "multicast": multicast,
        }


def merge_probes(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """One :meth:`Probe.stop` result from those of every process; self
    times stay the first (this) process's own."""
    merged = dict(parts[0], calls={}, cpu_waits=[], busy={})
    for key in ("instances", "instance_txs", "retransmits"):
        merged[key] = sum(part[key] for part in parts)
    for part in parts:
        for name, count in part["calls"].items():
            merged["calls"][name] = merged["calls"].get(name, 0) + count
        merged["cpu_waits"].extend(part["cpu_waits"])
        merged["busy"].update(part["busy"])
    return merged


@dataclass
class Built:
    """A built deployment with the stepped load armed on it."""

    deployment: Any
    sim: Any
    recorder: Any
    start: float
    #: Virtual time of every arrival the generator accepted.
    arrivals: list[float]
    close: Callable[[], None]
    storage_dir: str | None
    #: The :class:`~repro.scenarios.shardpar.ShardParBuild` of a
    #: shard-parallel workload, else ``None``.
    parallel: Any = None


def build(workload: Any, seed: int, storage: Path | None, tracer: Any) -> Built:
    """Build the deployment and wire the stepped load onto it."""
    from loadgen import Recorder, StepProfile
    from repro.scenarios.runner import paused_gc
    from repro.workload.population import launch_arrivals

    storage_dir = None
    if storage is not None:
        storage_dir = tempfile.mkdtemp(prefix="wal-", dir=storage)
    profile = StepProfile(workload.segments)
    spec = workload.spec(seed, storage_dir)
    parallel = None
    with paused_gc():
        if workload.kernel_workers:
            from repro.scenarios.shardpar import build_shardpar
            from repro.sim.partition import ROOT_PID

            parallel = build_shardpar(spec)
            deployment = parallel.deployment
            sim = parallel.facade
            submit = parallel.submit_next
            close = deployment.close
            # Arrivals live on the root partition, with the clients.
            arming = sim.activate(ROOT_PID)
        else:
            from repro.bench.drivers import build_driver

            driver = build_driver(spec)
            deployment = driver.system
            sim = driver.sim
            submit = driver.submit_next
            close = driver.close
            arming = contextlib.nullcontext()
        recorder = Recorder(deployment, deployment.clients)
        if tracer is not None:
            submit = tracer.wrap("load", submit, "load.submit")
        arrivals: list[float] = []

        def arrive(*args: Any, **kwargs: Any) -> None:
            arrivals.append(sim.now)
            submit(*args, **kwargs)

        with arming:
            start = sim.now
            launch_arrivals(
                sim, profile.peak(), profile.duration, arrive, seed,
                profile=profile,
            )
    return Built(
        deployment, sim, recorder, start, arrivals, close, storage_dir, parallel
    )


def settle(sim: Any, deployment: Any) -> int:
    """Run on (no new arrivals) until every client request is answered;
    returns how many are still outstanding at the limit."""
    deadline = sim.now + SETTLE_LIMIT
    while sim.now < deadline and any(c.outstanding() for c in deployment.clients):
        sim.run(until=sim.now + 0.05, max_events=MAX_EVENTS, raise_on_limit=True)
    sim.run(until=sim.now + 0.05, max_events=MAX_EVENTS, raise_on_limit=True)
    return sum(c.outstanding() for c in deployment.clients)


def simulate(
    workload: Any, seed: int, tracer: Any = None, probe: Probe | None = None
) -> dict[str, Any]:
    """Build (timed ``BUILDS_PER_REPEAT`` times), run the whole
    schedule once, measure, then check the outputs."""
    import hostspeed
    from repro.crypto import hashing

    storage = Path(tempfile.mkdtemp(prefix="run-", dir=OUT)) if workload.durable else None
    try:
        setups = []
        for i in range(BUILDS_PER_REPEAT):
            final = i == BUILDS_PER_REPEAT - 1
            # Each build starts from the same state: intern caches empty,
            # the previous deployment's cycles collected and, for a
            # journaling workload, earlier journal writes on disk.
            hashing.clear_intern_caches()
            gc.collect()
            flush_disk(workload)
            loop = hostspeed.loop_s(3)
            t0 = time.perf_counter()
            built = build(workload, seed, storage, tracer if final else None)
            setups.append(hostspeed.rescale(time.perf_counter() - t0, loop))
            if not final:
                built.close()
                built = None
        try:
            result = measure(workload, seed, built, probe)
        finally:
            built.close()
        result["setup_s"] = setups
        return result
    finally:
        if storage is not None:
            shutil.rmtree(storage, ignore_errors=True)


class Counters:
    """This process's public counters, as deltas from construction."""

    def __init__(self, sim: Any, network: Any) -> None:
        from repro.crypto import hashing

        self.sim, self.network = sim, network
        self.events = sim.events_processed
        self.msgs = network.messages_sent
        self.crypto = hashing.counters()

    def delta(self) -> dict[str, int]:
        from repro.crypto import hashing

        crypto = hashing.counters()
        return {
            "sim.events": self.sim.events_processed - self.events,
            "sim.net.msgs": self.network.messages_sent - self.msgs,
            **{
                f"crypto.{key}": crypto[key] - self.crypto[key]
                for key in ("digest_calls", "encode_bytes", "verify_calls")
            },
        }


def measure(
    workload: Any, seed: int, built: Built, probe: Probe | None
) -> dict[str, Any]:
    """Run the schedule from warmup to the end of the drain (timed),
    then gather counters and run the output checks (untimed)."""
    import checks
    import hostspeed
    from loadgen import step_samples
    from repro.core.executor import is_error_result
    from repro.scenarios.runner import paused_gc

    sim = built.sim
    deployment = built.deployment
    network = deployment.network
    start = built.start
    end = start + workload.total
    if probe is not None:
        lo = start + workload.offset(workload.nominal)
        probe.window = (lo, lo + workload.segment(workload.nominal).seconds)
    counters = Counters(sim, network)

    def observe() -> dict[str, Any]:
        """This process's share of the run, taken where it ran."""
        part: dict[str, Any] = {"counts": counters.delta()}
        if probe is not None:
            part["probe"] = probe.stop()
        return part

    flush_disk(workload)
    if probe is not None:
        probe.start()
    windows = None
    if built.parallel is None:
        # Timed in short slices of virtual time (back-to-back runs tile
        # the timeline, so slicing changes no event), with the
        # reference loop between slices, outside the timing.
        count = max(1, round(workload.total / SLICE_VIRTUAL_S))
        slices = []
        loops = [hostspeed.loop_s()]
        with paused_gc():
            for k in range(1, count + 1):
                until = end if k == count else start + workload.total * k / count
                t0 = time.perf_counter()
                sim.run(until=until, max_events=MAX_EVENTS, raise_on_limit=True)
                slices.append(time.perf_counter() - t0)
                loops.append(hostspeed.loop_s())
        run_s = sum(slices)
        run_ref_s = hostspeed.rescale_slices(slices, loops)
        parts = [observe()]
        # Outside the timed region: let the system answer the rest.
        unanswered = settle(sim, deployment)
        when = f"{SETTLE_LIMIT:g} virtual s after the drain"
        facts = [checks.cluster_facts(deployment)]
    else:
        from repro.sim.shardpar import ShardParEngine

        parallel = built.parallel
        pmap = parallel.pmap
        finished: list[float] = []

        def collect(pids: list[int]) -> tuple[dict[str, Any], dict[str, Any]]:
            # Called in every worker after the final barrier; this
            # process's call comes first, so the timed region ends here.
            finished.append(time.perf_counter())
            clusters = [
                name for name in pmap.partitions[1:]
                if pmap.pid_of_cluster(name) in pids
            ]
            return observe(), checks.cluster_facts(deployment, clusters)

        engine = ShardParEngine(
            parallel.facade, network, parallel.lookahead, workload.kernel_workers
        )
        # Only a one-worker run is timed against the reference loop.
        pace = hostspeed.WindowPace(network, PACE_WINDOWS) if engine.workers == 1 else None
        try:
            t0 = time.perf_counter()
            with paused_gc():
                payloads = engine.run(end, max_events=MAX_EVENTS, collect=collect)
        finally:
            if pace is not None:
                pace.uninstall()
        if pace is None:
            run_s, run_ref_s = finished[0] - t0, None
        else:
            run_s, run_ref_s = pace.split(t0, finished[0])
        parts = [part for part, _ in payloads]
        facts = [fact for _, fact in payloads]
        windows = engine.windows_run
        # The run cannot be continued past the drain: the workers are
        # gone.  Clients live on the root partition, in this process.
        unanswered = sum(c.outstanding() for c in deployment.clients)
        when = "at the end of the drain"

    recorder = built.recorder
    completions = list(deployment.metrics.completions)
    aborted = {
        rid for client in deployment.clients
        for rid, _, result in client.completed if is_error_result(result)
    }
    committed = len({rid for rid, _, _ in completions} - aborted)
    submitted = len(recorder.rids)
    samples = step_samples(workload.segments, recorder, completions, aborted, start)
    outage_ms = None
    if workload.failover is not None:
        step, node = workload.failover
        crash = start + workload.offset(step)
        cluster = node.split(".")[0]
        cluster_of = dict(zip(recorder.rids, recorder.clusters))
        firsts = [
            sent + latency for rid, sent, latency in completions
            if sent >= crash and cluster_of.get(rid) == cluster
            and rid not in aborted
        ]
        outage_ms = (min(firsts) - crash) * 1000.0 if firsts else float("inf")
    worker_events = [part["counts"]["sim.events"] for part in parts]
    layer: dict[str, Any] = {
        key: sum(part["counts"][key] for part in parts) for key in parts[0]["counts"]
    }
    layer.update({
        "exec.applied": sum(fact["applied"] for fact in facts),
        "fw.dropped": sum(fact["fw_dropped"] for fact in facts),
        "storage.bytes": sum(
            p.stat().st_size for p in Path(built.storage_dir).rglob("*")
            if p.is_file()
        ) if built.storage_dir else 0,
        "load.submitted": submitted,
        # The sequential kernel runs no barrier windows, in one worker.
        "shardpar.windows": windows or 0,
        "shardpar.events_per_window": layer["sim.events"] / windows if windows else 0.0,
        "shardpar.worker_imbalance": max(worker_events) / statistics.fmean(worker_events),
    })
    problems = []
    if unanswered:
        problems.append(f"{unanswered} requests unanswered {when}")
    if committed > submitted:
        problems.append(f"committed {committed} > submitted {submitted}")
    ledgers = [ledger for fact in facts for ledger in fact["ledgers"]]
    problems += checks.consistency(ledgers)
    problems += checks.exactly_once(ledgers)
    problems += checks.conservation([fact["balances"] for fact in facts])
    late_problems, late = checks.schedule(built.arrivals, recorder.sent)
    problems += late_problems
    trace = getattr(deployment, "fault_scheduler", None)
    result = {
        "seed": seed,
        "run_s": run_s,
        "run_ref_s": run_ref_s,
        "samples": samples,
        "submitted": submitted,
        "committed": committed,
        "aborted": len(aborted),
        "outage_ms": outage_ms,
        "lateness_ms": late * 1000.0,
        "layer": layer,
        "fault_trace": list(trace.trace) if trace is not None else [],
        "problems": problems,
    }
    if probe is not None:
        result["probe"] = merge_probes([part["probe"] for part in parts])
    return result


def signature(result: dict[str, Any]) -> Any:
    """The modelled part of a run: identical for identical (code, seed)."""
    return (
        [(s["latencies"], s["landed"]) for s in result["samples"]],
        result["submitted"], result["committed"], result["outage_ms"],
        result["layer"]["sim.events"], result["layer"]["sim.net.msgs"],
    )


# ----------------------------------------------------------------------
# a workload: repeats, pooling, metrics
# ----------------------------------------------------------------------
def repeat(workload: Any, seed: int, seconds: float) -> tuple[list, list[str]]:
    """Run the schedule of every pooled seed once per round, for as many
    whole rounds as fit in about ``seconds`` of wall time (at least
    one); every repeat of a seed must reproduce its first run's
    modelled numbers exactly."""
    seeds = workload.seeds(seed)
    results: list[dict[str, Any]] = []
    problems: list[str] = []
    began = time.perf_counter()
    last = 0.0
    while not results or (
        len(results) < MAX_REPEATS and time.perf_counter() - began + last <= seconds
    ):
        t0 = time.perf_counter()
        for k, sub in enumerate(seeds):
            result = simulate(workload, sub)
            result["peak_rss_mb"] = peak_rss_mb()
            problems += [f"seed {sub}: {p}" for p in result["problems"]]
            if len(results) >= len(seeds) and signature(result) != signature(results[k]):
                problems.append(f"seed {sub}: modelled results differ between repeats")
            results.append(result)
        last = time.perf_counter() - t0
    return results, problems


def wall_run_s(results: list[dict[str, Any]]) -> float:
    """``run_s``: per pooled seed the fastest repeat, in reference
    seconds; the mean over seeds."""
    fastest: dict[int, float] = {}
    for r in results:
        value = r["run_ref_s"]
        fastest[r["seed"]] = min(value, fastest.get(r["seed"], value))
    return statistics.fmean(fastest.values())


def modelled(workload: Any, firsts: list[dict[str, Any]]) -> dict[str, Any]:
    """Virtual-time numbers pooled over one run of each seed."""
    from loadgen import pool_steps

    steps = pool_steps([r["samples"] for r in firsts], workload.p99_limit_ms)
    nominal = next(s for s in steps if s["step"] == workload.nominal)
    submitted = sum(r["submitted"] for r in firsts)
    committed = sum(r["committed"] for r in firsts)
    outages = [r["outage_ms"] for r in firsts if r["outage_ms"] is not None]
    return {
        "steps": steps,
        "p50_ms": nominal["p50_ms"],
        "p99_ms": nominal["p99_ms"],
        "p99_samples": nominal["submitted"],
        "ok_tps": max((s["offered_tps"] for s in steps if s["meets_limit"]), default=0.0),
        "peak_tps": max(s["committed_tps"] for s in steps),
        "failed_frac": (submitted - committed) / submitted,
        "outage_ms": statistics.fmean(outages) if outages else None,
        "lateness_ms": max(r["lateness_ms"] for r in firsts),
    }


#: Layers the traced run attributes self time to (``tracing.install``).
LAYERS = (
    "sim", "sim.net", "node", "cons.local", "cons.cross", "crypto", "exec",
    "ledger", "datamodel.store", "storage", "fw", "client", "load",
)


def traced(
    workload: Any, untraced: dict[str, Any], untraced_run_s: float
) -> tuple[dict, list[str]]:
    """One traced run of the seed of ``untraced`` (that seed's first
    untraced run, whose median wall time was ``untraced_run_s``):
    per-layer counts and self times."""
    from loadgen import percentile
    from tracing import Tracer, install

    seed = untraced["seed"]
    tracer = Tracer()
    probe = Probe(tracer)
    install(tracer, probe.hooks())
    try:
        result = simulate(workload, seed, tracer, probe)
    finally:
        tracer.uninstall()
    problems = [f"traced seed {seed}: {p}" for p in result["problems"]]
    if signature(result) != signature(untraced):
        problems.append("traced run's modelled results differ from the untraced run's")
    tracer.dump(OUT / f"{workload.name}-seed{seed}.spans")
    seen = result["probe"]
    own = seen["self_s"]

    def count(*names: str) -> int:
        return sum(seen["calls"].get(name, 0) for name in names)

    layer = dict(result["layer"])
    committed = result["committed"]
    layer.update({
        "sim.net.msgs_per_commit": layer["sim.net.msgs"] / committed,
        "sim.cpu.busy_max": max(seen["busy"].values())
        / workload.segment(workload.nominal).seconds,
        "sim.cpu.wait_ms_p99": percentile(sorted(seen["cpu_waits"]), 99) * 1000.0,
        "node.batches": seen["instances"],
        "node.batch_tx_mean": seen["instance_txs"] / max(1, seen["instances"]),
        "cons.view_changes": count("ClusterNode.on_view_change"),
        "client.retransmits": seen["retransmits"],
        "client.retransmit_frac": seen["retransmits"] / result["submitted"],
        "crypto.sign_calls": count("sign"),
        "exec.applied_per_commit": layer["exec.applied"] / committed,
        "ledger.appends": count("DagLedger.append"),
        "storage.appends": count("WalBackend.append"),
        "storage.snapshots": count("WalBackend.snapshot"),
        "storage.compactions": count("WalBackend.compact"),
        "fw.msgs": count("FilterNode.on_message", "ExecutionNode.on_message"),
        "trace.spans": len(tracer.starts) + tracer.dropped,
        "trace.overhead": result["run_s"] / untraced_run_s,
    })
    self_s = {f"{name}.self_s": own.get(name, 0.0) for name in LAYERS}
    self_s["other.self_s"] = result["run_s"] - sum(own.values())
    return {"run_s": result["run_s"], "layer": layer, "self_s": self_s}, problems


def run_workload(workload: Any, seed: int, seconds: float, trace: bool) -> tuple:
    results, problems = repeat(workload, seed, seconds)
    firsts = results[: workload.subseeds]
    if workload.kernel_workers == 1:
        # Untimed: two forked workers must give the same modelled results.
        forked = simulate(dataclasses.replace(workload, kernel_workers=2), firsts[0]["seed"])
        problems += [f"two workers: {p}" for p in forked["problems"]]
        if signature(forked) != signature(firsts[0]):
            problems.append("two workers' modelled results differ from one worker's")
    model = modelled(workload, firsts)
    problems += [
        f"step {s['step']}: {s['submitted']} submissions, outside Poisson "
        f"tolerance of {s['expected']:g}"
        for s in model["steps"] if not s["poisson_ok"]
    ]
    setups = [s for r in results for s in r["setup_s"]]
    report: dict[str, Any] = {
        "repeats": len(results),
        "run_wall_s_all": [r["run_s"] for r in results],
        "run_ref_s_all": [r["run_ref_s"] for r in results],
        "setup_s_all": setups,
        "modelled": model,
        "fault_trace": firsts[0]["fault_trace"],
    }
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (wall_run_s(results), "s"),
        # After one run of each seed: how many more repeats fit in
        # ``seconds`` must not move it.
        "peak_rss_mb": (firsts[-1]["peak_rss_mb"], "MB"),
        "p50_ms": (model["p50_ms"], "ms"),
        "p99_ms": (model["p99_ms"], "ms"),
        "ok_tps": (model["ok_tps"], "tx/s"),
        "peak_tps": (model["peak_tps"], "tx/s"),
        "failed_frac": (model["failed_frac"], "ratio"),
    }
    if model["outage_ms"] is not None:
        metrics["outage_ms"] = (model["outage_ms"], "ms")
    report["end_to_end"] = _named(metrics)
    attempted = sum(r["submitted"] for r in results)
    failed = sum(r["submitted"] - r["committed"] for r in results)
    if trace:
        layers, more = traced(workload, firsts[0], statistics.median(
            r["run_s"] for r in results if r["seed"] == firsts[0]["seed"]
        ))
        problems += more
        report["per_layer"] = {**layers["layer"], **layers["self_s"]}
        report["traced_run_s"] = layers["run_s"]
    return report, problems, attempted, failed


def _named(metrics: dict[str, tuple[float, str]]) -> dict[str, dict[str, Any]]:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def print_steps(workload: Any, model: dict[str, Any]) -> None:
    print(
        f"{workload.name}: nominal step {workload.nominal}, "
        f"p99 limit {workload.p99_limit_ms:g} ms, "
        f"generator lateness {model['lateness_ms']:g} ms"
    )
    print(f"{'step':>8} {'offered':>9} {'submitted':>9} {'expected':>9} "
          f"{'committed':>9} {'tps':>9} {'p50_ms':>9} {'p99_ms':>9}  ok")
    for s in model["steps"]:
        print(
            f"{s['step']:>8} {s['offered_tps']:>9.0f} {s['submitted']:>9} "
            f"{s['expected']:>9.0f} {s['committed']:>9} "
            f"{s['committed_tps']:>9.0f} {s['p50_ms']:>9.2f} {s['p99_ms']:>9.2f}"
            f"  {'yes' if s['meets_limit'] else 'no'}"
        )


# ----------------------------------------------------------------------
# the shard-parallel geo workload (runnable, not gated)
# ----------------------------------------------------------------------
def geo_spec(geo: dict[str, Any], seed: int) -> Any:
    from repro.bench.experiments import SCALES
    from repro.scenarios.registry import BENCH_SCENARIOS

    spec = BENCH_SCENARIOS[geo["scenario"]](SCALES[geo["scale"]], seed)
    return spec.with_kernel_workers(geo["kernel_workers"])


def planned(spec: Any) -> int:
    """Arrivals a geo run's schedule offers, in expectation."""
    m = spec.measurement
    return round(spec.workload.rate * (m.warmup + m.measure))


def run_geo(geo: dict[str, Any], seed: int, trace: bool) -> tuple:
    from repro.scenarios.runner import run_scenario

    spec = geo_spec(geo, seed)
    t0 = time.perf_counter()
    report = run_scenario(spec)
    run_s = time.perf_counter() - t0
    measure = report["windows"]["measure"]
    generated = sum(report["generated"].values())
    completed = sum(w["completed"] for w in report["windows"].values())
    ok = measure["p99_latency_ms"] <= geo["p99_limit_ms"] and completed >= 0.99 * generated
    metrics = {
        "run_s": (run_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "p50_ms": (measure["p50_latency_ms"], "ms"),
        "p99_ms": (measure["p99_latency_ms"], "ms"),
        "ok_tps": (spec.workload.rate if ok else 0.0, "tx/s"),
        "peak_tps": (measure["throughput_tps"], "tx/s"),
        "failed_frac": ((generated - completed) / generated, "ratio"),
    }
    out = {
        "end_to_end": _named(metrics),
        "windows": report["windows"],
        "kernel": report["kernel"],
        "perf": report["perf"],
    }
    if trace:
        workers = [w["events"] for w in report["perf"]["workers"]]
        out["per_layer"] = _named({
            "shardpar.windows": (report["kernel"]["windows"], "count"),
            "shardpar.events_per_window": (
                report["perf"]["events"] / report["kernel"]["windows"], "ratio"
            ),
            "shardpar.worker_imbalance": (
                max(workers) / statistics.fmean(workers), "ratio"
            ),
        })
    problems = [] if completed <= generated else ["committed > submitted"]
    return out, problems, generated, generated - completed


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import GEO, WORKLOADS  # noqa: E402  (needs repro below)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, GEO["name"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    OUT.mkdir(exist_ok=True)
    report: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": fingerprint(),
    }
    if args.workload == GEO["name"]:
        offered = planned(geo_spec(GEO, args.seed))
    else:
        workload = WORKLOADS[args.workload]
        offered = round(workload.subseeds * sum(
            s.rate * s.seconds for s in workload.segments
        ))
    try:
        if args.workload == GEO["name"]:
            report["schedule"] = dict(GEO)
            body, problems, attempted, failed = run_geo(GEO, args.seed, bool(args.trace))
        else:
            report["schedule"] = workload.schedule()
            body, problems, attempted, failed = run_workload(
                workload, args.seed, args.seconds, bool(args.trace)
            )
            print_steps(workload, body["modelled"])
    except Exception as exc:  # the program raised: report, fail the run
        import traceback

        traceback.print_exc()
        report["error"] = f"{type(exc).__name__}: {exc}"
        report["correct"] = False
        _write(report)
        print(json.dumps(report))
        # Every request of the schedule counts as failed.
        print(json.dumps({
            "correct": False, "attempted": offered, "failed": offered,
            "metrics": {},
        }))
        return 1
    report.update(body)
    report["problems"] = problems
    report["correct"] = not problems
    _write(report)
    print(json.dumps(report))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    chosen = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        # The geo workload is not gated: it reports its own metrics.
        "metrics": (
            body.get(chosen, {}) if args.workload == GEO["name"]
            else _listed_metrics(body, chosen)
        ),
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def _listed_metrics(body: dict[str, Any], kind: str) -> dict:
    """The metrics BENCHMARK.json lists for ``kind``, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    values = body.get(kind, {})
    out = {}
    for entry in spec:
        value = values.get(entry["name"])
        if isinstance(value, dict):
            value = value["value"]
        if value is not None:
            out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def _write(report: dict[str, Any]) -> None:
    name = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src}/repro is missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.exit(main())
