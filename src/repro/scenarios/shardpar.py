"""Shard-parallel scenario execution (``ScenarioSpec.kernel_workers``).

Builds a deployment whose actors share a
:class:`~repro.sim.partition.PartitionedSimulator` — one event kernel
per cluster plus a root kernel for clients and arrivals — and advances
it with the conservative-lookahead engine
(:class:`~repro.sim.shardpar.ShardParEngine`) over ``kernel_workers``
forked processes.

The determinism contract: :func:`run_scenario_shardpar` produces
byte-identical reports (modulo the ``perf``/``obs`` metadata blocks) at
**any** worker count, because every worker count executes the same
windowed envelope algorithm — ``kernel_workers=1`` is the in-process
reference.  The *plain* sequential kernel (``kernel_workers=None``)
interleaves partitions differently and is a separately valid run of
the same scenario, not a byte-comparison target.

Restrictions (each enforced with a clear error, never a deadlock):
Qanaat topologies only; ``memory`` storage (forked workers cannot
share file handles); a latency model with a positive
:meth:`~repro.sim.latency.LatencyModel.min_delay` across partition
boundaries; fault selectors resolvable by one owning partition
(see :meth:`~repro.scenarios.faults.FaultScheduler.install_partitioned`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.scenarios.spec import (
    MeasurementSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.sim.partition import (
    ROOT_PID,
    PartitionMap,
    PartitionedSimulator,
    boundary_lookahead,
)
from repro.sim.shardpar import ShardParEngine


@dataclass
class ShardParBuild:
    """Everything :func:`run_scenario_shardpar` needs from construction."""

    deployment: Any
    facade: PartitionedSimulator
    pmap: PartitionMap
    submit_next: Callable[[], None]
    lookahead: float


def build_shardpar(spec: ScenarioSpec) -> ShardParBuild:
    """Build a partitioned deployment for a spec (validation included).

    Mirrors the sequential construction path step for step — same
    config, same creation order — so the simulated behavior matches
    what ``build(spec)`` wires; only the scheduling substrate differs.
    """
    from repro.core.deployment import Deployment
    from repro.scenarios.build import (
        build_workload,
        crash_backups,
        resolve_latency,
    )
    from repro.scenarios.faults import FaultScheduler
    from repro.sim.costs import CalibratedCost

    spec.require_workload()
    if spec.topology.storage_backend != "memory":
        raise ConfigurationError(
            f"kernel_workers requires storage_backend='memory' "
            f"(got {spec.topology.storage_backend!r}): forked workers "
            "cannot share WAL/SQLite file handles"
        )
    # Raises for baseline families / unknown labels — the shard-
    # parallel builder only wires Qanaat topologies.
    spec.system_options()
    if spec.cost is None:
        import dataclasses

        spec = dataclasses.replace(spec, cost=CalibratedCost())

    config = spec.deployment_config()
    cluster_names = [
        f"{enterprise}{shard + 1}"
        for enterprise in config.enterprises
        for shard in range(config.shards_per_enterprise)
    ]
    pmap = PartitionMap(cluster_names)
    facade = PartitionedSimulator(pmap)
    deployment = Deployment(
        config,
        latency=resolve_latency(spec),
        cost_model=spec.cost,
        sim=facade,
        static_primaries=True,
    )
    deployment.fault_scheduler = None
    if spec.topology.crash_nodes:
        crash_backups(
            deployment, config.enterprises[0], spec.topology.crash_nodes
        )
        if config.use_firewall:
            info = deployment.directory.at(config.enterprises[0], 0)
            firewall = deployment.firewalls[info.name]
            firewall.execution_nodes[-1].crash()
            firewall.rows[0][-1].crash()
    submit_next = build_workload(spec, deployment)
    # Lookahead needs every node registered (clients included) and the
    # plain latency property, so it runs right before partitioning
    # flips transmission over to envelopes.
    lookahead = boundary_lookahead(
        deployment.network.latency, pmap, deployment.network.node_ids()
    )
    deployment.network.enable_partitioning(pmap, facade)
    if spec.faults:
        deployment.fault_scheduler = FaultScheduler(
            deployment, spec.faults
        ).install_partitioned(facade, pmap)
    return ShardParBuild(deployment, facade, pmap, submit_next, lookahead)


def run_scenario_shardpar(spec: ScenarioSpec) -> dict[str, Any]:
    """The shard-parallel :func:`~repro.scenarios.runner.run_scenario`.

    Reports carry the same keys plus a deterministic ``kernel`` block
    (partition count, lookahead, window count — all invariant under
    worker count) and a ``perf`` block extended with ``kernel_workers``
    and per-worker counters.  The event budget is enforced at window
    barriers (window granularity) rather than per event.
    """
    from repro import obs
    from repro.core.deployment import Metrics
    from repro.crypto import hashing
    from repro.scenarios.runner import (
        counter_delta,
        launch_workload,
        observed_run,
        paused_gc,
        perf_block,
        scenario_report,
        write_capture,
    )

    workers = spec.kernel_workers
    if workers is None:
        raise ValueError("spec.kernel_workers is not set")
    m = spec.measurement
    with observed_run(spec):
        obs_on = obs.enabled()
        counters_start = hashing.counters()
        wall_start = time.perf_counter()
        with paused_gc():
            built = build_shardpar(spec)
        deployment = built.deployment
        facade = built.facade
        scheduler = deployment.fault_scheduler
        workload = built.submit_next.workload
        population = getattr(built.submit_next, "population", None)
        capture = getattr(built.submit_next, "capture", None)
        metrics = deployment.metrics
        network = deployment.network
        # Per-worker counter deltas are taken against the counters at
        # fork time (build work happened once, in the parent, and is
        # inherited by every child's absolute counters).
        counters_built = hashing.counters()

        def collect(owned_pids: list[int]) -> dict[str, Any]:
            # Runs inside each worker process after the final barrier:
            # whatever a report needs from forked memory crosses back
            # here, picklable and partition-owned.
            payload: dict[str, Any] = {
                "events": sum(
                    facade.kernels[pid].events_processed
                    for pid in owned_pids
                ),
                "messages_sent": network.messages_sent,
                "messages_dropped": network.messages_dropped,
                "counters": counter_delta(counters_built),
                "fault_trace": list(scheduler.trace)
                if scheduler is not None
                else [],
                "generated": None,
                "metrics": None,
            }
            if ROOT_PID in owned_pids:
                payload["generated"] = dict(workload.generated)
                payload["metrics"] = (
                    metrics.completions,
                    metrics._done_at,
                    metrics._abort_at,
                )
                # Population stats and the captured trace live on the
                # root kernel (clients and arrivals run there); they
                # cross back as plain data for the parent to report.
                payload["population"] = (
                    population.stats() if population is not None else None
                )
                payload["capture_jsonl"] = (
                    capture.to_jsonl() if capture is not None else None
                )
            if obs.enabled():
                payload["obs"] = {
                    "spans": obs.TRACER.span_count,
                    "metrics": obs.REGISTRY.snapshot(),
                    "trace_jsonl": obs.TRACER.to_jsonl(),
                }
            return payload

        with paused_gc():
            with facade.activate(ROOT_PID):
                launch_workload(
                    facade, spec, built.submit_next, m.warmup + m.measure
                )
            engine = ShardParEngine(
                facade, network, built.lookahead, workers
            )
            payloads = engine.run(
                m.total, max_events=m.max_events, collect=collect
            )
        deployment.close()

    root = payloads[0]
    merged = Metrics()
    completions, done_at, abort_at = root["metrics"]
    merged.completions = completions
    merged._done_at = done_at
    merged._abort_at = abort_at
    build_counters = counter_delta(counters_start, counters_built)
    perf = perf_block(
        wall_start,
        sum(p["events"] for p in payloads),
        {
            name: count + sum(p["counters"][name] for p in payloads)
            for name, count in build_counters.items()
        },
    )
    perf["kernel_workers"] = engine.workers
    perf["workers"] = [
        {
            "events": p["events"],
            "messages_sent": p["messages_sent"],
            "messages_dropped": p["messages_dropped"],
            **p["counters"],
        }
        for p in payloads
    ]
    write_capture(spec, root.get("capture_jsonl"))
    obs_block = None
    if obs_on:
        from repro.obs.metrics import MetricRegistry
        from repro.obs.trace import TRACE_SCHEMA_VERSION, merge_jsonl

        shards = [p["obs"] for p in payloads if p.get("obs") is not None]
        # The cross-cluster ledger-agreement probe needs live executor
        # state from every partition at once; per-worker copies of
        # foreign clusters are stale by design, so it is skipped here
        # (the inline per-node sequence probes still ran everywhere).
        obs_block = {
            "schema": TRACE_SCHEMA_VERSION,
            "spans": sum(shard["spans"] for shard in shards),
            "metrics": MetricRegistry.merge_snapshots(
                [shard["metrics"] for shard in shards]
            ),
            "trace_jsonl": merge_jsonl(
                [shard["trace_jsonl"] for shard in shards]
            ),
        }
    return scenario_report(
        spec,
        merged,
        perf,
        fault_trace=sorted(
            tuple(entry) for p in payloads for entry in p["fault_trace"]
        ),
        generated=root["generated"] or {},
        population=root.get("population"),
        # Deterministic facts about the partitioned kernel itself —
        # invariant under worker count, hence part of the comparable
        # results rather than perf metadata.
        kernel={
            "partitions": len(built.pmap),
            "lookahead_s": round(built.lookahead, 9),
            "windows": engine.windows_run,
        },
        obs_block=obs_block,
    )


def shardpar_scenario(
    shards: int = 4,
    seed: int = 1,
    enterprises: tuple[str, ...] = ("A", "B"),
    system: str = "Flt-C",
    rate_per_cluster: float = 250.0,
    warmup: float = 0.1,
    measure: float = 0.3,
    drain: float = 0.15,
    kernel_workers: int | None = None,
) -> ScenarioSpec:
    """A canonical shard-scaling scenario: offered load grows with the
    cluster count, so wider topologies keep per-cluster pressure — the
    shape the ``--experiment shardpar`` sweep and the CI smoke use."""
    from repro.workload.generator import WorkloadMix

    return ScenarioSpec(
        name=f"shardpar-{len(enterprises)}x{shards}",
        system=system,
        topology=TopologySpec(enterprises=enterprises, shards=shards),
        workload=WorkloadSpec(
            rate=rate_per_cluster * shards * len(enterprises),
            mix=WorkloadMix(cross=0.2),
        ),
        measurement=MeasurementSpec(warmup=warmup, measure=measure, drain=drain),
        seed=seed,
        kernel_workers=kernel_workers,
    )
