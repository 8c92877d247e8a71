"""Build deployments (and their workloads) from scenario specs.

:func:`build` is the single construction entry point: spec in, ready
:class:`~repro.core.deployment.Deployment` out — topology wired,
construction-time crashes applied, fault timeline armed.  The wiring
reproduces, step for step, what the hand-assembled construction sites
did (same config objects, same creation order), so the same seeds
produce bit-identical runs.

:func:`build_workload` adds the §5 SmallBank workload on top: the root
workflow, every pairwise shared collection, the wire-client pool (one
client per enterprise in the paper's setup; a bounded pool when the
spec declares a population), and a ``submit_next`` closure for
open-loop arrivals — plus trace capture/replay plumbing.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.core.deployment import Deployment
from repro.scenarios.faults import FaultScheduler
from repro.scenarios.spec import ScenarioSpec
from repro.workload.generator import SmallBankWorkload, TxSpec
from repro.workload.population import ReplayCounts, population_from
from repro.workload.trace import TraceEntry, WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import DeploymentConfig


def pair_scopes(enterprises: tuple[str, ...]) -> list[frozenset]:
    """Shared collections used by the workload: the root plus every
    pair (private collaborations between two enterprises)."""
    scopes: list[frozenset] = []
    if len(enterprises) > 1:
        scopes.append(frozenset(enterprises))
    members = sorted(enterprises)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            scopes.append(frozenset((a, b)))
    return scopes


def wan_latency(enterprises: tuple[str, ...], shards: int):
    """The paper's four-AWS-region placement (§5.4): enterprises round-
    robin over regions, clients co-located with their enterprise."""
    from repro.sim.latency import RegionLatency

    regions = ("TY", "SU", "VA", "CA")
    region_of = {}
    for index, enterprise in enumerate(enterprises):
        for shard in range(shards):
            region_of[f"{enterprise}{shard + 1}"] = regions[index % 4]
    for index, enterprise in enumerate(enterprises):
        region_of[f"client-{enterprise}"] = regions[index % 4]
    return RegionLatency(region_of)


def resolve_latency(spec: ScenarioSpec):
    """The latency model a spec implies (explicit beats ``wan``)."""
    if spec.latency is not None:
        return spec.latency
    if spec.topology.wan:
        return wan_latency(spec.topology.enterprises, spec.topology.shards)
    return None


def build(spec: ScenarioSpec, config: "DeploymentConfig | None" = None) -> Deployment:
    """Spec in, ready deployment out.

    Builds the :class:`~repro.core.config.DeploymentConfig` (unless a
    pre-built one is passed), wires the cluster topology, and arms the
    fault timeline.  The scheduler is reachable as
    ``deployment.fault_scheduler`` (None when the timeline is empty —
    arming nothing keeps event sequence numbers, and therefore tie-
    breaking, identical to the pre-scenario construction path).
    """
    if config is None:
        config = spec.deployment_config()
    deployment = Deployment(
        config, latency=resolve_latency(spec), cost_model=spec.cost
    )
    deployment.fault_scheduler = None
    if spec.topology.crash_nodes:
        crash_backups(
            deployment, config.enterprises[0], spec.topology.crash_nodes
        )
        if config.use_firewall:
            # Table 3: one exec node and one filter also fail under the
            # privacy firewall.
            info = deployment.directory.at(config.enterprises[0], 0)
            firewall = deployment.firewalls[info.name]
            firewall.execution_nodes[-1].crash()
            firewall.rows[0][-1].crash()
    if spec.faults:
        deployment.fault_scheduler = FaultScheduler(
            deployment, spec.faults
        ).install()
    return deployment


def crash_backups(deployment: Deployment, enterprise: str, count: int):
    """Table 3 fault injection: fail ``count`` non-primary ordering
    nodes of the enterprise's first cluster; returns its info."""
    info = deployment.directory.at(enterprise, 0)
    primary = deployment.primary_of(info.name)
    backups = [m for m in info.members if m != primary]
    for member in backups[:count]:
        deployment.crash_node(member)
    return info


def build_workload(
    spec: ScenarioSpec, deployment: Deployment
) -> Callable[..., None]:
    """Wire the §5 SmallBank workload onto a built deployment.

    Creation order matters for bit-identical replay: root workflow,
    pairwise shared collections, workload generator, then the wire
    clients — one per enterprise (exactly the pre-scenario wiring)
    unless the spec declares a population or fan-out, in which case
    each enterprise gets its bounded pool, created eagerly so actors
    register before any shard-parallel partitioning.

    The returned ``submit_next(hot_shard=None)`` closure draws one
    transaction per call (``hot_shard`` aims a flash-crowd hotspot
    payment at that shard) and carries the run's plumbing as
    attributes: ``workload`` (generated-mix counters), ``population``,
    ``pools``, ``capture`` (a :class:`WorkloadTrace` being recorded, or
    None), ``trace`` (a loaded trace to replay, or None), and
    ``submit_entry`` (the per-entry replay submitter).
    """
    spec.require_workload()
    enterprises = spec.topology.enterprises
    shards = spec.topology.shards
    deployment.create_workflow("bench", enterprises, contract="smallbank")
    scopes = pair_scopes(enterprises)
    for scope in scopes:
        if len(scope) < len(enterprises):
            deployment.collections.create(
                scope, contract="smallbank", num_shards=shards
            )
    workload = SmallBankWorkload(
        enterprises, shards, scopes, spec.workload.mix, seed=spec.seed
    )
    population = population_from(spec.workload, enterprises, spec.seed)
    if population is None:
        pools = {e: (deployment.create_client(e),) for e in enterprises}
    else:
        pools = {
            e: tuple(
                deployment.create_client(e) for _ in range(population.pool)
            )
            for e in enterprises
        }
    sim = deployment.sim
    capture = WorkloadTrace() if spec.workload.capture_trace else None

    def submit_spec(tx_spec: TxSpec, rank: int | None) -> None:
        pool = pools[tx_spec.enterprise]
        client = pool[0] if rank is None else pool[rank % len(pool)]
        tx = client.make_transaction(
            tx_spec.scope, tx_spec.operation, keys=tx_spec.keys,
            confidential=False,
        )
        client.submit(tx)

    def submit_next(hot_shard: int | None = None) -> None:
        if hot_shard is None:
            tx_spec = workload.next_spec()
        else:
            tx_spec = workload.hotspot_spec(hot_shard)
        rank = None
        if population is not None:
            rank = population.next_rank(tx_spec.enterprise)
        if capture is not None:
            capture.record(sim.now, tx_spec, rank)
        submit_spec(tx_spec, rank)

    replay = None
    counts = None
    if spec.workload.replay_trace:
        replay = WorkloadTrace.from_jsonl(
            Path(spec.workload.replay_trace).read_text()
        )
        counts = ReplayCounts()

    def submit_entry(entry: TraceEntry) -> None:
        counts.count(entry.spec.kind)
        rank = entry.client
        if population is not None and rank is not None:
            population.observe(entry.spec.enterprise, rank)
        submit_spec(entry.spec, rank)

    submit_next.workload = (  # expose generated-mix counters
        counts if counts is not None else workload
    )
    submit_next.population = population
    submit_next.pools = pools
    submit_next.capture = capture
    submit_next.trace = replay
    submit_next.submit_entry = submit_entry
    submit_next.supports_hotspot = True
    return submit_next
