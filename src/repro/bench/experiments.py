"""Canned experiments: one per table/figure of §5, plus the scenario,
population, batching, shard-parallel, observability and analytics
matrices.

Scale control: ``scale="fast"`` (default) uses 3 enterprises x 2
shards and short windows so the whole suite runs in minutes;
``scale="full"`` uses the paper's 4 x 4.  Both produce the same
*shapes*.

The point experiments (Figures 7-11, Tables 2-3, the ablations and the
baseline landscape) are data: each is a function from a :class:`Scale`
and a seed to a list of :class:`Panel` rows, and :func:`run_panels`
runs them all as **plan → execute → merge**.  The plan is a flat list
of :class:`~repro.bench.parallel.PointTask` items (one self-contained
:class:`~repro.scenarios.spec.ScenarioSpec` per measured point, rate
ladders as chains), the execute step runs them — in order in-process,
or fanned out over a worker pool when ``jobs`` says so — and the merge
is a pure function from keyed results to the experiment's tables.
Because the merge consumes results by key in plan order, an
experiment's output (and its ``BENCH_*.json`` artifact) is
byte-identical regardless of job count or completion order.

Every experiment is registered in :data:`EXPERIMENTS` with its
``--list`` group, is called through :func:`run_experiment` with the
same keywords, and returns its artifact payload; ``python -m
repro.bench`` writes it as ``BENCH_<name>.json``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path

from repro.bench.parallel import PointTask, execute_tasks
from repro.bench.recovery import run_recovery_bench
from repro.bench.runner import (
    FABRIC_VARIANTS,
    FIG4_CONFIGS,
    QANAAT_PROTOCOLS,
    point_from_payload,
    point_spec,
    sweep_merge,
    sweep_stop,
)
from repro.errors import ConfigurationError
from repro.scenarios.build import wan_latency
from repro.scenarios.spec import ScenarioSpec
from repro.workload.generator import WorkloadMix

ALL_SYSTEMS = list(QANAAT_PROTOCOLS) + list(FABRIC_VARIANTS)


@dataclass
class Scale:
    """"fast" uses 3 enterprises x 2 shards: enough clusters that
    cross-cluster blocks on different shared collections actually run
    in parallel (with 2 enterprises the root and the only pair coincide
    and all cross traffic serializes on one chain)."""

    enterprises: tuple[str, ...] = ("A", "B", "C")
    shards: int = 2
    warmup: float = 0.2
    measure: float = 0.4
    drain: float = 0.2
    rate_ladder: tuple[float, ...] = (3_000, 6_000, 10_000, 14_000, 19_000, 25_000)
    fixed_rate: float = 8_000
    #: Table 2's enterprise counts.
    table2_enterprises: tuple[int, ...] = (2, 4)


SCALES = {
    # CI-sized: small enough that the whole scenario matrix runs in
    # seconds, big enough that cross-shard and cross-enterprise
    # traffic both exist.
    "smoke": Scale(
        enterprises=("A", "B"),
        shards=2,
        warmup=0.1,
        measure=0.3,
        drain=0.15,
        rate_ladder=(1_000, 2_000, 4_000),
        fixed_rate=1_500,
        table2_enterprises=(2, 4, 6, 8),
    ),
    "fast": Scale(),
    "full": Scale(
        enterprises=("A", "B", "C", "D"),
        shards=4,
        warmup=0.4,
        measure=0.8,
        drain=0.3,
        rate_ladder=(5_000, 15_000, 30_000, 50_000, 75_000, 105_000),
        fixed_rate=20_000,
        table2_enterprises=(2, 4, 6, 8),
    ),
}


# ----------------------------------------------------------------------
# point experiments as data
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Row:
    """One reported row: its name plus one spec (a point) or a rate
    ladder (a sweep, reported just below saturation)."""

    name: str
    specs: tuple[ScenarioSpec, ...]


@dataclass(frozen=True)
class Panel:
    """One table of an experiment: its results key (``None`` for an
    experiment whose results are this one panel's bare row list), the
    title it prints under, and its rows."""

    key: object
    title: str
    rows: list[Row]


def _spec(sc: Scale, seed: int, system: str, rate: float, mix: WorkloadMix,
          **extra) -> ScenarioSpec:
    knobs = dict(
        enterprises=sc.enterprises,
        shards=sc.shards,
        warmup=sc.warmup,
        measure=sc.measure,
        drain=sc.drain,
        seed=seed,
    )
    knobs.update(extra)
    return point_spec(system, rate, mix, **knobs)


def _point(sc: Scale, seed: int, system: str, mix: WorkloadMix,
           name: str | None = None, **extra) -> Row:
    spec = _spec(sc, seed, system, sc.fixed_rate, mix, **extra)
    return Row(name or system, (spec,))


def _ladder(sc: Scale, seed: int, system: str, mix: WorkloadMix, **extra) -> Row:
    return Row(system, tuple(
        _spec(sc, seed, system, rate, mix, **extra) for rate in sc.rate_ladder
    ))


def run_panels(panels: list[Panel], jobs: int | None = None):
    """Plan every row's specs as tasks (one chain per row), execute
    them, merge each row to its just-below-saturation point under the
    row's name, and print each panel.  Returns ``{key: rows}``, or the
    bare row list of a single ``key=None`` panel."""
    tasks = [
        PointTask(key=(p, r, rung), spec=spec, chain=(p, r))
        for p, panel in enumerate(panels)
        for r, row in enumerate(panel.rows)
        for rung, spec in enumerate(row.specs)
    ]
    raw = execute_tasks(tasks, jobs=jobs, stop=sweep_stop)
    results: dict = {}
    for p, panel in enumerate(panels):
        merged = []
        for r, row in enumerate(panel.rows):
            ladder = [
                point_from_payload(raw[(p, r, rung)])
                for rung in range(len(row.specs))
                if (p, r, rung) in raw
            ]
            best = sweep_merge(ladder)[1]
            best.system = row.name
            merged.append(best)
        results[panel.key] = merged
        print(f"\n=== {panel.title} ===")
        for point in merged:
            print("  " + point.row())
    return results[None] if None in results else results


# ----------------------------------------------------------------------
# Figures 7, 8, 9: latency-vs-throughput by cross-transaction type
# ----------------------------------------------------------------------
#: Cross-transaction percentages of Figures 7-9.
CROSS_PERCENTAGES = (10, 50, 90)


def _cross_type_figure(cross_type: str, sc: Scale, seed: int) -> list[Panel]:
    panels = []
    for pct in CROSS_PERCENTAGES:
        mix = WorkloadMix(cross=pct / 100.0, cross_type=cross_type)
        panels.append(Panel(
            f"{pct}% {cross_type}",
            f"{pct}% {cross_type} (just below saturation)",
            [_ladder(sc, seed, system, mix) for system in ALL_SYSTEMS],
        ))
    return panels


def fig7(sc: Scale, seed: int) -> list[Panel]:
    """Figure 7: intra-shard cross-enterprise workloads."""
    return _cross_type_figure("isce", sc, seed)


def fig8(sc: Scale, seed: int) -> list[Panel]:
    """Figure 8: cross-shard intra-enterprise workloads."""
    return _cross_type_figure("csie", sc, seed)


def fig9(sc: Scale, seed: int) -> list[Panel]:
    """Figure 9: cross-shard cross-enterprise workloads."""
    return _cross_type_figure("csce", sc, seed)


# ----------------------------------------------------------------------
# Figure 10: scalability across spatial domains (4 AWS regions)
# ----------------------------------------------------------------------
def fig10(sc: Scale, seed: int) -> list[Panel]:
    """Figure 10: 10% cross workloads over the paper's RTT matrix.

    Fabric and variants are excluded, as in the paper (a single
    ordering service cannot be meaningfully geo-distributed).
    """
    latency = wan_latency(sc.enterprises, sc.shards)
    panels = []
    for cross_type in ("isce", "csie", "csce"):
        mix = WorkloadMix(cross=0.10, cross_type=cross_type)
        panels.append(Panel(
            cross_type,
            f"Fig10 10% {cross_type} over 4 AWS regions",
            [
                _ladder(sc, seed, system, mix, latency=latency)
                for system in QANAAT_PROTOCOLS
            ],
        ))
    return panels


# ----------------------------------------------------------------------
# Tables 2 and 3: enterprise count, faulty nodes
# ----------------------------------------------------------------------
def table2(sc: Scale, seed: int) -> list[Panel]:
    """Table 2: 90% internal + 10% cross, 2..8 enterprises."""
    mix = WorkloadMix(cross=0.10, cross_type="isce")
    return [
        Panel(count, f"Table 2 with {count} enterprises", [
            _ladder(sc, seed, system, mix, enterprises=tuple("ABCDEFGH")[:count])
            for system in QANAAT_PROTOCOLS
        ])
        for count in sc.table2_enterprises
    ]


def table3(sc: Scale, seed: int) -> list[Panel]:
    """Table 3: one failed non-primary node (plus exec+filter for PF)."""
    mix = WorkloadMix(cross=0.10, cross_type="isce")
    return [
        Panel(label, f"Table 3 ({label}) at {sc.fixed_rate:.0f} tps offered", [
            _point(sc, seed, system, mix, crash_nodes=crash)
            for system in ALL_SYSTEMS
        ])
        for label, crash in (("no fail", 0), ("1 fail", 1))
    ]


# ----------------------------------------------------------------------
# Figure 11: contention (Zipfian skew)
# ----------------------------------------------------------------------
#: Zipf exponents of Figure 11.
FIG11_SKEWS = (0.0, 1.0, 2.0)


def fig11(sc: Scale, seed: int) -> list[Panel]:
    """Figure 11: 90% internal + 10% cross under key skew.

    Qanaat orders-then-executes so skew barely matters; Fabric-family
    systems lose most throughput to MVCC invalidation, with Fabric++
    rescuing part of it through reordering/early abort.
    """
    panels = []
    for skew in FIG11_SKEWS:
        mix = WorkloadMix(
            cross=0.10, cross_type="isce", zipf_s=skew, accounts_per_shard=500,
        )
        panels.append(Panel(
            skew,
            f"Fig11 zipf s={skew} at {sc.fixed_rate:.0f} tps offered",
            [_point(sc, seed, system, mix) for system in ALL_SYSTEMS],
        ))
    return panels


# ----------------------------------------------------------------------
# Ablations and the related-work landscape
# ----------------------------------------------------------------------
#: Batch sizes of the batching ablation.
ABLATION_BATCH_SIZES = (1, 8, 64, 256)
#: Checkpoint intervals of the checkpoint ablation (0 = off).
ABLATION_CHECKPOINT_INTERVALS = (0, 16, 64, 256)


def ablation_batching(sc: Scale, seed: int) -> list[Panel]:
    """Batch size vs throughput/latency for Flt-C."""
    mix = WorkloadMix(cross=0.10, cross_type="isce")
    return [Panel(None, "Ablation: batch size (Flt-C)", [
        _point(sc, seed, "Flt-C", mix, name=f"Flt-C/B={size}", batch_size=size)
        for size in ABLATION_BATCH_SIZES
    ])]


def ablation_checkpoint(sc: Scale, seed: int) -> list[Panel]:
    """Checkpointing cost: interval vs throughput/latency (Flt-C).

    Checkpoint votes ride the same network and CPU as consensus, so
    tight intervals tax throughput; 0 disables checkpointing (the
    no-GC, unbounded-log configuration)."""
    mix = WorkloadMix(cross=0.10, cross_type="isce")
    return [Panel(None, "Ablation: checkpoint interval (Flt-C)", [
        _point(
            sc, seed, "Flt-C", mix, name=f"Flt-C/ckpt={interval or 'off'}",
            checkpoint_interval=interval,
        )
        for interval in ABLATION_CHECKPOINT_INTERVALS
    ])]


def ablation_fig4(sc: Scale, seed: int) -> list[Panel]:
    """Figure 4 infrastructure ladder at one load.

    (a) crash combined -> (b) Byzantine ordering + crash execution ->
    (c) single crash filter row -> (d) full h+1 x h+1 firewall: each
    step buys a weaker trust assumption and costs latency/throughput.
    """
    mix = WorkloadMix(cross=0.10, cross_type="isce")
    return [Panel(None, "Ablation: Figure 4 configurations (flattened)", [
        _point(sc, seed, name, mix) for name in FIG4_CONFIGS
    ])]


def ablation_gamma():
    """γ transitive reduction: ID size saved, throughput unchanged.

    Measured directly on SequenceBooks over the bench collection
    lattice rather than end-to-end (reduction changes bytes on the
    wire, which the cost model does not charge for).
    """
    from repro.datamodel.collections import CollectionRegistry
    from repro.datamodel.txid import SequenceBook

    registry = CollectionRegistry()
    registry.create("ABCD")
    for e in "ABCD":
        registry.create(e)
    for pair in ("AB", "AC", "AD", "BC", "BD", "CD"):
        registry.create(pair)
    sizes = {}
    for reduce_gamma in (False, True):
        book = SequenceBook(registry, reduce_gamma=reduce_gamma)
        total_entries = 0
        order = ["ABCD", "AB", "AC", "BC", "A", "B", "ABCD", "CD", "C", "D"]
        for _ in range(20):
            for label in order:
                tx_id = book.assign(registry.get_by_label(label))
                book.commit(tx_id)
                total_entries += len(tx_id.gamma)
        sizes["reduced" if reduce_gamma else "full"] = total_entries
    saved = 1 - sizes["reduced"] / sizes["full"]
    print(
        f"\n=== Ablation: gamma transitive reduction ===\n"
        f"  full gamma entries:    {sizes['full']}\n"
        f"  reduced gamma entries: {sizes['reduced']}  "
        f"({saved:.0%} smaller IDs)"
    )
    return sizes


def baseline_landscape(sc: Scale, seed: int) -> list[Panel]:
    """Related-work landscape (§6), two comparable slices.

    1. Confidential subset collaborations: Caper promotes every subset
       collaboration to its global chain across *all* enterprises,
       while Qanaat runs them on the pair's own collection — Caper's
       curve collapses as the subset share grows.
    2. Cross-shard intra-enterprise: SharPer/AHL are restricted to one
       enterprise; Qanaat's csie protocols (their direct descendants)
       match them, which is exactly the §5 claim that the comparison
       is only meaningful on this slice.
    """
    slices = [
        (
            f"subset {pct}%",
            f"Landscape: {pct}% subset collaborations "
            f"(Qanaat d_XY vs Caper global chain)",
            WorkloadMix(cross=pct / 100.0, cross_type="isce"),
            ("Flt-B", "Caper"),
        )
        for pct in (10, 50)
    ] + [
        (
            f"cross-shard {pct}%",
            f"Landscape: {pct}% cross-shard intra-enterprise "
            f"(Qanaat vs SharPer/AHL)",
            WorkloadMix(cross=pct / 100.0, cross_type="csie"),
            ("Flt-B", "Crd-B", "SharPer", "AHL"),
        )
        for pct in (10, 50)
    ]
    return [
        Panel(label, title, [_point(sc, seed, system, mix) for system in systems])
        for label, title, mix, systems in slices
    ]


# ----------------------------------------------------------------------
# Durability: crash-recovery scenario (repro.bench.recovery)
# ----------------------------------------------------------------------
def recovery(scale="fast", seed=1, jobs=None, kernel_workers=None, out_dir="."):
    """Kill a replica mid-measurement, rebuild it from WAL/SQLite
    state, verify per-chain digests; the artifact is
    ``BENCH_recovery.json``."""
    sc = SCALES[scale]
    print("\n=== Crash-recovery (durable storage backends) ===")
    return run_recovery_bench(
        out_path=None,
        seed=seed,
        enterprises=sc.enterprises[:2],
        shards=sc.shards,
        warmup=sc.warmup,
        measure=sc.measure * 2,
        drain=sc.drain,
    )


# ----------------------------------------------------------------------
# Scenario matrices (repro.scenarios registry)
# ----------------------------------------------------------------------
def _run_matrix(specs: dict, jobs: int | None) -> tuple[dict, dict]:
    """Run a named scenario matrix; return its reports and the
    matrix-level perf block (wall-clock plus summed counters — per-
    scenario perf blocks live inside each report).  All perf data is
    excluded from the determinism byte-compare (repro.bench.compare)."""
    from repro.scenarios.runner import run_scenarios

    started = time.perf_counter()
    results = run_scenarios(specs, jobs=jobs)
    perf = {"wall_clock_s": round(time.perf_counter() - started, 3)}
    for counter in ("digest_calls", "verify_calls", "events"):
        perf[counter] = sum(r["perf"][counter] for r in results.values())
    return results, perf


def scenarios(scale="fast", seed=1, jobs=None, kernel_workers=None, out_dir=".",
              names: tuple[str, ...] | None = None):
    """Scenario-matrix sweep: every registered named scenario (fault
    timelines included) at one scale; the ``BENCH_scenarios.json``
    artifact has per-window throughput/latency/abort-rate and fault
    traces."""
    from repro.obs import TRACE_SCHEMA_VERSION
    from repro.scenarios import bench_scenarios, summary_row

    specs = bench_scenarios(SCALES[scale], seed=seed, names=names)
    print(f"\n=== Scenario matrix ({len(specs)} scenarios, scale={scale}) ===")
    results, perf = _run_matrix(specs, jobs)
    for report in results.values():
        print("  " + summary_row(report))
    return {
        "experiment": "scenarios",
        "scale": scale,
        "seed": seed,
        # Version of the repro.obs span/fault-trace schema the reports
        # (and any exported trace JSONL) follow.
        "trace_schema": TRACE_SCHEMA_VERSION,
        "results": results,
        "perf": perf,
    }


# ----------------------------------------------------------------------
# Population-scale workload matrix (repro.workload.population)
# ----------------------------------------------------------------------
#: Logical-population sizes per cell: the small size exercises the
#: exact-CDF Zipf path, the large one the rejection-inversion sampler
#: (and the headline claim: a million logical clients per enterprise on
#: an eight-actor wire pool).
POPULATION_SIZES = (10_000, 1_000_000)
POPULATION_SKEWS = (0.0, 1.2)
POPULATION_POOL = 8


def _population_specs(sc: Scale, seed: int, kernel_workers: int | None):
    from repro.scenarios import (
        ArrivalSpec,
        MeasurementSpec,
        PopulationSpec,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
    )

    profiles = {
        "constant": None,
        "diurnal": ArrivalSpec(
            profile="diurnal", period=sc.measure, amplitude=0.4
        ),
        "flash": ArrivalSpec(
            profile="flash",
            spike=2.5,
            spike_start=sc.warmup + sc.measure / 4,
            spike_duration=sc.measure / 2,
            hot_fraction=0.5,
            migrate_every=sc.measure / 8,
        ),
    }
    specs = {}
    for size in POPULATION_SIZES:
        for skew in POPULATION_SKEWS:
            for profile_name, arrival in profiles.items():
                name = f"pop-{size}-s{skew}-{profile_name}"
                specs[name] = ScenarioSpec(
                    name=name,
                    system="Flt-C",
                    topology=TopologySpec(
                        enterprises=sc.enterprises,
                        shards=sc.shards,
                        batch_size=16,
                    ),
                    workload=WorkloadSpec(
                        rate=sc.fixed_rate,
                        mix=WorkloadMix(cross=0.10, cross_type="isce"),
                        population=PopulationSpec(
                            size=size, skew=skew, pool=POPULATION_POOL
                        ),
                        arrival=arrival,
                    ),
                    measurement=MeasurementSpec(
                        warmup=sc.warmup,
                        measure=sc.measure,
                        drain=sc.drain,
                        window=sc.measure / 6,
                    ),
                    seed=seed,
                    kernel_workers=kernel_workers,
                )
    return specs


def population(scale="smoke", seed=1, jobs=None, kernel_workers=None, out_dir="."):
    """Population-scale workload matrix: logical-population sizes x
    activity skews x arrival profiles (constant, diurnal wave, flash
    crowd with migrating hotspot), every cell multiplexing its
    population onto a bounded wire-client pool; the
    ``BENCH_population.json`` artifact has per-bucket ``series`` and
    ``population`` blocks.  Asserts the wire bound on every cell: actors
    used never exceed the declared pool.  The artifact is byte-identical
    (modulo ``perf``/``obs``) at any ``jobs`` and — given the same
    ``kernel_workers`` — any worker-pool width."""
    from repro.scenarios import summary_row

    specs = _population_specs(SCALES[scale], seed, kernel_workers)
    print(
        f"\n=== Population workload matrix ({len(specs)} cells, "
        f"scale={scale}) ==="
    )
    results, perf = _run_matrix(specs, jobs)
    pools = {}
    for name, report in results.items():
        stats = report["population"]
        if stats["wire_clients_used"] > stats["wire_clients"]:
            raise AssertionError(
                f"{name}: wire-client bound violated — "
                f"{stats['wire_clients_used']} actors used, pool is "
                f"{stats['wire_clients']}"
            )
        pools[name] = report["perf"]["client_pool"]
        print(
            "  " + summary_row(report)
            + f"  logical={stats['logical_clients']:>9}"
            f"  wire={stats['wire_clients_used']}/{stats['wire_clients']}"
        )
    # The wire bound each cell ran under (the pool-bound assertion
    # above holds over these).
    perf["client_pool"] = pools
    return {
        "experiment": "population",
        "scale": scale,
        "seed": seed,
        "results": results,
        "perf": perf,
    }


# ----------------------------------------------------------------------
# Observability smoke (repro.obs)
# ----------------------------------------------------------------------
def obs(scale="smoke", seed=1, jobs=None, kernel_workers=None, out_dir="."):
    """Observability smoke: one traced cross-shard cross-enterprise
    scenario; the trace JSONL lands next to ``BENCH_obs.json`` as
    ``BENCH_obs_trace.jsonl``."""
    from repro import obs as obs_mod
    from repro.obs import TRACE_SCHEMA_VERSION
    from repro.scenarios import (
        MeasurementSpec,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
        run_scenario,
        summary_row,
    )

    sc = SCALES[scale]
    # Two enterprises, two shards, coordinator-run Byzantine clusters,
    # 30% csce traffic and batch_size=1: every consensus family phase
    # (PBFT three-phase, cross lock/vote/decide, execute) appears in
    # the trace, and one-transaction blocks keep tx -> block -> phase
    # parentage easy to eyeball in the waterfall.
    spec = ScenarioSpec(
        name="obs-cross-enterprise",
        system="Crd-B",
        topology=TopologySpec(
            enterprises=sc.enterprises[:2],
            shards=max(sc.shards, 2),
            batch_size=1,
        ),
        workload=WorkloadSpec(
            rate=sc.fixed_rate / 4,
            mix=WorkloadMix(cross=0.30, cross_type="csce"),
        ),
        measurement=MeasurementSpec(
            warmup=sc.warmup, measure=sc.measure, drain=sc.drain
        ),
        seed=seed,
        trace=True,
    )
    print(f"\n=== Observability smoke (traced, scale={scale}) ===")
    report = run_scenario(spec)
    print("  " + summary_row(report))
    # The embedded JSONL becomes its own artifact; the JSON report
    # keeps the span count / metric snapshot.  Under a caller-owned
    # tracer (bench --trace) the report carries no JSONL — read the
    # live tracer instead.
    trace_jsonl = report["obs"].pop("trace_jsonl", None)
    if trace_jsonl is None and obs_mod.TRACER is not None:
        trace_jsonl = obs_mod.TRACER.to_jsonl()
    if trace_jsonl is not None:
        trace_path = Path(out_dir) / "BENCH_obs_trace.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(trace_jsonl, encoding="utf-8")
        print(f"  trace written to {trace_path}")
    return {
        "experiment": "obs",
        "scale": scale,
        "seed": seed,
        "trace_schema": TRACE_SCHEMA_VERSION,
        "results": {spec.name: report},
        "perf": {
            "wall_clock_s": report["perf"]["wall_clock_s"],
            "digest_calls": report["perf"]["digest_calls"],
            "events": report["perf"]["events"],
        },
    }


# ----------------------------------------------------------------------
# Shard-parallel kernel sweep (repro.sim.shardpar)
# ----------------------------------------------------------------------
#: Shards-per-enterprise ladder for the shard-parallel sweep (two
#: enterprises throughout, so total clusters = 2 x shards; ``full``
#: tops out at the 16-cluster scenario the tentpole targets).
SHARDPAR_SHARDS = {"smoke": (2,), "fast": (2, 4), "full": (4, 8)}
SHARDPAR_RATE = {"smoke": 100.0, "fast": 250.0, "full": 250.0}


def shardpar(scale="fast", seed=1, jobs=None, kernel_workers=None, out_dir="."):
    """Shard-parallel kernel sweep: shards x worker counts, each point
    byte-compared across worker counts and timed against the plain
    sequential kernel; the ``BENCH_shardpar.json`` artifact has
    per-point speedups in its ``perf`` block."""
    import dataclasses

    from repro.bench.report import canonical_json, strip_perf
    from repro.scenarios import run_scenario, shardpar_scenario
    from repro.scenarios.shardpar import run_scenario_shardpar

    sc = SCALES[scale]
    worker_counts = (1, 2) if scale == "smoke" else (1, 2, 4)
    if kernel_workers is not None:
        worker_counts = tuple(sorted({1, kernel_workers}))
    print(
        f"\n=== Shard-parallel kernel sweep (scale={scale}, "
        f"workers={list(worker_counts)}) ==="
    )
    results: dict = {}
    points: dict = {}
    for shards in SHARDPAR_SHARDS[scale]:
        spec = shardpar_scenario(
            shards=shards,
            seed=seed,
            rate_per_cluster=SHARDPAR_RATE[scale],
            warmup=sc.warmup,
            measure=sc.measure,
            drain=sc.drain,
        )
        label = f"{len(spec.topology.enterprises)}x{shards}"
        seq_started = time.perf_counter()
        sequential = run_scenario(
            dataclasses.replace(spec, kernel_workers=None)
        )
        seq_wall = time.perf_counter() - seq_started
        reference: str | None = None
        per_worker: dict = {}
        for workers in worker_counts:
            report = run_scenario_shardpar(spec.with_kernel_workers(workers))
            stripped = canonical_json(strip_perf(report))
            if reference is None:
                reference = stripped
                results[label] = {
                    "shardpar": strip_perf(report),
                    # The sequential kernel's numbers are deterministic
                    # too; recording them makes the artifact show both
                    # interleavings side by side.
                    "sequential": strip_perf(sequential),
                }
            elif stripped != reference:
                raise AssertionError(
                    f"shard-parallel determinism violated: {label} at "
                    f"kernel_workers={workers} diverged from "
                    f"kernel_workers={worker_counts[0]}"
                )
            wall = report["perf"]["wall_clock_s"]
            per_worker[str(workers)] = {
                "wall_clock_s": wall,
                "speedup_vs_sequential": (
                    round(seq_wall / wall, 3) if wall > 0 else 0.0
                ),
            }
        points[label] = {
            "sequential_wall_s": round(seq_wall, 6),
            "workers": per_worker,
        }
        row = " ".join(
            f"w{workers}={data['wall_clock_s']:.2f}s"
            f"(x{data['speedup_vs_sequential']:.2f})"
            for workers, data in per_worker.items()
        )
        print(f"  {label:<6} seq={seq_wall:.2f}s  {row}")
    return {
        "experiment": "shardpar",
        "scale": scale,
        "seed": seed,
        "results": results,
        "perf": {"points": points},
    }


# ----------------------------------------------------------------------
# Ledger analytics (repro.analytics)
# ----------------------------------------------------------------------
#: Ledger sizes per scale for the analytics benchmark.  The tentpole
#: claim is stated at ``full``: four-family query latency percentiles
#: over a 1M-record multi-shard ledger, every sampled answer verified
#: against the in-process implementation.
ANALYTICS_RECORDS = {"smoke": 2_000, "fast": 50_000, "full": 1_000_000}
ANALYTICS_KEYS = {"smoke": 24, "fast": 48, "full": 96}


def analytics(scale="fast", seed=1, jobs=None, kernel_workers=None, out_dir="."):
    """Off-replica analytics: fill a seeded multi-collection ledger,
    ingest its journal into the indexed analytics database, cross-check
    the four query families against the in-process answers, and report
    per-family latency percentiles (ledger + analytics databases land
    in ``analytics_data/`` next to ``BENCH_analytics.json``, ready for
    ``python -m repro.analytics``)."""
    from repro.analytics.bench import run_analytics_bench

    return run_analytics_bench(
        Path(out_dir) / "analytics_data",
        records=ANALYTICS_RECORDS[scale],
        shards=SCALES[scale].shards,
        seed=seed,
        jobs=jobs,
        scale_name=scale,
        keys_per_shard=ANALYTICS_KEYS[scale],
    )


# ----------------------------------------------------------------------
# Adaptive batching / pipelined window knee sweep (PR 10)
# ----------------------------------------------------------------------
#: Batch-cap x inflight-window grids per scale.  The cap ladder spans
#: "seal almost every arrival alone" to "deep amortization"; the window
#: ladder spans strict one-at-a-time consensus to deep pipelining, so
#: the saturation knee is visible inside the grid at every scale.  At
#: smoke scale a cap of 64 never binds (every c64 cell equals its c16
#: twin), so the smoke grid stops at 16.
BATCHING_CAPS = {"smoke": (4, 16), "fast": (4, 16, 64), "full": (8, 32, 128)}
BATCHING_WINDOWS = {"smoke": (1, 4, 16), "fast": (1, 4, 16), "full": (1, 8, 32)}
#: Named workload mixes the sweep crosses the grid with: pure
#: single-shard traffic (internal-consensus lane) and a cross-heavy mix
#: (cross-engine lane, where the window gates engine flows instead).
BATCHING_WORKLOADS = {
    "local": WorkloadMix(),
    "cross": WorkloadMix(cross=0.20, cross_type="isce"),
}


def _batching_specs(scale: str, seed: int, kernel_workers: int | None):
    from repro.scenarios import (
        MeasurementSpec,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
    )

    sc = SCALES[scale]
    specs = {}
    for wl_name, mix in BATCHING_WORKLOADS.items():
        for cap in BATCHING_CAPS[scale]:
            for window in BATCHING_WINDOWS[scale]:
                name = f"batch-{wl_name}-c{cap}-w{window}"
                specs[name] = ScenarioSpec(
                    name=name,
                    system="Flt-C",
                    topology=TopologySpec(
                        enterprises=sc.enterprises,
                        shards=sc.shards,
                        batch_size=cap,
                        batch_adaptive=True,
                        max_inflight=window,
                    ),
                    # Well past the top of the rate ladder: the sweep
                    # wants the saturated regime, where sealing policy
                    # and window depth — not offered load — decide
                    # throughput, so the knee is visible in the grid.
                    workload=WorkloadSpec(
                        rate=sc.rate_ladder[-1] * 4, mix=mix
                    ),
                    measurement=MeasurementSpec(
                        warmup=sc.warmup, measure=sc.measure, drain=sc.drain
                    ),
                    seed=seed,
                    kernel_workers=kernel_workers,
                )
    return specs


def batching(scale="smoke", seed=1, jobs=None, kernel_workers=None, out_dir="."):
    """Adaptive-batching knee sweep: batch cap x inflight window x
    workload mix on the adaptive sealer, plus a per-signature-baseline
    rerun of one cell proving verify_many reduces ``verify_calls``
    without changing results; the ``BENCH_batching.json`` artifact has
    the throughput matrix and per-point ``perf`` blocks.  It is
    byte-identical (modulo ``perf``/``obs``) at any ``jobs`` and
    ``kernel_workers``."""
    from repro.bench.report import canonical_json, strip_perf
    from repro.crypto.signatures import set_batch_verify
    from repro.scenarios import run_scenario, summary_row

    caps, windows = BATCHING_CAPS[scale], BATCHING_WINDOWS[scale]
    specs = _batching_specs(scale, seed, kernel_workers)
    print(
        f"\n=== Adaptive batching sweep ({len(specs)} cells, "
        f"caps={list(caps)}, windows={list(windows)}, scale={scale}) ==="
    )
    results, perf = _run_matrix(specs, jobs)
    matrix: dict = {}
    for wl_name in BATCHING_WORKLOADS:
        cells = matrix[wl_name] = {}
        for cap in caps:
            for window in windows:
                report = results[f"batch-{wl_name}-c{cap}-w{window}"]
                measure = report["windows"]["measure"]
                cells[f"c{cap}-w{window}"] = {
                    "throughput_tps": measure["throughput_tps"],
                    "mean_latency_ms": measure["mean_latency_ms"],
                }
                print("  " + summary_row(report))
    # The verify_many claim, measured: rerun one cell with batched
    # verification off (every signature demand checked and counted one
    # verify() at a time) and require identical results at a strictly
    # higher verify_calls count.
    probe_name = next(iter(specs))
    batched_report = results[probe_name]
    previous = set_batch_verify(False)
    try:
        baseline_report = run_scenario(specs[probe_name])
    finally:
        set_batch_verify(previous)
    if canonical_json(strip_perf(baseline_report)) != canonical_json(
        strip_perf(batched_report)
    ):
        raise AssertionError(
            f"{probe_name}: batched signature verification changed the "
            "run's results — verify_many must be outcome-preserving"
        )
    verify_batched = batched_report["perf"]["verify_calls"]
    verify_baseline = baseline_report["perf"]["verify_calls"]
    if verify_batched >= verify_baseline:
        raise AssertionError(
            f"{probe_name}: expected verify_many to reduce verify_calls "
            f"(batched={verify_batched}, baseline={verify_baseline})"
        )
    print(
        f"  verify_calls: batched={verify_batched} "
        f"baseline={verify_baseline} "
        f"(-{100 * (1 - verify_batched / verify_baseline):.1f}%)"
    )
    perf["verify_baseline"] = {
        "cell": probe_name,
        "batched_verify_calls": verify_batched,
        "baseline_verify_calls": verify_baseline,
    }
    return {
        "experiment": "batching",
        "scale": scale,
        "seed": seed,
        "caps": list(caps),
        "windows": list(windows),
        "workloads": list(BATCHING_WORKLOADS),
        # Throughput/latency per cell — deterministic (virtual-time)
        # numbers, so they participate in the byte-compare.
        "matrix": matrix,
        "results": results,
        "perf": perf,
    }


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
def _wrapped(fn, results):
    """The registry entry of an experiment whose artifact wraps
    ``results(sc, seed, jobs)`` in the standard fields (``fn`` names
    and describes it)."""

    @functools.wraps(fn)
    def run(scale="fast", seed=1, jobs=None, kernel_workers=None, out_dir="."):
        started = time.perf_counter()
        value = results(SCALES[scale], seed, jobs)
        return {
            "experiment": fn.__name__,
            "scale": scale,
            "seed": seed,
            "results": value,
            # Excluded from the determinism byte-compare
            # (repro.bench.compare strips perf blocks).
            "perf": {"wall_clock_s": round(time.perf_counter() - started, 3)},
        }

    return run


def _points(panels):
    """The registry entry of a point experiment."""
    return _wrapped(
        panels, lambda sc, seed, jobs: run_panels(panels(sc, seed), jobs)
    )


_FIGURES = "Paper figures and tables (§5)"

#: name -> (``--list`` group, run).  Every run takes the same keywords
#: (scale, seed, jobs, kernel_workers, out_dir) and returns the payload
#: the CLI writes as ``BENCH_<name>.json``; ``--list`` and ``all``
#: follow this order.
EXPERIMENTS = {
    "fig7": (_FIGURES, _points(fig7)),
    "fig8": (_FIGURES, _points(fig8)),
    "fig9": (_FIGURES, _points(fig9)),
    "fig10": (_FIGURES, _points(fig10)),
    "fig11": (_FIGURES, _points(fig11)),
    "table2": (_FIGURES, _points(table2)),
    "table3": (_FIGURES, _points(table3)),
    "ablation_batching": ("Ablations", _points(ablation_batching)),
    "ablation_gamma": (
        "Ablations", _wrapped(ablation_gamma, lambda sc, seed, jobs: ablation_gamma()),
    ),
    "ablation_checkpoint": ("Ablations", _points(ablation_checkpoint)),
    "ablation_fig4": ("Ablations", _points(ablation_fig4)),
    "baseline_landscape": ("Baselines", _points(baseline_landscape)),
    "batching": ("Batching and pipelining", batching),
    "scenarios": ("Scenarios and durability", scenarios),
    "recovery": ("Scenarios and durability", recovery),
    "population": ("Population workloads", population),
    "shardpar": ("Shard-parallel kernel", shardpar),
    "obs": ("Observability", obs),
    "analytics": ("Analytics", analytics),
}

#: ``--list`` presentation: group -> experiment names, in registry order.
EXPERIMENT_GROUPS = {
    group: tuple(name for name, (g, _) in EXPERIMENTS.items() if g == group)
    for group, _ in EXPERIMENTS.values()
}


def run_experiment(name: str, scale: str = "fast", seed: int = 1,
                   jobs: int | None = None, kernel_workers: int | None = None,
                   out_dir: str | Path = ".") -> dict:
    """Run one registered experiment; return its artifact payload.
    Sidecar files (a trace, analytics databases) land in ``out_dir``."""
    if name not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; valid: " + ", ".join(EXPERIMENTS)
        )
    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}; valid: " + ", ".join(SCALES)
        )
    _, run = EXPERIMENTS[name]
    return run(
        scale=scale, seed=seed, jobs=jobs, kernel_workers=kernel_workers,
        out_dir=out_dir,
    )
