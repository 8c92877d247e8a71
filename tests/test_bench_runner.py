"""Unit tests for the benchmark harness itself."""

import pytest

from repro.bench.parallel import PointTask, execute_tasks
from repro.bench.runner import (
    QANAAT_PROTOCOLS,
    point_from_payload,
    point_spec,
    run_point,
    sweep_merge,
    sweep_stop,
)
from repro.core.deployment import Metrics
from repro.errors import WorkloadError
from repro.workload.generator import WorkloadMix

FAST = dict(
    enterprises=("A", "B"),
    shards=2,
    warmup=0.1,
    measure=0.2,
    drain=0.1,
)
MIX = WorkloadMix(cross=0.1, cross_type="isce")


def test_metrics_windows():
    metrics = Metrics()
    metrics.record_completion(1, sent_at=0.10, latency=0.05)  # done at .15
    metrics.record_completion(2, sent_at=0.30, latency=0.05)  # done at .35
    metrics.record_completion(3, sent_at=0.90, latency=0.30)  # done at 1.2
    assert metrics.completed_between(0.0, 0.5) == [0.05, 0.05]
    assert metrics.throughput(0.0, 0.5) == pytest.approx(4.0)
    assert metrics.mean_latency(0.0, 0.5) == pytest.approx(0.05)
    assert metrics.throughput(2.0, 3.0) == 0.0


def test_qanaat_point_unsaturated_tracks_offered():
    point = run_point(point_spec("Flt-C", 1500, MIX, **FAST))
    assert point.completed > 0
    assert point.throughput_tps == pytest.approx(1500, rel=0.25)
    assert not point.saturated
    assert point.mean_latency_ms > 0


def test_fabric_point_runs():
    point = run_point(point_spec("Fabric", 1500, MIX, **FAST))
    assert point.completed > 0
    assert not point.saturated


def test_sweep_reports_point_below_saturation():
    # The experiments' sweep path: one task chain per rate ladder,
    # stopped past the knee, reduced by sweep_merge.
    tasks = [
        PointTask(
            key=(rung,), spec=point_spec("Fabric", rate, MIX, **FAST),
            chain=("Fabric",),
        )
        for rung, rate in enumerate([1000, 4000, 30000, 60000])
    ]
    raw = execute_tasks(tasks, stop=sweep_stop)
    curve, best = sweep_merge([point_from_payload(p) for p in raw.values()])
    assert best.throughput_tps >= 900
    assert len(curve) <= 4
    assert not best.saturated


def test_all_protocol_names_resolve():
    assert set(QANAAT_PROTOCOLS) == {
        "Crd-B", "Crd-B(PF)", "Flt-B", "Flt-B(PF)", "Crd-C", "Flt-C",
    }


def test_crash_nodes_option_still_commits():
    point = run_point(point_spec("Flt-C", 1000, MIX, crash_nodes=1, **FAST))
    assert point.completed > 0


def test_caper_point_runs():
    point = run_point(point_spec(
        "Caper", 800, WorkloadMix(cross=0.2, cross_type="isce"),
        enterprises=("A", "B"), warmup=0.1, measure=0.2, drain=0.1,
    ))
    assert point.system == "Caper"
    assert point.completed > 0


def test_caper_rejects_cross_shard_mixes():
    with pytest.raises(WorkloadError, match="cross-shard"):
        run_point(point_spec(
            "Caper", 500, WorkloadMix(cross=0.2, cross_type="csie"),
            enterprises=("A", "B"), warmup=0.1, measure=0.2, drain=0.1,
        ))


def test_sharded_baseline_points_run():
    for system in ("SharPer", "AHL"):
        point = run_point(point_spec(
            system, 800, WorkloadMix(cross=0.2, cross_type="csie"),
            shards=2, warmup=0.1, measure=0.2, drain=0.1,
        ))
        assert point.system == system
        assert point.completed > 0


def test_sharded_baselines_reject_cross_enterprise_mixes():
    with pytest.raises(WorkloadError, match="cross-enterprise"):
        run_point(point_spec(
            "SharPer", 500, WorkloadMix(cross=0.2, cross_type="isce"),
            shards=2, warmup=0.1, measure=0.2, drain=0.1,
        ))


def test_qanaat_point_accepts_checkpoint_interval():
    point = run_point(point_spec(
        "Flt-C", 800, WorkloadMix(cross=0.0),
        enterprises=("A", "B"), shards=1,
        warmup=0.1, measure=0.2, drain=0.1, checkpoint_interval=16,
    ))
    assert point.completed > 0


# ----------------------------------------------------------------------
# one measurement path: a point is a projection of a scenario report
# ----------------------------------------------------------------------
#: One point per system family: (mix, topology knobs) it can run.
FAMILY_POINTS = {
    "Flt-C": (MIX, dict(enterprises=("A", "B"), shards=2)),
    "Fabric": (MIX, dict(enterprises=("A", "B"), shards=2)),
    "Caper": (MIX, dict(enterprises=("A", "B"))),
    "SharPer": (WorkloadMix(cross=0.1, cross_type="csie"), dict(shards=2)),
}


@pytest.mark.parametrize("system", list(FAMILY_POINTS))
def test_run_point_is_the_measure_window_of_run_scenario(system):
    from repro.bench.runner import PointResult
    from repro.scenarios.runner import run_scenario

    mix, topology = FAMILY_POINTS[system]
    spec = point_spec(
        system, 800, mix, warmup=0.1, measure=0.2, drain=0.1, **topology
    )
    point = run_point(spec)
    report = run_scenario(spec)
    measure = report["windows"]["measure"]
    # PointResult equality excludes perf (timing metadata).
    assert point == PointResult(
        spec.system,
        spec.workload.rate,
        measure["throughput_tps"],
        measure["mean_latency_ms"],
        measure["completed"],
    )
    assert point.completed > 0
    assert set(point.perf) >= {"wall_clock_s", "events", "digest_calls"}


def test_run_point_honours_the_event_budget():
    import dataclasses

    from repro.errors import SimulationLimitError

    spec = point_spec("Flt-C", 800, MIX, **FAST)
    spec = dataclasses.replace(
        spec,
        measurement=dataclasses.replace(spec.measurement, max_events=50),
    )
    with pytest.raises(SimulationLimitError):
        run_point(spec)


def test_every_entry_point_rejects_a_workload_free_spec_alike():
    import dataclasses

    from repro.errors import ConfigurationError
    from repro.scenarios.runner import run_scenario

    spec = dataclasses.replace(point_spec("Flt-C", 800, MIX, **FAST), workload=None)
    message = "declares no workload"
    with pytest.raises(ConfigurationError, match=message):
        run_point(spec)
    with pytest.raises(ConfigurationError, match=message):
        run_scenario(spec)
    with pytest.raises(ConfigurationError, match=message):
        run_scenario(spec.with_kernel_workers(2))
