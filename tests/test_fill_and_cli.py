"""Bench CLI plumbing: registry, artifact writing, flags."""

import json

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.report import write_json
from repro.bench.runner import PointResult


def panel():
    return {
        "10%": [
            PointResult("Flt-C", 1000, 990, 4.2, 500),
            PointResult("Fabric", 1000, 240, 31.0, 120),
        ]
    }


def test_cli_knows_every_experiment():
    for required in (
        "fig7", "fig8", "fig9", "fig10", "table2", "table3", "fig11",
        "ablation_batching", "ablation_gamma", "ablation_checkpoint",
        "ablation_fig4", "baseline_landscape",
    ):
        assert required in EXPERIMENTS


def test_fig4_configs_resolve_to_valid_deployments():
    from repro.bench.runner import FIG4_CONFIGS
    from repro.core.config import DeploymentConfig

    for name, options in FIG4_CONFIGS.items():
        config = DeploymentConfig(enterprises=("A", "B"), **options)
        assert config.cross_protocol == "flattened", name


def test_cli_knows_the_recovery_experiment():
    assert "recovery" in EXPERIMENTS


def test_write_json_serializes_pointresults(tmp_path):
    path = write_json(tmp_path / "x.json", panel())
    data = json.loads(path.read_text())
    assert data["10%"][0]["system"] == "Flt-C"
    assert data["10%"][0]["throughput_tps"] == 990


def test_cli_out_and_seed_write_artifact(tmp_path):
    from repro.bench.__main__ import main

    main(["--experiment", "ablation_gamma", "--out", str(tmp_path), "--seed", "9"])
    data = json.loads((tmp_path / "BENCH_ablation_gamma.json").read_text())
    assert data["experiment"] == "ablation_gamma"
    assert data["seed"] == 9
    assert data["results"]["full"] > data["results"]["reduced"]


def test_cli_profile_prints_hot_call_sites(tmp_path, capsys):
    from repro.bench.__main__ import main

    main(["--experiment", "ablation_gamma", "--profile", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "profile (top 25 by cumulative time)" in out
    assert "cumtime" in out  # pstats table actually rendered
    # profiling must not swallow the artifact
    assert (tmp_path / "BENCH_ablation_gamma.json").exists()


def test_cli_without_out_writes_into_the_current_directory(
    tmp_path, monkeypatch
):
    from repro.bench.__main__ import main

    monkeypatch.chdir(tmp_path)
    main(["--experiment", "ablation_gamma", "--seed", "4"])
    data = json.loads((tmp_path / "BENCH_ablation_gamma.json").read_text())
    assert data["experiment"] == "ablation_gamma"
    assert data["seed"] == 4


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_unknown_scale_is_rejected_alike_and_writes_nothing(
    name, tmp_path, monkeypatch
):
    from repro.bench.experiments import run_experiment
    from repro.errors import ConfigurationError

    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigurationError, match="unknown scale 'warp'"):
        run_experiment(name, scale="warp", out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_cli_jobs_flag_reaches_experiments(tmp_path):
    from repro.bench.__main__ import main

    main([
        "--experiment", "ablation_gamma", "--jobs", "2", "--out", str(tmp_path),
    ])  # ablation_gamma runs no points, so it ignores the flag
    assert (tmp_path / "BENCH_ablation_gamma.json").exists()


def test_cli_rejects_negative_jobs(capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--experiment", "fig11", "--jobs", "-1"])
    assert excinfo.value.code == 2
    assert "--jobs must be >= 0" in capsys.readouterr().err


def test_cli_list_enumerates_experiments_with_descriptions(capsys):
    from repro.bench.__main__ import main

    main(["--list"])
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert "Figure 7" in out  # one-line descriptions, not just names


def test_cli_unknown_experiment_fails_with_the_valid_set(capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--experiment", "fig99"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'fig99'" in err
    assert "fig7" in err and "recovery" in err
