"""CLI: ``python -m repro.bench --experiment fig7 [--scale full]
[--out results/ --seed 7 --jobs 4]``.

``--list`` enumerates the available experiments with one-line
descriptions; each experiment's payload is written as
``BENCH_<name>.json`` under ``--out`` (default: the current
directory), with any sidecar files next to it; ``--seed`` is recorded
in every artifact so a run can be reproduced exactly.

``--jobs N`` fans the experiment's independent points out over N
worker processes (``0`` = one per CPU; default: sequential).  The
merge is deterministic, so artifacts are byte-identical at any job
count — see ``docs/benchmarks.md``.  ``--profile`` runs the selected
experiments under :mod:`cProfile` and prints the hottest call sites
(the flag that exposed the signature re-verification and
``Simulator.pending`` scans); profiling covers the driving process, so
pair it with sequential execution to see simulation internals.
"""

from __future__ import annotations

import argparse
import inspect
from pathlib import Path

from repro.bench.experiments import EXPERIMENT_GROUPS, EXPERIMENTS, run_experiment
from repro.bench.report import write_json


def describe(fn) -> str:
    """One-line description of an experiment: its docstring's first line."""
    doc = inspect.getdoc(fn) or ""
    return doc.splitlines()[0] if doc else ""


def list_experiments() -> str:
    """Experiments grouped by family, each with its one-line docstring
    description."""
    width = max(len(name) for name in EXPERIMENTS)
    lines = ["available experiments:"]
    for group, names in EXPERIMENT_GROUPS.items():
        lines.append(f"\n{group}:")
        lines.extend(
            f"  {name:<{width}}  {describe(EXPERIMENTS[name][1])}"
            for name in names
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "--experiment",
        default="all",
        metavar="NAME",
        help="which table/figure to regenerate ('all' runs everything; "
        "see --list)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list available experiments with one-line descriptions and exit",
    )
    parser.add_argument(
        "--scale",
        default="fast",
        choices=["smoke", "fast", "full"],
        help="smoke: CI-sized 2 x 2; fast: 3 enterprises x 2 shards; "
        "full: the paper's 4 x 4",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="directory for BENCH_<experiment>.json artifacts "
        "(default: the current directory)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="workload/arrival seed recorded in every artifact",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run independent measurement points over N worker "
        "processes (0 = one per CPU; default: sequential); results "
        "and artifacts are byte-identical at any job count",
    )
    parser.add_argument(
        "--kernel-workers",
        type=int,
        default=None,
        metavar="N",
        help="shard-parallel worker processes for experiments that "
        "support them (the shardpar sweep compares N against the "
        "1-worker reference); artifacts are byte-identical at any "
        "worker count — see docs/performance.md",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable repro.obs causal tracing + metrics for the whole "
        "run (sequential only; see docs/observability.md)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the causal trace as JSONL to PATH when done "
        "(implies --trace); render it with python -m repro.obs.trace",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest call sites "
        "(profiles the driving process; use with sequential execution)",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="write the raw cProfile/pstats dump to PATH for offline "
        "analysis (snakeviz, pstats.Stats); implies --profile",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")
    if args.kernel_workers is not None and args.kernel_workers < 1:
        parser.error(
            f"--kernel-workers must be >= 1, got {args.kernel_workers}"
        )
    if args.list_experiments:
        print(list_experiments())
        return
    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        parser.error(
            f"unknown experiment {args.experiment!r}\n" + list_experiments()
        )
    tracing = args.trace or args.trace_out is not None
    if tracing and args.jobs not in (None, 1):
        # Worker processes would each build their own tracer and the
        # driving process would export an empty one — refuse instead
        # of writing a misleading artifact.
        parser.error("--trace requires sequential execution (drop --jobs)")
    out_dir = Path(args.out) if args.out is not None else Path(".")
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if tracing:
        from repro import obs

        obs.enable()
    profiler = None
    if args.profile or args.profile_out is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        for name in names:
            payload = run_experiment(
                name,
                scale=args.scale,
                seed=args.seed,
                jobs=args.jobs,
                kernel_workers=args.kernel_workers,
                out_dir=out_dir,
            )
            write_json(out_dir / f"BENCH_{name}.json", payload)
    finally:
        if tracing:
            from repro import obs

            if args.trace_out is not None and obs.TRACER is not None:
                path = Path(args.trace_out)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(obs.TRACER.to_jsonl(), encoding="utf-8")
                print(f"\ntrace written to {path}")
            obs.disable()
        if profiler is not None:
            import pstats

            profiler.disable()
            if args.profile_out is not None:
                path = Path(args.profile_out)
                path.parent.mkdir(parents=True, exist_ok=True)
                profiler.dump_stats(path)
                print(f"\nprofile dump written to {path}")
            print("\n=== profile (top 25 by cumulative time) ===")
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)


if __name__ == "__main__":
    main()
