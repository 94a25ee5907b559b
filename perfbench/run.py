"""Run one roadfield benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload speed_table --seed 1 --seconds 30 --trace 0

The program under test is the ``roadfield`` package in ``src/`` of the
checkout holding this file.  The run repeats the workload's fixed operation
list in whole rounds until ``--seconds`` have passed (at least two rounds),
checks every output against ``oracle`` and against the first round's CSV
bytes, and prints one JSON object as its last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics.  Exits 1 without a result
when roadfield cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 9


def _import_program() -> None:
    """Put the checkout's src/ first on sys.path and import roadfield from it."""
    sys.path.insert(0, str(SRC))
    import roadfield.cli

    if Path(roadfield.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"roadfield was imported from {roadfield.cli.__file__}, not {SRC}")


def _setup_probe(workload: str, seed: int, out: Path) -> None:
    _import_program()
    import workloads

    out.mkdir(parents=True)
    workloads.INPUTS[workload](seed, out)


def _setup_seconds(workload: str, seed: int, out: Path) -> float:
    """Median wall time of fresh interpreters that import roadfield.cli and build the inputs."""
    samples = []
    for k in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(out / f"probe{k}"),
                "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _round_seconds(times: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in times.values())


def _per_layer(tracer: spans.Tracer, rounds: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced rounds; a layer that never ran reads 0."""
    REACTION = spans.REACTION
    T = tracer.totals

    def per_call(name: str, scale: float) -> float:
        t = T.get(name)
        return t.seconds / t.calls * scale if t and t.calls else 0.0

    def count(name: str) -> float:
        t = T.get(name)
        return t.calls / rounds if t else 0.0

    def per_round(name: str) -> float:
        t = T.get(name)
        return t.seconds / rounds if t else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    run_s = per_round("simulate.run")
    steps = tracer.run_steps / rounds
    return {
        "cli.speed_ms": (per_call("cli.speed", 1e3), "ms"),
        "cli.sweep_ms": (per_call("cli.sweep", 1e3), "ms"),
        "cli.strip_ms": (per_call("cli.strip", 1e3), "ms"),
        "cli.limit_ms": (per_call("cli.limit", 1e3), "ms"),
        "cli.simulate_s": (per_call("cli.simulate", 1.0), "s"),
        "cli.validate_s": (per_call("cli.validate", 1.0), "s"),
        "cli.self_ms": (per_call("cli.self", 1e3), "ms"),
        "params.reaction_us": (per_call(REACTION, 1e6), "us"),
        "params.reaction_calls": (count(REACTION), "count"),
        "params.reaction_in_run_s": (per_round("params.reaction_in_run"), "s"),
        "params.reaction_share": (ratio(per_round("params.reaction_in_run"), run_s), "ratio"),
        "params.check_kpp_ms": (per_call("params.check_kpp", 1e3), "ms"),
        "params.normalize_nu_us": (per_call("params.normalize_nu", 1e6), "us"),
        "dispersion.critical_speed_ms": (per_call("dispersion.critical_speed", 1e3), "ms"),
        "dispersion.critical_speed_calls": (count("dispersion.critical_speed"), "count"),
        "dispersion.curve_gap_calls": (count("dispersion.curve_gap"), "count"),
        "dispersion.curve_gap_us": (per_call("dispersion.curve_gap", 1e6), "us"),
        "dispersion.strip_critical_speed_ms": (per_call("dispersion.strip_critical_speed", 1e3), "ms"),
        "dispersion.limit_speed_ms": (per_call("dispersion.limit_speed", 1e3), "ms"),
        "dispersion.intersections_ms": (per_call("dispersion.intersections", 1e3), "ms"),
        "dispersion.gamma_plus_threshold_ms": (per_call("dispersion.gamma_plus_threshold", 1e3), "ms"),
        "dispersion.in_simulate_ms": (
            ratio(per_round("dispersion.in_simulate"), count("cli.simulate")) * 1e3, "ms"),
        "dispersion.share_of_simulate": (
            ratio(per_round("dispersion.in_simulate"), per_round("cli.simulate")), "ratio"),
        "simulate.run_s": (run_s, "s"),
        "simulate.run_steps": (steps, "count"),
        "simulate.run_ms_per_step": (ratio(run_s, steps) * 1e3, "ms"),
        "simulate.run_cell_updates_per_s": (ratio(tracer.run_cell_updates / rounds, run_s), "1/s"),
        "simulate.run_self_ms_per_step": (ratio(per_round("simulate.run_self"), steps) * 1e3, "ms"),
        "simulate.step_us": (per_call("simulate.step", 1e6), "us"),
        "simulate.step_calls": (count("simulate.step"), "count"),
        "simulate.total_mass_us": (per_call("simulate.total_mass", 1e6), "us"),
        "simulate.init_state_ms": (per_call("simulate.init_state", 1e3), "ms"),
        "simulate.write_mass_csv_ms": (per_call("simulate.write_mass_csv", 1e3), "ms"),
        "analysis.front_series_ms": (per_call("analysis.front_series", 1e3), "ms"),
        "analysis.fit_speed_us": (per_call("analysis.fit_speed", 1e6), "us"),
        "analysis.is_ordered_us": (per_call("analysis.is_ordered", 1e6), "us"),
        "analysis.steady_error_us": (per_call("analysis.steady_error", 1e6), "us"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def _measure(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    import workloads

    setup_s = None if trace else _setup_seconds(workload, seed, out)
    (out / "run").mkdir(parents=True)
    ops = workloads.WORKLOADS[workload](seed, out / "run")
    tracer = spans.Tracer()
    times = {False: defaultdict(list), True: defaultdict(list)}
    first_files: dict[str, dict[str, bytes]] = {}
    problems: list[str] = []
    errors: list[str] = []
    attempted = failed = 0
    rounds = {False: 0, True: 0}

    deadline = time.perf_counter() + seconds
    while sum(rounds.values()) < 2 or time.perf_counter() < deadline:
        traced = trace and sum(rounds.values()) % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            for op in ops:
                attempted += 1
                try:
                    elapsed, outcome = op.run()
                except Exception as exc:  # a raising operation counts as failed
                    failed += 1
                    errors.append(f"{op.name}: raised {exc!r}")
                    continue
                times[traced][op.name].append(elapsed)
                try:
                    if op.failed(outcome):
                        failed += 1
                        continue
                    problems += [f"{op.name}: {p}" for p in op.check(outcome)]
                except Exception as exc:  # unreadable output is a wrong answer
                    problems.append(f"{op.name}: check raised {exc!r}")
                files = getattr(outcome, "files", None)
                if files is not None and first_files.setdefault(op.name, files) != files:
                    problems.append(f"{op.name}: CSV bytes differ from the first round")
        rounds[traced] += 1

    for line in errors[:5] + problems[:20]:
        print(line, file=sys.stderr)
    print(f"# {workload} seed={seed}: {rounds[False]} untraced and {rounds[True]} traced rounds, "
          f"attempted={attempted} failed={failed}", file=sys.stderr)
    for name, v in times[False].items():
        print(f"#   {name}: median {statistics.median(v) * 1e3:.3f} ms over {len(v)}", file=sys.stderr)

    if trace:
        base = _round_seconds(times[False])
        overhead = (_round_seconds(times[True]) / base - 1.0) * 100.0
        metrics = _per_layer(tracer, rounds[True], overhead)
    else:
        medians = [statistics.median(v) for v in times[False].values()]
        metrics = {
            "setup_s": (setup_s, "s"),
            "round_s": (sum(medians), "s"),
            "op_p50_ms": (statistics.median(medians) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["speed_table", "front_speed", "ordered_pairs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        _setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import roadfield from {SRC}: {exc}", file=sys.stderr)
        return 1
    out = HERE / "out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        result = _measure(args.workload, args.seed, args.seconds, bool(args.trace), out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
