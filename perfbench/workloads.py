"""The benchmark's three workloads: seeded inputs, timed operations and checks.

Each workload is a fixed list of operations.  An operation performs its
timed calls into roadfield (``roadfield.cli.main`` in-process, or a public
library function) and returns the seconds spent inside those calls together
with what it produced; its check then compares that output with
:mod:`oracle` values and with properties the method must have.  Reading
output files and checking them happens outside the timed calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from roadfield import analysis, cli, dispersion, params, simulate

SPEED_TOL = dispersion.DEFAULT_TOL
# A computed speed may sit anywhere in the solver's final bracket of width tol
# (times nu in physical units); the oracle's own bracket adds oracle.C_TOL
# relative.


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_config(path: Path, p: oracle.Params) -> Path:
    path.write_text(
        f"D={_fmt(p.D)}\nd={_fmt(p.d)}\nmu={_fmt(p.mu)}\nnu={_fmt(p.nu)}\nfp0={_fmt(p.fp0)}\n",
        encoding="utf-8",
    )
    return path


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _model(p: oracle.Params) -> params.ModelParams:
    return params.ModelParams(D=p.D, d=p.d, mu=p.mu, nu=p.nu, f_prime_0=p.fp0)


# --- operations ------------------------------------------------------------------


@dataclass
class CliOutcome:
    code: int
    files: dict[str, bytes]


@dataclass
class Op:
    """One timed operation.  ``run`` returns (seconds inside roadfield calls, outcome).

    ``failed`` says whether the outcome is a failed operation; ``check``
    returns the problems found in an outcome that did not fail.
    """

    name: str
    run: Callable[[], tuple[float, object]]
    check: Callable[[object], list[str]]
    failed: Callable[[object], bool] = lambda outcome: False


def cli_op(name: str, argv: list[str], out_dir: Path, check,
           failed: Callable[[CliOutcome], bool] | None = None,
           prepare: Callable[[], None] | None = None) -> Op:
    """An operation that runs ``roadfield <argv> --out-dir <out_dir>`` in-process.

    Untimed, before each call, ``prepare`` runs and ``out_dir`` is emptied, so
    the outcome holds only the files this call wrote.  By default the
    operation fails when the command exits non-zero.
    """
    full = [*argv, "--out-dir", str(out_dir)]

    def run():
        if prepare is not None:
            prepare()
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = cli.main(full)
            elapsed = time.perf_counter() - t0
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return elapsed, CliOutcome(code, files)

    return Op(name, run, check, failed or (lambda o: o.code != 0))


def _rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _timed_call(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


# --- checks (pure functions of parsed outputs and oracle values) -----------------


def check_speed(c_star: float, expected: float, nu: float) -> list[str]:
    """A computed c* must lie within the solver tolerance of the oracle's."""
    allowed = nu * SPEED_TOL + oracle.C_TOL * abs(expected)
    if not abs(c_star - expected) <= allowed:
        return [f"c*={c_star!r} differs from the oracle's {expected!r} by more than {allowed!r}"]
    return []


def check_subthreshold(c_star: float, p: oracle.Params) -> list[str]:
    """For D <= 2d the solver returns c_KPP of the normalised system exactly."""
    exact = p.nu * oracle.c_kpp(p.normalized())
    if c_star != exact:
        return [f"D={p.D!r} <= 2d: c*={c_star!r} is not c_KPP={exact!r} exactly"]
    return []


def check_speed_csv(files: dict[str, bytes], p: oracle.Params, expected: float) -> list[str]:
    (row,) = _rows(files["speed.csv"])
    c_star = float(row["c_star"])
    problems = check_speed(c_star, expected, p.nu)
    if p.D <= 2.0 * p.d:
        problems += check_subthreshold(c_star, p)
    if float(row["c_kpp"]) != oracle.c_kpp(p):
        problems.append(f"c_kpp column {row['c_kpp']} is not {oracle.c_kpp(p)!r}")
    return problems


def check_sweep_rows(rows: list[dict[str, str]], ladder: list[oracle.Params],
                     expected: list[float], limit: float) -> list[str]:
    """c* per row against the oracle; c*/sqrt(D) decreasing toward sqrt(nu) * limit."""
    if len(rows) != len(ladder):
        return [f"sweep wrote {len(rows)} rows for {len(ladder)} values of D"]
    problems = []
    ratios = []
    for row, p, c in zip(rows, ladder, expected):
        if float(row["D"]) != p.D:
            problems.append(f"sweep row D={row['D']} where {p.D!r} was asked")
        c_star = float(row["c_star"])
        problems += check_speed(c_star, c, p.nu)
        if p.D <= 2.0 * p.d:
            problems += check_subthreshold(c_star, p)
        ratios.append(float(row["c_star_over_sqrtD"]))
    if any(b >= a for a, b in zip(ratios, ratios[1:])):
        problems.append(f"c*/sqrt(D) is not decreasing along the ladder: {ratios}")
    target = math.sqrt(ladder[0].nu) * limit
    if not 0.0 <= ratios[-1] - target <= 1e-4 * target:
        problems.append(f"c*/sqrt(D)={ratios[-1]!r} at D={ladder[-1].D} is not just above "
                        f"sqrt(nu)*limit={target!r}")
    return problems


def check_strip_row(row: dict[str, str], p: oracle.Params, c_L: float, c_star: float) -> list[str]:
    """c*_L and c* against the oracle, and c_KPP < c*_L < c*."""
    got, got_star = float(row["c_star_L"]), float(row["c_star"])
    problems = check_speed(got, c_L, p.nu) + check_speed(got_star, c_star, p.nu)
    if not oracle.c_kpp(p) < got < got_star:
        problems.append(f"c*_L={got!r} is not strictly between c_KPP={oracle.c_kpp(p)!r} "
                        f"and c*={got_star!r}")
    return problems


def check_limit_row(row: dict[str, str], p: oracle.Params, expected: float) -> list[str]:
    problems = check_speed(float(row["c_limit"]), expected, 1.0)
    low, high = oracle.limit_window(p)
    sq = float(row["c_limit_sq"])
    if not low <= sq <= high:
        problems.append(f"limit squared {sq!r} outside the proven window [{low!r}, {high!r}]")
    return problems


def check_crossings(points, c: float, p: oracle.Params) -> list[str]:
    """Just above c* the loci cross exactly twice, each point solving all three equations."""
    if len(points) != 2:
        return [f"intersections at c={c!r} returned {len(points)} points, not 2"]
    problems = []
    for pt in points:
        res = oracle.dispersion_residuals(c, pt.alpha, pt.beta, p)
        if max(abs(r) for r in res) > 1e-8:
            problems.append(f"crossing (b={pt.beta!r}, a={pt.alpha!r}) has residuals {res}")
    return problems


def check_upper_window(result, window: oracle.UpperBranchWindow) -> list[str]:
    problems = []
    if abs(result.delta - window.delta) > 1e-9 * window.delta:
        problems.append(f"delta={result.delta!r}, oracle {window.delta!r}")
    if result.intersects != (window.c_tilde is not None):
        problems.append(f"intersects={result.intersects}, oracle says {window.c_tilde is not None}")
    elif window.c_tilde is not None:
        for got, want in zip((result.c_tilde_1, result.c_tilde_2), window.c_tilde):
            if abs(got - want) > 1e-9 * want:
                problems.append(f"crossing speed {got!r}, oracle {want!r}")
    return problems


def check_front_speed(fitted: float, c_star: float) -> list[str]:
    """Desk-scale fitted speeds sit a few percent below c*; 10 % is the acceptance budget."""
    if not abs(fitted - c_star) <= 0.1 * c_star:
        return [f"fitted front speed {fitted!r} is more than 10% from c*={c_star!r}"]
    return []


def check_increasing(values: list[float], what: str) -> list[str]:
    if not all(b > a for a, b in zip(values, values[1:])):
        return [f"{what} do not increase along the D ladder: {values}"]
    return []


def check_pair_state(lo_u, lo_v, hi_u, hi_v) -> list[str]:
    """Ordered and nonnegative, by the benchmark's own comparisons."""
    problems = []
    if not (np.all(lo_u <= hi_u) and np.all(lo_v <= hi_v)):
        problems.append("lo exceeds hi somewhere")
    if not (np.all(lo_u >= 0.0) and np.all(lo_v >= 0.0)):
        problems.append("a state went negative")
    return problems


def check_validate_csv(code: int, files: dict[str, bytes]) -> list[str]:
    rows = _rows(files["validate.csv"])
    problems = [] if code == 0 else [f"validate exited {code}"]
    if len(rows) != 6 or any(r["passed"] != "true" for r in rows):
        problems.append(f"validate suites: {[(r['suite'], r['passed']) for r in rows]}")
    return problems


# --- workloads -------------------------------------------------------------------


def _draw(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def speed_table_inputs(seed: int, out: Path) -> dict:
    """Three seeded parameter files, the D ladder of the first, and the strip heights."""
    rng = _rng(seed, 1)
    sets = []
    for _ in range(3):
        d, mu, nu, fp0 = (_draw(rng, 0.5, 2.0) for _ in range(4))
        # 3d < D < 6d keeps the normalised c* within the solver's first bracket
        # [c_KPP, c_KPP + 1], so every solve takes the same number of gap
        # evaluations and the cost per seed hardly moves
        D = 2.0 * d * _draw(rng, 1.5, 3.0)
        sets.append(oracle.Params(D=D, d=d, mu=mu, nu=nu, fp0=fp0))
    configs = [_write_config(out / f"set{k}.cfg", p) for k, p in enumerate(sets)]
    base = sets[0]
    d = base.d
    # the ladder stops at 1e5: at 1e6 roadfield's c* misses the tolerance on
    # some seeds only, so D = 1e6 is the fixed-input operation speed_D1e6
    ladder_D = [d, 2.0 * d, 2.0 * d + 1e-3, 4.0 * d, 16.0 * d, 64.0 * d, 1e3, 1e4, 1e5]
    ladder = [oracle.Params(D=D, d=d, mu=base.mu, nu=base.nu, fp0=base.fp0) for D in ladder_D]
    length = math.sqrt(base.d / base.fp0)
    floor = max(oracle.strip_height_floor(base), 0.0)
    heights = [floor + k * length for k in (1.0, 2.0, 4.0)]
    return {"sets": sets, "configs": configs, "ladder": ladder, "heights": heights,
            "window": ladder[2]}


# D = 1e6 with fixed parameters, on which roadfield's c* misses the tolerance.
FAR = oracle.Params(D=1e6, d=1.0, mu=1.0, nu=1.0, fp0=1.0)
FAR_ARGV = ["speed", "--set", "D=1e6", "--set", "d=1", "--set", "mu=1", "--set", "nu=1",
            "--set", "fp0=1"]


def speed_table(seed: int, out: Path) -> list[Op]:
    inp = speed_table_inputs(seed, out)
    sets, configs, ladder, heights = inp["sets"], inp["configs"], inp["ladder"], inp["heights"]
    base, base_cfg = sets[0], str(configs[0])
    c_sets = [oracle.critical_speed(p) for p in sets]
    c_ladder = [oracle.critical_speed(p) for p in ladder]
    c_strips = [oracle.strip_critical_speed(base, L) for L in heights]
    c_limit = oracle.limit_speed(base)
    window = oracle.upper_branch_window(inp["window"])
    norm_base = params.normalize_nu(_model(base))
    norm_window = params.normalize_nu(_model(inp["window"]))
    c_cross = c_sets[0] / base.nu * (1.0 + 1e-3)
    c_far = oracle.critical_speed(FAR)

    ops: list[Op] = []
    for k, (cfg, p, c) in enumerate(zip(configs, sets, c_sets)):
        ops.append(cli_op(f"speed{k}", ["speed", "--config", str(cfg)], out / f"speed{k}",
                          lambda o, p=p, c=c: check_speed_csv(o.files, p, c)))
    ops.append(cli_op(
        "sweep", ["sweep", "--config", base_cfg, "--D-list", ",".join(_fmt(p.D) for p in ladder)],
        out / "sweep",
        lambda o: check_sweep_rows(_rows(o.files["sweep.csv"]), ladder, c_ladder, c_limit)))
    strip_speeds: dict[int, float] = {}   # this round's c*_L by height index
    for k, (L, c_L) in enumerate(zip(heights, c_strips)):

        def check_strip(o, k=k, c_L=c_L):
            (row,) = _rows(o.files["strip.csv"])
            strip_speeds[k] = float(row["c_star_L"])
            problems = check_strip_row(row, base, c_L, c_sets[0])
            if k == len(heights) - 1:
                problems += check_increasing([strip_speeds.get(j, math.nan) for j in range(k + 1)],
                                             "strip speeds")
            return problems

        ops.append(cli_op(f"strip{k}", ["strip", "--config", base_cfg, "--L", _fmt(L)],
                          out / f"strip{k}", check_strip,
                          prepare=strip_speeds.clear if k == 0 else None))
    ops.append(cli_op("limit", ["limit", "--config", base_cfg], out / "limit",
                      lambda o: check_limit_row(_rows(o.files["limit.csv"])[0], base, c_limit)))
    ops.append(Op("intersections",
                  lambda: _timed_call(dispersion.intersections, c_cross, norm_base),
                  lambda res: check_crossings(res.points, c_cross, base)))
    ops.append(Op("gamma_plus_threshold",
                  lambda: _timed_call(dispersion.gamma_plus_threshold, norm_window),
                  lambda res: check_upper_window(res, window)))
    # known faults, counted as failed operations: ModelParams accepts D=nan, so
    # this exits 0 instead of 2; and at D = 1e6 the gap cancels, so c* lands
    # outside the solver tolerance of the oracle
    ops.append(cli_op("speed_nan", ["speed", "--set", "D=nan"], out / "speed_nan", lambda o: [],
                      failed=lambda o: o.code != 2))
    far_check = lambda o: check_speed_csv(o.files, FAR, c_far)  # noqa: E731
    ops.append(cli_op("speed_D1e6", FAR_ARGV, out / "speed_D1e6", far_check,
                      failed=lambda o: o.code != 0 or bool(far_check(o))))
    return ops


FRONT_LADDER = ((1.0, 100.0), (4.0, 120.0), (10.0, 150.0))   # (D, half-width of x)
FRONT_T_END = 40.0


def front_speed_inputs(seed: int, out: Path) -> list[tuple[oracle.Params, Path]]:
    """Near-nominal parameters (d = 1 fixed, so the step count per D is fixed)."""
    rng = _rng(seed, 2)
    mu, nu, fp0 = _draw(rng, 0.95, 1.05), _draw(rng, 0.97, 1.03), _draw(rng, 0.95, 1.0)
    runs = []
    for D, _ in FRONT_LADDER:
        p = oracle.Params(D=D, d=1.0, mu=mu, nu=nu, fp0=fp0)
        runs.append((p, _write_config(out / f"front_D{D:g}.cfg", p)))
    return runs


def front_speed(seed: int, out: Path) -> list[Op]:
    runs = front_speed_inputs(seed, out)
    ops: list[Op] = []
    fitted: dict[float, float] = {}   # this round's fitted speed by D
    for (p, cfg), (D, half) in zip(runs, FRONT_LADDER):
        c_star = oracle.critical_speed(p)
        if c_star * FRONT_T_END + 20.0 > half:
            raise ValueError(f"front at D={D} would come within 20 of the wall")
        argv = ["simulate", "--preset", "enhanced", "--config", str(cfg),
                "--set", f"D={D:g}", "--set", "dx=0.5", "--set", "dy=0.5", "--set", "y_max=15",
                "--set", f"t_end={FRONT_T_END:g}",
                "--set", f"x_min={-half:g}", "--set", f"x_max={half:g}"]

        def check(o, D=D, c_star=c_star):
            (row,) = _rows(o.files["speed.csv"])
            fitted[D] = float(row["speed"])
            problems = check_front_speed(fitted[D], c_star)
            if D == FRONT_LADDER[-1][0]:
                problems += check_increasing([fitted[x] for x, _ in FRONT_LADDER], "fitted speeds")
            return problems

        ops.append(cli_op(f"simulate_D{D:g}", argv, out / f"sim_D{D:g}", check,
                          prepare=fitted.clear if not ops else None))
    return ops


PAIR_COUNT = 8
PAIR_STEPS = 500


def ordered_pairs_inputs(seed: int, out: Path) -> list[tuple[oracle.Params, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Ordered pairs (lo <= hi) on the 25x9 grid of [-6, 6] x [0, 4], D alternating around 2d."""
    rng = _rng(seed, 3)
    pairs = []
    for k in range(PAIR_COUNT):
        d, mu, nu, fp0 = (_draw(rng, 0.5, 2.0) for _ in range(4))
        D = 2.0 * d * (_draw(rng, 0.2, 0.9) if k % 2 == 0 else _draw(rng, 1.1, 5.0))
        p = oracle.Params(D=D, d=d, mu=mu, nu=nu, fp0=fp0)
        nu_mu = nu / mu
        lo_u = 0.5 * nu_mu * rng.random(25)
        lo_v = 0.5 * rng.random((25, 9))
        hi_u = lo_u + 0.5 * nu_mu * rng.random(25)
        hi_v = lo_v + 0.5 * rng.random((25, 9))
        pairs.append((p, lo_u, lo_v, hi_u, hi_v))
    return pairs


@dataclass
class PairOutcome:
    reported: list[bool]
    problems: list[str]


def pair_op(k: int, p: oracle.Params, lo_u, lo_v, hi_u, hi_v) -> Op:
    model = _model(p)
    grid = simulate.build_grid(-6.0, 6.0, 4.0, 0.5, 0.5, model, 0.4)
    if (grid.nx, grid.ny) != lo_v.shape:
        raise ValueError(f"pair grid {grid.nx}x{grid.ny} is not {lo_v.shape}")

    def run():
        lo = simulate.FieldState(t=0.0, u=lo_u, v=lo_v)
        hi = simulate.FieldState(t=0.0, u=hi_u, v=hi_v)
        reported, problems, elapsed = [], [], 0.0
        for _ in range(PAIR_STEPS):
            t0 = time.perf_counter()
            lo = simulate.step(lo, model, grid)
            hi = simulate.step(hi, model, grid)
            ok = analysis.is_ordered(lo, hi)
            elapsed += time.perf_counter() - t0
            reported.append(ok)
            if not problems:
                problems = check_pair_state(lo.u, lo.v, hi.u, hi.v)
        return elapsed, PairOutcome(reported, problems)

    def check(o: PairOutcome):
        problems = list(o.problems)
        if not all(o.reported):
            problems.append(f"is_ordered reported False at step {o.reported.index(False) + 1}")
        return problems

    return Op(f"pair{k}", run, check)


def ordered_pairs(seed: int, out: Path) -> list[Op]:
    ops: list[Op] = []
    for k, pair in enumerate(ordered_pairs_inputs(seed, out)):
        ops.append(pair_op(k, *pair))
    ops.append(cli_op("validate", ["validate"], out / "validate",
                      lambda o: check_validate_csv(o.code, o.files)))
    return ops


WORKLOADS = {"speed_table": speed_table, "front_speed": front_speed, "ordered_pairs": ordered_pairs}
INPUTS = {
    "speed_table": speed_table_inputs,
    "front_speed": front_speed_inputs,
    "ordered_pairs": ordered_pairs_inputs,
}
