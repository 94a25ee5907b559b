"""Batch front-end: reproducible experiments with CSV outputs.

Verbs
    speed                    critical speed for one parameter set
    sweep --D-list a,b,c     speed table over road diffusivities
    strip --L <len>          strip-truncated threshold against c*
    limit                    large-D limit of c*/sqrt(D) with proven window
    simulate --preset NAME   integrate a preset experiment, measure the front
    validate                 run the structural property suites

Parameters come from a flat key=value config file (keys D, d, mu, nu, fp0,
reaction), modified by ``--set key=value`` overrides applied last; presets
sit between the two.  Every command is deterministic given its inputs and
rewrites its output files identically; numbers are printed with 17
significant digits so outputs diff bit-exactly.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, dispersion, simulate
from .errors import BlowUpError, CflViolationError, RoadFieldError, ConfigError
from .params import (
    CONFIG_KEYS,
    ModelParams,
    c_kpp,
    check_kpp,
    normalize_nu,
    parse_config_file,
    parse_config_text,
)
from .simulate import _csv_lines, _fmt, _write_csv

__all__ = ["main", "validate_suites", "SuiteResult", "PRESETS", "Preset"]

_FLOAT_SET_KEYS = {
    "D", "d", "mu", "nu", "fp0",
    "tol", "t_end", "dx", "dy", "x_min", "x_max", "y_max",
    "safety", "threshold", "window_fraction",
}
_INT_SET_KEYS = {"snapshot_every", "seeds", "steps"}


def _parse_set_overrides(pairs: list[str]) -> dict:
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        key, val = key.strip(), val.strip()
        if key in _FLOAT_SET_KEYS:
            try:
                out[key] = float(val)
            except ValueError as exc:
                raise ConfigError(f"--set {key}: bad number {val!r}") from exc
        elif key in _INT_SET_KEYS:
            try:
                out[key] = int(val)
            except ValueError as exc:
                raise ConfigError(f"--set {key}: bad integer {val!r}") from exc
        else:
            raise ConfigError(f"--set: unknown key {key!r}")
    return out


def _load_params(args, preset_overrides: dict | None = None) -> tuple[ModelParams, dict]:
    """Resolve parameters: defaults < config file < preset < --set overrides.

    Returns the ModelParams plus the non-parameter knobs from --set.
    """
    params = parse_config_file(args.config) if args.config is not None else parse_config_text("")
    values = {"D": params.D, "d": params.d, "mu": params.mu,
              "nu": params.nu, "fp0": params.f_prime_0}
    if preset_overrides:
        values.update({k: v for k, v in preset_overrides.items() if k in values})
    knobs = _parse_set_overrides(args.set or [])
    for key in CONFIG_KEYS:
        if key in knobs:
            values[key] = knobs.pop(key)
    try:
        params = ModelParams(D=values["D"], d=values["d"], mu=values["mu"],
                             nu=values["nu"], f_prime_0=values["fp0"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params, knobs


def _physical_speed(params: ModelParams, tol: float) -> dispersion.SpeedResult:
    """critical_speed on the nu-normalised system, rescaled to original time."""
    norm = normalize_nu(params)
    res = dispersion.critical_speed(norm, tol)
    if params.nu == 1.0:
        return res
    nu = params.nu
    return replace(res, c_star=nu * res.c_star,
                   bracket=(nu * res.bracket[0], nu * res.bracket[1]), tol=nu * res.tol)


def _out_path(args, name: str) -> Path:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _emit(args, name: str, header: str, rows) -> None:
    """Print a CSV table and write it as ``name`` in the output directory."""
    text = "".join(_csv_lines(header, rows))
    print(text, end="")
    _out_path(args, name).write_text(text, encoding="utf-8")


# --- speed / sweep / strip / limit ------------------------------------------------

_SPEED_HEADER = "D,d,mu,fp0,c_kpp,c_star,regime"


def _speed_row(params: ModelParams, res: dispersion.SpeedResult) -> list:
    return [params.D, params.d, params.mu, params.f_prime_0,
            c_kpp(params), res.c_star, res.regime.value]


def cmd_speed(args) -> int:
    params, knobs = _load_params(args)
    tol = knobs.get("tol", dispersion.DEFAULT_TOL)
    _emit(args, "speed.csv", _SPEED_HEADER, [_speed_row(params, _physical_speed(params, tol))])
    return 0


def cmd_sweep(args) -> int:
    params, knobs = _load_params(args)
    tol = knobs.get("tol", dispersion.DEFAULT_TOL)
    try:
        d_list = [float(v) for v in args.D_list.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --D-list {args.D_list!r}") from exc
    if not d_list:
        raise ConfigError("--D-list is empty")
    if sorted(d_list) != d_list:
        raise ConfigError("--D-list must be sorted ascending")

    def one(D: float) -> list:
        p = replace(params, D=D)
        res = _physical_speed(p, tol)
        return _speed_row(p, res) + [res.c_star / math.sqrt(D)]

    _emit(args, "sweep.csv", _SPEED_HEADER + ",c_star_over_sqrtD", [one(D) for D in d_list])
    return 0


def cmd_strip(args) -> int:
    params, knobs = _load_params(args)
    tol = knobs.get("tol", dispersion.DEFAULT_TOL)
    L = args.L
    if L is None:
        raise ConfigError("strip needs --L <height>")
    norm = normalize_nu(params)
    full = dispersion.critical_speed(norm, tol)
    strip = dispersion._strip_speed_below(full, norm, L, tol)
    nu = params.nu
    _emit(args, "strip.csv", "D,d,mu,fp0,L,c_kpp,c_star_L,c_star",
          [[params.D, params.d, params.mu, params.f_prime_0,
            L, c_kpp(params), nu * strip.c_star, nu * full.c_star]])
    return 0


def cmd_limit(args) -> int:
    params, knobs = _load_params(args)
    tol = knobs.get("tol", dispersion.DEFAULT_TOL)
    norm = normalize_nu(params)
    c_inf = dispersion.limit_speed(norm, tol)
    lo, hi = dispersion.limit_bounds(norm)
    _emit(args, "limit.csv", "d,mu,fp0,c_limit,c_limit_sq,low_bound,high_bound",
          [[norm.d, norm.mu, norm.f_prime_0, c_inf, c_inf * c_inf, lo, hi]])
    return 0


# --- simulate ----------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A named, fully specified simulation experiment."""

    name: str
    D: float
    t_end: float
    dx: float
    dy: float
    y_max: float
    x_min: float | None = None   # None: sized from the predicted speed
    x_max: float | None = None
    reaction_off: bool = False
    snapshot_dt: float = 0.5


PRESETS = {
    "conservation": Preset(name="conservation", D=1.0, t_end=5.0, dx=0.1, dy=0.1,
                           y_max=20.0, x_min=-40.0, x_max=40.0, reaction_off=True,
                           snapshot_dt=0.1),
    "kpp": Preset(name="kpp", D=1.0, t_end=100.0, dx=0.25, dy=0.25, y_max=30.0,
                  x_min=-300.0, x_max=300.0),
    "enhanced": Preset(name="enhanced", D=10.0, t_end=100.0, dx=0.25, dy=0.25,
                       y_max=30.0),
}


def _sized_extent(c_guess: float, t_end: float, dx: float) -> float:
    """Half-width keeping the front 20 units clear of the wall, on the dx lattice."""
    raw = c_guess * t_end + 20.0
    return math.ceil(raw / (20.0 * dx)) * (20.0 * dx)


def cmd_simulate(args) -> int:
    preset = PRESETS.get(args.preset)
    if preset is None:
        raise ConfigError(f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
    params, knobs = _load_params(args, preset_overrides={"D": preset.D})
    tol = knobs.get("tol", dispersion.DEFAULT_TOL)
    t_end = knobs.get("t_end", preset.t_end)
    dx = knobs.get("dx", preset.dx)
    dy = knobs.get("dy", preset.dy)
    y_max = knobs.get("y_max", preset.y_max)
    safety = knobs.get("safety", 0.4)

    prediction = _physical_speed(params, tol)
    if preset.x_min is None or preset.x_max is None:
        half = _sized_extent(prediction.c_star, t_end, dx)
        x_min, x_max = -half, half
    else:
        x_min, x_max = preset.x_min, preset.x_max
    x_min = knobs.get("x_min", x_min)
    x_max = knobs.get("x_max", x_max)

    grid = simulate.build_grid(x_min, x_max, y_max, dx, dy, params, safety)
    snapshot_every = knobs.get("snapshot_every",
                               max(1, int(round(preset.snapshot_dt / grid.dt))))
    datum = simulate.InitialDatum.compact_bump()
    reaction = None if preset.reaction_off else params.reaction

    substeps = simulate.road_substeps(grid, params)
    print(f"# preset={preset.name} grid {grid.nx}x{grid.ny} dt={_fmt(grid.dt)} "
          f"steps={simulate._step_count(t_end, grid.dt)} road_substeps={substeps} "
          f"field_dt={_fmt(substeps * grid.dt)}")
    print(f"# dispersion prediction: c_kpp={_fmt(c_kpp(params))} "
          f"c_star={_fmt(prediction.c_star)} ({prediction.regime.value})")
    try:
        record = simulate.run(params, grid, datum, t_end,
                              snapshot_every=snapshot_every, reaction=reaction)
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    simulate.write_mass_csv(record, _out_path(args, "mass.csv"))
    drift = abs(record.mass[-1] - record.mass[0]) / max(record.mass[0], 1e-300)
    print(f"# relative mass drift: {_fmt(drift)}")

    if preset.reaction_off:
        # pure-exchange run: no front to measure
        return 0
    series = analysis.front_series(record, grid, analysis.Channel.ROAD,
                                   threshold=knobs.get("threshold", 0.5 * params.nu / params.mu))
    analysis.write_front_series_csv(series, _out_path(args, "fronts.csv"))
    est = analysis.fit_speed(series, knobs.get("window_fraction", 0.5))
    analysis.write_speed_estimate_csv(est, _out_path(args, "speed.csv"))
    rel = abs(est.speed - prediction.c_star) / prediction.c_star
    print(f"# measured road-front speed: {_fmt(est.speed)} "
          f"(predicted {_fmt(prediction.c_star)}, relative gap {_fmt(rel)})")
    return 0


# --- validate ----------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    passed: bool
    value: float
    limit: float
    note: str = ""


def validate_suites(
    params: ModelParams,
    *,
    safety: float = 0.4,
    seeds: int = 20,
    steps: int = 200,
) -> list[SuiteResult]:
    """Property suites: KPP class, equilibria, conservation, ordering, CFL, steady state.

    ``safety`` > 1 deliberately breaks the CFL bound; the stability suite is
    then expected to report the blow-up it provokes.
    """
    results: list[SuiteResult] = []

    kpp = check_kpp(params.reaction)
    results.append(SuiteResult("check_kpp", bool(kpp), 0.0 if kpp else (kpp.violation or 0.0),
                               0.0, kpp.reason or ""))

    grid = simulate.build_grid(-10.0, 10.0, 5.0, 0.5, 0.5, params, 0.4)
    nu_mu = params.nu / params.mu
    eq = simulate.FieldState(t=0.0, u=np.full(grid.nx, nu_mu), v=np.ones((grid.nx, grid.ny)))
    state = eq
    for _ in range(50):
        state = simulate.step(state, params, grid)
    drift = max(float(np.abs(state.u - eq.u).max()), float(np.abs(state.v - eq.v).max()))
    results.append(SuiteResult("equilibrium", drift <= 1e-12, drift, 1e-12))

    cons_grid = simulate.build_grid(-20.0, 20.0, 10.0, 0.25, 0.25, params, 0.4)
    rec = simulate.run(params, cons_grid, simulate.InitialDatum.compact_bump(),
                       t_end=2.0, snapshot_every=100, reaction=None)
    cons_drift = float(abs(rec.mass[-1] - rec.mass[0]) / rec.mass[0])
    results.append(SuiteResult("conservation", cons_drift <= 1e-6, cons_drift, 1e-6))

    # all seeded pairs advance as one batch; the report is the sequential
    # loop's: the lowest failing seed at its first failing step
    rng_grid = simulate.build_grid(-6.0, 6.0, 4.0, 0.5, 0.5, params, 0.4)
    nx, ny = rng_grid.nx, rng_grid.ny
    n = max(seeds, 0)
    u_lo, u_hi = np.empty((n, nx)), np.empty((n, nx))
    v_lo, v_hi = np.empty((n, nx, ny)), np.empty((n, nx, ny))
    for seed in range(n):
        rng = np.random.default_rng(20_000 + seed)
        u_lo[seed] = 0.5 * nu_mu * rng.random(nx)
        v_lo[seed] = 0.5 * rng.random((nx, ny))
        u_hi[seed] = u_lo[seed] + 0.5 * nu_mu * rng.random(nx)
        v_hi[seed] = v_lo[seed] + 0.5 * rng.random((nx, ny))
    lo = simulate.FieldState(t=0.0, u=u_lo, v=v_lo)
    hi = simulate.FieldState(t=0.0, u=u_hi, v=v_hi)
    ordered, worst = True, 0.0
    for _ in range(steps):
        lo = simulate.step(lo, params, rng_grid)
        hi = simulate.step(hi, params, rng_grid)
        broken = ~(np.all(lo.u <= hi.u, axis=-1) & np.all(lo.v <= hi.v, axis=(-2, -1)))
        if broken.any():
            ordered = False
            k = int(np.argmax(broken))
            worst = float(max((lo.u[k] - hi.u[k]).max(), (lo.v[k] - hi.v[k]).max()))
            # only lower seeds can still fail first
            lo = replace(lo, u=lo.u[:k], v=lo.v[:k])
            hi = replace(hi, u=hi.u[:k], v=hi.v[:k])
    results.append(SuiteResult("ordering", ordered, worst, 0.0))

    # stability: run a bump with the requested safety factor; blow-up fails the suite
    base = simulate.build_grid(-10.0, 10.0, 5.0, 0.25, 0.25, params, 0.4)
    cfl_grid = replace(base, dt=safety * simulate.cfl_dt(base, params, 1.0))
    state = simulate.init_state(cfl_grid, simulate.InitialDatum.compact_bump())
    cap = simulate._blowup_cap(state.u, state.v, params)
    blew_up_at = 0
    try:
        for k in range(1, 501):
            state = simulate.step(state, params, cfl_grid, max_value=cap)
    except BlowUpError:
        blew_up_at = k
    results.append(SuiteResult("cfl_stability", blew_up_at == 0, float(blew_up_at), 0.0,
                               f"safety={safety}"))

    steady_grid = simulate.build_grid(-30.0, 30.0, 15.0, 0.25, 0.25, params, 0.4)
    rec = simulate.run(params, steady_grid, simulate.InitialDatum.compact_bump(),
                       t_end=40.0, snapshot_every=1000)
    eu, ev = analysis.steady_error(rec.final_state, params, steady_grid, 5.0)
    results.append(SuiteResult("steady_state", max(eu, ev) <= 1e-2, max(eu, ev), 1e-2))

    return results


def cmd_validate(args) -> int:
    params, knobs = _load_params(args)
    results = validate_suites(
        params,
        safety=knobs.get("safety", 0.4),
        seeds=knobs.get("seeds", 20),
        steps=knobs.get("steps", 200),
    )
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.suite}: value={_fmt(r.value)} limit={_fmt(r.limit)} {r.note}")
    _write_csv(_out_path(args, "validate.csv"), "suite,passed,value,limit,note",
               [[r.suite, str(r.passed).lower(), r.value, r.limit, r.note] for r in results])
    return 0 if all(r.passed for r in results) else 1


# --- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadfield",
        description="Spreading speeds and simulations for KPP invasion along a fast-diffusion line",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value parameter file (D, d, mu, nu, fp0, reaction)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                       help="override D, d, mu, nu, fp0 or a numeric knob (applied last)")
        p.add_argument("--out-dir", type=Path, default=Path("."),
                       help="directory for CSV outputs (default: current directory)")

    common(sub.add_parser("speed", help="critical spreading speed for one parameter set"))
    p = sub.add_parser("sweep", help="speed table over a list of road diffusivities")
    p.add_argument("--D-list", dest="D_list", required=True,
                   help="comma-separated ascending road diffusivities")
    common(p)
    p = sub.add_parser("strip", help="critical speed of the strip-truncated field")
    p.add_argument("--L", type=float, default=None, help="strip height")
    common(p)
    common(sub.add_parser("limit", help="large-D limit of c*/sqrt(D)"))
    p = sub.add_parser("simulate", help="run a preset experiment and measure the front")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS),
                   help="experiment preset")
    common(p)
    common(sub.add_parser("validate", help="run the structural property suites"))
    return parser


_COMMANDS = {
    "speed": cmd_speed,
    "sweep": cmd_sweep,
    "strip": cmd_strip,
    "limit": cmd_limit,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RoadFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
