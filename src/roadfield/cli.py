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
sit between the two.  ``--set`` also sets the verb's knobs, whose types,
defaults and admissible intervals are the one table ``_VERB_KNOBS``; a
value outside its interval is a ConfigError (exit 2) before any output.
Every command is deterministic given its inputs and rewrites its output
files identically; numbers are printed with 17 significant digits so
outputs diff bit-exactly.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, dispersion, simulate
from .errors import BlowUpError, ConfigError, RoadFieldError
from .params import (
    CONFIG_KEYS,
    ModelParams,
    _config_params,
    _config_value,
    _read_config,
    _read_pairs,
    c_kpp,
    check_kpp,
    normalize_nu,
)
from .simulate import _csv_lines, _fmt, _write_csv

__all__ = ["main", "validate_suites", "SuiteResult", "PRESETS", "Preset"]


@dataclass(frozen=True)
class _Knob:
    """A ``--set`` knob: its type, its default and the interval of its admissible values.

    A default of None is set by a preset or derived by the verb.  Every
    interval excludes nan and +-inf.
    """

    kind: type
    default: float | int | None
    admits: str

    def parse(self, key: str, val: str, where: str) -> float | int:
        try:
            value = self.kind(val)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad {self.kind.__name__} for {key}: {val!r}") from exc
        _admit(f"{where}: {key}", value, self.admits)
        return value


def _admit(what: str, value: float, interval: str) -> None:
    """Raise ConfigError unless value lies in an interval such as "(0, 1]" or "[1, inf)"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not ((lo < value or interval[0] == "[" and value == lo)
            and (value < hi or interval[-1] == "]" and value == hi)):
        raise ConfigError(f"{what} must lie in {interval}, got {value}")


_TOL = _Knob(float, dispersion.DEFAULT_TOL, "(0, inf)")
_VALIDATE = {"safety": _Knob(float, 0.4, "(0, inf)"),   # above 1 on purpose: see validate_suites
             "seeds": _Knob(int, 20, "[1, inf)"),
             "steps": _Knob(int, 200, "[1, inf)")}
# the --set knobs each verb reads; any other knob is an error
_VERB_KNOBS = {
    **dict.fromkeys(("speed", "sweep", "strip", "limit"), {"tol": _TOL}),
    "simulate": {
        "tol": _TOL,
        "t_end": _Knob(float, None, "[0, inf)"),
        **dict.fromkeys(("dx", "dy", "y_max"), _Knob(float, None, "(0, inf)")),
        **dict.fromkeys(("x_min", "x_max"), _Knob(float, None, "(-inf, inf)")),
        "safety": _Knob(float, 0.4, "(0, 1]"),
        "snapshot_every": _Knob(int, None, "[1, inf)"),
        "threshold": _Knob(float, None, "(0, inf)"),   # None: half the road equilibrium nu/mu
        "window_fraction": _Knob(float, 0.5, "(0, 1]"),
    },
    "validate": _VALIDATE,
}


def _config_file(path: Path | None) -> dict:
    """The parameter values of a --config file, by key."""
    if path is None:
        return {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read --config {path}: {exc}") from exc
    return _read_config(text)


def _resolve(args, preset: dict | None = None) -> tuple[ModelParams, dict]:
    """The parameters and the knobs of one call: defaults < --config < preset < --set.

    Config lines and ``--set`` pairs go through the one key=value reader of
    :mod:`params`; a config holds parameters only, ``--set`` also the verb's
    knobs.  Returns the ModelParams and every knob of the verb by name.
    """
    knobs = _VERB_KNOBS[args.verb]

    def set_value(key: str, val: str, where: str):
        if key in knobs:
            return knobs[key].parse(key, val, where)
        if key in CONFIG_KEYS and key != "reaction":
            return _config_value(key, val, where)
        keys = [k for k in CONFIG_KEYS if k != "reaction"] + list(knobs)
        raise ConfigError(f"{where}: unknown key {key!r} for {args.verb}; it reads {', '.join(keys)}")

    values = {name: knob.default for name, knob in knobs.items()}
    values |= _config_file(args.config)
    values |= preset or {}
    values |= _read_pairs((("--set", pair) for pair in args.set), set_value)
    return _config_params(values), {name: values[name] for name in knobs}


def _in_original_time(res: dispersion.SpeedResult, nu: float) -> dispersion.SpeedResult:
    """A speed of the nu-normalised system in the original time scale: nu times it."""
    return replace(res, c_star=nu * res.c_star,
                   bracket=(nu * res.bracket[0], nu * res.bracket[1]), tol=nu * res.tol)


def _physical_speed(params: ModelParams, tol: float) -> dispersion.SpeedResult:
    """critical_speed on the nu-normalised system, rescaled to original time."""
    return _in_original_time(dispersion.critical_speed(normalize_nu(params), tol), params.nu)


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
    params, knobs = _resolve(args)
    _emit(args, "speed.csv", _SPEED_HEADER,
          [_speed_row(params, _physical_speed(params, knobs["tol"]))])
    return 0


def cmd_sweep(args) -> int:
    params, knobs = _resolve(args)
    try:
        d_list = [float(v) for v in args.D_list.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --D-list {args.D_list!r}") from exc
    if not d_list:
        raise ConfigError("--D-list is empty")
    for D in d_list:
        _admit("--D-list", D, "(0, inf)")
    if sorted(d_list) != d_list:
        raise ConfigError("--D-list must be sorted ascending")

    def one(D: float) -> list:
        p = replace(params, D=D)
        res = _physical_speed(p, knobs["tol"])
        return _speed_row(p, res) + [res.c_star / math.sqrt(D)]

    _emit(args, "sweep.csv", _SPEED_HEADER + ",c_star_over_sqrtD", [one(D) for D in d_list])
    return 0


def cmd_strip(args) -> int:
    params, knobs = _resolve(args)
    L, tol = args.L, knobs["tol"]
    if L is None:
        raise ConfigError("strip needs --L <height>")
    _admit("--L", L, "(0, inf)")
    norm = normalize_nu(params)
    full = dispersion.critical_speed(norm, tol)
    strip = dispersion.strip_critical_speed(norm, L, tol, full=full)
    _emit(args, "strip.csv", "D,d,mu,fp0,L,c_kpp,c_star_L,c_star",
          [[params.D, params.d, params.mu, params.f_prime_0, L, c_kpp(params),
            *(_in_original_time(res, params.nu).c_star for res in (strip, full))]])
    return 0


def cmd_limit(args) -> int:
    params, knobs = _resolve(args)
    norm = normalize_nu(params)
    c_inf = dispersion.limit_speed(norm, knobs["tol"])
    lo, hi = dispersion.limit_bounds(norm)
    _emit(args, "limit.csv", "d,mu,fp0,c_limit,c_limit_sq,low_bound,high_bound",
          [[norm.d, norm.mu, norm.f_prime_0, c_inf, c_inf * c_inf, lo, hi]])
    return 0


# --- simulate ----------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """A simulation experiment: defaults for D and simulate's knobs, and how it runs.

    Without x_min and x_max the domain is sized from the predicted speed.
    """

    defaults: dict
    reaction_off: bool = False
    snapshot_dt: float = 0.5


PRESETS = {
    "conservation": Preset(dict(D=1.0, t_end=5.0, dx=0.1, dy=0.1, y_max=20.0,
                                x_min=-40.0, x_max=40.0), reaction_off=True, snapshot_dt=0.1),
    "kpp": Preset(dict(D=1.0, t_end=100.0, dx=0.25, dy=0.25, y_max=30.0,
                       x_min=-300.0, x_max=300.0)),
    "enhanced": Preset(dict(D=10.0, t_end=100.0, dx=0.25, dy=0.25, y_max=30.0)),
}


def _sized_extent(c_guess: float, t_end: float, dx: float) -> float:
    """Half-width keeping the front 20 units clear of the wall, on the dx lattice.

    Raises ValueError when that half-width is not finite.
    """
    cells = (c_guess * t_end + 20.0) / (20.0 * dx)
    if not math.isfinite(cells):
        raise ValueError(f"the domain sized for t_end={t_end} is not finite")
    return math.ceil(cells) * (20.0 * dx)


def cmd_simulate(args) -> int:
    preset = PRESETS[args.preset]
    params, knobs = _resolve(args, preset.defaults)
    t_end, dx, x_min, x_max = knobs["t_end"], knobs["dx"], knobs["x_min"], knobs["x_max"]
    prediction = _physical_speed(params, knobs["tol"])
    try:
        if x_min is None or x_max is None:
            half = _sized_extent(prediction.c_star, t_end, dx)
            x_min = -half if x_min is None else x_min
            x_max = half if x_max is None else x_max
        grid = simulate.build_grid(x_min, x_max, knobs["y_max"], dx, knobs["dy"], params,
                                   knobs["safety"])
        n_steps = simulate._step_count(t_end, grid.dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    snapshot_every = knobs["snapshot_every"] or max(1, int(round(preset.snapshot_dt / grid.dt)))
    substeps = simulate.road_substeps(grid, params)
    print(f"# preset={args.preset} grid {grid.nx}x{grid.ny} dt={_fmt(grid.dt)} "
          f"steps={n_steps} road_substeps={substeps} "
          f"field_dt={_fmt(substeps * grid.dt)}")
    print(f"# dispersion prediction: c_kpp={_fmt(c_kpp(params))} "
          f"c_star={_fmt(prediction.c_star)} ({prediction.regime.value})")
    # a blow-up is reported by main, as every other failed computation
    record = simulate.run(params, grid, simulate.InitialDatum.compact_bump(), t_end,
                          snapshot_every=snapshot_every,
                          reaction=None if preset.reaction_off else params.reaction)

    simulate.write_mass_csv(record, _out_path(args, "mass.csv"))
    drift = abs(record.mass[-1] - record.mass[0]) / max(record.mass[0], 1e-300)
    print(f"# relative mass drift: {_fmt(drift)}")

    if preset.reaction_off:
        # pure-exchange run: no front to measure
        return 0
    threshold = knobs["threshold"] or 0.5 * params.nu / params.mu
    series = analysis.front_series(record, grid, analysis.Channel.ROAD, threshold=threshold)
    analysis.write_front_series_csv(series, _out_path(args, "fronts.csv"))
    est = analysis.fit_speed(series, knobs["window_fraction"])
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


def _steady_t_end(params: ModelParams) -> float:
    """End time of the steady_state suite: ten e-folding times of its slowest mode, in [40, 1000].

    Near the invaded state (nu/mu, 1) the road and field perturbations
    (p, q e^{-k y}) e^{-lam t}, uniform in x, decay at the rate lam that
    solves sqrt(d (f'(0) - lam)) (mu - lam) = nu lam on (0, min(mu, f'(0)));
    the field's own rate f'(0) is the logistic's -f'(1).  The left side
    falls and the right side rises in lam, so the root is unique.  The
    default parameters give lam = 0.43, and the floor of 40 holds; a road
    fed much faster than it leaks (nu/mu large) relaxes slowly.  The cap
    keeps a road that barely leaks (mu -> 0) from running without end; the
    suite then reports the distance it has left.
    """
    d, mu, nu, fp0 = params.d, params.mu, params.nu, params.f_prime_0
    top = min(mu, fp0)
    lo, hi = dispersion._bisect_gap(
        lambda lam: math.sqrt(d * (fp0 - lam)) * (mu - lam) <= nu * lam, 0.0, top, 1e-12 * top)
    return min(max(40.0, 10.0 / (0.5 * (lo + hi))), 1000.0)


def validate_suites(
    params: ModelParams,
    *,
    safety: float = _VALIDATE["safety"].default,
    seeds: int = _VALIDATE["seeds"].default,
    steps: int = _VALIDATE["steps"].default,
) -> list[SuiteResult]:
    """Property suites: KPP class, equilibria, conservation, ordering, CFL, steady state.

    ``safety`` > 1 deliberately breaks the CFL bound; the stability suite is
    then expected to report the blow-up it provokes.  Raises ValueError for
    ``seeds`` or ``steps`` below 1, on which the ordering suite would pass
    over no pairs.
    """
    if seeds < 1 or steps < 1:
        raise ValueError(f"seeds and steps must be >= 1, got seeds={seeds}, steps={steps}")
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
    u_lo, u_hi = np.empty((seeds, nx)), np.empty((seeds, nx))
    v_lo, v_hi = np.empty((seeds, nx, ny)), np.empty((seeds, nx, ny))
    for seed in range(seeds):
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

    # stability: run a bump at the requested safety factor times the smallest
    # per-loss bound (safety may exceed 1 here); blow-up fails the suite
    base = simulate.build_grid(-10.0, 10.0, 5.0, 0.25, 0.25, params, 0.4)
    cfl_grid = replace(base, dt=safety * min(simulate._cfl_terms(base, params).values()))
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
                       t_end=_steady_t_end(params), snapshot_every=1000)
    eu, ev = analysis.steady_error(rec.final_state, params, steady_grid, 5.0)
    results.append(SuiteResult("steady_state", max(eu, ev) <= 1e-2, max(eu, ev), 1e-2))

    return results


def cmd_validate(args) -> int:
    params, knobs = _resolve(args)
    results = validate_suites(params, **knobs)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.suite}: value={_fmt(r.value)} limit={_fmt(r.limit)} {r.note}")
    _write_csv(_out_path(args, "validate.csv"), "suite,passed,value,limit,note",
               [[r.suite, str(r.passed).lower(), r.value, r.limit, r.note] for r in results])
    return 0 if all(r.passed for r in results) else 1


# --- entry point -------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
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
