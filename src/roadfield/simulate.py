"""Explicit finite-difference integration of the coupled road-field system.

The half-plane is truncated to [x_min, x_max] x [0, y_max] with homogeneous
Neumann (mirror-ghost) walls on the two lateral sides and the top.  The
exchange condition on the road row, -d*dv/dy(x,0) = mu*u - nu*v(x,0), is
discretised with a second-order ghost value

    v[i,-1] = v[i,1] + (2*dy/d) * (mu*u[i] - nu*v[i,0])

so the j=0 row uses the same 5-point stencil as the interior.  The update is
forward Euler; under the :func:`cfl_dt` bound every stencil weight is
nonnegative, which makes the map monotone: componentwise-ordered states stay
ordered, nonnegative data stay nonnegative, and the pair (nu/mu, 1) is an
exact fixed point.  With the reaction switched off the ghost discretisation
balances road and field exchange exactly, so trapezoidal total mass is
conserved to rounding.

Both Laplacians are evaluated in the mirror-symmetric form
(w[i+1] + w[i-1]) - w[i] - w[i], the walls with their mirror ghosts as
(w[1] + w[1]) - w[0] - w[0].  IEEE addition is commutative, so one step maps
a state that is exactly symmetric under x -> -x to an exactly symmetric
state.  :func:`run` uses this: when nx is odd and the sampled datum equals
its own mirror image bit for bit, it integrates only the columns from the
centre to x_max, with the centre column's mirror wall as the symmetry line,
and unfolds the half before every mass, snapshot and final state.  The
record is then bit-identical to the full-domain integration at half the
cost.  :func:`step` always advances the full domain.

Unlike the dispersion algebra, everything here works in the original
variables (nu need not be 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import BlowUpError, CflViolationError, EmptyDatumError
from .params import ModelParams, ReactionFunction

__all__ = [
    "Grid",
    "DatumKind",
    "InitialDatum",
    "FieldState",
    "RunRecord",
    "build_grid",
    "cfl_dt",
    "init_state",
    "step",
    "run",
    "total_mass",
    "write_mass_csv",
    "write_road_profiles_csv",
    "write_field_trace_csv",
]

# sentinel: "use params.reaction"; pass reaction=None to integrate with f == 0
_USE_PARAMS = object()


@dataclass(frozen=True)
class Grid:
    """Uniform node-centred grid on [x_min, x_max] x [0, y_max] plus a time step.

    dx = (x_max-x_min)/(nx-1) and dy = y_max/(ny-1); nodes sit on the
    boundary.  The dt invariant (dt <= cfl bound) is enforced when a run is
    constructed, not here, because it involves the model parameters.
    """

    x_min: float
    x_max: float
    y_max: float
    nx: int
    ny: int
    dt: float

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"need nx, ny >= 3, got nx={self.nx}, ny={self.ny}")
        if not (self.x_max > self.x_min and self.y_max > 0.0):
            raise ValueError("empty domain")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return self.y_max / (self.ny - 1)

    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def y(self) -> np.ndarray:
        return np.linspace(0.0, self.y_max, self.ny)


def cfl_dt(grid: Grid, params: ModelParams, safety: float) -> float:
    """Largest stable forward-Euler step, scaled by ``safety``.

    safety * min( dx^2/(2D),  1/(2d(1/dx^2+1/dy^2)),  1/(mu+nu+f'(0)) );
    the road-diffusion term is dropped when D=0.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety must be in (0, 1], got {safety}")
    dx2, dy2 = grid.dx**2, grid.dy**2
    terms = [
        1.0 / (2.0 * params.d * (1.0 / dx2 + 1.0 / dy2)),
        1.0 / (params.mu + params.nu + params.f_prime_0),
    ]
    if params.D > 0.0:
        terms.append(dx2 / (2.0 * params.D))
    return safety * min(terms)


def build_grid(
    x_min: float,
    x_max: float,
    y_max: float,
    dx: float,
    dy: float,
    params: ModelParams,
    safety: float = 0.4,
) -> Grid:
    """Grid with the requested spacings and a CFL-limited time step."""
    nx = _count_nodes(x_max - x_min, dx, "dx")
    ny = _count_nodes(y_max, dy, "dy")
    probe = Grid(x_min=x_min, x_max=x_max, y_max=y_max, nx=nx, ny=ny, dt=1.0)
    return Grid(x_min=x_min, x_max=x_max, y_max=y_max, nx=nx, ny=ny,
                dt=cfl_dt(probe, params, safety))


def _count_nodes(length: float, spacing: float, name: str) -> int:
    n = length / spacing
    if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
        raise ValueError(f"{name}={spacing} does not divide the domain extent {length}")
    return int(round(n)) + 1


class DatumKind(Enum):
    COMPACT_BUMP = "compact_bump"
    ROAD_ONLY_BUMP = "road_only_bump"
    CUSTOM = "custom"


@dataclass(frozen=True)
class InitialDatum:
    """Nonnegative, compactly supported starting data for the Cauchy problem.

    compact_bump: field bump amp_v*max(0, 1-(r/width)^2)^2 centred at
    (center, 1) (one unit off the road), optional road bump of the same
    shape in x.  road_only_bump: road bump only, empty field.  custom:
    callables u_init(x) and v_init(X, Y) sampled on the grid nodes.
    """

    kind: DatumKind
    center: float = 0.0
    width: float = 2.0
    amplitude_u: float = 0.0
    amplitude_v: float = 0.0
    u_init: Callable[[np.ndarray], np.ndarray] | None = None
    v_init: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.width <= 0.0:
            raise ValueError("width must be positive")
        if self.amplitude_u < 0.0 or self.amplitude_v < 0.0:
            raise ValueError("amplitudes must be nonnegative")
        if self.kind is DatumKind.CUSTOM and (self.u_init is None or self.v_init is None):
            raise ValueError("custom datum needs both u_init and v_init callables")

    @staticmethod
    def compact_bump(center: float = 0.0, width: float = 2.0,
                     amplitude_v: float = 1.0, amplitude_u: float = 0.0) -> "InitialDatum":
        return InitialDatum(DatumKind.COMPACT_BUMP, center=center, width=width,
                            amplitude_u=amplitude_u, amplitude_v=amplitude_v)

    @staticmethod
    def road_only_bump(center: float = 0.0, width: float = 2.0,
                       amplitude_u: float = 1.0) -> "InitialDatum":
        return InitialDatum(DatumKind.ROAD_ONLY_BUMP, center=center, width=width,
                            amplitude_u=amplitude_u)

    @staticmethod
    def custom(u_init, v_init) -> "InitialDatum":
        return InitialDatum(DatumKind.CUSTOM, u_init=u_init, v_init=v_init)


@dataclass(frozen=True)
class FieldState:
    """Road density u(x) and field density v(x, y) at time t.

    u has shape (nx,), v has shape (nx, ny) with v[:, 0] the trace on the
    road.  Arrays are treated as immutable once a state is built.
    """

    t: float
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class RunRecord:
    """Snapshot series produced by :func:`run`; times are strictly increasing."""

    times: np.ndarray
    mass: np.ndarray
    road_profile_snapshots: list[tuple[float, np.ndarray]]
    field_trace_snapshots: list[tuple[float, np.ndarray]]
    final_state: FieldState


def init_state(grid: Grid, datum: InitialDatum) -> FieldState:
    """Sample the datum at the grid nodes; raises EmptyDatumError if all zero."""
    x = grid.x()
    if datum.kind is DatumKind.COMPACT_BUMP:
        u = datum.amplitude_u * np.clip(1.0 - ((x - datum.center) / datum.width) ** 2, 0.0, None) ** 2
        X, Y = np.meshgrid(x, grid.y(), indexing="ij")
        r2 = ((X - datum.center) ** 2 + (Y - 1.0) ** 2) / datum.width**2
        v = datum.amplitude_v * np.clip(1.0 - r2, 0.0, None) ** 2
    elif datum.kind is DatumKind.ROAD_ONLY_BUMP:
        u = datum.amplitude_u * np.clip(1.0 - ((x - datum.center) / datum.width) ** 2, 0.0, None) ** 2
        v = np.zeros((grid.nx, grid.ny))
    else:
        X, Y = np.meshgrid(x, grid.y(), indexing="ij")
        u = np.asarray(datum.u_init(x), dtype=float)
        v = np.asarray(datum.v_init(X, Y), dtype=float)
        if u.shape != (grid.nx,) or v.shape != (grid.nx, grid.ny):
            raise ValueError(
                f"custom datum shapes {u.shape}, {v.shape} do not match grid "
                f"({grid.nx},), ({grid.nx}, {grid.ny})"
            )
        if u.min() < 0.0 or v.min() < 0.0:
            raise ValueError("custom datum must be nonnegative")
    if u.max(initial=0.0) == 0.0 and v.max(initial=0.0) == 0.0:
        raise EmptyDatumError("initial datum vanishes at every grid node")
    return FieldState(t=0.0, u=u, v=v)


def _blowup_cap(u0: np.ndarray, v0: np.ndarray, params: ModelParams) -> float:
    return 10.0 * max(1.0, params.nu / params.mu * float(u0.max()), float(v0.max()))


class _StepWork:
    """Reusable buffers for the field update (the hot loop avoids reallocating)."""

    def __init__(self, nx: int, ny: int):
        self.pad = np.zeros((nx + 2, ny + 2))
        self.t1 = np.empty((nx, ny))
        self.t2 = np.empty((nx, ny))
        self.lap_u = np.empty(nx)


def _advance(
    u: np.ndarray,
    v: np.ndarray,
    out_u: np.ndarray,
    out_v: np.ndarray,
    params: ModelParams,
    dt: float,
    dx: float,
    dy: float,
    reaction: ReactionFunction | None,
    work: _StepWork,
) -> None:
    """One forward-Euler update of (u, v) into (out_u, out_v).

    The spacings come in explicitly, not from a Grid, so a folded run
    steps its half domain with the full grid's dt, dx and dy bit for bit.
    """
    dx2, dy2 = dx**2, dy**2
    D, d, mu, nu = params.D, params.d, params.mu, params.nu
    v0 = v[:, 0]

    # road: 3-point Laplacian in x, mirror ghosts at both ends
    lap_u = work.lap_u
    np.add(u[2:], u[:-2], out=lap_u[1:-1])
    lap_u[0] = u[1] + u[1]
    lap_u[-1] = u[-2] + u[-2]
    lap_u -= u
    lap_u -= u
    out_u[:] = u
    out_u += (dt * D / dx2) * lap_u
    out_u += dt * (nu * v0 - mu * u)

    # field: ghost padding (mirrors laterally and on top, exchange flux below)
    pad = work.pad
    pad[1:-1, 1:-1] = v
    pad[0, 1:-1] = v[1, :]
    pad[-1, 1:-1] = v[-2, :]
    pad[1:-1, -1] = v[:, -2]
    pad[1:-1, 0] = v[:, 1] + (2.0 * dy / d) * (mu * u - nu * v0)

    t1, t2 = work.t1, work.t2
    np.add(pad[2:, 1:-1], pad[:-2, 1:-1], out=t1)
    t1 -= v
    t1 -= v
    t1 *= dt * d / dx2
    np.add(pad[1:-1, 2:], pad[1:-1, :-2], out=t2)
    t2 -= v
    t2 -= v
    t2 *= dt * d / dy2
    t1 += t2
    if reaction is not None:
        t1 += dt * np.asarray(reaction(v))
    np.add(v, t1, out=out_v)


def step(
    state: FieldState,
    params: ModelParams,
    grid: Grid,
    *,
    reaction=_USE_PARAMS,
    max_value: float | None = None,
) -> FieldState:
    """One explicit update of the coupled state; pure function of its inputs.

    ``reaction=None`` integrates the pure-exchange system (f == 0).  The
    caller is responsible for dt satisfying the CFL bound.  Raises
    BlowUpError when any entry exceeds ``max_value`` (default: 10x the
    state's own equilibrium-adjusted supremum) or turns non-finite.
    """
    if state.u.shape != (grid.nx,) or state.v.shape != (grid.nx, grid.ny):
        raise ValueError("state shape does not match grid")
    f = params.reaction if reaction is _USE_PARAMS else reaction
    cap = _blowup_cap(state.u, state.v, params) if max_value is None else max_value
    work = _StepWork(grid.nx, grid.ny)
    out_u = np.empty_like(state.u)
    out_v = np.empty_like(state.v)
    _advance(state.u, state.v, out_u, out_v, params, grid.dt, grid.dx, grid.dy, f, work)
    m = max(float(out_u.max()), float(out_v.max()))
    if not m <= cap:
        raise BlowUpError(
            f"state exceeded {cap} (or went non-finite) at t={state.t + grid.dt}: "
            "the scheme is unstable for this dt",
            t=state.t + grid.dt,
        )
    return FieldState(t=state.t + grid.dt, u=out_u, v=out_v)


def total_mass(state: FieldState, grid: Grid) -> float:
    """Trapezoidal quadrature of u over the road plus v over the field."""
    road = float(np.trapezoid(state.u, dx=grid.dx))
    field = float(np.trapezoid(np.trapezoid(state.v, dx=grid.dy, axis=1), dx=grid.dx))
    return road + field


def run(
    params: ModelParams,
    grid: Grid,
    datum: InitialDatum,
    t_end: float,
    snapshot_every: int = 10,
    *,
    reaction=_USE_PARAMS,
) -> RunRecord:
    """Integrate from the datum to t_end, recording mass and profiles.

    Snapshots (time, total mass, road profile, field trace at y=0) are taken
    at step 0, every ``snapshot_every`` steps, and at the final step.  The
    run is deterministic: identical inputs give bit-identical records.
    Raises CflViolationError up front if grid.dt exceeds the stability
    bound, and BlowUpError (naming the failing step) if the state runs away.

    A datum that is exactly mirror-symmetric on a grid with odd nx is
    integrated on x >= 0 only (see the module docstring); the record is
    bit-identical to the full-domain one.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    hard_dt = cfl_dt(grid, params, 1.0)
    if grid.dt > hard_dt * (1.0 + 1e-9):
        raise CflViolationError(
            f"grid.dt={grid.dt} exceeds the stability bound {hard_dt} for these parameters"
        )
    f = params.reaction if reaction is _USE_PARAMS else reaction
    state0 = init_state(grid, datum)
    cap = _blowup_cap(state0.u, state0.v, params)

    n_steps = max(0, int(math.ceil(t_end / grid.dt - 1e-9)))
    fold = grid.nx % 2 == 1 and _is_mirror_symmetric(state0.u, state0.v)
    first = grid.nx // 2 if fold else 0
    u_prev, v_prev = state0.u[first:].copy(), state0.v[first:].copy()
    u_next, v_next = np.empty_like(u_prev), np.empty_like(v_prev)
    work = _StepWork(u_prev.shape[0], grid.ny)
    dt, dx, dy = grid.dt, grid.dx, grid.dy

    times: list[float] = []
    mass: list[float] = []
    road_snaps: list[tuple[float, np.ndarray]] = []
    trace_snaps: list[tuple[float, np.ndarray]] = []

    def record(k: int, u: np.ndarray, v: np.ndarray) -> None:
        t = k * grid.dt
        if fold:
            u, v = _unfold(u), _unfold(v)
        times.append(t)
        mass.append(total_mass(FieldState(t=t, u=u, v=v), grid))
        road_snaps.append((t, u.copy()))
        trace_snaps.append((t, v[:, 0].copy()))

    record(0, u_prev, v_prev)
    for k in range(1, n_steps + 1):
        _advance(u_prev, v_prev, u_next, v_next, params, dt, dx, dy, f, work)
        m = max(float(u_next.max()), float(v_next.max()))
        if not m <= cap:
            raise BlowUpError(
                f"blow-up at step {k} (t={k * grid.dt}): max value {m} exceeds cap {cap}",
                step=k,
                t=k * grid.dt,
            )
        u_prev, u_next = u_next, u_prev
        v_prev, v_next = v_next, v_prev
        if k % snapshot_every == 0 or k == n_steps:
            record(k, u_prev, v_prev)

    if fold:
        u_prev, v_prev = _unfold(u_prev), _unfold(v_prev)
    final = FieldState(t=n_steps * grid.dt, u=u_prev.copy(), v=v_prev.copy())
    return RunRecord(
        times=np.asarray(times),
        mass=np.asarray(mass),
        road_profile_snapshots=road_snaps,
        field_trace_snapshots=trace_snaps,
        final_state=final,
    )


def _is_mirror_symmetric(u: np.ndarray, v: np.ndarray) -> bool:
    """True when the state equals its own image under x -> -x, bit for bit."""
    return np.array_equal(u, u[::-1]) and np.array_equal(v, v[::-1])


def _unfold(a: np.ndarray) -> np.ndarray:
    """Full-domain array from its centre-to-x_max half, mirrored about the centre column."""
    return np.concatenate([a[:0:-1], a])


# --- CSV serialisation (17 significant digits, see External Interfaces) ---------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_mass_csv(record: RunRecord, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,mass\n")
        for t, m in zip(record.times, record.mass):
            fh.write(f"{_fmt(t)},{_fmt(m)}\n")


def write_road_profiles_csv(record: RunRecord, grid: Grid, path) -> None:
    x = grid.x()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,x,u\n")
        for t, u in record.road_profile_snapshots:
            for xi, ui in zip(x, u):
                fh.write(f"{_fmt(t)},{_fmt(xi)},{_fmt(ui)}\n")


def write_field_trace_csv(record: RunRecord, grid: Grid, path) -> None:
    x = grid.x()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,x,v0\n")
        for t, v0 in record.field_trace_snapshots:
            for xi, vi in zip(x, v0):
                fh.write(f"{_fmt(t)},{_fmt(xi)},{_fmt(vi)}\n")
