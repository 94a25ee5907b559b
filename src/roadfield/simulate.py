"""Explicit finite-difference integration of the coupled road-field system.

The half-plane is truncated to [x_min, x_max] x [0, y_max] with homogeneous
Neumann (mirror-ghost) walls on the two lateral sides and the top.  The
exchange condition on the road row, -d*dv/dy(x,0) = mu*u - nu*v(x,0), is
discretised with a second-order ghost value

    v[i,-1] = v[i,1] + (2*dy/d) * (mu*u[i] - nu*v[i,0])

so the j=0 row uses the same 5-point stencil as the interior.  The update is
forward Euler.  :func:`cfl_dt` bounds dt by one term per loss from a
stencil's centre weight: road diffusion dx^2/(2D), field diffusion
1/(2d(1/dx^2+1/dy^2)), the road row's exchange loss dy/(2nu) and the
reaction 1/(mu+nu+f'(0)), so each loss on its own is at most ``safety``
(0.4 by default) of the unit weight.  Two caps not scaled by safety also
keep the losses one node takes at once summing to at most 1: field
diffusion, the exchange 2*dt*nu/dy and the reaction on the road row's
field node, road diffusion and the reaction on a road node.  Every centre
weight is then nonnegative (for a reaction whose slope stays above
-(mu+nu+f'(0)), as the logistic's does on [0, 1]) and the map is monotone
for every safety in (0, 1]: componentwise-ordered states stay ordered and
nonnegative data stay nonnegative.  At the default safety the caps bind only when three
terms nearly tie (ModelParams(D=1, d=1, mu=0.1, nu=4, f_prime_0=11.9) on
build_grid(-2, 2, 2, 0.5, 0.5, params, 0.4): dt = 1/48, not 0.025).  The
pair (nu/mu, 1) is an exact fixed point in every case.
With the reaction switched off the ghost discretisation balances road and
field exchange exactly, so trapezoidal total mass is conserved to rounding.

Multirate road.  For D > 2d the road term dx^2/(2D) binds and falls like
1/D, while the 2D field update is the expensive one.  :func:`run` therefore
advances the road k = :func:`road_substeps` times by dt against the frozen
trace v(x, 0), then the field once by k*dt, with the exchange ghost fed the
mean of the road states the substeps started from; k is capped so that
the field step of k*dt keeps the road row's summed losses at most 1.  The
road gains exactly
what the field loses, each substep keeps the nonnegative weights of a
single step, and k = 1 (whenever the road term does not bind) is the plain
single-rate update bit for bit.  Record times, snapshots and blow-up steps
still count grid steps of dt: a field step never spans a snapshot.

Snapshots.  :func:`run` fixes its snapshot steps up front, 0, every
``snapshot_every`` steps and the last step, and advances from one to the
next in field steps of at most k grid steps.  The record holds them as
arrays, one row per snapshot: times and mass of shape (n,), the road
profile and the field trace at y = 0 of shape (n, nx), allocated once
before the first step.

Both Laplacians are evaluated in the mirror-symmetric form
(w[i+1] + w[i-1]) - w[i] - w[i], the walls with their mirror ghosts as
(w[1] + w[1]) - w[0] - w[0].  IEEE addition is commutative, so one step maps
a state that is exactly symmetric under x -> -x to an exactly symmetric
state.  :func:`run` uses this: when nx is odd and the sampled datum equals
its own mirror image bit for bit, it integrates only the columns from the
centre to x_max, with the centre column's mirror wall as the symmetry line,
and unfolds the half once per snapshot, the last of which is the final
state.  The record is then bit-identical to the full-domain integration at half the
cost.  :func:`step` always advances the full domain.  It also advances a
batch of states (leading axes on u and v) in one kernel call, each member
bit for bit as it would advance alone.

Unlike the dispersion algebra, everything here works in the original
variables (nu need not be 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import BlowUpError, CflViolationError, EmptyDatumError
from .params import ModelParams, ReactionFunction

__all__ = [
    "Grid",
    "InitialDatum",
    "FieldState",
    "RunRecord",
    "build_grid",
    "cfl_dt",
    "road_substeps",
    "init_state",
    "step",
    "run",
    "total_mass",
    "write_mass_csv",
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
        """Nodes built outward from the midpoint.

        On a domain symmetric about 0 this gives x == -x[::-1] exactly, which
        np.linspace does not (e.g. on [-40, 40] with dx = 0.1).
        """
        offsets = np.arange(self.nx) - 0.5 * (self.nx - 1)
        return 0.5 * (self.x_min + self.x_max) + offsets * self.dx

    def y(self) -> np.ndarray:
        return np.linspace(0.0, self.y_max, self.ny)


def _cfl_terms(grid: Grid, params: ModelParams) -> dict[str, float]:
    """Upper bounds on dt at safety 1, one per loss from a stencil's centre weight.

    field: 1/(2d(1/dx^2+1/dy^2)), the field's 5-point diffusion;
    exchange: dy/(2nu), the road row's extra loss 2*dt*nu/dy through the
    exchange ghost; reaction: 1/(mu+nu+f'(0)); road: dx^2/(2D), the road's
    3-point diffusion (absent when D=0).  Only the road term concerns the
    road update alone, which is what lets :func:`run` sub-cycle it.
    """
    dx2, dy2 = grid.dx**2, grid.dy**2
    terms = {
        "field": 1.0 / (2.0 * params.d * (1.0 / dx2 + 1.0 / dy2)),
        "exchange": grid.dy / (2.0 * params.nu),
        "reaction": 1.0 / (params.mu + params.nu + params.f_prime_0),
    }
    if params.D > 0.0:
        terms["road"] = dx2 / (2.0 * params.D)
    return terms


# the losses one node takes at once: the road row's field node, and a road node
_FIELD_NODE = ("field", "exchange", "reaction")
_ROAD_NODE = ("road", "reaction")


def _summed_bound(terms: dict[str, float], names: tuple[str, ...]) -> float:
    """Largest dt at which the losses ``names`` sum to at most 1: 1/sum(1/term)."""
    return 1.0 / sum(1.0 / terms[name] for name in names if name in terms)


def cfl_dt(grid: Grid, params: ModelParams, safety: float) -> float:
    """Forward-Euler step that keeps every centre weight nonnegative.

    safety * min( dx^2/(2D),  1/(2d(1/dx^2+1/dy^2)),  dy/(2nu),  1/(mu+nu+f'(0)) )
    caps each loss by ``safety`` (the road-diffusion term is dropped when
    D=0).  Two caps not scaled by safety then keep the losses a node takes
    at once summing to at most 1: field diffusion, exchange and reaction on
    the road row's field node, road diffusion and reaction on a road node.
    The step is therefore monotone for every safety in (0, 1] (for a
    reaction whose slope stays above -(mu+nu+f'(0)), as the logistic's
    does on [0, 1]); at the default 0.4 the sums stay under 1 unless three
    terms nearly tie.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety must be in (0, 1], got {safety}")
    terms = _cfl_terms(grid, params)
    return min(safety * min(terms.values()), _summed_bound(terms, _FIELD_NODE),
               _summed_bound(terms, _ROAD_NODE))


def road_substeps(grid: Grid, params: ModelParams) -> int:
    """Road steps of grid.dt per field step in :func:`run`.

    floor(field-side bound / full bound), where the field-side bound leaves
    out the road-diffusion term: the field step k*dt then sits as far under
    its own bound as dt sits under the full one.  It is 1 unless the
    road-diffusion term binds.  k is also capped so that k*dt keeps the
    road row's field node's summed losses at most 1, as :func:`cfl_dt`
    does for dt.
    """
    terms = _cfl_terms(grid, params)
    full = min(terms.values())
    field_side = min(b for name, b in terms.items() if name != "road")
    # the ratio of two rounded bounds can land just under an integer (D=1000,
    # d=1, dx=dy=0.1 gives 499.99999999999994): within 1e-9 it is that integer
    k = math.floor(field_side / full * (1.0 + 1e-9))
    return max(1, min(k, math.floor(_summed_bound(terms, _FIELD_NODE) / grid.dt)))


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


@dataclass(frozen=True)
class InitialDatum:
    """Nonnegative, compactly supported starting data for the Cauchy problem.

    Two samplers, u_init(x) on the road nodes and v_init(X, Y) on the field
    nodes.  compact_bump: field bump amp_v*max(0, 1-(r/width)^2)^2 centred
    at (center, 1) (one unit off the road), optional road bump of the same
    shape in x.  road_only_bump: the compact bump with amp_v = 0, an empty
    field.  custom: any two callables.
    """

    u_init: Callable[[np.ndarray], np.ndarray]
    v_init: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.u_init is None or self.v_init is None:
            raise ValueError("datum needs both u_init and v_init callables")

    @staticmethod
    def compact_bump(center: float = 0.0, width: float = 2.0,
                     amplitude_v: float = 1.0, amplitude_u: float = 0.0) -> "InitialDatum":
        if width <= 0.0:
            raise ValueError("width must be positive")
        if amplitude_u < 0.0 or amplitude_v < 0.0:
            raise ValueError("amplitudes must be nonnegative")

        def u_init(x):
            return amplitude_u * np.clip(1.0 - ((x - center) / width) ** 2, 0.0, None) ** 2

        def v_init(X, Y):
            r2 = ((X - center) ** 2 + (Y - 1.0) ** 2) / width**2
            return amplitude_v * np.clip(1.0 - r2, 0.0, None) ** 2

        return InitialDatum(u_init, v_init)

    @staticmethod
    def road_only_bump(center: float = 0.0, width: float = 2.0,
                       amplitude_u: float = 1.0) -> "InitialDatum":
        return InitialDatum.compact_bump(center, width, amplitude_v=0.0, amplitude_u=amplitude_u)

    @staticmethod
    def custom(u_init, v_init) -> "InitialDatum":
        return InitialDatum(u_init, v_init)


@dataclass(frozen=True)
class FieldState:
    """Road density u(x) and field density v(x, y) at time t.

    u has shape (nx,), v has shape (nx, ny) with v[:, 0] the trace on the
    road.  :func:`step` also takes a batch of states at one time: u of shape
    (..., nx) and v of shape u.shape + (ny,).  Arrays are treated as
    immutable once a state is built.
    """

    t: float
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class RunRecord:
    """The n snapshots of :func:`run` as arrays, row j taken at times[j].

    times (strictly increasing) and mass have shape (n,); road, the road
    profile u, and field_trace, the field at y = 0, have shape (n, nx).
    The profile fields are named after ``analysis.Channel``'s values.
    final_state is the state at the last snapshot.
    """

    times: np.ndarray
    mass: np.ndarray
    road: np.ndarray
    field_trace: np.ndarray
    final_state: FieldState


def init_state(grid: Grid, datum: InitialDatum) -> FieldState:
    """Sample the datum's two samplers at the grid nodes.

    Raises ValueError on a wrong shape or a negative value, and
    EmptyDatumError if every node is zero.
    """
    x = grid.x()
    X, Y = np.meshgrid(x, grid.y(), indexing="ij")
    u = np.asarray(datum.u_init(x), dtype=float)
    v = np.asarray(datum.v_init(X, Y), dtype=float)
    if u.shape != (grid.nx,) or v.shape != (grid.nx, grid.ny):
        raise ValueError(
            f"datum shapes {u.shape}, {v.shape} do not match grid "
            f"({grid.nx},), ({grid.nx}, {grid.ny})"
        )
    if u.min() < 0.0 or v.min() < 0.0:
        raise ValueError("datum must be nonnegative")
    if u.max(initial=0.0) == 0.0 and v.max(initial=0.0) == 0.0:
        raise EmptyDatumError("initial datum vanishes at every grid node")
    return FieldState(t=0.0, u=u, v=v)


def _blowup_cap(u0: np.ndarray, v0: np.ndarray, params: ModelParams) -> float | np.ndarray:
    """The cap on v, 10 x max(1, sup v, mu/nu sup u), one per state of a batch.

    The cap on u is nu/mu times it (see :func:`_within_cap`): the road
    settles at nu/mu times the field level, so both caps follow the
    invariant region [0, nu/mu M] x [0, M] of the exchange.
    """
    ratio = params.mu / params.nu
    if u0.ndim == 1:
        # Python floats: numpy's scalar maximum is a measurable share of a one-state step
        return 10.0 * max(1.0, float(v0.max()), ratio * float(u0.max()))
    return 10.0 * np.maximum(1.0, np.maximum(v0.max(axis=(-2, -1)), ratio * u0.max(axis=-1)))


def _within_cap(u: np.ndarray, v: np.ndarray, cap, params: ModelParams):
    """Per state of a batch: sup v <= cap and sup u <= nu/mu cap; False where either holds a NaN."""
    return (u.max(axis=-1) <= params.nu / params.mu * cap) & (v.max(axis=(-2, -1)) <= cap)


def _advance(
    u: np.ndarray,
    v: np.ndarray,
    params: ModelParams,
    dt: float,
    dx: float,
    dy: float,
    reaction: ReactionFunction | None,
    substeps: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Return (u, v) advanced by substeps*dt, in new arrays; the inputs are not written.

    u has shape (..., nx) and v shape (..., nx, ny): any leading axes are a
    batch of independent states.  Every operation is elementwise along the
    batch, so each state's result is bit-identical to advancing it alone.
    The road takes ``substeps`` forward-Euler steps of dt against the frozen
    trace v[..., 0]; the field then takes one step of substeps*dt whose
    exchange ghost sees the mean of the road states those substeps started
    from, so the road gains exactly what the field loses.  With substeps=1
    this is one plain forward-Euler update (u/1 and 1*dt are exact).  The
    spacings come in explicitly, not from a Grid, so a folded run steps its
    half domain with the full grid's dt, dx and dy bit for bit.
    """
    dx2, dy2 = dx**2, dy**2
    D, d, mu, nu = params.D, params.d, params.mu, params.nu
    v0 = v[..., 0]

    # road: 3-point Laplacian in x, mirror ghosts at both ends; a padded copy,
    # since two 0-d updates would slow a one-state step measurably
    upad = np.empty(u.shape[:-1] + (u.shape[-1] + 2,))
    src = u_sum = u
    for s in range(substeps):
        if s > 0:
            u_sum = u_sum + src
        upad[..., 1:-1] = src
        upad[..., 0] = src[..., 1]
        upad[..., -1] = src[..., -2]
        lap = upad[..., 2:] + upad[..., :-2]
        lap -= src
        lap -= src
        dst = src + (dt * D / dx2) * lap
        dst += dt * (nu * v0 - mu * src)
        src = dst
    u_bar = u_sum / substeps
    field_dt = substeps * dt

    # field: ghost padding (mirrors laterally and on top, exchange flux below);
    # the corners of pad are never read
    pad = np.empty(v.shape[:-2] + (v.shape[-2] + 2, v.shape[-1] + 2))
    pad[..., 1:-1, 1:-1] = v
    pad[..., 0, 1:-1] = v[..., 1, :]
    pad[..., -1, 1:-1] = v[..., -2, :]
    pad[..., 1:-1, -1] = v[..., -2]
    pad[..., 1:-1, 0] = v[..., 1] + (2.0 * dy / d) * (mu * u_bar - nu * v0)

    t1 = pad[..., 2:, 1:-1] + pad[..., :-2, 1:-1]
    t1 -= v
    t1 -= v
    t1 *= field_dt * d / dx2
    t2 = pad[..., 1:-1, 2:] + pad[..., 1:-1, :-2]
    t2 -= v
    t2 -= v
    t2 *= field_dt * d / dy2
    t1 += t2
    if reaction is not None:
        t1 += field_dt * np.asarray(reaction(v))
    return src, v + t1


def step(
    state: FieldState,
    params: ModelParams,
    grid: Grid,
    *,
    reaction=_USE_PARAMS,
    max_value: float | np.ndarray | None = None,
) -> FieldState:
    """One explicit update of the coupled state; pure function of its inputs.

    The state may be a batch: u of shape (..., nx) and v of shape
    u.shape + (ny,), all at the one time state.t.  Each member is advanced
    exactly as it would be alone (see :func:`_advance`).  ``reaction=None``
    integrates the pure-exchange system (f == 0).  The caller is responsible
    for dt satisfying the CFL bound.  Raises BlowUpError when a member
    exceeds its cap or turns non-finite.  The cap is on v, and nu/mu times
    it on u; it is ``max_value`` (a number, or an array of the batch shape)
    or by default 10 x max(1, sup v, mu/nu sup u) of the member itself, so
    a batch raises exactly when one of its members would raise alone.
    """
    if state.u.shape[-1:] != (grid.nx,) or state.v.shape != state.u.shape + (grid.ny,):
        raise ValueError("state shape does not match grid")
    f = params.reaction if reaction is _USE_PARAMS else reaction
    cap = _blowup_cap(state.u, state.v, params) if max_value is None else max_value
    u, v = _advance(state.u, state.v, params, grid.dt, grid.dx, grid.dy, f)
    ok = _within_cap(u, v, cap, params)
    # one state gives a numpy bool, whose .all() would slow the step measurably
    if not (ok.all() if ok.ndim else ok):
        # the first failing member, () for one state
        at = np.unravel_index(np.argmin(ok), ok.shape)
        raise BlowUpError(
            f"state{list(map(int, at)) if at else ''} exceeded "
            f"{np.broadcast_to(cap, ok.shape)[at]} on v or nu/mu times that on u "
            f"(or went non-finite) at t={state.t + grid.dt}: "
            "the scheme is unstable for this dt",
            t=state.t + grid.dt,
        )
    return FieldState(t=state.t + grid.dt, u=u, v=v)


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
    at step 0, every ``snapshot_every`` steps, and at the final step, into
    the arrays of a :class:`RunRecord`; the state at the last snapshot is
    its final_state.  The run is deterministic: identical inputs give bit-identical records.
    Raises CflViolationError up front if grid.dt exceeds the stability
    bound, and BlowUpError (naming the failing step) if the state runs away.

    A datum that is exactly mirror-symmetric on a grid with odd nx is
    integrated on x >= 0 only (see the module docstring); the record is
    bit-identical to the full-domain one.  When the road-diffusion term
    binds the CFL bound, each field step of up to :func:`road_substeps`
    grid steps sub-cycles the road (see the module docstring); otherwise
    the run is the iterated single-rate :func:`step`, bit for bit.
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

    n_steps = _step_count(t_end, grid.dt)
    fold = grid.nx % 2 == 1 and _is_mirror_symmetric(state0.u, state0.v)
    first = grid.nx // 2 if fold else 0
    # copied: a custom datum's samplers may return the caller's own arrays
    u, v = state0.u[first:].copy(), state0.v[first:].copy()
    dt, dx, dy = grid.dt, grid.dx, grid.dy
    substeps = road_substeps(grid, params)

    targets = [*range(0, n_steps, snapshot_every), n_steps]
    times = np.asarray(targets) * dt
    mass = np.empty(len(targets))
    road = np.empty((len(targets), grid.nx))
    field_trace = np.empty_like(road)
    k = 0
    for j, target in enumerate(targets):
        while k < target:
            # one field step spans m grid steps, never past the next snapshot
            m = min(substeps, target - k)
            u, v = _advance(u, v, params, dt, dx, dy, f, m)
            k += m
            if not _within_cap(u, v, cap, params):
                raise BlowUpError(
                    f"blow-up at step {k} (t={k * dt}): max u {u.max()}, max v {v.max()} "
                    f"exceed the cap {params.nu / params.mu * cap} on u or {cap} on v",
                    step=k,
                    t=k * dt,
                )
        full_u, full_v = (_unfold(u), _unfold(v)) if fold else (u, v)
        snapshot = FieldState(t=k * dt, u=full_u, v=full_v)
        mass[j] = total_mass(snapshot, grid)
        road[j] = snapshot.u
        field_trace[j] = snapshot.v[:, 0]
    return RunRecord(times=times, mass=mass, road=road, field_trace=field_trace,
                     final_state=snapshot)


def _step_count(t_end: float, dt: float) -> int:
    """Steps of dt that :func:`run` takes to reach t_end (the last may overshoot it).

    Raises ValueError when t_end/dt is not finite (t_end = 1e308 overflows it).
    """
    n = t_end / dt
    if not math.isfinite(n):
        raise ValueError(f"t_end={t_end} is not a finite number of steps of dt={dt}")
    return max(0, int(math.ceil(n - 1e-9)))


def _is_mirror_symmetric(u: np.ndarray, v: np.ndarray) -> bool:
    """True when the state equals its own image under x -> -x, bit for bit."""
    return np.array_equal(u, u[::-1]) and np.array_equal(v, v[::-1])


def _unfold(a: np.ndarray) -> np.ndarray:
    """Full-domain array from its centre-to-x_max half, mirrored about the centre column."""
    return np.concatenate([a[:0:-1], a])


# --- CSV serialisation (17 significant digits, see External Interfaces) ---------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_lines(header: str, rows: Iterable[Iterable]) -> Iterator[str]:
    """The header line, then one line per row: numbers as :func:`_fmt`, strings as they are."""
    yield header + "\n"
    for row in rows:
        yield ",".join(c if isinstance(c, str) else _fmt(c) for c in row) + "\n"


def _write_csv(path, header: str, rows: Iterable[Iterable]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_csv_lines(header, rows))


def write_mass_csv(record: RunRecord, path) -> None:
    _write_csv(path, "t,mass", zip(record.times, record.mass))

