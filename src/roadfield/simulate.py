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

Padded buffers.  A state lives in padded buffers with one ghost node on
every side: the road in (..., nx+2) and the field in (..., nx+2, ny+2).
A buffer set holds two of each and every temporary, and ping-pongs
between them.  Every view the kernel reads or writes (interiors, ghosts
and their mirror sources, the flat range and its neighbours) is bound
once, when the set is built, so a step slices nothing.  :func:`run` builds
one set per run.  :func:`step` keeps one spare set, keyed by the field's
shape: a call pops it (or builds a set when it is absent or of another
shape), copies the state in and puts the set back after, so a reaction
that calls :func:`step` or a second thread gets a set of its own.  A set
also binds the kernel's scalar coefficients (dt*D/dx^2, mu, nu, dt,
2dy/d, the field's two diffusion scales, the field step, f'(0)) as 0-d
float64 arrays, rebinding them only when params, reaction, dt, dx, dy or
the substep count change (:meth:`_Buffers.bind`): numpy passes a Python
or numpy float operand through a slower path, about 0.2 us more per ufunc
call, and a step makes 11 such calls.  On the 25x9 grid of the ordering
checks one :func:`step` took 18.1-20.0 us against 21.0-22.1 us with the
scalars passed inline (best of 15 blocks of 2000 calls, alternating
processes, shared 2-core x86-64 host, numpy 2.4.6); on the front_speed
grids a field step moved within the host's spread.
The field update runs over the flat contiguous range [W, W*(nx+1)) of
the field buffer, W = ny+2, which is the padded rows 1..nx end to end:
the x neighbours of a node sit at offsets +-W and its y neighbours at
+-1, and each operation is one ufunc pass written into a preallocated
array.  The range also covers each row's two ghost columns, where the
update computes junk (the +-1 offsets there reach into the neighbouring
row).  The junk is finite, since every node it reads was written from
the state, and harmless: the next ghost fill overwrites those columns
before any interior node reads them, the blow-up check reads the range
only to rule a blow-up out and otherwise rereads the interior, and
snapshots read the interior alone.  The new field is added into the
next buffer in place (c + t1 commutes, so the bits stay those of
v + t1).  The logistic (``params._Logistic``, recognised by its type) is
evaluated over the range fused into the buffers as (f'(0)*s)*(1-s), the
operations of the callable in its order; any other reaction is called
on the interior only, so it never sees a ghost node (the exchange ghost
can be negative).

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
centre to x_max, with the centre column's mirror wall as the symmetry line.
Each snapshot unfolds 1-D arrays only: the road, the trace, and the
field's row integrals in y, from which it takes the mass; the full field
is unfolded once, for the final state.  The record is then bit-identical
to the full-domain integration at half the cost.  :func:`step` always
advances the full domain.  It also advances a batch of states (leading
axes on u and v) in one kernel call, each member bit for bit as it would
advance alone.

Unlike the dispersion algebra, everything here works in the original
variables (nu need not be 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import BlowUpError, CflViolationError, EmptyDatumError
from .params import ModelParams, _Logistic

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

    # cached: step() reads both on every call
    @cached_property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @cached_property
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
    if not min(terms.values()) > 0.0:
        # 1/dx^2 + 1/dy^2 overflows once a spacing nears the float floor (dx = 1e-160)
        raise ValueError(f"a CFL bound rounds to 0 on this grid: {terms}")
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
    """Grid with the requested spacings and a CFL-limited time step.

    Raises ValueError, naming the input, unless every extent is finite and
    every spacing is finite with a nonzero square (dx = 1e-300 squares to
    0, which no CFL term can divide by).
    """
    for name, value in (("x_min", x_min), ("x_max", x_max), ("y_max", y_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name}={value} is not finite")
    nx = _count_nodes(x_max - x_min, dx, "dx")
    ny = _count_nodes(y_max, dy, "dy")
    probe = Grid(x_min=x_min, x_max=x_max, y_max=y_max, nx=nx, ny=ny, dt=1.0)
    return Grid(x_min=x_min, x_max=x_max, y_max=y_max, nx=nx, ny=ny,
                dt=cfl_dt(probe, params, safety))


def _count_nodes(length: float, spacing: float, name: str) -> int:
    if not (math.isfinite(spacing) and spacing * spacing != 0.0):
        raise ValueError(f"{name}={spacing} is not finite or squares to 0")
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

    The cap on u is nu/mu times it (see :func:`_check_cap`): the road
    settles at nu/mu times the field level, so both caps follow the
    invariant region [0, nu/mu M] x [0, M] of the exchange.
    """
    ratio = params.mu / params.nu
    return 10.0 * np.maximum(1.0, np.maximum(v0.max(axis=(-2, -1)), ratio * u0.max(axis=-1)))


class _Road:
    """Views of one padded road buffer, of shape batch + (nx+2,), bound once.

    inner is the interior, right and left its +1 and -1 neighbours; lo and
    hi are the mirror ghosts, lo_src and hi_src the nodes they mirror.
    """

    __slots__ = ("inner", "right", "left", "lo", "lo_src", "hi", "hi_src")

    def __init__(self, u: np.ndarray):
        self.inner, self.right, self.left = u[..., 1:-1], u[..., 2:], u[..., :-2]
        # [..., 0] is a 0-d view even of a 1-D buffer, never a copied scalar
        self.lo, self.lo_src, self.hi, self.hi_src = u[..., 0], u[..., 2], u[..., -1], u[..., -3]


class _Field:
    """Views of one padded field buffer, of shape batch + (nx+2, ny+2), bound once.

    inner is the interior.  ghost is the exchange-ghost column below y = 0,
    y0 and y1 the columns at y = 0 and y = dy, top the ghost column above
    y_max and top_src the column it mirrors.  The rest view the buffer with
    its last two axes flattened, W = ny+2 values per padded row: first and
    last are the padded rows 0 and nx+1, first_src and last_src the rows 2
    and nx-1 they mirror, centre is the flat range [W, W*(nx+1)) of the
    padded rows 1..nx, and right, left, up and down are its neighbours at
    offsets +W, -W, +1 and -1.
    """

    __slots__ = ("inner", "ghost", "y0", "y1", "top", "top_src", "first", "first_src",
                 "last", "last_src", "centre", "right", "left", "up", "down")

    def __init__(self, v: np.ndarray):
        w = v.shape[-1]
        n = (v.shape[-2] - 2) * w
        # the flat length spelled out: -1 cannot be inferred for an empty batch
        flat = v.reshape(*v.shape[:-2], n + 2 * w)
        self.inner, self.ghost, self.y0, self.y1 = (
            v[..., 1:-1, 1:-1], v[..., 1:-1, 0], v[..., 1:-1, 1], v[..., 1:-1, 2])
        self.top, self.top_src = v[..., 1:-1, -1], v[..., 1:-1, -3]
        self.first, self.first_src = flat[..., :w], flat[..., 2 * w:3 * w]
        self.last, self.last_src = flat[..., -w:], flat[..., -3 * w:-2 * w]
        self.centre, self.right, self.left = flat[..., w:w + n], flat[..., 2 * w:], flat[..., :n]
        self.up, self.down = flat[..., w + 1:w + 1 + n], flat[..., w - 1:w - 1 + n]


class _Buffers:
    """The padded state of one grid, or a batch of them, and the kernel's temporaries.

    road, a :class:`_Road`, and field, a :class:`_Field`, hold the current
    state with one ghost node on every side.  :func:`_advance` writes the
    next state into road_next and field_next and swaps the pairs; the road
    substeps ping-pong between road and road_next.  lap and nu_v0 are the
    road's temporaries, t1 and t2 the field's, one value per node of the
    flat range, and t1_inner is t1 at the interior nodes.  Every array is
    allocated and every view bound once, here.  The kernel's scalars are
    bound by :meth:`bind`.
    """

    __slots__ = ("road", "road_next", "field", "field_next", "lap", "nu_v0", "t1", "t2",
                 "t1_inner", "params", "reaction", "spacing", "nu", "mu", "dt", "road_scale",
                 "substeps", "ghost_scale", "x_scale", "y_scale", "growth", "field_dt")

    def __init__(self, u: np.ndarray, v: np.ndarray):
        """Buffers shaped for the state (u, v), which is copied in."""
        batch, (nx, ny) = u.shape[:-1], v.shape[-2:]
        self.road, self.road_next = (_Road(np.empty((*batch, nx + 2))) for _ in range(2))
        self.field, self.field_next = (_Field(np.empty((*batch, nx + 2, ny + 2))) for _ in range(2))
        self.lap, self.nu_v0 = np.empty((*batch, nx)), np.empty((*batch, nx))
        self.t1, self.t2 = np.empty((*batch, nx * (ny + 2))), np.empty((*batch, nx * (ny + 2)))
        self.t1_inner = self.t1.reshape(*batch, nx, ny + 2)[..., 1:-1]
        self.params = self.reaction = self.spacing = None
        self.load(u, v)

    def load(self, u: np.ndarray, v: np.ndarray) -> None:
        """Copy the state (u, v) into the current interiors."""
        self.road.inner[...] = u
        self.field.inner[...] = v

    def bind(self, params: ModelParams, dt: float, dx: float, dy: float,
             reaction: Callable | None, substeps: int) -> None:
        """Bind the scalars of :func:`_advance` for these arguments as 0-d float64 arrays.

        numpy takes a ufunc operand that is a Python or numpy float through
        a slower path than a 0-d array, about 0.2 us more per call, and a
        step makes 11 such calls.  Each value is the double the kernel
        computed inline before, so no bit moves: nu and mu; the road's dt
        and its diffusion scale dt*D/dx^2; the exchange ghost's substeps
        and 2dy/d; the field step k*dt and its two diffusion scales
        k*dt*d/dx^2 and k*dt*d/dy^2; growth, the logistic's f'(0), or None
        for any other reaction.  Nothing is rebound unless params or
        reaction (by identity) or dt, dx, dy or substeps differ from the
        last call.
        """
        spacing = (dt, dx, dy, substeps)
        if params is self.params and reaction is self.reaction and spacing == self.spacing:
            return
        dx2, dy2 = dx**2, dy**2
        D, d = params.D, params.d
        field_dt = substeps * dt
        f = getattr(reaction, "func", reaction)
        self.nu, self.mu, self.dt, self.road_scale, self.substeps, self.ghost_scale = map(
            _scalar, (params.nu, params.mu, dt, dt * D / dx2, substeps, 2.0 * dy / d))
        self.field_dt, self.x_scale, self.y_scale = map(
            _scalar, (field_dt, field_dt * d / dx2, field_dt * d / dy2))
        self.growth = _scalar(f.f_prime_0) if isinstance(f, _Logistic) else None
        self.params, self.reaction, self.spacing = params, reaction, spacing


def _scalar(x: float) -> np.ndarray:
    """x as a read-only 0-d float64 array, the fast ufunc operand."""
    a = np.array(x, dtype=np.float64)
    a.flags.writeable = False
    return a


# the 1 of the logistic's 1 - s
_ONE = _scalar(1.0)


# step()'s spare buffer set, at most one, keyed by the field's shape; a call
# pops it before use and puts it back after
_SPARE: dict[tuple[int, ...], _Buffers] = {}


def _advance(
    buf: _Buffers,
    params: ModelParams,
    dt: float,
    dx: float,
    dy: float,
    reaction: Callable | None,
    substeps: int = 1,
) -> None:
    """Advance the state held in buf by substeps*dt.

    Any leading axes of the buffers are a batch of independent states.
    Every operation is elementwise along the batch, so each state's result
    is bit-identical to advancing it alone.  The road takes ``substeps``
    forward-Euler steps of dt against the frozen trace v[..., 0]; the field
    then takes one step of substeps*dt whose exchange ghost sees the mean
    of the road states those substeps started from, so the road gains
    exactly what the field loses.  With substeps=1 this is one plain
    forward-Euler update (u/1 and 1*dt are exact).  The spacings come in
    explicitly, not from a Grid, so a folded run steps its half domain with
    the full grid's dt, dx and dy bit for bit.  A :class:`params._Logistic`
    reaction is evaluated fused into the buffers; any other is called on the
    field's interior.  Every scalar operand is bound by :meth:`_Buffers.bind`.
    """
    buf.bind(params, dt, dx, dy, reaction, substeps)
    mu, field_dt = buf.mu, buf.field_dt
    field = buf.field
    # the exchange ghost column first sums the road states the substeps start from
    ghost = field.ghost
    nu_v0 = np.multiply(field.y0, buf.nu, buf.nu_v0)
    lap, road_scale, road_dt = buf.lap, buf.road_scale, buf.dt

    # road: 3-point Laplacian in x, mirror ghosts at both ends, ping-ponging
    # between road and road_next
    src, dst = buf.road, buf.road_next
    for s in range(substeps):
        inner, new = src.inner, dst.inner
        if s:
            ghost += inner
        else:
            ghost[...] = inner
        src.lo[...] = src.lo_src
        src.hi[...] = src.hi_src
        np.add(src.right, src.left, lap)
        lap -= inner
        lap -= inner
        lap *= road_scale
        np.add(inner, lap, new)
        np.multiply(inner, mu, lap)
        np.subtract(nu_v0, lap, lap)
        lap *= road_dt
        new += lap
        src, dst = dst, src
    buf.road, buf.road_next = src, dst

    # field ghosts: mirrors laterally and on top, the exchange flux
    # (2dy/d)(mu u_bar - nu v0) below
    if substeps > 1:
        ghost /= buf.substeps   # the mean; u/1 is u exactly
    ghost *= mu
    ghost -= nu_v0
    ghost *= buf.ghost_scale
    ghost += field.y1
    field.top[...] = field.top_src
    # whole rows, corners included, so every node the flat range reads is written first
    field.first[...] = field.first_src
    field.last[...] = field.last_src

    # field: one pass per operation over the flat range of the padded rows
    # 1..nx, neighbours at offsets +-W in x and +-1 in y; the ghost columns
    # inside the range get finite junk that the next ghost fill overwrites
    # before anything reads it
    c, out = field.centre, buf.field_next.centre
    t1, t2 = buf.t1, buf.t2
    np.add(field.right, field.left, t1)
    t1 -= c
    t1 -= c
    t1 *= buf.x_scale
    np.add(field.up, field.down, t2)
    t2 -= c
    t2 -= c
    t2 *= buf.y_scale
    t1 += t2
    if buf.growth is not None:
        # (f'(0) s)(1 - s), with out as scratch
        np.multiply(c, buf.growth, t2)
        np.subtract(_ONE, c, out)
        t2 *= out
        t2 *= field_dt
        t1 += t2
    elif reaction is not None:
        buf.t1_inner += field_dt * np.asarray(reaction(field.inner))
    np.add(c, t1, out)
    buf.field, buf.field_next = buf.field_next, field


def _check_cap(buf: _Buffers, cap, params: ModelParams, t: float,
               step: int | None = None) -> None:
    """Raise BlowUpError unless each state of a batch has sup v <= cap and sup u <= nu/mu cap.

    v is read first over :func:`_advance`'s flat range in one contiguous
    pass.  The range holds every node of the field plus the ghost columns'
    finite junk, so when it passes, the field passes; only otherwise is the
    field itself read, and the check raises exactly when the field fails.
    A NaN fails both tests.  The one blow-up message of :func:`step` and
    :func:`run`: it names the first failing state ("state" alone for one
    state, "state[i]" in a batch), its cap, its max u and max v, the time
    t and, from :func:`run`, the grid step, which the error also carries.
    """
    u = buf.road.inner
    # np.maximum.reduce is ndarray.max without its keyword handling, a
    # measurable share of a one-state step
    u_ok = np.maximum.reduce(u, -1) <= params.nu / params.mu * cap
    ok = u_ok & (np.maximum.reduce(buf.field.centre, -1) <= cap)
    # one state gives a numpy bool, whose .all() would slow the step measurably
    if ok.all() if ok.ndim else ok:
        return
    v = buf.field.inner
    ok = u_ok & (v.max(axis=(-2, -1)) <= cap)
    if ok.all() if ok.ndim else ok:
        return
    # the first failing member, () for one state
    at = np.unravel_index(np.argmin(ok), ok.shape)
    raise BlowUpError(
        f"state{list(map(int, at)) if at else ''} exceeded "
        f"{np.broadcast_to(cap, ok.shape)[at]} on v or nu/mu times that on u "
        f"(max u {u[at].max()}, max v {v[at].max()}) at t={t}"
        f"{'' if step is None else f', grid step {step}'}: the scheme is unstable",
        step=step,
        t=t,
    )


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
    exceeds its cap or turns non-finite, with the one message of
    :func:`_check_cap` (no grid step).  The cap is on v, and nu/mu times
    it on u; it is ``max_value`` (a number, or an array of the batch shape)
    or by default 10 x max(1, sup v, mu/nu sup u) of the member itself, so
    a batch raises exactly when one of its members would raise alone.  That
    cap is computed only when the new state fails the check at 10, the
    least default cap.  The new u and v are contiguous copies, which later
    steps never write.
    """
    if state.u.shape[-1:] != (grid.nx,) or state.v.shape != state.u.shape + (grid.ny,):
        raise ValueError("state shape does not match grid")
    f = params.reaction if reaction is _USE_PARAMS else reaction
    # the spare set, or a new one while another call (a reaction that steps,
    # a second thread) holds it
    buf = _SPARE.pop(state.v.shape, None) or _Buffers(state.u, state.v)
    buf.load(state.u, state.v)
    t = state.t + grid.dt
    _advance(buf, params, grid.dt, grid.dx, grid.dy, f)
    try:
        _check_cap(buf, 10.0 if max_value is None else max_value, params, t)
        blown = False
    except BlowUpError:
        if max_value is not None:
            raise
        blown = True
    if blown:
        # every default cap is at least 10: only a state above 10 needs its own
        _check_cap(buf, _blowup_cap(state.u, state.v, params), params, t)
    new = FieldState(t=t, u=buf.road.inner.copy(), v=buf.field.inner.copy())
    _SPARE.clear()
    _SPARE[state.v.shape] = buf
    return new


def _mass(u: np.ndarray, rows: np.ndarray, dx: float) -> float:
    """Trapezoidal mass of the road u plus the field's row integrals ``rows``, in x."""
    return float(np.trapezoid(u, dx=dx)) + float(np.trapezoid(rows, dx=dx))


def total_mass(state: FieldState, grid: Grid) -> float:
    """Trapezoidal quadrature of u over the road plus v over the field."""
    return _mass(state.u, np.trapezoid(state.v, dx=grid.dy, axis=-1), grid.dx)


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
    bound, and BlowUpError if the state runs away: the message of
    :func:`_check_cap`, and ``.step`` the failing grid step.

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
    fold = _folds(grid, state0)
    first = grid.nx // 2 if fold else 0
    buf = _Buffers(state0.u[first:], state0.v[first:])
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
            _advance(buf, params, dt, dx, dy, f, m)
            k += m
            _check_cap(buf, cap, params, k * dt, k)
        # the mass from the half's row integrals: a folded run unfolds 1-D arrays only
        u, v = buf.road.inner, buf.field.inner
        rows, trace = np.trapezoid(v, dx=dy, axis=-1), v[:, 0]
        if fold:
            u, rows, trace = _unfold(u), _unfold(rows), _unfold(trace)
        mass[j] = _mass(u, rows, dx)
        road[j] = u
        field_trace[j] = trace
    final = FieldState(t=k * dt, u=road[-1].copy(), v=_unfold(v) if fold else v.copy())
    return RunRecord(times=times, mass=mass, road=road, field_trace=field_trace,
                     final_state=final)


def _step_count(t_end: float, dt: float) -> int:
    """Steps of dt that :func:`run` takes to reach t_end (the last may overshoot it).

    Raises ValueError when t_end/dt is not finite (t_end = 1e308 overflows it).
    """
    n = t_end / dt
    if not math.isfinite(n):
        raise ValueError(f"t_end={t_end} is not a finite number of steps of dt={dt}")
    return max(0, int(math.ceil(n - 1e-9)))


def _updates_per_column(grid: Grid, params: ModelParams, n_steps: int,
                        snapshot_every: int) -> int:
    """Cell updates :func:`run` makes per grid column it integrates.

    ny field cells per field step plus one road node per road substep (a
    grid step); a field step spans up to :func:`road_substeps` grid steps
    and never crosses a snapshot.
    """
    k = road_substeps(grid, params)
    whole, rest = divmod(n_steps, snapshot_every)
    field_steps = whole * -(-snapshot_every // k) + -(-rest // k)
    return grid.ny * field_steps + n_steps


def _folds(grid: Grid, state: FieldState) -> bool:
    """True when :func:`run` integrates only the columns from the centre to x_max."""
    return grid.nx % 2 == 1 and _is_mirror_symmetric(state.u, state.v)


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

