"""Dispersion algebra: critical spreading speeds from exponential solutions.

Exponential profiles (u, v) = (e^{a(x+ct)}, g*e^{a(x+ct)-b*y}) solve the
linearised road-field system exactly when (a, b, g) satisfies

    -D a^2 + c a = g - mu          (road equation)
    -d a^2 + c a = f'(0) + d b^2   (field equation)
    d b g       = mu - g           (exchange balance, so g = mu/(1+d b))

In the (b, a) plane the road equation traces a smooth curve with branches
``alpha_road(c, b, +/-)`` and leftmost point (beta_D(c), c/(2D)); the field
equation is a circle of centre (0, c/(2d)) and radius ``beta_kpp(c)``.  The
critical speed c* is the smallest c >= c_KPP at which the two loci touch;
for D <= 2d they already touch at c_KPP and the road plays no role.

All speeds here are computed on nu-normalised parameters (apply
:func:`roadfield.params.normalize_nu` first); operations raise ValueError
otherwise.  Each speed is where a scalar gap function of c (road branch
minus field branch, maximised over admissible b) changes sign.  The
half-plane, strip and large-D solvers differ only in their gap(b) and its
b interval: one maximiser, ``_max_gap`` (a dense grid scan, then
golden-section refinement), serves all three, and one bisection,
``_bisect_gap``, brackets every root here, including the crossings in
:func:`intersections` and the window speeds in :func:`gamma_plus_threshold`.

Each gap in b (``_gap_values``, ``_strip_gap_values``, ``_limit_gap_values``
and the branch differences ``_branch_diff`` of :func:`intersections`) is
one expression of numpy ufuncs and arithmetic, valid on a float b or on an
array: no ``np.asarray``, ``np.clip`` or ``np.where``, so one float
evaluation costs microseconds, and it gives bit for bit the matching
element of an array evaluation.  The same definition serves the grid scan,
the golden refinement, the seeds, the certificate and every bisection.

The speed itself comes from Newton's method on the tangency system in
(a, b, c): the road equation, the field equation and the vanishing of
their Jacobian determinant in (a, b) (``_Tangency``; the strip swaps in its
road equation, the large-D limit its parabola for the field equation).
The seed bisects a coarse ``SEED_POINTS`` scan of the gap to 1 % of the
bracket, and on by the same share while Newton finds no root from a seed
bracket still wide against its speed.  The Newton speed is certified: the
gap must be <= 0 at the lower end and > 0 at the upper end of a bracket of
width <= tol around it, which is the bracket reported.  When Newton does
not converge or the certificate fails (e.g. a tol below the float spacing)
the solver bisects the gap's sign change to width tol instead and reports
the midpoint.  The road discriminant is written once (``_road_disc``; the
large-D limit is its D = 1 case) and every branch of the form
(c +/- sqrt(disc))/scale is ``_root``; the half-plane and strip solvers
share one tail, ``_tangent_speed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError, NoTangencyError
from .params import ModelParams, c_kpp

__all__ = [
    "Branch",
    "Regime",
    "CurvePoint",
    "ExponentialAnsatz",
    "SpeedResult",
    "GammaPlusClassification",
    "IntersectionSet",
    "beta_D",
    "beta_kpp",
    "alpha_road",
    "alpha_field",
    "gamma_of_beta",
    "curve_gap",
    "critical_speed",
    "intersections",
    "gamma_plus_threshold",
    "strip_alpha_road",
    "strip_critical_speed",
    "limit_speed",
    "limit_bounds",
]

GRID_POINTS = 2048          # dense scan of the admissible b interval
CROSSING_SCAN_POINTS = 4096  # scan of each branch pair in intersections
BETA_REFINE_TOL = 1e-12     # golden-section width in b
DEFAULT_TOL = 1e-8          # width in c of a certified bracket
SEED_POINTS = 64            # coarse scan behind the Newton seed, no refinement
SEED_SHARE = 0.01           # the seed bisection stops at this share of its bracket
NEWTON_STEPS = 30           # Newton gives up after this many steps
NEWTON_RTOL = 1e-14         # converged once a step moves c by at most this share

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class Branch(Enum):
    FIELD_PLUS = "field+"
    FIELD_MINUS = "field-"
    ROAD_STRIP_PLUS = "road_strip+"


class Regime(Enum):
    SUB_THRESHOLD = "SubThreshold"      # D <= 2d: c* = c_KPP exactly
    SUPER_THRESHOLD = "SuperThreshold"  # D > 2d: c* > c_KPP from the tangency


@dataclass(frozen=True)
class CurvePoint:
    """A point (b, a) on one of the dispersion loci."""

    beta: float
    alpha: float
    branch: Branch


@dataclass(frozen=True)
class SpeedResult:
    """Critical speed with the bracketing interval that certified it."""

    c_star: float
    regime: Regime
    bracket: tuple[float, float]
    tol: float
    tangency: CurvePoint | None = None


@dataclass(frozen=True)
class GammaPlusClassification:
    """Whether the upper road and field branches also cross, and on which speeds.

    ``delta`` is the diffusivity increment above 2d below which the upper
    branches meet; when ``intersects`` (2d < D <= 2d+delta) the crossings
    happen exactly for speeds in [c_tilde_1, c_tilde_2].
    """

    delta: float
    intersects: bool
    c_tilde_1: float | None = None
    c_tilde_2: float | None = None


@dataclass(frozen=True)
class IntersectionSet:
    """All crossings of the road curve with the field circle at a given speed."""

    c: float
    points: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class ExponentialAnsatz:
    """A verified solution (alpha, beta, gamma) of the dispersion system at speed c."""

    alpha: float
    beta: float
    gamma: float
    c: float

    def residuals(self, params: ModelParams) -> tuple[float, float, float]:
        """Residuals of the road, field, and exchange equations (zero if exact)."""
        a, b, g, c = self.alpha, self.beta, self.gamma, self.c
        r_road = -params.D * a * a + c * a - (g - params.mu)
        r_field = -params.d * a * a + c * a - (params.f_prime_0 + params.d * b * b)
        r_exchange = params.d * b * g - (params.mu - g)
        return (r_road, r_field, r_exchange)

    @classmethod
    def at_intersection(
        cls,
        c: float,
        beta: float,
        params: ModelParams,
        road_sign: str = "+",
        atol: float = 1e-8,
    ) -> "ExponentialAnsatz":
        """Build the ansatz at a curve crossing, validating all three residuals."""
        a = alpha_road(c, beta, params, road_sign)
        g = gamma_of_beta(beta, params)
        ansatz = cls(alpha=a, beta=beta, gamma=g, c=c)
        if max(abs(r) for r in ansatz.residuals(params)) > atol:
            raise DomainError(
                f"(c={c}, beta={beta}) is not an intersection of the dispersion loci"
            )
        return ansatz


def _require_normalized(params: ModelParams) -> None:
    if params.nu != 1.0:
        raise ValueError("dispersion operations require nu=1; apply normalize_nu first")


def _check_sign(sign: str) -> float:
    if sign == "+":
        return 1.0
    if sign == "-":
        return -1.0
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


# --- pointwise branch formulas ------------------------------------------------


def beta_D(c: float, params: ModelParams) -> float:
    """Leftmost admissible decay rate of the road curve: -c^2/(d(c^2+4*mu*D)).

    Always in (-1/d, 0); tends to -1/d as c grows.
    """
    _require_normalized(params)
    if c <= 0:
        raise DomainError(f"require c>0, got {c}")
    return -c * c / (params.d * (c * c + 4.0 * params.mu * params.D))


def beta_kpp(c: float, params: ModelParams) -> float:
    """Radius of the field circle: sqrt(c^2 - c_KPP^2)/(2d).  Needs c >= c_KPP."""
    _require_normalized(params)
    ck = c_kpp(params)
    if c < ck:
        raise DomainError(f"require c >= c_KPP = {ck}, got {c}")
    return math.sqrt(c * c - ck * ck) / (2.0 * params.d)


def gamma_of_beta(beta: float, params: ModelParams) -> float:
    """Amplitude ratio mu/(1 + d*beta) of the field trace over the road density."""
    _require_normalized(params)
    if beta <= -1.0 / params.d:
        raise DomainError(f"require beta > -1/d = {-1.0/params.d}, got {beta}")
    return params.mu / (1.0 + params.d * beta)


def alpha_road(c: float, beta: float, params: ModelParams, sign: str) -> float:
    """Root of the road equation: (c +/- sqrt(c^2 + 4*mu*d*D*b/(1+d*b)))/(2D)."""
    _require_normalized(params)
    s = _check_sign(sign)
    if params.D <= 0:
        raise DomainError("alpha_road needs D > 0 (degenerate road has no curve)")
    if beta <= -1.0 / params.d:
        raise DomainError(f"require beta > -1/d = {-1.0/params.d}, got {beta}")
    disc = _clamp_roundoff(_road_disc(c, beta, params.mu, params.d, params.D), c * c)
    if disc < 0.0:
        raise DomainError(f"road discriminant negative at (c={c}, beta={beta}): beta < beta_D(c)")
    return float(_root(c, disc, 2.0 * params.D, s))


def alpha_field(c: float, beta: float, params: ModelParams, sign: str) -> float:
    """Root of the field equation: (c +/- sqrt(c^2 - c_KPP^2 - 4*d^2*b^2))/(2d)."""
    _require_normalized(params)
    s = _check_sign(sign)
    ck = c_kpp(params)
    if c < ck:
        raise DomainError(f"require c >= c_KPP = {ck}, got {c}")
    b2 = 4.0 * params.d * params.d * beta * beta
    disc = _clamp_roundoff(c * c - ck * ck - b2, c * c)
    if disc < 0.0:
        raise DomainError(f"|beta| exceeds beta_kpp(c) at (c={c}, beta={beta})")
    upper = c + math.sqrt(disc)
    if s > 0.0:
        return upper / (2.0 * params.d)
    # product of the roots over the upper root: no cancellation at large c
    return (ck * ck + b2) / (2.0 * params.d * upper)


def _road_disc(c: float, beta, mu: float, d: float, D: float):
    """Discriminant c^2 + 4*mu*d*D*b/(1+d*b) of the road equation, scalar or array b."""
    return c * c + 4.0 * mu * d * D * beta / (1.0 + d * beta)


def _root(c: float, disc, scale: float, s: float = 1.0):
    """Branch (c + s*sqrt(disc))/scale, a negative disc clamped to 0."""
    return (c + s * np.sqrt(np.maximum(disc, 0.0))) / scale


def _lower_field_root(c: float, beta, params: ModelParams):
    """Lower field root (c - sqrt(disc))/(2d), scalar or array b, without cancellation.

    Evaluated as the product of the two roots, (c_KPP^2 + 4 d^2 b^2)/(4 d^2),
    over the upper root (c + sqrt(disc))/(2d): the difference form loses
    its digits once c is large (large D).  A negative disc is clamped to 0.
    """
    ck2 = c_kpp(params) ** 2
    db = params.d * beta
    b2 = 4.0 * (db * db)
    root = np.sqrt(np.maximum(c * c - ck2 - b2, 0.0))
    return (ck2 + b2) / (2.0 * params.d * (c + root))


def _clamp_roundoff(disc: float, scale: float) -> float:
    # discriminants vanish exactly on the domain boundary; absorb float noise
    # on both sides so boundary evaluations (double roots) come out exact
    if abs(disc) < 1e-13 * max(scale, 1.0):
        return 0.0
    return disc


# --- scalar gap reduction and its maximiser ------------------------------------


def _golden_max(f: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximisation of a unimodal f on [a, b]."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def _gap_values(c: float, beta, params: ModelParams) -> np.ndarray:
    """alpha_road(+) - alpha_field(-), scalar or array of admissible b (edges clamped)."""
    disc = _road_disc(c, beta, params.mu, params.d, params.D)
    return _root(c, disc, 2.0 * params.D) - _lower_field_root(c, beta, params)


def _max_gap(gap: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
             coarse: bool = False) -> tuple[float, float]:
    """(max, argmax) of a vectorised gap(b) over [lo, hi].

    A dense grid scan finds the best node; golden-section refinement between
    its neighbours replaces it only when it does at least as well.  An empty
    interval (hi <= lo) gives the value at lo.  ``coarse`` returns the best
    of ``SEED_POINTS`` nodes instead: a lower bound on the max, for seeds.
    """
    if hi <= lo:
        return float(gap(lo)), lo
    if coarse:
        grid = np.linspace(lo, hi, SEED_POINTS)
        vals = gap(grid)
        k = int(np.argmax(vals))
        return float(vals[k]), float(grid[k])
    grid = np.linspace(lo, hi, GRID_POINTS)
    vals = gap(grid)
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, GRID_POINTS - 1)]
    x, fx = _golden_max(lambda t: float(gap(t)), a, b, BETA_REFINE_TOL)
    if fx >= vals[k]:
        return fx, x
    return float(vals[k]), float(grid[k])


def _gap_and_argmax(c: float, params: ModelParams, coarse: bool = False) -> tuple[float, float]:
    lo = max(beta_D(c, params), -beta_kpp(c, params))
    return _max_gap(lambda b: _gap_values(c, b, params), lo, beta_kpp(c, params), coarse)


def curve_gap(c: float, params: ModelParams) -> float:
    """Signed clearance between the upper road branch and the lower field branch.

    G(c) = max over admissible b of (alpha_road(c,b,+) - alpha_field(c,b,-)),
    with b ranging over [max(beta_D(c), -beta_kpp(c)), beta_kpp(c)].
    G(c) >= 0 exactly when the two loci intersect, and G is strictly
    increasing in c, so the critical speed is its unique sign change.
    """
    _require_normalized(params)
    if params.D <= 0:
        raise DomainError("curve_gap needs D > 0")
    if c < c_kpp(params):
        raise DomainError(f"require c >= c_KPP, got {c}")
    return _gap_and_argmax(c, params)[0]


def _bisect_gap(gap: Callable[[float], float], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Shrink [lo, hi] around the sign change of a gap that is negative left of it.

    Keeps gap(hi) > 0 >= gap(lo), so an exact zero of the gap ends at lo.
    To send zeros to hi, or to follow a decreasing f, pass the indicator
    ``f(t) >= 0`` or ``f(t) <= 0`` as the gap.  Stops at width tol, or
    earlier when the midpoint rounds onto an end: lo and hi are then
    adjacent floats, so a tol below the float spacing (or tol = 0) ends at
    float resolution, not in a loop.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return lo, hi


@dataclass(frozen=True)
class _Tangency:
    """The tangency system in (a, b, c) behind one speed.

    road:     road a^2 - c a - h(b) = 0
    field:    field a^2 - c a + f'(0) + d b^2 = 0
    tangency: det d(road, field)/d(a, b) = 0

    ``road`` is D (1 in the large-D limit), ``field`` is d (0 for the limit
    parabola), and ``exchange(b)`` gives h, h' and h'' of the exchange term
    (mu d b/(1 + d b) on the half-plane).  Newton keeps b above ``b_min``.
    An ``even`` system (the strip) has the root at -b wherever it has one
    at b, and reports b >= 0.
    """

    road: float
    field: float
    exchange: Callable[[float], tuple[float, float, float]]
    b_min: float
    even: bool = False


def _half_plane(params: ModelParams) -> _Tangency:
    """The half-plane's tangency system, h(b) = mu d b/(1 + d b), b > -1/d."""
    mu, d = params.mu, params.d

    def h(b: float) -> tuple[float, float, float]:
        w = 1.0 / (1.0 + d * b)
        return mu * d * b * w, mu * d * w * w, -2.0 * mu * d * d * w * w * w

    return _Tangency(params.D, d, h, -1.0 / d)


def _lower_root(system: _Tangency, c: float, b: float, params: ModelParams) -> float:
    """Lower root of the system's field equation, 2q/(c + sqrt(c^2 - 4 field q)), q = f'(0) + d b^2."""
    q = params.f_prime_0 + params.d * b * b
    return 2.0 * q / (c + math.sqrt(max(c * c - 4.0 * system.field * q, 0.0)))


def _newton_tangency(system: _Tangency, a: float, b: float, c: float,
                     params: ModelParams) -> tuple[float, float, float] | None:
    """Newton's method on the tangency system from (a, b, c).

    Stops once a step moves c by at most NEWTON_RTOL of c (float resolution
    one quadratic step later).  None after NEWTON_STEPS steps, on a singular
    Jacobian, a non-finite iterate or b <= b_min, or when the root is not on
    the upper road branch and the lower field branch.
    """
    D, k, d, fp0 = system.road, system.field, params.d, params.f_prime_0
    for _ in range(NEWTON_STEPS):
        if not b > system.b_min:
            return None
        h, h1, h2 = system.exchange(b)
        ra, fa, fb = 2.0 * D * a - c, 2.0 * k * a - c, 2.0 * d * b
        residual = (D * a * a - c * a - h, k * a * a - c * a + fp0 + d * b * b, ra * fb + h1 * fa)
        jacobian = ((ra, -h1, -a),
                    (fa, fb, -a),
                    (4.0 * D * d * b + 2.0 * k * h1, 2.0 * d * ra + h2 * fa, -fb - h1))
        try:
            da, db, dc = np.linalg.solve(jacobian, residual)
        except np.linalg.LinAlgError:
            return None
        a, b, c = float(a - da), float(b - db), float(c - dc)
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            return None
        if abs(dc) <= NEWTON_RTOL * abs(c):
            if not 2.0 * D * a >= c >= 2.0 * k * a:
                return None
            return a, abs(b) if system.even else b, c
    return None


def _newton_speed(gap: Callable[[float], float], gap_and_argmax: Callable[..., tuple[float, float]],
                  system: _Tangency, lo: float, hi: float, tol: float, params: ModelParams,
                  seeds: tuple[tuple[float, float, float], ...] = ()
                  ) -> tuple[float, float, tuple[float, float]] | None:
    """(c, b, bracket) by certified Newton inside [lo, hi]; None when the certificate fails.

    The first seed (a, b, c) bisects the coarse gap to SEED_SHARE of
    [lo, hi] and takes b from the coarse argmax and a from the lower field
    root; ``seeds`` adds more.  When Newton finds no root and the seed
    bracket is still wider than SEED_SHARE of its lower end, the bracket is
    bisected SEED_SHARE-fold again and Newton restarts from its midpoint:
    a bracket spanning decades (the large-D limit at large mu/f'(0)) leaves
    the first seed far above a small speed.  Every root has gap = 0 at its
    (b, c), so the smallest root's c is the best bound on the speed, and
    only it is certified: a bracket of width <= tol around it, inside
    [lo, hi], with gap <= 0 at its lower end and gap > 0 at its upper end.
    """
    s_lo, s_hi = lo, hi
    while True:
        s_lo, s_hi = _bisect_gap(lambda c: gap_and_argmax(c, coarse=True)[0], s_lo, s_hi,
                                 SEED_SHARE * (s_hi - s_lo))
        c = 0.5 * (s_lo + s_hi)
        b = gap_and_argmax(c, coarse=True)[1]
        roots = [root for a, b, c in ((_lower_root(system, c, b, params), b, c), *seeds)
                 if (root := _newton_tangency(system, a, b, c, params)) is not None]
        if roots or s_hi - s_lo <= SEED_SHARE * s_lo:
            break
    if not roots:
        return None
    _, b, c = min(roots, key=lambda root: root[2])
    c_lo, c_hi = max(c - 0.5 * tol, lo), min(c + 0.5 * tol, hi)
    while c_hi - c_lo > tol:
        # c +/- tol/2 rounds outward by at most an ulp or two
        c_hi = math.nextafter(c_hi, -math.inf)
    if not (c_lo <= c <= c_hi and gap(c_lo) <= 0.0 < gap(c_hi)):
        return None
    return c, b, (c_lo, c_hi)


def _tangent_speed(gap: Callable[[float], float], gap_and_argmax: Callable[..., tuple[float, float]],
                   system: _Tangency, lo: float, hi: float | None, tol: float, params: ModelParams,
                   branch: Branch, seeds: tuple[tuple[float, float, float], ...] = (),
                   bisect_hi: Callable[[], float] | None = None) -> SpeedResult:
    """The speed where gap changes sign above lo, with its certified bracket and tangency point.

    Certified Newton on ``system`` inside [lo, hi] first (:func:`_newton_speed`;
    skipped when hi is None).  When that fails, gap's sign change is
    bisected on [lo, hi] (hi from ``bisect_hi()`` when given) to width
    tol; the speed is the midpoint and b the maximising b of
    ``gap_and_argmax`` there.  The tangency point is (b, lower field root).
    """
    newton = None if hi is None else _newton_speed(gap, gap_and_argmax, system, lo, hi, tol,
                                                   params, seeds)
    if newton is not None:
        c, b_star, (lo, hi) = newton
    else:
        lo, hi = _bisect_gap(gap, lo, hi if bisect_hi is None else bisect_hi(), tol)
        c = 0.5 * (lo + hi)
        _, b_star = gap_and_argmax(c)
    tangency = CurvePoint(beta=b_star, alpha=alpha_field(c, b_star, params, "-"), branch=branch)
    return SpeedResult(c_star=c, regime=Regime.SUPER_THRESHOLD, bracket=(lo, hi), tol=tol,
                       tangency=tangency)


def _doubled(gap: Callable[[float], float], lo: float) -> float | None:
    """The first lo + 2^k (k = 0, 1, ...) with a positive gap; None past 2^60 lo."""
    hi = lo + 1.0
    while gap(hi) <= 0.0:
        hi = lo + 2.0 * (hi - lo)
        if hi > 2.0**60 * lo:
            return None
    return hi


# --- critical speed -------------------------------------------------------------


def critical_speed(params: ModelParams, tol: float = DEFAULT_TOL) -> SpeedResult:
    """Asymptotic spreading speed c*(mu, d, D) of the coupled system.

    For D <= 2d (including the degenerate D=0 road) the road cannot outrun
    the field and c* = c_KPP exactly.  For D > 2d the result is the unique
    root of :func:`curve_gap`: the Newton speed of the tangency system,
    seeded inside [c_KPP, c_hi] (c_hi doubled until the coarse gap is
    positive), with a bracket of width <= tol on which :func:`curve_gap`
    changes sign.  When that certificate fails the root is bisected from
    [c_KPP, c_hi] (c_hi doubled on :func:`curve_gap`) and the speed is the
    bracket midpoint.  The returned tangency point records b and the lower
    field branch there.
    """
    _require_normalized(params)
    if tol <= 0:
        raise ValueError("tol must be positive")
    ck = c_kpp(params)
    if params.D <= 2.0 * params.d:
        return SpeedResult(c_star=ck, regime=Regime.SUB_THRESHOLD, bracket=(ck, ck), tol=tol)

    def gap(c: float) -> float:
        return curve_gap(c, params)

    def gap_and_argmax(c: float, coarse: bool = False) -> tuple[float, float]:
        return _gap_and_argmax(c, params, coarse)

    def bisect_hi() -> float:
        hi = _doubled(gap, ck)
        if hi is None:
            raise BracketError(
                f"no curve crossing found up to c={2.0**60 * ck}; parameters are inconsistent"
            )
        return hi

    # a positive coarse max is a positive gap, so the coarse doubling is an upper end too
    return _tangent_speed(gap, gap_and_argmax, _half_plane(params), ck,
                          _doubled(lambda c: gap_and_argmax(c, coarse=True)[0], ck), tol, params,
                          Branch.FIELD_MINUS, bisect_hi=bisect_hi)


# --- crossings at fixed speed ---------------------------------------------------


def _branch_diff(c: float, beta, params: ModelParams, rs: float, fs: float):
    """Road branch rs minus field branch fs (signs +/-1), scalar or array b."""
    d, D = params.d, params.D
    ck = c_kpp(params)
    a_road = _root(c, _road_disc(c, beta, params.mu, d, D), 2.0 * D, rs)
    db = d * beta
    return a_road - _root(c, c * c - ck * ck - 4.0 * (db * db), 2.0 * d, fs)


def intersections(c: float, params: ModelParams) -> IntersectionSet:
    """Locate every crossing of the road curve with the field circle at speed c.

    Scans all four (road branch, field branch) pairs for sign changes of
    the branch difference over ``CROSSING_SCAN_POINTS`` even nodes of the
    admissible b interval and refines each by bisection.  At large D the
    stretch where the upper road branch clears the lower field branch is
    narrower than the node spacing, so the argmax of :func:`curve_gap`
    also splits its cell when that cell shows no sign change of its own.
    Points are labelled by the field semicircle they lie on.  For D > 2d
    and c > c* the loci cross at exactly two points.  For D <= 2d, where
    c* = c_KPP, they need not cross at all just above c* (D = d = mu = 1
    at c = 2.25 gives no points).
    """
    _require_normalized(params)
    if params.D <= 0:
        raise DomainError("intersections needs D > 0 (degenerate road has no curve)")
    lo = max(beta_D(c, params), -beta_kpp(c, params))
    hi = beta_kpp(c, params)
    grid = np.linspace(lo, hi, CROSSING_SCAN_POINTS)
    b_peak = _gap_and_argmax(c, params)[1]
    k_peak = min(max(int(np.searchsorted(grid, b_peak)) - 1, 0), CROSSING_SCAN_POINTS - 2)
    found: list[CurvePoint] = []
    for road_sign in ("+", "-"):
        for field_sign in ("+", "-"):
            rs, fs = _check_sign(road_sign), _check_sign(field_sign)

            def diff(b, _rs=rs, _fs=fs):
                return _branch_diff(c, b, params, _rs, _fs)

            vals = diff(grid)
            brackets = [(grid[k], grid[k + 1], vals[k], vals[k + 1])
                        for k in np.flatnonzero(vals[:-1] * vals[1:] <= 0.0)]
            # cells with a sign change keep their bracket, so every crossing
            # the even scan finds comes out as before, bit for bit
            k, v_peak = k_peak, float(diff(b_peak))
            if vals[k] * vals[k + 1] > 0.0 and vals[k] * v_peak <= 0.0:
                brackets += [(grid[k], b_peak, vals[k], v_peak),
                             (b_peak, grid[k + 1], v_peak, vals[k + 1])]
            for a, b, va, vb in brackets:
                if va == 0.0 and vb == 0.0:
                    continue
                # orient the difference to rise through the bracket; exact
                # zeros count as past the crossing
                s = 1.0 if va < vb else -1.0
                a, b = _bisect_gap(lambda t, s=s: s * float(diff(t)) >= 0.0, float(a), float(b), 0.0)
                beta_root = 0.5 * (a + b)
                branch = Branch.FIELD_MINUS if field_sign == "-" else Branch.FIELD_PLUS
                alpha_root = alpha_field(c, beta_root, params, field_sign)
                if not any(
                    abs(p.beta - beta_root) < 1e-9 and abs(p.alpha - alpha_root) < 1e-9
                    for p in found
                ):
                    found.append(CurvePoint(beta=beta_root, alpha=alpha_root, branch=branch))
    found.sort(key=lambda p: p.beta)
    return IntersectionSet(c=c, points=tuple(found))


# --- upper-branch classification -------------------------------------------------


def gamma_plus_threshold(params: ModelParams) -> GammaPlusClassification:
    """Classify whether the two upper branches also intersect (D on (2d, 2d+delta]).

    delta = 4*mu*d^2 * max_{t>0} t/((t^2+c_KPP^2)(t+2)); the objective rises
    then falls (its stationarity condition is t^2(t+1) = c_KPP^2) so a
    golden-section search on a doubling bracket finds the peak.  Inside the
    window the crossing speeds come from the two positive roots of
    (D-2d)(t^2+c_KPP^2)(t+2) = 4*mu*d^2*t via c~ = sqrt(t^2 + c_KPP^2).
    """
    _require_normalized(params)
    ck2 = c_kpp(params) ** 2
    d, mu, D = params.d, params.mu, params.D

    def shape(t: float) -> float:
        return t / ((t * t + ck2) * (t + 2.0))

    t_hi = 1.0
    while t_hi * t_hi * (t_hi + 1.0) <= ck2:
        t_hi *= 2.0
    t_peak, peak = _golden_max(shape, 0.0, t_hi, 1e-13 * max(1.0, t_hi))
    delta = 4.0 * mu * d * d * peak
    if not delta < mu * d / params.f_prime_0:
        raise RuntimeError(f"delta={delta} violates its theoretical bound {mu*d/params.f_prime_0}")

    if not (2.0 * d < D <= 2.0 * d + delta):
        return GammaPlusClassification(delta=delta, intersects=False)

    def crossing(t: float) -> float:
        return (D - 2.0 * d) * (t * t + ck2) * (t + 2.0) - 4.0 * mu * d * d * t

    def root(past: Callable[[float], bool], lo: float, hi: float) -> float:
        lo, hi = _bisect_gap(past, lo, hi, 1e-13 * max(1.0, hi))
        return 0.5 * (lo + hi)

    if crossing(t_peak) >= 0.0:
        # at the window's top edge the two roots meet at the peak
        t1 = t2 = t_peak
    else:
        # crossing falls through t1 and rises through t2
        t1 = root(lambda t: crossing(t) <= 0.0, 0.0, t_peak)
        hi = max(2.0 * t_peak, 1.0)
        while crossing(hi) <= 0.0:
            hi *= 2.0
        t2 = root(lambda t: crossing(t) >= 0.0, t_peak, hi)
    return GammaPlusClassification(
        delta=delta,
        intersects=True,
        c_tilde_1=math.sqrt(t1 * t1 + ck2),
        c_tilde_2=math.sqrt(t2 * t2 + ck2),
    )


# --- horizontal strip (field truncated at height L) ------------------------------


def _strip_disc(c: float, beta, L: float, params: ModelParams):
    """Discriminant of the strip road equation, scalar or array b >= 0.

    At b = 0 the ratio num/den is 0/0 and its finite limit 4 mu d D/(L + d)
    stands in.  The indicator ``b <= 0`` (a bool, or a bool array) is the
    0/1 weight that swaps it in: den + 0 = den and r + 0 = r exactly, so
    b > 0 is untouched.
    """
    d, mu, D = params.d, params.mu, params.D
    x = -2.0 * beta * L
    e = np.exp(x)
    num = 4.0 * (1.0 + e) * mu * d * D * beta
    den = -np.expm1(x) + (1.0 + e) * d * beta
    at_zero = beta <= 0.0
    return c * c + (num / (den + at_zero) + at_zero * (4.0 * mu * d * D / (L + d)))


def strip_alpha_road(c: float, beta: float, L: float, params: ModelParams) -> float:
    """Upper road branch when the field is cut off at height L with a zero wall.

    Defined for b > 0 only; lies strictly above alpha_road(c, b, +) and
    converges to it (with all derivatives) as L grows.
    """
    _require_normalized(params)
    if beta <= 0.0:
        raise DomainError(f"strip branch needs beta > 0, got {beta}")
    if L <= 0.0:
        raise DomainError(f"strip height must be positive, got {L}")
    disc = _clamp_roundoff(float(_strip_disc(c, beta, L, params)), c * c)
    if disc < 0.0:
        raise DomainError(f"strip discriminant negative at (c={c}, beta={beta}, L={L})")
    return float(_root(c, disc, 2.0 * params.D))


def _strip_gap_values(c: float, beta, L: float, params: ModelParams):
    """Strip road branch minus lower field branch, scalar or array b >= 0."""
    a_road = _root(c, _strip_disc(c, beta, L, params), 2.0 * params.D)
    return a_road - _lower_field_root(c, beta, params)


def _strip_gap_and_argmax(c: float, L: float, params: ModelParams,
                          coarse: bool = False) -> tuple[float, float]:
    """max over b in (0, beta_kpp(c)] of (strip road branch - lower field branch).

    The b=0 grid point uses the branch's finite one-sided limit, which is
    what decides whether a root above c_KPP survives at this L.
    """

    return _max_gap(lambda b: _strip_gap_values(c, b, L, params), 0.0, beta_kpp(c, params), coarse)


def _strip(params: ModelParams, L: float) -> _Tangency:
    """The strip's tangency system, with the wall's exchange term h(b) = mu d/(d + L g(b L)).

    g(x) = tanh(x)/x is even, so the strip gap is even in b and its max can
    sit at b = 0, where the tangency condition holds identically; Newton
    may end there, or cross it.  Near x = 0 g is its Taylor series.
    """
    mu, d = params.mu, params.d

    def h(b: float) -> tuple[float, float, float]:
        x = b * L
        ax = abs(x)
        if ax < 1e-2:
            # tanh(x)/x = 1 - x^2/3 + 2x^4/15 - 17x^6/315 + O(x^8)
            x2 = x * x
            g = 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0 - 17.0 * x2 * x2 * x2 / 315.0
            g1 = x * (-2.0 / 3.0 + 8.0 * x2 / 15.0 - 34.0 * x2 * x2 / 105.0)
            g2 = -2.0 / 3.0 + 8.0 * x2 / 5.0 - 34.0 * x2 * x2 / 21.0
        else:
            e = math.exp(-2.0 * ax)
            t = -math.expm1(-2.0 * ax) / (1.0 + e)   # tanh(|x|)
            sech2 = 4.0 * e / ((1.0 + e) * (1.0 + e))
            g = t / ax
            g1 = math.copysign(1.0, x) * (sech2 * ax - t) / (ax * ax)
            g2 = -2.0 * t * sech2 / ax - 2.0 * (sech2 * ax - t) / (ax * ax * ax)
        p, p1, p2 = d + L * g, L * L * g1, L * L * L * g2
        return mu * d / p, -mu * d * p1 / (p * p), mu * d * (2.0 * p1 * p1 - p * p2) / (p * p * p)

    return _Tangency(params.D, d, h, -math.inf, even=True)


def strip_critical_speed(params: ModelParams, L: float, tol: float = DEFAULT_TOL) -> SpeedResult:
    """Critical speed of the strip-truncated system; below c* for large L.

    The sign change of the strip gap function on [c_KPP, c_hi], c_hi the
    certified upper end of c*'s bracket, where the gap is always positive
    (the strip branch sits above the half-plane branch).  When L is too
    small the gap is already nonnegative at c_KPP and no threshold above
    c_KPP exists - that raises :class:`NoTangencyError`.  Solved like
    :func:`critical_speed`: certified Newton on the strip's tangency system,
    seeded from the coarse scan and from c*'s tangency point, else the
    bisection midpoint.  The tangency can sit at b = 0 (low strips), where
    the strip gap, even in b, peaks.  The bracket stays inside
    (c_KPP, c_hi], but the threshold lies in (c_KPP, c*) only up to tol:
    once c* - c_L (about e^{-2 beta L}) is below tol, the returned c_L can
    exceed the returned c* by less than tol (D = 28, mu = 2, f'(0) = 5,
    L = 24).
    """
    _require_normalized(params)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if params.D <= 2.0 * params.d:
        raise ValueError("strip threshold is defined for D > 2d only")
    if L <= 0.0:
        raise DomainError(f"strip height must be positive, got {L}")
    return _strip_speed_below(critical_speed(params, tol), params, L, tol)


def _strip_speed_below(full: SpeedResult, params: ModelParams, L: float, tol: float) -> SpeedResult:
    """Strip threshold below an already solved half-plane ``full = c*``.

    Callers that need both speeds solve c* once and pass it here.
    """
    ck = c_kpp(params)
    # the certified upper bracket end of c* has a positive half-plane gap,
    # and the strip gap dominates it, so it is a safe upper bracket even when
    # the strip threshold is within tol of c*
    c_hi = full.bracket[1]
    g_lo, _ = _strip_gap_and_argmax(ck, L, params)
    if g_lo >= 0.0:
        raise NoTangencyError(
            f"strip of height L={L} is too small: its threshold does not exceed c_KPP"
        )
    g_hi, _ = _strip_gap_and_argmax(c_hi, L, params)
    if g_hi <= 0.0:
        raise NoTangencyError(
            f"no sign change of the strip gap on (c_KPP, c*) at L={L}"
        )
    return _tangent_speed(lambda c: _strip_gap_and_argmax(c, L, params)[0],
                          lambda c, coarse=False: _strip_gap_and_argmax(c, L, params, coarse),
                          _strip(params, L), ck, c_hi, tol, params, Branch.ROAD_STRIP_PLUS,
                          seeds=((full.tangency.alpha, full.tangency.beta, full.c_star),))


# --- large-D limit ----------------------------------------------------------------


def _limit_gap_values(c: float, beta, params: ModelParams):
    """Rescaled road branch (the D = 1 form) minus the field parabola, scalar or array b."""
    d, fp0 = params.d, params.f_prime_0
    return _root(c, _road_disc(c, beta, params.mu, d, 1.0), 2.0) - (fp0 + d * beta * beta) / c


def _limit_gap_and_argmax(c: float, params: ModelParams, coarse: bool = False) -> tuple[float, float]:
    """max of (rescaled road branch - field parabola); the road is its D = 1 form."""
    d, mu, fp0 = params.d, params.mu, params.f_prime_0
    lo = -c * c / (d * (c * c + 4.0 * mu))
    road_sup = float(_root(c, c * c + 4.0 * mu, 2.0))
    hi_sq = (c * road_sup - fp0) / d
    hi = math.sqrt(hi_sq) if hi_sq > 0.0 else 0.0
    return _max_gap(lambda b: _limit_gap_values(c, b, params), lo, hi, coarse)


def limit_speed(params: ModelParams, tol: float = DEFAULT_TOL) -> float:
    """Limit of c*(D)/sqrt(D) as the road diffusivity grows without bound.

    After rescaling c and the x-rate by sqrt(D), the field circle flattens
    into the parabola a = (f'(0) + d b^2)/c and the road curve becomes its
    D=1 form; the returned speed is the unique tangency of that pair.  It
    is solved like :func:`critical_speed`: the Newton speed of the system
    with the parabola as its field equation, seeded inside
    [sqrt(low)/2, 2 sqrt(f'(0))] (see :func:`limit_bounds`) and certified
    by a sign change of the limiting gap across a bracket of width <= tol
    around it; when that fails, the gap's sign change is bracketed and
    bisected to width tol and the midpoint returned.  D itself does not
    enter.
    """
    _require_normalized(params)
    if tol <= 0:
        raise ValueError("tol must be positive")

    def gap(c: float) -> float:
        return _limit_gap_and_argmax(c, params)[0]

    # c^2 lies in the proven window, so [sqrt(low)/2, 2 sqrt(f'(0))] holds the speed
    lo_bound, _ = limit_bounds(params)
    # the half-plane system with the road at D = 1 and the field's a^2 term dropped
    system = replace(_half_plane(params), road=1.0, field=0.0)
    newton = _newton_speed(gap, lambda c, coarse=False: _limit_gap_and_argmax(c, params, coarse),
                           system, 0.5 * math.sqrt(lo_bound), 2.0 * math.sqrt(params.f_prime_0),
                           tol, params)
    if newton is not None:
        return newton[0]
    c_lo = 0.5 * math.sqrt(lo_bound)
    for _ in range(200):
        if gap(c_lo) < 0.0:
            break
        c_lo *= 0.5
    else:
        raise BracketError("could not find a speed below the limiting tangency")
    c_hi = 2.0 * math.sqrt(params.f_prime_0)
    while gap(c_hi) <= 0.0:
        c_hi *= 2.0
        if c_hi > 2.0**60:
            raise BracketError("could not find a speed above the limiting tangency")
    c_lo, c_hi = _bisect_gap(gap, c_lo, c_hi, tol)
    return 0.5 * (c_lo + c_hi)


def limit_bounds(params: ModelParams) -> tuple[float, float]:
    """Proven window for the limit of c*^2/D: [sqrt(4*mu^2+f'(0)^2)-2*mu, f'(0)].

    The low end is evaluated as f'(0)^2/(sqrt(4*mu^2+f'(0)^2)+2*mu), the
    algebraically identical form that does not cancel for large mu.
    """
    _require_normalized(params)
    mu, fp0 = params.mu, params.f_prime_0
    low = fp0 * fp0 / (math.sqrt(4.0 * mu * mu + fp0 * fp0) + 2.0 * mu)
    return (low, fp0)
