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
otherwise.

Each speed problem is one ``_Tangency`` system: the road equation
road a^2 - c a = h(b), the field equation field a^2 - c a + f'(0) + d b^2
= 0, and the admissible b interval at each c.  The half-plane has
road = D, field = d and h(b) = mu d b/(1 + d b); the strip swaps in the
exchange term of its wall; the large-D limit has road = 1 and field = 0,
so its field locus is the parabola a = (f'(0) + d b^2)/c.  Everything is
derived from the system once it is built:

- the gap in b, ``_gap`` (upper road root minus lower field root), one
  expression of numpy ufuncs and arithmetic, valid on a float b or on an
  array, so one float evaluation costs microseconds and gives bit for
  bit the matching element of an array evaluation;
- the gap in c, ``_gap_and_argmax``: the gap maximised over the b
  interval by one maximiser, ``_max_gap`` (a dense grid scan, then
  golden-section refinement); it changes sign at the speed;
- the speed, ``_tangent_speed``: Newton's method on the tangency system in
  (a, b, c), the road equation, the field equation and the vanishing of
  their Jacobian determinant in (a, b), which needs h' and h''
  (``slopes``).  The seed bisects a coarse ``SEED_POINTS`` scan of the gap
  to 1 % of the bracket, and on by the same share while Newton finds no
  root from a seed bracket still wide against its speed.  The Newton
  speed is certified: the gap must be <= 0 at the lower end and > 0 at
  the upper end of a bracket of width <= tol around it, which is the
  bracket reported.  When Newton does not converge or the certificate
  fails (e.g. a tol below the float spacing) the gap's sign change is
  bisected to width tol on the bracket Newton was seeded in, and the
  midpoint is reported.

One bisection, ``_bisect_gap``, brackets every root here, including the
crossings in :func:`intersections` and the window speeds in
:func:`gamma_plus_threshold`.  Every branch of the form
(c +/- sqrt(disc))/scale is ``_root``.
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
    if not params.is_normalized:
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
    disc = _clamp_roundoff(_road_disc(_half_plane(params), c, beta), c * c)
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


def _root(c: float, disc, scale: float, s: float = 1.0):
    """Branch (c + s*sqrt(disc))/scale, float or array disc, a negative disc clamped to 0.

    The clamp is the product with the 0/1 indicator ``disc > 0``: on a float
    it costs a multiplication, where ``np.maximum`` costs a ufunc call.  A
    negative disc becomes -0.0, whose square root -0.0 adds like 0.
    """
    return (c + s * np.sqrt(disc * (disc > 0.0))) / scale


def _clamp_roundoff(disc: float, scale: float) -> float:
    # discriminants vanish exactly on the domain boundary; absorb float noise
    # on both sides so boundary evaluations (double roots) come out exact
    if abs(disc) < 1e-13 * max(scale, 1.0):
        return 0.0
    return disc


# --- one tangency system per speed problem ----------------------------------------


@dataclass(frozen=True)
class _Tangency:
    """The loci behind one speed, and the tangency system in (a, b, c) Newton solves.

    road:     road a^2 - c a - h(b) = 0
    field:    field a^2 - c a + f'(0) + d b^2 = 0
    tangency: det d(road, field)/d(a, b) = 0

    ``road`` is D (1 in the large-D limit) and ``field`` is d (0 for the
    limit parabola).  ``h(b)`` is the exchange term, one ufunc-only
    expression valid on a float or an array; ``slopes(b)`` gives h' and h''
    for Newton.  ``b_range(c)`` is the admissible b interval of the gap at
    speed c.  ``ck2`` is 4 field f'(0), written c_KPP^2 = c_kpp(params)**2
    for a circle so the field root is exact at b = 0, c = c_KPP.  Newton
    keeps b above ``b_min``.  An ``even`` system (the strip) has the root
    at -b wherever it has one at b, and reports b >= 0.
    """

    road: float
    field: float
    h: Callable
    slopes: Callable[[float], tuple[float, float]]
    b_range: Callable[[float], tuple[float, float]]
    d: float
    fp0: float
    ck2: float
    b_min: float
    even: bool = False


def _half_plane(params: ModelParams) -> _Tangency:
    """The half-plane's system, h(b) = mu d b/(1 + d b), b > -1/d.

    Its b interval is [max(beta_D(c), -beta_kpp(c)), beta_kpp(c)], where the
    road curve and the field circle both exist.
    """
    d = params.d
    mud = params.mu * d

    def h(b):
        # times the reciprocal: Newton's last rounding sets c*'s final digits
        return mud * b * (1.0 / (1.0 + d * b))

    def slopes(b: float) -> tuple[float, float]:
        w = 1.0 / (1.0 + d * b)
        return mud * w * w, -2.0 * mud * d * w * w * w

    def b_range(c: float) -> tuple[float, float]:
        reach = beta_kpp(c, params)
        return max(beta_D(c, params), -reach), reach

    return _Tangency(params.D, d, h, slopes, b_range, d, params.f_prime_0,
                     c_kpp(params) ** 2, -1.0 / d)


def _road_disc(system: _Tangency, c: float, b):
    """Discriminant c^2 + 4 road h(b) of the system's road equation, float or array b."""
    return c * c + 4.0 * system.road * system.h(b)


def _field_disc(system: _Tangency, c: float, b):
    """Discriminant c^2 - 4 field q of the field equation, 4 field q = c_KPP^2 + 4 field d b^2."""
    return c * c - (system.ck2 + 4.0 * system.field * b * (system.d * b))


def _lower_root(system: _Tangency, c: float, b):
    """Lower field root q/((c + sqrt(disc))/2), q = f'(0) + d b^2, float or array b.

    The product of the two roots over the upper root: the difference form
    (c - sqrt(disc))/(2 field) loses its digits once c is large (large D),
    and this one holds at field = 0, where it is q/c.
    """
    return (system.fp0 + system.d * b * b) / _root(c, _field_disc(system, c, b), 2.0)


def _gap(system: _Tangency, c: float, b):
    """Upper road root minus lower field root at speed c, float or array b."""
    return _root(c, _road_disc(system, c, b), 2.0 * system.road) - _lower_root(system, c, b)


# --- the gap in c: its maximiser and bisection ---------------------------------------


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
    grid = np.linspace(lo, hi, SEED_POINTS if coarse else GRID_POINTS)
    vals = gap(grid)
    k = int(np.argmax(vals))
    if coarse:
        return float(vals[k]), float(grid[k])
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, GRID_POINTS - 1)]
    x, fx = _golden_max(lambda t: float(gap(t)), a, b, BETA_REFINE_TOL)
    if fx >= vals[k]:
        return fx, x
    return float(vals[k]), float(grid[k])


def _gap_and_argmax(system: _Tangency, c: float, coarse: bool = False) -> tuple[float, float]:
    """(max, argmax) of the system's gap over its b interval at speed c."""
    lo, hi = system.b_range(c)
    return _max_gap(lambda b: _gap(system, c, b), lo, hi, coarse)


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
    # the b interval rejects c < c_KPP (beta_kpp)
    return _gap_and_argmax(_half_plane(params), c)[0]


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


# --- the speed: certified Newton, else bisection ---------------------------------------


def _newton_tangency(system: _Tangency, a: float, b: float,
                     c: float) -> tuple[float, float, float] | None:
    """Newton's method on the tangency system from (a, b, c).

    Stops once a step moves c by at most NEWTON_RTOL of c (float resolution
    one quadratic step later).  None after NEWTON_STEPS steps, on a singular
    Jacobian, a non-finite iterate or b <= b_min, or when the root is not on
    the upper road branch and the lower field branch.
    """
    D, k, d, fp0 = system.road, system.field, system.d, system.fp0
    for _ in range(NEWTON_STEPS):
        if not b > system.b_min:
            return None
        h = system.h(b)
        h1, h2 = system.slopes(b)
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


def _newton_speed(system: _Tangency, gap: Callable[[float], float], lo: float, hi: float,
                  tol: float, seeds: tuple[tuple[float, float, float], ...] = ()
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
        s_lo, s_hi = _bisect_gap(lambda c: _gap_and_argmax(system, c, coarse=True)[0], s_lo, s_hi,
                                 SEED_SHARE * (s_hi - s_lo))
        c = 0.5 * (s_lo + s_hi)
        b = _gap_and_argmax(system, c, coarse=True)[1]
        roots = [root for a, b, c in ((float(_lower_root(system, c, b)), b, c), *seeds)
                 if (root := _newton_tangency(system, a, b, c)) is not None]
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


def _tangent_speed(system: _Tangency, gap: Callable[[float], float], lo: float, hi: float,
                   tol: float, seeds: tuple[tuple[float, float, float], ...] = ()
                   ) -> tuple[float, float, tuple[float, float]]:
    """(c, b, bracket) where gap, the system's gap in c, changes sign in [lo, hi].

    Certified Newton on ``system`` inside [lo, hi] first (:func:`_newton_speed`).
    When that fails, gap's sign change is bisected on the same [lo, hi] to
    width tol; the speed is the midpoint and b the maximising b there.
    """
    newton = _newton_speed(system, gap, lo, hi, tol, seeds)
    if newton is not None:
        return newton
    lo, hi = _bisect_gap(gap, lo, hi, tol)
    c = 0.5 * (lo + hi)
    return c, float(_gap_and_argmax(system, c)[1]), (lo, hi)


def _super_threshold(c: float, b: float, bracket: tuple[float, float], tol: float,
                     params: ModelParams, branch: Branch) -> SpeedResult:
    """A speed above c_KPP, its bracket and its tangency point (b, lower field root)."""
    tangency = CurvePoint(beta=b, alpha=alpha_field(c, b, params, "-"), branch=branch)
    return SpeedResult(c_star=c, regime=Regime.SUPER_THRESHOLD, bracket=bracket, tol=tol,
                       tangency=tangency)


# --- critical speed -------------------------------------------------------------


def critical_speed(params: ModelParams, tol: float = DEFAULT_TOL) -> SpeedResult:
    """Asymptotic spreading speed c*(mu, d, D) of the coupled system.

    For D <= 2d (including the degenerate D=0 road) the road cannot outrun
    the field and c* = c_KPP exactly.  For D > 2d the result is the unique
    root of :func:`curve_gap`: the Newton speed of the tangency system,
    seeded inside [c_KPP, c_hi] (c_hi = c_KPP + 2^k, doubled until the
    coarse gap is positive), with a bracket of width <= tol on which
    :func:`curve_gap` changes sign.  When that certificate fails the root
    is bisected on the same [c_KPP, c_hi] and the speed is the bracket
    midpoint.  The returned tangency point records b and the lower field
    branch there.
    """
    _require_normalized(params)
    if not tol > 0:
        raise ValueError("tol must be positive")
    ck = c_kpp(params)
    if params.D <= 2.0 * params.d:
        return SpeedResult(c_star=ck, regime=Regime.SUB_THRESHOLD, bracket=(ck, ck), tol=tol)
    system = _half_plane(params)
    # a positive coarse max is a positive gap, so c_hi is an upper end for both
    hi = ck + 1.0
    while _gap_and_argmax(system, hi, coarse=True)[0] <= 0.0:
        hi = ck + 2.0 * (hi - ck)
        if hi > 2.0**60 * ck:
            raise BracketError(
                f"no curve crossing found up to c={2.0**60 * ck}; parameters are inconsistent"
            )
    return _super_threshold(*_tangent_speed(system, lambda c: curve_gap(c, params), ck, hi, tol),
                            tol, params, Branch.FIELD_MINUS)


# --- crossings at fixed speed ---------------------------------------------------


def _road_residual(system: _Tangency, c: float, b, upper: bool):
    """The road equation road a^2 - c a - h(b) on a field branch a(b), float or array b.

    It vanishes exactly where that field branch crosses either road branch.
    The lower field branch is :func:`_lower_root`, which keeps its digits
    at large c.
    """
    a = (_root(c, _field_disc(system, c, b), 2.0 * system.field) if upper
         else _lower_root(system, c, b))
    return system.road * a * a - c * a - system.h(b)


def intersections(c: float, params: ModelParams) -> IntersectionSet:
    """Locate every crossing of the road curve with the field circle at speed c.

    On each field semicircle, scans the road equation's residual
    (:func:`_road_residual`) for sign changes over ``CROSSING_SCAN_POINTS``
    even nodes of the admissible b interval and refines each by bisection.
    At large D the stretch where the upper road branch clears the lower
    field branch is narrower than the node spacing, so the argmax of
    :func:`curve_gap` also splits its cell when that cell shows no sign
    change of its own.  Points are labelled by the field semicircle they
    lie on.  For D > 2d and c > c* the loci cross at exactly two points.
    For D <= 2d, where c* = c_KPP, they need not cross at all just above
    c* (D = d = mu = 1 at c = 2.25 gives no points).
    """
    _require_normalized(params)
    if params.D <= 0:
        raise DomainError("intersections needs D > 0 (degenerate road has no curve)")
    system = _half_plane(params)
    grid = np.linspace(*system.b_range(c), CROSSING_SCAN_POINTS)
    b_peak = _gap_and_argmax(system, c)[1]
    k_peak = min(max(int(np.searchsorted(grid, b_peak)) - 1, 0), CROSSING_SCAN_POINTS - 2)
    found: list[CurvePoint] = []
    for field_sign, branch in (("+", Branch.FIELD_PLUS), ("-", Branch.FIELD_MINUS)):

        def diff(b, _upper=field_sign == "+"):
            return _road_residual(system, c, b, _upper)

        vals = diff(grid)
        brackets = [(grid[k], grid[k + 1], vals[k], vals[k + 1])
                    for k in np.flatnonzero(vals[:-1] * vals[1:] <= 0.0)]
        k, v_peak = k_peak, float(diff(b_peak))
        if vals[k] * vals[k + 1] > 0.0 and vals[k] * v_peak <= 0.0:
            brackets += [(grid[k], b_peak, vals[k], v_peak),
                         (b_peak, grid[k + 1], v_peak, vals[k + 1])]
        for a, b, va, vb in brackets:
            if va == 0.0 and vb == 0.0:
                continue
            # orient the residual to rise through the bracket; exact zeros
            # count as past the crossing
            s = 1.0 if va < vb else -1.0
            a, b = _bisect_gap(lambda t, s=s: s * float(diff(t)) >= 0.0, float(a), float(b), 0.0)
            beta_root = 0.5 * (a + b)
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


def _strip(params: ModelParams, L: float) -> _Tangency:
    """The strip's system, with the wall's exchange term h(b) = mu d/(d + L g(b L)).

    g(x) = tanh(x)/x is even, so the strip gap is even in b and its max can
    sit at b = 0, where the tangency condition holds identically; Newton
    may end there, or cross it.  The b interval is [0, beta_kpp(c)].  g is
    written with e = exp(-2|x|) as (1 - e)/((1 + e)|x|); at x = 0 that is
    0/0, and the indicator ``|x| <= 0`` (a bool, or a bool array) is the 0/1
    weight that swaps in g(0) = 1: |x| + 0 = |x| and g + 0 = g exactly, so
    x != 0 is untouched.  Near x = 0 the slopes use the Taylor series of g.
    """
    mu, d = params.mu, params.d
    mud = mu * d

    def h(b):
        ax = abs(b) * L
        x = -2.0 * ax
        at_zero = ax <= 0.0
        g = -np.expm1(x) / (1.0 + np.exp(x)) / (ax + at_zero) + at_zero
        return mud / (d + L * g)

    def slopes(b: float) -> tuple[float, float]:
        x = b * L
        ax = abs(x)
        if ax < 1e-2:
            # g'(x) and g''(x) from tanh(x)/x = 1 - x^2/3 + 2x^4/15 - 17x^6/315 + O(x^8)
            x2 = x * x
            g1 = x * (-2.0 / 3.0 + 8.0 * x2 / 15.0 - 34.0 * x2 * x2 / 105.0)
            g2 = -2.0 / 3.0 + 8.0 * x2 / 5.0 - 34.0 * x2 * x2 / 21.0
        else:
            e = math.exp(-2.0 * ax)
            t = -math.expm1(-2.0 * ax) / (1.0 + e)   # tanh(|x|)
            sech2 = 4.0 * e / ((1.0 + e) * (1.0 + e))
            g1 = math.copysign(1.0, x) * (sech2 * ax - t) / (ax * ax)
            g2 = -2.0 * t * sech2 / ax - 2.0 * (sech2 * ax - t) / (ax * ax * ax)
        # h = mu d/p, p = d + L g: h' = -h r p' and h'' = h r (2 r p'^2 - p''), r = 1/p = h/(mu d)
        hb = float(h(b))
        r, p1, p2 = hb / mud, L * L * g1, L * L * L * g2
        return -hb * r * p1, hb * r * (2.0 * r * p1 * p1 - p2)

    return replace(_half_plane(params), h=h, slopes=slopes,
                   b_range=lambda c: (0.0, beta_kpp(c, params)), b_min=-math.inf, even=True)


def strip_alpha_road(c: float, beta: float, L: float, params: ModelParams) -> float:
    """Upper road branch when the field is cut off at height L with a zero wall.

    Defined for b > 0 only; lies strictly above alpha_road(c, b, +) and
    converges to it (with all derivatives) as L grows.
    """
    _require_normalized(params)
    if beta <= 0.0:
        raise DomainError(f"strip branch needs beta > 0, got {beta}")
    if not 0.0 < L < math.inf:
        raise DomainError(f"strip height must be positive and finite, got {L}")
    # h > 0, so the discriminant is at least c^2: no clamp, no domain edge
    return float(_root(c, _road_disc(_strip(params, L), c, beta), 2.0 * params.D))


def strip_critical_speed(params: ModelParams, L: float, tol: float = DEFAULT_TOL,
                         full: SpeedResult | None = None) -> SpeedResult:
    """Critical speed of the strip-truncated system; below c* for large L.

    The sign change of the strip gap function on [c_KPP, c_hi], c_hi the
    certified upper end of c*'s bracket, where the gap is always positive
    (the strip branch sits above the half-plane branch).  ``full`` is c*
    at the same tol when the caller has solved it already; otherwise it is
    solved here.  When L is too small the gap is already nonnegative at
    c_KPP and no threshold above c_KPP exists - that raises
    :class:`NoTangencyError`.  Solved like :func:`critical_speed`:
    certified Newton on the strip's tangency system, seeded from the
    coarse scan and from c*'s tangency point, else the bisection midpoint.
    The tangency can sit at b = 0 (low strips), where the strip gap, even
    in b, peaks.  The bracket stays inside (c_KPP, c_hi], but the threshold
    lies in (c_KPP, c*) only up to tol: once c* - c_L (about e^{-2 beta L})
    is below tol, the returned c_L can exceed the returned c* by less than
    tol (D = 28, mu = 2, f'(0) = 5, L = 24).
    """
    _require_normalized(params)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if params.D <= 2.0 * params.d:
        raise DomainError("strip threshold is defined for D > 2d only")
    if not 0.0 < L < math.inf:
        raise DomainError(f"strip height must be positive and finite, got {L}")
    if full is None:
        full = critical_speed(params, tol)
    system = _strip(params, L)
    ck = c_kpp(params)
    # the certified upper bracket end of c* has a positive half-plane gap,
    # and the strip gap dominates it, so it is a safe upper bracket even when
    # the strip threshold is within tol of c*
    c_hi = full.bracket[1]
    if _gap_and_argmax(system, ck)[0] >= 0.0:
        raise NoTangencyError(
            f"strip of height L={L} is too small: its threshold does not exceed c_KPP"
        )
    if _gap_and_argmax(system, c_hi)[0] <= 0.0:
        raise NoTangencyError(
            f"no sign change of the strip gap on (c_KPP, c*) at L={L}"
        )
    seed = (full.tangency.alpha, full.tangency.beta, full.c_star)
    return _super_threshold(*_tangent_speed(system, lambda c: _gap_and_argmax(system, c)[0], ck,
                                            c_hi, tol, (seed,)),
                            tol, params, Branch.ROAD_STRIP_PLUS)


# --- large-D limit ----------------------------------------------------------------


def _limit(params: ModelParams) -> _Tangency:
    """The large-D limit's system: the half-plane's with road = 1 and field = 0.

    Its b interval runs from the road curve's left end to where the
    parabola passes the road's supremum (c + sqrt(c^2 + 4 mu))/2, beyond
    which the gap is negative.
    """
    mu, d, fp0 = params.mu, params.d, params.f_prime_0

    def b_range(c: float) -> tuple[float, float]:
        road_sup = (c + math.sqrt(c * c + 4.0 * mu)) / 2.0
        return -c * c / (d * (c * c + 4.0 * mu)), math.sqrt(max((c * road_sup - fp0) / d, 0.0))

    return replace(_half_plane(params), road=1.0, field=0.0, ck2=0.0, b_range=b_range)


def limit_speed(params: ModelParams, tol: float = DEFAULT_TOL) -> float:
    """Limit of c*(D)/sqrt(D) as the road diffusivity grows without bound.

    After rescaling c and the x-rate by sqrt(D), the field circle flattens
    into the parabola a = (f'(0) + d b^2)/c and the road curve becomes its
    D=1 form; the returned speed is the unique tangency of that pair.  It
    is solved like :func:`critical_speed`, on the half-plane system with
    road = 1 and field = 0: the Newton speed, seeded inside
    [sqrt(low)/2, 2 sqrt(f'(0))] (see :func:`limit_bounds`; c^2 lies in
    [low, f'(0)], so each end has a factor-2 margin) and certified by a
    sign change of the limiting gap across a bracket of width <= tol
    around it; when that fails, the gap's sign change is bisected on the
    same interval to width tol and the midpoint returned.  D itself does
    not enter.
    """
    _require_normalized(params)
    if not tol > 0:
        raise ValueError("tol must be positive")
    system = _limit(params)
    lo_bound, _ = limit_bounds(params)
    return _tangent_speed(system, lambda c: _gap_and_argmax(system, c)[0],
                          0.5 * math.sqrt(lo_bound), 2.0 * math.sqrt(params.f_prime_0), tol)[0]


def limit_bounds(params: ModelParams) -> tuple[float, float]:
    """Proven window for the limit of c*^2/D: [sqrt(4*mu^2+f'(0)^2)-2*mu, f'(0)].

    The low end is evaluated as f'(0)^2/(sqrt(4*mu^2+f'(0)^2)+2*mu), the
    algebraically identical form that does not cancel for large mu.
    """
    _require_normalized(params)
    mu, fp0 = params.mu, params.f_prime_0
    low = fp0 * fp0 / (math.sqrt(4.0 * mu * mu + fp0 * fp0) + 2.0 * mu)
    return (low, fp0)
