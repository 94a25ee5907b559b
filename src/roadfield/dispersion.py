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
road a^2 - c a = h(b), the field equation field a^2 - c a + q(b) = 0 with
q = f'(0) + d b^2, and the admissible b interval at each c.  The
half-plane has road = D, field = d and h(b) = mu d b/(1 + d b); the strip
swaps in the exchange term of its wall; the large-D limit has road = 1 and
field = 0, so its field locus is the parabola a = q/c.  Everything is
derived from the system once it is built:

- the crossing curve c(b).  Subtracting the field equation from the road
  equation cancels c a, so each b >= 0 has exactly one crossing of the
  loci, at the speed c(b) = (road q + field h)/sqrt((road - field)(h + q)),
  and every speed here (c*, the strip threshold, the large-D limit) is
  min_b c(b): the speed at which the loci first touch;
- the gap in b, ``_gap`` (upper road root minus lower field root), one
  expression of numpy ufuncs and arithmetic, valid on a float b or on an
  array, so one float evaluation costs microseconds and gives bit for
  bit the matching element of an array evaluation;
- the gap in c, ``_gap_and_argmax``: the gap maximised over the b
  interval by one golden section, ``_golden_max``, which stops once its
  two interior values tie, and one evaluation at the interval's left end;
  it changes sign at the speed.  Every system's gap is unimodal in b (the
  half-plane's and the limit's are concave in b, the strip's in b^2), so
  the section runs over the whole interval, with no grid scan;
- the speed, ``_tangent_speed``, one function that minimises c(b),
  certifies and falls back, taking the gap in c from the system itself
  (``critical_speed`` certifies through the public :func:`curve_gap`,
  which is the half-plane system's gap).  c(0) bounds the speed, so one
  golden section of -c(b) over [0, end of the b interval at c(0)], and
  the end b = 0, bracket the minimiser; a 1-D Newton iteration on the
  stationarity condition phi(b) = 2 N' S - N S' = 0 (N = road q + field h,
  S = h + q; h' and h'' from ``slopes``) refines it to float resolution
  in b, and c is evaluated once there.  At D = 4, d = mu = f'(0) = 1
  that is 37 values of c(b), 2 of the gap, 2 Newton steps and about
  180 us per c*, against about 450 us for the solve it replaced (README,
  "Speed solvers").  The speed is certified: the gap must be <= 0 at the
  lower end and > 0 at the upper end of a bracket of width <= tol around
  it, which is the bracket reported.  When Newton does not converge or the certificate
  fails (e.g. a tol below the float spacing) the gap's sign change is
  bisected to width tol on the search bracket, and the midpoint is
  reported.  ``SpeedResult`` carries the count of c(b) and gap values,
  the Newton steps and whether the fallback ran.

One bisection, ``_bisect_gap``, brackets every root here, including the
crossings in :func:`intersections` and the peak and the two speeds of the
window in :func:`gamma_plus_threshold`, and one doubling, ``_expand``,
finds every upper bracket end.  A bisection stops at its width in c or at
float resolution (the crossings and the window's roots have width 0, and
the window's peak a closed-form bracket), the golden section once its
interior values tie or at float resolution, and a bracket search that
cannot grow raises :class:`BracketError`.  No search in b has a width of
its own: with nu = 1 the map (D, d, mu, f'(0)) -> (D/s, d/s, s mu,
s f'(0)) multiplies a and b by s and keeps c, and for s = 2^k, |k| <= 60,
c*, the strip threshold at height L/s and the large-D limit over sqrt(s)
keep their value to 2 ulps, and the crossings at a speed their number.
Every branch of the form (c +/- sqrt(disc))/scale is ``_root``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial, reduce
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

CROSSING_SCAN_POINTS = 4096  # scan of each branch pair in intersections
DEFAULT_TOL = 1e-8          # width in c of a certified bracket
NEWTON_STEPS = 30           # Newton gives up after this many steps
NEWTON_RTOL = 1e-14         # converged once a step moves b by at most this share of max(b, 1/d)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# (sinh 2x - 2x)/x^3 = sum over k >= 1 of 2^(2k+1) x^(2k-2)/(2k+1)!, highest power first;
# at x = 1 the first term left out is 1e-20 of the sum
_SINH_SERIES = tuple(2.0 ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(12, 0, -1))


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
    """Critical speed with the bracketing interval that certified it.

    The solver's statistics: ``evaluations`` counts the values of the
    crossing curve c(b) and of the gap in c it took, ``newton_steps`` the
    steps of its Newton iteration, and ``fell_back`` is True when the speed
    is the bisection midpoint instead of the certified Newton speed.  All
    three stay at their defaults for c* = c_KPP, which needs no solve.
    """

    c_star: float
    regime: Regime
    bracket: tuple[float, float]
    tol: float
    tangency: CurvePoint | None = None
    evaluations: int = 0
    newton_steps: int = 0
    fell_back: bool = False


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
    negative disc becomes -0.0, whose square root -0.0 adds like 0.  A float
    disc (an np.float64 is one) takes ``math.sqrt``, so the root and what the
    caller does with it stay Python floats, several times faster than numpy
    scalars; both square roots are correctly rounded, so the bits agree.
    """
    clamped = disc * (disc > 0.0)
    sqrt = math.sqrt if isinstance(clamped, float) else np.sqrt
    return (c + s * sqrt(clamped)) / scale


def _clamp_roundoff(disc: float, scale: float) -> float:
    # discriminants vanish exactly on the domain boundary; absorb float noise
    # on both sides so boundary evaluations (double roots) come out exact.
    # The width is relative to scale = c^2, the size of the discriminant's terms
    if abs(disc) < 1e-13 * scale:
        return 0.0
    return disc


# --- one tangency system per speed problem ----------------------------------------


@dataclass(frozen=True)
class _Tangency:
    """The loci behind one speed and their crossing curve c(b).

    road:  road a^2 - c a - h(b) = 0
    field: field a^2 - c a + q(b) = 0,   q = f'(0) + d b^2

    ``road`` is D (1 in the large-D limit) and ``field`` is d (0 for the
    limit parabola).  ``h(b)`` is the exchange term, one ufunc-only
    expression valid on a float or an array; ``slopes(b)`` gives h' and h''
    for Newton.  ``b_range(c)`` is the admissible b interval of the gap at
    speed c.  ``ck2`` is 4 field f'(0), written c_KPP * c_KPP for a circle
    so the field root is exact at b = 0, c = c_KPP (inf, not an
    OverflowError, once c_KPP passes 1.3e154).

    Subtracting the field equation from the road equation cancels c a:
    (road - field) a^2 = S, S = h + q.  So each b >= 0 (where h >= 0 and
    S > 0) has exactly one crossing of the loci, at a = sqrt(S/(road -
    field)) and the speed c(b) = N/sqrt((road - field) S), N = road q +
    field h; ``crossing`` writes it (field a^2 + q)/a, the field equation
    solved for c, which is N/((road - field) a) as N = (road - field)
    (q + field a^2).  The speed is the
    minimum of c(b), where N^2/S is stationary: ``stationarity`` gives
    phi = 2 N' S - N S' and its derivative for Newton.
    """

    road: float
    field: float
    h: Callable
    slopes: Callable[[float], tuple[float, float]]
    b_range: Callable[[float], tuple[float, float]]
    d: float
    fp0: float
    ck2: float

    def crossing(self, b: float) -> float:
        """c(b), the speed of the loci's one crossing at b >= 0, from the field equation."""
        q = self.fp0 + self.d * b * b
        a2 = (float(self.h(b)) + q) / (self.road - self.field)
        return (self.field * a2 + q) / math.sqrt(a2)

    def stationarity(self, b: float) -> tuple[float, float]:
        """(phi, phi') at b, phi = 2 N' S - N S', phi' = 2 N'' S + N' S' - N S''."""
        road, field, d = self.road, self.field, self.d
        h, (h1, h2), q = float(self.h(b)), self.slopes(b), self.fp0 + d * b * b
        n, n1 = road * q + field * h, 2.0 * road * d * b + field * h1
        n2 = 2.0 * road * d + field * h2
        s, s1, s2 = h + q, h1 + 2.0 * d * b, h2 + 2.0 * d
        return 2.0 * n1 * s - n * s1, 2.0 * n2 * s + n1 * s1 - n * s2


def _half_plane(params: ModelParams) -> _Tangency:
    """The half-plane's system, h(b) = mu d b/(1 + d b), b > -1/d.

    Its b interval is [max(beta_D(c), -beta_kpp(c)), beta_kpp(c)], where the
    road curve and the field circle both exist, cut where 1 + d b = 2^-50:
    beta_D rounds onto the pole b = -1/d of h once mu/f'(0) or f'(0)/mu
    passes about 1e17 (D = 4d), and the gap would divide by zero there.
    """
    d, ck = params.d, c_kpp(params)
    mu = params.mu
    floor = (2.0**-50 - 1.0) / d

    def h(b):
        # mu times a ratio of at most 1 on b >= 0: no intermediate overflows
        return mu * (d * b / (1.0 + d * b))

    def slopes(b: float) -> tuple[float, float]:
        w = 1.0 / (1.0 + d * b)
        return mu * d * w * w, -2.0 * mu * d * d * w * w * w

    def b_range(c: float) -> tuple[float, float]:
        reach = beta_kpp(c, params)
        return max(beta_D(c, params), -reach, floor), reach

    return _Tangency(params.D, d, h, slopes, b_range, d, params.f_prime_0, ck * ck)


def _road_disc(system: _Tangency, c: float, b):
    """Discriminant c^2 + 4 road h(b) of the system's road equation, float or array b."""
    return c * c + 4.0 * system.road * system.h(b)


def _field_disc(system: _Tangency, c: float, b):
    """Discriminant c^2 - 4 field q of the field equation, 4 field q = c_KPP^2 + 4 field d b^2."""
    return c * c - (system.ck2 + 4.0 * system.field * b * (system.d * b))


def _lower_root(system: _Tangency, c: float, b):
    """Lower field root q/((c + sqrt(disc))/2), q = f'(0) + d b^2, float or array b.

    The product of the two roots over the upper root: the difference form
    (c - sqrt(disc))/(2 field) loses its digits once c is large (large D).
    On the limit parabola (field = 0) the upper root is c itself, so the
    root is q/c with no discriminant built; c is a numpy scalar there, so
    c = 0 (a limit bracket whose lower end underflowed) gives the gap -inf,
    as the circle's root did, not a ZeroDivisionError.
    """
    upper = np.float64(c) if system.field == 0.0 else _root(c, _field_disc(system, c, b), 2.0)
    return (system.fp0 + system.d * b * b) / upper


def _gap(system: _Tangency, c: float, b):
    """Upper road root minus lower field root at speed c, float or array b."""
    return _root(c, _road_disc(system, c, b), 2.0 * system.road) - _lower_root(system, c, b)


# --- the gap in c: its maximiser and bisection ---------------------------------------


def _golden_max(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Golden-section maximisation of a unimodal f on [a, b]: (argmax, max).

    Every system's gap is unimodal in b, a theorem.  On the b interval both
    discriminants are >= 0, and the upper road root
    (c + sqrt(c^2 + 4 road h))/(2 road) is concave and increasing in h.
    Half-plane and limit: h(b) = mu d b/(1 + d b) is concave and increasing,
    so the road root is concave in b; the lower field root, the circle's
    lower arc or the parabola (f'(0) + d b^2)/c, is convex; so the gap is
    concave in b.  Strip: h = mu d/P with P = d + L g(b L), g(x) = tanh(x)/x.
    With t = (b L)^2, g = sum_k 2/(t + (k - 1/2)^2 pi^2) is convex in t,
    and 1/g = x coth(x) = 1 + sum_k 2t/(t + k^2 pi^2) is concave in t, so
    g g'' >= 2 g'^2.  As d > 0 and g'' >= 0, P P'' >= L^2 g g'' >= 2 P'^2,
    so h is concave in t, hence in s = b^2.  The road root is then concave
    in s, and the lower field root (c - sqrt(c^2 - c_KPP^2 - 4 d^2 s))/(2d)
    is convex in s; so the gap is concave in s on [0, beta_kpp(c)^2], and
    as s = b^2 increases on b >= 0 it is unimodal on [0, beta_kpp(c)].
    Its max often sits at the end b = 0, which the section never evaluates;
    ``_gap_and_argmax`` checks that end.  The section also finds the
    minimum of each system's crossing curve c(b) on [0, top], as the max of
    -c(b); that curve's unimodality is measured (20,001 nodes on 300 seeded
    sets), not proved, and the certificate of ``_tangent_speed`` checks
    every minimum it gives.

    The section learns only from the comparison f1 < f2 of its two interior
    values, so it stops once they are equal: the peak of a unimodal f then
    lies between them, and further steps would follow the rounding of f,
    not its shape.  On a smooth peak of height f* that happens at a width of
    about sqrt(eps |f*/f''|), which has no scale of its own: [a, b] and f
    scaled by powers of two take the same steps.  Otherwise it stops at
    float resolution, when a golden point rounds onto an end; each step
    moves an end strictly inward, so it ends on any f, nan included.  A flat
    peak at b = 0 (the strip's) ends by the first rule; a peak of height
    exactly 0 never ties and runs to float resolution at 0, through the
    subnormals.
    """
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while f1 != f2 and a < x1 and x2 < b:
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


def _gap_and_argmax(system: _Tangency, c: float) -> tuple[float, float]:
    """(max, argmax) of the system's gap over its b interval [lo, hi] at speed c.

    The gap is unimodal in b on every system (``_golden_max``), so the max
    is one golden section over [lo, hi], or the value at lo when that is
    higher: the strip's max often sits at b = lo = 0, which the section
    never evaluates, and just above c_KPP a rounding tie can stop it short
    of that end.  An empty interval (hi <= lo) gives the value at lo.
    """
    lo, hi = system.b_range(c)
    if hi <= lo:
        return float(_gap(system, c, lo)), lo
    x, fx = _golden_max(lambda t: float(_gap(system, c, t)), lo, hi)
    f_lo = float(_gap(system, c, lo))
    return (f_lo, lo) if f_lo > fx else (fx, x)


def curve_gap(c: float, params: ModelParams) -> float:
    """Signed clearance between the upper road branch and the lower field branch.

    G(c) = max over admissible b of (alpha_road(c,b,+) - alpha_field(c,b,-)),
    with b ranging over [max(beta_D(c), -beta_kpp(c)), beta_kpp(c)].
    G(c) >= 0 exactly when the two loci intersect, and G is strictly
    increasing in c, so the critical speed is its unique sign change.  The
    difference is concave in b, so one golden section over the interval
    finds its max, with no grid scan.
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


def _expand(past: Callable[[float], bool], base: float, x: float, what: str) -> float:
    """The first of x, base + 2(x - base), base + 4(x - base), ... at which ``past`` holds.

    ``past`` is the positive test (gap > 0), so a nan ends no search.
    Raises :class:`BracketError` naming ``what`` once the step x - base is
    not a finite positive number (x rounds onto base, or base overflowed)
    or passes 2^60 max(1, |base|).
    """
    while 0.0 < x - base <= 2.0**60 * max(1.0, abs(base)):
        if past(x):
            return x
        x = base + 2.0 * (x - base)
    raise BracketError(f"no bracket for {what} above {base}: the step reached {x - base}")


# --- the speed: the crossing curve's minimum, certified, else bisection -------------------


def _newton_stationary(system: _Tangency, b: float, top: float) -> tuple[float, int]:
    """(b, steps): Newton's method on phi(b) = 0 from b, each iterate clamped to [0, top].

    Stops once a step moves b by at most NEWTON_RTOL of max(b, 1/d), one
    quadratic step past float resolution; b = 1/d is the scale of the
    exchange term.  A zero phi ends it where it is (the strip's b = 0).  b
    is nan after NEWTON_STEPS steps (a nan iterate never converges), so its
    speed c(b) is nan and fails the certificate.
    """
    scale = 1.0 / system.d
    for step in range(1, NEWTON_STEPS + 1):
        phi, slope = system.stationarity(b)
        moved = min(max(b - phi / slope, 0.0), top) if slope else (math.nan if phi else b)
        if abs(moved - b) <= NEWTON_RTOL * max(moved, scale):
            return moved, step
        b = moved
    return math.nan, NEWTON_STEPS


def _crossing_minimum(system: _Tangency, lo: float,
                      crossing: Callable[[float], float]) -> tuple[float, float, int]:
    """(b*, c(b*), Newton steps): the minimum of the crossing curve ``crossing`` over b >= 0.

    c(0) bounds the minimum, so the minimiser lies in [0, top], top the end
    of the b interval at the speed c(0) (raised to lo, the lowest speed,
    against rounding).  One golden section of -c(b) over [0, top], the end
    b = 0 when it is at least as low (the low strip's minimum), then Newton
    on phi from there (``_newton_stationary``) and one evaluation of c.
    """
    c0 = crossing(0.0)
    top = system.b_range(max(c0, lo))[1]
    b, c_b = _golden_max(lambda t: -crossing(t), 0.0, top)
    if c0 <= -c_b:
        b = 0.0
    b, steps = _newton_stationary(system, b, top)
    return b, crossing(b), steps


def _tangent_speed(system: _Tangency, lo: float, hi: float, tol: float,
                   gap: Callable[[float], float] | None = None
                   ) -> tuple[float, float, tuple[float, float], dict]:
    """(c, b, bracket, statistics) for the speed in [lo, hi].

    The speed is the minimum of the system's crossing curve c(b)
    (``_crossing_minimum``), clamped to [lo, hi].  The gap in c changes
    sign at the speed, and only that is certified: a bracket of width <=
    tol around c, inside [lo, hi], with gap <= 0 at its lower end and
    gap > 0 at its upper end.  When the certificate fails (Newton did not
    converge, or a tol below the float spacing), the gap's sign change is
    bisected on [lo, hi] to width tol; the speed is the
    midpoint and b the maximising b there.  The certificate and the
    fallback evaluate ``gap``, the system's own gap in c when None; it
    must equal ``_gap_and_argmax(system, c)[0]``.  The statistics are the
    keywords ``evaluations``, ``newton_steps`` and ``fell_back`` of
    :class:`SpeedResult`.
    """
    seen = []  # every argument of c(b) and of the gap

    def counted(f: Callable[[float], float]) -> Callable[[float], float]:
        return lambda x: seen.append(x) or f(x)

    gap = counted(gap or (lambda c: _gap_and_argmax(system, c)[0]))
    b, c, steps = _crossing_minimum(system, lo, counted(system.crossing))
    # [lo, hi] holds the speed: a c(b*) that rounds past an end (c* within
    # rounding of c_KPP, just above D = 2d or at a huge mu) is that end
    c = min(max(c, lo), hi)
    c_lo, c_hi = max(c - 0.5 * tol, lo), min(c + 0.5 * tol, hi)
    while c_hi - c_lo > tol:
        # c +/- tol/2 rounds outward by at most an ulp or two
        c_hi = math.nextafter(c_hi, -math.inf)
    if c_lo <= c <= c_hi and gap(c_lo) <= 0.0 < gap(c_hi):
        return c, b, (c_lo, c_hi), dict(evaluations=len(seen), newton_steps=steps, fell_back=False)
    lo, hi = _bisect_gap(gap, lo, hi, tol)
    c = 0.5 * (lo + hi)
    return (c, float(_gap_and_argmax(system, c)[1]), (lo, hi),
            dict(evaluations=len(seen), newton_steps=steps, fell_back=True))


def _super_threshold(c: float, b: float, bracket: tuple[float, float], stats: dict,
                     tol: float, params: ModelParams, branch: Branch) -> SpeedResult:
    """A speed above c_KPP: its bracket, tangency point (b, lower field root) and statistics."""
    tangency = CurvePoint(beta=b, alpha=alpha_field(c, b, params, "-"), branch=branch)
    return SpeedResult(c_star=c, regime=Regime.SUPER_THRESHOLD, bracket=bracket, tol=tol,
                       tangency=tangency, **stats)


# --- critical speed -------------------------------------------------------------


def critical_speed(params: ModelParams, tol: float = DEFAULT_TOL) -> SpeedResult:
    """Asymptotic spreading speed c*(mu, d, D) of the coupled system.

    For D <= 2d (including the degenerate D=0 road) the road cannot outrun
    the field and c* = c_KPP exactly.  For D > 2d the result is the unique
    root of :func:`curve_gap`: the minimum of the half-plane's crossing
    curve c(b), with a bracket of width <= tol inside [c_KPP, c_hi] on
    which :func:`curve_gap` changes sign, c_hi = c_KPP + 2^k max(1, 2^-20
    c_KPP) doubled past c(0) = D sqrt(f'(0)/(D - d)), the speed of the
    crossing at b = 0, which bounds c*.  When that certificate fails the
    root is bisected on [c_KPP, c_hi] and the speed is the bracket
    midpoint.  The returned tangency point records b and the lower field
    branch there.  Just above D = 2d, where c* - c_KPP is about
    c_KPP (D - 2d)^2/(8 d^2), c* can round onto c_KPP.  When the doubling
    step cannot grow, or c_hi^2 overflows (c_KPP past 1.3e154), it raises
    :class:`BracketError`.
    """
    _require_normalized(params)
    if not tol > 0:
        raise ValueError("tol must be positive")
    ck = c_kpp(params)
    if params.D <= 2.0 * params.d:
        return SpeedResult(c_star=ck, regime=Regime.SUB_THRESHOLD, bracket=(ck, ck), tol=tol)
    system = _half_plane(params)
    # a first step of 1 rounds onto c_KPP past 2^53; below 2^20 the step is 1
    first = ck + max(1.0, 2.0**-20 * ck)
    # the crossing at b = 0 bounds c*, so the gap is positive past it, where
    # c^2 is finite (past 1.3e154 every gap is nan)
    c_up = system.crossing(0.0)
    hi = _expand(lambda c: c > c_up and c * c < math.inf, ck, first, "c*")
    # the public curve_gap is the half-plane's gap: the certificate is its sign change
    speed = _tangent_speed(system, ck, hi, tol, gap=partial(curve_gap, params=params))
    return _super_threshold(*speed, tol, params, Branch.FIELD_MINUS)


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

    On each field semicircle, evaluates the road equation's residual
    (:func:`_road_residual`) on ``CROSSING_SCAN_POINTS`` even nodes of the
    admissible b interval plus the argmax of :func:`curve_gap`: at large D
    the stretch where the upper road branch clears the lower field branch
    is narrower than the node spacing, and the argmax sits inside it.  A
    node where the residual is exactly 0 is a crossing, and a cell whose
    ends have strictly opposite signs holds one, bisected to adjacent
    floats; so each crossing is found once, with no width to merge by.
    Points are labelled by the field semicircle they lie on.  For D > 2d
    and c > c* the loci cross at exactly two points.  For D <= 2d, where
    c* = c_KPP, they need not cross at all just above c* (D = d = mu = 1 at
    c = 2.25 gives no points).
    """
    _require_normalized(params)
    if params.D <= 0:
        raise DomainError("intersections needs D > 0 (degenerate road has no curve)")
    system = _half_plane(params)
    grid = np.linspace(*system.b_range(c), CROSSING_SCAN_POINTS)
    b_peak = _gap_and_argmax(system, c)[1]
    nodes = np.insert(grid, np.searchsorted(grid, b_peak), b_peak)
    found: list[CurvePoint] = []
    for field_sign, branch in (("+", Branch.FIELD_PLUS), ("-", Branch.FIELD_MINUS)):

        def diff(b, _upper=field_sign == "+"):
            return _road_residual(system, c, b, _upper)

        signs = np.sign(diff(nodes))
        # a node can repeat (the argmax on a grid node): the set counts its zero once
        roots = list({float(b) for b in nodes[signs == 0.0]})
        for k in np.flatnonzero(signs[:-1] * signs[1:] < 0.0):
            # the residual has the sign s past the crossing; zeros count as past it
            s = float(signs[k + 1])
            a, b = _bisect_gap(lambda t: s * float(diff(t)) >= 0.0, float(nodes[k]),
                               float(nodes[k + 1]), 0.0)
            roots.append(0.5 * (a + b))
        found += [CurvePoint(beta=b, alpha=alpha_field(c, b, params, field_sign), branch=branch)
                  for b in roots]
    found.sort(key=lambda p: p.beta)
    return IntersectionSet(c=c, points=tuple(found))


# --- upper-branch classification -------------------------------------------------


def gamma_plus_threshold(params: ModelParams) -> GammaPlusClassification:
    """Classify whether the two upper branches also intersect (D on (2d, 2d+delta]).

    delta = 4*mu*d^2 * max_{t>0} t/((t^2+c_KPP^2)(t+2)); the objective rises
    then falls, and its peak t* solves t^2(t+1) = c_KPP^2, whose left side
    already exceeds c_KPP^2 at t = max(c_KPP, c_KPP^(2/3)).  With c_KPP^2 =
    4 d f'(0), delta is (mu d/f'(0)) r, r = c_KPP^2 t*/((t*^2+c_KPP^2)(t*+2));
    r <= 1 in floats too, so delta never passes its bound mu d/f'(0) and
    meets it once r rounds to 1 (c_KPP past about 1e24).  Inside the window
    the crossing speeds come from the two positive roots t1 <= t* <= t2 of
    (D-2d)(t^2+c_KPP^2)(t+2) = 4*mu*d^2*t via c~ = sqrt(t^2 + c_KPP^2).
    Each of t*, t1 and t2 is bisected to float resolution, on
    [0, max(c_KPP, c_KPP^(2/3))], [0, t*] and a bracket doubled from t*, so
    no width or start of its own enters.  A c_KPP^2 that overflows raises
    :class:`BracketError`.
    """
    _require_normalized(params)
    ck = c_kpp(params)
    ck2 = ck * ck
    d, mu, D = params.d, params.mu, params.D
    if not math.isfinite(ck2):
        raise BracketError(f"no bracket for the window's peak: c_KPP^2 overflows at c_KPP = {ck}")

    def root(past: Callable[[float], bool], lo: float, hi: float) -> float:
        lo, hi = _bisect_gap(past, lo, hi, 0.0)
        return 0.5 * (lo + hi)

    t_peak = root(lambda t: t * t * (t + 1.0) > ck2, 0.0, max(ck, ck ** (2.0 / 3.0)))
    bound = mu * d / params.f_prime_0
    delta = bound * (ck2 * t_peak / ((t_peak * t_peak + ck2) * (t_peak + 2.0)))
    if not delta <= bound:
        raise RuntimeError(f"delta={delta} violates its theoretical bound {bound}")

    if not (2.0 * d < D <= 2.0 * d + delta):
        return GammaPlusClassification(delta=delta, intersects=False)

    def crossing(t: float) -> float:
        return (D - 2.0 * d) * (t * t + ck2) * (t + 2.0) - 4.0 * mu * d * d * t

    if crossing(t_peak) >= 0.0:
        # at the window's top edge the two roots meet at the peak
        t1 = t2 = t_peak
    else:
        # crossing falls through t1 and rises through t2
        t1 = root(lambda t: crossing(t) <= 0.0, 0.0, t_peak)
        hi = _expand(lambda t: crossing(t) > 0.0, t_peak, 2.0 * t_peak, "the window's top")
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

    g(x) = tanh(x)/x is even, so the strip gap and the crossing curve are
    even in b: the gap's max and the curve's min can sit at b = 0, where
    phi vanishes identically, and Newton ends there.  The b interval is
    [0, beta_kpp(c)], and Newton keeps b inside it.  g is
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
        # with x = b L >= 0 and e = exp(-2x): tanh x = (1 - e)/(1 + e), sech^2 x =
        # 4e w, w = 1/(1 + e)^2, and tanh x - x sech^2 x = x^3 core w, so
        # g' = -x core w and g'' = 2 core w - 8 g e w; core = (1 - e^2 - 4 x e)/x^3
        # cancels below x = 1, where it is 2e (sinh 2x - 2x)/x^3, summed in x^2
        x = b * L
        e = math.exp(-2.0 * x)
        if x < 1.0:
            core = 2.0 * e * reduce(lambda total, k: total * x * x + k, _SINH_SERIES, 0.0)
        else:
            core = (1.0 - e * e - 4.0 * x * e) / (x * x * x)
        w = 1.0 / ((1.0 + e) * (1.0 + e))
        g = -math.expm1(-2.0 * x) / ((1.0 + e) * x) if x else 1.0
        g1, g2 = -x * core * w, 2.0 * core * w - 8.0 * g * e * w
        # h = mu d r, r = 1/p, p = d + L g: h' = -mu d r^2 p', h'' = mu d r^2 (2 r p'^2 - p'')
        r = 1.0 / (d + L * g)
        p1, p2 = L * L * g1, L * L * L * g2
        return -mud * r * r * p1, mud * r * r * (2.0 * r * p1 * p1 - p2)

    return replace(_half_plane(params), h=h, slopes=slopes,
                   b_range=lambda c: (0.0, beta_kpp(c, params)))


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
    :class:`NoTangencyError`.  Solved like :func:`critical_speed`: the
    certified minimum of the strip's crossing curve, else the bisection
    midpoint.  The tangency can sit at b = 0 (low strips), where the strip
    gap, even in b, peaks and the crossing curve bottoms out.  The bracket
    stays inside (c_KPP, c_hi], but the threshold lies in (c_KPP, c*) only
    up to tol: once c* - c_L (about e^{-2 beta L}) is below tol, the
    returned c_L can exceed the returned c* by less than tol (D = 28,
    mu = 2, f'(0) = 5, L = 24).
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
    return _super_threshold(*_tangent_speed(system, ck, c_hi, tol),
                            tol, params, Branch.ROAD_STRIP_PLUS)


# --- large-D limit ----------------------------------------------------------------


def _limit(params: ModelParams) -> _Tangency:
    """The large-D limit's system: the half-plane's with road = 1 and field = 0.

    Its b interval runs from the road curve's left end, cut where
    1 + d b = 2^-50 like the half-plane's, to where the parabola passes the
    road's supremum (c + sqrt(c^2 + 4 mu))/2, beyond which the gap is
    negative.
    """
    mu, d, fp0 = params.mu, params.d, params.f_prime_0
    floor = (2.0**-50 - 1.0) / d

    def b_range(c: float) -> tuple[float, float]:
        road_sup = (c + math.sqrt(c * c + 4.0 * mu)) / 2.0
        top = math.sqrt(max((c * road_sup - fp0) / d, 0.0))
        if top == math.inf:
            # a tiny d overflows the quotient (d = 1e-300, f'(0) = 1e300): root it apart
            top = math.sqrt(c * road_sup - fp0) / math.sqrt(d)
        return (max(-c * c / (d * (c * c + 4.0 * mu)), floor), top)

    return replace(_half_plane(params), road=1.0, field=0.0, ck2=0.0, b_range=b_range)


def limit_speed(params: ModelParams, tol: float = DEFAULT_TOL) -> float:
    """Limit of c*(D)/sqrt(D) as the road diffusivity grows without bound.

    After rescaling c and the x-rate by sqrt(D), the field circle flattens
    into the parabola a = (f'(0) + d b^2)/c and the road curve becomes its
    D=1 form; the returned speed is the unique tangency of that pair.  It
    is solved like :func:`critical_speed`, on the half-plane system with
    road = 1 and field = 0: the minimum of its crossing curve
    c(b) = q/sqrt(h + q) (c(0) = sqrt(f'(0)) bounds it), inside
    [sqrt(low)/2, 2 sqrt(f'(0))] (see :func:`limit_bounds`; c^2 lies in
    [low, f'(0)], so each end has a factor-2 margin) and certified by a
    sign change of the limiting gap across a bracket of width <= tol
    around it; when that fails, the gap's sign change is bisected on that
    interval to width tol and the midpoint returned.  D itself does not
    enter.
    """
    _require_normalized(params)
    if not tol > 0:
        raise ValueError("tol must be positive")
    system = _limit(params)
    lo_bound, _ = limit_bounds(params)
    return _tangent_speed(system, 0.5 * math.sqrt(lo_bound), 2.0 * math.sqrt(params.f_prime_0),
                          tol)[0]


def limit_bounds(params: ModelParams) -> tuple[float, float]:
    """Proven window for the limit of c*^2/D: [sqrt(4*mu^2+f'(0)^2)-2*mu, f'(0)].

    The low end is evaluated as f'(0) (f'(0)/(hypot(2*mu, f'(0))+2*mu)), the
    algebraically identical form that does not cancel for large mu, whose
    hypot does not overflow in 4*mu^2 (mu = 1e300 gives 2.5e-301), and
    whose ratio, at most 1, does not overflow in f'(0)^2 (f'(0) = 1e155
    gives 1e155).
    """
    _require_normalized(params)
    mu, fp0 = params.mu, params.f_prime_0
    low = fp0 * (fp0 / (math.hypot(2.0 * mu, fp0) + 2.0 * mu))
    return (low, fp0)
