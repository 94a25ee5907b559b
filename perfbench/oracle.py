"""Reference values for the benchmark's checks, computed apart from roadfield.

Everything here is written from the model's equations with numpy alone and
never imports ``roadfield``.  Exponential solutions

    u = e^{a(x+ct)},   v = g e^{a(x+ct)} phi(y)

of the linearised road-field system (nu = 1) satisfy

    road      -D a^2 + c a = g - mu
    field     -d a^2 + c a = f'(0) + d b^2
    exchange  -d phi'(0) = mu - g,  g = phi(0)

with phi(y) = e^{-b y} on the half-plane, so g = mu / (1 + d b), and
phi(y) = sinh(b (L - y)) / sinh(b L) on a strip of height L with a zero
wall, so g = mu / (1 + d b coth(b L)).  The spreading speed is the
smallest c at which the upper road root meets the lower field root for
some admissible b.  Maxima over b come from a dense scan followed by
repeated zoomed rescans (no golden section), and speeds from plain
bisection on the sign of that maximum (no bracket doubling from the
package's starting points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCAN_POINTS = 4097
ZOOM_POINTS = 257
ZOOM_ROUNDS = 4
C_TOL = 1e-12          # relative bisection width on speeds


@dataclass(frozen=True)
class Params:
    """Physical parameters; ``normalized`` rescales time so that nu = 1."""

    D: float
    d: float
    mu: float
    nu: float
    fp0: float

    def normalized(self) -> "Params":
        nu = self.nu
        return Params(D=self.D / nu, d=self.d / nu, mu=self.mu / nu, nu=1.0, fp0=self.fp0 / nu)


def c_kpp(p: Params) -> float:
    return 2.0 * math.sqrt(p.d * p.fp0)


def _scan_max(f, lo: float, hi: float) -> float:
    """Maximum of f on [lo, hi]: one dense scan, then rescans around the best node."""
    if hi <= lo:
        return float(f(np.array([lo]))[0])
    n = SCAN_POINTS
    best = -math.inf
    for _ in range(ZOOM_ROUNDS + 1):
        b = np.linspace(lo, hi, n)
        vals = f(b)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        lo, hi = b[max(k - 1, 0)], b[min(k + 1, n - 1)]
        n = ZOOM_POINTS
    return best


def _lower_field_root(c: float, b: np.ndarray, p: Params) -> np.ndarray:
    # d a^2 - c a + f'(0) + d b^2 = 0, smaller root, written as the product of the
    # roots over the larger one so that it does not cancel when c is large
    k = p.fp0 + p.d * b * b
    return 2.0 * k / (c + np.sqrt(np.maximum(c * c - 4.0 * p.d * k, 0.0)))


def _upper_road_root(c: float, loss: np.ndarray, p: Params) -> np.ndarray:
    # D a^2 - c a - loss = 0 with loss = mu - g >= 0 passed in, larger root
    return (c + np.sqrt(np.maximum(c * c + 4.0 * p.D * loss, 0.0))) / (2.0 * p.D)


def half_plane_gap(c: float, p: Params) -> float:
    """max over admissible b of (upper road root - lower field root); p has nu = 1."""
    radius = math.sqrt(max(c * c - c_kpp(p) ** 2, 0.0)) / (2.0 * p.d)
    # road root real iff g <= mu + c^2/(4D), i.e. b >= -c^2 / (d (c^2 + 4 mu D))
    b_road = -c * c / (p.d * (c * c + 4.0 * p.mu * p.D))
    lo, hi = max(b_road, -radius), radius

    def gap(b):
        loss = p.mu * p.d * b / (1.0 + p.d * b)      # mu - g
        return _upper_road_root(c, loss, p) - _lower_field_root(c, b, p)

    return _scan_max(gap, lo, hi)


def strip_gap(c: float, L: float, p: Params) -> float:
    """Half-plane gap with the field cut off at height L (b > 0, limit at b = 0)."""
    radius = math.sqrt(max(c * c - c_kpp(p) ** 2, 0.0)) / (2.0 * p.d)

    def gap(b):
        bL = b * L
        safe = np.where(bL > 0.0, bL, 1.0)
        # d b coth(bL), continued to d/L at b = 0; mu - g = mu x / (1 + x)
        x = np.where(bL > 0.0, p.d * b / np.tanh(safe), p.d / L)
        return _upper_road_root(c, p.mu * x / (1.0 + x), p) - _lower_field_root(c, b, p)

    return _scan_max(gap, 0.0, radius)


def _bisect(gap, lo: float, hi: float) -> float:
    """Sign change of an increasing gap: gap(lo) < 0 < gap(hi)."""
    while hi - lo > C_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _upper_bracket(gap, c0: float) -> float:
    hi = 2.0 * c0
    while gap(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e30:
            raise ValueError("no speed with a crossing found")
    return hi


def critical_speed(p: Params) -> float:
    """Physical spreading speed c*: nu times the speed of the normalised system.

    At c = c_KPP the field locus shrinks to its double root (b, a) = (0, c/(2d)),
    where the upper road root is c/D; when that already lies at or above it the
    loci touch and the speed is c_KPP itself.
    """
    q = p.normalized()
    ck = c_kpp(q)
    if ck / q.D >= ck / (2.0 * q.d):
        return p.nu * ck
    gap = lambda c: half_plane_gap(c, q)  # noqa: E731
    return p.nu * _bisect(gap, ck, _upper_bracket(gap, ck))


def strip_critical_speed(p: Params, L: float) -> float:
    """Physical strip threshold c*_L; raises ValueError when L admits none above c_KPP."""
    q = p.normalized()
    ck = c_kpp(q)
    gap = lambda c: strip_gap(c, L, q)  # noqa: E731
    if gap(ck) >= 0.0:
        raise ValueError(f"strip of height {L} has no threshold above c_KPP")
    return p.nu * _bisect(gap, ck, _upper_bracket(gap, ck))


def limit_speed(p: Params) -> float:
    """Limit of c*/sqrt(D) for the normalised system as D grows without bound.

    With c = sqrt(D) C and a = A / sqrt(D) the road equation keeps its D = 1
    form and the field equation tends to C A = f'(0) + d b^2.
    """
    q = p.normalized()

    def gap(C):
        road_sup = 0.5 * (C + math.sqrt(C * C + 4.0 * q.mu))
        top = (C * road_sup - q.fp0) / q.d
        b_hi = math.sqrt(top) if top > 0.0 else 0.0
        b_lo = -C * C / (q.d * (C * C + 4.0 * q.mu))

        def f(b):
            disc = C * C + 4.0 * q.mu * q.d * b / (1.0 + q.d * b)
            road = 0.5 * (C + np.sqrt(np.maximum(disc, 0.0)))
            return road - (q.fp0 + q.d * b * b) / C

        return _scan_max(f, b_lo, max(b_hi, b_lo))

    lo = math.sqrt(q.fp0) * 1e-3
    while gap(lo) >= 0.0:
        lo *= 0.5
    return _bisect(gap, lo, _upper_bracket(gap, lo))


def limit_window(p: Params) -> tuple[float, float]:
    """Proven window for the limit of c*^2/D: [sqrt(4 mu^2 + f'(0)^2) - 2 mu, f'(0)]."""
    q = p.normalized()
    return (math.sqrt(4.0 * q.mu ** 2 + q.fp0 ** 2) - 2.0 * q.mu, q.fp0)


def strip_height_floor(p: Params) -> float:
    """Height below which the strip's road branch at b = 0 clears the field double root.

    Solves (c + sqrt(c^2 + 4 mu d D / (L + d))) / (2 D) = c / (2 d) at c = c_KPP
    for the normalised system; only heights above it have a threshold above c_KPP.
    """
    q = p.normalized()
    ck2 = c_kpp(q) ** 2
    r = q.D / q.d - 1.0
    return 4.0 * q.mu * q.d * q.D / (ck2 * (r * r - 1.0)) - q.d


@dataclass(frozen=True)
class UpperBranchWindow:
    delta: float
    c_tilde: tuple[float, float] | None


def upper_branch_window(p: Params) -> UpperBranchWindow:
    """Width delta of the D-window above 2d where the upper branches cross, and the
    crossing speeds when D lies in it, from the roots of two cubics.

    With c = sqrt(t^2 + c_KPP^2) the upper branches cross where
    (D - 2d)(t^2 + c_KPP^2)(t + 2) = 4 mu d^2 t, so delta is 4 mu d^2 times the
    peak of t / ((t^2 + c_KPP^2)(t + 2)), reached where t^2 (t + 1) = c_KPP^2.
    Both are solved here as polynomial roots, not by search.
    """
    q = p.normalized()
    ck2 = c_kpp(q) ** 2
    t_peak = _largest_positive_root([1.0, 1.0, 0.0, -ck2])
    delta = 4.0 * q.mu * q.d ** 2 * t_peak / ((t_peak ** 2 + ck2) * (t_peak + 2.0))
    excess = q.D - 2.0 * q.d
    if not 0.0 < excess <= delta:
        return UpperBranchWindow(delta=delta, c_tilde=None)
    # excess (t^3 + 2 t^2 + ck2 t + 2 ck2) - 4 mu d^2 t = 0
    roots = np.roots([excess, 2.0 * excess, excess * ck2 - 4.0 * q.mu * q.d ** 2, 2.0 * excess * ck2])
    ts = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9 and r.real > 0.0)
    t1, t2 = ts[0], ts[-1]
    return UpperBranchWindow(delta=delta, c_tilde=(math.sqrt(t1 * t1 + ck2), math.sqrt(t2 * t2 + ck2)))


def _largest_positive_root(coeffs) -> float:
    roots = np.roots(coeffs)
    return max(float(r.real) for r in roots if abs(r.imag) < 1e-9 and r.real > 0.0)


def dispersion_residuals(c: float, a: float, b: float, p: Params) -> tuple[float, float, float]:
    """Residuals of the road, field and exchange equations at (c, a, b) with g from b."""
    q = p.normalized()
    g = q.mu / (1.0 + q.d * b)
    return (
        -q.D * a * a + c * a - (g - q.mu),
        -q.d * a * a + c * a - (q.fp0 + q.d * b * b),
        q.d * b * g - (q.mu - g),
    )
