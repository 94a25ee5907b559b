"""Independent oracles for derived expected values.

Everything here recomputes quantities along a different route than the
package: dense grid scans instead of golden-section refinement, scipy
optimisers/root finders instead of hand-rolled bisection, and explicit
series expansions.  Tests freeze oracle outputs or compare against them;
the oracle side never calls the code path it is checking.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import optimize

from roadfield.params import ModelParams, c_kpp


def dense_gap(c: float, params: ModelParams, n: int = 10_000) -> float:
    """Max of (upper road branch - lower field branch) by brute-force sampling."""
    return float(np.max(_dense_gap_samples(c, params, n)[1]))


def _dense_gap_samples(c: float, params: ModelParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n admissible b and the branch difference at each."""
    d, mu, D = params.d, params.mu, params.D
    ck = c_kpp(params)
    b_road_min = -c * c / (d * (c * c + 4.0 * mu * D))
    b_circle = math.sqrt(max(c * c - ck * ck, 0.0)) / (2.0 * d)
    lo, hi = max(b_road_min, -b_circle), b_circle
    betas = np.linspace(lo, hi, n)
    disc_r = c * c + 4.0 * mu * d * D * betas / (1.0 + d * betas)
    disc_f = c * c - ck * ck - 4.0 * (d * betas) ** 2
    a_road = (c + np.sqrt(np.clip(disc_r, 0.0, None))) / (2.0 * D)
    a_field = (c - np.sqrt(np.clip(disc_f, 0.0, None))) / (2.0 * d)
    return betas, a_road - a_field


def dense_critical_speed(params: ModelParams, tol: float = 1e-8, n_beta: int = 20_000) -> float:
    """Smallest c with a curve crossing: coarse c-ladder, then bisection.

    Uses only dense sampling of the gap (no golden-section, no package
    solver).
    """
    ck = c_kpp(params)
    c_hi = ck + 0.5
    while dense_gap(c_hi, params, n_beta) <= 0.0:
        c_hi = ck + 2.0 * (c_hi - ck)
    c_lo = ck
    while c_hi - c_lo > tol:
        mid = 0.5 * (c_lo + c_hi)
        if dense_gap(mid, params, n_beta) > 0.0:
            c_hi = mid
        else:
            c_lo = mid
    return 0.5 * (c_lo + c_hi)


def mp_critical_speed(params: ModelParams, dps: int = 40) -> float:
    """c* from Newton on the tangency system in dps-digit arithmetic.

    Solves gap(c, b) = 0 and d(gap)/db = 0 with mpmath.findroot, seeded by
    :func:`dense_critical_speed` and the dense gap's argmax.  The gap is the
    plain difference form (upper road root minus lower field root); at large
    D it cancels in double precision, but dps digits leave it exact far
    beyond float resolution.
    """
    c0 = dense_critical_speed(params, tol=1e-6, n_beta=20_000)
    betas, gaps = _dense_gap_samples(c0, params, 20_000)
    b0 = float(betas[int(np.argmax(gaps))])
    with mpmath.workdps(dps):
        D_, d_, mu_, fp0_ = (mpmath.mpf(x) for x in (params.D, params.d, params.mu,
                                                     params.f_prime_0))

        def gap(c, b):
            road = (c + mpmath.sqrt(c * c + 4 * mu_ * d_ * D_ * b / (1 + d_ * b))) / (2 * D_)
            field = (c - mpmath.sqrt(c * c - 4 * d_ * fp0_ - 4 * d_ * d_ * b * b)) / (2 * d_)
            return road - field

        c, _ = mpmath.findroot(
            lambda c, b: [gap(c, b), mpmath.diff(lambda t: gap(c, t), b)],
            (mpmath.mpf(c0), mpmath.mpf(b0)),
        )
        return float(c)


def scipy_delta(params: ModelParams) -> float:
    """Upper-branch window width via scipy's bounded scalar minimiser."""
    ck2 = c_kpp(params) ** 2

    def neg_shape(t):
        return -t / ((t * t + ck2) * (t + 2.0))

    # the peak solves t^2 (t+1) = c_KPP^2; bracket it by doubling
    hi = 1.0
    while hi * hi * (hi + 1.0) <= ck2:
        hi *= 2.0
    res = optimize.minimize_scalar(neg_shape, bounds=(0.0, 2.0 * hi), method="bounded",
                                   options={"xatol": 1e-14})
    return 4.0 * params.mu * params.d**2 * (-res.fun)


def scipy_delta_peak(params: ModelParams) -> float:
    """Location of the shape function's peak from its stationarity cubic."""
    ck2 = c_kpp(params) ** 2
    return float(optimize.brentq(lambda t: t * t * (t + 1.0) - ck2, 1e-12, 1e6, xtol=1e-14))


def dense_limit_speed(params: ModelParams, tol: float = 1e-10, n_beta: int = 20_000) -> float:
    """Tangency speed of the large-D limiting system by dense scanning."""
    d, mu, fp0 = params.d, params.mu, params.f_prime_0

    def gap(c):
        b_lo = -c * c / (d * (c * c + 4.0 * mu))
        road_sup = 0.5 * (c + math.sqrt(c * c + 4.0 * mu))
        hi_sq = (c * road_sup - fp0) / d
        b_hi = math.sqrt(hi_sq) if hi_sq > 0 else 0.0
        betas = np.linspace(b_lo, max(b_hi, b_lo + 1e-12), n_beta)
        disc = c * c + 4.0 * mu * d * betas / (1.0 + d * betas)
        road = 0.5 * (c + np.sqrt(np.clip(disc, 0.0, None)))
        para = (fp0 + d * betas**2) / c
        return float(np.max(road - para))

    c_lo, c_hi = 1e-6, 2.0 * math.sqrt(fp0)
    while gap(c_hi) <= 0.0:
        c_hi *= 2.0
    while c_hi - c_lo > tol:
        mid = 0.5 * (c_lo + c_hi)
        if gap(mid) > 0.0:
            c_hi = mid
        else:
            c_lo = mid
    return 0.5 * (c_lo + c_hi)


def strip_prefactor_series(beta: float, L: float, d: float) -> float:
    """Second-order series in (beta*L) of the strip weight (1+e)/((1-e)+(1+e)d*beta).

    With e = exp(-2*beta*L) = 1 - 2bL + 2(bL)^2 + O((bL)^3):
        numerator   = 2 - 2bL + 2(bL)^2
        denominator = 2bL - 2(bL)^2 + (2 - 2bL + 2(bL)^2) d b
    """
    bl = beta * L
    num = 2.0 - 2.0 * bl + 2.0 * bl * bl
    den = 2.0 * bl - 2.0 * bl * bl + num * d * beta
    return num / den


def ols_slope_intercept(t: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Closed-form least squares line (centered normal equations)."""
    tbar, xbar = t.mean(), x.mean()
    slope = float(((t - tbar) * (x - xbar)).sum() / ((t - tbar) ** 2).sum())
    return slope, float(xbar - slope * tbar)
