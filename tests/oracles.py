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


def mp_crossing_minimum(params: ModelParams, problem: str, L: float | None = None,
                        dps: int = 50, n_scan: int = 4001) -> tuple[float, float]:
    """(min, argmin) over b >= 0 of the crossing curve c(b), in dps digits.

    Subtracting the field equation field a^2 - c a + q = 0 from the road
    equation road a^2 - c a = h(b), with q = f'(0) + d b^2, cancels c a, so
    each b has one crossing of the two loci, at the speed
    c(b) = (road q + field h)/sqrt((road - field)(h + q)).  c*, the strip
    threshold and the large-D limit are each that curve's minimum.  ``problem`` picks the system:
    "half-plane" (road = D, field = d, h = mu d b/(1 + d b)), "strip"
    (h = mu d/(d + L tanh(bL)/(bL)), h(0) = mu d/(d + L)) or "limit"
    (road = 1, field = 0, the half-plane's h).  A float scan of c(b) on
    b = 0 and n_scan - 1 log-spaced nodes of [1e-100 B, B] finds the
    minimum's cell, B where the field locus at the speed c(0) >= min ends:
    B grows like mu^(1/4) in the limit, and at mu = 1e300 the minimiser
    sits 75 decades below it.  Values within 16 eps of the least tie, and
    the cell runs from the node before the first of them to the first
    node after it that is not one.  The root of the elasticity
    b c'(b)/c(b) (c' by mpmath.diff with a step relative to b) is solved
    on the cell by findroot's Illinois method, which keeps a sign change
    bracketed (its residual check is off: c' comes from numerical
    differentiation, whose noise can exceed the check's tolerance while
    the root is exact).  The elasticity is of size 1 at any scale of b and
    c, where c' itself (1e-150 at mu = 1e300) would pass findroot's
    absolute tolerance at once.  When b = 0 ties (a low strip, or a
    minimum too close to 0 for floats to resolve), the minimum sits at 0
    unless the elasticity is already negative just above 0; then its root
    between there and the cell's end is the argmin.
    """
    with mpmath.workdps(dps):
        D, d, mu, fp0 = (mpmath.mpf(x) for x in (params.D, params.d, params.mu,
                                                 params.f_prime_0))
        road, field = (mpmath.mpf(1), mpmath.mpf(0)) if problem == "limit" else (D, d)
        if problem == "strip":
            height = mpmath.mpf(L)

            def h(b):
                x = b * height
                g = mpmath.tanh(x) / x if x != 0 else mpmath.mpf(1)
                return mu * d / (d + height * g)
        else:
            def h(b):
                return mu * d * b / (1 + d * b)

        def speed(b):
            q = fp0 + d * b * b
            return (road * q + field * h(b)) / mpmath.sqrt((road - field) * (h(b) + q))

        c0 = speed(mpmath.mpf(0))
        if problem == "limit":
            # the parabola a = q/c meets the road only below its supremum
            road_sup = (c0 + mpmath.sqrt(c0 * c0 + 4 * mu)) / 2
            top = mpmath.sqrt((c0 * road_sup - fp0) / d)
        else:
            top = mpmath.sqrt(c0 * c0 - 4 * d * fp0) / (2 * d)
        betas = np.concatenate([[0.0], np.geomspace(float(top) * 1e-100, float(top),
                                                    n_scan - 1)])
        speeds = _float_crossing_speeds(betas, float(road), float(field), params, problem, L)
        # c(b) is flat to rounding near its minimum (and the strip's near
        # b = 0), where a rounding error can pick any node as the least
        tied = speeds <= speeds.min() * (1.0 + 16.0 * np.finfo(float).eps)
        k = int(np.argmax(tied))
        above = np.flatnonzero(~tied[k + 1:])
        assert above.size, "the crossing curve's minimum lies past the scan"
        right = mpmath.mpf(float(betas[k + 1 + above[0]]))

        def elasticity(b):
            return b * mpmath.diff(speed, b, relative=True) / speed(b)

        if k == 0:
            # the strip's c'(b) vanishes at b = 0, where the even c(b) has its
            # other stationary point, so the cell starts just above 0
            left = right * mpmath.mpf("1e-20")
            if elasticity(left) >= 0:
                return float(c0), 0.0
        else:
            left = mpmath.mpf(float(betas[k - 1]))
        b = mpmath.findroot(elasticity, (left, right), solver="illinois", verify=False)
        return float(speed(b)), float(b)


def _float_crossing_speeds(b: np.ndarray, road: float, field: float, params: ModelParams,
                           problem: str, L: float | None) -> np.ndarray:
    """c(b) of :func:`mp_crossing_minimum` in floats, on an array of b >= 0."""
    d, mu = params.d, params.mu
    if problem == "strip":
        x = b * L
        g = np.ones_like(x)
        g[x > 0] = np.tanh(x[x > 0]) / x[x > 0]
        h = mu * d / (d + L * g)
    else:
        # mu d b overflows at mu = 1e300, d b/(1 + d b) <= 1 never does
        h = mu * (d * b / (1.0 + d * b))
    q = params.f_prime_0 + d * b * b
    return (road * q + field * h) / np.sqrt((road - field) * (h + q))


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


def mp_upper_branch_window(params: ModelParams, dps: int = 60
                           ) -> tuple[float, float | None, float | None]:
    """(delta, c~1, c~2) of the upper-branch window by dps-digit bisection.

    The same equations as the package, solved in dps digits: the peak t*
    of t/((t^2 + c_KPP^2)(t + 2)) from t^2 (t + 1) = c_KPP^2, then the roots
    t1 <= t* <= t2 of (D - 2d)(t^2 + c_KPP^2)(t + 2) = 4 mu d^2 t, with
    c~ = sqrt(t^2 + c_KPP^2).  Each root is bisected to 1e-30 of its size;
    t* and t2 on a bracket found by halving or doubling a step of 1 above 0
    and t*, t1 on [0, t*].  The speeds are None outside the window.
    """
    with mpmath.workdps(dps):
        D, d, mu, fp0 = (mpmath.mpf(x) for x in (params.D, params.d, params.mu,
                                                 params.f_prime_0))
        ck2 = 4 * d * fp0

        def bisect(f, lo, hi):
            # f(lo) <= 0 < f(hi)
            while hi - lo > mpmath.mpf("1e-30") * hi:
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if f(mid) > 0 else (mid, hi)
            return (lo + hi) / 2

        def above(f, base):
            # f(base + step/2) <= 0 < f(base + step), f's one sign change above base
            step = mpmath.mpf(1)
            while f(base + step / 2) > 0:
                step /= 2
            while not f(base + step) > 0:
                step *= 2
            return base + step / 2, base + step

        def stationary(t):
            return t * t * (t + 1) - ck2

        t_peak = bisect(stationary, *above(stationary, mpmath.mpf(0)))
        delta = 4 * mu * d * d * t_peak / ((t_peak * t_peak + ck2) * (t_peak + 2))
        if not 0 < D - 2 * d <= delta:
            return float(delta), None, None

        def crossing(t):
            return (D - 2 * d) * (t * t + ck2) * (t + 2) - 4 * mu * d * d * t

        # crossing falls through t1 on [0, t*] and rises through t2 above t*
        t1 = bisect(lambda t: -crossing(t), mpmath.mpf(0), t_peak)
        t2 = bisect(crossing, *above(crossing, t_peak))
        return (float(delta), float(mpmath.sqrt(t1 * t1 + ck2)),
                float(mpmath.sqrt(t2 * t2 + ck2)))


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


def reference_advance(u: np.ndarray, v: np.ndarray, params: ModelParams, dt: float, dx: float,
                      dy: float, reaction, substeps: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) advanced by substeps*dt with unpadded, freshly allocated arrays.

    The simulation kernel written out on the (..., nx) and (..., nx, ny)
    arrays themselves, one numpy expression per term, in the arithmetic
    order the package keeps: it calls a reaction on the field only.  The
    package's padded kernel must match it bit for bit.
    """
    dx2, dy2 = dx**2, dy**2
    D, d, mu, nu = params.D, params.d, params.mu, params.nu
    v0 = v[..., 0]
    src = u_sum = u
    for s in range(substeps):
        if s > 0:
            u_sum = u_sum + src
        left = np.concatenate([src[..., 1:2], src[..., :-1]], axis=-1)
        right = np.concatenate([src[..., 1:], src[..., -2:-1]], axis=-1)
        lap = (right + left) - src - src
        src = src + (dt * D / dx2) * lap + dt * (nu * v0 - mu * src)
    u_bar = u_sum / substeps
    field_dt = substeps * dt
    up = np.concatenate([v[..., 1:2, :], v[..., :-1, :]], axis=-2)
    down = np.concatenate([v[..., 1:, :], v[..., -2:-1, :]], axis=-2)
    ghost = v[..., 1] + (2.0 * dy / d) * (mu * u_bar - nu * v0)
    below = np.concatenate([ghost[..., None], v[..., :-1]], axis=-1)
    above = np.concatenate([v[..., 1:], v[..., -2:-1]], axis=-1)
    t1 = ((down + up) - v - v) * (field_dt * d / dx2)
    t1 = t1 + ((above + below) - v - v) * (field_dt * d / dy2)
    if reaction is not None:
        t1 = t1 + field_dt * np.asarray(reaction(v))
    return src, v + t1
