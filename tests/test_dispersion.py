import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import roadfield as rf
from roadfield import dispersion
from roadfield.errors import BracketError, DomainError, NoTangencyError, RoadFieldError

from oracles import (
    dense_critical_speed,
    dense_gap,
    dense_limit_speed,
    mp_critical_speed,
    mp_crossing_minimum,
    mp_upper_branch_window,
    scipy_delta,
    strip_prefactor_series,
)

# frozen oracle outputs (see oracles.py for the independent computations)
ORACLE_C_STAR_D4 = 2.2692892216145992     # dense_critical_speed(D=4,d=1,mu=1), tol 1e-8
ORACLE_DELTA = 0.2769531794372341         # scipy_delta(d=1,mu=1,fp0=1)
ORACLE_LIMIT_SPEED = 0.9455107237153244   # dense_limit_speed(d=1,mu=1,fp0=1), tol 1e-10, 2e5 beta points


def make(D, d=1.0, mu=1.0, fp0=1.0):
    return rf.ModelParams(D=D, d=d, mu=mu, nu=1.0, f_prime_0=fp0)


def sample_admissible(params, c, rng, margin=1e-3):
    lo = max(rf.beta_D(c, params), -rf.beta_kpp(c, params))
    hi = rf.beta_kpp(c, params)
    span = hi - lo
    return rng.uniform(lo + margin * span, hi - margin * span)


# --- branch formulas -------------------------------------------------------------


def test_beta_D_values():
    assert rf.beta_D(2.0, make(1.0)) == pytest.approx(-0.5, abs=1e-15)
    assert rf.beta_D(2.0, make(4.0)) == pytest.approx(-0.2, abs=1e-15)


def test_beta_D_large_c_asymptote():
    p = make(3.0, d=2.0)
    assert abs(rf.beta_D(1e6, p) - (-1.0 / p.d)) < 1e-6


def test_beta_D_range():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = make(rng.uniform(0.1, 50), d=rng.uniform(0.1, 5), mu=rng.uniform(0.1, 5))
        b = rf.beta_D(rng.uniform(0.01, 20), p)
        assert -1.0 / p.d < b < 0.0


def test_beta_kpp_values():
    p = make(1.0)
    assert rf.beta_kpp(2.0, p) == 0.0
    assert rf.beta_kpp(2.5, p) == pytest.approx(0.75, abs=1e-15)
    assert rf.beta_kpp(2.0 * math.sqrt(2.0), p) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        rf.beta_kpp(1.999, p)


def test_alpha_road_simple_roots():
    p = make(1.0)
    assert rf.alpha_road(2.0, 0.0, p, "+") == pytest.approx(2.0, abs=1e-15)
    assert rf.alpha_road(2.0, 0.0, p, "-") == pytest.approx(0.0, abs=1e-15)


def test_alpha_road_leftmost_double_root_exact():
    # at beta = beta_D(c) the discriminant vanishes and both roots equal c/(2D)
    for D, d, mu, c in [(1.0, 1.0, 1.0, 2.0), (4.0, 1.0, 1.0, 2.5), (7.0, 2.0, 0.3, 3.7)]:
        p = make(D, d=d, mu=mu)
        b = rf.beta_D(c, p)
        assert rf.alpha_road(c, b, p, "+") == c / (2.0 * D)
        assert rf.alpha_road(c, b, p, "-") == c / (2.0 * D)


def test_alpha_road_domain_errors():
    p = make(1.0)
    with pytest.raises(DomainError):
        rf.alpha_road(2.0, -0.9, p, "+")   # below beta_D(2) = -0.5
    with pytest.raises(DomainError):
        rf.alpha_road(2.0, -1.5, p, "+")   # below -1/d
    with pytest.raises(DomainError):
        rf.alpha_road(2.0, 0.0, make(0.0), "+")
    with pytest.raises(ValueError):
        rf.alpha_road(2.0, 0.0, p, "plus")


def test_alpha_road_residual_oracle():
    # plugging (alpha, beta, gamma=mu/(1+d*beta)) back into the road quadratic
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = make(rng.uniform(0.5, 20), d=rng.uniform(0.2, 3), mu=rng.uniform(0.2, 3))
        c = rng.uniform(0.5, 8)
        b = rng.uniform(rf.beta_D(c, p) * 0.999, 2.0)
        sign = "+" if rng.random() < 0.5 else "-"
        a = rf.alpha_road(c, b, p, sign)
        g = rf.gamma_of_beta(b, p)
        res = -p.D * a * a + c * a - (g - p.mu)
        assert abs(res) <= 1e-12 * max(1.0, c * c)


def test_alpha_field_values():
    p = make(1.0)
    assert rf.alpha_field(2.0, 0.0, p, "+") == pytest.approx(1.0, abs=1e-15)
    assert rf.alpha_field(2.0, 0.0, p, "-") == pytest.approx(1.0, abs=1e-15)
    assert rf.alpha_field(2.5, 0.0, p, "-") == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        rf.alpha_field(2.5, 0.8, p, "-")   # |beta| > beta_kpp = 0.75


def test_alpha_field_residual_oracle():
    rng = np.random.default_rng(13)
    for _ in range(200):
        p = make(1.0, d=rng.uniform(0.2, 3), fp0=rng.uniform(0.2, 3))
        c = rf.c_kpp(p) * rng.uniform(1.001, 3.0)
        b = rng.uniform(-1.0, 1.0) * rf.beta_kpp(c, p) * 0.999
        sign = "+" if rng.random() < 0.5 else "-"
        a = rf.alpha_field(c, b, p, sign)
        res = -p.d * a * a + c * a - (p.f_prime_0 + p.d * b * b)
        assert abs(res) <= 1e-12 * max(1.0, c * c)


def test_alpha_field_circle_identities():
    # the two roots of the field quadratic sum to c/d and multiply to (f'+d b^2)/d
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = make(1.0, d=rng.uniform(0.2, 3), fp0=rng.uniform(0.2, 3))
        c = rf.c_kpp(p) * rng.uniform(1.01, 2.5)
        b = rng.uniform(-0.99, 0.99) * rf.beta_kpp(c, p)
        s = rf.alpha_field(c, b, p, "+") + rf.alpha_field(c, b, p, "-")
        prod = rf.alpha_field(c, b, p, "+") * rf.alpha_field(c, b, p, "-")
        assert s == pytest.approx(c / p.d, rel=1e-10)
        assert prod == pytest.approx((p.f_prime_0 + p.d * b * b) / p.d, rel=1e-10)


def test_gamma_of_beta():
    assert rf.gamma_of_beta(0.0, make(1.0)) == 1.0
    assert rf.gamma_of_beta(1.0, make(1.0)) == 0.5
    assert rf.gamma_of_beta(-0.5, make(1.0, mu=2.0)) == pytest.approx(4.0, abs=1e-15)
    with pytest.raises(DomainError):
        rf.gamma_of_beta(-1.0, make(1.0))


def test_gamma_positive_on_domain():
    rng = np.random.default_rng(19)
    for _ in range(100):
        p = make(1.0, d=rng.uniform(0.2, 3), mu=rng.uniform(0.2, 3))
        b = rng.uniform(-1.0 / p.d * 0.999, 5.0)
        assert rf.gamma_of_beta(b, p) > 0.0


# --- curve gap -----------------------------------------------------------------


def test_curve_gap_nonnegative_at_threshold_diffusivity():
    # D = 2d: the circle's centre sits on the road curve, so they always meet
    p = make(2.0)
    for c in [2.0 + 1e-9, 2.01, 2.5, 4.0, 10.0]:
        assert rf.curve_gap(c, p) >= 0.0


def test_curve_gap_sign_matches_dense_oracle():
    p = make(4.0)
    for c in (2.05, 2.2, 2.3, 2.5, 3.0):
        assert math.copysign(1, rf.curve_gap(c, p)) == math.copysign(1, dense_gap(c, p))
    assert rf.curve_gap(2.05, p) < 0.0


def test_curve_gap_strictly_increasing_in_c():
    p = make(4.0)
    ladder = [2.05, 2.1, 2.2, 2.3, 2.5, 3.0, 4.0]
    gaps = [rf.curve_gap(c, p) for c in ladder]
    assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_curve_gap_misuse():
    with pytest.raises(DomainError):
        rf.curve_gap(1.0, make(4.0))
    with pytest.raises(DomainError):
        rf.curve_gap(2.5, make(0.0))


# --- critical speed ---------------------------------------------------------------


@pytest.mark.parametrize("D", [0.0, 0.5, 1.0, 2.0])
def test_critical_speed_subthreshold_exact(D):
    res = rf.critical_speed(make(D))
    assert res.c_star == 2.0
    assert res.regime is rf.Regime.SUB_THRESHOLD
    assert res.tangency is None


def test_critical_speed_matches_dense_oracle():
    res = rf.critical_speed(make(4.0), tol=1e-8)
    assert res.c_star == pytest.approx(ORACLE_C_STAR_D4, abs=2e-8)
    assert res.regime is rf.Regime.SUPER_THRESHOLD
    assert 2.0 < res.c_star < math.sqrt(4.0) + 0.5
    lo, hi = res.bracket
    assert lo <= res.c_star <= hi and hi - lo <= res.tol


def test_critical_speed_monotone_in_D():
    c4 = rf.critical_speed(make(4.0)).c_star
    c16 = rf.critical_speed(make(16.0)).c_star
    c64 = rf.critical_speed(make(64.0)).c_star
    assert 2.0 < c4 < c16 < c64


def test_critical_speed_large_D_brackets_high_precision_reference():
    # at D = 1e6 (c* ~ 945) the difference form of the lower field root cancels;
    # the bracket must still hold the tangency speed solved at 40 digits
    p = make(1e6)
    res = rf.critical_speed(p, tol=1e-8)
    ref = mp_critical_speed(p)
    lo, hi = res.bracket
    assert lo <= ref <= hi and hi - lo <= res.tol
    assert abs(res.c_star - ref) <= res.tol


@pytest.mark.parametrize("solve", [
    lambda p, tol: rf.critical_speed(p, tol),
    lambda p, tol: rf.strip_critical_speed(p, 20.0, tol),
])
def test_tiny_tol_ends_at_adjacent_floats(solve):
    res = solve(make(4.0), 1e-300)
    lo, hi = res.bracket
    assert lo < hi and np.nextafter(lo, math.inf) == hi
    # the fallback's tangency holds plain floats, as Newton's does
    assert type(res.tangency.beta) is float and type(res.tangency.alpha) is float


def test_limit_speed_tiny_tol_ends_at_float_resolution():
    c = rf.limit_speed(make(1.0), tol=1e-300)
    assert c == pytest.approx(rf.limit_speed(make(1.0), tol=1e-10), abs=1e-10)


def test_critical_speed_continuous_across_threshold():
    res = rf.critical_speed(make(2.0 + 1e-6))
    assert res.regime is rf.Regime.SUPER_THRESHOLD
    assert 0.0 < res.c_star - 2.0 <= 1e-3


def test_tangency_point_closes_the_gap():
    p = make(4.0)
    res = rf.critical_speed(p, tol=1e-8)
    b = res.tangency.beta
    assert res.tangency.branch is rf.Branch.FIELD_MINUS
    assert res.tangency.alpha == rf.alpha_field(res.c_star, b, p, "-")
    gap_here = rf.alpha_road(res.c_star, b, p, "+") - rf.alpha_field(res.c_star, b, p, "-")
    assert abs(gap_here) <= 1e-6
    # the gap function straddles zero just outside the bisection tolerance
    assert rf.curve_gap(res.c_star - 10 * res.tol, p) < 0.0
    assert rf.curve_gap(res.c_star + 10 * res.tol, p) > 0.0


def test_speed_result_invariants_random_params():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = make(rng.uniform(0.0, 10), d=rng.uniform(0.2, 2), mu=rng.uniform(0.2, 2),
                 fp0=rng.uniform(0.2, 2))
        res = rf.critical_speed(p)
        ck = rf.c_kpp(p)
        assert res.c_star >= ck
        if p.D <= 2 * p.d:
            assert res.c_star == ck and res.regime is rf.Regime.SUB_THRESHOLD
        else:
            assert res.c_star > ck and res.regime is rf.Regime.SUPER_THRESHOLD
            assert res.bracket[1] - res.bracket[0] <= res.tol


def test_operations_require_normalized_nu():
    p = rf.ModelParams(D=4, d=1, mu=1, nu=2)
    for call in [
        lambda: rf.beta_D(2.0, p),
        lambda: rf.beta_kpp(2.5, p),
        lambda: rf.alpha_road(2.5, 0.0, p, "+"),
        lambda: rf.alpha_field(2.5, 0.0, p, "-"),
        lambda: rf.gamma_of_beta(0.0, p),
        lambda: rf.curve_gap(2.5, p),
        lambda: rf.critical_speed(p),
        lambda: rf.gamma_plus_threshold(p),
        lambda: rf.strip_alpha_road(2.5, 0.5, 10.0, p),
        lambda: rf.strip_critical_speed(p, 10.0),
        lambda: rf.limit_speed(p),
        lambda: rf.limit_bounds(p),
        lambda: rf.intersections(2.5, p),
    ]:
        with pytest.raises(ValueError, match="nu=1"):
            call()


# --- intersections ----------------------------------------------------------------


def test_intersections_exactly_two_above_critical():
    p = make(4.0)
    c_star = rf.critical_speed(p).c_star
    for c in (c_star + 0.05, c_star + 0.2, c_star + 1.0):
        pts = rf.intersections(c, p).points
        assert len(pts) == 2
        b_minus, b_plus = pts[0], pts[1]
        assert b_minus.beta < b_plus.beta
        assert b_minus.alpha < b_plus.alpha


@pytest.mark.parametrize("D", [1e4, 1e6, 1e8])
def test_intersections_find_the_narrow_crossings_at_large_D(D):
    # just above c* the two crossings sit closer together than the even
    # scan's node spacing (about 0.12 at D = 1e6); the gap's argmax, a scan
    # node of its own, sits between them.  The lower field branch must keep
    # its digits at large c: as the difference (c - sqrt(disc))/(2d) it left
    # 6.3e-9 at D = 1e8
    p = make(D)
    c_star = rf.critical_speed(p).c_star
    for above in (1e-6, 1e-3, 0.1):
        c = c_star * (1.0 + above)
        points = rf.intersections(c, p).points
        assert len(points) == 2
        for pt in points:
            ansatz = rf.ExponentialAnsatz(alpha=pt.alpha, beta=pt.beta,
                                          gamma=rf.gamma_of_beta(pt.beta, p), c=c)
            assert max(abs(r) for r in ansatz.residuals(p)) <= 1e-13


def test_intersections_empty_below_critical():
    p = make(4.0)
    c_star = rf.critical_speed(p).c_star
    assert rf.intersections(c_star - 0.05, p).points == ()


@pytest.mark.filterwarnings("error")
def test_intersections_reject_the_degenerate_road():
    with pytest.raises(DomainError):
        rf.intersections(2.5, make(0.0))


def test_intersection_points_solve_full_system():
    p = make(4.0)
    c = rf.critical_speed(p).c_star + 0.2
    for pt in rf.intersections(c, p).points:
        ansatz = rf.ExponentialAnsatz.at_intersection(c, pt.beta, p, atol=1e-7)
        assert max(abs(r) for r in ansatz.residuals(p)) <= 1e-7
        assert ansatz.gamma > 0.0


def test_ansatz_rejects_non_intersection():
    p = make(4.0)
    with pytest.raises(DomainError):
        rf.ExponentialAnsatz.at_intersection(3.0, 0.01, p, atol=1e-10)


# --- upper-branch classification ---------------------------------------------------


def test_delta_matches_scipy_oracle():
    g = rf.gamma_plus_threshold(make(4.0))
    assert g.delta == pytest.approx(ORACLE_DELTA, abs=1e-12)
    assert g.delta == pytest.approx(scipy_delta(make(4.0)), abs=1e-12)
    assert 0.0 < g.delta < 1.0  # mu*d/f'(0) = 1 here


def test_delta_bound_other_params():
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = make(1.0, d=rng.uniform(0.2, 3), mu=rng.uniform(0.2, 3), fp0=rng.uniform(0.2, 3))
        g = rf.gamma_plus_threshold(p)
        assert 0.0 < g.delta < p.mu * p.d / p.f_prime_0


def test_gamma_plus_no_intersection_outside_window():
    delta = rf.gamma_plus_threshold(make(4.0)).delta
    for D in (1.0, 2.0, 2.0 + 1.01 * delta, 4.0):
        g = rf.gamma_plus_threshold(make(D))
        assert not g.intersects
        assert g.c_tilde_1 is None and g.c_tilde_2 is None


def test_gamma_plus_window_roots_ordered():
    delta = rf.gamma_plus_threshold(make(4.0)).delta
    g = rf.gamma_plus_threshold(make(2.0 + 0.5 * delta))
    assert g.intersects
    assert rf.c_kpp(make(1.0)) < g.c_tilde_1 < g.c_tilde_2


def test_gamma_plus_double_root_at_window_edge():
    delta = rf.gamma_plus_threshold(make(4.0)).delta
    g = rf.gamma_plus_threshold(make(2.0 + delta))
    assert g.intersects
    assert abs(g.c_tilde_1 - g.c_tilde_2) <= 1e-4


def test_gamma_plus_root_trends_in_D():
    delta = rf.gamma_plus_threshold(make(4.0)).delta
    fracs = [0.2, 0.4, 0.6, 0.8]
    cls = [rf.gamma_plus_threshold(make(2.0 + f * delta)) for f in fracs]
    c1s = [g.c_tilde_1 for g in cls]
    c2s = [g.c_tilde_2 for g in cls]
    assert all(b > a for a, b in zip(c1s, c1s[1:]))
    assert all(b < a for a, b in zip(c2s, c2s[1:]))



def test_the_window_top_edge_is_a_double_root_to_float_resolution():
    # at D = 2d + delta the two roots meet at the peak t*, t*^2 (t* + 1) = 4, so
    # c~1 = c~2 = sqrt(t*^2 + 4) = 2.3933581431395475872... (60 digits)
    delta = rf.gamma_plus_threshold(make(4.0)).delta
    g = rf.gamma_plus_threshold(make(2.0 + delta))
    exact = 2.3933581431395475872
    assert g.c_tilde_1 == g.c_tilde_2
    assert abs(g.c_tilde_1 - exact) <= math.ulp(exact)


def test_the_window_matches_a_60_digit_bisection_across_80_decades():
    # c_KPP from 2e-40 to 2e40: the window's variable t scales with c_KPP, so no
    # absolute start or width may enter.  D = 2d + s delta keeps the sets where
    # D - 2d does not round away against 2d
    decades = (1e-40, 1e-8, 1.0, 1e8, 1e40)
    kept = 0
    for d, mu, fp0 in itertools.product(decades, repeat=3):
        delta = mp_upper_branch_window(make(2.0 * d, d=d, mu=mu, fp0=fp0))[0]
        for s in (0.5, 1e-3):
            p = make(2.0 * d + s * delta, d=d, mu=mu, fp0=fp0)
            if not p.D - 2.0 * d > 2.0**-40 * 2.0 * d:
                continue
            kept += 1
            g = rf.gamma_plus_threshold(p)
            assert g.intersects, p
            for got, want in zip((g.delta, g.c_tilde_1, g.c_tilde_2), mp_upper_branch_window(p)):
                assert abs(got - want) <= 1e-14 * want, p
    assert kept == 146


def test_the_window_names_an_overflowing_c_kpp_squared():
    # c_KPP = 2e154: c_KPP^2 is not a float
    with pytest.raises(BracketError, match="c_KPP"):
        rf.gamma_plus_threshold(make(4e154, d=1e154, fp0=1e154))


# --- strip-truncated field ----------------------------------------------------------


def test_strip_branch_converges_to_half_plane():
    p = make(4.0)
    a_strip = rf.strip_alpha_road(2.5, 0.5, 50.0, p)
    a_full = rf.alpha_road(2.5, 0.5, p, "+")
    # exp(-2*0.5*50) ~ 2e-22: indistinguishable at double precision
    assert a_strip == pytest.approx(a_full, rel=1e-15)


def test_strip_branch_strictly_above():
    # keep 2*b*L <= ~20 so the wall correction exp(-2 b L) stays representable
    rng = np.random.default_rng(31)
    p = make(4.0)
    for _ in range(100):
        c = rng.uniform(2.1, 5.0)
        b = rng.uniform(1e-3, 2.0)
        L = rng.uniform(0.5, min(30.0, 10.0 / b))
        assert rf.strip_alpha_road(c, b, L, p) > rf.alpha_road(c, b, p, "+")


def test_strip_branch_small_height_continuity():
    # series-expansion oracle for the strip weight as beta*L -> 0
    p = make(4.0)
    c, b = 2.5, 0.01
    for L in (1e-3, 1e-4, 1e-5):
        weight = strip_prefactor_series(b, L, p.d)
        disc = c * c + 4.0 * p.mu * p.d * p.D * b * weight
        expected = (c + math.sqrt(disc)) / (2.0 * p.D)
        assert rf.strip_alpha_road(c, b, L, p) == pytest.approx(expected, rel=1e-6)
    # and the L -> 0 limit itself is (c + sqrt(c^2 + 4 mu D)) / (2D)
    limit = (c + math.sqrt(c * c + 4.0 * p.mu * p.D)) / (2.0 * p.D)
    assert rf.strip_alpha_road(c, b, 1e-9, p) == pytest.approx(limit, rel=1e-6)


def test_strip_branch_domain_errors():
    p = make(4.0)
    with pytest.raises(DomainError):
        rf.strip_alpha_road(2.5, 0.0, 10.0, p)
    with pytest.raises(DomainError):
        rf.strip_alpha_road(2.5, -0.5, 10.0, p)
    for L in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            rf.strip_alpha_road(2.5, 0.5, L, p)
        with pytest.raises(DomainError):
            rf.strip_critical_speed(p, L)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("solve", [rf.critical_speed, rf.limit_speed,
                                   lambda p, tol: rf.strip_critical_speed(p, 20.0, tol)],
                         ids=["critical_speed", "limit_speed", "strip_critical_speed"])
def test_solvers_reject_a_tol_that_is_not_positive(solve, tol):
    # a nan tol used to pass the tol <= 0 test and return the first midpoint
    with pytest.raises(ValueError, match="tol must be positive"):
        solve(make(4.0), tol)


def test_strip_speed_ladder_increases_below_c_star():
    p = make(4.0)
    c_star = rf.critical_speed(p, tol=1e-12).c_star
    speeds = [rf.strip_critical_speed(p, L, tol=1e-12).c_star for L in (5, 10, 20, 40)]
    assert all(b > a for a, b in zip(speeds, speeds[1:]))
    assert all(2.0 < s < c_star for s in speeds)


def test_strip_speed_requires_superthreshold():
    with pytest.raises(ValueError):
        rf.strip_critical_speed(make(1.0), 10.0)


def test_strip_speed_no_tangency_for_small_height():
    # for 2d < D < 2d + mu*d/f'(0) a too-thin strip already meets the circle at c_KPP
    with pytest.raises(NoTangencyError):
        rf.strip_critical_speed(make(2.5), 0.05)


# --- large-D limit -------------------------------------------------------------------


def test_limit_speed_matches_dense_oracle():
    # oracle grid resolves the inner max to ~1e-10; allow both bisection widths
    c_inf = rf.limit_speed(make(1.0), tol=1e-10)
    assert c_inf == pytest.approx(ORACLE_LIMIT_SPEED, abs=5e-10)


def test_limit_speed_square_in_proven_window():
    p = make(1.0)
    lo, hi = rf.limit_bounds(p)
    c_inf = rf.limit_speed(p)
    assert lo <= c_inf**2 <= hi


def test_limit_speed_agrees_with_large_D_ratio():
    p = make(1e5)
    ratio = rf.critical_speed(p, tol=1e-10).c_star / math.sqrt(1e5)
    c_inf = rf.limit_speed(make(1.0), tol=1e-10)
    assert abs(ratio - c_inf) / c_inf <= 1e-3


def test_limit_speed_decreases_with_exchange_rate():
    # large mu flushes the road into the field and kills the enhancement;
    # small mu approaches the pure field-growth ceiling sqrt(f'(0))
    speeds = [rf.limit_speed(make(1.0, mu=mu), tol=1e-10)
              for mu in (1e-4, 1e-2, 1.0, 1e2, 1e6)]
    assert all(b < a for a, b in zip(speeds, speeds[1:]))
    assert speeds[0] >= 0.999
    assert speeds[-1] <= 1e-2


def test_limit_bounds_values():
    lo, hi = rf.limit_bounds(make(1.0))
    assert lo == pytest.approx(math.sqrt(5.0) - 2.0, rel=1e-14)
    assert hi == 1.0
    lo, hi = rf.limit_bounds(make(1.0, mu=0.5))
    assert lo == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
    assert hi == 1.0


def test_limit_bounds_do_not_overflow_at_a_huge_exchange_rate():
    # 4 mu^2 overflows at mu = 1e300; the low end f'(0)^2/(2 mu + hypot(2 mu, f'(0)))
    # is homogeneous of degree 1 in (mu, f'(0)) and comes out 1/(4 mu), not 0
    lo, hi = rf.limit_bounds(make(4.0, mu=1e300))
    assert lo == pytest.approx(2.5e-301, rel=1e-15, abs=0.0)
    assert hi == 1.0


def test_limit_bounds_do_not_overflow_at_a_huge_reaction_rate():
    # f'(0)^2 overflows at f'(0) = 1e155; f'(0) (f'(0)/(2 mu + hypot(2 mu, f'(0))))
    # keeps its ratio below 1 and comes out f'(0) - 2 mu, which rounds to f'(0)
    lo, hi = rf.limit_bounds(make(4.0, fp0=1e155))
    assert lo == hi == 1e155


def test_limit_speed_stays_in_its_window_when_the_b_interval_overflows():
    # at d = 1e-300, f'(0) = 1e300 the top of the limit's b interval,
    # sqrt((c road_sup - f'(0))/d), overflowed to inf near c = 2e150, and
    # c^2 came out 4e300 against the window [1e300, 1e300]
    p = make(1.0, d=1e-300, fp0=1e300)
    assert math.isfinite(dispersion._limit(p).b_range(2e150)[1])
    lo, hi = rf.limit_bounds(p)
    c = rf.limit_speed(p)
    assert lo - 4.0 * math.ulp(lo) <= c * c <= hi + 4.0 * math.ulp(hi)


def test_limit_bounds_ordered():
    rng = np.random.default_rng(37)
    for _ in range(100):
        p = make(1.0, mu=rng.uniform(1e-3, 1e3), fp0=rng.uniform(1e-3, 1e3))
        lo, hi = rf.limit_bounds(p)
        assert 0.0 < lo < hi


def test_branch_roots_keep_their_digits_at_tiny_speeds():
    # the round-off clamp is 1e-13 c^2: an absolute floor of 1e-13 zeroed both
    # discriminants at c = 3e-40 and gave the double roots 1.5 and 0.375
    p = make(4e-40, d=1e-40, fp0=1e-40)
    assert rf.alpha_field(3e-40, 0.0, p, "+") == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0,
                                                              rel=1e-15)
    assert rf.alpha_road(3e-40, 0.0, p, "+") == pytest.approx(0.75, rel=1e-15)


# --- cross-cutting residual invariant -------------------------------------------------


def test_branch_points_satisfy_their_equations():
    # every returned (alpha, beta, gamma=mu/(1+d*beta)) solves its defining
    # equation with residual <= 1e-10 in these units
    rng = np.random.default_rng(41)
    p = make(4.0)
    for _ in range(100):
        c = rng.uniform(2.05, 4.0)
        b = sample_admissible(p, c, rng)
        g = rf.gamma_of_beta(b, p)
        for sign in ("+", "-"):
            a = rf.alpha_road(c, b, p, sign)
            assert abs(-p.D * a * a + c * a - (g - p.mu)) <= 1e-10
            a = rf.alpha_field(c, b, p, sign)
            assert abs(-p.d * a * a + c * a - (p.f_prime_0 + p.d * b * b)) <= 1e-10
        assert abs(p.d * b * g - (p.mu - g)) <= 1e-10


def test_gap_argmax_is_interior_peak():
    # the maximising beta for D > 2d sits strictly inside (0, beta_kpp)
    p = make(4.0)
    res = rf.critical_speed(p)
    assert 0.0 < res.tangency.beta < rf.beta_kpp(res.c_star, p)


def test_every_speed_problems_gap_is_unimodal_in_b():
    # the upper road root (c + sqrt(c^2 + 4 road h))/(2 road) is concave and
    # increasing in h.  Half-plane and limit: h is concave in b, and the lower
    # field root (the circle's lower arc, or the parabola (f'(0) + d b^2)/c)
    # is convex, so the gap is concave in b.  Strip: h = mu d/(d + L g(b L)),
    # g(x) = tanh(x)/x, is concave in s = b^2, and so is the gap.  So the gap
    # has no positive second difference beyond rounding on nodes uniform in b
    # (in s on the strip), and the golden section with its left end is at
    # least as high as the best of 4001 nodes, b = lo among them.  At
    # c_KPP (1 + 1e-6) a rounding tie stops the strip's section short of its
    # max at b = 0, which only the left end finds
    eps = np.finfo(float).eps
    rng = np.random.default_rng(2024)
    heights = np.random.default_rng(2025)
    for _ in range(100):
        d, mu, fp0 = (float(x) for x in np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3)))
        p = make(d * math.exp(rng.uniform(math.log(2.0001), math.log(1e5))), d=d, mu=mu, fp0=fp0)
        L = float(heights.uniform(0.5, 30.0))
        ck = rf.c_kpp(p)
        full = rf.critical_speed(p)
        try:
            strip_speed = rf.strip_critical_speed(p, L, full=full).c_star
        except NoTangencyError:
            # a low strip: its gap is already >= 0 at c_KPP
            strip_speed = ck
        for system, speed, even in ((dispersion._half_plane(p), full.c_star, False),
                                    (dispersion._limit(p), rf.limit_speed(p), False),
                                    (dispersion._strip(p, L), strip_speed, True)):
            speeds = [share * speed for share in (0.999, 1.0, 1.01, 1.5)]
            if system.field:
                # the circle exists from c_KPP on
                speeds = [max(c, ck) for c in speeds] + [ck * (1.0 + 1e-6)]
            for c in speeds:
                lo, hi = system.b_range(c)
                b = (hi * np.sqrt(np.linspace(0.0, 1.0, 4001)) if even
                     else np.linspace(lo, hi, 4001))
                road = dispersion._root(c, dispersion._road_disc(system, c, b), 2.0 * system.road)
                field = dispersion._lower_root(system, c, b)
                gap = road - field
                rounding = 8.0 * eps * np.max(np.abs(road) + np.abs(field))
                assert np.max(gap[:-2] - 2.0 * gap[1:-1] + gap[2:]) <= rounding, (p, L, c)
                assert dispersion._gap_and_argmax(system, c)[0] >= np.max(gap) - rounding, (p, L, c)


# --- properties over random finite parameters --------------------------------------

_coeff = st.floats(0.2, 5.0)                     # d, mu and f'(0)
_super = st.floats(2.0, 40.0, exclude_min=True)  # D/d above the threshold
# D/d from just above 2 to 1e8, log-uniform
_super_wide = st.floats(1e-9, math.log(5e7)).map(lambda u: 2.0 * math.exp(u))


@settings(max_examples=25, deadline=None)
@given(d=_coeff, mu=_coeff, fp0=_coeff, ratio=st.floats(0.05, 40.0),
       u=st.floats(0.0, 3.0), step=st.floats(1e-3, 1.0))
def test_curve_gap_increases_in_c(d, mu, fp0, ratio, u, step):
    p = make(ratio * d, d=d, mu=mu, fp0=fp0)
    c = rf.c_kpp(p) * (1.0 + u)
    assert rf.curve_gap(c, p) < rf.curve_gap(c + step * rf.c_kpp(p), p)


@settings(max_examples=25, deadline=None)
@given(d=_coeff, mu=_coeff, fp0=_coeff, ratios=st.lists(st.floats(0.0, 40.0), min_size=2, max_size=2))
# c* rounds onto c_KPP just above D = 2d
@example(d=1.0, mu=1.0, fp0=0.5, ratios=[2.000000002, 4.0])
def test_critical_speed_does_not_decrease_in_D(d, mu, fp0, ratios):
    params = [make(r * d, d=d, mu=mu, fp0=fp0) for r in sorted(ratios)]
    low, high = (rf.critical_speed(p) for p in params)
    for p, res in zip(params, (low, high)):
        if p.D <= 2.0 * p.d:
            assert res.c_star == rf.c_kpp(p)
        else:
            # c* - c_KPP grows like (D/d - 2)^2 and is below c_KPP's float
            # spacing once D/d - 2 is near 1e-8; from 1e-5 on it is at least
            # about 350 spacings over these coefficient ranges
            assert res.c_star >= rf.c_kpp(p)
            if p.D / p.d - 2.0 >= 1e-5:
                assert res.c_star > rf.c_kpp(p)
    # c*(D) is nondecreasing, so the certified brackets cannot say otherwise
    assert low.bracket[0] <= high.bracket[1]


@settings(max_examples=25, deadline=None)
@given(d=_coeff, mu=_coeff, fp0=_coeff, ratio=_super, L=st.floats(0.5, 30.0))
def test_strip_threshold_lies_between_c_kpp_and_c_star(d, mu, fp0, ratio, L):
    p = make(ratio * d, d=d, mu=mu, fp0=fp0)
    try:
        strip = rf.strip_critical_speed(p, L)
    except NoTangencyError:
        return  # no strip threshold above c_KPP at this height
    full = rf.critical_speed(p)
    # c_KPP < c_L < c*: for tall strips c* - c_L falls below tol, so compare
    # the certified brackets rather than their midpoints
    assert rf.c_kpp(p) < strip.bracket[0] < full.bracket[1]
    assert strip.bracket[1] <= full.bracket[1]


@settings(max_examples=25, deadline=None)
@given(d=_coeff, mu=_coeff, fp0=_coeff, ratio=_super_wide, above=st.floats(0.01, 1.0))
def test_two_intersections_above_c_star_solve_the_system(d, mu, fp0, ratio, above):
    p = make(ratio * d, d=d, mu=mu, fp0=fp0)
    c = rf.critical_speed(p).c_star * (1.0 + above)
    points = rf.intersections(c, p).points
    assert len(points) == 2
    for pt in points:
        ansatz = rf.ExponentialAnsatz(alpha=pt.alpha, beta=pt.beta,
                                      gamma=rf.gamma_of_beta(pt.beta, p), c=c)
        assert max(abs(r) for r in ansatz.residuals(p)) <= 1e-7


# --- the certified crossing-curve minimum and its fallback -------------------------------

# the bisection results of the solvers before Newton (tol 1e-8), which the
# fallback must still return bit for bit
BISECTED_C_STAR_D4 = 2.2692892216145992
BISECTED_STRIP_D4_L20 = 2.2689838692220943
BISECTED_LIMIT = 0.94551072246956602


def _solve_all():
    return (rf.critical_speed(make(4.0)).c_star,
            rf.strip_critical_speed(make(4.0), 20.0).c_star,
            rf.limit_speed(make(1.0)))


@pytest.mark.parametrize("spoil", [
    lambda b, c, steps: (math.nan, math.nan, steps),   # Newton did not converge
    lambda b, c, steps: (b, math.nan, steps),          # a non-finite speed
    lambda b, c, steps: (b, c * (1.0 + 1e-6), steps),
    lambda b, c, steps: (b, c - 2e-8, steps),          # wrong by twice the tolerance
], ids=["none", "nan", "above", "below"])
def test_failed_certificate_falls_back_to_the_bisection(monkeypatch, spoil):
    minimum = dispersion._crossing_minimum

    def wrong(*args):
        return spoil(*minimum(*args))

    monkeypatch.setattr(dispersion, "_crossing_minimum", wrong)
    assert _solve_all() == (BISECTED_C_STAR_D4, BISECTED_STRIP_D4_L20, BISECTED_LIMIT)
    assert rf.critical_speed(make(4.0)).fell_back
    assert rf.strip_critical_speed(make(4.0), 20.0).fell_back


def test_newton_runs_no_fallback_on_random_parameters(monkeypatch):
    # no solve below bisects: a fallback is the only caller of the bisection
    bisect = dispersion._bisect_gap
    fallbacks = []

    def spy(gap, lo, hi, tol):
        fallbacks.append((lo, hi, tol))
        return bisect(gap, lo, hi, tol)

    monkeypatch.setattr(dispersion, "_bisect_gap", spy)
    rng = np.random.default_rng(43)
    for _ in range(40):
        d, mu, fp0 = np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3))
        # D/d log-uniform from just above 2 to 1e8
        p = make(2.0 * d * math.exp(rng.uniform(1e-9, math.log(5e7))), d=d, mu=mu, fp0=fp0)
        full = rf.critical_speed(p)
        try:
            strip = rf.strip_critical_speed(p, rng.uniform(0.5, 30.0))
            assert not strip.fell_back and strip.newton_steps > 0
        except NoTangencyError:
            pass
        rf.limit_speed(p)
        assert full.bracket[0] <= full.c_star <= full.bracket[1]
        assert not full.fell_back and full.newton_steps > 0 and full.evaluations > 2
    assert fallbacks == []


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("D", [4.0, 10.0, 1e6])
def test_certified_bracket_holds_the_high_precision_speed(D, tol):
    p = make(D)
    res = rf.critical_speed(p, tol)
    lo, hi = res.bracket
    assert hi - lo <= tol and lo <= res.c_star <= hi
    assert lo <= mp_critical_speed(p) <= hi
    assert rf.curve_gap(lo, p) <= 0.0 < rf.curve_gap(hi, p)


# relative error, in units of the float epsilon, that every certified speed
# keeps against the 50-digit minimum of its crossing curve, rounded to a
# float; measured on 3300 seeded sets before it was fixed (largest 1.36 for
# c*, 1.8 for the strip threshold, 1.16 for the limit), and never raised
ORACLE_EPS_BOUND = 2.0
# error of the reported tangency b against the oracle's argmin, in epsilons
# relative to max(|b|, 1/d); on 3300 seeded sets the Newton minimiser reached
# 1.8 (c*) and 5.3 (strip), where the tangency Newton before it, which
# stopped on its step in c, left the strip's b up to 6.6e3 off
ARGMIN_EPS_BOUND = 8.0


def _oracle_sets():
    """60 seeded (params, L), D/2d log-uniform in [1.0001, 5e4], and D = 1e6."""
    rng = np.random.default_rng(2026)
    sets = []
    for _ in range(60):
        d, mu, fp0 = (float(x) for x in np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3)))
        D = 2.0 * d * math.exp(rng.uniform(math.log(1.0001), math.log(5e4)))
        sets.append((make(D, d=d, mu=mu, fp0=fp0), float(rng.uniform(0.5, 30.0))))
    return sets + [(make(1e6), 5.0)]


def test_every_speed_is_the_50_digit_minimum_of_its_crossing_curve():
    eps = np.finfo(float).eps
    misses = []
    for p, L in _oracle_sets():
        full = rf.critical_speed(p)
        speeds = {"half-plane": (full.c_star, full.tangency.beta),
                  "limit": (rf.limit_speed(p), None)}
        try:
            strip = rf.strip_critical_speed(p, L, full=full)
            speeds["strip"] = (strip.c_star, strip.tangency.beta)
        except NoTangencyError:
            pass  # no strip threshold above c_KPP at this height
        for problem, (c, b) in speeds.items():
            ref, argmin = mp_crossing_minimum(p, problem, L)
            if not abs(c - ref) <= ORACLE_EPS_BOUND * eps * ref:
                misses.append((p, L, problem, c, ref))
            if b is not None and not abs(b - argmin) <= ARGMIN_EPS_BOUND * eps * max(abs(argmin),
                                                                                    1.0 / p.d):
                misses.append((p, L, problem, "b", b, argmin))
    assert misses == []


@pytest.mark.parametrize("L", [30.0, 60.0, 200.0])
def test_tall_strip_bracket_stays_under_the_half_plane_bracket(L):
    # at these heights c* - c_L falls below tol: the strip bracket must still
    # lie in (c_KPP, full.bracket[1]]
    p = make(4.0)
    full = rf.critical_speed(p)
    strip = rf.strip_critical_speed(p, L)
    assert rf.c_kpp(p) < strip.bracket[0] <= strip.c_star <= strip.bracket[1] <= full.bracket[1]
    assert strip.bracket[1] - strip.bracket[0] <= strip.tol


def test_low_strip_tangency_sits_at_zero_decay():
    # D = 4, L = 2: the strip gap peaks at b = 0, where the road root
    # (c + sqrt(c^2 + 16/3))/8 meets the field root (c - sqrt(c^2 - 4))/2 at c = 13/6
    strip = rf.strip_critical_speed(make(4.0), 2.0)
    assert 0.0 <= strip.tangency.beta <= 1e-12
    assert strip.bracket[0] <= 13.0 / 6.0 <= strip.bracket[1]


@pytest.mark.parametrize("mu", [1e3, 1e4, 1e5, 1e6, 1e7])
def test_limit_newton_certifies_at_large_exchange(monkeypatch, mu):
    # the limit's bracket [sqrt(low)/2, 2 sqrt(f'(0))] spans decades at large
    # mu/f'(0); the speed must still be the Newton minimum of the crossing
    # curve, and no fallback bisection runs
    bisect, minimum = dispersion._bisect_gap, dispersion._crossing_minimum
    fallbacks, roots = [], []

    def spy_bisect(gap, lo, hi, tol):
        fallbacks.append((lo, hi, tol))
        return bisect(gap, lo, hi, tol)

    def spy_minimum(*args):
        root = minimum(*args)
        roots.append(root)
        return root

    monkeypatch.setattr(dispersion, "_bisect_gap", spy_bisect)
    monkeypatch.setattr(dispersion, "_crossing_minimum", spy_minimum)
    p = make(1.0, mu=mu)
    c = rf.limit_speed(p)
    assert len(roots) == 1 and math.isfinite(roots[0][0]) and c == roots[0][1]
    assert fallbacks == []
    lo, hi = rf.limit_bounds(p)
    assert lo <= c * c <= hi


def _float_and_array_agree(gap, betas):
    """gap(float b) equals, bit for bit, the matching element of gap(array of b)."""
    betas = np.asarray(betas, dtype=float)
    values = gap(betas)
    for b, value in zip(betas, values):
        assert np.float64(gap(float(b))).tobytes() == value.tobytes(), b


_shares = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)


def _spread(lo, hi, shares):
    return [lo, hi, *(lo + s * (hi - lo) for s in shares)]


@settings(max_examples=25, deadline=None)
@given(d=_coeff, mu=_coeff, fp0=_coeff, ratio=st.one_of(st.floats(0.05, 2.0), _super_wide),
       u=st.floats(1e-6, 3.0), L=st.floats(0.5, 30.0), shares=_shares)
def test_each_gap_gives_a_float_b_the_bits_of_its_array_element(d, mu, fp0, ratio, u, L, shares):
    p = make(ratio * d, d=d, mu=mu, fp0=fp0)
    c = rf.c_kpp(p) * (1.0 + u)
    half_plane, strip, limit = dispersion._half_plane(p), dispersion._strip(p, L), dispersion._limit(p)
    lo, hi = half_plane.b_range(c)
    _float_and_array_agree(lambda b: dispersion._gap(half_plane, c, b), _spread(lo, hi, shares))
    for upper in (True, False):
        _float_and_array_agree(lambda b: dispersion._road_residual(half_plane, c, b, upper),
                               _spread(lo, hi, shares))
    # the strip gap is even in b; Newton may cross b = 0
    _float_and_array_agree(lambda b: dispersion._gap(strip, c, b), _spread(-hi, hi, shares))
    # the limit's rescaled speed lies in [sqrt(low)/2, 2 sqrt(f'(0))]
    c_lim = (0.5 + 1.5 * u / 3.0) * math.sqrt(fp0)
    _float_and_array_agree(lambda b: dispersion._gap(limit, c_lim, b),
                           _spread(*limit.b_range(c_lim), shares))


@settings(max_examples=25, deadline=None)
@given(d=_coeff, mu=_coeff, fp0=_coeff, ratio=_super_wide, u=st.floats(1e-6, 3.0),
       L=st.floats(0.5, 30.0), share=st.floats(0.01, 0.99))
def test_public_road_branches_are_the_root_the_gap_uses(d, mu, fp0, ratio, u, L, share):
    # alpha_road and strip_alpha_road are the upper road root of the gap's
    # system, bit for bit, away from the clamped edge of the road curve
    p = make(ratio * d, d=d, mu=mu, fp0=fp0)
    c = rf.c_kpp(p) * (1.0 + u)
    for system, alpha in ((dispersion._half_plane(p), lambda b: rf.alpha_road(c, b, p, "+")),
                          (dispersion._strip(p, L), lambda b: rf.strip_alpha_road(c, b, L, p))):
        lo, hi = dispersion._half_plane(p).b_range(c)
        b = max(lo, 0.0) + share * (hi - max(lo, 0.0))
        if b <= 0.0:
            continue
        root = dispersion._root(c, dispersion._road_disc(system, c, b), 2.0 * system.road)
        assert np.float64(alpha(b)).tobytes() == np.float64(root).tobytes()


def test_fallback_runs_on_a_real_input(monkeypatch):
    # at d = 1e40 the limit's exchange term bends on the scale 1/d = 1e-40,
    # far below its minimiser 2.5e-24: Newton's first step from the golden
    # section's b lands near 3e-33, and each later step only multiplies b by
    # about 1.5, so it stops at NEWTON_STEPS; the bisection must certify the
    # speed on the limit's own bracket [sqrt(low)/2, 2 sqrt(f'(0))]
    p = rf.ModelParams(D=4e40, d=1e40, mu=1.0, nu=1.0, f_prime_0=1e8)
    bisect = dispersion._bisect_gap
    fallbacks = []

    def spy(gap, lo, hi, tol):
        lo_hi = bisect(gap, lo, hi, tol)
        fallbacks.append(((lo, hi, tol), lo_hi))
        return lo_hi

    monkeypatch.setattr(dispersion, "_bisect_gap", spy)
    c = rf.limit_speed(p)
    assert len(fallbacks) == 1
    (start, _, tol), (lo, hi) = fallbacks[0]
    assert start == 0.5 * math.sqrt(rf.limit_bounds(p)[0])
    assert hi - lo <= tol and c == 0.5 * (lo + hi)
    gap = dispersion._gap_and_argmax
    assert gap(dispersion._limit(p), lo)[0] <= 0.0 < gap(dispersion._limit(p), hi)[0]
    # just above D = 2d the old tangency Newton did not certify; c* now
    # certifies there and is c_KPP itself, the float nearest c*
    near = rf.ModelParams(D=2.000000002, d=1.0, mu=1.0, nu=1.0, f_prime_0=0.5)
    res = rf.critical_speed(near)
    assert not res.fell_back and res.c_star == rf.c_kpp(near)
    lo, hi = res.bracket
    assert rf.curve_gap(lo, near) <= 0.0 < rf.curve_gap(hi, near)


# --- every search ends -----------------------------------------------------------


def test_expand_doubles_the_step_until_the_test_holds():
    seen = []
    assert dispersion._expand(lambda x: seen.append(x) or x > 10.0, 2.0, 3.0, "c*") == 18.0
    assert seen == [3.0, 4.0, 6.0, 10.0, 18.0]


@pytest.mark.parametrize("base, past", [
    (2e40, lambda x: True),            # base + 1 rounds onto base: a zero step
    (math.nan, lambda x: True),        # a nan step
    (math.inf, lambda x: True),        # an overflowed base: inf - inf is nan
    (1.0, lambda x: math.nan > 0.0),   # a nan gap ends no search; the step outgrows 2^60
], ids=["zero-step", "nan-base", "inf-base", "nan-gap"])
def test_expand_raises_a_bracket_error_on_a_step_that_cannot_grow(base, past):
    with pytest.raises(BracketError, match="no bracket for c"):
        dispersion._expand(past, base, base + 1.0, "c*")


def test_golden_max_ends_at_float_resolution():
    # at b = 1e4 the float spacing is 1.8e-12; the values of this peak do not
    # tie, so the section runs until a golden point rounds onto an end
    calls = []

    def f(t):
        calls.append(t)
        assert len(calls) < 1000, "golden section does not end"
        return -(t - 1e4 - 3e-7) ** 2

    x, _ = dispersion._golden_max(f, 1e4, 1e4 + 1e-6)
    assert abs(x - (1e4 + 3e-7)) <= 4e-12


def test_golden_max_ends_once_a_flat_peak_at_zero_ties():
    # the strip's gap peaks at b = 0 with a nonzero height; stopped at float
    # resolution alone, the section sank through the subnormals below 1e-308
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 - t * t

    x, fx = dispersion._golden_max(f, 0.0, 1e-3)
    assert len(calls) < 100
    assert fx == 1.0 and 0.0 <= x <= 1e-7


def test_a_tiny_exchange_rate_keeps_the_b_interval_off_the_pole():
    # beta_D rounds onto b = -1/d at mu = 1e-17, where h divides by zero; the
    # speed is the mu -> 0 value 2/sqrt(3) c_KPP, with no RuntimeWarning
    assert rf.critical_speed(make(4.0, mu=1e-17)).c_star == 2.309401076758503


_EXTREMES = (1e-40, 1e-8, 1.0, 1e8, 1e40)


def test_every_search_ends_in_a_certified_speed_or_a_named_error():
    # d, mu and f'(0) over 80 decades, D/d in {4, 1e4}; under the suite's
    # RuntimeWarning filter a numpy warning fails the test
    failures = []
    tol = dispersion.DEFAULT_TOL
    for d, mu, fp0, ratio in itertools.product(_EXTREMES, _EXTREMES, _EXTREMES, (4.0, 1e4)):
        p = make(ratio * d, d=d, mu=mu, fp0=fp0)
        ck = rf.c_kpp(p)
        try:
            res = rf.critical_speed(p)
            lo, hi = res.bracket
            certified = rf.curve_gap(lo, p) <= 0.0 < rf.curve_gap(hi, p)
            if not (ck <= lo <= res.c_star <= hi and certified):
                failures.append(("critical_speed", p, res))
        except BracketError:
            failures.append(("critical_speed", p, "BracketError"))
        try:
            c, (low, high) = rf.limit_speed(p), rf.limit_bounds(p)
            if not math.sqrt(low) - tol <= c <= math.sqrt(high) + tol:
                failures.append(("limit_speed", p, c))
        except RoadFieldError:
            pass
    assert failures == []


# sha256 of (c*, its bracket, limit_speed) as float.hex over 40 seeded sets,
# D/d log-uniform in [0.3, 1e5]: published numbers must not drift silently
PUBLISHED_SHA256 = "2adf379af0116b099c69c30d2e6bdd5ce695fcfbd9aae476481a5b239c5ce303"
# sha256 of the strip threshold (c_L, its bracket, its tangency b), see below
STRIP_SHA256 = "4649da9689e19994b393f3640ba827aed5e6d15ba421bfa660b8f94b23a66b57"
# sha256 of the crossings (b, a) at 1.001 c*, see below
INTERSECTIONS_SHA256 = "5d0f015b9c9a18a11e8e81388617a73a14d5fc451796921d8d6a0eb1d8a40da0"


def test_published_speeds_keep_their_bits():
    rng = np.random.default_rng(2011)
    digest = hashlib.sha256()
    for _ in range(40):
        d, mu, fp0 = (float(x) for x in np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3)))
        p = make(d * math.exp(rng.uniform(math.log(0.3), math.log(1e5))), d=d, mu=mu, fp0=fp0)
        res = rf.critical_speed(p)
        digest.update(" ".join(x.hex() for x in (res.c_star, *res.bracket, rf.limit_speed(p))).encode())
    assert digest.hexdigest() == PUBLISHED_SHA256
    # the strip threshold: c_L, its bracket and its tangency b over 40 sets of
    # its own, D/d log-uniform in [2.0001, 1e5], L uniform in [0.5, 30]; a
    # strip with no threshold above c_KPP hashes as a marker
    rng = np.random.default_rng(2012)
    digest = hashlib.sha256()
    for _ in range(40):
        d, mu, fp0 = (float(x) for x in np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3)))
        p = make(d * math.exp(rng.uniform(math.log(2.0001), math.log(1e5))), d=d, mu=mu, fp0=fp0)
        L = float(rng.uniform(0.5, 30.0))
        try:
            res = rf.strip_critical_speed(p, L)
        except NoTangencyError:
            digest.update(b"no-tangency")
            continue
        digest.update(" ".join(x.hex() for x in (res.c_star, *res.bracket,
                                                 res.tangency.beta)).encode())
    assert digest.hexdigest() == STRIP_SHA256


def test_crossings_keep_their_bits():
    # (b, a) of every crossing at 1.001 c* as float.hex over 40 seeded sets,
    # D/d log-uniform in [2.0001, 1e5]: the gap's argmax, one more scan node
    # in intersections, may move by rounding, but the crossings may not
    rng = np.random.default_rng(2013)
    digest = hashlib.sha256()
    for _ in range(40):
        d, mu, fp0 = (float(x) for x in np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3)))
        p = make(d * math.exp(rng.uniform(math.log(2.0001), math.log(1e5))), d=d, mu=mu, fp0=fp0)
        points = rf.intersections(1.001 * rf.critical_speed(p).c_star, p).points
        assert len(points) == 2
        digest.update(" ".join(x.hex() for pt in points for x in (pt.beta, pt.alpha)).encode())
    assert digest.hexdigest() == INTERSECTIONS_SHA256


# --- the exact scale map -----------------------------------------------------------


def _scaled(p, s):
    """(D, d, mu, f'(0)) -> (D/s, d/s, s mu, s f'(0)): a and b times s, c unchanged (nu = 1)."""
    return make(p.D / s, d=p.d / s, mu=s * p.mu, fp0=s * p.f_prime_0)


def _strip_speed(p, L, full):
    try:
        return rf.strip_critical_speed(p, L, full=full).c_star
    except NoTangencyError:
        return None


def test_a_scaled_input_gets_the_unscaled_speed_and_crossings():
    # D = 4, d = mu = f'(0) = 1 at s = 2^-30: the golden section stopped at an
    # absolute 1e-12 in b, on a b interval about 1e-10 wide, and c* came out
    # 4.6e-8 high; an absolute 1e-9 merged the two crossings at s = 2^-30 and 2^-40
    p = make(4.0)
    assert rf.critical_speed(_scaled(p, 2.0**-30)).c_star == 2.269289220080505
    c = 1.001 * rf.critical_speed(p).c_star
    for k in (-30, -40):
        assert len(rf.intersections(c, _scaled(p, 2.0**k)).points) == 2


def test_the_solvers_commute_with_the_exact_scale_map():
    # for s = 2^k every search in b scales with b: c*, the strip threshold at
    # L/s and limit_speed/sqrt(s) (sqrt(s) is exact for even k) keep their
    # value to 2 ulps, and the crossings at a fixed speed keep their number
    def near(x, y):
        return x == y or (x is not None and y is not None and abs(x - y) <= 2.0 * math.ulp(y))

    rng = np.random.default_rng(2022)
    misses = []
    for _ in range(10):
        d, mu, fp0 = (float(x) for x in np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3)))
        p = make(d * math.exp(rng.uniform(math.log(2.0001), math.log(1e5))), d=d, mu=mu, fp0=fp0)
        L = float(rng.uniform(0.5, 30.0))
        full = rf.critical_speed(p)
        strip, limit = _strip_speed(p, L, full), rf.limit_speed(p)
        c = 1.001 * full.c_star
        crossings = len(rf.intersections(c, p).points)
        for k in range(-60, 61, 5):
            s = 2.0**k
            q = _scaled(p, s)
            full_q = rf.critical_speed(q)
            got = {"c*": (full_q.c_star, full.c_star),
                   "strip": (_strip_speed(q, L / s, full_q), strip),
                   "crossings": (len(rf.intersections(c, q).points), crossings)}
            if k % 2 == 0:
                got["limit"] = (rf.limit_speed(q) / math.sqrt(s), limit)
            misses += [(p, L, k, name, x, y) for name, (x, y) in got.items() if not near(x, y)]
    assert misses == []
