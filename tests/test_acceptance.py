"""Acceptance gate: one test per exit criterion, each printing a pass/fail line.

Criteria 1-6 are exact algebraic checks on the dispersion solvers; 7-11 are
desk-scale simulation measurements with the tolerances pinned below; 12
records that the underlying statements are asymptotic and these finite
computations are their agreed surrogates.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines live.  Criteria
7 and 9-11 carry the ``slow`` marker: ``pytest -m "not slow"`` skips them
for a fast loop.
"""

import math
import sys

import numpy as np
import pytest

import roadfield as rf


def report(criterion: str, ok: bool, detail: str) -> None:
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def make(D, d=1.0, mu=1.0, fp0=1.0):
    return rf.ModelParams(D=D, d=d, mu=mu, nu=1.0, f_prime_0=fp0)


# --- dispersion-side criteria (1-6) --------------------------------------------------


def test_c01_subthreshold_exactness():
    values = {D: rf.critical_speed(make(D)).c_star for D in (0.0, 0.5, 1.0, 2.0)}
    ok = all(c == 2.0 for c in values.values())
    report("criterion 1 (sub-threshold exactness)", ok,
           f"c*(D) for D<=2d: {values} == c_KPP = 2 exactly")


def test_c02_enhancement_and_monotonicity():
    ladder = [rf.critical_speed(make(D), tol=1e-8).c_star for D in (2.5, 4.0, 10.0, 100.0)]
    jump = rf.critical_speed(make(2.0 + 1e-6), tol=1e-8).c_star - 2.0
    ok = (all(c > 2.0 for c in ladder)
          and all(b > a for a, b in zip(ladder, ladder[1:]))
          and 0.0 <= jump <= 1e-3)
    report("criterion 2 (enhancement + monotonicity)", ok,
           f"c* ladder {ladder} strictly increasing above 2; c*(2+1e-6)-2 = {jump:.3e} <= 1e-3")


def test_c03_tangency_residual():
    p = make(4.0)
    res = rf.critical_speed(p, tol=1e-8)
    b = res.tangency.beta
    resid = abs(rf.alpha_road(res.c_star, b, p, "+") - rf.alpha_field(res.c_star, b, p, "-"))
    below = rf.curve_gap(res.c_star - 1e-6, p)
    above = rf.curve_gap(res.c_star + 1e-6, p)
    ok = resid <= 1e-6 and below < 0.0 < above
    report("criterion 3 (tangency residual)", ok,
           f"|alpha_road - alpha_field| = {resid:.2e} <= 1e-6; "
           f"gap({res.c_star:.8f} -/+ 1e-6) = {below:.2e} / {above:.2e} straddles 0")


def test_c04_sqrt_D_law():
    ratios = [rf.critical_speed(make(D), tol=1e-10).c_star / math.sqrt(D)
              for D in (1e3, 1e4, 1e5, 1e6)]
    gaps = [a - b for a, b in zip(ratios, ratios[1:])]
    c_inf = rf.limit_speed(make(1.0), tol=1e-10)
    lo, hi = rf.limit_bounds(make(1.0))
    rel = abs(ratios[-1] - c_inf) / c_inf
    ok = (all(g > 0 for g in gaps)                 # decreasing
          and all(b < a for a, b in zip(gaps, gaps[1:]))  # Cauchy: shrinking gaps
          and rel <= 1e-3
          and lo <= ratios[-1] ** 2 <= hi)
    report("criterion 4 (sqrt(D) law)", ok,
           f"c*/sqrt(D) = {ratios} decreasing with shrinking gaps; "
           f"final vs limit_speed {c_inf:.9f}: rel {rel:.1e} <= 1e-3; "
           f"square {ratios[-1]**2:.6f} in [{lo:.6f}, {hi:.6f}]")


def test_c05_strip_consistency():
    p = make(4.0)
    c_star = rf.critical_speed(p, tol=1e-12).c_star
    ladder = {L: rf.strip_critical_speed(p, L, tol=1e-12).c_star for L in (5, 10, 20, 40, 80)}
    vals = list(ladder.values())
    gap80 = abs(ladder[80] - c_star)
    ok = (all(2.0 < c < c_star for c in vals)
          and all(b > a for a, b in zip(vals, vals[1:]))
          and gap80 <= 1e-3)
    report("criterion 5 (strip consistency)", ok,
           f"c*^L in (2, {c_star:.12f}) increasing over L=5..80: {vals}; "
           f"|c*^80 - c*| = {gap80:.2e} <= 1e-3")


def test_c06_delta_classification():
    p = make(4.0)
    cls = rf.gamma_plus_threshold(p)
    bound = p.mu * p.d / p.f_prime_0
    edge = rf.gamma_plus_threshold(make(2.0 + cls.delta))
    double_gap = abs(edge.c_tilde_1 - edge.c_tilde_2)
    inner = [rf.gamma_plus_threshold(make(2.0 + f * cls.delta)) for f in (0.2, 0.4, 0.6, 0.8)]
    c1s = [g.c_tilde_1 for g in inner]
    c2s = [g.c_tilde_2 for g in inner]
    ok = (0.0 < cls.delta < bound
          and edge.intersects and double_gap <= 1e-4
          and all(g.intersects for g in inner)
          and all(b > a for a, b in zip(c1s, c1s[1:]))
          and all(b < a for a, b in zip(c2s, c2s[1:])))
    report("criterion 6 (delta classification)", ok,
           f"delta = {cls.delta:.12f} in (0, {bound}); roots at D=2d+delta coincide "
           f"within {double_gap:.2e} <= 1e-4; c~1 increasing {c1s}, c~2 decreasing {c2s}")


# --- simulation-side criteria (7-11) ----------------------------------------------------


@pytest.mark.slow
def test_c07_mass_conservation():
    params = make(1.0)
    grid = rf.build_grid(-40.0, 40.0, 20.0, 0.1, 0.1, params, 0.4)
    record = rf.run(params, grid, rf.InitialDatum.compact_bump(), t_end=5.0,
                    snapshot_every=500, reaction=None)
    drift = float(np.abs(record.mass - record.mass[0]).max() / record.mass[0])
    ok = drift <= 1e-6
    report("criterion 7 (mass conservation)", ok,
           f"relative mass drift over t<=5 with f==0: {drift:.3e} <= 1e-6")


def test_c08_discrete_comparison_principle():
    # the 200 pairs advance as one batch; each member matches its own step() bit for bit
    params = make(1.0)
    grid = rf.build_grid(-6.0, 6.0, 4.0, 0.5, 0.5, params, 0.4)
    u_lo, u_hi = np.empty((200, grid.nx)), np.empty((200, grid.nx))
    v_lo, v_hi = np.empty((200, grid.nx, grid.ny)), np.empty((200, grid.nx, grid.ny))
    for seed in range(200):
        rng = np.random.default_rng(1_000 + seed)
        u_lo[seed] = 0.5 * rng.random(grid.nx)
        v_lo[seed] = 0.5 * rng.random((grid.nx, grid.ny))
        u_hi[seed] = u_lo[seed] + 0.5 * rng.random(grid.nx)
        v_hi[seed] = v_lo[seed] + 0.5 * rng.random((grid.nx, grid.ny))
    lo = rf.FieldState(t=0.0, u=u_lo, v=v_lo)
    hi = rf.FieldState(t=0.0, u=u_hi, v=v_hi)
    broken = np.zeros(200, dtype=bool)
    for _ in range(500):
        lo = rf.step(lo, params, grid)
        hi = rf.step(hi, params, grid)
        broken |= ~(np.all(lo.u <= hi.u, axis=-1) & np.all(lo.v <= hi.v, axis=(-2, -1)))
    ok = not broken.any()
    report("criterion 8 (discrete comparison principle)", ok,
           "ordering preserved for 500 steps across 200 seeded ordered pairs"
           if ok else f"ordering broken (seed {np.argmax(broken)})")


@pytest.mark.slow
def test_c09_long_time_limit():
    params = rf.ModelParams(D=1.0, d=1.0, mu=1.0, nu=1.0)
    grid = rf.build_grid(-40.0, 40.0, 20.0, 0.25, 0.25, params, 0.4)
    record = rf.run(params, grid, rf.InitialDatum.compact_bump(), t_end=60.0,
                    snapshot_every=2000)
    eu, ev = rf.steady_error(record.final_state, params, grid, 5.0)
    ok = eu <= 1e-2 and ev <= 1e-2
    report("criterion 9 (long-time limit)", ok,
           f"steady_error at t=60 on |x|<=5: (u: {eu:.2e}, v: {ev:.2e}) <= (1e-2, 1e-2)")


@pytest.fixture(scope="module")
def baseline_measurement():
    params = make(1.0)
    grid = rf.build_grid(-300.0, 300.0, 30.0, 0.25, 0.25, params, 0.4)
    every = int(round(0.5 / grid.dt))
    record = rf.run(params, grid, rf.InitialDatum.compact_bump(), t_end=100.0,
                    snapshot_every=every)
    series = rf.front_series(record, grid, rf.Channel.ROAD, 0.5 * params.nu / params.mu)
    estimate = rf.fit_speed(series, 0.5)
    return params, grid, record, estimate


@pytest.mark.slow
def test_c10_speed_baseline(baseline_measurement):
    params, grid, record, est = baseline_measurement
    rel = abs(est.speed - 2.0) / 2.0
    # the full dichotomy window holds on this converged run
    x = grid.x()
    u = record.final_state.u
    ahead = x >= 1.2 * est.speed * 100.0
    behind = np.abs(x) <= 0.8 * est.speed * 100.0
    dichotomy = (u[ahead].max(initial=0.0) <= 1e-3
                 and u[behind].min() >= 0.9 * params.nu / params.mu)
    ok = rel <= 0.10 and dichotomy
    report("criterion 10 (baseline speed)", ok,
           f"measured road speed {est.speed:.4f} vs c_KPP=2: rel {rel:.3f} <= 0.10; "
           f"dichotomy windows hold: {dichotomy}")


@pytest.mark.slow
def test_c11_speed_enhanced(baseline_measurement):
    params = make(10.0)
    predicted = rf.critical_speed(params, tol=1e-8).c_star
    half = math.ceil((predicted * 100.0 + 20.0) / 5.0) * 5.0
    grid = rf.build_grid(-half, half, 30.0, 0.25, 0.25, params, 0.4)
    every = int(round(0.5 / grid.dt))
    record = rf.run(params, grid, rf.InitialDatum.compact_bump(), t_end=100.0,
                    snapshot_every=every)
    series = rf.front_series(record, grid, rf.Channel.ROAD, 0.5 * params.nu / params.mu)
    est = rf.fit_speed(series, 0.5)
    rel = abs(est.speed - predicted) / predicted
    baseline_speed = baseline_measurement[3].speed
    ok = rel <= 0.10 and est.speed > baseline_speed
    report("criterion 11 (enhanced speed)", ok,
           f"measured speed {est.speed:.4f} vs predicted c*(10) = {predicted:.6f}: "
           f"rel {rel:.3f} <= 0.10; exceeds baseline {baseline_speed:.4f}")


def test_c12_finite_scale_surrogates_documented():
    mod = sys.modules[__name__]
    surrogates = [name for name in dir(mod)
                  if name.startswith("test_c") and not name.startswith("test_c12")]
    ok = len(surrogates) == 11
    report("criterion 12 (scope)", ok,
           "the spreading/limit statements are asymptotic (t, D -> infinity); no finite "
           "computation reproduces them exactly, and criteria 1-11 are their agreed "
           f"algebraic + desk-scale surrogates ({len(surrogates)} tests present)")
