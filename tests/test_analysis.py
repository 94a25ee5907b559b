import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadfield as rf
from roadfield.analysis import write_front_series_csv, write_speed_estimate_csv
from roadfield.errors import GridMismatchError, NoCrossingError, TooFewSamplesError

from oracles import ols_slope_intercept

P1 = rf.ModelParams(D=1.0, d=1.0, mu=1.0)


def line_grid(nx=41, dt=0.01):
    return rf.Grid(x_min=-10.0, x_max=10.0, y_max=5.0, nx=nx, ny=11, dt=dt)


# --- front_position ------------------------------------------------------------------


def test_front_position_step_profile_midpoint():
    g = line_grid()
    x = g.x()
    profile = np.where(x < 0.0, 1.0, 0.0)
    # last 1-node is at -dx, first 0-node at 0: crossing halfway
    assert rf.front_position(profile, g, 0.5) == pytest.approx(-g.dx / 2.0)


def test_front_position_no_crossing():
    g = line_grid()
    with pytest.raises(NoCrossingError):
        rf.front_position(np.zeros(g.nx), g, 0.5)
    with pytest.raises(NoCrossingError):
        rf.front_position(np.ones(g.nx), g, 0.5)


def test_front_position_translation_equivariance():
    g = line_grid(nx=81)
    x = g.x()
    profile = 1.0 / (1.0 + np.exp(4.0 * (x + 3.0)))
    base = rf.front_position(profile, g, 0.5)
    for k in (1, 3, 10):
        shifted = np.concatenate([np.full(k, profile[0]), profile[:-k]])
        moved = rf.front_position(shifted, g, 0.5)
        assert moved == pytest.approx(base + k * g.dx, abs=1e-12)


def test_front_position_rightmost_crossing_wins():
    g = line_grid()
    x = g.x()
    # non-monotone transient behind the front: two down-crossings, take the right one
    profile = np.where(x < -5.0, 1.0, np.where(x < -2.0, 0.2, np.where(x < 2.0, 0.8, 0.0)))
    pos = rf.front_position(profile, g, 0.5)
    assert 1.0 < pos < 2.5


def test_front_position_shape_check():
    g = line_grid()
    with pytest.raises(GridMismatchError):
        rf.front_position(np.zeros(7), g, 0.5)


@pytest.mark.parametrize("profile", [[1.0, 1.0, math.nan, 0.0, 0.0],
                                     [1.0, 1.0, 0.2, math.inf, 0.0]], ids=["nan", "inf"])
def test_front_position_rejects_a_non_finite_profile(profile):
    # both once returned nan
    g = line_grid(nx=5)
    with pytest.raises(ValueError, match="non-finite"):
        rf.front_position(profile, g, 0.5)


def _scan_front(profile, grid, threshold):
    """The rightmost crossing by a node-by-node scan from x_max inward; None without one."""
    x = grid.x()
    for i in range(grid.nx - 2, -1, -1):
        if profile[i] >= threshold and not profile[i + 1] >= threshold:
            frac = (profile[i] - threshold) / (profile[i] - profile[i + 1])
            return float(x[i] + frac * grid.dx)
    return None


# plateaus and values exactly at the level come from the sampled values
_level = st.sampled_from([0.25, 0.5])
_value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.5))


@settings(max_examples=200, deadline=None)
@given(nx=st.integers(3, 24), threshold=_level, data=st.data())
def test_the_crossing_finder_is_the_scan_bit_for_bit(nx, threshold, data):
    grid = rf.Grid(x_min=-3.0, x_max=4.0, y_max=1.0, nx=nx, ny=3, dt=1.0)
    n = data.draw(st.integers(1, 6))
    rows = st.lists(_value, min_size=nx, max_size=nx)
    road = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)))
    trace = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)))
    expected = {}
    for j, profile in enumerate(road):
        front = _scan_front(profile, grid, threshold)
        if front is None:
            with pytest.raises(NoCrossingError):
                rf.front_position(profile, grid, threshold)
        else:
            expected[j] = rf.front_position(profile, grid, threshold)
            assert np.float64(expected[j]).tobytes() == np.float64(front).tobytes()
    times = 0.5 * np.arange(n)
    record = rf.RunRecord(times=times, mass=np.zeros(n), road=road, field_trace=trace,
                          final_state=rf.FieldState(t=times[-1], u=road[-1],
                                                    v=np.zeros((nx, grid.ny))))
    series = rf.front_series(record, grid, rf.Channel.ROAD, threshold)
    assert series.times.tobytes() == times[list(expected)].tobytes()
    assert series.positions.tobytes() == np.array(list(expected.values()), dtype=float).tobytes()
    trace_series = rf.front_series(record, grid, rf.Channel.FIELD_TRACE, threshold)
    fronts = [_scan_front(profile, grid, threshold) for profile in trace]
    assert trace_series.positions.tolist() == [x for x in fronts if x is not None]


# --- fit_speed ------------------------------------------------------------------------


def test_fit_speed_exact_line():
    t = np.linspace(0.0, 10.0, 50)
    series = rf.FrontSeries(times=t, positions=3.0 * t + 1.0, threshold=0.5,
                            channel=rf.Channel.ROAD)
    est = rf.fit_speed(series, 1.0)
    assert est.speed == pytest.approx(3.0, abs=1e-12)
    assert est.intercept == pytest.approx(1.0, abs=1e-11)
    assert est.residual_rms <= 1e-12
    assert est.fit_window == (0.0, 10.0)


def test_fit_speed_matches_closed_form_ols():
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 20.0, 80)
    x = 2.0 * t + rng.normal(0.0, 0.3, t.size)
    series = rf.FrontSeries(times=t, positions=x, threshold=0.5, channel=rf.Channel.ROAD)
    est = rf.fit_speed(series, 1.0)
    slope, intercept = ols_slope_intercept(t, x)
    assert est.speed == pytest.approx(slope, abs=1e-12)
    assert est.intercept == pytest.approx(intercept, abs=1e-12)


def test_fit_speed_grid_dither_noise_bound():
    # level crossings on a lattice dither by +-dx/2 around the true line
    dx = 0.25
    t = np.linspace(10.0, 30.0, 100)
    dither = (dx / 2.0) * np.where(np.arange(t.size) % 2 == 0, 1.0, -1.0)
    series = rf.FrontSeries(times=t, positions=2.0 * t + dither, threshold=0.5,
                            channel=rf.Channel.ROAD)
    est = rf.fit_speed(series, 1.0)
    # OLS slope error from bounded dither is at most ~dx over the time span
    assert abs(est.speed - 2.0) <= dx / (t[-1] - t[0]) * 4.0
    assert est.residual_rms <= dx


def test_fit_speed_window_selects_tail():
    t = np.linspace(0.0, 10.0, 40)
    x = np.where(t < 5.0, 0.0, 2.0 * (t - 5.0))  # transient then straight line
    series = rf.FrontSeries(times=t, positions=x, threshold=0.5, channel=rf.Channel.ROAD)
    est = rf.fit_speed(series, 0.5)
    assert est.fit_window[0] >= 5.0
    assert est.speed == pytest.approx(2.0, abs=1e-12)


def test_fit_speed_too_few_samples():
    t = np.linspace(0.0, 1.0, 5)
    series = rf.FrontSeries(times=t, positions=t, threshold=0.5, channel=rf.Channel.ROAD)
    with pytest.raises(TooFewSamplesError):
        rf.fit_speed(series, 1.0)
    with pytest.raises(ValueError):
        rf.fit_speed(series, 0.0)


# --- measured-speed stability on a real run ---------------------------------------------


def test_threshold_insensitivity(medium_run):
    params, grid, record = medium_run
    speeds = []
    for theta in (0.1, 0.5, 0.9):
        series = rf.front_series(record, grid, rf.Channel.FIELD_TRACE, theta)
        speeds.append(rf.fit_speed(series, 0.5).speed)
    # KPP front speed measurements are threshold-insensitive at leading order
    assert max(speeds) - min(speeds) <= 0.08 * np.mean(speeds)


def test_window_stability(medium_run):
    params, grid, record = medium_run
    series = rf.front_series(record, grid, rf.Channel.ROAD, 0.5)
    full = rf.fit_speed(series, 1.0).speed
    half = rf.fit_speed(series, 0.5).speed
    assert abs(full - half) <= 0.06 * half


def test_road_and_trace_channels_agree(medium_run):
    params, grid, record = medium_run
    road = rf.fit_speed(rf.front_series(record, grid, rf.Channel.ROAD,
                                        0.5 * params.nu / params.mu), 0.5).speed
    trace = rf.fit_speed(rf.front_series(record, grid, rf.Channel.FIELD_TRACE, 0.5), 0.5).speed
    assert abs(road - trace) <= 0.03 * trace


def test_spreading_dichotomy_medium_scale(medium_run):
    # at t=25 the wake is still relaxing, so the invaded window is tested at
    # 0.5*c_hat*t here; the full 0.8/1.2 window is checked on the converged
    # baseline run in the acceptance suite
    params, grid, record = medium_run
    series = rf.front_series(record, grid, rf.Channel.ROAD, 0.5)
    c_hat = rf.fit_speed(series, 0.5).speed
    t_end = record.final_state.t
    x = grid.x()
    u = record.final_state.u
    v0 = record.final_state.v[:, 0]
    ahead = x >= 1.2 * c_hat * t_end
    behind = np.abs(x) <= 0.5 * c_hat * t_end
    assert ahead.any()
    assert u[ahead].max() <= 1e-3 and v0[ahead].max() <= 1e-3
    assert u[behind].min() >= 0.9 * params.nu / params.mu
    assert v0[behind].min() >= 0.9


def test_measured_speed_self_converges_under_refinement(medium_run):
    # halving dx, dy moves the fitted speed by far less than the 10% quoted
    # measurement tolerance
    params, fine_grid, fine_record = medium_run
    coarse_grid = rf.build_grid(-60.0, 60.0, 15.0, 0.5, 0.5, params, 0.4)
    every = max(1, int(round(0.25 / coarse_grid.dt)))
    coarse_record = rf.run(params, coarse_grid, rf.InitialDatum.compact_bump(),
                           t_end=25.0, snapshot_every=every)
    coarse = rf.fit_speed(rf.front_series(coarse_record, coarse_grid,
                                          rf.Channel.ROAD, 0.5), 0.5).speed
    fine = rf.fit_speed(rf.front_series(fine_record, fine_grid,
                                        rf.Channel.ROAD, 0.5), 0.5).speed
    assert abs(coarse - fine) <= 0.02 * fine


def test_front_position_refinement_consistency():
    # sampling the same smooth profile on finer grids converges at least O(dx)
    errors = []
    for nx in (81, 161, 321):
        g = rf.Grid(x_min=-10.0, x_max=10.0, y_max=5.0, nx=nx, ny=11, dt=0.01)
        profile = 1.0 / (1.0 + np.exp(3.0 * (g.x() - 1.234)))
        errors.append(abs(rf.front_position(profile, g, 0.5) - 1.234))
    assert errors[1] <= errors[0] / 2.0
    assert errors[2] <= errors[1] / 2.0


def test_front_series_skips_snapshots_without_crossing(medium_run):
    params, grid, record = medium_run
    # an absurdly high level is never reached: series is empty, not an error
    series = rf.front_series(record, grid, rf.Channel.ROAD, 50.0)
    assert len(series) == 0


# --- ordering and steady state ------------------------------------------------------------


def test_is_ordered_reflexive_and_zero():
    g = line_grid()
    a = rf.FieldState(t=0.0, u=np.linspace(0, 1, g.nx), v=np.ones((g.nx, g.ny)))
    zero = rf.FieldState(t=0.0, u=np.zeros(g.nx), v=np.zeros((g.nx, g.ny)))
    assert rf.is_ordered(a, a)
    assert rf.is_ordered(zero, a)
    assert not rf.is_ordered(a, zero)


def test_is_ordered_grid_mismatch():
    g = line_grid()
    a = rf.FieldState(t=0.0, u=np.zeros(g.nx), v=np.zeros((g.nx, g.ny)))
    b = rf.FieldState(t=0.0, u=np.zeros(g.nx + 1), v=np.zeros((g.nx + 1, g.ny)))
    with pytest.raises(GridMismatchError):
        rf.is_ordered(a, b)


def test_steady_error_at_equilibrium_and_zero():
    g = line_grid()
    params = rf.ModelParams(D=1.0, d=1.0, mu=2.0, nu=1.0)
    eq = rf.FieldState(t=0.0, u=np.full(g.nx, 0.5), v=np.ones((g.nx, g.ny)))
    assert rf.steady_error(eq, params, g, 3.0) == (0.0, 0.0)
    zero = rf.FieldState(t=0.0, u=np.zeros(g.nx), v=np.zeros((g.nx, g.ny)))
    assert rf.steady_error(zero, params, g, 3.0) == (0.5, 1.0)


def test_steady_error_window_validation():
    g = line_grid()
    state = rf.FieldState(t=0.0, u=np.zeros(g.nx), v=np.zeros((g.nx, g.ny)))
    with pytest.raises(ValueError):
        rf.steady_error(state, P1, g, 100.0)
    with pytest.raises(ValueError):
        rf.steady_error(state, P1, g, 0.0)


# --- CSV -------------------------------------------------------------------------------


def test_front_series_csv(tmp_path):
    series = rf.FrontSeries(times=np.array([0.0, 1.0]), positions=np.array([0.5, 2.5]),
                            threshold=0.5, channel=rf.Channel.ROAD)
    path = tmp_path / "fronts.csv"
    write_front_series_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_front"
    assert [float(v) for v in lines[2].split(",")] == [1.0, 2.5]


def test_speed_estimate_csv(tmp_path):
    est = rf.SpeedEstimate(speed=2.0, intercept=1.0, fit_window=(5.0, 10.0),
                           residual_rms=0.125)
    path = tmp_path / "speed.csv"
    write_speed_estimate_csv(est, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "speed,intercept,residual_rms,t_lo,t_hi"
    vals = [float(v) for v in lines[1].split(",")]
    assert vals == [2.0, 1.0, 0.125, 5.0, 10.0]
