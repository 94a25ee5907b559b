import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import roadfield as rf
from roadfield import simulate
from roadfield.errors import (
    BlowUpError,
    CflViolationError,
    EmptyDatumError,
)

P1 = rf.ModelParams(D=1.0, d=1.0, mu=1.0, nu=1.0, f_prime_0=1.0)


def small_grid(params=P1, safety=0.4):
    return rf.build_grid(-10.0, 10.0, 5.0, 0.5, 0.5, params, safety)


# --- grid and CFL ------------------------------------------------------------------


def test_grid_spacing_properties():
    g = rf.Grid(x_min=-1.0, x_max=1.0, y_max=1.0, nx=5, ny=3, dt=0.01)
    assert g.dx == pytest.approx(0.5)
    assert g.dy == pytest.approx(0.5)
    assert np.allclose(g.x(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(g.y(), [0.0, 0.5, 1.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        rf.Grid(x_min=0.0, x_max=1.0, y_max=1.0, nx=2, ny=5, dt=0.01)
    with pytest.raises(ValueError):
        rf.Grid(x_min=1.0, x_max=0.0, y_max=1.0, nx=5, ny=5, dt=0.01)
    with pytest.raises(ValueError):
        rf.Grid(x_min=0.0, x_max=1.0, y_max=1.0, nx=5, ny=5, dt=0.0)


def test_build_grid_rejects_non_dividing_spacing():
    with pytest.raises(ValueError, match="does not divide"):
        rf.build_grid(0.0, 1.0, 1.0, 0.3, 0.5, P1)


def test_cfl_dt_formula():
    g = rf.Grid(x_min=-10.0, x_max=10.0, y_max=5.0, nx=41, ny=11, dt=1.0)
    # dx=dy=0.5: min(0.125, 0.0625, 1/3) * 0.4 = 0.025
    assert rf.cfl_dt(g, P1, 0.4) == pytest.approx(0.025, abs=1e-15)


def test_cfl_dt_drops_road_term_when_D_zero():
    g = rf.Grid(x_min=-10.0, x_max=10.0, y_max=5.0, nx=41, ny=11, dt=1.0)
    # with a very diffusive road the dx^2/(2D) term binds; with D=0 it is gone
    fast = rf.ModelParams(D=100.0, d=1.0, mu=1.0)
    none = rf.ModelParams(D=0.0, d=1.0, mu=1.0)
    assert rf.cfl_dt(g, fast, 0.4) == pytest.approx(0.4 * 0.25 / 200.0, abs=1e-15)
    assert rf.cfl_dt(g, none, 0.4) == pytest.approx(0.4 * 0.0625, abs=1e-15)


def test_cfl_dt_quarter_under_half_spacing():
    g1 = rf.Grid(x_min=-10.0, x_max=10.0, y_max=5.0, nx=41, ny=11, dt=1.0)
    g2 = rf.Grid(x_min=-10.0, x_max=10.0, y_max=5.0, nx=81, ny=21, dt=1.0)
    # diffusion-limited regime: halving dx and dy quarters the step
    assert rf.cfl_dt(g2, P1, 0.4) == pytest.approx(rf.cfl_dt(g1, P1, 0.4) / 4.0, rel=1e-12)


def test_cfl_dt_safety_validation():
    g = small_grid()
    with pytest.raises(ValueError):
        rf.cfl_dt(g, P1, 0.0)
    with pytest.raises(ValueError):
        rf.cfl_dt(g, P1, 2.0)


# --- initial data -------------------------------------------------------------------


def test_compact_bump_samples_expected_shape():
    g = small_grid()
    state = rf.init_state(g, rf.InitialDatum.compact_bump(center=0.0, width=2.0))
    assert state.t == 0.0
    assert np.all(state.u == 0.0)
    # bump is centred at (0, 1): that node carries the full amplitude
    i0 = np.argmin(np.abs(g.x()))
    j1 = np.argmin(np.abs(g.y() - 1.0))
    assert state.v[i0, j1] == pytest.approx(1.0)
    assert state.v.max() == pytest.approx(1.0)
    # support is the width-2 disc around (0, 1)
    X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
    outside = (X**2 + (Y - 1.0) ** 2) > 4.0001
    assert np.all(state.v[outside] == 0.0)


def test_road_only_bump():
    g = small_grid()
    state = rf.init_state(g, rf.InitialDatum.road_only_bump(center=1.0, width=2.0, amplitude_u=0.5))
    assert np.all(state.v == 0.0)
    x = g.x()
    assert np.all(state.u[np.abs(x - 1.0) < 2.0] > 0.0)
    assert np.all(state.u[np.abs(x - 1.0) >= 2.0] == 0.0)
    # the node at the centre carries the full amplitude
    assert state.u.max() == state.u[np.argmin(np.abs(x - 1.0))] == 0.5


def test_bump_outside_grid_is_empty():
    g = small_grid()
    with pytest.raises(EmptyDatumError):
        rf.init_state(g, rf.InitialDatum.compact_bump(center=100.0, width=1.0))


def test_custom_datum_validation():
    g = small_grid()
    datum = rf.InitialDatum.custom(
        u_init=lambda x: np.ones_like(x),
        v_init=lambda X, Y: np.zeros_like(X),
    )
    state = rf.init_state(g, datum)
    assert np.all(state.u == 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        rf.init_state(g, rf.InitialDatum.custom(
            u_init=lambda x: -np.ones_like(x),
            v_init=lambda X, Y: np.zeros_like(X)))
    with pytest.raises(ValueError, match="shape"):
        rf.init_state(g, rf.InitialDatum.custom(
            u_init=lambda x: np.ones(3),
            v_init=lambda X, Y: np.zeros_like(X)))
    with pytest.raises(ValueError):
        rf.InitialDatum.custom(u_init=None, v_init=lambda X, Y: X)


def test_datum_parameter_validation():
    with pytest.raises(ValueError):
        rf.InitialDatum.compact_bump(width=0.0)
    with pytest.raises(ValueError):
        rf.InitialDatum.compact_bump(amplitude_v=-1.0)


# --- single step ----------------------------------------------------------------------


def test_step_zero_state_is_fixed():
    g = small_grid()
    z = rf.FieldState(t=0.0, u=np.zeros(g.nx), v=np.zeros((g.nx, g.ny)))
    out = rf.step(z, P1, g)
    assert np.all(out.u == 0.0) and np.all(out.v == 0.0)
    assert out.t == g.dt


@pytest.mark.parametrize("params", [
    P1,
    rf.ModelParams(D=3.0, d=0.5, mu=0.5, nu=2.0, f_prime_0=1.0),
])
def test_step_invaded_state_is_fixed(params):
    g = small_grid(params)
    eq = rf.FieldState(t=0.0, u=np.full(g.nx, params.nu / params.mu),
                       v=np.ones((g.nx, g.ny)))
    out = rf.step(eq, params, g)
    assert np.array_equal(out.u, eq.u)
    assert np.array_equal(out.v, eq.v)


def test_step_road_bump_feeds_the_field():
    g = small_grid()
    state = rf.init_state(g, rf.InitialDatum.road_only_bump(width=2.0))
    out = rf.step(state, P1, g)
    x = g.x()
    under = np.abs(x) < 2.0
    # exchange flux mu*u > 0 enters the field trace under the bump
    assert np.all(out.v[under, 0] > 0.0)
    assert np.all(out.v[~under, 0] == 0.0)


def test_step_preserves_nonnegativity():
    rng = np.random.default_rng(101)
    g = small_grid()
    state = rf.FieldState(t=0.0, u=rng.random(g.nx),
                          v=rng.random((g.nx, g.ny)))
    for _ in range(100):
        state = rf.step(state, P1, g)
        assert state.u.min() >= 0.0 and state.v.min() >= 0.0


def test_step_blowup_on_oversized_dt():
    base = small_grid()
    bad = rf.Grid(x_min=base.x_min, x_max=base.x_max, y_max=base.y_max,
                  nx=base.nx, ny=base.ny, dt=2.5 * rf.cfl_dt(base, P1, 1.0))
    state = rf.init_state(bad, rf.InitialDatum.compact_bump())
    with pytest.raises(BlowUpError):
        for _ in range(500):
            state = rf.step(state, P1, bad, max_value=10.0)


def test_step_shape_mismatch():
    g = small_grid()
    with pytest.raises(ValueError):
        rf.step(rf.FieldState(t=0.0, u=np.zeros(7), v=np.zeros((7, 5))), P1, g)


# --- ordering (discrete comparison principle) -------------------------------------------


def test_ordered_states_stay_ordered():
    g = small_grid()
    nu_mu = P1.nu / P1.mu
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        u_lo = 0.5 * nu_mu * rng.random(g.nx)
        v_lo = 0.5 * rng.random((g.nx, g.ny))
        lo = rf.FieldState(t=0.0, u=u_lo, v=v_lo)
        hi = rf.FieldState(t=0.0, u=u_lo + 0.5 * nu_mu * rng.random(g.nx),
                           v=v_lo + 0.5 * rng.random((g.nx, g.ny)))
        for _ in range(100):
            lo = rf.step(lo, P1, g)
            hi = rf.step(hi, P1, g)
            assert rf.is_ordered(lo, hi)


# --- mass ---------------------------------------------------------------------------


def test_total_mass_zero_state():
    g = small_grid()
    assert rf.total_mass(rf.FieldState(t=0.0, u=np.zeros(g.nx),
                                       v=np.zeros((g.nx, g.ny))), g) == 0.0


def test_total_mass_exact_constant():
    # u = 1 on [0, 1] sampled exactly, v = 0: trapezoid integrates to 1
    g = rf.Grid(x_min=0.0, x_max=1.0, y_max=1.0, nx=11, ny=3, dt=0.01)
    state = rf.FieldState(t=0.0, u=np.ones(g.nx), v=np.zeros((g.nx, g.ny)))
    assert rf.total_mass(state, g) == pytest.approx(1.0, abs=1e-15)


def test_mass_conserved_without_reaction():
    g = rf.build_grid(-15.0, 15.0, 8.0, 0.25, 0.25, P1, 0.4)
    rec = rf.run(P1, g, rf.InitialDatum.compact_bump(), t_end=1.0,
                 snapshot_every=25, reaction=None)
    drift = np.abs(rec.mass - rec.mass[0]).max() / rec.mass[0]
    assert drift <= 1e-9


# --- run ----------------------------------------------------------------------------


def test_run_zero_time_records_initial_snapshot_only():
    g = small_grid()
    rec = rf.run(P1, g, rf.InitialDatum.compact_bump(), t_end=0.0)
    assert len(rec.times) == 1 and rec.times[0] == 0.0
    assert rec.final_state.t == 0.0


def test_run_snapshot_times_strictly_increasing():
    g = small_grid()
    rec = rf.run(P1, g, rf.InitialDatum.compact_bump(), t_end=1.0, snapshot_every=7)
    assert np.all(np.diff(rec.times) > 0.0)
    assert rec.times[-1] == pytest.approx(1.0, abs=g.dt)
    assert len(rec.road_profile_snapshots) == len(rec.times)
    assert len(rec.field_trace_snapshots) == len(rec.times)


def test_run_is_deterministic():
    g = small_grid()
    datum = rf.InitialDatum.compact_bump()
    rec1 = rf.run(P1, g, datum, t_end=0.5, snapshot_every=5)
    rec2 = rf.run(P1, g, datum, t_end=0.5, snapshot_every=5)
    assert np.array_equal(rec1.mass, rec2.mass)
    assert np.array_equal(rec1.final_state.u, rec2.final_state.u)
    assert np.array_equal(rec1.final_state.v, rec2.final_state.v)


def test_run_stays_below_supersolution_bound():
    g = small_grid()
    rec = rf.run(P1, g, rf.InitialDatum.compact_bump(), t_end=4.0, snapshot_every=10)
    # logistic growth from a sub-1 bump never overshoots max(1, sup v0)
    eps = 1e-9
    assert rec.final_state.v.max() <= 1.0 + eps
    assert rec.final_state.u.max() <= 1.0 + eps
    for _, u in rec.road_profile_snapshots:
        assert u.max() <= 1.0 + eps


def test_run_rejects_unstable_dt():
    base = small_grid()
    bad = rf.Grid(x_min=base.x_min, x_max=base.x_max, y_max=base.y_max,
                  nx=base.nx, ny=base.ny, dt=3.0 * rf.cfl_dt(base, P1, 1.0))
    with pytest.raises(CflViolationError):
        rf.run(P1, bad, rf.InitialDatum.compact_bump(), t_end=1.0)


def test_run_blowup_names_the_step():
    # bypass the run-level CFL guard by faking a huge reaction instead
    g = small_grid()
    angry = rf.ReactionFunction(lambda s: 50.0 * s, f_prime_0=1.0)
    with pytest.raises(BlowUpError) as excinfo:
        rf.run(P1, g, rf.InitialDatum.compact_bump(), t_end=5.0, reaction=angry)
    assert excinfo.value.step is not None and excinfo.value.step > 0


def test_run_validates_arguments():
    g = small_grid()
    with pytest.raises(ValueError):
        rf.run(P1, g, rf.InitialDatum.compact_bump(), t_end=-1.0)
    with pytest.raises(ValueError):
        rf.run(P1, g, rf.InitialDatum.compact_bump(), t_end=1.0, snapshot_every=0)


# --- mirror fold ---------------------------------------------------------------------


def _spy_advance(monkeypatch) -> list[tuple[int, int]]:
    """Record (columns advanced, road substeps) for each kernel call of run()."""
    calls: list[tuple[int, int]] = []
    kernel = simulate._advance

    def spy(u, v, out_u, out_v, params, dt, dx, dy, reaction, work, substeps=1):
        calls.append((u.shape[0], substeps))
        return kernel(u, v, out_u, out_v, params, dt, dx, dy, reaction, work, substeps)

    monkeypatch.setattr(simulate, "_advance", spy)
    return calls


def _iterate_step(params, grid, datum, n_steps, snapshot_every, **kw):
    state = rf.init_state(grid, datum)
    masses = [rf.total_mass(state, grid)]
    for k in range(1, n_steps + 1):
        state = rf.step(state, params, grid, **kw)
        if k % snapshot_every == 0 or k == n_steps:
            masses.append(rf.total_mass(state, grid))
    return state, np.asarray(masses)


@pytest.mark.parametrize("reaction", ["logistic", None])
@pytest.mark.parametrize("center, folded", [(0.0, True), (1.5, False)])
def test_run_equals_iterated_step_bit_for_bit(monkeypatch, reaction, center, folded):
    # D = 1.5 < dx^2 / (2 * field bound): the road does not bind, so run()
    # takes one grid step per kernel call and must match step() exactly
    params = rf.ModelParams(D=1.5, d=1.0, mu=1.1, nu=0.9, f_prime_0=0.95)
    grid = rf.build_grid(-12.0, 12.0, 6.0, 0.25, 0.25, params, 0.4)
    datum = rf.InitialDatum.compact_bump(center=center, amplitude_u=0.5)
    kw = {} if reaction == "logistic" else {"reaction": None}
    calls = _spy_advance(monkeypatch)
    rec = rf.run(params, grid, datum, t_end=150 * grid.dt, snapshot_every=20, **kw)
    assert set(calls) == {(grid.nx // 2 + 1 if folded else grid.nx, 1)}
    state, masses = _iterate_step(params, grid, datum, 150, 20, **kw)
    assert np.array_equal(rec.final_state.u, state.u)
    assert np.array_equal(rec.final_state.v, state.v)
    assert np.array_equal(rec.mass, masses)
    last_u = rec.road_profile_snapshots[-1][1]
    assert last_u.shape == (grid.nx,) and np.array_equal(last_u, state.u)
    assert np.array_equal(rec.field_trace_snapshots[-1][1], state.v[:, 0])


def test_even_nx_runs_the_full_domain(monkeypatch):
    grid = rf.Grid(x_min=-10.0, x_max=10.0, y_max=5.0, nx=40, ny=11, dt=0.02)
    calls = _spy_advance(monkeypatch)
    rec = rf.run(P1, grid, rf.InitialDatum.compact_bump(), t_end=10 * grid.dt)
    assert {width for width, _ in calls} == {grid.nx}
    assert rec.final_state.u.shape == (grid.nx,)


def test_folded_blowup_names_the_same_step():
    g = small_grid()
    angry = rf.ReactionFunction(lambda s: 50.0 * s, f_prime_0=1.0)
    with pytest.raises(BlowUpError) as folded:
        rf.run(P1, g, rf.InitialDatum.compact_bump(), t_end=5.0, reaction=angry)
    state = rf.init_state(g, rf.InitialDatum.compact_bump())
    cap = simulate._blowup_cap(state.u, state.v, P1)
    with pytest.raises(BlowUpError):
        for k in range(1, 1000):
            state = rf.step(state, P1, g, reaction=angry, max_value=cap)
    assert folded.value.step == k


_half_u = arrays(np.float64, st.integers(2, 9), elements=st.floats(0.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    half_u=_half_u,
    ny=st.integers(3, 7),
    D=st.floats(0.0, 20.0),
    d=st.floats(0.1, 3.0),
    mu=st.floats(0.1, 3.0),
    nu=st.floats(0.1, 3.0),
    with_reaction=st.booleans(),
)
def test_step_maps_mirror_symmetric_states_to_symmetric_states(
    data, half_u, ny, D, d, mu, nu, with_reaction
):
    params = rf.ModelParams(D=D, d=d, mu=mu, nu=nu)
    half_v = data.draw(arrays(np.float64, (half_u.size, ny), elements=st.floats(0.0, 2.0)))
    u, v = simulate._unfold(half_u), simulate._unfold(half_v)
    nx = u.size
    probe = rf.Grid(x_min=-0.5 * (nx - 1), x_max=0.5 * (nx - 1), y_max=0.3 * (ny - 1),
                    nx=nx, ny=ny, dt=1.0)
    grid = rf.Grid(x_min=probe.x_min, x_max=probe.x_max, y_max=probe.y_max,
                   nx=nx, ny=ny, dt=rf.cfl_dt(probe, params, 0.9))
    out = rf.step(rf.FieldState(t=0.0, u=u, v=v), params, grid,
                  reaction=params.reaction if with_reaction else None)
    assert np.array_equal(out.u, out.u[::-1])
    assert np.array_equal(out.v, out.v[::-1])


# --- multirate road -------------------------------------------------------------------

P10 = rf.ModelParams(D=10.0, d=1.0, mu=1.1, nu=0.9, f_prime_0=0.95)


def fast_road_grid(params=P10, dx=0.25):
    # road bound dx^2/20 is a fifth of the field bound 1/(2(1/dx^2+1/dy^2))
    return rf.build_grid(-12.0, 12.0, 6.0, dx, dx, params, 0.4)


@pytest.mark.parametrize("D, dx, expected", [
    (0.0, 0.5, 1), (1.0, 0.5, 1), (4.0, 0.25, 2), (10.0, 0.5, 5), (10.0, 0.25, 5),
    (100.0, 0.5, 50), (1000.0, 0.1, 500),
])
def test_road_substeps(D, dx, expected):
    params = rf.ModelParams(D=D, d=1.0, mu=1.0)
    grid = rf.build_grid(-30.0, 30.0, 6.0, dx, dx, params, 0.4)
    assert simulate.road_substeps(grid, params) == expected


def test_cfl_dt_includes_the_exchange_term():
    # nu = 4 on a dy = 0.5 grid: the road row loses 2*dt*nu/dy through the ghost
    g = rf.Grid(x_min=-10.0, x_max=10.0, y_max=5.0, nx=41, ny=11, dt=1.0)
    params = rf.ModelParams(D=1.0, d=0.5, mu=1.0, nu=4.0)
    assert rf.cfl_dt(g, params, 0.4) == pytest.approx(0.4 * 0.5 / 8.0, abs=1e-15)
    assert simulate.road_substeps(g, params) == 1


def test_multirate_fold_equals_full_domain_bit_for_bit(monkeypatch):
    grid = fast_road_grid()
    datum = rf.InitialDatum.compact_bump(amplitude_u=0.5)
    calls = _spy_advance(monkeypatch)
    folded = rf.run(P10, grid, datum, t_end=1.0, snapshot_every=40)
    monkeypatch.setattr(simulate, "_is_mirror_symmetric", lambda u, v: False)
    full = rf.run(P10, grid, datum, t_end=1.0, snapshot_every=40)
    widths = {width for width, _ in calls}
    assert widths == {grid.nx // 2 + 1, grid.nx}
    assert max(m for _, m in calls) == 5
    assert np.array_equal(folded.times, full.times)
    assert np.array_equal(folded.mass, full.mass)
    for (_, a), (_, b) in zip(folded.road_profile_snapshots, full.road_profile_snapshots):
        assert np.array_equal(a, b)
    for (_, a), (_, b) in zip(folded.field_trace_snapshots, full.field_trace_snapshots):
        assert np.array_equal(a, b)
    assert np.array_equal(folded.final_state.u, full.final_state.u)
    assert np.array_equal(folded.final_state.v, full.final_state.v)


def test_multirate_conserves_mass_without_reaction():
    params = rf.ModelParams(D=10.0, d=1.0, mu=1.0, nu=1.0)
    grid = rf.build_grid(-15.0, 15.0, 8.0, 0.25, 0.25, params, 0.4)
    assert simulate.road_substeps(grid, params) == 5
    datum = rf.InitialDatum.compact_bump(center=1.0, amplitude_u=0.7)
    rec = rf.run(params, grid, datum, t_end=2.0, snapshot_every=50, reaction=None)
    drift = np.abs(rec.mass - rec.mass[0]).max() / rec.mass[0]
    assert drift <= 1e-12


def test_multirate_keeps_ordered_data_ordered_and_nonnegative():
    grid = fast_road_grid(dx=0.5)
    assert simulate.road_substeps(grid, P10) == 5
    nu_mu = P10.nu / P10.mu
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        u_lo = 0.5 * nu_mu * rng.random(grid.nx)
        v_lo = 0.5 * rng.random((grid.nx, grid.ny))
        u_hi = u_lo + 0.5 * nu_mu * rng.random(grid.nx)
        v_hi = v_lo + 0.5 * rng.random((grid.nx, grid.ny))
        lo = rf.run(P10, grid, rf.InitialDatum.custom(lambda x: u_lo, lambda X, Y: v_lo),
                    t_end=2.0, snapshot_every=10)
        hi = rf.run(P10, grid, rf.InitialDatum.custom(lambda x: u_hi, lambda X, Y: v_hi),
                    t_end=2.0, snapshot_every=10)
        assert rf.is_ordered(lo.final_state, hi.final_state)
        assert lo.final_state.u.min() >= 0.0 and lo.final_state.v.min() >= 0.0
        for (_, a), (_, b) in zip(lo.road_profile_snapshots, hi.road_profile_snapshots):
            assert np.all(a <= b) and a.min() >= 0.0
        for (_, a), (_, b) in zip(lo.field_trace_snapshots, hi.field_trace_snapshots):
            assert np.all(a <= b) and a.min() >= 0.0


def test_multirate_keeps_the_single_rate_schedule(monkeypatch):
    grid = fast_road_grid()
    calls = _spy_advance(monkeypatch)
    n_steps = 101
    rec = rf.run(P10, grid, rf.InitialDatum.compact_bump(), t_end=n_steps * grid.dt,
                 snapshot_every=7)
    steps = [k for k in range(n_steps + 1) if k % 7 == 0 or k == n_steps]
    assert np.array_equal(rec.times, np.asarray([k * grid.dt for k in steps]))
    assert rec.final_state.t == n_steps * grid.dt
    substeps = [m for _, m in calls]
    assert sum(substeps) == n_steps and max(substeps) == 5


def test_multirate_blowup_names_a_grid_step():
    grid = fast_road_grid(dx=0.5)
    angry = rf.ReactionFunction(lambda s: 50.0 * s, f_prime_0=1.0)
    with pytest.raises(BlowUpError) as excinfo:
        rf.run(P10, grid, rf.InitialDatum.compact_bump(), t_end=5.0,
               snapshot_every=10, reaction=angry)
    step = excinfo.value.step
    assert step is not None and step % 5 == 0 and excinfo.value.t == step * grid.dt


def test_multirate_converges_to_the_single_rate_scheme():
    # the road sub-cycling error is first order in the field step, which
    # shrinks fourfold when dx and dy halve
    params = rf.ModelParams(D=10.0, d=1.0, mu=1.0, nu=1.0)
    datum = rf.InitialDatum.compact_bump(amplitude_u=0.5)
    gaps = []
    for dx in (0.5, 0.25):
        grid = rf.build_grid(-15.0, 15.0, 7.5, dx, dx, params, 0.4)
        assert simulate.road_substeps(grid, params) == 5
        n_steps = int(round(5.0 / grid.dt))
        rec = rf.run(params, grid, datum, t_end=5.0, snapshot_every=n_steps)
        state, _ = _iterate_step(params, grid, datum, n_steps, n_steps)
        gaps.append(max(np.abs(rec.final_state.u - state.u).max(),
                        np.abs(rec.final_state.v - state.v).max()))
    assert gaps[0] >= 3.0 * gaps[1] > 0.0


@pytest.mark.slow
def test_front_speed_in_the_sqrt_D_regime():
    # D = 100: the road drives the front at c*(100) = 9.52, close to the
    # large-D law sqrt(D) * limit_speed; 50 road substeps per field step
    params = rf.ModelParams(D=100.0, d=1.0, mu=1.0, nu=1.0)
    c_star = rf.critical_speed(params).c_star
    half = math.ceil((c_star * 40.0 + 20.0) / 10.0) * 10.0
    grid = rf.build_grid(-half, half, 15.0, 0.5, 0.5, params, 0.4)
    assert simulate.road_substeps(grid, params) == 50
    rec = rf.run(params, grid, rf.InitialDatum.compact_bump(), t_end=40.0,
                 snapshot_every=int(round(0.5 / grid.dt)))
    series = rf.front_series(rec, grid, rf.Channel.ROAD, 0.5)
    speed = rf.fit_speed(series, 0.5).speed
    assert abs(speed - c_star) <= 0.10 * c_star
    lo, hi = rf.limit_bounds(params)
    assert lo <= (speed / 10.0) ** 2 <= hi


# --- CSV output -----------------------------------------------------------------------


def test_csv_writers_round_trip(tmp_path):
    g = small_grid()
    rec = rf.run(P1, g, rf.InitialDatum.compact_bump(), t_end=0.2, snapshot_every=4)
    from roadfield.simulate import write_field_trace_csv, write_mass_csv, write_road_profiles_csv

    mass_path = tmp_path / "mass.csv"
    write_mass_csv(rec, mass_path)
    lines = mass_path.read_text().splitlines()
    assert lines[0] == "t,mass"
    t0, m0 = lines[1].split(",")
    # 17 significant digits round-trip exactly
    assert float(t0) == rec.times[0] and float(m0) == rec.mass[0]

    road_path = tmp_path / "road.csv"
    write_road_profiles_csv(rec, g, road_path)
    lines = road_path.read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + len(rec.times) * g.nx

    trace_path = tmp_path / "trace.csv"
    write_field_trace_csv(rec, g, trace_path)
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "t,x,v0"
    t, x, v0 = lines[1].split(",")
    assert float(v0) == rec.field_trace_snapshots[0][1][0]
