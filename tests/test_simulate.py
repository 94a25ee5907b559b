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
    n = len(rec.times)
    assert rec.mass.shape == (n,)
    assert rec.road.shape == rec.field_trace.shape == (n, g.nx)


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
    assert rec.road.max() <= 1.0 + eps


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
    # t_end / dt overflows to inf: no finite step count
    with pytest.raises(ValueError, match="finite"):
        rf.run(P1, g, rf.InitialDatum.compact_bump(), t_end=1e308)


# --- mirror fold ---------------------------------------------------------------------


def _spy_advance(monkeypatch) -> list[tuple[int, int]]:
    """Record (columns advanced, road substeps) for each kernel call of run()."""
    calls: list[tuple[int, int]] = []
    kernel = simulate._advance

    def spy(u, v, params, dt, dx, dy, reaction, substeps=1):
        calls.append((u.shape[0], substeps))
        return kernel(u, v, params, dt, dx, dy, reaction, substeps)

    monkeypatch.setattr(simulate, "_advance", spy)
    return calls


def _iterate_step(params, grid, datum, n_steps, snapshot_every, **kw):
    """States of iterated step() at the steps run() records, step 0 first."""
    state = rf.init_state(grid, datum)
    states = [state]
    for k in range(1, n_steps + 1):
        state = rf.step(state, params, grid, **kw)
        if k % snapshot_every == 0 or k == n_steps:
            states.append(state)
    return states


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
    states = _iterate_step(params, grid, datum, 150, 20, **kw)
    assert np.array_equal(rec.final_state.u, states[-1].u)
    assert np.array_equal(rec.final_state.v, states[-1].v)
    assert np.array_equal(rec.mass, [rf.total_mass(s, grid) for s in states])
    # every snapshot, not only the last
    assert np.array_equal(rec.road, [s.u for s in states])
    assert np.array_equal(rec.field_trace, [s.v[:, 0] for s in states])


def test_symmetric_domain_nodes_are_exactly_antisymmetric(monkeypatch):
    # np.linspace misses -x[::-1] at 534 of these 801 nodes, so the centred
    # bump was not its own mirror image and run() integrated the full domain
    params = rf.ModelParams(D=1.0, d=1.0, mu=1.0)
    grid = rf.build_grid(-40.0, 40.0, 2.0, 0.1, 0.1, params, 0.4)
    x = grid.x()
    assert np.array_equal(x, -x[::-1])
    assert x[0] == grid.x_min and x[-1] == grid.x_max
    calls = _spy_advance(monkeypatch)
    rf.run(params, grid, rf.InitialDatum.compact_bump(), t_end=3 * grid.dt, reaction=None)
    assert {width for width, _ in calls} == {grid.nx // 2 + 1}


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


def test_one_step_keeps_a_lowered_equilibrium_under_it():
    # each loss alone is 0.4 of the centre weight here, but the road row's
    # field node takes field diffusion, exchange and reaction at once; the
    # summed-loss cap lowers dt from 0.025 to 1/48
    params = rf.ModelParams(D=1.0, d=1.0, mu=0.1, nu=4.0, f_prime_0=11.9)
    grid = rf.build_grid(-2.0, 2.0, 2.0, 0.5, 0.5, params, 0.4)
    assert grid.dt == pytest.approx(1.0 / 48.0, rel=1e-15)
    u = np.full(grid.nx, params.nu / params.mu)
    v = np.ones((grid.nx, grid.ny))
    v[grid.nx // 2, 0] = 0.999
    out = rf.step(rf.FieldState(t=0.0, u=u, v=v), params, grid)
    assert out.v.max() <= 1.0 and out.u.max() <= params.nu / params.mu


@settings(max_examples=60, deadline=None)
@given(
    D=st.floats(0.0, 50.0),
    d=st.floats(0.1, 3.0),
    mu=st.floats(0.1, 3.0),
    nu=st.floats(0.1, 8.0),
    fp0=st.floats(0.1, 12.0),
    safety=st.floats(0.05, 1.0),
    node=st.sampled_from(["road", "road_row", "field"]),
    dip=st.floats(1e-3, 0.5),
)
def test_step_keeps_any_lowered_equilibrium_under_it(D, d, mu, nu, fp0, safety, node, dip):
    # monotone at every safety in (0, 1]: lowering one node of the equilibrium
    # (nu/mu, 1) lifts no node above it (to rounding)
    params = rf.ModelParams(D=D, d=d, mu=mu, nu=nu, f_prime_0=fp0)
    grid = rf.build_grid(-2.0, 2.0, 2.0, 0.5, 0.5, params, safety)
    u = np.full(grid.nx, nu / mu)
    v = np.ones((grid.nx, grid.ny))
    i = grid.nx // 2
    if node == "road":
        u[i] *= 1.0 - dip
    else:
        v[i, 0 if node == "road_row" else 1] *= 1.0 - dip
    out = rf.step(rf.FieldState(t=0.0, u=u, v=v), params, grid)
    assert out.u.max() <= nu / mu * (1.0 + 1e-12)
    assert out.v.max() <= 1.0 + 1e-12


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
    assert np.array_equal(folded.road, full.road)
    assert np.array_equal(folded.field_trace, full.field_trace)
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
        assert np.all(lo.road <= hi.road) and lo.road.min() >= 0.0
        assert np.all(lo.field_trace <= hi.field_trace) and lo.field_trace.min() >= 0.0


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
        state = _iterate_step(params, grid, datum, n_steps, n_steps)[-1]
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


# --- kernel ---------------------------------------------------------------------------


@pytest.mark.parametrize("substeps", [1, 5])
def test_advance_leaves_its_inputs_unchanged(substeps):
    # run() and the record share arrays: nothing may write to an array once returned
    grid = fast_road_grid(dx=0.5)
    rng = np.random.default_rng(31)
    u, v = rng.random(grid.nx), rng.random((grid.nx, grid.ny))
    u0, v0 = u.copy(), v.copy()
    new_u, new_v = simulate._advance(u, v, P10, grid.dt, grid.dx, grid.dy, P10.reaction,
                                     substeps)
    assert np.array_equal(u, u0) and np.array_equal(v, v0)
    assert not np.shares_memory(new_u, u) and not np.shares_memory(new_v, v)
    assert not np.array_equal(new_u, u0) and not np.array_equal(new_v, v0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(3, 12),
    ny=st.integers(3, 8),
    D_over_2d=st.sampled_from([0.25, 0.9, 1.1, 5.0]),
    d=st.floats(0.1, 3.0),
    mu=st.floats(0.1, 3.0),
    nu=st.floats(0.1, 8.0),
    fp0=st.floats(0.1, 3.0),
    with_reaction=st.booleans(),
)
def test_step_keeps_random_ordered_pairs_ordered_and_nonnegative(
    seed, nx, ny, D_over_2d, d, mu, nu, fp0, with_reaction
):
    # D on both sides of the threshold 2d; dt from cfl_dt at the default safety
    params = rf.ModelParams(D=2.0 * d * D_over_2d, d=d, mu=mu, nu=nu, f_prime_0=fp0)
    probe = rf.Grid(x_min=-1.0, x_max=1.0, y_max=1.0, nx=nx, ny=ny, dt=1.0)
    grid = rf.Grid(x_min=-1.0, x_max=1.0, y_max=1.0, nx=nx, ny=ny,
                   dt=rf.cfl_dt(probe, params, 0.4))
    reaction = params.reaction if with_reaction else None
    # below the equilibrium (nu/mu, 1), where the logistic reaction keeps the map monotone
    rng = np.random.default_rng(seed)
    u_lo = 0.5 * nu / mu * rng.random(nx)
    v_lo = 0.5 * rng.random((nx, ny))
    lo = rf.FieldState(t=0.0, u=u_lo, v=v_lo)
    hi = rf.FieldState(t=0.0, u=u_lo + 0.5 * nu / mu * rng.random(nx),
                       v=v_lo + 0.5 * rng.random((nx, ny)))
    for _ in range(20):
        lo = rf.step(lo, params, grid, reaction=reaction)
        hi = rf.step(hi, params, grid, reaction=reaction)
        assert rf.is_ordered(lo, hi)
        assert lo.u.min() >= 0.0 and lo.v.min() >= 0.0


# --- batches -------------------------------------------------------------------------


def _random_batch(rng, shape, nx, ny):
    return rng.random(shape + (nx,)), rng.random(shape + (nx, ny))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 6),
    nx=st.integers(3, 12),
    ny=st.integers(3, 8),
    D_over_2d=st.sampled_from([0.25, 0.9, 1.1, 5.0]),
    d=st.floats(0.1, 3.0),
    mu=st.floats(0.1, 3.0),
    nu=st.floats(0.1, 8.0),
    with_reaction=st.booleans(),
)
def test_batched_step_equals_each_member_stepped_alone(
    seed, batch, nx, ny, D_over_2d, d, mu, nu, with_reaction
):
    params = rf.ModelParams(D=2.0 * d * D_over_2d, d=d, mu=mu, nu=nu)
    probe = rf.Grid(x_min=-1.0, x_max=1.0, y_max=1.0, nx=nx, ny=ny, dt=1.0)
    grid = rf.Grid(x_min=-1.0, x_max=1.0, y_max=1.0, nx=nx, ny=ny,
                   dt=rf.cfl_dt(probe, params, 0.4))
    reaction = params.reaction if with_reaction else None
    u, v = _random_batch(np.random.default_rng(seed), (batch,), nx, ny)
    out = rf.step(rf.FieldState(t=0.5, u=u, v=v), params, grid, reaction=reaction)
    assert out.t == 0.5 + grid.dt
    assert out.u.shape == u.shape and out.v.shape == v.shape
    for b in range(batch):
        alone = rf.step(rf.FieldState(t=0.5, u=u[b], v=v[b]), params, grid, reaction=reaction)
        assert np.array_equal(out.u[b], alone.u) and np.array_equal(out.v[b], alone.v)


@pytest.mark.parametrize("substeps", [1, 5])
def test_batched_advance_equals_each_member_advanced_alone(substeps):
    grid = fast_road_grid(dx=0.5)
    u, v = _random_batch(np.random.default_rng(37), (2, 3), grid.nx, grid.ny)
    u0, v0 = u.copy(), v.copy()
    new_u, new_v = simulate._advance(u, v, P10, grid.dt, grid.dx, grid.dy, P10.reaction,
                                     substeps)
    assert np.array_equal(u, u0) and np.array_equal(v, v0)
    for i in range(2):
        for j in range(3):
            alone_u, alone_v = simulate._advance(u[i, j], v[i, j], P10, grid.dt, grid.dx,
                                                 grid.dy, P10.reaction, substeps)
            assert np.array_equal(new_u[i, j], alone_u)
            assert np.array_equal(new_v[i, j], alone_v)


def _uniform_batch(grid, levels):
    # (u, v) = (c, c) with nu = mu is a fixed point of diffusion and exchange,
    # so only the reaction moves it, whatever dt is
    levels = np.asarray(levels, dtype=float)
    return rf.FieldState(t=0.0, u=levels[:, None] * np.ones(grid.nx),
                         v=levels[:, None, None] * np.ones((grid.nx, grid.ny)))


def test_batch_blows_up_exactly_when_a_member_exceeds_its_own_cap():
    # f(s) = 20 s exp(-s) with dt = 2 lifts v = 0.5 to 12.6, over its own cap
    # 10, and leaves v = 30 at 30, over that cap but under its own 300
    grid = rf.Grid(x_min=-1.0, x_max=1.0, y_max=1.0, nx=5, ny=3, dt=2.0)
    hump = rf.ReactionFunction(lambda s: 20.0 * s * np.exp(-s), f_prime_0=1.0)
    state = _uniform_batch(grid, [0.5, 30.0])
    assert simulate._blowup_cap(state.u, state.v, P1).tolist() == [10.0, 300.0]
    with pytest.raises(BlowUpError):
        rf.step(rf.FieldState(t=0.0, u=state.u[0], v=state.v[0]), P1, grid, reaction=hump)
    rf.step(rf.FieldState(t=0.0, u=state.u[1], v=state.v[1]), P1, grid, reaction=hump)
    with pytest.raises(BlowUpError, match=r"state\[0\] exceeded 10\.0"):
        rf.step(state, P1, grid, reaction=hump)


def test_batch_member_above_another_members_cap_does_not_blow_up():
    # v = 30 stays at 30: above the first member's cap 10, under its own 300
    grid = rf.Grid(x_min=-1.0, x_max=1.0, y_max=1.0, nx=5, ny=3, dt=2.0)
    state = _uniform_batch(grid, [0.5, 30.0])
    out = rf.step(state, P1, grid, reaction=None)
    assert np.array_equal(out.u, state.u) and np.array_equal(out.v, state.v)


def test_blowup_cap_follows_the_road_equilibrium():
    # nu/mu = 40: the road settles at 40 times the field level, so a
    # field-only datum of height 1 caps v at 10 and u at 400
    params = rf.ModelParams(D=1.0, d=1.0, mu=0.1, nu=4.0)
    grid = rf.build_grid(-2.0, 2.0, 2.0, 0.5, 0.5, params, 0.4)
    ones = np.ones((grid.nx, grid.ny))
    cap = simulate._blowup_cap(np.zeros(grid.nx), ones, params)
    assert cap == 10.0
    rf.step(rf.FieldState(t=0.0, u=np.full(grid.nx, 40.0), v=ones), params, grid, max_value=cap)
    with pytest.raises(BlowUpError):
        rf.step(rf.FieldState(t=0.0, u=np.full(grid.nx, 1000.0), v=ones), params, grid,
                max_value=cap)
    # the default cap of the road-equilibrium state itself
    assert simulate._blowup_cap(np.full(grid.nx, 40.0), ones, params) == 10.0


@pytest.mark.parametrize("u_shape, v_shape", [
    ((3, 20), (3, 20, 11)),   # nx wrong
    ((3, 41), (3, 41, 10)),   # ny wrong
    ((3, 41), (2, 41, 11)),   # batch axes disagree
    ((3, 41), (41, 11)),      # v unbatched
])
def test_batched_step_shape_mismatch(u_shape, v_shape):
    g = small_grid()
    with pytest.raises(ValueError):
        rf.step(rf.FieldState(t=0.0, u=np.zeros(u_shape), v=np.zeros(v_shape)), P1, g)


# --- CSV output -----------------------------------------------------------------------


def test_csv_writers_round_trip(tmp_path):
    g = small_grid()
    rec = rf.run(P1, g, rf.InitialDatum.compact_bump(), t_end=0.2, snapshot_every=4)
    from roadfield.simulate import write_mass_csv

    mass_path = tmp_path / "mass.csv"
    write_mass_csv(rec, mass_path)
    lines = mass_path.read_text().splitlines()
    assert lines[0] == "t,mass"
    t0, m0 = lines[1].split(",")
    # 17 significant digits round-trip exactly
    assert float(t0) == rec.times[0] and float(m0) == rec.mass[0]

