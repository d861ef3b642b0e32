"""Transect solver: stencils, oracle equivalences, invariants.

Oracles used here: the homogeneous ODE integrator for spatially uniform
runs, and the exact translate-and-decay solution for the pure-advection
configuration (quota pinned at Q_m and no dissolved phosphorus make every
reaction term vanish except the linear loss, which factors out).
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import bloomsim.solver1d
from bloomsim.core import (
    EPS_B,
    QUOTA_B_FLOOR,
    HomState,
    default_params,
    growth_h,
    q_hat,
    reaction_rhs,
    uptake_eta,
)
from bloomsim.ode import IntegrationError, Trajectory, integrate_homogeneous
from bloomsim.solver1d import (
    BANDS,
    Field1D,
    Grid1D,
    _jacobian_1d,
    _transport,
    integrate_1d,
    rhs_1d,
    write_trajectory_csv,
)
from bloomsim.wind import SyntheticWind, as_wind


class TestGrid:
    def test_unit_spacing(self):
        g = Grid1D(10.0, 11)
        assert g.dx == 1.0
        assert g.x[0] == 0.0 and g.x[-1] == 10.0

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 2)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 11)

    def test_nan_length(self):
        with pytest.raises(ValueError, match="L must be positive"):
            Grid1D(np.nan, 11)

    @pytest.mark.parametrize("L", [np.inf, 1e309, -np.inf])
    def test_infinite_length(self, L):
        with pytest.raises(ValueError, match="L must be positive and finite"):
            Grid1D(L, 11)


class TestRhs:
    def test_uniform_fields_reduce_to_reaction(self, params_case3):
        grid = Grid1D(1000.0, 41)
        B0, Q0, P0 = 4.0, 0.02, 0.3
        f = Field1D.uniform(grid, B0, Q0, P0)
        rates = rhs_1d(0.0, f.stack(), grid, as_wind(None), params_case3).reshape(3, -1)
        oracle = reaction_rhs(HomState(B0, Q0 * B0, P0), params_case3)
        assert np.allclose(rates, oracle[:, None], rtol=1e-12, atol=1e-14)

    def test_resting_phosphorus_at_exchange_equilibrium(self, params_case2):
        grid = Grid1D(500.0, 21)
        f = Field1D(
            np.zeros(21),
            np.full(21, 0.01),
            np.full(21, params_case2.P_h),
            np.zeros(21),
        )
        dB, _, dP = rhs_1d(0.0, f.stack(), grid, as_wind(None), params_case2).reshape(3, -1)
        assert np.allclose(dP, 0.0, atol=1e-15)
        assert np.allclose(dB, 0.0, atol=1e-15)

    def test_advection_speed_sign_selects_stencil(self, params_case3):
        # a left-moving wind must read the gradient from the right
        grid = Grid1D(100.0, 11)
        B = np.linspace(1.0, 2.0, 11)
        f = Field1D(B, np.full(11, 0.02), np.full(11, 0.2), 0.02 * B)
        y = f.stack()
        plus = rhs_1d(0.0, y, grid, lambda t: (+1.0, 0.0), params_case3)[:11]
        minus = rhs_1d(0.0, y, grid, lambda t: (-1.0, 0.0), params_case3)[:11]
        # the ramp has constant slope, so upwind/downwind differences match
        # except at the boundary nodes where the ghost copy zeroes one side
        assert np.allclose(plus[1:-1] + minus[1:-1], 2 * rhs_1d(
            0.0, y, grid, as_wind(None), params_case3)[1:10], rtol=1e-12)
        assert plus[0] != minus[0]

    def test_flat_state_in_and_out_input_unchanged(self, params_case3):
        # BDF's state is read through views, so the call must not write to it
        grid = Grid1D(100.0, 11)
        y = Field1D.bump(grid, P0=0.2).stack()
        before = y.copy()
        rates = rhs_1d(0.0, y, grid, as_wind(SyntheticWind(40.0, 9.0)), params_case3)
        assert rates.shape == (3 * grid.Nx,)
        assert np.array_equal(y, before)

    @pytest.mark.parametrize("speed", [0.7, -0.7, 0.0, -0.0, np.float64(2.5)])
    def test_upwind_gradient_matches_two_sided_formula(self, speed):
        # both one-sided differences written out in full; the transect's
        # operator takes the upwind one from the sign of the wind, with a
        # unit advection scalar and no diffusion in every row
        U = np.array([0.3, 1.7, 1.1, 1e-12, 0.0, 5.0, 4.999999, -0.2, 0.8])
        backward = np.empty_like(U)
        forward = np.empty_like(U)
        backward[1:] = U[1:] - U[:-1]
        backward[0] = 0.0
        forward[:-1] = U[1:] - U[:-1]
        forward[-1] = 0.0
        dx = 0.37
        expected = speed * (backward if speed > 0 else forward) / dx
        transport = _transport(Grid1D(dx * (U.size - 1), U.size), (0.0,) * 3, (1.0,) * 3)
        got = transport.apply((speed, 0.0), np.tile(U, 3)).reshape(3, -1)
        for row in got:
            assert np.allclose(row, expected, rtol=1e-14, atol=1e-14 * np.abs(U).max() / dx)


def jacobian_pattern(Nx):
    """The transect Jacobian's pattern, written out entry by entry: each
    field's transport couples nearest neighbours (a tridiagonal diagonal
    block), and the reactions couple the fields at each node (a diagonal in
    every block)."""
    S = np.zeros((3 * Nx, 3 * Nx), dtype=bool)
    for a in range(3):
        for b in range(3):
            for i in range(Nx):
                S[a * Nx + i, b * Nx + i] = True
                if a == b:
                    S[a * Nx + i, b * Nx + max(i - 1, 0)] = True
                    S[a * Nx + i, b * Nx + min(i + 1, Nx - 1)] = True
    return S


def interleaved(S):
    """A flat (B, p, P)-ordered matrix in node-interleaved order."""
    n = S.shape[0] // 3
    order = np.arange(3 * n).reshape(3, n).T.ravel()
    return S[np.ix_(order, order)]


@pytest.mark.parametrize("Nx", [3, 41, 101])
def test_jac_sparsity_matches_loop_construction(Nx, params_case3):
    # whatever the wind and the movement table, the Jacobian has no entry
    # outside the pattern, and the pattern in node-interleaved order lies
    # in the band of BANDS sub- and superdiagonals that the storage holds
    grid = Grid1D(1000.0, Nx)
    y = Field1D.bump(grid, P0=0.2).stack()
    pattern = jacobian_pattern(Nx)
    for v, params in ((20.0, params_case3), (-20.0, params_case3),
                      (0.0, params_case3.replace(alpha=0.0, beta=0.0, beta_B=0.0))):
        J = _jacobian_1d(0.0, y, grid, lambda t, v=v: (v, 0.0), params)
        assert J.values.shape == (2 * BANDS + 1, 3 * Nx)
        assert not J.toarray()[~pattern].any()
    rows, cols = np.nonzero(interleaved(pattern))
    assert np.abs(rows - cols).max() == BANDS


FIELDS = "BpP"


@st.composite
def transect_states(draw):
    """Parameters, wind and a (B, p, P) state from the admitted domain.

    Movement coefficients and P_h may be zero; B, p and P nodes may be zero
    or slightly negative (integrator trial states), the cell quota p/B of a
    live node may sit on either edge of its tube or just outside it, and
    the wind blows either way or not at all.
    """
    params = default_params(
        r=draw(st.floats(0.2, 3.0)),
        P_h=draw(st.sampled_from([0.0, 0.2, 2.0])),
        alpha=draw(st.sampled_from([0.0, 0.01, 2.0])),
        beta=draw(st.sampled_from([0.0, 0.02, 3.0])),
        beta_B=draw(st.sampled_from([0.0, 0.05])),
        beta_P=draw(st.sampled_from([0.0, 0.075])),
    )
    v = draw(st.sampled_from([-30.0, 0.0, 30.0]))
    Nx = draw(st.integers(3, 9))
    grid = Grid1D(draw(st.sampled_from([10.0, 1000.0])), Nx)

    def nodes(positive, special):
        kinds = draw(st.lists(st.sampled_from(["positive"] * 3 + list(special)),
                              min_size=Nx, max_size=Nx))
        values = draw(st.lists(positive, min_size=Nx, max_size=Nx))
        return np.array([{"positive": x, "zero": 0.0, "negative": -1e-4 * x}[k]
                         for k, x in zip(kinds, values)])

    B = nodes(st.floats(0.05, 20.0), ["zero", "negative"])
    Q = nodes(st.floats(params.Q_m, params.Q_M), [])
    for edge, outside in ((params.Q_m, 0.999 * params.Q_m), (params.Q_M, 1.001 * params.Q_M)):
        Q[draw(st.lists(st.integers(0, Nx - 1), max_size=2))] = edge
        Q[draw(st.lists(st.integers(0, Nx - 1), max_size=1))] = outside
    P = nodes(st.floats(0.01, 2.0), ["zero", "negative"])
    p = nodes(st.floats(0.01, 0.5), ["zero", "negative"])
    # at a live node a positive p is Q B, so that Q is its cell quota
    p = np.where((B > 0) & (p > 0), Q * B, p)
    return params, v, grid, np.concatenate([B, p, P])


def difference_jacobian(y, grid, wind, params):
    """Column-wise differences of the stacked right-hand side.

    Central differences away from the kinks, which are the clamps at zero
    and the edges of the quota tube.  At a kink the difference is
    one-sided, taken on the side whose slope the exact Jacobian uses:
    upwards at a zero state, and at an edge of the tube so that p/B stays
    on the side it starts on, into the tube from its edge.  Below zero
    every term is affine in the state, so a step away from the clamp is
    exact.

    At B = 0 the exact Jacobian takes the slope of the extinct branch
    0 <= B <= EPS_B, where the growth quota is q_hat.  That branch is
    narrower than any step a double-precision difference resolves, so
    there the column is the difference on the affine branch below zero
    plus the closed-form jump of the slope across zero: the growth rate
    r (1 - Q_m/q_hat) h(0) in the B row, and the uptake coefficient
    eta(1, 0, P) in the p row and its negative in the P row.
    """
    Nx = grid.Nx
    B, p, P = y.reshape(3, Nx)
    Q_m, Q_M = params.Q_m, params.Q_M

    def f(z):
        return rhs_1d(0.0, z, grid, wind, params)

    def one_sided(step):
        return (4.0 * (f(y + step) - f0) - (f(y + 2 * step) - f0)) / (2 * step.sum())

    f0 = f(y)
    J = np.empty((y.size, y.size))
    for j in range(y.size):
        row, i = divmod(j, Nx)
        value = y[j]
        # a positive B or p of a live node moves the quota p/B, whose
        # growth factor 1 - Q_m/q needs a step relative to q
        quota_step = row < 2 and B[i] > EPS_B and value > 0
        h = 1e-5 * value if quota_step else 1e-4 * max(abs(value), 0.1)
        step = np.zeros_like(y)
        step[j] = h
        if quota_step:
            q = p[i] / B[i]
            reach = 3e-5 * q  # three steps move p/B by at most this much
            lower, upper = abs(q - Q_m) <= reach, abs(q - Q_M) <= reach
        if row == 0 and value == 0.0:
            J[:, j] = (f0 - f(y - step)) / h
            uptake = uptake_eta(1.0, 0.0, max(P[i], 0.0), params)
            J[i, j] += params.r * (1.0 - Q_m / q_hat(params)) * growth_h(0.0, params)
            J[Nx + i, j] += uptake
            J[2 * Nx + i, j] -= uptake
        elif value < 0.0:
            J[:, j] = (f0 - f(y - step)) / h
        elif quota_step and (lower or upper):
            # p/B moves into the closed tube from within it and away from it
            # from outside; p/B rises with p and falls with B
            rise = (q >= Q_m) if lower else (q > Q_M)
            J[:, j] = one_sided((1.0 if rise == (row == 1) else -1.0) * step)
        elif value < 2 * h:
            J[:, j] = one_sided(step)
        else:
            J[:, j] = (f(y + step) - f(y - step)) / (2 * h)
    return J


class TestExactJacobian:
    @settings(max_examples=80, deadline=None)
    @given(transect_states())
    def test_blocks_match_differences(self, case):
        params, v, grid, y = case
        wind = lambda t: (v, 0.0)  # noqa: E731
        J = _jacobian_1d(0.0, y, grid, wind, params).toarray()
        reference = difference_jacobian(y, grid, wind, params)
        Nx = grid.Nx
        for a in range(3):
            for b in range(3):
                block = np.s_[a * Nx : (a + 1) * Nx, b * Nx : (b + 1) * Nx]
                err = np.abs(J[block] - reference[block]).max()
                size = max(np.abs(J[block]).max(), np.abs(J[a * Nx : (a + 1) * Nx]).max() * 1e-3)
                assert err <= 1e-7 * size, (FIELDS[a], FIELDS[b], err, size)

    def test_assembly_calls_no_rhs(self, monkeypatch, params_case3):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Jacobian must not evaluate rhs_1d")

        monkeypatch.setattr(bloomsim.solver1d, "rhs_1d", forbidden)
        grid = Grid1D(1000.0, 41)
        y = Field1D.bump(grid, P0=0.2).stack()
        J = _jacobian_1d(0.0, y, grid, as_wind(SyntheticWind(40.0, 9.0)), params_case3)
        pattern = jacobian_pattern(grid.Nx)
        assert pattern.sum() == 609
        assert not J.toarray()[~pattern].any() and J.toarray()[pattern].any()

    @pytest.mark.parametrize("Nx", [3, 41, 101])
    @pytest.mark.parametrize("v", [0.0, 20.0, -20.0])
    def test_band_matches_differences_of_rhs(self, Nx, v, params_case3):
        # the whole band Jacobian, in flat order, against central
        # differences of rhs_1d at a positive bump state (no kinks near)
        grid = Grid1D(1000.0, Nx)
        y = Field1D.bump(grid, P0=0.2).stack()
        wind = lambda t: (v, 0.0)  # noqa: E731
        J = _jacobian_1d(0.0, y, grid, wind, params_case3).toarray()
        reference = difference_jacobian(y, grid, wind, params_case3)
        assert np.abs(J - reference).max() <= 1e-7 * np.abs(J).max()

    @pytest.mark.parametrize("c", [1e-3, 0.7, 40.0])
    def test_factor_and_solve_match_dense_solve(self, c, params_case3, rng):
        grid = Grid1D(1000.0, 41)
        y = Field1D.bump(grid, P0=0.2).stack()
        J = _jacobian_1d(0.0, y, grid, as_wind(SyntheticWind(40.0, 9.0)), params_case3)
        b = rng.standard_normal(3 * grid.Nx)
        expected = np.linalg.solve(np.identity(3 * grid.Nx) - c * J.toarray(), b)
        got = J.solve(J.factor(c), b.copy())
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    def test_factor_rejects_a_non_finite_matrix(self, params_case3):
        grid = Grid1D(1000.0, 11)
        y = Field1D.bump(grid, P0=0.2).stack()
        J = _jacobian_1d(0.0, y, grid, as_wind(None), params_case3)
        J.values[BANDS, 4] = np.nan
        with pytest.raises(RuntimeError, match="not finite"):
            J.factor(0.5)

    def test_windy_run_matches_difference_jacobian_path(self, params_case3):
        # the finite-difference path the exact Jacobian replaced: BDF given
        # only the Jacobian's pattern.  Both runs are measured against a
        # converged one; each errs by ~11 (atol + rtol |y|), so the exact
        # Jacobian must be as accurate as the differences, not agree with
        # them step for step
        grid = Grid1D(1000.0, 41)
        f0 = Field1D.bump(grid, P0=0.2)
        wind = as_wind(SyntheticWind(40.0, 9.0))
        times = np.linspace(0.0, 30.0, 7)
        rtol, atol = 1e-8, 1e-10
        traj = integrate_1d(f0, grid, wind, params_case3, 30.0, rtol=rtol, atol=atol,
                            sample_times=times)
        oracle = solve_ivp(
            rhs_1d, (0.0, 30.0), f0.stack(), method="BDF", rtol=rtol, atol=atol, t_eval=times,
            jac_sparsity=jacobian_pattern(grid.Nx),
            args=(grid, wind, params_case3),
        )
        converged = integrate_1d(f0, grid, wind, params_case3, 30.0, rtol=1e-12, atol=1e-14,
                                 sample_times=times).y.reshape(oracle.y.shape)
        assert traj.counters["njev"] > 0

        def error(y):
            return np.max(np.abs(y - converged) / (atol + rtol * np.abs(converged)))

        assert error(traj.y.reshape(oracle.y.shape)) <= 1.05 * error(oracle.y)


class TestPureAdvection:
    def pulse_setup(self):
        # with no biomass and no vertical exchange the dissolved-phosphorus
        # equation degenerates to the bare advection operator: every
        # reaction coupling carries a factor of B, and D = 0 removes the
        # exchange relaxation, so dP/dt = -beta_P v P_x exactly
        params = default_params(
            r=1.0, P_h=0.0, alpha=0.0, beta=0.0, D=0.0,
            beta_B=0.05, beta_P=0.075, P_in=0.0,
        )
        grid = Grid1D(1000.0, 201)
        x = grid.x
        P = np.where((x >= 200.0) & (x <= 350.0), 1.0, 0.0)
        zeros = np.zeros(grid.Nx)
        return params, grid, Field1D(zeros, np.full(grid.Nx, 0.02), P, zeros)

    def test_pulse_translates_downwind(self):
        params, grid, f0 = self.pulse_setup()
        v = 100.0  # m/day; advection speed beta_P * v = 7.5 m/day
        t_end = 20.0
        traj = integrate_1d(
            f0, grid, lambda t: (v, 0.0), params, t_end,
            rtol=1e-9, atol=1e-12, sample_times=[0.0, t_end],
        )
        a = params.beta_P * v
        W0, W = f0.P, traj.P[:, -1]
        dx = grid.dx
        # interior pulse: no boundary flux, total mass conserved
        assert W.sum() * dx == pytest.approx(W0.sum() * dx, rel=1e-6)
        # centre of mass moves at exactly the advection speed
        com0 = (grid.x * W0).sum() / W0.sum()
        com1 = (grid.x * W).sum() / W.sum()
        assert com1 - com0 == pytest.approx(a * t_end, rel=2e-3)
        # the half-mass front sits within a couple of cells of the translate
        csum = np.cumsum(W) * dx
        x_half = np.interp(0.5 * csum[-1], csum, grid.x)
        csum0 = np.cumsum(W0) * dx
        x_half0 = np.interp(0.5 * csum0[-1], csum0, grid.x)
        assert abs((x_half - x_half0) - a * t_end) < 2 * dx

    def test_mass_leaves_through_downwind_boundary(self):
        params, grid, f0 = self.pulse_setup()
        v = 1000.0  # advection speed 75 m/day pushes the pulse off-domain
        traj = integrate_1d(
            f0, grid, lambda t: (v, 0.0), params, 12.0,
            rtol=1e-9, atol=1e-12, sample_times=[0.0, 6.0, 12.0],
        )
        masses = traj.P.sum(axis=0) * grid.dx
        # mid-flight the pulse is interior: mass still essentially conserved
        assert masses[0] * 0.99 < masses[1] <= masses[0]
        # once the front crosses the downwind boundary the mass drains
        assert masses[2] < 0.05 * masses[0]


@pytest.mark.parametrize("wind, order", [(None, 2.0), (SyntheticWind(20.0, 9.0), 1.0)],
                         ids=["still", "windy"])
def test_observed_spatial_order(wind, order):
    # successive differences of the final B at the coarse nodes over
    # Nx = 41, 81, 161, 321 halve the spacing each time: second order for
    # central diffusion, first order once upwind advection dominates
    params = default_params(r=1.0, P_h=2.0)
    finals = []
    for k, Nx in enumerate((41, 81, 161, 321)):
        grid = Grid1D(1000.0, Nx)
        traj = integrate_1d(Field1D.bump(grid, P0=2.0), grid, wind, params, 30.0,
                            rtol=1e-10, atol=1e-12, sample_times=[0.0, 30.0])
        finals.append(traj.B[:: 2**k, -1])
    differences = [np.abs(fine - coarse).max() for coarse, fine in zip(finals, finals[1:])]
    assert order - 0.2 <= np.log2(differences[-2] / differences[-1]) <= order + 0.2


def assert_quota_is_cell_quota(traj):
    # Q is not evolved: each sample reports the cell quota p/B exactly, and
    # q_hat where B is at or below the floor
    Q, live = traj.quota(), traj.B > QUOTA_B_FLOOR
    assert np.array_equal(Q[live], traj.p[live] / traj.B[live])
    assert np.all(Q[~live] == q_hat(traj.params))


class TestIntegrate:
    def test_uniform_run_tracks_homogeneous_ode(self, params_case3):
        grid = Grid1D(1000.0, 41)
        f0 = Field1D.uniform(grid, 5.0, 0.02, 0.15)
        times = np.linspace(0.0, 50.0, 11)
        traj = integrate_1d(f0, grid, None, params_case3, 50.0,
                            rtol=1e-9, atol=1e-11, sample_times=times)
        oracle = integrate_homogeneous(
            HomState(5.0, 0.1, 0.15), params_case3, 50.0,
            rtol=1e-10, atol=1e-12, t_eval=times,
        )
        for got, ref in zip(traj.y, oracle.y):
            rel = np.abs(got - ref) / np.abs(ref)
            assert rel.max() < 1e-3

    def test_closed_budget_conservation(self):
        params = default_params(r=1.0, P_h=0.2, D=0.0, P_in=0.0)
        grid = Grid1D(1000.0, 61)
        f0 = Field1D.bump(grid, P0=0.15)
        traj = integrate_1d(f0, grid, None, params, 100.0,
                            rtol=1e-10, atol=1e-13, sample_times=np.linspace(0, 100, 6))
        totals = (traj.p + traj.P).sum(axis=0)
        drift = np.abs(totals - totals[0]).max() / totals[0]
        assert drift < 1e-8

    def test_quota_tube_and_positivity_with_wind(self, params_case3):
        grid = Grid1D(1000.0, 81)
        f0 = Field1D.bump(grid, P0=0.2)
        wind = SyntheticWind(40.0, 9.0)  # m/day amplitude
        traj = integrate_1d(f0, grid, wind, params_case3, 60.0,
                            rtol=1e-8, atol=1e-11,
                            sample_times=np.linspace(0, 60, 13))
        p = params_case3
        live = traj.B > EPS_B
        Q = traj.p[live] / traj.B[live]
        assert Q.min() >= p.Q_m - 1e-6 and Q.max() <= p.Q_M + 1e-6
        assert traj.y.min() > -1e-10
        assert_quota_is_cell_quota(traj)

    def test_consistency_tight_in_still_water(self, params_case3):
        grid = Grid1D(1000.0, 101)
        f0 = Field1D.bump(grid, P0=0.2)
        traj = integrate_1d(f0, grid, None, params_case3, 60.0,
                            rtol=1e-9, atol=1e-12,
                            sample_times=np.linspace(0, 60, 7))
        assert_quota_is_cell_quota(traj)

    def test_grid_refinement_changes_little(self, params_case3):
        coarse = Grid1D(1000.0, 51)
        fine = Grid1D(1000.0, 101)
        t_samples = [0.0, 50.0]
        sol_c = integrate_1d(Field1D.bump(coarse, P0=0.2), coarse, None,
                             params_case3, 50.0, sample_times=t_samples)
        sol_f = integrate_1d(Field1D.bump(fine, P0=0.2), fine, None,
                             params_case3, 50.0, sample_times=t_samples)
        Bc = sol_c.B[:, -1]
        Bf = sol_f.B[::2, -1]  # fine grid contains the coarse nodes
        l2_diff = np.sqrt(((Bf - Bc) ** 2).sum() * coarse.dx)
        l2_ref = np.sqrt((Bc**2).sum() * coarse.dx)
        assert l2_diff / l2_ref < 0.02

    def test_final_time_reached_and_samples_respected(self, params_case3):
        grid = Grid1D(500.0, 31)
        times = [0.0, 12.5, 40.0]
        traj = integrate_1d(Field1D.bump(grid, P0=0.2), grid, None,
                            params_case3, 40.0, sample_times=times)
        assert np.allclose(traj.t, times)
        assert traj.y.shape == (3, grid.Nx, 3)

    @pytest.mark.parametrize(
        "t_end, tolerances",
        [(0.0, {}), (-5.0, {}), (10.0, {"rtol": 0.0}), (10.0, {"atol": -1e-10})],
    )
    def test_rejects_non_positive_horizon_and_tolerances(self, params_case3, t_end, tolerances):
        grid = Grid1D(500.0, 11)
        with pytest.raises(ValueError):
            integrate_1d(Field1D.bump(grid, P0=0.2), grid, None, params_case3, t_end,
                         **tolerances)

    @pytest.mark.parametrize("t_end, tolerances", [
        (np.nan, {}), (10.0, {"rtol": np.nan}), (10.0, {"atol": np.nan}),
    ])
    def test_rejects_nan_horizon_and_tolerances(self, params_case3, t_end, tolerances):
        grid = Grid1D(500.0, 11)
        with pytest.raises(ValueError, match="must be positive"):
            integrate_1d(Field1D.bump(grid, P0=0.2), grid, None, params_case3, t_end,
                         **tolerances)

    @pytest.mark.parametrize("sample_times", [[np.nan], [0.0, 2.0, 1.0], [0.0, 5.0, 5.0], [-1.0, 1.0], [0.0, 20.0], []],
                             ids=["nan", "unordered", "repeated", "negative", "past_t_end", "empty"])
    def test_bad_sample_times_are_usage_errors(self, params_case3, sample_times):
        # checked before the solve: a ValueError, not an IntegrationError or
        # a bare AttributeError from inside the integrator
        grid = Grid1D(500.0, 11)
        with pytest.raises(ValueError, match="sample times must be"):
            integrate_1d(Field1D.bump(grid, P0=0.2), grid, None, params_case3, 10.0,
                         sample_times=sample_times)

    def test_mismatched_initial_grid(self, params_case3):
        grid = Grid1D(500.0, 31)
        with pytest.raises(ValueError):
            integrate_1d(Field1D.bump(Grid1D(500.0, 11), P0=0.2), grid,
                         None, params_case3, 10.0)

    def test_validate_checks_the_tube_only_above_the_floor(self, params_case3):
        # the rule of Field2D.validate: below QUOTA_B_FLOOR, p/B carries
        # the solver's error in B and p rather than a quota
        f = Field1D.uniform(Grid1D(100.0, 5), 2.0, 0.02, 0.2)
        f.B[2] = QUOTA_B_FLOOR / 2
        f.p[2] = 1e-3 * f.B[2]
        f.validate(params_case3)
        f.B[2] = 2 * QUOTA_B_FLOOR
        with pytest.raises(ValueError, match="quota left"):
            f.validate(params_case3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["B", "p", "P"])
    def test_validate_rejects_non_finite_values(self, params_case3, name, bad):
        f = Field1D.uniform(Grid1D(100.0, 5), 2.0, 0.02, 0.2)
        getattr(f, name)[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            f.validate(params_case3)

    def test_extinction_front_under_wind(self):
        # biomass 1e-9 upwind of the bump: the quota, derived from p and B,
        # stays in its tube where the cells are alive, and p stays >= 0
        grid = Grid1D(1000.0, 101)
        bump = Field1D.bump(grid, P0=2.0)
        B = np.where(grid.x < 300.0, 1e-9, bump.B)
        f0 = Field1D(B, np.full(grid.Nx, 0.02), bump.P, 0.02 * B)
        traj = integrate_1d(f0, grid, SyntheticWind(40.0, 9.0), default_params(r=1.0, P_h=2.0),
                            60.0)
        traj.validate()
        assert traj.t[-1] == 60.0

    def test_integrator_failure_carries_diagnostics(self, params_case3):
        grid = Grid1D(500.0, 11)
        bad_wind = lambda t: (np.nan, 0.0)  # noqa: E731
        with pytest.raises(IntegrationError):
            integrate_1d(Field1D.bump(grid, P0=0.2), grid, bad_wind,
                         params_case3, 10.0)

    def test_singular_factor_carries_the_last_step(self):
        # the wind turns NaN after t = 3, and with it the iteration matrix;
        # the error names the last accepted step, not the start
        grid = Grid1D(500.0, 11)
        wind = lambda t: (np.nan, 0.0) if t > 3.0 else (20.0, 0.0)  # noqa: E731
        with pytest.raises(IntegrationError, match="BDF integration failed") as info:
            integrate_1d(Field1D.bump(grid, P0=0.2), grid, wind, default_params(r=1.0, P_h=2.0),
                         10.0, sample_times=[0.0, 10.0])
        assert 0.0 < info.value.t <= 3.0
        assert np.isfinite(info.value.state).all()


class TestExport:
    def test_long_format_csv(self, tmp_path, params_case3):
        grid = Grid1D(100.0, 5)
        f0 = Field1D.uniform(grid, 2.0, 0.02, 0.2)
        traj = Trajectory(np.array([0.0]), f0.stack().reshape(3, -1, 1), params_case3)
        out = tmp_path / "sol.csv"
        write_trajectory_csv(traj, grid, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x,B,Q,P,p"
        assert len(lines) == 1 + 5
        row = lines[1].split(",")
        assert float(row[2]) == 2.0 and float(row[3]) == 0.02

    def test_csv_bytes_match_csv_module(self, tmp_path, params_case3, rng):
        grid = Grid1D(100.0, 7)
        y = rng.uniform(-1.0, 1.0, (3, grid.Nx, 3)) * 10.0 ** rng.integers(-300, 300, (3, 1, 3))
        y[0, :3, 1] = [0.0, -0.0, 5e-324]
        traj = Trajectory(np.array([0.0, 1.0 / 3.0, 2.5e6]), y, params_case3)
        out = tmp_path / "sol.csv"
        write_trajectory_csv(traj, grid, out)

        expected = tmp_path / "expected.csv"
        Q = traj.quota()
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "B", "Q", "P", "p"])
            for k, t in enumerate(traj.t):
                for i in range(grid.Nx):
                    writer.writerow([f"{v:.17g}" for v in (t, grid.x[i], traj.B[i, k], Q[i, k],
                                                           traj.P[i, k], traj.p[i, k])])
        assert out.read_bytes() == expected.read_bytes()
