"""FEM operators, the implicit step, and full 2D simulations.

Independent oracles: the scalar backward-Euler step solved with
scipy.optimize.fsolve on the pointwise reaction rates (for uniform states,
where every spatial term vanishes), and the homogeneous BDF trajectory for
multi-step uniform runs.
"""

import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import fsolve
from scipy.sparse import bmat, diags
from scipy.sparse.linalg import spsolve

from bloomsim import solver2d
from bloomsim.core import (
    _BASE_CONSTANTS,
    EPS_B,
    QUOTA_B_FLOOR,
    HomState,
    _reaction_kernel,
    default_params,
    reaction_rhs,
)
from bloomsim.mesh import refine_uniform, synthetic_lake_mesh, two_triangle_square
from bloomsim.ode import IntegrationError, Trajectory, integrate_homogeneous
from bloomsim.solver2d import (
    Field2D,
    NewtonError,
    assemble_fem,
    newton_be_step,
    simulate_2d,
)
from bloomsim.wind import SyntheticWind, WindSeries, parse_wind_records

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def lake():
    return synthetic_lake_mesh(target_h=120.0)


@pytest.fixture(scope="module")
def lake_114():
    return synthetic_lake_mesh()


class TestAssemble:
    def test_mass_matrix_sums_to_area(self, lake):
        M, _, _ = assemble_fem(lake, (0.0, 0.0))
        assert M.sum() == pytest.approx(lake.total_area, rel=1e-12)

    def test_mass_matrix_spd(self):
        mesh = two_triangle_square()
        M, _, _ = assemble_fem(mesh, (0.0, 0.0))
        dense = M.toarray()
        assert np.allclose(dense, dense.T)
        assert np.linalg.eigvalsh(dense).min() > 0.0

    def test_stiffness_annihilates_constants(self, lake):
        _, K, _ = assemble_fem(lake, (0.0, 0.0))
        ones = np.ones(lake.n_nodes)
        assert np.abs(K @ ones).max() < 1e-10
        dense = K.toarray()
        assert np.allclose(dense, dense.T, atol=1e-12)
        assert np.linalg.eigvalsh(dense).min() > -1e-10

    def test_advection_linear_in_wind(self, lake):
        _, _, C0 = assemble_fem(lake, (0.0, 0.0))
        assert abs(C0).max() == 0.0
        _, _, C1 = assemble_fem(lake, (2.0, -1.0))
        _, _, C2 = assemble_fem(lake, (4.0, -2.0))
        assert np.abs((2 * C1 - C2).toarray()).max() < 1e-12

    def test_implicit_heat_step_conserves_mass(self, lake, params_case3, rng):
        # (M + dt a K) u1 = M u0 keeps 1' M u constant: zero column sums of K
        from scipy.sparse.linalg import spsolve

        M, K, _ = assemble_fem(lake, (0.0, 0.0))
        u0 = rng.uniform(0.5, 2.0, lake.n_nodes)
        u1 = spsolve((M + 0.5 * params_case3.alpha * K).tocsc(), M @ u0)
        total = np.ones(lake.n_nodes) @ (M @ u0)
        assert np.ones(lake.n_nodes) @ (M @ u1) == pytest.approx(total, rel=1e-12)


def scalar_backward_euler(state, params, dt):
    """Independent oracle: one BE step of the reaction system via fsolve."""
    y0 = state.as_array()

    def eqn(y):
        return y - y0 - dt * reaction_rhs(HomState(*np.maximum(y, 0.0)), params)

    return fsolve(eqn, y0, xtol=1e-13)


class TestNewtonStep:
    def test_uniform_step_matches_scalar_backward_euler(self, lake, params_case3):
        U0 = Field2D.uniform(lake, 5.0, 0.02, 0.15)
        dt = 0.5
        B, p, P = newton_be_step(U0.stack(), dt, dt, lake, None, params_case3,
                                 tol=1e-13).reshape(3, -1)
        oracle = scalar_backward_euler(HomState(5.0, 0.1, 0.15), params_case3, dt)
        assert np.ptp(B) < 1e-10  # stays uniform
        assert B[0] == pytest.approx(oracle[0], rel=1e-9)
        assert p[0] == pytest.approx(oracle[1], rel=1e-9)
        assert P[0] == pytest.approx(oracle[2], rel=1e-9)

    def test_extinction_state_is_fixed_point(self, lake, params_case2):
        U0 = Field2D.uniform(lake, 0.0, 0.02, params_case2.P_h)
        B, _, P = newton_be_step(U0.stack(), 1.0, 1.0, lake, None, params_case2).reshape(3, -1)
        assert np.abs(B).max() < 1e-12
        assert np.abs(P - params_case2.P_h).max() < 1e-10

    def test_pure_heat_full_step_conserves_phosphorus(self, lake):
        # no biomass, no exchange: the solve reduces to the heat operator
        params = default_params(r=1.0, P_h=0.2, D=0.0, P_in=0.0)
        rng = np.random.default_rng(3)
        P0 = rng.uniform(0.1, 1.0, lake.n_nodes)
        U0 = Field2D(np.zeros(lake.n_nodes), np.zeros(lake.n_nodes), P0)
        M, _, _ = assemble_fem(lake, (0.0, 0.0))
        _, _, P1 = newton_be_step(U0.stack(), 1.0, 1.0, lake, None, params,
                                  tol=1e-14).reshape(3, -1)
        ones = np.ones(lake.n_nodes)
        assert ones @ (M @ P1) == pytest.approx(ones @ (M @ P0), rel=1e-12)

    def test_rejects_nonpositive_dt(self, lake, params_case3):
        U0 = Field2D.uniform(lake, 1.0, 0.02, 0.1)
        with pytest.raises(ValueError):
            newton_be_step(U0.stack(), 0.0, 1.0, lake, None, params_case3)

    def test_rejects_nan_dt(self, lake, params_case3):
        U0 = Field2D.uniform(lake, 1.0, 0.02, 0.1)
        with pytest.raises(ValueError, match="dt must be positive"):
            newton_be_step(U0.stack(), np.nan, 1.0, lake, None, params_case3)
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate_2d(U0, lake, None, params_case3, dt=np.nan, t_end=1.0,
                        output_times=[0.0, 1.0])

    def test_newton_failure_raises_after_halving(self, lake, params_case3):
        U0 = Field2D.uniform(lake, 1.0, 0.02, 0.1)
        bad_wind = lambda t: (np.nan, 0.0)  # noqa: E731
        counters = {"newton_iterations": 0, "linear_iterations": 0, "half_step_retries": 0}
        with pytest.raises(NewtonError, match=r"t=0\.125 .*residual nan against "
                                               r"tol\*scale .*last linear solve: none"):
            newton_be_step(U0.stack(), 1.0, 1.0, lake, bad_wind, params_case3, counters=counters)
        # levels 0, 1 and 2 each fell back to half steps once; level 3 raised
        assert counters["half_step_retries"] == 3
        assert counters["linear_iterations"] == 0  # the residual is NaN from the start

    def test_singular_nodal_block_takes_half_steps(self, lake):
        # extinct biomass without diffusion: the B row of each nodal block is
        # m (1 - dt a11), zero at dt = 1/a11; with P = 0 the B column is zero
        # too, so the block inverse raises and the step halves instead
        params = default_params(r=1.0, P_h=0.2, alpha=0.0)
        a11 = _reaction_kernel(0.0, 0.0, 0.0, params, jacobian=True).jacobian[0, 0]
        assert a11 > 0.0
        U0 = Field2D.uniform(lake, 0.0, 0.02, 0.0)
        counters = {"newton_iterations": 0, "linear_iterations": 0, "half_step_retries": 0}
        B, _, P = newton_be_step(U0.stack(), 1.0 / a11, 1.0 / a11, lake, None, params,
                                 counters=counters).reshape(3, -1)
        assert counters["half_step_retries"] == 1
        assert np.all(B == 0.0)
        assert np.all(P > 0.0)  # filled from the hypolimnion


def full_newton_step(U_n, dt, t_next, mesh, wind, params, tol=1e-12, max_iter=25):
    """Oracle: backward Euler by full Newton, one fresh spsolve per iteration."""
    M, K, C = assemble_fem(mesh, wind.at(t_next))
    m = np.asarray(M.sum(axis=1)).ravel()  # lumped mass
    L = [params.alpha * K + params.beta_B * C] * 2 + [params.beta * K + params.beta_P * C]
    old = [U_n.B, U_n.p, U_n.P]
    scale = max(1.0, *(np.linalg.norm(m * u) for u in old))
    y = U_n.stack()
    for _ in range(max_iter):
        B, p, P = np.split(y, 3)
        react = _reaction_kernel(B, p, P, params, True)
        rates, jac = react.rates, react.jacobian
        F = np.concatenate([m * (u - u0) + dt * (Li @ u - m * R)
                            for u, u0, Li, R in zip((B, p, P), old, L, rates)])
        if np.linalg.norm(F) <= tol * scale:
            return Field2D(B, p, P)
        blocks = [[-diags(dt * m * jac[i, j]) for j in range(3)] for i in range(3)]
        for i in range(3):
            blocks[i][i] = blocks[i][i] + diags(m) + dt * L[i]
        J = bmat(blocks, format="csc")
        y = y + spsolve(J, -F)
    raise AssertionError("oracle Newton did not converge")


class TestSimplifiedNewton:
    """Four windy steps on the 114-node lake: Newton-GMRES against the
    full-Newton oracle."""

    @pytest.fixture(scope="class")
    def windy_run(self):
        mesh = synthetic_lake_mesh()
        params = default_params(r=1.0, P_h=0.2)
        wind = SyntheticWind(20.0, 9.0)
        U0 = Field2D.bump(mesh, P0=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # Peclet warning
            snaps = simulate_2d(U0, mesh, wind, params, dt=0.5, t_end=2.0,
                                output_times=[2.0])
        oracle = U0
        for k in range(1, 5):
            oracle = full_newton_step(oracle, 0.5, 0.5 * k, mesh, wind, params)
        return mesh, snaps, oracle

    def test_matches_full_newton(self, windy_run):
        mesh, snaps, oracle = windy_run
        assert mesh.n_nodes == 114
        for got, name in zip(snaps.y[..., -1], ("B", "p", "P")):
            np.testing.assert_allclose(got, getattr(oracle, name), rtol=1e-10)

    def test_few_newton_iterations_per_step(self, windy_run):
        _, snaps, _ = windy_run
        counters = snaps.counters
        assert counters["half_step_retries"] == 0
        steps = 4  # dt = 0.5 to t = 2
        assert counters["newton_iterations"] <= 4 * steps
        assert counters["linear_iterations"] >= counters["newton_iterations"]


def be_residual(U_n, U, dt, t_next, mesh, wind, params):
    """Norm of the backward-Euler residual of the flat state ``U`` and its
    ``scale``, in the form and order of :func:`newton_be_step`."""
    M, K, C = assemble_fem(mesh, wind.at(t_next))
    m = np.asarray(M.sum(axis=1)).ravel()
    L = [params.alpha * K + params.beta_B * C] * 2 + [params.beta * K + params.beta_P * C]
    old, new = list(U_n.reshape(3, -1)), list(U.reshape(3, -1))
    rates = _reaction_kernel(*new, params).rates
    F = np.stack([m * (u - u0) + dt * (Li @ u - m * R)
                  for u, u0, Li, R in zip(new, old, L, rates)])
    return np.linalg.norm(F), max(1.0, *(float(np.linalg.norm(m * u)) for u in old + new))


def accepted_solves(U_n, dt, mesh, wind, params):
    """One step of ``dt`` from t = 0; every backward-Euler solve it accepted,
    as ``(U_n, dt, t_next, U)``: one, or the leaves of its half steps."""
    solves, stack = [], []
    original = solver2d.newton_be_step

    def spy(U_n, dt, t_next, *args, **kwargs):
        if stack:
            stack[-1] = False  # the caller halved: it solved nothing itself
        stack.append(True)
        try:
            U = original(U_n, dt, t_next, *args, **kwargs)
        finally:
            leaf = stack.pop()
        if leaf:
            solves.append((U_n, dt, t_next, U))
        return U

    with mock.patch.object(solver2d, "newton_be_step", spy):
        solver2d.newton_be_step(U_n, dt, dt, mesh, wind, params)
    return solves


def around(default):
    return st.floats(default / 10.0, default * 10.0)


def zero_or_around(default):
    return st.one_of(st.just(0.0), around(default))


@st.composite
def lake_steps(draw):
    """Parameters inside the domain ``ModelParams`` admits, within a decade
    of the defaults; a bump or extinct field; dt up to 4 days; a wind of one
    or two records.

    Movement coefficients, D, P_h, P_in, the initial biomass and the initial
    dissolved phosphorus may all be zero; winds blow up to 1 m/s (86400
    m/day), where Galerkin advection is far outside its Peclet range.
    """
    base = _BASE_CONSTANTS
    Q_m = draw(around(base["Q_m"]))
    params = default_params(
        r=draw(around(1.0)),
        P_h=draw(zero_or_around(0.2)),
        Q_m=Q_m,
        Q_M=Q_m * draw(st.floats(1.01, 50.0)),
        P_in=draw(zero_or_around(0.01)),
        **{name: draw(zero_or_around(base[name]))
           for name in ("alpha", "beta", "beta_B", "beta_P", "D")},
        **{name: draw(around(base[name]))
           for name in ("z_m", "k", "K_bg", "H", "I_in", "l", "rho_m", "M")},
    )
    B_base = draw(st.one_of(st.just(0.0), st.floats(0.01, 20.0)))
    B_peak = draw(st.floats(0.0, 20.0)) if B_base > 0.0 else 0.0
    Q0 = draw(st.floats(params.Q_m, params.Q_M))
    P0 = draw(st.one_of(st.just(0.0), st.floats(1e-3, 5.0)))
    records = draw(st.integers(1, 2))
    speed = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    wind = WindSeries(np.arange(records) * draw(st.floats(0.1, 5.0)),
                      [draw(speed) for _ in range(records)],
                      [draw(speed) for _ in range(records)])
    return params, (B_base, B_peak, Q0, P0), draw(st.floats(1e-3, 4.0)), wind


class TestRobustness:
    """Every outcome of a step or a run is a checked result or a typed error."""

    @settings(max_examples=40, deadline=None)
    @given(lake_steps())
    def test_step_converges_or_raises_newton_error(self, lake_114, case):
        params, (B_base, B_peak, Q0, P0), dt, wind = case
        mesh = lake_114
        U0 = Field2D.bump(mesh, B_base, B_peak, Q0, P0)
        try:
            solves = accepted_solves(U0.stack(), dt, mesh, wind, params)
        except NewtonError as exc:
            assert "last linear solve" in str(exc)
            return
        assert sum(step for _, step, _, _ in solves) == pytest.approx(dt, rel=1e-12)
        for U_n, step, t_next, U in solves:
            res, scale = be_residual(U_n, U, step, t_next, mesh, wind, params)
            assert res <= 1e-12 * scale

    @pytest.mark.parametrize("P_in, D, dt", [
        (3.0, 0.125, 3.0), (3.0, 0.125, 1.0), (1.0, 0.5, 4.0), (0.3, 0.02, 4.0),
    ])
    def test_step_from_zero_fields_is_not_halved(self, lake_114, P_in, D, dt):
        # a source-fed step from empty fields: Newton's stopping test scales
        # with the iterate, not only with the zero start (an absolute 1e-12
        # against residual terms of order m P ~ 1e3); with the old-state
        # scale alone the first draw raised NewtonError after three levels
        # of half steps
        params = default_params(r=1.0, P_h=0.0, alpha=0.0, beta=0.0, beta_B=0.0,
                                beta_P=0.0, z_m=0.5, P_in=P_in, D=D)
        zero = np.zeros(lake_114.n_nodes)
        snaps = simulate_2d(Field2D(zero, zero, zero), lake_114, None, params, dt=dt,
                            t_end=dt, output_times=[dt])
        assert snaps.counters["half_step_retries"] == 0

    @pytest.mark.parametrize("wind", ["wind_sample.csv", SyntheticWind(2000.0, 9.0)],
                             ids=["wind_sample", "synthetic_2000"])
    def test_strong_wind_run_is_valid_or_typed(self, lake_114, wind):
        if isinstance(wind, str):
            with open(CONFIGS_DIR / wind, encoding="utf-8") as fh:
                wind = parse_wind_records(fh)
        mesh = lake_114
        params = default_params(r=1.0, P_h=2.0)
        U0 = Field2D.bump(mesh, P0=2.0)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "cell Peclet", RuntimeWarning)
            try:
                snaps = simulate_2d(U0, mesh, wind, params, dt=0.5, t_end=5.0,
                                    output_times=[5.0])
            except (NewtonError, IntegrationError) as exc:
                assert re.search(r"\bt=\d", str(exc)), str(exc)
                return
        snaps.validate()


class TestSimulate:
    def test_uniform_run_tracks_homogeneous_ode(self, params_case3):
        # spatial terms vanish identically for uniform data, so the mesh can
        # be tiny; dt controls the time-discretization error alone
        mesh = two_triangle_square(side=100.0)
        U0 = Field2D.uniform(mesh, 15.0, 0.0118, 0.01)  # near the attractor
        t_end = 50.0
        snaps = simulate_2d(U0, mesh, None, params_case3, dt=0.05, t_end=t_end,
                            output_times=[0.0, 25.0, 50.0])
        oracle = integrate_homogeneous(
            HomState(15.0, 15.0 * 0.0118, 0.01), params_case3, t_end,
            rtol=1e-11, atol=1e-13, t_eval=[0.0, 25.0, 50.0],
        )
        for i, t in enumerate((0.0, 25.0, 50.0)):
            got = snaps.y[:, 0, i]
            ref = oracle.y[:, i]
            assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-3

    def test_closed_budget_conservation(self, lake):
        params = default_params(r=1.0, P_h=0.2, D=0.0, P_in=0.0)
        U0 = Field2D.bump(lake, P0=0.15)
        snaps = simulate_2d(U0, lake, None, params, dt=0.5, t_end=50.0,
                            output_times=np.linspace(0.0, 50.0, 6))
        M, _, _ = assemble_fem(lake, (0.0, 0.0))
        ones = np.ones(lake.n_nodes)
        totals = ones @ (M @ (snaps.p + snaps.P))
        drift = np.abs(np.diff(totals)).sum() / totals[0]
        assert drift < 1e-6

    def test_quota_tube_and_positivity(self, lake, params_case3):
        U0 = Field2D.bump(lake, P0=0.2)
        with pytest.warns(RuntimeWarning, match="Peclet"):  # expected under wind
            snaps = simulate_2d(U0, lake, SyntheticWind(30.0, 7.0), params_case3,
                                dt=0.5, t_end=30.0, output_times=[0.0, 10.0, 30.0])
        p = params_case3
        mask = snaps.B > QUOTA_B_FLOOR
        q = snaps.p[mask] / snaps.B[mask]
        assert q.min() >= p.Q_m - 1e-6 and q.max() <= p.Q_M + 1e-6
        assert snaps.y.min() > -1e-10

    def test_biomass_declines_without_phosphorus(self, lake):
        params = default_params(r=1.0, P_h=0.0)
        U0 = Field2D.bump(lake, B_base=0.1, B_peak=2.0, Q0=0.004, P0=0.005)
        snaps = simulate_2d(U0, lake, None, params, dt=0.5, t_end=60.0,
                            output_times=[0.0, 60.0])
        assert snaps.B[:, -1].max() < 0.25 * snaps.B[:, 0].max()

    def test_bloom_dies_out_inside_the_quota_tube(self):
        # without hypolimnion phosphorus a starved bloom stops growing at the
        # quota floor Q_m and dies out, rather than stalling near B ~ 1e-8
        # with p/B below Q_m
        mesh = synthetic_lake_mesh()
        params = default_params(r=1.0, P_h=0.0)
        U0 = Field2D.bump(mesh, Q0=0.005, P0=0.005)
        snaps = simulate_2d(U0, mesh, None, params, dt=2.0, t_end=750.0,
                            output_times=np.arange(0.0, 751.0, 50.0))
        assert snaps.B[:, -1].max() < 1e-12
        live = snaps.B > EPS_B
        q = snaps.p[live] / snaps.B[live]
        assert np.all(q >= params.Q_m - 1e-6) and np.all(q <= params.Q_M + 1e-6)

    def test_year_long_outcomes_split_on_hypolimnion_phosphorus(self):
        from bloomsim.core import b_bar

        mesh = synthetic_lake_mesh(target_h=160.0)

        # no deep-water phosphorus and a lean initial pool: near-complete
        # depletion within the year
        params0 = default_params(r=1.0, P_h=0.0)
        U0 = Field2D.bump(mesh, B_base=0.1, B_peak=2.0, Q0=0.004, P0=0.005)
        ext = simulate_2d(U0, mesh, None, params0, dt=0.5, t_end=365.0,
                          output_times=[0.0, 365.0])
        assert ext.B[:, -1].max() < 1e-3 * ext.B[:, 0].max()

        # rich hypolimnion: positive everywhere and under the biomass bound
        params2 = default_params(r=1.0, P_h=2.0)
        U2 = Field2D.bump(mesh, P0=2.0)
        sat = simulate_2d(U2, mesh, None, params2, dt=0.5, t_end=365.0,
                          output_times=[0.0, 365.0])
        B_final = sat.B[:, -1]
        assert B_final.min() > 0.0
        assert B_final.max() <= max(U2.B.max(), b_bar(params2)) + 1e-6

    def test_peclet_warning_fires_once(self, lake, params_case3):
        U0 = Field2D.uniform(lake, 1.0, 0.02, 0.2)
        gale = lambda t: (5.0e5, 0.0)  # noqa: E731 - strongly advective
        with pytest.warns(RuntimeWarning, match="Peclet"):
            simulate_2d(U0, lake, gale, params_case3, dt=0.01, t_end=0.02,
                        output_times=[0.02])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"beta_B": 0.0, "beta_P": 0.5},  # only the P field is advected
            {"alpha": 0.0, "beta_P": 0.0},  # B advected without diffusion
        ],
    )
    def test_peclet_warning_covers_both_fields(self, lake, params_case3, overrides):
        U0 = Field2D.uniform(lake, 1.0, 0.02, 0.2)
        wind = lambda t: (4.0, 0.0)  # noqa: E731
        with pytest.warns(RuntimeWarning, match="Peclet"):
            simulate_2d(U0, lake, wind, params_case3.replace(**overrides), dt=0.01,
                        t_end=0.02, output_times=[0.02])

    def test_zero_diffusivity_in_still_water(self, lake, params_case3):
        params = params_case3.replace(alpha=0.0)
        U0 = Field2D.bump(lake, P0=0.15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # still water: no Peclet warning
            snaps = simulate_2d(U0, lake, None, params, dt=0.5, t_end=2.0,
                                output_times=[0.0, 2.0])
        assert isinstance(snaps, Trajectory)
        snaps.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["B", "p", "P"])
    def test_validate_rejects_non_finite_values(self, lake, params_case3, name, bad):
        field = Field2D.uniform(lake, 1.0, 0.02, 0.2)
        getattr(field, name)[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            field.validate(params_case3)

    def test_output_times_validated(self, lake, params_case3):
        U0 = Field2D.uniform(lake, 1.0, 0.02, 0.2)
        with pytest.raises(ValueError):
            simulate_2d(U0, lake, None, params_case3, dt=0.5, t_end=10.0,
                        output_times=[0.0, 20.0])

    @pytest.mark.parametrize("output_times", [[np.nan], [0.0, np.nan], [], [-1.0]])
    def test_bad_output_times_name_the_argument(self, lake, params_case3, output_times):
        U0 = Field2D.uniform(lake, 1.0, 0.02, 0.2)
        with pytest.raises(ValueError, match="output_times"):
            simulate_2d(U0, lake, None, params_case3, dt=0.5, t_end=10.0,
                        output_times=output_times)

    @pytest.mark.parametrize("t_end", [np.nan, -1.0])
    def test_bad_t_end_names_the_argument(self, lake, params_case3, t_end):
        U0 = Field2D.uniform(lake, 1.0, 0.02, 0.2)
        with pytest.raises(ValueError, match="t_end"):
            simulate_2d(U0, lake, None, params_case3, dt=0.5, t_end=t_end,
                        output_times=[0.0])

    def test_initial_field_must_match_the_mesh(self, lake, lake_114, params_case3):
        U0 = Field2D.uniform(lake_114, 1.0, 0.02, 0.2)
        with pytest.raises(ValueError, match="initial field does not match the mesh"):
            simulate_2d(U0, lake, None, params_case3, dt=0.5, t_end=1.0,
                        output_times=[1.0])

    def test_step_takes_and_returns_the_flat_state(self, lake, params_case3):
        U0 = Field2D.bump(lake, P0=0.2)
        y0 = U0.stack()
        y1 = newton_be_step(y0, 0.5, 0.5, lake, None, params_case3)
        assert y1.shape == y0.shape == (3 * lake.n_nodes,)
        np.testing.assert_array_equal(y0, U0.stack())  # the old state is untouched
        snaps = simulate_2d(U0, lake, None, params_case3, dt=0.5, t_end=0.5,
                            output_times=[0.0, 0.5])
        np.testing.assert_array_equal(snaps.y[..., 0], y0.reshape(3, -1))
        np.testing.assert_array_equal(snaps.y[..., 1], y1.reshape(3, -1))


class TestRefinementConsistency:
    def test_coarse_nodes_transfer(self, params_case3):
        # prerequisite of the convergence checks: restriction by node prefix
        mesh = synthetic_lake_mesh(target_h=160.0)
        fine = refine_uniform(mesh)
        kw = dict(P0=0.2, center=(0.0, 0.0), width=150.0)
        U = Field2D.bump(fine, **kw)
        assert np.allclose(U.B[: mesh.n_nodes], Field2D.bump(mesh, **kw).B)
