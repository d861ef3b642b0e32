"""Homogeneous integration and equilibrium location.

The positive-equilibrium golden values come from the reported steady state
(B, p, P) = (16.2785, 0.1920, 0.0080) of the persistent regime; note the
middle entry is internal phosphorus, so the quota there is p/B = 0.0118.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import bloomsim.ode
from bloomsim.core import (
    EPS_B,
    QUOTA_B_FLOOR,
    DomainError,
    HomState,
    b_bar,
    default_params,
    r0,
    reaction_rhs,
)
from bloomsim.ode import (
    IntegrationError,
    Trajectory,
    _equilibrium_biomass,
    _equilibrium_quota,
    extinction_state,
    find_equilibrium,
    integrate_homogeneous,
)

U_STAR = (16.2785, 0.1920, 0.0080)


def _zero_or(lo, hi):
    # zero one time in four, so that most draws keep the other branch
    return st.integers(0, 3).flatmap(lambda i: st.floats(lo, hi) if i else st.just(0.0))


@st.composite
def model_params(draw):
    """ModelParams across the admitted domain, zero exchange, zero
    hypolimnion phosphorus and an external source included."""
    Q_m = draw(st.floats(1e-3, 0.02))
    return default_params(
        r=draw(st.floats(0.05, 5.0)),
        P_h=draw(_zero_or(1e-3, 5.0)),
        D=draw(_zero_or(1e-4, 1.0)),
        P_in=draw(_zero_or(1e-4, 0.1)),
        l=draw(st.floats(0.01, 1.0)),
        K_bg=draw(st.floats(0.05, 2.0)),
        k=draw(st.floats(1e-5, 1e-2)),
        z_m=draw(st.floats(1.0, 20.0)),
        M=draw(st.floats(0.05, 5.0)),
        rho_m=draw(st.floats(0.05, 5.0)),
        Q_m=Q_m,
        Q_M=Q_m * draw(st.floats(1.5, 20.0)),
        H=draw(st.floats(10.0, 500.0)),
        I_in=draw(st.floats(10.0, 2000.0)),
    )


def _no_integration(*args, **kwargs):
    raise AssertionError("find_equilibrium integrated the system")


def _assert_equilibrium(state, params):
    # the residual test of find_equilibrium at its default rtol
    residual = np.linalg.norm(reaction_rhs(state, params))
    assert residual <= 1e-10 * max(1.0, np.abs(state.as_array()).max())


def regime_grid_params():
    """The (r, P_h) points of the benchmark's ``regime`` grid: a scrambled
    Sobol sample of 8 points, 7 of them with R0 > 1."""
    unit = qmc.Sobol(d=2, scramble=True, seed=0).random_base2(3)
    return [default_params(r=r, P_h=P_h)
            for r, P_h in qmc.scale(unit, [0.5, 0.02], [1.5, 0.52])]


class TestIntegrateHomogeneous:
    def test_extinction_equilibrium_stays_fixed(self, params_case2):
        start = HomState(0.0, 0.0, params_case2.P_h)
        traj = integrate_homogeneous(start, params_case2, 100.0)
        assert np.allclose(traj.y, traj.y[:, :1], atol=1e-12)

    def test_case3_reaches_reported_equilibrium(self, params_case3):
        start = HomState(5.0, 5.0 * 0.02, 0.15)
        traj = integrate_homogeneous(start, params_case3, 4000.0, rtol=1e-10, atol=1e-12)
        for got, want in zip(traj.y[:, -1], U_STAR):
            assert abs(got - want) / want < 0.01
        # equivalently (B, Q, P) = (16.2785, 0.0118, 0.0080)
        assert traj.quota()[-1] == pytest.approx(0.0118, rel=0.01)

    def test_case2_biomass_dies_out(self, params_case2):
        start = HomState(5.0, 5.0 * 0.02, 0.15)
        traj = integrate_homogeneous(start, params_case2, 4000.0, rtol=1e-10, atol=1e-13)
        assert traj.B[-1] < 1e-3

    def test_subthreshold_config_runs_to_extinction(self, params_case2):
        # configs/ode_subthreshold.json, at the default tolerances: on the way
        # to extinction the internal pool empties while B > 0 remains, where
        # growth stops at the quota floor Q_m; the trajectory is validated
        traj = integrate_homogeneous(HomState(5.0, 0.1, 0.15), params_case2, 4000.0)
        assert traj.B[-1] < 1e-9

    def test_undershoot_of_internal_phosphorus_is_pulled_back(self):
        # the integrand sees the raw state: a trial p slightly below zero
        # meets its linear loss, not a clip to zero that would hold it there
        traj = integrate_homogeneous(HomState(5.0, 0.1, 0.15),
                                     default_params(r=0.5, P_h=0.1), 4000.0)
        traj.validate()
        assert traj.B[-1] < 1e-9

    def test_quota_tube_and_positivity_along_trajectory(self, params_case3):
        start = HomState(0.5, 0.5 * params_case3.Q_m, 1.0)  # starved cells
        traj = integrate_homogeneous(start, params_case3, 500.0)
        q = traj.quota()
        assert q.min() >= params_case3.Q_m - 1e-6
        assert q.max() <= params_case3.Q_M + 1e-6
        assert traj.y.min() > -1e-10
        assert np.all(traj.B > 0.0)

    def test_closed_budget_without_exchange(self):
        p = default_params(r=1.0, P_h=0.2, D=0.0, P_in=0.0)
        start = HomState(3.0, 3.0 * 0.02, 0.4)
        traj = integrate_homogeneous(start, p, 200.0, rtol=1e-10, atol=1e-13)
        total = traj.p + traj.P
        assert np.abs(total - total[0]).max() / total[0] < 1e-8

    def test_biomass_bound_when_bbar_positive(self, params_case3):
        bb = b_bar(params_case3)
        assert bb > 0
        start = HomState(900.0, 900.0 * 0.02, 2.0)
        traj = integrate_homogeneous(start, params_case3, 800.0)
        assert traj.B.max() <= max(start.B, bb) + 1e-6

    def test_invalid_arguments(self, params_case2):
        with pytest.raises(ValueError):
            integrate_homogeneous(HomState(1.0, 0.02, 0.1), params_case2, -5.0)
        with pytest.raises(ValueError):
            integrate_homogeneous(HomState(1.0, 0.02, 0.1), params_case2, 10.0, rtol=0.0)

    @pytest.mark.parametrize("t_end, tolerances", [
        (np.nan, {}), (10.0, {"rtol": np.nan}), (10.0, {"atol": np.nan}),
    ])
    def test_nan_arguments_rejected(self, params_case2, t_end, tolerances):
        with pytest.raises(ValueError, match="must be positive"):
            integrate_homogeneous(HomState(1.0, 0.02, 0.1), params_case2, t_end, **tolerances)

    @pytest.mark.parametrize("t_eval", [[np.nan], [0.0, 2.0, 1.0], [0.0, 5.0, 5.0], [-1.0, 1.0], [0.0, 20.0], []],
                             ids=["nan", "unordered", "repeated", "negative", "past_t_end", "empty"])
    def test_bad_sample_times_are_usage_errors(self, params_case2, t_eval):
        # checked before the solve: a ValueError, not an IntegrationError or
        # a bare IndexError from inside the integrator
        with pytest.raises(ValueError, match="sample times must be"):
            integrate_homogeneous(HomState(1.0, 0.02, 0.1), params_case2, 10.0, t_eval=t_eval)


# the three sampled-solution shapes: the nodes between the (B, p, P) rows
# and the samples, none for the well-mixed ODE
SAMPLE_NODES = {"ode": (), "transect": (5,), "lake": (7,)}


def _samples(nodes):
    # six valid samples (B, p, P) = (2, 0.04, 0.1), quota 0.02, 1.5 days apart
    t = 1.5 * np.arange(6.0)
    y = np.empty((3, *nodes, t.size))
    y[0], y[1], y[2] = 2.0, 0.04, 0.1
    return t, y


def _set(y, row, sample, value):
    # one value of ``row`` at ``sample``, at the middle node of nodal samples
    y[(row, *(n // 2 for n in y.shape[1:-1]), sample)] = value


@pytest.mark.parametrize("bad, match", [
    (-1e-6, "negative state"), (np.nan, "non-finite"), (np.inf, "non-finite"),
    (-np.inf, "non-finite"),
], ids=["negative", "nan", "inf", "-inf"])
@pytest.mark.parametrize("row", range(3), ids=["B", "p", "P"])
@pytest.mark.parametrize("kind", SAMPLE_NODES)
def test_validate_reports_first_failing_sample(params_case3, kind, row, bad, match):
    t, y = _samples(SAMPLE_NODES[kind])
    _set(y, row, 2, bad)
    _set(y, row, 4, bad)
    with pytest.raises(IntegrationError, match=match) as info:
        Trajectory(t, y, params_case3).validate()
    assert info.value.t == 3.0
    assert np.array_equal(info.value.state, y[..., 2].ravel(), equal_nan=True)


@pytest.mark.parametrize("quota", [1e-3, 0.5], ids=["below_Q_m", "above_Q_M"])
@pytest.mark.parametrize("kind", SAMPLE_NODES)
def test_validate_checks_the_tube_only_above_the_floor(params_case3, kind, quota):
    # the floor is EPS_B for the ODE and QUOTA_B_FLOOR for nodal samples,
    # where p/B below it carries the solver's error in B and p
    floor = EPS_B if kind == "ode" else QUOTA_B_FLOOR
    t, y = _samples(SAMPLE_NODES[kind])
    for B in (floor / 2, floor):
        _set(y, 0, 3, B)
        _set(y, 1, 3, quota * B)
        Trajectory(t, y, params_case3).validate()
    _set(y, 0, 3, 2 * floor)
    _set(y, 1, 3, quota * 2 * floor)
    with pytest.raises(IntegrationError, match="quota left") as info:
        Trajectory(t, y, params_case3).validate()
    assert info.value.t == 4.5
    assert np.array_equal(info.value.state, y[..., 3].ravel())


class TestFindEquilibrium:
    def test_no_phosphorus_gives_bare_extinction(self, params_case1):
        state, kind = find_equilibrium(params_case1)
        assert kind == "extinction"
        assert state.B == 0.0 and state.p == 0.0
        assert state.P == pytest.approx(params_case1.P_h)

    def test_case2_returns_extinction_at_P_h(self, params_case2):
        state, kind = find_equilibrium(params_case2)
        assert kind == "extinction"
        assert (state.B, state.p, state.P) == (0.0, 0.0, pytest.approx(0.2))

    def test_case3_matches_long_integration(self, params_case3):
        state, kind = find_equilibrium(params_case3)
        assert kind == "positive"
        traj = integrate_homogeneous(
            HomState(5.0, 0.1, 0.15), params_case3, 4000.0, rtol=1e-11, atol=1e-13
        )
        oracle = traj.y[:, -1]
        got = state.as_array()
        assert np.all(np.abs(got - oracle) / np.abs(oracle) < 1e-6)

    def test_residual_below_tolerance(self, params_case3):
        from bloomsim.core import reaction_rhs

        state, _ = find_equilibrium(params_case3, rtol=1e-12)
        res = np.linalg.norm(reaction_rhs(state, params_case3))
        assert res < 1e-12 * max(1.0, np.linalg.norm(state.as_array(), np.inf))

    def test_extinction_with_external_source(self):
        p = default_params(r=0.7, P_h=0.1, P_in=0.001)
        state, kind = find_equilibrium(p)
        if kind == "extinction":
            assert state.P == pytest.approx(p.P_h + p.P_in / p.exchange)

    def test_external_source_alone_sustains_a_bloom(self):
        # no hypolimnion phosphorus: the source P_in sets the extinction
        # state's P* = P_in/(D/z_m) = 2.5, at which the R0 gate opens
        p = default_params(r=1.0, P_h=0.0, P_in=0.01)
        assert r0(p) > 1.0
        state, kind = find_equilibrium(p)
        assert kind == "positive"
        final = integrate_homogeneous(HomState(1.0, 0.02, 2.5), p, 4000.0).y[:, -1]
        assert np.abs(final - state.as_array()).max() < 1e-6

    def test_poor_guess_falls_back_to_integration(self, params_case3):
        # a guess near the (unstable) extinction state still finds E*
        state, kind = find_equilibrium(params_case3, guess=HomState(1e-3, 1e-3 * 0.01, 0.2))
        assert kind == "positive"
        assert state.B == pytest.approx(U_STAR[0], rel=0.01)

    @settings(max_examples=500, deadline=None)
    @given(params=model_params())
    def test_reduced_root_over_the_domain(self, params):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bloomsim.ode, "integrate_homogeneous", _no_integration)
            if params.D == 0.0 and params.P_in > 0.0:
                # dp + dP = P_in > 0 everywhere: no equilibrium exists
                with pytest.raises(DomainError):
                    find_equilibrium(params)
                return
            state, kind = find_equilibrium(params)
        _assert_equilibrium(state, params)
        if r0(params) <= 1.0:
            assert kind == "extinction"
            if params.D > 0.0:
                # the R0 gate agrees with the reduced equation at the
                # extinction state's dissolved phosphorus
                P_star = params.P_h + params.P_in / params.exchange
                assert _equilibrium_biomass(params, P_star) == 0.0
        elif params.D > 0.0:
            # the open budget P_h + P_in z_m/D carries a bloom whenever R0 > 1
            assert kind == "positive"
            assert state.p + state.P == pytest.approx(
                params.P_h + params.P_in / params.exchange, rel=1e-12)

    def test_no_outlet_is_a_domain_error(self, monkeypatch):
        params = default_params(r=1.0, P_h=0.2, D=0.0, P_in=0.01)
        # raised before any solve
        monkeypatch.setattr(bloomsim.ode, "_equilibrium_biomass", _no_integration)
        for call in (extinction_state, find_equilibrium):
            with pytest.raises(DomainError, match="no outlet"):
                call(params)

    def test_polish_mends_a_root_above_the_tolerance(self):
        # a large open budget nearly all held in biomass: P = T - Q B cancels,
        # and the state built from the root alone fails the default residual
        # test
        params = default_params(r=2.5, P_h=2.0, D=1e-4, P_in=0.06, l=0.07, K_bg=0.07,
                                k=1.3e-4, z_m=17.0, M=0.15, rho_m=3.5, Q_m=0.015,
                                Q_M=0.29, H=76.0, I_in=1200.0)
        total = extinction_state(params).P
        B = _equilibrium_biomass(params, total)
        p = _equilibrium_quota(B, params) * B
        root = HomState(B, p, total - p)
        residual = np.linalg.norm(reaction_rhs(root, params))
        assert residual > 1e-10 * np.abs(root.as_array()).max()
        state, kind = find_equilibrium(params)
        assert kind == "positive"
        _assert_equilibrium(state, params)

    @pytest.mark.parametrize("guess, expected", [
        (HomState(3.0, 0.06, 0.4), "positive"),
        (HomState(1.0, 0.02, 0.01), "positive"),
        (HomState(0.005, 1e-4, 0.0), "extinction"),
    ])
    def test_closed_budget_is_the_guess(self, guess, expected):
        params = default_params(r=1.0, P_h=0.2, D=0.0)
        state, kind = find_equilibrium(params, guess=guess)
        assert kind == expected
        assert state.p + state.P == pytest.approx(guess.p + guess.P, rel=1e-12)
        _assert_equilibrium(state, params)

    @pytest.mark.parametrize("params", [p for p in regime_grid_params() if r0(p) > 1.0],
                             ids=lambda p: f"r={p.r:.3f},P_h={p.P_h:.3f}")
    def test_regime_grid_matches_long_integration(self, params):
        state, kind = find_equilibrium(params)
        assert kind == "positive"
        traj = integrate_homogeneous(
            HomState(5.0, 0.1, 0.15), params, 4000.0, rtol=1e-11, atol=1e-13
        )
        oracle = traj.y[:, -1]
        assert np.all(np.abs(state.as_array() - oracle) / np.abs(oracle) < 1e-6)

    @pytest.mark.parametrize("params", [p for p in regime_grid_params() if r0(p) > 1.0],
                             ids=lambda p: f"r={p.r:.3f},P_h={p.P_h:.3f}")
    def test_regime_grid_is_the_scalar_root(self, params):
        state, _ = find_equilibrium(params)
        total = extinction_state(params).P
        B = _equilibrium_biomass(params, total)
        p = _equilibrium_quota(B, params) * B
        assert np.array_equal(state.as_array(), [B, p, total - p])
