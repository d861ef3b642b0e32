"""Kernel-level checks against independently computed values.

The frozen constants below were evaluated from the closed-form expressions
with 40-digit arithmetic (mpmath), composing light attenuation, the log
formula, and the quota interpolation independently of the implementation.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomsim.core import (
    EPS_B,
    DomainError,
    HomState,
    _reaction_kernel,
    b_bar,
    default_params,
    growth_h,
    growth_h_prime,
    light_intensity,
    q_hat,
    r0,
    reaction_jacobian,
    reaction_rhs,
    uptake_eta,
    uptake_rho,
)

# 40-digit oracle evaluations of the closed forms (section defaults)
I_AT_5M_NO_BIOMASS = 66.93904804452894868
H_AT_ZERO = 0.53964806256053683311
QHAT_CASE2 = 0.036269844310492258248
R0_CASE2 = 0.94941607117209962467
R0_CASE3 = 1.3496987134796246945
BBAR_R1 = 842.49529893478982503


class TestModelParams:
    def test_defaults_build(self):
        p = default_params()
        assert p.r == 1.0 and p.P_h == 0.2 and p.P_in == 0.0

    @pytest.mark.parametrize("bad", [dict(r=-1.0), dict(z_m=0.0), dict(M=-2.0), dict(alpha=-0.01)])
    def test_positive_fields_enforced(self, bad):
        with pytest.raises(DomainError):
            default_params(**bad)

    def test_movement_coefficients_may_vanish(self):
        p = default_params(alpha=0.0, beta=0.0, beta_B=0.0, beta_P=0.0, D=0.0)
        assert p.exchange == 0.0
        assert p.diffusivities == p.advection_scalars == (0.0, 0.0, 0.0)

    def test_movement_table_pairs_p_with_b(self):
        # rows (B, p, P): internal phosphorus moves with the cells
        p = default_params(alpha=0.1, beta=0.2, beta_B=0.3, beta_P=0.4)
        assert p.diffusivities == (0.1, 0.1, 0.2)
        assert p.advection_scalars == (0.3, 0.3, 0.4)

    def test_quota_ordering_enforced(self):
        with pytest.raises(DomainError):
            default_params(Q_m=0.05, Q_M=0.04)

    def test_p_h_may_be_zero_but_not_negative(self):
        assert default_params(P_h=0.0).P_h == 0.0
        with pytest.raises(DomainError):
            default_params(P_h=-0.1)

    def test_replace_revalidates(self):
        p = default_params()
        with pytest.raises(DomainError):
            p.replace(z_m=-5.0)

    def test_cached_q_hat_follows_the_parameters(self):
        p = default_params(r=1.0, P_h=2.0)
        assert p.q_hat == q_hat(p)
        lean = p.replace(P_h=0.1)
        assert lean.q_hat == q_hat(lean) != p.q_hat
        for params in (p, lean):
            back = pickle.loads(pickle.dumps(params))
            assert back == params and hash(back) == hash(params)
            assert back.q_hat == q_hat(params)
            assert back.replace(P_h=0.5).q_hat == q_hat(default_params(r=1.0, P_h=0.5))


class TestLightIntensity:
    def test_surface_returns_incident_light(self, params_case2):
        for B in (0.0, 3.0, 50.0):
            assert light_intensity(0.0, B, params_case2) == params_case2.I_in

    def test_clear_column_oracle(self, params_case2):
        assert light_intensity(5.0, 0.0, params_case2) == pytest.approx(
            I_AT_5M_NO_BIOMASS, rel=1e-14
        )

    def test_monotone_in_depth_and_biomass(self, params_case2):
        s = np.linspace(0.1, 20, 25)
        I = light_intensity(s, 2.0, params_case2)
        assert np.all(np.diff(I) < 0)
        B = np.linspace(0.0, 100, 25)
        I = light_intensity(5.0, B, params_case2)
        assert np.all(np.diff(I) < 0)

    def test_domain_errors(self, params_case2):
        with pytest.raises(DomainError):
            light_intensity(-1.0, 0.0, params_case2)
        with pytest.raises(DomainError):
            light_intensity(1.0, -0.5, params_case2)


class TestGrowthH:
    def test_value_at_zero_biomass(self, params_case2):
        assert growth_h(0.0, params_case2) == pytest.approx(H_AT_ZERO, rel=1e-14)

    def test_positive_and_decreasing(self, params_case2):
        B = np.linspace(0.0, 100.0, 201)
        h = growth_h(B, params_case2)
        assert np.all(h > 0)
        assert np.all(np.diff(h) < 0)

    def test_prime_matches_finite_differences(self, params_case2):
        for B in (0.0, 1.0, 16.3, 80.0):
            fd = (growth_h(B + 1e-6, params_case2) - growth_h(max(B - 1e-6, 0.0), params_case2)) / (
                1e-6 + min(B, 1e-6)
            )
            assert growth_h_prime(B, params_case2) == pytest.approx(fd, rel=1e-5)


class TestUptake:
    def test_rho_vanishes_at_full_quota(self, params_case2):
        for P in (0.0, 1.0, 100.0):
            assert uptake_rho(params_case2.Q_M, P, params_case2) == 0.0

    def test_rho_saturates_at_minimum_quota(self, params_case2):
        assert uptake_rho(params_case2.Q_m, 1e12, params_case2) == pytest.approx(
            params_case2.rho_m, rel=1e-10
        )

    def test_rho_midpoint_quarter(self, params_case2):
        q_mid = 0.5 * (params_case2.Q_m + params_case2.Q_M)
        assert uptake_rho(q_mid, params_case2.M, params_case2) == pytest.approx(
            params_case2.rho_m / 4.0
        )

    def test_rho_domain_error(self, params_case2):
        with pytest.raises(DomainError):
            uptake_rho(params_case2.Q_M * 1.5, 1.0, params_case2)

    def test_rho_bounded_and_monotone(self, params_case2):
        Q = np.linspace(params_case2.Q_m, params_case2.Q_M, 21)
        P = np.linspace(0.0, 50.0, 21)
        for q in Q:
            vals = uptake_rho(q, P, params_case2)
            assert np.all(vals >= 0.0) and np.all(vals <= params_case2.rho_m)
            assert np.all(np.diff(vals) >= 0.0)
        for Pv in P[1:]:
            vals = uptake_rho(Q, Pv, params_case2)
            assert np.all(np.diff(vals) <= 0.0)

    def test_eta_trivial_zeros(self, params_case2):
        assert uptake_eta(0.0, 0.0, 2.0, params_case2) == 0.0
        assert uptake_eta(3.0, params_case2.Q_M * 3.0, 2.0, params_case2) == 0.0

    def test_eta_example_cross_check(self):
        p = default_params(r=1.0, P_h=0.2)  # Q_m=0.004, Q_M=0.04, rho_m=1, M=1.5
        assert uptake_eta(2.0, 0.02, 1.5, p) == pytest.approx(
            uptake_rho(0.01, 1.5, p) * 2.0, rel=1e-14
        )

    @settings(max_examples=200, deadline=None)
    @given(
        B=st.floats(1e-6, 1e3),
        q_frac=st.floats(0.0, 1.0),
        P=st.floats(0.0, 1e4),
    )
    def test_eta_equals_rho_times_B(self, B, q_frac, P):
        p = default_params()
        Q = min(p.Q_m + q_frac * (p.Q_M - p.Q_m), p.Q_M)
        lhs = uptake_eta(B, Q * B, P, p)
        rhs = uptake_rho(Q, P, p) * B
        # abs floor covers the cancellation noise when Q sits within
        # rounding distance of Q_M and both sides are ~eps * rho_m * B
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13 * p.rho_m * B)


class TestEquilibriumQuantities:
    def test_qhat_is_qm_without_hypolimnion_phosphorus(self, params_case1):
        assert q_hat(params_case1) == pytest.approx(params_case1.Q_m, rel=1e-14)

    def test_qhat_tends_to_qM_for_fast_uptake(self):
        p = default_params(rho_m=1e9, P_h=5.0)
        assert q_hat(p) == pytest.approx(p.Q_M, rel=1e-6)

    def test_qhat_case2_oracle(self, params_case2):
        assert q_hat(params_case2) == pytest.approx(QHAT_CASE2, rel=1e-12)

    def test_qhat_convex_combination(self, params_case2):
        p = params_case2
        rh0 = p.r * growth_h(0.0, p)
        rho_t = p.rho_m / (p.Q_M - p.Q_m) * p.P_h / (p.P_h + p.M)
        w = rh0 / (rho_t + rh0)
        assert p.Q_m <= q_hat(p) <= p.Q_M
        assert q_hat(p) == pytest.approx(w * p.Q_m + (1 - w) * p.Q_M, rel=1e-13)

    def test_r0_golden_triple(self, params_case1, params_case2, params_case3):
        assert r0(params_case1) == 0.0
        assert abs(r0(params_case2) - 0.9494) < 5e-4
        assert abs(r0(params_case3) - 1.3497) < 5e-4

    def test_r0_zero_iff_no_hypolimnion_phosphorus(self):
        assert r0(default_params(P_h=0.0)) == 0.0
        for P_h in (1e-6, 0.01, 0.5, 3.0):
            assert r0(default_params(P_h=P_h)) > 0.0

    def test_r0_increasing_in_P_h(self):
        values = [r0(default_params(P_h=P_h)) for P_h in np.linspace(0.0, 5.0, 40)]
        assert np.all(np.diff(values) > 0)

    def test_bbar_oracle_and_scaling(self, params_case3):
        assert b_bar(params_case3) == pytest.approx(BBAR_R1, rel=1e-12)
        doubled = params_case3.replace(k=2 * params_case3.k)
        assert b_bar(doubled) == pytest.approx(b_bar(params_case3) / 2.0, rel=1e-12)

    def test_bbar_negative_under_heavy_attenuation(self):
        assert b_bar(default_params(K_bg=100.0)) < 0.0

    def test_bbar_is_root_of_growth_balance(self, params_case3):
        p = params_case3
        Bb = b_bar(p)
        bracket = (
            p.r
            * (p.Q_M - p.Q_m)
            / p.Q_M
            * math.log((p.H + p.I_in) / p.H)
            / (p.z_m * (p.k * Bb + p.K_bg))
            - p.l
            - p.D / p.z_m
        )
        assert bracket == pytest.approx(0.0, abs=1e-12)


class TestReactionRhs:
    def test_extinction_equilibrium_is_fixed(self, params_case2):
        rates = reaction_rhs(HomState(0.0, 0.0, params_case2.P_h), params_case2)
        assert np.allclose(rates, 0.0, atol=1e-15)

    def test_positive_equilibrium_from_figure(self, params_case3):
        rates = reaction_rhs(HomState(16.2785, 0.1920, 0.0080), params_case3)
        assert np.all(np.abs(rates) < 1e-3)

    def test_no_internal_phosphorus_decays_at_loss_rate(self, params_case2):
        # the quota p/B = 0 clips to Q_m, where growth stops
        p = params_case2
        dB, _, _ = reaction_rhs(HomState(1.0, 0.0, 0.1), p)
        assert dB == pytest.approx(-(p.l + p.D / p.z_m), rel=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(
        B=st.floats(1e-9, 500.0),
        q_frac=st.floats(0.0, 1.0),
        P=st.floats(0.0, 10.0),
    )
    def test_phosphorus_exchange_cancels(self, B, q_frac, P):
        p = default_params(P_in=0.07)
        Q = p.Q_m + q_frac * (p.Q_M - p.Q_m)
        dB, dp, dP = reaction_rhs(HomState(B, Q * B, P), p)
        expected = p.exchange * (p.P_h - P) + p.P_in - p.exchange * (Q * B)
        assert dp + dP == pytest.approx(expected, rel=1e-11, abs=1e-13)

    def test_jacobian_matches_finite_differences(self, params_case3, rng):
        p = params_case3
        for _ in range(5):
            B = rng.uniform(0.5, 30.0)
            Q = rng.uniform(p.Q_m * 1.2, p.Q_M * 0.8)
            P = rng.uniform(0.01, 2.0)
            y0 = np.array([B, Q * B, P])
            J = reaction_jacobian(*y0, p)
            for j in range(3):
                step = np.zeros(3)
                step[j] = 1e-7 * max(1.0, abs(y0[j]))
                plus = reaction_rhs(HomState(*(y0 + step)), p)
                minus = reaction_rhs(HomState(*(y0 - step)), p)
                fd = (plus - minus) / (2.0 * step[j])
                assert np.allclose(J[:, j], fd, rtol=2e-6, atol=1e-9)

    def test_vectorized_rates_match_scalar(self, params_case3, rng):
        p = params_case3
        B = rng.uniform(0.5, 20.0, size=8)
        Q = rng.uniform(p.Q_m, p.Q_M, size=8)
        P = rng.uniform(0.0, 2.0, size=8)
        out = _reaction_kernel(B, Q * B, P, p, jacobian=True)
        assert out.rates.shape == (3, 8) and out.jacobian.shape == (3, 3, 8)
        for i in range(8):
            expected = reaction_rhs(HomState(B[i], Q[i] * B[i], P[i]), p)
            assert np.allclose(out.rates[:, i], expected, rtol=1e-12)
            expected = reaction_jacobian(B[i], Q[i] * B[i], P[i], p)
            assert np.allclose(out.jacobian[:, :, i], expected, rtol=1e-12)

    def test_jacobian_arrays_match_finite_differences_with_cell_quota(
        self, params_case3, rng
    ):
        # the default quota p/B, clipped to the tube: nodes inside it, below
        # Q_m and above Q_M, live nodes near extinction, and nodes below
        # EPS_B where q_hat stands in; every quota keeps 20% from the clip's
        # kinks, beyond the reach of the stencil
        p = params_case3
        inside = rng.uniform(p.Q_m * 1.2, p.Q_M * 0.8, 4)
        below = rng.uniform(0.0, p.Q_m * 0.8, 3)
        above = rng.uniform(p.Q_M * 1.2, p.Q_M * 3.0, 3)
        near = rng.uniform(p.Q_m * 1.2, p.Q_M * 0.8, 2)
        Q = np.concatenate([inside, below, above, near, [0.02, 0.01]])
        B = np.concatenate([rng.uniform(0.5, 30.0, 10), [1e-8, 4e-8], [EPS_B / 2, EPS_B / 4]])
        # at the small-B nodes P = P_h, which zeroes the exchange term: its
        # rounding would swamp a difference quotient over steps of ~1e-15
        P = np.concatenate([rng.uniform(0.01, 2.0, 10), np.full(4, p.P_h)])
        y = np.array([B, Q * B, P])

        J = _reaction_kernel(*y, p, jacobian=True).jacobian
        assert J.shape == (3, 3, B.size)
        # growth sees p only through a quota inside the tube at a live node
        assert np.all(J[0, 1, 4:10] == 0.0) and np.all(J[0, 1, 12:] == 0.0)
        for j in range(3):
            # nodes do not couple, so all of them are stepped at once; the
            # step follows each state's scale, which keeps the extinct nodes
            # below EPS_B and every state away from the clamps at zero
            step = np.zeros_like(y)
            step[j] = 1e-5 * y[j]
            fd = (_reaction_kernel(*(y + step), p).rates
                  - _reaction_kernel(*(y - step), p).rates) / (2.0 * step[j])
            assert np.allclose(J[:, j], fd, rtol=1e-5, atol=1e-6)


class TestHomState:
    def test_rejects_negative_components(self):
        with pytest.raises(DomainError):
            HomState(-1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, np.float64(math.nan)])
    @pytest.mark.parametrize("component", range(3))
    def test_rejects_non_finite_and_negative_in_every_component(self, bad, component):
        values = [1.0, 0.02, 0.1]
        values[component] = bad
        with pytest.raises(DomainError):
            HomState(*values)

    def test_quota_guard_at_extinction(self, params_case2):
        st0 = HomState(0.0, 0.0, 0.3)
        assert st0.quota(params_case2) == pytest.approx(q_hat(params_case2))

    def test_check_quota_flags_violation(self, params_case2):
        with pytest.raises(DomainError):
            HomState(1.0, 1.0, 0.1).check_quota(params_case2)  # Q = 1 >> Q_M
