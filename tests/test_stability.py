"""Mode-resolved stability: Jacobian structure, spectra, sweeps.

Sign-pattern expectations: with the baseline constants the extinction state
is stable for all modes when R0 < 1; in the persistent regime it is unstable
at the homogeneous mode (R0 > 1) and for spatial modes n = 1, 2, 3 exactly,
while the positive equilibrium is stable for every swept mode.
"""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ode import _zero_or, model_params

from bloomsim.core import DomainError, HomState, default_params, r0, reaction_jacobian
from bloomsim.ode import extinction_state, find_equilibrium
from bloomsim.stability import (
    ModeSpectrum,
    assemble_jacobian,
    eigen_3x3,
    mode_sweep,
    perturbed_spectrum,
    write_spectrum_csv,
)


@pytest.fixture
def eq_extinction_case2(params_case2):
    return HomState(0.0, 0.0, params_case2.P_h)


@pytest.fixture
def eq_positive_case3(params_case3):
    state, kind = find_equilibrium(params_case3, rtol=1e-12)
    assert kind == "positive"
    return state


class TestAssembleJacobian:
    def test_n0_v0_equals_reaction_jacobian(self, params_case2, eq_extinction_case2):
        J = assemble_jacobian(eq_extinction_case2, 0, 0.0, params_case2)
        A = reaction_jacobian(0.0, 0.0, params_case2.P_h, params_case2)
        assert np.allclose(J, A)
        # the quota is q_hat, constant at extinction: growth minus loss is
        # (l + D/z_m)(R0 - 1), and the p column of the growth row is zero
        p = params_case2
        assert J[0, 0].real == pytest.approx((p.l + p.D / p.z_m) * (r0(p) - 1.0), rel=1e-12)
        assert J[0, 1] == 0.0
        assert np.all(J.imag == 0.0)

    def test_uptake_column_vanishes_at_extinction(self, params_case2, eq_extinction_case2):
        # a23 has the factor (Q_M B - p), zero at the extinction state
        J = assemble_jacobian(eq_extinction_case2, 0, 0.0, params_case2)
        assert J[1, 2] == 0.0
        assert J[0, 2] == 0.0

    def test_uptake_rows_are_opposite(self, params_case3, eq_positive_case3, rng):
        J = assemble_jacobian(eq_positive_case3, 4, 1.0, params_case3)
        assert J[2, 0] == pytest.approx(-J[1, 0])
        # and structurally for arbitrary states through the reaction Jacobian
        for _ in range(10):
            B = rng.uniform(0.1, 50.0)
            Q = rng.uniform(params_case3.Q_m, params_case3.Q_M)
            P = rng.uniform(0.0, 3.0)
            A = reaction_jacobian(B, Q * B, P, params_case3)
            assert A[2, 0] == -A[1, 0]

    # n = 5e9: n^2 is past the int64 range, so the modes must square as floats
    @pytest.mark.parametrize("n,v", [(1, 0.0), (3, 1.0), (10, 2.5), (5_000_000_000, 1.0)])
    def test_mode_terms_fold_into_diagonal(self, params_case3, eq_positive_case3, n, v):
        p = params_case3
        J0 = assemble_jacobian(eq_positive_case3, 0, v, p)
        Jn = assemble_jacobian(eq_positive_case3, n, v, p)
        expected = np.diag(
            [
                -(n**2) * p.alpha - 1j * n * p.beta_B * v,
                -(n**2) * p.alpha - 1j * n * p.beta_B * v,
                -(n**2) * p.beta - 1j * n * p.beta_P * v,
            ]
        )
        assert np.allclose(Jn - J0, expected, atol=1e-14)

    def test_rejects_non_equilibrium(self, params_case3):
        with pytest.raises(ValueError, match="not an equilibrium"):
            assemble_jacobian(HomState(3.0, 0.06, 0.5), 1, 1.0, params_case3)

    def test_mode_stack_matches_single_modes(self, params_case3, eq_positive_case3):
        stack = assemble_jacobian(eq_positive_case3, np.arange(12), 2.5, params_case3)
        assert stack.shape == (12, 3, 3)
        for n in range(12):
            assert np.array_equal(stack[n],
                                  assemble_jacobian(eq_positive_case3, n, 2.5, params_case3))
        with pytest.raises(ValueError, match="mode number"):
            assemble_jacobian(eq_positive_case3, np.array([0, -1]), 2.5, params_case3)


class TestEigen3x3:
    def test_diagonal_matrix(self):
        values, vectors, warn = eigen_3x3(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(values, [3.0, 2.0, 1.0])
        assert not warn

    def test_residuals_and_unit_vectors(self, rng):
        J = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        values, vectors, _ = eigen_3x3(J)
        for i in range(3):
            assert np.linalg.norm(vectors[:, i]) == pytest.approx(1.0)
            res = np.linalg.norm(J @ vectors[:, i] - values[i] * vectors[:, i])
            assert res < 1e-10 * np.linalg.norm(J)

    def test_similarity_invariance_against_charpoly_roots(self, rng):
        # oracle: roots of the characteristic polynomial built from traces
        A = rng.normal(size=(3, 3))
        c2 = -np.trace(A)
        c1 = 0.5 * (np.trace(A) ** 2 - np.trace(A @ A))
        c0 = -np.linalg.det(A)
        oracle = np.sort_complex(np.roots([1.0, c2, c1, c0]))
        S = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        transformed = np.linalg.solve(S, A @ S)
        values, _, _ = eigen_3x3(transformed)
        assert np.allclose(np.sort_complex(values), oracle, atol=1e-8)

    def test_trace_identity(self, rng):
        J = rng.normal(size=(3, 3))
        values, _, _ = eigen_3x3(J)
        assert values.sum() == pytest.approx(np.trace(J), rel=1e-10)

    def test_sorted_by_descending_real_then_imag(self):
        J = np.diag([1.0 + 2.0j, 1.0 - 1.0j, 5.0])
        values, _, _ = eigen_3x3(J)
        assert values[0] == 5.0
        assert values[1] == 1.0 + 2.0j
        assert values[2] == 1.0 - 1.0j

    def test_defective_matrix_sets_warning(self):
        J = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        with pytest.warns(RuntimeWarning, match="near-defective"):
            _, _, warn = eigen_3x3(J)
        assert warn

    def test_repeated_semisimple_eigenvalue_does_not_warn(self):
        # a double eigenvalue with two independent eigenvectors leaves the
        # eigenvector matrix well conditioned
        J = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, _, warn = eigen_3x3(J)
        assert not warn
        assert np.allclose(np.sort(values.real), [2.0, 2.0, 3.0])

    def test_rejects_nonfinite(self):
        J = np.full((3, 3), np.nan)
        with pytest.raises(ValueError):
            eigen_3x3(J)

    def test_stack_matches_single_calls(self, rng):
        # the diagonal, random, defective and semisimple cases above
        matrices = [
            np.diag([1.0, 2.0, 3.0]),
            rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)),
            np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]),
            np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]),
        ]
        with pytest.warns(RuntimeWarning, match="near-defective") as record:
            values, vectors, flags = eigen_3x3(np.stack(matrices))
        assert len(record) == 1  # one warning per call, not per flagged matrix
        assert flags.tolist() == [False, False, True, False]
        for k, J in enumerate(matrices):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                single_values, single_vectors, single_flag = eigen_3x3(J)
            assert np.array_equal(values[k], single_values)
            assert np.array_equal(vectors[k], single_vectors)
            assert type(single_flag) is bool and flags[k] == single_flag


class TestPerturbedSpectrum:
    def test_mode_zero_has_no_correction(self, params_case3, eq_positive_case3):
        s = perturbed_spectrum(eq_positive_case3, 0, 1.0, params_case3)
        assert np.allclose(s.approx_eigenvalues, s.exact_eigenvalues, atol=1e-12)

    def test_case1_all_modes_decay(self, params_case1):
        eq = HomState(0.0, 0.0, params_case1.P_h)
        for n in range(0, 31):
            s = perturbed_spectrum(eq, n, 1.0, params_case1)
            assert np.all(s.exact_eigenvalues.real < 0.0)
            assert np.all(s.approx_eigenvalues.real < 0.0)

    def test_gap_shrinks_quadratically_under_halving(self, params_case3, eq_positive_case3):
        # halving every movement coefficient must shrink the worst
        # approx-vs-exact gap by roughly 4x (second-order error)
        def worst_gap(params, eq):
            gap = 0.0
            for n in range(0, 11):
                s = perturbed_spectrum(eq, n, 1.0, params)
                gap = max(gap, np.abs(s.approx_eigenvalues - s.exact_eigenvalues).max())
            return gap

        halved = params_case3.replace(
            alpha=params_case3.alpha / 2,
            beta=params_case3.beta / 2,
            beta_B=params_case3.beta_B / 2,
            beta_P=params_case3.beta_P / 2,
        )
        ratio = worst_gap(params_case3, eq_positive_case3) / worst_gap(
            halved, eq_positive_case3
        )
        assert 3.3 <= ratio <= 4.7

    def test_wind_touches_only_imaginary_parts(self, params_case3, eq_positive_case3):
        frozen = params_case3.replace(alpha=0.0, beta=0.0)
        for n in (1, 4, 9):
            re_parts = []
            for v in (0.5, 1.0, 7.0):
                s = perturbed_spectrum(eq_positive_case3, n, v, frozen)
                re_parts.append(np.sort(s.approx_eigenvalues.real))
            assert np.allclose(re_parts[0], re_parts[1], atol=1e-10)
            assert np.allclose(re_parts[0], re_parts[2], atol=1e-10)

    def test_top_eigenvalue_diffusive_damping_coefficient(self, params_case3, eq_positive_case3):
        # fitted n^2 slope of the exact leading eigenvalue matches the
        # squared-component weighting of the diffusivities within 5%
        p = params_case3
        A = assemble_jacobian(eq_positive_case3, 0, 0.0, p)
        _, vectors, _ = eigen_3x3(A)
        v_top = vectors[:, 0]
        predicted = -(
            p.alpha * abs(v_top[0]) ** 2
            + p.alpha * abs(v_top[1]) ** 2
            + p.beta * abs(v_top[2]) ** 2
        )
        ns = np.arange(0, 11)
        leading = [
            perturbed_spectrum(eq_positive_case3, int(n), 1.0, p).leading_real for n in ns
        ]
        slope = np.polyfit(ns**2, leading, 1)[0]
        assert abs(slope - predicted) / abs(predicted) < 0.05


class TestModeSweep:
    def test_case1_extinction_is_stable(self, params_case1):
        eq = HomState(0.0, 0.0, params_case1.P_h)
        spectra, verdict = mode_sweep(eq, 30, 1.0, params_case1)
        assert verdict == "stable"
        assert len(spectra) == 31

    def test_extinction_without_hypolimnion_phosphorus_sweeps_silently(self, params_case1):
        # at P_h = 0 the reaction Jacobian has the semisimple double
        # eigenvalue -(l + D/z_m): diagonalizable, so no near-defective warning
        eq = HomState(0.0, 0.0, params_case1.P_h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectra, verdict = mode_sweep(eq, 30, 1.0, params_case1)
        assert verdict == "stable"
        assert not any(s.defective_warning for s in spectra)

    def test_case3_extinction_unstable_for_low_modes(self, params_case2, params_case3):
        eq = HomState(0.0, 0.0, params_case3.P_h)
        spectra, verdict = mode_sweep(eq, 30, 1.0, params_case3)
        assert verdict == "unstable"
        unstable_spatial = [
            s.n for s in spectra if s.n >= 1 and np.any(s.exact_eigenvalues.real > 0)
        ]
        assert unstable_spatial == [1, 2, 3]
        # the homogeneous mode is unstable too, consistent with R0 > 1
        assert spectra[0].leading_real > 0.0
        # exactly one growing branch at each unstable mode
        for s in spectra:
            assert int(np.sum(s.exact_eigenvalues.real > 0)) <= 1

    def test_case3_positive_equilibrium_stable(self, params_case3, eq_positive_case3):
        spectra, verdict = mode_sweep(eq_positive_case3, 30, 1.0, params_case3)
        assert verdict == "stable"
        # diffusive damping dominates for large n: every branch's real part
        # decreases monotonically once n is past the reactive scales
        reals = np.array([np.sort(s.exact_eigenvalues.real) for s in spectra])
        assert np.all(np.diff(reals[5:], axis=0) < 0)

    @pytest.mark.parametrize("v", [1.0, 40.0], ids=["still", "windy"])
    def test_sweep_matches_per_mode_reference(self, params_case3, eq_positive_case3, v):
        # reference: every mode repeats the equilibrium check and the
        # spectrum of A, as a sweep did before sharing that n = 0 work
        def reference(n):
            A = assemble_jacobian(eq_positive_case3, 0, v, params_case3)
            lam, V, defective_A = eigen_3x3(A)
            p = params_case3
            d12 = -(n**2) * p.alpha - 1j * n * p.beta_B * v
            delta = np.array([d12, d12, -(n**2) * p.beta - 1j * n * p.beta_P * v])
            approx = lam + np.diag(np.linalg.solve(V, delta[:, None] * V))
            J = assemble_jacobian(eq_positive_case3, n, v, params_case3)
            exact, vectors, defective_J = eigen_3x3(J)
            order = np.lexsort((-approx.imag, -approx.real))
            return exact, approx[order], vectors, defective_A or defective_J

        spectra, _ = mode_sweep(eq_positive_case3, 30, v, params_case3)
        for s in spectra:
            exact, approx, vectors, defective = reference(s.n)
            assert np.array_equal(s.exact_eigenvalues, exact)
            assert np.array_equal(s.approx_eigenvalues, approx)
            assert np.array_equal(s.eigenvectors, vectors)
            assert s.defective_warning == defective
            single = perturbed_spectrum(eq_positive_case3, s.n, v, params_case3)
            assert np.array_equal(single.exact_eigenvalues, exact)
            assert np.array_equal(single.approx_eigenvalues, approx)

    def test_one_sweep_calls_eig_twice(self, params_case3, eq_positive_case3, monkeypatch):
        shapes = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(a.shape) or eig(a))
        for n_max in (1, 30):
            shapes.clear()
            mode_sweep(eq_positive_case3, n_max, 1.0, params_case3)
            # A once, then the stack of J(0 .. n_max)
            assert shapes == [(3, 3), (n_max + 1, 3, 3)]
        shapes.clear()
        perturbed_spectrum(eq_positive_case3, 7, 1.0, params_case3)
        assert shapes == [(3, 3), (1, 3, 3)]

    def test_sweep_spectra_are_the_assembled_modes(self):
        # without movement or exchange, the extinction state's P row has
        # -0.0 on the diagonal; each swept J(n) must still be the one
        # assemble_jacobian gives, bit for bit, signed zeros included
        p = default_params(r=1.0, P_h=0.2, D=0.0, P_in=0.0,
                           alpha=0.0, beta=0.0, beta_B=0.0, beta_P=0.0)
        eq = extinction_state(p)
        # mode 0 adds +0.0 to the reaction Jacobian, so its -0.0 turns +0.0
        A = reaction_jacobian(eq.B, eq.p, eq.P, p)
        assert assemble_jacobian(eq, 0, 1.0, p).tobytes() == (A + 0.0).astype(complex).tobytes()
        spectra, _ = mode_sweep(eq, 5, 1.0, p)
        for s in spectra:
            values, vectors, _ = eigen_3x3(assemble_jacobian(eq, s.n, 1.0, p))
            assert values.tobytes() == s.exact_eigenvalues.tobytes()
            assert vectors.tobytes() == s.eigenvectors.tobytes()

    def test_rejects_bad_n_max(self, params_case1):
        with pytest.raises(ValueError):
            mode_sweep(HomState(0.0, 0.0, 0.0), 0, 1.0, params_case1)

    def test_csv_export_schema(self, tmp_path, params_case1):
        eq = HomState(0.0, 0.0, params_case1.P_h)
        spectra, _ = mode_sweep(eq, 3, 1.0, params_case1)
        out = tmp_path / "spectrum.csv"
        write_spectrum_csv(spectra, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,i,Re_exact,Im_exact,Re_approx,Im_approx"
        assert len(lines) == 1 + 4 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        # round-trip at full precision
        assert float(lines[1].split(",")[2]) == spectra[0].exact_eigenvalues[0].real

    def test_csv_bytes_match_per_value_writer(self, tmp_path, params_case1, edge_values):
        spectra, _ = mode_sweep(HomState(0.0, 0.0, params_case1.P_h), 3, 1.0, params_case1)
        for k in range(4):
            values = np.roll(edge_values, 3 * k)
            spectra.append(ModeSpectrum(10 + k, values[:3] + 1j * values[3:6],
                                        values[6:9] - 1j * values[9:12], np.eye(3)))
        out = tmp_path / "spectrum.csv"
        write_spectrum_csv(spectra, out)
        # the per-value writer that the shared one replaced, kept as the oracle
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "i", "Re_exact", "Im_exact", "Re_approx", "Im_approx"])
            for spectrum in spectra:
                for i in range(3):
                    ex = spectrum.exact_eigenvalues[i]
                    ap = spectrum.approx_eigenvalues[i]
                    writer.writerow([spectrum.n, i, f"{ex.real:.17g}", f"{ex.imag:.17g}",
                                     f"{ap.real:.17g}", f"{ap.imag:.17g}"])
        assert out.read_bytes() == expected.read_bytes()


@st.composite
def moving_params(draw):
    """:func:`test_ode.model_params` with every movement coefficient zero or
    positive."""
    return draw(model_params()).replace(
        alpha=draw(_zero_or(1e-4, 1.0)),
        beta=draw(_zero_or(1e-4, 1.0)),
        beta_B=draw(_zero_or(1e-3, 2.0)),
        beta_P=draw(_zero_or(1e-3, 2.0)),
    )


class TestSweepOverTheDomain:
    @settings(max_examples=60, deadline=None)
    @given(params=moving_params(), v=st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
           n_max=st.integers(1, 40))
    def test_sweep_matches_per_mode_oracle(self, params, v, n_max):
        if params.D == 0.0 and params.P_in > 0.0:
            # the source has no outlet: no equilibrium to linearize around
            with pytest.raises(DomainError):
                find_equilibrium(params)
            return
        eq, _ = find_equilibrium(params)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                spectra, verdict = mode_sweep(eq, n_max, v, params)
            except ValueError:
                return
        assert all("near-defective" in str(w.message) for w in caught)
        assert bool(caught) == any(s.defective_warning for s in spectra)

        # oracle: one mode at a time, with the documented sort (descending
        # real part, then imaginary part) and unit-norm columns
        A = reaction_jacobian(eq.B, eq.p, eq.P, params)
        assert [s.n for s in spectra] == list(range(n_max + 1))
        for s in spectra:
            n = s.n
            delta = np.array([-(n**2) * d - 1j * n * a * v for d, a in
                              zip(params.diffusivities, params.advection_scalars)])
            values, vectors = np.linalg.eig(A + np.diag(delta))
            order = np.lexsort((-values.imag, -values.real))
            vectors = vectors[:, order]
            assert np.array_equal(s.exact_eigenvalues, values[order])
            assert np.array_equal(s.eigenvectors,
                                  vectors / np.linalg.norm(vectors, axis=0, keepdims=True))
        assert np.array_equal(spectra[0].approx_eigenvalues, spectra[0].exact_eigenvalues)
        worst = max(s.exact_eigenvalues.real.max() for s in spectra)
        assert (verdict == "stable") == (worst < 0.0)
