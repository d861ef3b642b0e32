"""The BDF integrator against SciPy's, the scheme it ports.

``scipy.integrate.solve_ivp(method="BDF")`` is the oracle: the port makes the
same floating-point operations in the same order, so with a dense Jacobian
its sample times, samples and ``nfev``/``njev``/``nlu`` counts must be
equal, not close.  The transect factors its iteration matrix with LAPACK's
band LU, which SciPy cannot, so its runs are held to SciPy's accuracy
against a converged run.  The failure paths carry the last accepted step,
an ensemble's rows each give their solo run, and a solve leaves nothing
for the cyclic garbage collector.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg.lapack import dgetrf
from scipy.sparse import csc_matrix
from test_ode import model_params

import bloomsim.solver1d
from bloomsim import bdf
from bloomsim.core import HomState, default_params
from bloomsim.ode import IntegrationError, _jac_flat, _rhs_flat, integrate_homogeneous
from bloomsim.sensitivity import _integrate_rows, _row_owners, default_problem, saltelli_design
from bloomsim.solver1d import Field1D, Grid1D, _jacobian_1d, integrate_1d, rhs_1d
from bloomsim.wind import SyntheticWind, as_wind


def _oracle(fun, jac, y0, t_end, rtol, atol, t_eval, args):
    return solve_ivp(fun, (0.0, t_end), y0, method="BDF", jac=jac, rtol=rtol, atol=atol,
                     t_eval=t_eval, args=args)


def _assert_same_run(t, y, counters, oracle):
    assert oracle.success, oracle.message
    assert np.array_equal(t, oracle.t)
    assert np.array_equal(y.reshape(oracle.y.shape), oracle.y)
    assert counters == {"nfev": oracle.nfev, "njev": oracle.njev, "nlu": oracle.nlu}


def _sparse_jacobian(*args):
    # the transect Jacobian as CSC, which solve_ivp factors with SuperLU
    return csc_matrix(_jacobian_1d(*args).toarray())


def _assert_as_accurate_as_scipy(f0, grid, wind, params, t_end, times, rtol, atol):
    """The band run errs against a converged run (rtol 1e-12, atol 1e-14)
    by at most 1.05 times SciPy's error, in units of atol + rtol |y|, and
    its counters are within 1% of SciPy's."""
    run = dict(sample_times=times, validate=False)
    traj = integrate_1d(f0, grid, wind, params, t_end, rtol=rtol, atol=atol, **run)
    oracle = _oracle(rhs_1d, _sparse_jacobian, f0.stack(), t_end, rtol, atol, times,
                     (grid, as_wind(wind), params))
    assert oracle.success, oracle.message
    assert np.array_equal(traj.t, oracle.t)
    converged = integrate_1d(f0, grid, wind, params, t_end, rtol=1e-12, atol=1e-14,
                             **run).y.reshape(oracle.y.shape)

    def error(y):
        return np.max(np.abs(y - converged) / (atol + rtol * np.abs(converged)))

    assert error(traj.y.reshape(oracle.y.shape)) <= 1.05 * error(oracle.y)
    for key, count in (("nfev", oracle.nfev), ("njev", oracle.njev), ("nlu", oracle.nlu)):
        assert abs(traj.counters[key] - count) <= 0.01 * count, (key, traj.counters, count)


@st.composite
def homogeneous_runs(draw):
    """A start state for ``model_params``: extinct (B = 0) one time in
    four, else a quota in the tube; any dissolved phosphorus."""
    params = draw(model_params())
    B = draw(st.integers(0, 3).flatmap(lambda i: st.floats(1e-3, 100.0) if i else st.just(0.0)))
    quota = draw(st.floats(params.Q_m, params.Q_M))
    y0 = np.array([B, quota * B, draw(st.floats(0.0, 5.0))])
    return params, y0, draw(st.floats(1.0, 4000.0))


class TestScipyOracle:
    @settings(max_examples=40, deadline=None)
    @given(homogeneous_runs())
    def test_homogeneous_runs_are_bit_identical(self, run):
        params, y0, t_end = run
        t_eval = np.linspace(0.0, t_end, 201)
        oracle = _oracle(_rhs_flat, _jac_flat, y0, t_end, 1e-8, 1e-11, t_eval, (params,))
        if not oracle.success:
            with pytest.raises(IntegrationError):
                bdf.solve(_rhs_flat, _jac_flat, y0, t_end, 1e-8, 1e-11, t_eval, (params,))
            return
        _assert_same_run(*bdf.solve(_rhs_flat, _jac_flat, y0, t_end, 1e-8, 1e-11, t_eval,
                                    (params,)), oracle)

    @pytest.mark.parametrize("wind", [None, SyntheticWind(20.0, 9.0)], ids=["still", "windy"])
    def test_transect_runs_match_scipy_accuracy(self, wind):
        # errors 4.04 (still) and 11.70 (windy), the same for both routes;
        # counters equal except windy nfev, 1575 against SciPy's 1567
        grid = Grid1D(1000.0, 41)
        _assert_as_accurate_as_scipy(Field1D.bump(grid, P0=0.2), grid, wind,
                                     default_params(r=1.0, P_h=2.0), 30.0,
                                     np.linspace(0.0, 30.0, 11), 1e-8, 1e-10)

    def test_sobol_row_matches_scipy_accuracy(self):
        # row 3 of the N = 2, seed 3 desk design (R0 = 0.46), at the
        # tolerances of a Sobol row: error 22.76 on both routes, equal counters
        problem = default_problem()
        params = problem.row_params(saltelli_design(problem, 2, seed=3).samples[3])
        _assert_as_accurate_as_scipy(problem.initial, problem.grid, problem.wind, params,
                                     problem.horizon, problem.sample_times(), 1e-6, 1e-9)


class TestFailures:
    def test_step_underflow_carries_the_last_step(self):
        # y' = y^2 from y = 1 blows up at t = 1; the last step lies past
        # the only sample before it, t = 0
        with pytest.raises(IntegrationError, match="step size") as info:
            bdf.solve(lambda t, y: y**2, lambda t, y: np.array([[2.0 * y[0]]]),
                      np.array([1.0]), 2.0, 1e-8, 1e-11, [0.0, 2.0])
        assert 0.99 < info.value.t < 1.0
        assert np.isfinite(info.value.state).all()
        assert info.value.state[0] > 100.0

    def test_singular_dense_factor_carries_the_last_step(self, monkeypatch):
        calls = []

        def singular_on_fifth(a, overwrite_a=False):
            calls.append(a)
            lu, piv, info = dgetrf(a, overwrite_a=overwrite_a)
            return lu, piv, 1 if len(calls) == 5 else info

        monkeypatch.setattr(bdf, "dgetrf", singular_on_fifth)
        with pytest.raises(IntegrationError, match="exactly zero") as info:
            integrate_homogeneous(HomState(5.0, 0.1, 0.15), default_params(r=1.0, P_h=0.2),
                                  100.0)
        assert 0.0 < info.value.t < 100.0
        assert np.isfinite(info.value.state).all()

    def test_singular_band_factor_carries_the_last_step(self, monkeypatch):
        monkeypatch.setattr(bloomsim.solver1d, "dgbtrf", _singular_on(5))
        grid = Grid1D(1000.0, 41)
        with pytest.raises(IntegrationError, match="exactly zero") as info:
            integrate_1d(Field1D.bump(grid, P0=0.2), grid, None, default_params(r=1.0, P_h=2.0),
                         30.0)
        assert 0.0 < info.value.t < 30.0
        assert info.value.state.shape == (3 * grid.Nx,)
        assert np.isfinite(info.value.state).all()

    def test_non_finite_iteration_matrix_ends_the_run(self):
        # the derivative is NaN at t = 0 only, so the first step size and
        # the first iteration matrix are NaN; LAPACK would factor it
        def fun(t, y):
            return np.full(1, np.nan) if t == 0.0 else -y

        with pytest.raises(IntegrationError, match="not finite") as info:
            bdf.solve(fun, lambda t, y: -np.eye(1), np.array([1.0]), 1.0, 1e-8, 1e-11, [1.0])
        assert info.value.t == 0.0

    def test_non_finite_initial_state_is_a_usage_error(self):
        with pytest.raises(ValueError, match="finite"):
            bdf.solve(lambda t, y: -y, lambda t, y: -np.eye(2), np.array([1.0, np.nan]),
                      1.0, 1e-8, 1e-11, [1.0])


def _singular_on(call):
    # LAPACK's band LU, reporting a zero pivot on its ``call``-th use
    calls = []
    factor = bloomsim.solver1d.dgbtrf

    def dgbtrf(*args, **kwargs):
        calls.append(1)
        lu, piv, info = factor(*args, **kwargs)
        return lu, piv, 1 if len(calls) == call else info

    return dgbtrf


def _distinct_rows(problem, N, seed):
    """The parameters of the distinct rows of a Saltelli design."""
    samples = saltelli_design(problem, N, seed).samples
    owners = _row_owners(problem, samples)
    return [problem.row_params(values) for i, values in enumerate(samples) if owners[i] == i]


def _assert_same_trajectory(ensemble_row, solo):
    assert np.array_equal(ensemble_row.t, solo.t)
    assert np.array_equal(ensemble_row.y, solo.y)
    assert ensemble_row.counters == solo.counters


class TestEnsemble:
    """Rows advanced as one ensemble give their solo runs bit for bit."""

    PROBLEMS = {
        "desk": (default_problem(), 2),  # 12 distinct rows, still water
        "windy": (default_problem(Nx=21, horizon=60.0, wind=SyntheticWind(20.0, 9.0)), 4),
    }

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_rows_equal_their_solo_runs_in_any_chunking(self, name):
        problem, N = self.PROBLEMS[name]
        rows = _distinct_rows(problem, N, seed=3)
        assert len(rows) == {"desk": 12, "windy": 28}[name]
        solo = [_integrate_rows(problem, params) for params in rows]
        for size in (len(rows), 5):
            chunks = [_integrate_rows(problem, rows[i:i + size])
                      for i in range(0, len(rows), size)]
            for got, expected in zip([r for chunk in chunks for r in chunk], solo, strict=True):
                _assert_same_trajectory(got, expected)

    def test_desk_rows_keep_their_counters(self):
        problem, N = self.PROBLEMS["desk"]
        runs = _integrate_rows(problem, _distinct_rows(problem, N, seed=3))
        totals = {key: sum(run.counters[key] for run in runs) for key in ("nfev", "njev", "nlu")}
        assert totals == {"nfev": 8422, "njev": 189, "nlu": 829}

    def test_failed_row_leaves_the_others_alone(self, monkeypatch):
        problem = default_problem(Nx=11, horizon=60.0)
        rows = _distinct_rows(problem, 2, seed=3)
        solo = [_integrate_rows(problem, params) for params in rows]
        # the 40th band factorisation of the ensemble reports a zero pivot
        monkeypatch.setattr(bloomsim.solver1d, "dgbtrf", _singular_on(40))
        runs = _integrate_rows(problem, rows)
        failed = [k for k, run in enumerate(runs) if isinstance(run, IntegrationError)]
        assert len(failed) == 1
        assert "exactly zero" in str(runs[failed[0]])
        assert np.isfinite(runs[failed[0]].state).all()
        for k, (run, expected) in enumerate(zip(runs, solo)):
            if k not in failed:
                _assert_same_trajectory(run, expected)

    def test_batched_right_hand_side_is_called_once_per_round(self, monkeypatch):
        calls = []

        def counted(t, y, *args, _fn=bloomsim.solver1d.rhs_1d):
            calls.append(len(t))
            return _fn(t, y, *args)

        problem = default_problem(Nx=11, horizon=60.0)
        rows = _distinct_rows(problem, 2, seed=3)
        monkeypatch.setattr(bloomsim.solver1d, "rhs_1d", counted)
        runs = _integrate_rows(problem, rows)
        # every running row asks for one derivative per round
        assert sum(calls) == sum(run.counters["nfev"] for run in runs)
        assert len(calls) == max(run.counters["nfev"] for run in runs)
        assert calls[0] == len(rows)

    def test_an_empty_ensemble_runs_nothing(self):
        problem = default_problem(Nx=11, horizon=60.0)
        assert _integrate_rows(problem, []) == []


def _homogeneous_run():
    integrate_homogeneous(HomState(5.0, 0.1, 0.15), default_params(r=1.0, P_h=2.0), 100.0)


def _transect_run():
    grid = Grid1D(1000.0, 11)
    integrate_1d(Field1D.bump(grid, P0=0.2), grid, SyntheticWind(20.0, 9.0),
                 default_params(r=1.0, P_h=2.0), 30.0)


@pytest.mark.parametrize("run", [_homogeneous_run, _transect_run], ids=["ode", "transect"])
def test_a_solve_leaves_no_reference_cycles(run):
    run()  # per-grid caches fill on the first run
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
