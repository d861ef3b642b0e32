"""The BDF integrator against SciPy's, the scheme it ports.

``scipy.integrate.solve_ivp(method="BDF")`` is the oracle: the port makes the
same floating-point operations in the same order, so its sample times,
samples and ``nfev``/``njev``/``nlu`` counts must be equal, not close.  The
failure paths carry the last accepted step, and a solve leaves nothing for
the cyclic garbage collector.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg.lapack import dgetrf
from test_ode import model_params

from bloomsim import bdf
from bloomsim.core import HomState, default_params
from bloomsim.ode import IntegrationError, _jac_flat, _rhs_flat, integrate_homogeneous
from bloomsim.sensitivity import default_problem, saltelli_design
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
    def test_transect_runs_are_bit_identical(self, wind):
        grid = Grid1D(1000.0, 41)
        f0 = Field1D.bump(grid, P0=0.2)
        params = default_params(r=1.0, P_h=2.0)
        times = np.linspace(0.0, 30.0, 11)
        traj = integrate_1d(f0, grid, wind, params, 30.0, sample_times=times)
        oracle = _oracle(rhs_1d, _jacobian_1d, f0.stack(), 30.0, 1e-8, 1e-10, times,
                         (grid, as_wind(wind), params))
        _assert_same_run(traj.t, traj.y, traj.counters, oracle)

    def test_sobol_row_is_bit_identical(self):
        # row 3 of the N = 2, seed 3 desk design (R0 = 0.46), at the
        # tolerances of a Sobol row
        problem = default_problem()
        values = saltelli_design(problem, 2, seed=3).samples[3]
        params = problem.base_params.replace(**dict(zip(problem.names, values)))
        times = np.arange(0.0, problem.horizon + 1e-9, problem.sample_every)
        traj = integrate_1d(problem.initial, problem.grid, problem.wind, params,
                            problem.horizon, rtol=1e-6, atol=1e-9, sample_times=times,
                            validate=False)
        oracle = _oracle(rhs_1d, _jacobian_1d, problem.initial.stack(), problem.horizon,
                         1e-6, 1e-9, times, (problem.grid, as_wind(problem.wind), params))
        _assert_same_run(traj.t, traj.y, traj.counters, oracle)


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
