"""Variable-order BDF integration of stiff systems y' = f(t, y, *args).

The scheme is the variable-order (1 to 5) numerical differentiation formulas
of Shampine & Reichelt (SIAM J. Sci. Comput. 18, 1997) with quasi-constant
step sizes (Byrne & Hindmarsh, ACM TOMS 1, 1975).  The solution history is
an array D of backward differences; each step solves the implicit formula
by a simplified Newton iteration on the matrix I - c J, and the local error
estimate sets the next step size and order.

This is a port of SciPy 1.17's ``BDF`` step (``scipy/integrate/_ivp/bdf.py``
with ``common.select_initial_step`` and ``common.norm``) and of the
``t_eval`` sampling of ``solve_ivp``.  It does the same floating-point
operations in the same order, so every sample and the ``nfev``, ``njev`` and
``nlu`` counts equal those of
``solve_ivp(fun, (0, t_end), y0, method="BDF", jac=jac, t_eval=t_eval,
args=args)`` bit for bit.  What it leaves out is the generic machinery
around the step: a dense iteration matrix goes straight to LAPACK's
``dgetrf``/``dgetrs``, and a sparse one is written into the data of the
Jacobian's own CSC pattern and factored by SuperLU.  Whether the Jacobian
is sparse (``scipy.sparse.issparse`` on its first evaluation) picks the
route.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse import csc_matrix, issparse
from scipy.sparse.linalg import splu

__all__ = ["IntegrationError", "solve"]

MAX_ORDER = 5
NEWTON_MAXITER = 4
MIN_FACTOR = 0.2
MAX_FACTOR = 10
EPS = np.finfo(float).eps

# the NDF coefficients: kappa modifies the BDF formula of each order
_KAPPA = np.array([0, -0.1850, -1 / 9, -0.0823, -0.0415, 0])
_GAMMA = np.hstack((0, np.cumsum(1 / np.arange(1, MAX_ORDER + 1))))
_ALPHA = (1 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1 / np.arange(1, MAX_ORDER + 2)


class IntegrationError(RuntimeError):
    """Stiffness or step-size failure, or a sample that fails validation;
    carries the time and state reached (the last good one on failure)."""

    def __init__(self, message: str, t: float, state: np.ndarray):
        super().__init__(f"{message} (t={t:g}, state={state})")
        self.t = t
        self.state = state


def _rms(x: np.ndarray):
    # the root mean square as SciPy computes it, np.linalg.norm(x) / sqrt(n);
    # sqrt(x . x) is what np.linalg.norm does for a 1D array
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _compute_R(order, factor):
    # the matrix that rescales the differences of an order-``order``
    # interpolant to the step size times ``factor``
    I = np.arange(1, order + 1)[:, None]  # noqa: E741
    J = np.arange(1, order + 1)
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (I - 1 - factor * J) / I
    M[0] = 1
    return np.cumprod(M, axis=0)


# _compute_R(order, 1) of every order, a factor of each rescaling
_U = [None] + [_compute_R(order, 1) for order in range(1, MAX_ORDER + 1)]


def _change_D(D: np.ndarray, order, factor) -> None:
    """Rescale the differences in ``D`` in place for a step size changed by
    ``factor``."""
    RU = _compute_R(order, factor).dot(_U[order])
    D[:order + 1] = np.dot(RU.T, D[:order + 1])


def _initial_step(fun, args, t0, y0, t_bound, f0, rtol, atol):
    # Hairer, Norsett & Wanner, "Solving ODEs I", Sec. II.4, for an error
    # of order 2 (the first step is of order 1)
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0, *args)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 2)
    return min(100 * h0, h1, interval_length)


class _Dense:
    """I - c J of a dense J, factored and solved by LAPACK getrf/getrs."""

    def __init__(self, J: np.ndarray):
        self.J = J
        self.I = np.identity(J.shape[0])

    def factor(self, c):
        A = self.I - c * self.J
        if not np.isfinite(A).all():
            raise RuntimeError("the iteration matrix is not finite")
        lu, piv, info = dgetrf(A, overwrite_a=True)
        if info > 0:
            raise RuntimeError(f"Diagonal number {info} is exactly zero. Singular matrix.")
        return lu, piv

    @staticmethod
    def solve(factors, b: np.ndarray) -> np.ndarray:
        return dgetrs(*factors, b, overwrite_b=True)[0]


class _Sparse:
    """I - c J of a sparse J on J's own CSC pattern, factored by SuperLU.

    The diagonal is -(c J_ii) + 1, bitwise 1 - c J_ii.  The explicit zeros
    are dropped, so SuperLU's column ordering sees the pattern of SciPy's
    pruned ``I - c*J``.  J must be in canonical CSC form (sorted indices,
    no duplicates) with its whole diagonal stored.
    """

    def __init__(self, J):
        columns = np.repeat(np.arange(J.shape[1]), np.diff(J.indptr))
        self.diagonal = np.flatnonzero(J.indices == columns)
        if J.format != "csc" or self.diagonal.size != J.shape[0]:
            raise ValueError("a sparse Jacobian must be CSC with its whole diagonal stored")
        self.J = J

    def factor(self, c):
        J = self.J
        data = -(c * J.data)
        data[self.diagonal] += 1.0
        if not np.isfinite(data).all():
            raise RuntimeError("the iteration matrix is not finite")
        A = csc_matrix((data, J.indices.copy(), J.indptr.copy()), shape=J.shape)
        A.eliminate_zeros()
        return splu(A)

    @staticmethod
    def solve(lu, b: np.ndarray) -> np.ndarray:
        return lu.solve(b)


def _iteration(J):
    return _Sparse(J) if issparse(J) else _Dense(J)


def _newton(fun, args, t_new, y_predict, c, psi, system, LU, scale, tol):
    """Simplified Newton iteration on the BDF formula; returns (converged,
    iterations, y, d), d the correction from ``y_predict``."""
    d = 0
    y = y_predict.copy()
    dy_norm_old = None
    converged = False
    for k in range(NEWTON_MAXITER):
        f = fun(t_new, y, *args)
        if not np.isfinite(f).all():
            break

        dy = system.solve(LU, c * f - psi - d)
        dy_norm = _rms(dy / scale)

        if dy_norm_old is None:
            rate = None
        else:
            rate = dy_norm / dy_norm_old

        if (rate is not None and (rate >= 1 or
                rate ** (NEWTON_MAXITER - k) / (1 - rate) * dy_norm > tol)):
            break

        y += dy
        d += dy

        if (dy_norm == 0 or
                rate is not None and rate / (1 - rate) * dy_norm < tol):
            converged = True
            break

        dy_norm_old = dy_norm

    return converged, k + 1, y, d


class _Stepper:
    """The integrator's state between steps: time, state, differences,
    order, step size, Jacobian, LU factors and counters."""

    def __init__(self, fun, jac, args, y0: np.ndarray, t_bound: float, rtol: float,
                 atol: float):
        self.fun, self.jac, self.args = fun, jac, args
        self.t, self.y, self.t_bound = 0.0, y0, t_bound
        self.rtol, self.atol = rtol, atol
        f = fun(self.t, y0, *args)
        self.h_abs = _initial_step(fun, args, self.t, y0, t_bound, f, rtol, atol)
        self.nfev = 2
        self.newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))
        self.system = _iteration(jac(self.t, y0, *args))
        self.njev = 1
        self.nlu = 0
        # zeros, not empty: the first step writes D[3] from D[2] before any
        # step has set D[2]; the value is overwritten before it is read,
        # but garbage there could raise a floating-point warning
        D = np.zeros((MAX_ORDER + 3, y0.size))
        D[0] = y0
        D[1] = f * self.h_abs
        self.D = D
        self.order = 1
        self.n_equal_steps = 0
        self.LU = None

    def _factor(self, system, c):
        self.nlu += 1
        try:
            return system.factor(c)
        except RuntimeError as exc:  # a non-finite or singular matrix
            raise IntegrationError(f"BDF integration failed: {exc}", self.t, self.y) from exc

    def step(self) -> bool:
        """One accepted step, or False when the step size underflows."""
        t = self.t
        D = self.D

        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if self.h_abs < min_step:
            h_abs = min_step
            _change_D(D, self.order, min_step / self.h_abs)
            self.n_equal_steps = 0
        else:
            h_abs = self.h_abs

        atol = self.atol
        rtol = self.rtol
        order = self.order

        system = self.system
        LU = self.LU
        current_jac = False

        step_accepted = False
        while not step_accepted:
            if h_abs < min_step:
                return False

            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
                _change_D(D, order, np.abs(t_new - t) / h_abs)
                self.n_equal_steps = 0
                LU = None

            h = t_new - t
            h_abs = np.abs(h)

            y_predict = np.sum(D[:order + 1], axis=0)

            scale = atol + rtol * np.abs(y_predict)
            psi = np.dot(D[1: order + 1].T, _GAMMA[1: order + 1]) / _ALPHA[order]

            converged = False
            c = h / _ALPHA[order]
            while not converged:
                if LU is None:
                    LU = self._factor(system, c)

                converged, n_iter, y_new, d = _newton(
                    self.fun, self.args, t_new, y_predict, c, psi, system, LU, scale,
                    self.newton_tol)
                self.nfev += n_iter

                if not converged:
                    if current_jac:
                        break
                    system = _iteration(self.jac(t_new, y_predict, *self.args))
                    self.njev += 1
                    LU = None
                    current_jac = True

            if not converged:
                factor = 0.5
                h_abs *= factor
                _change_D(D, order, factor)
                self.n_equal_steps = 0
                LU = None
                continue

            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)

            scale = atol + rtol * np.abs(y_new)
            error = _ERROR_CONST[order] * d
            error_norm = _rms(error / scale)

            if error_norm > 1:
                factor = max(MIN_FACTOR, safety * error_norm ** (-1 / (order + 1)))
                h_abs *= factor
                _change_D(D, order, factor)
                self.n_equal_steps = 0
                # the Newton iteration converged, so the factors are kept
            else:
                step_accepted = True

        self.n_equal_steps += 1

        self.t = t_new
        self.y = y_new

        self.h_abs = h_abs
        self.system = system
        self.LU = LU

        # D held the differences of the last interpolant and d is the
        # (order + 1)-th difference at t_new; D^{j+1} y_n = D^j y_n - D^j y_{n-1}
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        if self.n_equal_steps < order + 1:
            return True

        if order > 1:
            error_m = _ERROR_CONST[order - 1] * D[order]
            error_m_norm = _rms(error_m / scale)
        else:
            error_m_norm = np.inf

        if order < MAX_ORDER:
            error_p = _ERROR_CONST[order + 1] * D[order + 2]
            error_p_norm = _rms(error_p / scale)
        else:
            error_p_norm = np.inf

        error_norms = np.array([error_m_norm, error_norm, error_p_norm])
        with np.errstate(divide="ignore"):
            factors = error_norms ** (-1 / np.arange(order, order + 3))

        delta_order = np.argmax(factors) - 1
        order += delta_order
        self.order = order

        factor = min(MAX_FACTOR, safety * np.max(factors))
        self.h_abs *= factor
        _change_D(D, order, factor)
        self.n_equal_steps = 0
        self.LU = None

        return True

    def interpolate(self, times: np.ndarray) -> np.ndarray:
        """The last step's interpolant at ``times``, (n, times.size): the
        polynomial of the updated order, step size and differences, as
        ``solve_ivp`` samples it."""
        h, order = self.h_abs, self.order
        D = self.D[:order + 1].copy()
        t_shift = self.t - h * np.arange(order)
        denom = h * (1 + np.arange(order))
        x = (times - t_shift[:, None]) / denom[:, None]
        p = np.cumprod(x, axis=0)
        y = np.dot(D[1:].T, p)
        y += D[0, :, None]
        return y


def solve(fun, jac, y0, t_end, rtol, atol, t_eval, args=()):
    """Integrate ``y' = fun(t, y, *args)`` from t = 0 to ``t_end``.

    ``jac(t, y, *args)`` returns the Jacobian, a dense array or a canonical
    CSC matrix with its whole diagonal stored.  Returns ``(t, y, counters)``:
    the sample times (a copy of ``t_eval``), the (n, nt) samples and the
    ``nfev``, ``njev`` and ``nlu`` counts.

    Raises
    ------
    ValueError
        If ``t_end``, ``rtol`` or ``atol`` is not positive (NaN included),
        ``t_eval`` is not strictly increasing in [0, t_end], or ``y0`` is
        not a finite 1D array; raised before the solve.
    IntegrationError
        When the step size underflows or the iteration matrix has no LU
        factors, with the time and state of the last accepted step.
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if not (rtol > 0 and atol > 0):
        raise ValueError("tolerances must be positive")
    t_eval = np.array(t_eval, dtype=float)
    if not (t_eval.ndim == 1 and t_eval.size and 0.0 <= t_eval[0] and t_eval[-1] <= t_end
            and np.all(np.diff(t_eval) > 0.0)):
        raise ValueError("sample times must be strictly increasing in [0, t_end]")
    y0 = np.asarray(y0, dtype=float)
    if not (y0.ndim == 1 and np.all(np.isfinite(y0))):
        raise ValueError("the initial state must be a finite 1D array")
    if rtol < 100 * EPS:
        warnings.warn(f"rtol is too small; setting rtol = {100 * EPS}", stacklevel=2)
        rtol = 100 * EPS

    stepper = _Stepper(fun, jac, args, y0, float(t_end), rtol, atol)
    samples = np.empty((y0.size, t_eval.size))
    done = 0
    # like solve_ivp, step on to t_end even past the last sample
    while stepper.t < stepper.t_bound:
        if not stepper.step():
            raise IntegrationError("BDF integration failed: Required step size is less than "
                                   "spacing between numbers.", stepper.t, stepper.y)
        reached = np.searchsorted(t_eval, stepper.t, side="right")
        if reached > done:
            samples[:, done:reached] = stepper.interpolate(t_eval[done:reached])
            done = reached
    counters = {"nfev": stepper.nfev, "njev": stepper.njev, "nlu": stepper.nlu}
    return t_eval, samples, counters
