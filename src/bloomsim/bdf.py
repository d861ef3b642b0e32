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
``dgetrf``/``dgetrs``, and any other Jacobian is an object that factors
and solves its own I - c J (``factor(c)`` and ``solve(LU, b)``).

The step is written once, as generators: every evaluation of ``fun`` or
``jac`` is a yielded request, and a whole solve is one generator that
returns ``(t, samples, counters)``.  :func:`solve` serves each request as
it comes.  :func:`solve_ensemble` advances K independent systems
together: each keeps its own step size, order, Newton iteration,
Jacobian and LU factors, so its samples and counters are those of its own
:func:`solve`, but all the ``fun`` requests of one round go into one
batched call.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

__all__ = ["IntegrationError", "solve", "solve_ensemble"]

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


# the two kinds of request a solve yields, each as (kind, t, y)
_FUN, _JAC = "fun", "jac"


def _initial_step(t0, y0, t_bound, f0, rtol, atol):
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
    f1 = yield _FUN, t0 + h0, y0 + h0 * f0
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


def _iteration(J):
    # a dense Jacobian, or an object that factors and solves I - c J itself
    return _Dense(J) if isinstance(J, np.ndarray) else J


def _newton(t_new, y_predict, c, psi, system, LU, scale, tol):
    """Simplified Newton iteration on the BDF formula; returns (converged,
    iterations, y, d), d the correction from ``y_predict``."""
    d = 0
    y = y_predict.copy()
    dy_norm_old = None
    converged = False
    for k in range(NEWTON_MAXITER):
        f = yield _FUN, t_new, y
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

    def __init__(self, y0: np.ndarray, t_bound: float, rtol: float, atol: float):
        self.t, self.y, self.t_bound = 0.0, y0, t_bound
        self.rtol, self.atol = rtol, atol
        self.newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))

    def start(self):
        """Evaluate the first step size, differences and Jacobian."""
        y0 = self.y
        f = yield _FUN, self.t, y0
        self.h_abs = yield from _initial_step(self.t, y0, self.t_bound, f, self.rtol,
                                              self.atol)
        self.nfev = 2
        self.system = _iteration((yield _JAC, self.t, y0))
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

    def step(self):
        """One accepted step; returns False when the step size underflows."""
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

                converged, n_iter, y_new, d = yield from _newton(
                    t_new, y_predict, c, psi, system, LU, scale, self.newton_tol)
                self.nfev += n_iter

                if not converged:
                    if current_jac:
                        break
                    system = _iteration((yield _JAC, t_new, y_predict))
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


def _check(t_end, rtol, atol, t_eval, y0, ndim):
    # the arguments of a solve, checked in this order; returns (t_eval, y0,
    # rtol) as used
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if not (rtol > 0 and atol > 0):
        raise ValueError("tolerances must be positive")
    t_eval = np.array(t_eval, dtype=float)
    if not (t_eval.ndim == 1 and t_eval.size and 0.0 <= t_eval[0] and t_eval[-1] <= t_end
            and np.all(np.diff(t_eval) > 0.0)):
        raise ValueError("sample times must be strictly increasing in [0, t_end]")
    y0 = np.asarray(y0, dtype=float)
    if not (y0.ndim == ndim and np.all(np.isfinite(y0))):
        raise ValueError("the initial state must be a finite 1D array" if ndim == 1 else
                         "the initial states must be a finite (K, n) array")
    if rtol < 100 * EPS:
        warnings.warn(f"rtol is too small; setting rtol = {100 * EPS}", stacklevel=3)
        rtol = 100 * EPS
    return t_eval, y0, rtol


def _integrate(y0, t_end, rtol, atol, t_eval):
    """One whole solve as a generator of requests; returns (t, samples,
    counters)."""
    stepper = _Stepper(y0, t_end, rtol, atol)
    yield from stepper.start()
    samples = np.empty((y0.size, t_eval.size))
    done = 0
    # like solve_ivp, step on to t_end even past the last sample
    while stepper.t < stepper.t_bound:
        if not (yield from stepper.step()):
            raise IntegrationError("BDF integration failed: Required step size is less than "
                                   "spacing between numbers.", stepper.t, stepper.y)
        reached = np.searchsorted(t_eval, stepper.t, side="right")
        if reached > done:
            samples[:, done:reached] = stepper.interpolate(t_eval[done:reached])
            done = reached
    counters = {"nfev": stepper.nfev, "njev": stepper.njev, "nlu": stepper.nlu}
    return t_eval, samples, counters


def solve(fun, jac, y0, t_end, rtol, atol, t_eval, args=()):
    """Integrate ``y' = fun(t, y, *args)`` from t = 0 to ``t_end``.

    ``jac(t, y, *args)`` returns the Jacobian: a dense array, or an object
    whose ``factor(c)`` returns the LU factors of I - c J and whose
    ``solve(LU, b)`` solves with them; ``factor`` raises RuntimeError on a
    non-finite or singular matrix.  Returns ``(t, y, counters)``: the
    sample times (a copy of ``t_eval``), the (n, nt) samples and the
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
    t_eval, y0, rtol = _check(t_end, rtol, atol, t_eval, y0, 1)
    run = _integrate(y0, float(t_end), rtol, atol, t_eval)
    try:
        kind, t, y = next(run)
        while True:
            kind, t, y = run.send((fun if kind is _FUN else jac)(t, y, *args))
    except StopIteration as stop:
        return stop.value


def solve_ensemble(fun, jac, y0, t_end, rtol, atol, t_eval, args, batch):
    """Integrate K independent systems ``y_k' = f_k(t, y_k)`` from t = 0 to
    ``t_end``, each exactly as :func:`solve` would.

    ``y0`` holds the (K, n) initial states, ``args[k]`` the arguments of
    system k, with which ``jac(t, y, *args[k])`` returns its Jacobian.
    The systems advance in rounds: in each, every running system asks for
    one derivative, and ``fun(t, y, *batch(rows))`` evaluates them all at
    once, with ``rows`` the (m,) indices of the running systems, ``t`` their
    (m,) times and ``y`` their (m, n) states; it returns the (m, n)
    derivatives.  ``batch`` is called again only when a system finishes.
    Jacobians are evaluated system by system, as each asks.

    Returns one entry per system: ``(t, y, counters)`` as from
    :func:`solve`, or the :class:`IntegrationError` that ended its solve
    while the other systems went on.  Any other exception, from ``fun``,
    ``jac`` or ``batch``, ends the whole call.
    Raises ValueError as :func:`solve` does, before any solve.
    """
    t_eval, y0, rtol = _check(t_end, rtol, atol, t_eval, y0, 2)
    runs = [_integrate(y, float(t_end), rtol, atol, t_eval.copy()) for y in y0]
    results = [None] * len(runs)
    requests = {}

    def advance(k, value):
        # resume system k with ``value``, serving its Jacobian requests,
        # until it asks for a derivative or ends
        try:
            kind, t, y = runs[k].send(value)
            while kind is _JAC:
                kind, t, y = runs[k].send(jac(t, y, *args[k]))
            requests[k] = t, y
        except StopIteration as stop:
            results[k] = stop.value
        except IntegrationError as exc:
            results[k] = exc

    for k in range(len(runs)):
        advance(k, None)
    rows = ()
    while requests:
        if len(rows) != len(requests):  # systems only ever leave
            rows = sorted(requests)
            extra = batch(np.array(rows))
        t, y = zip(*(requests.pop(k) for k in rows))
        for k, f in zip(rows, fun(np.array(t), np.stack(y), *extra)):
            advance(k, f)
    return results
