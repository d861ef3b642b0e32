"""Integration of the movement-free system and equilibrium location.

The homogeneous (well-mixed) limit of the lake model is a stiff three-state
ODE.  This module integrates it with an adaptive implicit multistep scheme
(BDF, via SciPy) using the analytic reaction Jacobian, and locates the
extinction and positive equilibria.

The positive equilibrium is the root of one scalar equation in the biomass.
With L = l + D/z_m and the quota-free uptake coefficient
rho~(P) = rho_m/(Q_M - Q_m) P/(P + M):

* dB = 0 fixes the quota, Q(B) = Q_m / (1 - L/(r h(B)));
* dp + dP = 0 fixes the dissolved pool, P = T - Q(B) B, with the phosphorus
  budget T = P_h + P_in z_m/D (or, when D = 0 and the budget is closed, the
  p + P of the start state);
* dp = 0 leaves G(B) = rho~(T - Q(B) B) (Q_M - Q(B)) - L Q(B) = 0.

G strictly decreases wherever r h(B) > L, Q(B) < Q_M and P >= 0, so the
positive root is unique; it is bracketed by doubling and found with Brent's
method.  The state built from the root is checked against the residual of
the full system and, where it fails, polished by a damped Newton
iteration.  With D = 0 and P_in > 0 the source has no outlet,
dp + dP = P_in > 0, and no equilibrium exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .core import (
    EPS_B,
    DomainError,
    HomState,
    ModelParams,
    _extinction_P,
    _growth_h,
    _quota,
    _rho_tilde,
    q_hat,
    r0,
    reaction_jacobian,
    reaction_rhs,
)

__all__ = [
    "IntegrationError",
    "ConvergenceError",
    "HomTrajectory",
    "extinction_state",
    "integrate_homogeneous",
    "find_equilibrium",
]

# iteration cap of the equilibrium polish, which starts at the scalar root
_NEWTON_MAX_ITER = 60


class IntegrationError(RuntimeError):
    """Stiffness or step-size failure, or a sample that fails validation;
    carries the time and state reached (the last good one on failure)."""

    def __init__(self, message: str, t: float, state: np.ndarray):
        super().__init__(f"{message} (t={t:g}, state={state})")
        self.t = t
        self.state = state


class ConvergenceError(RuntimeError):
    """Newton failed to converge; carries the best iterate found."""

    def __init__(self, message: str, best: np.ndarray, residual: float):
        super().__init__(f"{message} (best={best}, |rhs|={residual:.3e})")
        self.best = best
        self.residual = residual


@dataclass(frozen=True)
class HomTrajectory:
    """Sampled solution of the homogeneous system.

    ``nfev``, ``njev`` and ``nlu`` are the integrator's counts of
    right-hand-side evaluations, Jacobian evaluations and LU
    factorizations; they stay zero for a trajectory built by hand.
    """

    t: np.ndarray          # (nt,)
    y: np.ndarray          # (3, nt) rows B, p, P
    params: ModelParams
    nfev: int = 0
    njev: int = 0
    nlu: int = 0

    @property
    def B(self) -> np.ndarray:
        return self.y[0]

    @property
    def p(self) -> np.ndarray:
        return self.y[1]

    @property
    def P(self) -> np.ndarray:
        return self.y[2]

    def quota(self) -> np.ndarray:
        """Cell quota p/B along the trajectory, q_hat where B has vanished."""
        return _quota(self.B, self.p, self.params)

    def final_state(self) -> HomState:
        B, p, P = np.maximum(self.y[:, -1], 0.0)
        return HomState(B, p, P)

    def validate(self) -> None:
        """Check positivity (to 1e-10) and the quota tube (to 1e-6) at every
        sample; the :class:`IntegrationError` names the first failing
        sample's time and state."""
        negative = (self.y < -1e-10).any(axis=0)
        q = self.quota()
        outside = (q < self.params.Q_m - 1e-6) | (q > self.params.Q_M + 1e-6)
        failed = np.flatnonzero(negative | outside)
        if failed.size:
            i = failed[0]
            message = ("negative state beyond tolerance" if negative[i]
                       else "cell quota left [Q_m, Q_M] tube")
            raise IntegrationError(message, float(self.t[i]), self.y[:, i])


def _validate_samples(times, fields, params: ModelParams) -> None:
    """``validate(params)`` of each sampled field (a ``Field1D`` or
    ``Field2D``); the first failure is raised as an :class:`IntegrationError`
    with that sample's time and flat state."""
    for t, f in zip(times, fields):
        try:
            f.validate(params)
        except ValueError as exc:
            raise IntegrationError(str(exc), float(t), f.stack()) from exc


def _rhs_flat(t: float, y: np.ndarray, params: ModelParams) -> np.ndarray:
    B, p, P = np.maximum(y, 0.0)
    return reaction_rhs(HomState(B, p, P), params)


def _jac_flat(t: float, y: np.ndarray, params: ModelParams) -> np.ndarray:
    B, p, P = np.maximum(y, 0.0)
    return reaction_jacobian(B, p, P, params)


def _solve_bdf(fun, jac, y0, t_end, rtol, atol, t_eval, args=None, convert=()):
    """BDF from t = 0 to ``t_end`` for both the homogeneous and the transect
    integrator: argument checks, solve, and :class:`IntegrationError` on
    failure, also for exceptions of the types in ``convert``."""
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if not (rtol > 0 and atol > 0):
        raise ValueError("tolerances must be positive")
    try:
        sol = solve_ivp(
            fun,
            (0.0, float(t_end)),
            y0,
            method="BDF",
            jac=jac,
            rtol=rtol,
            atol=atol,
            t_eval=t_eval,
            args=args,
        )
    except convert as exc:
        raise IntegrationError(f"BDF integration failed: {exc}", 0.0, y0) from exc
    if not sol.success:
        t_last = float(sol.t[-1]) if sol.t.size else 0.0
        y_last = sol.y[:, -1] if sol.t.size else y0
        raise IntegrationError(f"BDF integration failed: {sol.message}", t_last, y_last)
    return sol


def integrate_homogeneous(
    initial: HomState,
    params: ModelParams,
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-11,
    t_eval: np.ndarray | None = None,
) -> HomTrajectory:
    """Integrate the movement-free system from ``initial`` to ``t_end``.

    Uses the adaptive implicit BDF scheme with the analytic Jacobian.  The
    returned trajectory is checked against positivity and the quota tube
    (see :meth:`HomTrajectory.validate`).

    Raises
    ------
    ValueError
        If ``t_end``, ``rtol`` or ``atol`` is not positive (NaN included),
        or ``initial`` leaves the quota tube.
    IntegrationError
        On integrator failure (step-size underflow under stiffness), with
        the last reached time and state attached.
    """
    initial.check_quota(params)
    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, 201)
    sol = _solve_bdf(_rhs_flat, _jac_flat, initial.as_array(), t_end, rtol, atol,
                     np.asarray(t_eval, dtype=float), args=(params,))
    traj = HomTrajectory(sol.t, sol.y, params, sol.nfev, sol.njev, sol.nlu)
    traj.validate()
    return traj


def extinction_state(params: ModelParams) -> HomState:
    """The biomass-free equilibrium (0, 0, P_h + P_in z_m / D); raises
    :class:`DomainError` when D = 0 and P_in > 0, where none exists."""
    if params.exchange == 0.0 and params.P_in > 0.0:
        raise DomainError("no equilibrium: with D = 0 the source P_in > 0 has no outlet")
    return HomState(0.0, 0.0, _extinction_P(params))


def _newton(y0: np.ndarray, params: ModelParams, rtol: float) -> tuple[np.ndarray, float, bool]:
    """Damped Newton on the reaction rhs.  Returns (state, residual, ok)."""
    y = y0.copy()

    def res_norm(y):
        return float(np.linalg.norm(_rhs_flat(0.0, y, params)))

    def scale(y):
        return max(1.0, float(np.linalg.norm(y, np.inf)))

    current = res_norm(y)
    for _ in range(_NEWTON_MAX_ITER):
        if current <= rtol * scale(y):
            return y, current, True
        J = _jac_flat(0.0, y, params)
        try:
            step = np.linalg.solve(J, -_rhs_flat(0.0, y, params))
        except np.linalg.LinAlgError:
            return y, current, False
        lam = 1.0
        while lam > 1e-6:
            trial = y + lam * step
            if np.all(trial[:2] > 0) and trial[2] >= 0:
                trial_res = res_norm(trial)
                if trial_res < current:
                    y, current = trial, trial_res
                    break
            lam *= 0.5
        else:
            return y, current, False
    return y, current, current <= rtol * scale(y)


def _equilibrium_quota(B: float, params: ModelParams) -> float:
    # the quota at which growth balances loss, Q_m / (1 - L/(r h(B))), capped
    # at Q_M where growth cannot balance loss below the full quota
    growth = params.r * _growth_h(B, params)
    if growth <= params.total_loss:
        return params.Q_M
    return min(params.Q_m / (1.0 - params.total_loss / growth), params.Q_M)


def _equilibrium_biomass(params: ModelParams, total: float) -> float:
    """Biomass of the positive equilibrium with p + P = ``total``, or 0.0.

    Returns the root of the reduced equation G(B) = 0 (see the module
    docstring).  G is extended past the ends of its domain by capping the
    quota at Q_M and P at zero, which keeps it continuous and nonincreasing
    and makes it negative, -L Q_M, for all large B; a positive root exists
    exactly when G(0) > 0.
    """
    loss = params.total_loss

    def reduced(B: float) -> float:
        Q = _equilibrium_quota(B, params)
        return _rho_tilde(max(total - Q * B, 0.0), params) * (params.Q_M - Q) - loss * Q

    if not reduced(0.0) > 0.0:
        return 0.0
    # past B = total/Q_m the dissolved pool is empty and G = -L Q < 0, so the
    # doubling ends
    upper = 1.0
    while reduced(upper) >= 0.0:
        upper *= 2.0
    return brentq(reduced, 0.0, upper, xtol=1e-300)


def find_equilibrium(
    params: ModelParams,
    guess: HomState | None = None,
    rtol: float = 1e-10,
) -> tuple[HomState, str]:
    """Locate an equilibrium of the homogeneous system and classify it.

    When the reproductive index is at most one only the extinction state
    exists and it is returned directly.  Otherwise the positive equilibrium
    is the unique root of a scalar equation in the biomass (see the module
    docstring), found by bracketing and Brent's method.  The state built
    from that root is returned when its residual passes
    ``|rhs| <= rtol * max(1, |state|_inf)``; otherwise a damped Newton
    iteration polishes it until it does.

    ``guess`` matters in two ways only: a guess with B < EPS_B returns the
    extinction state, and when D = 0 the phosphorus budget is closed and
    the guess's p + P fixes it (without a guess, the budget of the start
    state (5, 5 q_hat, max(P_h, 0.1))).  With D > 0 the budget is
    P_h + P_in z_m/D whatever the guess.  A closed budget too small to
    carry a bloom gives the extinction state (0, 0, p + P).

    Returns
    -------
    (state, classification)
        ``classification`` is ``"extinction"`` if the equilibrium biomass is
        numerically zero, else ``"positive"``.

    Raises
    ------
    DomainError
        If D = 0 and P_in > 0, where no equilibrium exists; raised before
        any solve.
    ConvergenceError
        If Newton does not bring the residual under the test; carries the
        best iterate found.
    """
    extinction = extinction_state(params)
    if r0(params) <= 1.0 or (guess is not None and guess.B < EPS_B):
        return extinction, "extinction"

    if params.exchange > 0.0:
        total = extinction.P
    else:
        start = guess if guess is not None else HomState(
            5.0, 5.0 * q_hat(params), max(params.P_h, 0.1))
        total = start.p + start.P
    B = _equilibrium_biomass(params, total)
    if B == 0.0:
        return HomState(0.0, 0.0, total), "extinction"
    p = _equilibrium_quota(B, params) * B
    y, residual, ok = _newton(np.array([B, p, total - p]), params, rtol)
    if not ok:
        raise ConvergenceError("equilibrium Newton did not converge", y, residual)
    state = HomState(*np.maximum(y, 0.0))
    kind = "extinction" if state.B < EPS_B else "positive"
    return state, kind
