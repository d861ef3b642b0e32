"""Integration of the movement-free system and equilibrium location.

The homogeneous (well-mixed) limit of the lake model is a stiff three-state
ODE.  This module integrates it with an adaptive implicit multistep scheme
(BDF, via SciPy) using the analytic reaction Jacobian, and locates the
extinction and positive equilibria with a damped Newton iteration that falls
back on long-time integration when the initial guess is poor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .core import (
    EPS_B,
    HomState,
    ModelParams,
    _quota,
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

#: Integration horizon treated as "long enough to be at equilibrium" by the
#: positive-equilibrium fallback.
EQUILIBRIUM_HORIZON = 4000.0


class IntegrationError(RuntimeError):
    """Stiffness or step-size failure; carries the last good state."""

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
    """Sampled solution of the homogeneous system."""

    t: np.ndarray          # (nt,)
    y: np.ndarray          # (3, nt) rows B, p, P
    params: ModelParams

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

    def validate(self, positivity_tol: float = 1e-10, quota_tol: float = 1e-6) -> None:
        """Check positivity and the quota tube at every sample."""
        if self.y.min() < -positivity_tol:
            raise IntegrationError(
                "negative state beyond tolerance", float(self.t[-1]), self.y[:, -1]
            )
        q = self.quota()
        lo, hi = self.params.Q_m - quota_tol, self.params.Q_M + quota_tol
        if np.any(q < lo) or np.any(q > hi):
            raise IntegrationError(
                "cell quota left [Q_m, Q_M] tube", float(self.t[-1]), self.y[:, -1]
            )


def _rhs_flat(t: float, y: np.ndarray, params: ModelParams) -> np.ndarray:
    B, p, P = np.maximum(y, 0.0)
    return reaction_rhs(HomState(B, p, P), params)


def _jac_flat(t: float, y: np.ndarray, params: ModelParams) -> np.ndarray:
    B, p, P = np.maximum(y, 0.0)
    return reaction_jacobian(B, p, P, params)


def integrate_homogeneous(
    initial: HomState,
    params: ModelParams,
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-11,
    t_eval: np.ndarray | None = None,
    validate: bool = True,
) -> HomTrajectory:
    """Integrate the movement-free system from ``initial`` to ``t_end``.

    Uses the adaptive implicit BDF scheme with the analytic Jacobian.  The
    returned trajectory is checked against positivity and the quota tube
    unless ``validate`` is disabled.

    Raises
    ------
    IntegrationError
        On integrator failure (step-size underflow under stiffness), with
        the last reached time and state attached.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    initial.check_quota(params)
    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, 201)
    sol = solve_ivp(
        _rhs_flat,
        (0.0, float(t_end)),
        initial.as_array(),
        method="BDF",
        jac=_jac_flat,
        rtol=rtol,
        atol=atol,
        t_eval=np.asarray(t_eval, dtype=float),
        args=(params,),
    )
    if not sol.success:
        t_last = float(sol.t[-1]) if sol.t.size else 0.0
        y_last = sol.y[:, -1] if sol.t.size else initial.as_array()
        raise IntegrationError(f"stiff integration failed: {sol.message}", t_last, y_last)
    traj = HomTrajectory(sol.t, sol.y, params)
    if validate:
        traj.validate()
    return traj


def extinction_state(params: ModelParams) -> HomState:
    """The biomass-free equilibrium (0, 0, P_h + P_in z_m / D)."""
    if params.exchange == 0.0:
        if params.P_in > 0.0:
            raise ValueError("no extinction equilibrium: P_in > 0 with no exchange")
        return HomState(0.0, 0.0, params.P_h)
    return HomState(0.0, 0.0, params.P_h + params.P_in / params.exchange)


def _newton(
    y0: np.ndarray, params: ModelParams, rtol: float, max_iter: int
) -> tuple[np.ndarray, float, bool]:
    """Damped Newton on the reaction rhs.  Returns (state, residual, ok)."""
    y = y0.copy()

    def res_norm(y):
        return float(np.linalg.norm(_rhs_flat(0.0, y, params)))

    def scale(y):
        return max(1.0, float(np.linalg.norm(y, np.inf)))

    current = res_norm(y)
    for _ in range(max_iter):
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


def find_equilibrium(
    params: ModelParams,
    guess: HomState | None = None,
    rtol: float = 1e-10,
    max_iter: int = 60,
) -> tuple[HomState, str]:
    """Locate an equilibrium of the homogeneous system and classify it.

    When the reproductive index is at most one only the extinction state
    exists and it is returned directly.  Otherwise a damped Newton iteration
    runs from ``guess`` (or a generic positive initializer); if it stalls,
    the system is first integrated for a long horizon and Newton restarts
    from the settled state.

    Returns
    -------
    (state, classification)
        ``classification`` is ``"extinction"`` if the equilibrium biomass is
        numerically zero, else ``"positive"``.

    Raises
    ------
    ConvergenceError
        If Newton does not reach ``|rhs| < rtol * scale``; carries the best
        iterate found.
    """
    if r0(params) <= 1.0:
        return extinction_state(params), "extinction"

    if guess is None:
        qh = q_hat(params)
        guess = HomState(5.0, 5.0 * qh, max(params.P_h, 0.1))
    y0 = guess.as_array()
    if y0[0] < EPS_B:
        return extinction_state(params), "extinction"

    y, residual, ok = _newton(y0, params, rtol, max_iter)
    if not ok or y[0] < 1e-6:
        # Newton either stalled or slid onto the (unstable) extinction root;
        # with R0 > 1 the positive equilibrium attracts the flow, so use the
        # long-time limit as the initializer instead
        traj = integrate_homogeneous(
            guess, params, EQUILIBRIUM_HORIZON, rtol=1e-10, atol=1e-12, validate=False
        )
        y, residual, ok = _newton(traj.y[:, -1], params, rtol, max_iter)
        if not ok:
            raise ConvergenceError("equilibrium Newton did not converge", y, residual)
    state = HomState(*np.maximum(y, 0.0))
    kind = "extinction" if state.B < EPS_B else "positive"
    return state, kind
