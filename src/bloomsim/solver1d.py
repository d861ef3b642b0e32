"""Method-of-lines solver for the 1D transect model.

The transect state carries four nodal arrays (B, Q, P, p): biomass, cell
quota, dissolved and internal phosphorus.  Evolving both Q and p is
deliberate redundancy; their mutual consistency ``p = Q B`` is asserted, not
assumed.  Spatial terms on the uniform grid:

* diffusion by the central 3-point stencil,
* advection by first-order upwinding on the sign of the local transport
  speed (``beta_B v`` for B and p, ``beta_P v`` for P, and for Q the
  combined speed ``beta_B v - 2 alpha B_x / B`` whose B_x uses a central
  difference),
* zero-flux boundaries through ghost values copied from the boundary node,
  which makes the plain nodal sum of the diffusion terms vanish exactly
  (a discretely conservative closure).

Time integration uses the adaptive implicit BDF scheme with a banded
Jacobian sparsity pattern.  Trajectories export as long-format CSV with 17
significant digits, one block write per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import diags, kron

from ._textio import write_rows
from .core import EPS_B, ModelParams, _reaction_kernel
from .ode import IntegrationError
from .wind import as_wind

__all__ = [
    "Grid1D",
    "Field1D",
    "Trajectory1D",
    "build_grid",
    "rhs_1d",
    "integrate_1d",
    "write_trajectory_csv",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid on [0, L] with Nx nodes."""

    L: float
    Nx: int

    def __post_init__(self) -> None:
        if self.L <= 0:
            raise ValueError("domain length L must be positive")
        if self.Nx < 3:
            raise ValueError("need at least 3 grid nodes")

    @property
    def dx(self) -> float:
        return self.L / (self.Nx - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.Nx)


def build_grid(L: float, Nx: int) -> Grid1D:
    """Uniform grid with node i at i * L/(Nx-1)."""
    return Grid1D(L, Nx)


@dataclass
class Field1D:
    """Nodal state arrays of the transect model."""

    B: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        arrays = [np.asarray(a, dtype=float) for a in (self.B, self.Q, self.P, self.p)]
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise ValueError("B, Q, P, p must be equal-length 1D arrays")
        self.B, self.Q, self.P, self.p = arrays

    @classmethod
    def uniform(cls, grid: Grid1D, B: float, Q: float, P: float) -> "Field1D":
        ones = np.ones(grid.Nx)
        return cls(B * ones, Q * ones, P * ones, Q * B * ones)

    @classmethod
    def bump(
        cls,
        grid: Grid1D,
        B_base: float = 0.5,
        B_peak: float = 10.0,
        Q0: float = 0.02,
        P0: float = 0.15,
        center: float | None = None,
        width: float | None = None,
    ) -> "Field1D":
        """A Gaussian biomass bump over a uniform background.

        The default scenario: positive everywhere, quota uniform, dissolved
        phosphorus uniform.
        """
        x = grid.x
        center = grid.L / 2 if center is None else center
        width = grid.L / 8 if width is None else width
        B = B_base + B_peak * np.exp(-(((x - center) / width) ** 2))
        Q = np.full(grid.Nx, Q0)
        P = np.full(grid.Nx, P0)
        return cls(B, Q, P, Q * B)

    def stack(self) -> np.ndarray:
        return np.concatenate([self.B, self.Q, self.P, self.p])

    @classmethod
    def unstack(cls, y: np.ndarray) -> "Field1D":
        Nx = y.size // 4
        return cls(y[:Nx], y[Nx : 2 * Nx], y[2 * Nx : 3 * Nx], y[3 * Nx :])

    def consistency_error(self) -> float:
        """Relative sup-norm disagreement between p and Q * B.

        The two representations are evolved independently; they agree to
        integrator accuracy in still water, but first-order upwinding does
        not satisfy a discrete product rule, so advection lets them drift
        apart at a rate O(speed * dx * grad Q * grad B).
        """
        if self.B.min() <= EPS_B:
            return 0.0
        err = np.abs(self.p - self.Q * self.B).max()
        return float(err / max(np.abs(self.p).max(), EPS_B))

    def validate(
        self,
        params: ModelParams,
        positivity_tol: float = 1e-10,
        quota_tol: float = 1e-6,
        consistency_tol: float = 1e-2,
    ) -> None:
        """Positivity, the quota tube, and p = Q B sanity.

        The default consistency tolerance is a loose divergence trap; tests
        assert the tight (1e-6) agreement on windless scenarios where it is
        meaningful (see :meth:`consistency_error`).
        """
        if min(self.B.min(), self.P.min(), self.p.min()) < -positivity_tol:
            raise ValueError("negative state beyond tolerance")
        if self.Q.min() < params.Q_m - quota_tol or self.Q.max() > params.Q_M + quota_tol:
            raise ValueError("cell quota left the [Q_m, Q_M] tube")
        err = self.consistency_error()
        if err > consistency_tol:
            raise ValueError(f"p and Q*B inconsistent: rel err {err:.3e}")


def _laplacian(U: np.ndarray, dx: float) -> np.ndarray:
    # ghost value := boundary value, so the nodal sum telescopes to zero
    out = np.empty_like(U)
    out[1:-1] = U[2:] - 2.0 * U[1:-1] + U[:-2]
    out[0] = U[1] - U[0]
    out[-1] = U[-2] - U[-1]
    return out / dx**2


def _upwind_gradient(U: np.ndarray, speed, dx: float) -> np.ndarray:
    # one-sided difference taken from the upwind side of the local speed;
    # boundary ghosts copy the boundary value, so the upwind slope there is 0
    padded = np.zeros(U.size + 1)
    np.subtract(U[1:], U[:-1], out=padded[1:-1])
    backward, forward = padded[:-1], padded[1:]
    if np.ndim(speed) == 0:
        return (backward if speed > 0 else forward) / dx
    return np.where(speed > 0, backward, forward) / dx


def _central_gradient(U: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(U)
    out[1:-1] = (U[2:] - U[:-2]) / (2.0 * dx)
    out[0] = (U[1] - U[0]) / (2.0 * dx)
    out[-1] = (U[-1] - U[-2]) / (2.0 * dx)
    return out


def rhs_1d(
    fields: Field1D,
    t: float,
    grid: Grid1D,
    wind,
    params: ModelParams,
) -> Field1D:
    """Per-node time derivatives of (B, Q, P, p) at time ``t``.

    The scalar transect wind is the east component of the supplied wind
    evaluator.  The B, p and P reaction terms come from the shared reaction
    kernel with the inverse growth quota 1/clip(Q, Q_m, Q_M), so like the
    2D solver they see states clipped to >= 0 in their nonlinear
    coefficients; the Q row reuses the kernel's h(B) and uptake
    coefficient.  With spatially constant fields and still water the
    derivative reduces to the homogeneous reaction rates at every node.
    """
    dx = grid.dx
    v = float(as_wind(wind)(t)[0])
    B, Q, P, p = fields.B, fields.Q, fields.P, fields.p

    # clip the quota to its invariant tube so that integrator trial steps
    # slightly outside it cannot divide by a vanishing Q
    Qc = np.clip(Q, params.Q_m, params.Q_M)
    (R_B, R_p, R_P), _, hB, uptake = _reaction_kernel(B, p, P, 1.0 / Qc, params)

    a_B = params.beta_B * v
    a_P = params.beta_P * v
    # Q is carried at the combined speed beta_B v - 2 alpha B_x / B; the
    # coefficient's B_x is a central difference, guarded where B vanishes
    a_Q = a_B - 2.0 * params.alpha * _central_gradient(B, dx) / np.maximum(B, EPS_B)

    dB = params.alpha * _laplacian(B, dx) - a_B * _upwind_gradient(B, a_B, dx) + R_B
    dQ = (
        params.alpha * _laplacian(Q, dx)
        - a_Q * _upwind_gradient(Q, a_Q, dx)
        + uptake * (params.Q_M - Qc)
        - params.r * (Q - params.Q_m) * hB
    )
    # uptake and recycling enter R_P and R_p through the areal forms eta and
    # l*p (equal to rho(Q,P)*B and l*Q*B when p = Q B); written this way they
    # cancel between the two rows identically, keeping the closed phosphorus
    # budget exact in the discretization
    dP = params.beta * _laplacian(P, dx) - a_P * _upwind_gradient(P, a_P, dx) + R_P
    dp = params.alpha * _laplacian(p, dx) - a_B * _upwind_gradient(p, a_B, dx) + R_p
    return Field1D(dB, dQ, dP, dp)


def _jac_sparsity(Nx: int):
    # four coupled tridiagonal blocks: every block pair may couple nodewise,
    # spatial stencils couple nearest neighbours
    tridiagonal = diags([1, 1, 1], [-1, 0, 1], shape=(Nx, Nx), dtype=np.int8)
    return kron(np.ones((4, 4), dtype=np.int8), tridiagonal, format="csr")


@dataclass(frozen=True)
class Trajectory1D:
    """Sampled transect solution: fields[i] at times[i]."""

    times: np.ndarray
    fields: list
    grid: Grid1D
    params: ModelParams

    def array(self, name: str) -> np.ndarray:
        """(n_samples, Nx) array of one component."""
        return np.stack([getattr(f, name) for f in self.fields])

    def validate(self, **tolerances) -> None:
        for f in self.fields:
            f.validate(self.params, **tolerances)


def integrate_1d(
    initial: Field1D,
    grid: Grid1D,
    wind,
    params: ModelParams,
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    sample_times: np.ndarray | None = None,
    validate: bool = True,
) -> Trajectory1D:
    """Integrate the transect model to ``t_end`` with samples on request.

    Raises
    ------
    IntegrationError
        On stiffness failure, carrying the last reached state.
    """
    if initial.B.size != grid.Nx:
        raise ValueError("initial field does not match the grid")
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 11)
    sample_times = np.asarray(sample_times, dtype=float)
    wind_fn = as_wind(wind)

    def rhs_flat(t, y):
        return rhs_1d(Field1D.unstack(y), t, grid, wind_fn, params).stack()

    try:
        sol = solve_ivp(
            rhs_flat,
            (0.0, float(t_end)),
            initial.stack(),
            method="BDF",
            rtol=rtol,
            atol=atol,
            t_eval=sample_times,
            jac_sparsity=_jac_sparsity(grid.Nx),
        )
    except (RuntimeError, ValueError) as exc:
        # singular iteration matrices (e.g. non-finite forcing) surface as
        # low-level solver errors; present them with the failure contract
        raise IntegrationError(f"1D integration failed: {exc}", 0.0,
                               initial.stack()) from exc
    if not sol.success:
        t_last = float(sol.t[-1]) if sol.t.size else 0.0
        raise IntegrationError(f"1D integration failed: {sol.message}", t_last,
                               sol.y[:, -1] if sol.t.size else initial.stack())
    fields = [Field1D.unstack(sol.y[:, i]) for i in range(sol.t.size)]
    traj = Trajectory1D(sol.t, fields, grid, params)
    if validate:
        traj.validate()
    return traj


def write_trajectory_csv(traj: Trajectory1D, path) -> None:
    """Long-format export: one row per (t, x) with B, Q, P, p columns.

    Values carry 17 significant digits (round-trip exact) and rows end in
    ``\\r\\n``, the csv module's default dialect; each sample is written
    as one block.
    """
    x = traj.grid.x
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,x,B,Q,P,p\r\n")
        for t, f in zip(traj.times, traj.fields):
            write_rows(fh, np.column_stack([np.full(x.size, t), x, f.B, f.Q, f.P, f.p]), ",", "\r\n")
