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

Time integration uses the adaptive implicit BDF scheme with the exact
sparse Jacobian: four-by-four blocks of tridiagonal bands, assembled into a
fixed CSC pattern.  BDF calls :func:`rhs_1d` and the Jacobian directly on
its flat (4 Nx,) state, the nodal rows in (B, Q, P, p) order, with the
``solve_ivp`` argument order ``(t, y, grid, wind, params)``;
:class:`Field1D` is the type of initial fields and samples.  Trajectories
export as long-format CSV with 17 significant digits, one block write per
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csc_matrix, diags, kron

from ._textio import write_rows
from .core import EPS_B, ModelParams, _reaction_kernel
from .ode import _solve_bdf, _validate_samples
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
        if not self.L > 0:
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

    def validate(self, params: ModelParams) -> None:
        """Positivity (to 1e-10), the quota tube (to 1e-6), and p = Q B
        sanity (relative error at most 1e-2).

        The consistency tolerance is a loose divergence trap; tests assert
        the tight (1e-6) agreement on windless scenarios where it is
        meaningful (see :meth:`consistency_error`).
        """
        if min(self.B.min(), self.P.min(), self.p.min()) < -1e-10:
            raise ValueError("negative state beyond tolerance")
        if self.Q.min() < params.Q_m - 1e-6 or self.Q.max() > params.Q_M + 1e-6:
            raise ValueError("cell quota left the [Q_m, Q_M] tube")
        err = self.consistency_error()
        if err > 1e-2:
            raise ValueError(f"p and Q*B inconsistent: rel err {err:.3e}")


def _differences(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # backward and forward differences of each row of U, from one
    # zero-padded buffer; the ghosts copy the boundary value, so the
    # difference across each end is 0
    padded = np.zeros((U.shape[0], U.shape[1] + 1))
    np.subtract(U[:, 1:], U[:, :-1], out=padded[:, 1:-1])
    return padded[:, :-1], padded[:, 1:]


def _upwind_gradient(backward: np.ndarray, forward: np.ndarray, speed, dx: float) -> np.ndarray:
    # one-sided difference taken from the upwind side of the local speed;
    # boundary ghosts copy the boundary value, so the upwind slope there is 0
    return np.where(speed > 0, backward, forward) / dx


def _transport(U: np.ndarray, v: float, dx: float, params: ModelParams):
    """Stencil terms of the stacked (B, Q, P, p) rows, in one pass.

    Returns the first differences, the (4, Nx) transport speeds, the
    central gradient of B and the guarded biomass max(B, EPS_B) of the Q
    speed.  Q is carried at the combined speed beta_B v - 2 alpha B_x / B.
    """
    backward, forward = _differences(U)
    central = (backward[0] + forward[0]) / (2.0 * dx)
    guarded = np.maximum(U[0], EPS_B)
    speeds = np.empty(U.shape)
    speeds[[0, 3]] = params.beta_B * v
    speeds[2] = params.beta_P * v
    speeds[1] = speeds[0] - 2.0 * params.alpha * central / guarded
    return backward, forward, speeds, central, guarded


# rows of the reaction kernel's (B, p, P) in the stacked (B, Q, P, p) state
_KERNEL_ROWS = np.array([0, 3, 2])


def _diffusivities(params: ModelParams) -> np.ndarray:
    return np.array([[params.alpha], [params.alpha], [params.beta], [params.alpha]])


def rhs_1d(t: float, y: np.ndarray, grid: Grid1D, wind, params: ModelParams) -> np.ndarray:
    """Time derivative of the flat transect state ``y`` at time ``t``.

    ``y`` holds the (4 Nx,) nodal values in :meth:`Field1D.stack` order
    (B, Q, P, p) and the result has the same layout; the argument order is
    that of ``solve_ivp(rhs_1d, ..., args=(grid, wind, params))``.  The
    rows are read as views of ``y``, which is left unchanged.  ``wind`` is
    a ``t -> (u, v)`` evaluator in m/day (:func:`~bloomsim.wind.as_wind`
    makes one); the scalar transect wind is its east component.
    The Laplacian and upwind differences of all four fields come from one
    pass over the stacked rows.  The B, p and P reaction terms come from
    the shared reaction kernel at the evolved quota Q, which the kernel
    clips to [Q_m, Q_M], so like the 2D solver they see states clipped to
    >= 0 in their nonlinear coefficients; the Q row reuses the kernel's
    h(B), uptake coefficient and clipped quota.  With spatially constant
    fields and still water the derivative reduces to the homogeneous
    reaction rates at every node.
    """
    dx = grid.dx
    v = float(wind(t)[0])
    U = y.reshape(4, grid.Nx)
    B, Q, P, p = U
    backward, forward, speeds, _, _ = _transport(U, v, dx, params)
    dU = (
        _diffusivities(params) * ((forward - backward) / dx**2)
        - speeds * _upwind_gradient(backward, forward, speeds, dx)
    )

    # the kernel clips the quota to its invariant tube, so integrator trial
    # steps slightly outside it cannot divide by a vanishing Q
    react = _reaction_kernel(B, p, P, params, quota=Q)
    # uptake and recycling enter R_P and R_p through the areal forms eta and
    # l*p (equal to rho(Q,P)*B and l*Q*B when p = Q B); written this way they
    # cancel between the two rows identically, keeping the closed phosphorus
    # budget exact in the discretization
    dU[_KERNEL_ROWS] += react.rates
    dU[1] += (react.uptake * (params.Q_M - react.quota)
              - params.r * (Q - params.Q_m) * react.h)
    return dU.reshape(-1)


def _jac_sparsity(Nx: int):
    # four coupled tridiagonal blocks: every block pair may couple nodewise,
    # spatial stencils couple nearest neighbours
    tridiagonal = diags([1, 1, 1], [-1, 0, 1], shape=(Nx, Nx), dtype=np.int8)
    return kron(np.ones((4, 4), dtype=np.int8), tridiagonal, format="csr")


@lru_cache
def _band_layout(Nx: int):
    # the CSC pattern of _jac_sparsity(Nx) and, for each stored entry, its
    # position in the (4, 4, 3, Nx) band array: band[a, b, k, i] is the
    # entry at row a*Nx + i, column b*Nx + i + k - 1
    pattern = _jac_sparsity(Nx).tocsc()
    rows = pattern.indices
    cols = np.repeat(np.arange(4 * Nx), np.diff(pattern.indptr))
    a, i = np.divmod(rows, Nx)
    b, j = np.divmod(cols, Nx)
    return pattern, np.ravel_multi_index((a, b, j - i + 1, i), (4, 4, 3, Nx))


def _three_point(sub: np.ndarray, sup: np.ndarray) -> np.ndarray:
    # (sub, diag, super) bands of a difference operator under the ghost-copy
    # closure: coefficients of U[i-1], U[i], U[i+1] in row i summing to zero,
    # with no neighbour beyond either end
    sub, sup = sub.copy(), sup.copy()
    sub[..., 0] = 0.0
    sup[..., -1] = 0.0
    return np.stack((sub, -(sub + sup), sup), axis=-2)


def _jacobian_1d(t: float, y: np.ndarray, grid: Grid1D, wind, params: ModelParams) -> csc_matrix:
    """Exact Jacobian of :func:`rhs_1d` on the fixed sparsity pattern.

    Takes the arguments of ``rhs_1d`` in the same order, as ``solve_ivp``
    passes them to ``jac``; rows and columns follow the flat (B, Q, P, p)
    layout.  The CSC pattern and the position of each band entry in it
    are built once per Nx (:func:`_band_layout`).

    Each upwind stencil is frozen at the current sign of its speed; the Q
    speed's dependence on B is differentiated, with the slope of
    max(B, EPS_B) taken as 1 above EPS_B and 0 at or below it.  Reaction
    blocks and the growth row's d/dQ come from the shared kernel at the
    evolved quota, with the clip's slope 1 on the closed tube.
    """
    Nx, dx = grid.Nx, grid.dx
    U = y.reshape(4, Nx)
    B, Q, P, p = U
    v = float(wind(t)[0])
    backward, forward, speeds, central, guarded = _transport(U, v, dx, params)
    band = np.zeros((4, 4, 3, Nx))

    # diffusion and upwind advection of each field
    diffusion = _diffusivities(params) / dx**2
    upwind = speeds / dx
    ahead = speeds > 0
    fields = np.arange(4)
    band[fields, fields] = _three_point(
        diffusion + np.where(ahead, upwind, 0.0), diffusion - np.where(ahead, 0.0, upwind)
    )

    # the Q speed through B: -a_Q G(Q) with a_Q = a_B - 2 alpha C(B)/max(B, EPS_B)
    weight = 2.0 * params.alpha * _upwind_gradient(backward[1], forward[1], speeds[1], dx) / guarded
    half = np.full(Nx, 0.5 / dx)
    band[1, 0] += weight * _three_point(-half, half)
    band[1, 0, 1] -= weight * central / guarded * (B > EPS_B)

    # reactions: the kernel's (B, p, P) blocks at the evolved quota, the
    # growth row's d/dQ, and the Q row
    react = _reaction_kernel(B, p, P, params, jacobian=True, quota=Q)
    tube = (Q >= params.Q_m) & (Q <= params.Q_M)
    band[_KERNEL_ROWS[:, None], _KERNEL_ROWS, 1] += react.jacobian
    band[0, 1, 1] += react.growth_q
    band[1, 1, 1] -= react.uptake * tube + params.r * react.h
    band[1, 0, 1] -= params.r * (Q - params.Q_m) * react.h_prime
    band[1, 2, 1] += react.uptake_prime * (params.Q_M - react.quota)

    pattern, source = _band_layout(Nx)
    return csc_matrix((band.reshape(-1)[source], pattern.indices, pattern.indptr),
                      shape=pattern.shape)


@dataclass(frozen=True)
class Trajectory1D:
    """Sampled transect solution: fields[i] at times[i].

    ``nfev``, ``njev`` and ``nlu`` are the integrator's counts of
    right-hand side evaluations, Jacobian evaluations and LU
    factorizations.
    """

    times: np.ndarray
    fields: list
    grid: Grid1D
    params: ModelParams
    nfev: int = 0
    njev: int = 0
    nlu: int = 0

    def array(self, name: str) -> np.ndarray:
        """(n_samples, Nx) array of one component."""
        return np.stack([getattr(f, name) for f in self.fields])

    def validate(self) -> None:
        """:meth:`Field1D.validate` at every sample; the first failure is
        raised as an :class:`~bloomsim.ode.IntegrationError` with that
        sample's time and flat state."""
        _validate_samples(self.times, self.fields, self.params)


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

    BDF gets the exact sparse Jacobian of the right-hand side.

    Raises
    ------
    ValueError
        If ``t_end``, ``rtol`` or ``atol`` is not positive (NaN included),
        or the initial field does not match the grid.
    IntegrationError
        On stiffness failure, carrying the last reached state, or when
        ``validate`` is set and a sample fails :meth:`Field1D.validate`.
    """
    if initial.B.size != grid.Nx:
        raise ValueError("initial field does not match the grid")
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 11)
    sample_times = np.asarray(sample_times, dtype=float)
    # singular iteration matrices (e.g. non-finite forcing) surface as
    # low-level SuperLU and ValueError failures; present them as
    # IntegrationError
    sol = _solve_bdf(rhs_1d, _jacobian_1d, initial.stack(), t_end, rtol, atol, sample_times,
                     args=(grid, as_wind(wind), params), convert=(RuntimeError, ValueError))
    fields = [Field1D.unstack(sol.y[:, i]) for i in range(sol.t.size)]
    traj = Trajectory1D(sol.t, fields, grid, params, sol.nfev, sol.njev, sol.nlu)
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
