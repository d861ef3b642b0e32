"""Method-of-lines solver for the 1D transect model.

The transect evolves three nodal arrays in the reaction kernel's row order
(B, p, P): biomass, internal and dissolved phosphorus.  The cell quota
Q = p/B is not evolved; it is derived from the state, with the kernel's one
quota convention (q_hat where B <= EPS_B).  Spatial terms on the uniform
grid:

* diffusion by the central 3-point stencil and advection by first-order
  upwinding on the sign of the transport speed, with each row's diffusivity
  and advection scalar from the movement table of ``ModelParams`` (p moves
  with the cells that carry it, at B's coefficients),
* zero-flux boundaries through ghost values copied from the boundary node,
  which makes the plain nodal sum of the diffusion terms vanish exactly
  (a discretely conservative closure).

Time integration uses the variable-order BDF scheme of :mod:`bloomsim.bdf`
with the exact sparse Jacobian: three-by-three blocks of tridiagonal bands,
assembled into a fixed CSC pattern, on which BDF builds its iteration matrix
for SuperLU.  BDF calls :func:`rhs_1d` and the Jacobian directly on its
flat (3 Nx,) state, with the argument order ``(t, y, grid, wind, params)``
of :func:`bloomsim.bdf.solve`.  :class:`Field1D` is the type of initial
fields; the samples come back as one (3, Nx, nt)
:class:`~bloomsim.ode.Trajectory`, which exports as long-format CSV with
17 significant digits, one block write per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import csc_matrix, diags, kron

from ._textio import FLOAT
from .core import ModelParams, _check_fields, _reaction_kernel
from . import bdf
from .ode import Trajectory
from .wind import as_wind

__all__ = [
    "Grid1D",
    "Field1D",
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


@dataclass
class Field1D:
    """Nodal state arrays of the transect model, the type of its initial fields.

    The solver evolves (B, p, P) and starts from :meth:`stack`, which holds
    no Q: Q only sets p = Q B, through :meth:`uniform` and :meth:`bump`.
    """

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

        The default scenario: positive everywhere, p = Q0 B, dissolved
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
        """The flat (3 Nx,) solver state, rows (B, p, P)."""
        return np.concatenate([self.B, self.p, self.P])

    def validate(self, params: ModelParams) -> None:
        """Finite values, positivity everywhere (to 1e-10), and the quota
        tube (to 1e-6) on p/B where B > QUOTA_B_FLOOR: the rule of
        :meth:`~bloomsim.ode.Trajectory.validate` for one sample.  Q is not
        read."""
        _check_fields(self.B, self.p, self.P, params)


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


def rhs_1d(t: float, y: np.ndarray, grid: Grid1D, wind, params: ModelParams) -> np.ndarray:
    """Time derivative of the flat transect state ``y`` at time ``t``.

    ``y`` holds the (3 Nx,) nodal values in :meth:`Field1D.stack` order
    (B, p, P) and the result has the same layout; the argument order is
    that of ``bdf.solve(rhs_1d, ..., args=(grid, wind, params))``.  The
    rows are read as views of ``y``, which is left unchanged.  ``wind`` is
    a ``t -> (u, v)`` evaluator in m/day (:func:`~bloomsim.wind.as_wind`
    makes one); the scalar transect wind is its east component.
    The Laplacian and upwind differences of the three fields come from one
    pass over the stacked rows, and the reaction terms from the shared
    kernel at the cell quota, so like the 2D solver they see states clipped
    to >= 0 in their nonlinear coefficients.  With spatially constant
    fields and still water the derivative reduces to the homogeneous
    reaction rates at every node.
    """
    dx = grid.dx
    U = y.reshape(3, grid.Nx)
    backward, forward = _differences(U)
    dU = params.diffusivity_column * ((forward - backward) / dx**2)
    east = float(wind(t)[0])
    if east != 0.0:  # in still water the upwind term is identically zero
        speeds = params.advection_column * east
        dU -= speeds * _upwind_gradient(backward, forward, speeds, dx)
    # uptake and recycling enter the p and P rows through the areal forms,
    # which cancel identically and keep the closed budget exact
    dU += _reaction_kernel(*U, params).rates
    return dU.reshape(-1)


def _jac_sparsity(Nx: int):
    # three coupled tridiagonal blocks: every block pair may couple nodewise,
    # spatial stencils couple nearest neighbours
    tridiagonal = diags([1, 1, 1], [-1, 0, 1], shape=(Nx, Nx), dtype=np.int8)
    return kron(np.ones((3, 3), dtype=np.int8), tridiagonal, format="csr")


@lru_cache
def _band_layout(Nx: int):
    # the CSC pattern of _jac_sparsity(Nx) and, for each stored entry, its
    # position in the (3, 3, 3, Nx) band array: band[a, b, k, i] is the
    # entry at row a*Nx + i, column b*Nx + i + k - 1
    pattern = _jac_sparsity(Nx).tocsc()
    rows = pattern.indices
    cols = np.repeat(np.arange(3 * Nx), np.diff(pattern.indptr))
    a, i = np.divmod(rows, Nx)
    b, j = np.divmod(cols, Nx)
    return pattern, np.ravel_multi_index((a, b, j - i + 1, i), (3, 3, 3, Nx))


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

    Takes the arguments of ``rhs_1d`` in the same order, as
    :func:`bloomsim.bdf.solve` passes them to ``jac``; rows and columns
    follow the flat (B, p, P) layout, and the pattern stores the whole
    diagonal, as BDF's sparse route needs.  The CSC pattern and the
    position of each band entry in it are built once per Nx
    (:func:`_band_layout`).

    Each field's transport is a tridiagonal block, its upwind side frozen
    at the current sign of the wind; the nodal 3x3 reaction blocks come
    from the shared kernel.
    """
    Nx, dx = grid.Nx, grid.dx
    speeds = params.advection_column * float(wind(t)[0])
    diffusion = np.repeat(params.diffusivity_column / dx**2, Nx, axis=1)
    upwind = speeds / dx
    ahead = speeds > 0
    band = np.zeros((3, 3, 3, Nx))
    fields = np.arange(3)
    band[fields, fields] = _three_point(
        diffusion + np.where(ahead, upwind, 0.0), diffusion - np.where(ahead, 0.0, upwind)
    )
    band[:, :, 1] += _reaction_kernel(*y.reshape(3, Nx), params, jacobian=True).jacobian

    pattern, source = _band_layout(Nx)
    return csc_matrix((band.reshape(-1)[source], pattern.indices, pattern.indptr),
                      shape=pattern.shape)


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
) -> Trajectory:
    """Integrate the transect model to ``t_end`` with samples on request.

    BDF gets the exact sparse Jacobian of the right-hand side.  The
    returned trajectory's ``y`` is a (3, Nx, nt) view of BDF's samples,
    and its ``counters`` are BDF's ``nfev``, ``njev`` and ``nlu``.

    Raises
    ------
    ValueError
        If ``t_end``, ``rtol`` or ``atol`` is not positive (NaN included),
        ``sample_times`` are not strictly increasing in [0, t_end], or the
        initial field does not match the grid or is not finite.
    IntegrationError
        On step-size underflow or a singular iteration matrix, carrying the
        time and state of the last accepted step, or when ``validate`` is
        set and a sample fails :meth:`Trajectory.validate`.
    """
    if initial.B.size != grid.Nx:
        raise ValueError("initial field does not match the grid")
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 11)
    t, y, counters = bdf.solve(rhs_1d, _jacobian_1d, initial.stack(), t_end, rtol, atol,
                               sample_times, args=(grid, as_wind(wind), params))
    traj = Trajectory(t, y.reshape(3, grid.Nx, -1), params, counters)
    if validate:
        traj.validate()
    return traj


def write_trajectory_csv(traj: Trajectory, grid: Grid1D, path) -> None:
    """Long-format export: one row per (t, x) with B, Q, P, p columns.

    Q is :meth:`Trajectory.quota`, q_hat where B <= QUOTA_B_FLOOR.  Values
    carry 17 significant digits (round-trip exact) and rows end in
    ``\\r\\n``, the csv module's default dialect; each sample is written
    as one block.  The x column is formatted once per file and t once per
    sample, into a row template that takes the four fields.
    """
    # "\0" marks where each row's t goes; no formatted number contains it
    template = "".join(f"\0,{FLOAT % x},{FLOAT},{FLOAT},{FLOAT},{FLOAT}\r\n"
                       for x in grid.x.tolist())
    # (nt, Nx, 4): per sample, per node, the B, Q, P, p columns
    values = np.stack([traj.B, traj.quota(), traj.P, traj.p]).transpose(2, 1, 0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,x,B,Q,P,p\r\n")
        for t, sample in zip(traj.t.tolist(), values):
            fh.write(template.replace("\0", FLOAT % t) % tuple(sample.ravel().tolist()))
