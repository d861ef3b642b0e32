"""Method-of-lines solver for the 1D transect model.

The transect evolves three nodal arrays in the reaction kernel's row order
(B, p, P): biomass, internal and dissolved phosphorus.  The cell quota
Q = p/B is not evolved; it is derived from the state, with the kernel's one
quota convention (q_hat where B <= EPS_B).  The state moves by
y' = -T(v) y + R(y), with T the :class:`~bloomsim.core.Transport` of the
uniform grid (p moves with the cells that carry it, at B's coefficients):

* central diffusion and first-order upwind advection: K = -Laplacian /
  dx^2, and the backward and forward gradients / dx take the east wind's
  coefficients (max(u, 0), min(u, 0)),
* zero-flux boundaries through ghost values copied from the boundary node,
  which makes the plain nodal sum of the diffusion terms vanish exactly
  (a discretely conservative closure).

Time integration uses the variable-order BDF scheme of :mod:`bloomsim.bdf`
with the exact sparse Jacobian, -T(v) plus the kernel's nodal 3x3 reaction
blocks, on a fixed CSC pattern on which BDF builds its iteration matrix
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
from scipy.sparse import csc_matrix, diags

from ._textio import FLOAT
from .core import ModelParams, Transport, _check_fields, _reaction_kernel
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


@lru_cache
def _transport(grid: Grid1D, diffusivities, advection_scalars) -> Transport:
    # the ghost-copy -Laplacian / dx^2 and the one-sided gradients / dx; an
    # east wind u reads the slope on its upwind side
    step = np.full(grid.Nx - 1, 1.0 / grid.dx)
    backward = diags([-step, np.r_[0.0, step]], [-1, 0])
    forward = diags([np.r_[-step, 0.0], step], [0, 1])
    return Transport((backward - forward) / grid.dx, (backward, forward),
                     lambda v: (max(float(v[0]), 0.0), min(float(v[0]), 0.0)),
                     diffusivities, advection_scalars)


def rhs_1d(t: float, y: np.ndarray, grid: Grid1D, wind, params: ModelParams) -> np.ndarray:
    """Time derivative of the flat transect state ``y`` at time ``t``.

    ``y`` holds the (3 Nx,) nodal values in :meth:`Field1D.stack` order
    (B, p, P) and the result has the same layout; the argument order is
    that of ``bdf.solve(rhs_1d, ..., args=(grid, wind, params))``.  The
    rows are read as views of ``y``, which is left unchanged.  ``wind`` is
    a ``t -> (u, v)`` evaluator in m/day (:func:`~bloomsim.wind.as_wind`
    makes one); the scalar transect wind is its east component.
    The derivative is -T(v) y plus the reaction terms of the shared kernel
    at the cell quota, so like the 2D solver they see states clipped to
    >= 0 in their nonlinear coefficients.  With spatially constant fields
    and still water the derivative reduces to the homogeneous reaction
    rates at every node.
    """
    # uptake and recycling enter the p and P rows through the areal forms,
    # which cancel identically and keep the closed budget exact
    dU = _reaction_kernel(*y.reshape(3, grid.Nx), params).rates.reshape(-1)
    dU -= _transport(grid, params.diffusivities, params.advection_scalars).apply(wind(t), y)
    return dU


def _jacobian_1d(t: float, y: np.ndarray, grid: Grid1D, wind, params: ModelParams) -> csc_matrix:
    """Exact Jacobian of :func:`rhs_1d`: -T(v) plus the kernel's nodal 3x3
    reaction blocks (:meth:`~bloomsim.core.Transport.jacobian`).

    Takes the arguments of ``rhs_1d`` in the same order, as
    :func:`bloomsim.bdf.solve` passes them to ``jac``; rows and columns
    follow the flat (B, p, P) layout.  The pattern has tridiagonal diagonal
    blocks and diagonal off-diagonal blocks, in canonical CSC with the whole
    diagonal stored, as BDF's sparse route needs.
    """
    blocks = _reaction_kernel(*y.reshape(3, grid.Nx), params, jacobian=True).jacobian
    return _transport(grid, params.diffusivities, params.advection_scalars).jacobian(wind(t), blocks)


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
