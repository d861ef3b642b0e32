"""P1 finite-element solver with backward-Euler/Newton stepping.

The three fields (B, p, P) live on the nodes of a triangular lake mesh with
zero-flux boundaries.  Spatial operators are the standard P1 matrices: the
mass matrix M (consistent form exposed by :func:`assemble_fem`; its row
sums, a node vector, are the lumped mass of the time stepping), the
stiffness matrix K, and an advection matrix C(v) = integral (v . grad
phi_j) phi_i = v_x Cx + v_y Cy.  Row i of the state moves by d_i K + a_i
C(v), from the movement table of ``ModelParams``, through the shared
:class:`~bloomsim.core.Transport`.  The matrices are assembled from the
element arrays on demand; each mesh caches one build for the time
stepping, the lumped mass and the ``Transport`` of the last movement table.
Reactions are interpolated nodewise (group finite elements), which makes
the internal uptake/recycling exchange between p and P cancel exactly and
keeps the closed phosphorus budget conservative to solver tolerance; with
the lumped mass it also keeps pure diffusion positivity preserving on
Delaunay meshes.

Each backward-Euler step solves the nonlinear system by Newton-GMRES: the
exact Jacobian (analytic reaction terms, exact spatial operators) is
applied matrix-free and preconditioned by the inverse of its nodal 3x3
blocks.  With the lumped mass the Newton matrix is mass-dominated at the
bundled winds, so a few Krylov iterations per update replace a sparse LU
factor, whose fill dominated the step on fine meshes.  A step that fails to
converge is retried as two half steps before giving up.  Steps carry the
flat (3 n,) state of :meth:`Field2D.stack`, as the 1D solver does.
The growth quota is the reaction kernel's: p/B clipped to [Q_m, Q_M], with
q_hat where biomass has vanished, so a node whose internal phosphorus runs
out stops growing and its biomass decays to extinction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, gmres

from .core import ModelParams, Transport, _check_fields, _reaction_kernel
from .mesh import TriMesh
from .ode import Trajectory
from .wind import as_wind

__all__ = [
    "Field2D",
    "NewtonError",
    "assemble_fem",
    "newton_be_step",
    "simulate_2d",
]

#: Newton iterations per step before it falls back to two half steps.
_MAX_ITER = 25

#: GMRES of each Newton update: relative tolerance, absolute tolerance as a
#: share of Newton's ``tol * scale``, Krylov basis size per restart, and
#: restart cycles before the update counts as failed.
_GMRES_RTOL = 1e-6
_GMRES_ATOL = 0.1
_GMRES_RESTART = 40
_GMRES_MAXITER = 5


class NewtonError(RuntimeError):
    """Backward-Euler Newton iteration failed to converge."""


@dataclass
class Field2D:
    """Nodal fields on a triangular mesh."""

    B: np.ndarray
    p: np.ndarray
    P: np.ndarray

    def __post_init__(self) -> None:
        self.B = np.asarray(self.B, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.P = np.asarray(self.P, dtype=float)
        if not (self.B.shape == self.p.shape == self.P.shape) or self.B.ndim != 1:
            raise ValueError("B, p, P must be equal-length 1D arrays")

    @classmethod
    def uniform(cls, mesh: TriMesh, B: float, Q: float, P: float) -> "Field2D":
        ones = np.ones(mesh.n_nodes)
        return cls(B * ones, Q * B * ones, P * ones)

    @classmethod
    def bump(
        cls,
        mesh: TriMesh,
        B_base: float = 0.5,
        B_peak: float = 5.0,
        Q0: float = 0.02,
        P0: float = 0.15,
        center=None,
        width: float | None = None,
    ) -> "Field2D":
        """Gaussian biomass bump over a uniform background."""
        xy = mesh.nodes
        center = xy.mean(axis=0) if center is None else np.asarray(center, dtype=float)
        if width is None:
            extent = xy.max(axis=0) - xy.min(axis=0)
            width = 0.2 * float(extent.max())
        r2 = ((xy - center) ** 2).sum(axis=1)
        B = B_base + B_peak * np.exp(-r2 / width**2)
        return cls(B, Q0 * B, np.full(mesh.n_nodes, P0))

    def stack(self) -> np.ndarray:
        """The flat (3 n,) solver state, rows (B, p, P)."""
        return np.concatenate([self.B, self.p, self.P])

    def validate(self, params: ModelParams) -> None:
        """Finite values, positivity everywhere (to 1e-10), and the quota
        tube (to 1e-6) where biomass is alive.

        The tube check masks nodes below :data:`~bloomsim.core.QUOTA_B_FLOOR`:
        underneath it the errors that Newton's stopping test permits in B
        and p could move p/B by more than the tolerance.  The rule is that of
        :meth:`~bloomsim.ode.Trajectory.validate` for one sample.
        """
        _check_fields(self.B, self.p, self.P, params)


def _assemble(mesh: TriMesh) -> tuple[csr_matrix, ...]:
    """The P1 matrices M (consistent mass), K (stiffness) and Cx, Cy
    (advection for unit wind in x and in y) of ``mesh``."""
    n = mesh.n_nodes
    areas = mesh.areas[:, None]
    gx, gy = mesh.grad_x, mesh.grad_y
    # the nine local pairs (i, j) of each element, pair by pair
    i, j = np.divmod(np.arange(9), 3)
    rows, cols = mesh.triangles[:, i].T.ravel(), mesh.triangles[:, j].T.ravel()

    def build(vals):
        return csr_matrix((vals.T.ravel(), (rows, cols)), shape=(n, n))

    M = build(areas / np.where(i == j, 6.0, 12.0))
    K = build(areas * (gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j]))
    # integral phi_i (grad phi_j) over the element: grad is constant,
    # integral of phi_i is area/3
    return M, K, build(areas / 3.0 * gx[:, j]), build(areas / 3.0 * gy[:, j])


def _lake_operators(mesh: TriMesh, params: ModelParams) -> tuple[np.ndarray, Transport]:
    """The lumped mass m (row sums of M) and the :class:`Transport` of K and
    (Cx, Cy), c(v) = (v_x, v_y), cached on the (immutable) mesh for the last
    movement table asked for.  With M_L = diag(m) the implicit diffusion
    operator M_L + dt a K is an M-matrix on a Delaunay mesh, so pure
    diffusion preserves positivity, and nodewise reactions decouple from
    neighbour rates; mass-weighted totals are those of the consistent M.
    """
    table = (params.diffusivities, params.advection_scalars)
    if getattr(mesh, "_lake_operators", (None,))[0] != table:
        M, K, Cx, Cy = _assemble(mesh)
        mesh._lake_operators = (table, np.asarray(M.sum(axis=1)).ravel(),
                                Transport(K, (Cx, Cy), tuple, *table))
    return mesh._lake_operators[1:]


def assemble_fem(mesh: TriMesh, v):
    """Mass, stiffness, and advection matrices for a wind vector ``v``.

    Returns ``(M, K, C)`` with M symmetric positive definite, K symmetric
    positive semidefinite with zero row sums, and C = C(v) linear in the
    wind, assembled on each call.  Row i of the model moves by
    ``d_i K + a_i C``, with the movement table of ``ModelParams``;
    :class:`~bloomsim.core.Transport` applies it.
    """
    M, K, Cx, Cy = _assemble(mesh)
    return M, K, float(v[0]) * Cx + float(v[1]) * Cy


#: Keys of the work counters that each step adds to.
_COUNTERS = ("newton_iterations", "linear_iterations", "half_step_retries")


def newton_be_step(
    y_n: np.ndarray,
    dt: float,
    t_next: float,
    mesh: TriMesh,
    wind,
    params: ModelParams,
    tol: float = 1e-12,
    counters: dict | None = None,
    _depth: int = 0,
) -> np.ndarray:
    """One backward-Euler step of size ``dt`` ending at ``t_next``.

    Takes the flat (3 n,) state ``y_n`` in :meth:`Field2D.stack` order and
    returns the new one; ``counters``, a dict with the keys of
    :data:`_COUNTERS`, gets the step's work added.

    Solves ``M_L (U - U_n) + dt (T U - M_L R(U)) = 0`` by inexact Newton,
    with ``M_L = diag(m)`` for the lumped mass vector ``m`` and
    ``T = blockdiag(d_i K + a_i C(v))``, both from the mesh's cached build
    for the movement table of ``params``.  Each
    iteration evaluates the reaction terms and their exact Jacobian R' once
    and solves ``J delta = -F`` by restarted GMRES (Saad & Schultz 1986;
    Knoll & Keyes, J. Comput. Phys. 193, 2004).
    J is applied matrix-free, ``m x + dt T x`` minus the nodal coupling
    ``dt m R' x``, and preconditioned by the inverse of its nodal 3x3
    blocks ``m I + dt diag(T) - dt m R'``.  ``tol`` is relative to the
    larger scale of ``M_L U_n`` and of ``M_L U`` at the current iterate.  A
    linear solve that fails (GMRES ``info != 0``, or a singular nodal block)
    ends the iteration.  On non-convergence the step is retried as two half
    steps (three levels deep) before raising :class:`NewtonError`, whose
    message gives the final residual and the outcome of the last linear
    solve.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if counters is None:
        counters = dict.fromkeys(_COUNTERS, 0)
    m, transport = _lake_operators(mesh, params)
    T = transport.matrix(as_wind(wind)(t_next))
    n = m.size
    U_old = np.array(y_n, dtype=float).reshape(3, n)

    scale_old = max(1.0, *(float(np.linalg.norm(m * u)) for u in U_old))

    def count(_):
        counters["linear_iterations"] += 1

    # m + dt diag(T) per field: the spatial part of each nodal block
    own = m + dt * T.diagonal().reshape(3, n)

    y = U_old
    solve = "none"
    for it in range(_MAX_ITER + 1):
        react = _reaction_kernel(*y, params, jacobian=True)
        F = m * (y - U_old) + dt * ((T @ y.ravel()).reshape(3, n) - m * react.rates)
        # a step from (near) zero fields must not stop on an absolute 1e-12
        scale = max(scale_old, *(float(np.linalg.norm(m * u)) for u in y))
        res = float(np.linalg.norm(F))
        if res <= tol * scale:
            return y.reshape(-1)
        if it == _MAX_ITER or not np.isfinite(res):
            break
        coupling = dt * m * react.jacobian  # (3, 3, n)
        blocks = -coupling.transpose(2, 0, 1)
        blocks[:, range(3), range(3)] += own.T
        try:
            inverse = np.linalg.inv(blocks)
        except np.linalg.LinAlgError as exc:
            solve = f"nodal block inverse raised LinAlgError ({exc})"
            break

        def apply_J(x):
            X = x.reshape(3, n)
            return (m * X + dt * (T @ x).reshape(3, n) - np.einsum("ijn,jn->in", coupling, X)).ravel()

        def apply_precond(x):
            return np.einsum("nij,jn->in", inverse, x.reshape(3, n)).ravel()

        delta, info = gmres(
            LinearOperator((3 * n, 3 * n), matvec=apply_J, dtype=float),
            -F.ravel(),
            rtol=_GMRES_RTOL,
            atol=_GMRES_ATOL * tol * scale,
            restart=_GMRES_RESTART,
            maxiter=_GMRES_MAXITER,
            M=LinearOperator((3 * n, 3 * n), matvec=apply_precond, dtype=float),
            callback=count,
            callback_type="pr_norm",
        )
        counters["newton_iterations"] += 1
        solve = f"GMRES info={info}"
        if info != 0:
            break
        if not np.all(np.isfinite(delta)):
            solve += " with a non-finite update"
            break
        y = y + delta.reshape(3, n)
    if _depth >= 3:
        raise NewtonError(
            f"Newton did not converge at t={t_next:g} (dt={dt:g}): residual {res:.3g} "
            f"against tol*scale {tol * scale:.3g}; last linear solve: {solve}"
        )
    counters["half_step_retries"] += 1
    # via the module global, so that a wrapper of this function sees them
    half = newton_be_step(y_n, dt / 2, t_next - dt / 2, mesh, wind, params, tol,
                          counters, _depth + 1)
    return newton_be_step(half, dt / 2, t_next, mesh, wind, params, tol, counters, _depth + 1)


def _cell_peclet(h: float, wind_speed: float, params: ModelParams) -> float:
    """Largest cell Peclet number h |a| / (2 D) over the rows of the
    movement table (B and p share one entry).

    A field at rest counts 0 even without diffusion; a field advected but
    not diffused counts as infinitely advection-dominated.
    """
    worst = 0.0
    for scalar, diffusivity in zip(params.advection_scalars, params.diffusivities):
        speed = scalar * wind_speed
        if speed > 0.0:
            peclet = h * speed / (2.0 * diffusivity) if diffusivity > 0.0 else math.inf
            worst = max(worst, peclet)
    return worst


def simulate_2d(
    initial: Field2D,
    mesh: TriMesh,
    wind,
    params: ModelParams,
    dt: float,
    t_end: float,
    output_times,
) -> Trajectory:
    """March the lake model to ``t_end``, storing the requested snapshots.

    Returns them as one (3, n_nodes, n_snapshots) :class:`Trajectory` whose
    counters sum the Newton work of all steps, half-step retries included:
    Newton iterations (one GMRES solve each), GMRES inner iterations, and
    steps that fell back to two half steps.  It is validated before it is
    returned.

    The wind is re-evaluated at the end time of every step.  Steps of size
    ``dt`` are shortened where needed to land exactly on each output time.
    Emits a one-time warning when the cell Peclet number of the B or the P
    field exceeds one (pure Galerkin advection can then oscillate).
    A ValueError names an initial field that does not match the mesh, a
    non-positive ``dt``, a negative or NaN ``t_end``, and ``output_times``
    that are empty or leave [0, t_end].
    """
    if initial.B.size != mesh.n_nodes:
        raise ValueError("initial field does not match the mesh")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not t_end >= 0.0:
        raise ValueError(f"t_end must be nonnegative, got {t_end!r}")
    output_times = np.unique(np.asarray(output_times, dtype=float))  # sorted, NaN last
    if not (output_times.size and 0.0 <= output_times[0] and output_times[-1] <= t_end):
        raise ValueError("output_times must lie in [0, t_end]")

    wind_fn = as_wind(wind)
    h_mesh = mesh.max_edge_length()
    peclet_warned = False
    counters = dict.fromkeys(_COUNTERS, 0)

    y = initial.stack()
    snapshots: list[np.ndarray] = []
    taken: list[float] = []
    if output_times[0] == 0.0:
        snapshots.append(y)
        taken.append(0.0)

    t = 0.0
    for target in output_times[output_times > 0.0]:
        while t < target - 1e-12:
            step = min(dt, target - t)
            t_next = t + step
            if not peclet_warned:
                peclet = _cell_peclet(h_mesh, float(np.hypot(*wind_fn(t_next))), params)
                if peclet > 1.0:
                    warnings.warn(
                        f"cell Peclet number {peclet:.2g} > 1: un-stabilized "
                        "Galerkin advection may oscillate",
                        RuntimeWarning,
                    )
                    peclet_warned = True
            y = newton_be_step(y, step, t_next, mesh, wind_fn, params, counters=counters)
            t = t_next
        snapshots.append(y)
        taken.append(t)

    result = Trajectory(np.array(taken), np.stack(snapshots, axis=-1).reshape(3, mesh.n_nodes, -1),
                        params, counters)
    result.validate()
    return result
