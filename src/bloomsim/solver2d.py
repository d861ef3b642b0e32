"""P1 finite-element solver with backward-Euler/Newton stepping.

The three fields (B, p, P) live on the nodes of a triangular lake mesh with
zero-flux boundaries.  Spatial operators are the standard P1 matrices: the
mass matrix M (consistent form exposed by :func:`assemble_fem`; its row
sums, a node vector, are the lumped mass of the time stepping), the
stiffness matrix K (scaled by the diffusivity of each field), and an
advection matrix C(v) = integral (v . grad phi_j) phi_i, linear in the wind
vector and shared by all fields up to the dimensionless advection scalars.
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
converge is retried as two half steps before giving up.
The growth quota is the reaction kernel's: p/B clipped to [Q_m, Q_M], with
q_hat where biomass has vanished, so a node whose internal phosphorus runs
out stops growing and its biomass decays to extinction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, gmres

from .core import ModelParams, _quota, _reaction_kernel
from .mesh import TriMesh
from .ode import _validate_samples
from .wind import as_wind

__all__ = [
    "Field2D",
    "FemOperators",
    "NewtonError",
    "assemble_fem",
    "newton_be_step",
    "simulate_2d",
]

#: Tube checks apply only above this biomass.  Newton's stopping test is
#: relative to the scale of the whole field, so it permits nodal errors in B
#: and p of ~1e-10 on the bundled lake; below this floor those could move
#: p/B by more than the tube's 1e-6 tolerance.
QUOTA_B_FLOOR = 1e-6


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
class _NewtonStats:
    """Work counters that :func:`simulate_2d` passes down to each step."""

    newton_iterations: int = 0
    linear_iterations: int = 0
    half_step_retries: int = 0


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
        return np.concatenate([self.B, self.p, self.P])

    def quota(self, params: ModelParams) -> np.ndarray:
        """Pointwise p/B, with q_hat where biomass has numerically vanished."""
        return _quota(self.B, self.p, params)

    def validate(self, params: ModelParams) -> None:
        """Positivity everywhere (to 1e-10); the quota tube (to 1e-6) where
        biomass is alive.

        The tube check masks nodes below :data:`QUOTA_B_FLOOR`: underneath
        it the errors that Newton's stopping test permits in B and p could
        move p/B by more than the tolerance.
        """
        if min(self.B.min(), self.p.min(), self.P.min()) < -1e-10:
            raise ValueError("negative nodal value beyond tolerance")
        mask = self.B > QUOTA_B_FLOOR
        if mask.any():
            q = self.p[mask] / self.B[mask]
            if q.min() < params.Q_m - 1e-6 or q.max() > params.Q_M + 1e-6:
                raise ValueError("cell quota left the [Q_m, Q_M] tube")


@dataclass
class FemOperators:
    """Assembled P1 matrices for one mesh, and the lumped mass vector.

    Time stepping uses ``m_lumped``, the row sums of M, as the diagonal
    mass M_L = diag(m_lumped): on a Delaunay mesh the implicit diffusion
    operator M_L + dt a K is then an M-matrix, so pure diffusion preserves
    positivity, and nodewise reactions decouple from neighbour rates.  Row
    sums match the consistent matrix, so all mass-weighted totals coincide
    between the two.
    """

    M: csr_matrix       # consistent mass
    K: csr_matrix       # stiffness (unscaled Laplacian)
    Cx: csr_matrix      # advection in x for unit wind
    Cy: csr_matrix      # advection in y
    m_lumped: np.ndarray  # row sums of M, one per node

    def advection(self, v) -> csr_matrix:
        """C(v) = vx Cx + vy Cy, linear in the wind vector."""
        return float(v[0]) * self.Cx + float(v[1]) * self.Cy


def _assemble_operators(mesh: TriMesh) -> FemOperators:
    n = mesh.n_nodes
    tris = mesh.triangles
    areas = mesh.areas
    gx, gy = mesh.grad_x, mesh.grad_y

    rows, cols = [], []
    m_vals, k_vals, cx_vals, cy_vals = [], [], [], []
    for i_loc in range(3):
        for j_loc in range(3):
            rows.append(tris[:, i_loc])
            cols.append(tris[:, j_loc])
            mass = areas / (6.0 if i_loc == j_loc else 12.0)
            m_vals.append(mass)
            k_vals.append(areas * (gx[:, i_loc] * gx[:, j_loc] + gy[:, i_loc] * gy[:, j_loc]))
            # integral phi_i (grad phi_j) over the element: grad is constant,
            # integral of phi_i is area/3
            cx_vals.append(areas / 3.0 * gx[:, j_loc])
            cy_vals.append(areas / 3.0 * gy[:, j_loc])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)

    def build(vals):
        return csr_matrix((np.concatenate(vals), (rows, cols)), shape=(n, n))

    M = build(m_vals)
    return FemOperators(M, build(k_vals), build(cx_vals), build(cy_vals),
                        np.asarray(M.sum(axis=1)).ravel())


def _operators_for(mesh: TriMesh) -> FemOperators:
    # cached on the mesh itself; meshes are immutable once built
    ops = getattr(mesh, "_fem_operators", None)
    if ops is None:
        ops = _assemble_operators(mesh)
        mesh._fem_operators = ops
    return ops


def assemble_fem(mesh: TriMesh, v, params: ModelParams):
    """Mass, stiffness, and advection matrices for a wind vector ``v``.

    Returns ``(M, K, C)`` with M symmetric positive definite, K symmetric
    positive semidefinite with zero row sums, and C = C(v) linear in the
    wind.  The model equations use alpha K, beta K and beta_B C, beta_P C;
    the dimensionless advection scalars are applied by the caller.
    """
    ops = _operators_for(mesh)
    return ops.M, ops.K, ops.advection(v)


def _step_matrices(ops: FemOperators, v, params: ModelParams):
    C = ops.advection(v)
    L_B = params.alpha * ops.K + params.beta_B * C
    L_P = params.beta * ops.K + params.beta_P * C
    return L_B, L_P


def newton_be_step(
    U_n: Field2D,
    dt: float,
    t_next: float,
    mesh: TriMesh,
    wind,
    params: ModelParams,
    tol: float = 1e-12,
    _depth: int = 0,
    _stats: _NewtonStats | None = None,
) -> Field2D:
    """One backward-Euler step of size ``dt`` ending at ``t_next``.

    Solves ``M_L (U - U_n) + dt (L U - M_L R(U)) = 0`` by inexact Newton,
    with ``M_L = diag(m)`` for the lumped mass vector ``m`` of
    :class:`FemOperators`.  Each iteration evaluates the reaction terms and
    their exact Jacobian R' once and solves ``J delta = -F`` by restarted
    GMRES (Saad & Schultz 1986; Knoll & Keyes, J. Comput. Phys. 193, 2004).
    J is applied matrix-free, ``m x + dt L x`` per field minus the nodal
    coupling ``dt m R' x``, and preconditioned by the inverse of its nodal
    3x3 blocks ``m I + dt diag(L) - dt m R'``.  ``tol`` is relative to the
    scale of ``M_L U_n``.  A linear solve that fails (GMRES ``info != 0``,
    or a singular nodal block) ends the iteration.  On non-convergence the
    step is retried as two half steps (three levels deep) before raising
    :class:`NewtonError`, whose message gives the final residual and the
    outcome of the last linear solve.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if _stats is None:
        _stats = _NewtonStats()
    ops = _operators_for(mesh)
    v = as_wind(wind)(t_next)
    L_B, L_P = _step_matrices(ops, v, params)
    m = ops.m_lumped
    n = m.size
    U_old = np.stack([U_n.B, U_n.p, U_n.P])

    scale = max(1.0, *(float(np.linalg.norm(m * u)) for u in U_old))

    def spatial(X):
        return np.stack([L_B @ X[0], L_B @ X[1], L_P @ X[2]])

    def count(_):
        _stats.linear_iterations += 1

    # m + dt diag(L) per field: the spatial part of each nodal block
    own = m + dt * np.stack([L_B.diagonal(), L_B.diagonal(), L_P.diagonal()])

    y = U_old
    solve = "none"
    for it in range(_MAX_ITER + 1):
        react = _reaction_kernel(*y, params, jacobian=True)
        F = m * (y - U_old) + dt * (spatial(y) - m * react.rates)
        res = float(np.linalg.norm(F))
        if res <= tol * scale:
            return Field2D(*y)
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
            return (m * X + dt * spatial(X) - np.einsum("ijn,jn->in", coupling, X)).ravel()

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
        _stats.newton_iterations += 1
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
    _stats.half_step_retries += 1
    half = newton_be_step(
        U_n, dt / 2, t_next - dt / 2, mesh, wind, params, tol, _depth + 1, _stats
    )
    return newton_be_step(half, dt / 2, t_next, mesh, wind, params, tol, _depth + 1, _stats)


def _cell_peclet(h: float, wind_speed: float, params: ModelParams) -> float:
    """Largest cell Peclet number h |a| / (2 D) over the B and P fields.

    A field at rest counts 0 even without diffusion; a field advected but
    not diffused counts as infinitely advection-dominated.
    """
    worst = 0.0
    for scalar, diffusivity in ((params.beta_B, params.alpha), (params.beta_P, params.beta)):
        speed = scalar * wind_speed
        if speed > 0.0:
            peclet = h * speed / (2.0 * diffusivity) if diffusivity > 0.0 else math.inf
            worst = max(worst, peclet)
    return worst


@dataclass(frozen=True)
class Snapshots2D:
    """Fields captured at the requested output times.

    The counters sum the Newton work of all steps, half-step retries
    included: Newton iterations (one GMRES solve each), GMRES inner
    iterations, and steps that fell back to two half steps.
    """

    times: np.ndarray
    fields: list
    mesh: TriMesh
    params: ModelParams
    newton_iterations: int = 0
    linear_iterations: int = 0
    half_step_retries: int = 0

    def validate(self) -> None:
        """:meth:`Field2D.validate` at every sample; the first failure is
        raised as an :class:`~bloomsim.ode.IntegrationError` with that
        sample's time and flat state."""
        _validate_samples(self.times, self.fields, self.params)


def simulate_2d(
    initial: Field2D,
    mesh: TriMesh,
    wind,
    params: ModelParams,
    dt: float,
    t_end: float,
    output_times,
    validate: bool = True,
) -> Snapshots2D:
    """March the lake model to ``t_end``, storing the requested snapshots.

    The wind is re-evaluated at the end time of every step.  Steps of size
    ``dt`` are shortened where needed to land exactly on each output time.
    Emits a one-time warning when the cell Peclet number of the B or the P
    field exceeds one (pure Galerkin advection can then oscillate).
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    output_times = np.asarray(sorted(set(float(t) for t in output_times)), dtype=float)
    if output_times.size == 0 or output_times[0] < 0 or output_times[-1] > t_end:
        raise ValueError("output times must lie in [0, t_end]")

    wind_fn = as_wind(wind)
    h_mesh = mesh.max_edge_length()
    peclet_warned = False
    stats = _NewtonStats()

    snapshots: list[Field2D] = []
    taken: list[float] = []
    if output_times[0] == 0.0:
        snapshots.append(Field2D(initial.B.copy(), initial.p.copy(), initial.P.copy()))
        taken.append(0.0)

    t = 0.0
    U = initial
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
            U = newton_be_step(U, step, t_next, mesh, wind_fn, params, _stats=stats)
            t = t_next
        snapshots.append(U)
        taken.append(t)

    result = Snapshots2D(np.array(taken), snapshots, mesh, params, **asdict(stats))
    if validate:
        result.validate()
    return result
