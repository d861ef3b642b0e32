"""Mode-resolved linear stability of homogeneous states.

A spatial perturbation of wavenumber ``n`` around a homogeneous equilibrium
turns the linearized PDE into a 3x3 complex eigenvalue problem

    J(n) = A - n^2 diag(alpha, alpha, beta) - i n v diag(beta_B, beta_B, beta_P),

where ``A`` is the reaction Jacobian (the n = 0 matrix) and ``v`` the scalar
wind projected on the mode direction.  This module assembles J(n), computes
its exact spectrum, forms the first-order perturbation approximation of the
spectrum, and sweeps modes to produce a stability verdict plus plot-ready
tables.

First-order correction
----------------------
Writing J = A + Delta, the first-order eigenvalue correction implemented here
is the diagonal of ``V^-1 Delta V`` with V the (right) eigenvector matrix of
A, i.e. the adjoint-weighted product ``(w_i* Delta v_i)/(w_i* v_i)`` with
left eigenvectors w_i.  Its error is O(||Delta||^2) for simple eigenvalues.
For a normal matrix this reduces to ``sum_k d_k |v_ik|^2``, the familiar
squared-component weighting; the reaction Jacobian here is not normal, and
using the squared components directly would leave a first-order error term.
Since Delta is diagonal with entries d1 = d2 = -n^2 alpha - i n beta_B v and
d3 = -n^2 beta - i n beta_P v, the correction keeps the structure

    Re(mu_i) = Re(lambda_i) - n^2 (alpha c_i1 + alpha c_i2 + beta c_i3),
    Im(mu_i) = Im(lambda_i) - n v (beta_B c_i1 + beta_B c_i2 + beta_P c_i3),

with adjoint component weights c_ik summing to one (real at the model's
equilibria, where the spectrum of A is real).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._textio import export_csv
from .core import HomState, ModelParams, reaction_jacobian, reaction_rhs

__all__ = [
    "ModeSpectrum",
    "assemble_jacobian",
    "eigen_3x3",
    "perturbed_spectrum",
    "mode_sweep",
    "write_spectrum_csv",
]

#: Residual threshold (relative to the state scale) for accepting a state as
#: an equilibrium before linearizing around it.
EQUILIBRIUM_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class ModeSpectrum:
    """Exact and first-order-approximate spectrum at one mode number."""

    n: int
    exact_eigenvalues: np.ndarray     # (3,) complex, descending real part
    approx_eigenvalues: np.ndarray    # (3,) complex, same branch order
    eigenvectors: np.ndarray          # (3, 3) complex, unit columns (of J(n))
    defective_warning: bool = False

    @property
    def leading_real(self) -> float:
        return float(self.exact_eigenvalues[0].real)


def _sort_key(values: np.ndarray) -> np.ndarray:
    # descending real part, ties broken by descending imaginary part
    return np.lexsort((-values.imag, -values.real))


def _delta_diag(n: int, v: float, params: ModelParams) -> np.ndarray:
    d12 = -(n**2) * params.alpha - 1j * n * params.beta_B * v
    d3 = -(n**2) * params.beta - 1j * n * params.beta_P * v
    return np.array([d12, d12, d3])


def assemble_jacobian(
    eq: HomState,
    n: int,
    v: float,
    params: ModelParams,
) -> np.ndarray:
    """Jacobian J(n) of the mode-n linearization around an equilibrium.

    The reaction block is :func:`reaction_jacobian` (at the extinction
    state its growth entry is (l + D/z_m)(R0 - 1)); the movement terms
    ``-n^2 diag(alpha, alpha, beta) - i n v diag(beta_B, beta_B, beta_P)``
    are folded into the diagonal.

    Raises
    ------
    ValueError
        If ``eq`` is not an equilibrium within
        :data:`EQUILIBRIUM_RESIDUAL_TOL` (relative to the state scale), or n
        is negative.
    """
    if n < 0:
        raise ValueError("mode number n must be >= 0")
    residual = np.linalg.norm(reaction_rhs(eq, params))
    scale = max(1.0, float(np.linalg.norm(eq.as_array(), np.inf)))
    if residual > EQUILIBRIUM_RESIDUAL_TOL * scale:
        raise ValueError(
            f"state is not an equilibrium: |rhs| = {residual:.3e} "
            f"> {EQUILIBRIUM_RESIDUAL_TOL:.1e} * {scale:g}"
        )
    A = reaction_jacobian(eq.B, eq.p, eq.P, params)
    return A.astype(complex) + np.diag(_delta_diag(n, v, params))


def eigen_3x3(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Eigenpairs of a 3x3 complex matrix, sorted by descending real part.

    Returns (eigenvalues, eigenvectors, defective_warning).  Eigenvectors are
    unit-norm columns; each pair is verified to satisfy ``|J v - mu v| <
    1e-10 |J|``.  An ill-conditioned eigenvector matrix (condition number
    above 1e8) sets the warning flag instead of raising: the matrix is then
    nearly defective, and the first-order perturbation formula, which
    solves with that matrix, may be inaccurate.  A repeated eigenvalue with
    independent eigenvectors does not set it.
    """
    J = np.asarray(matrix, dtype=complex)
    if J.shape != (3, 3) or not np.all(np.isfinite(J.view(float))):
        raise ValueError("expected a finite 3x3 matrix")
    values, vectors = np.linalg.eig(J)
    order = _sort_key(values)
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)

    norm_J = np.linalg.norm(J)
    for i in range(3):
        res = np.linalg.norm(J @ vectors[:, i] - values[i] * vectors[:, i])
        if res > 1e-10 * max(norm_J, 1e-300):
            raise ValueError(f"eigenpair residual {res:.3e} exceeds tolerance")

    defective = bool(np.linalg.cond(vectors) > 1e8)
    if defective:
        warnings.warn(
            "near-defective matrix: first-order perturbation may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    return values, vectors, defective


def _mode_spectrum(
    A: np.ndarray,
    lam: np.ndarray,
    V: np.ndarray,
    defective_A: bool,
    n: int,
    v: float,
    params: ModelParams,
) -> ModeSpectrum:
    # the mode-n spectra from J(0) = A and its eigenpairs (lam, V), which a
    # sweep computes once for all its modes
    delta = _delta_diag(n, v, params)
    # diag(V^-1 Delta V): proper first-order correction for simple eigenvalues
    correction = np.diag(np.linalg.solve(V, delta[:, None] * V))
    approx = lam + correction

    exact, vectors, defective_J = eigen_3x3(A + np.diag(delta))

    # keep branch pairing: both lists are real-part sorted at n = 0 and the
    # approximation inherits A's order, so re-sort it with the same key
    order = _sort_key(approx)
    approx = approx[order]
    return ModeSpectrum(
        n=n,
        exact_eigenvalues=exact,
        approx_eigenvalues=approx,
        eigenvectors=vectors,
        defective_warning=defective_A or defective_J,
    )


def perturbed_spectrum(
    eq: HomState, n: int, v: float, params: ModelParams
) -> ModeSpectrum:
    """Exact and first-order spectra of the mode-n linearization.

    The exact eigenvalues come from the full J(n); the approximation adds to
    each eigenvalue of A the matching diagonal entry of ``V^-1 Delta V`` (see
    the module docstring).  At n = 0 the two coincide since Delta vanishes.
    """
    if n < 0:
        raise ValueError("mode number n must be >= 0")
    A = assemble_jacobian(eq, 0, v, params)
    return _mode_spectrum(A, *eigen_3x3(A), n, v, params)


def mode_sweep(
    eq: HomState,
    n_max: int,
    v: float,
    params: ModelParams,
) -> tuple[list[ModeSpectrum], str]:
    """Spectra for modes n = 0 .. n_max and an overall stability verdict.

    The verdict is ``"stable"`` exactly when every exact eigenvalue over the
    swept modes has negative real part.  The equilibrium check and the
    eigenpairs of A are computed once and shared by all modes.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    A = assemble_jacobian(eq, 0, v, params)
    base = eigen_3x3(A)
    spectra = [_mode_spectrum(A, *base, n, v, params) for n in range(n_max + 1)]
    worst = max(s.leading_real for s in spectra)
    return spectra, ("stable" if worst < 0.0 else "unstable")


def write_spectrum_csv(spectra: list[ModeSpectrum], path) -> None:
    """Plot-ready table: one row per (mode, eigenvalue index)."""
    rows = ([s.n, i, ex.real, ex.imag, ap.real, ap.imag]
            for s in spectra
            for i, (ex, ap) in enumerate(zip(s.exact_eigenvalues, s.approx_eigenvalues)))
    export_csv(rows, ["n", "i", "Re_exact", "Im_exact", "Re_approx", "Im_approx"], path)
