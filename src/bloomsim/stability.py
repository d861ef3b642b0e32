"""Mode-resolved linear stability of homogeneous states.

A spatial perturbation of wavenumber ``n`` around a homogeneous equilibrium
turns the linearized PDE into a 3x3 complex eigenvalue problem

    J(n) = A - n^2 diag(alpha, alpha, beta) - i n v diag(beta_B, beta_B, beta_P),

where ``A`` is the reaction Jacobian (the n = 0 matrix) and ``v`` the scalar
wind projected on the mode direction.  This module assembles J(n), computes
its exact spectrum, forms the first-order perturbation approximation of the
spectrum, and sweeps modes to produce a stability verdict plus plot-ready
tables.

Every mode comes from one (modes, 3, 3) stack, which :func:`assemble_jacobian`
builds after one equilibrium check and :func:`eigen_3x3` decomposes in one
call: a sweep calls ``eig`` once for A and once for J(modes), and forms every
first-order correction in one batched solve.

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


def _descending(values: np.ndarray) -> np.ndarray:
    # per-row order: descending real part, ties by descending imaginary part
    return np.lexsort((-values.imag, -values.real), axis=-1)


def _delta(n, v: float, params: ModelParams) -> np.ndarray:
    # the movement terms of the (B, p, P) rows at modes n, shape (..., 3);
    # float modes square like Python ints, where int64 would wrap past 3e9,
    # and 0.0 - n^2 keeps mode 0 at +0.0, as the integer -(0^2) gave it
    n = np.asarray(n, dtype=float)[..., None]
    return ((0.0 - n**2) * np.array(params.diffusivities)
            - 1j * n * np.array(params.advection_scalars) * v)


def assemble_jacobian(
    eq: HomState,
    n: int | np.ndarray,
    v: float,
    params: ModelParams,
) -> np.ndarray:
    """Jacobian J(n) of the mode-n linearization around an equilibrium.

    The reaction block is :func:`reaction_jacobian` (at the extinction
    state its growth entry is (l + D/z_m)(R0 - 1)); the movement terms
    ``-n^2 diag(alpha, alpha, beta) - i n v diag(beta_B, beta_B, beta_P)``
    are folded into the diagonal.  An array of modes gives the stack of
    their Jacobians, shape ``(*n.shape, 3, 3)``; the equilibrium is checked
    once.

    Raises
    ------
    ValueError
        If ``eq`` is not an equilibrium within
        :data:`EQUILIBRIUM_RESIDUAL_TOL` (relative to the state scale), or a
        mode number is negative.
    """
    if np.any(np.asarray(n) < 0):
        raise ValueError("mode number n must be >= 0")
    residual = np.linalg.norm(reaction_rhs(eq, params))
    scale = max(1.0, float(np.linalg.norm(eq.as_array(), np.inf)))
    if residual > EQUILIBRIUM_RESIDUAL_TOL * scale:
        raise ValueError(
            f"state is not an equilibrium: |rhs| = {residual:.3e} "
            f"> {EQUILIBRIUM_RESIDUAL_TOL:.1e} * {scale:g}"
        )
    delta = _delta(n, v, params)
    J = np.zeros((*delta.shape, 3), dtype=complex)
    J[..., range(3), range(3)] = delta
    return J + reaction_jacobian(eq.B, eq.p, eq.P, params)


def eigen_3x3(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool | np.ndarray]:
    """Eigenpairs of a 3x3 complex matrix, sorted by descending real part.

    Returns (eigenvalues, eigenvectors, defective_warning).  Eigenvectors are
    unit-norm columns; each pair is verified to satisfy ``|J v - mu v| <
    1e-10 |J|``.  An ill-conditioned eigenvector matrix (condition number
    above 1e8) sets the warning flag instead of raising: the matrix is then
    nearly defective, and the first-order perturbation formula, which
    solves with that matrix, may be inaccurate.  A repeated eigenvalue with
    independent eigenvectors does not set it.

    A stack of shape ``(..., 3, 3)`` gives stacked eigenpairs and one flag
    per matrix (a plain ``bool`` for a single matrix); a call warns at most
    once, whatever the number of flagged matrices.
    """
    J = np.asarray(matrix, dtype=complex)
    if J.shape[-2:] != (3, 3) or not np.all(np.isfinite(J)):
        raise ValueError("expected a finite 3x3 matrix or a stack of them")
    values, vectors = np.linalg.eig(J)
    order = _descending(values)
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    vectors = vectors / np.linalg.norm(vectors, axis=-2, keepdims=True)

    residual = np.linalg.norm(J @ vectors - values[..., None, :] * vectors, axis=-2)
    bound = 1e-10 * np.maximum(np.linalg.norm(J, axis=(-2, -1)), 1e-300)
    if np.any(residual > bound[..., None]):
        raise ValueError(f"eigenpair residual {residual.max():.3e} exceeds tolerance")

    defective = np.linalg.cond(vectors) > 1e8
    if np.any(defective):
        warnings.warn(
            "near-defective matrix: first-order perturbation may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    return values, vectors, defective if defective.ndim else bool(defective)


def _spectra(eq: HomState, modes: np.ndarray, v: float, params: ModelParams) -> list[ModeSpectrum]:
    # J(0) = A and J(modes) from one assembly; the eigenpairs (lam, V) of A
    # give every mode's first-order correction diag(V^-1 Delta V) at once
    J = assemble_jacobian(eq, np.concatenate(([0], modes)), v, params)
    lam, V, defective_A = eigen_3x3(J[0])
    exact, vectors, defective_J = eigen_3x3(J[1:])
    delta = _delta(modes, v, params)
    approx = lam + np.diagonal(np.linalg.solve(V, delta[..., None] * V), axis1=-2, axis2=-1)
    # keep branch pairing: both lists are real-part sorted at n = 0 and the
    # approximation inherits A's order, so re-sort it with the same key
    approx = np.take_along_axis(approx, _descending(approx), axis=-1)
    return [ModeSpectrum(n, *fields, defective_A or bool(flag))
            for n, *fields, flag in zip(modes.tolist(), exact, approx, vectors, defective_J)]


def perturbed_spectrum(
    eq: HomState, n: int, v: float, params: ModelParams
) -> ModeSpectrum:
    """Exact and first-order spectra of the mode-n linearization.

    The exact eigenvalues come from the full J(n); the approximation adds to
    each eigenvalue of A the matching diagonal entry of ``V^-1 Delta V`` (see
    the module docstring).  At n = 0 the two coincide since Delta vanishes.
    """
    return _spectra(eq, np.array([n]), v, params)[0]


def mode_sweep(
    eq: HomState,
    n_max: int,
    v: float,
    params: ModelParams,
) -> tuple[list[ModeSpectrum], str]:
    """Spectra for modes n = 0 .. n_max and an overall stability verdict.

    The verdict is ``"stable"`` exactly when every exact eigenvalue over the
    swept modes has negative real part.  All modes come from one stack: one
    equilibrium check, one eigendecomposition of A and one of J(0 .. n_max).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    spectra = _spectra(eq, np.arange(n_max + 1), v, params)
    worst = max(s.leading_real for s in spectra)
    return spectra, ("stable" if worst < 0.0 else "unstable")


def write_spectrum_csv(spectra: list[ModeSpectrum], path) -> None:
    """Plot-ready table: one row per (mode, eigenvalue index)."""
    rows = ([s.n, i, ex.real, ex.imag, ap.real, ap.imag]
            for s in spectra
            for i, (ex, ap) in enumerate(zip(s.exact_eigenvalues, s.approx_eigenvalues)))
    export_csv(rows, ["n", "i", "Re_exact", "Im_exact", "Re_approx", "Im_approx"], path)
