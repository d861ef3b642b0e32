"""Model parameters and closed-form reaction kernels.

Everything downstream (ODE integration, linear stability, the 1D and 2D
solvers, the sensitivity pipeline) calls into this module for the biology:
light attenuation through the water column, light-limited growth, quota-based
phosphorus uptake, the extinction-state quota ``q_hat``, the persistence
threshold ``r0``, and the pointwise reaction rates of the three-component
state (biomass B, internal phosphorus p, dissolved phosphorus P).

All functions here are pure and accept scalars or NumPy arrays where that is
meaningful, so they can be cross-checked against independent oracles and
called from any number of concurrent workers.

The reaction terms have one implementation, the private array kernel
``_reaction_kernel``: the scalar :func:`reaction_rhs` and
:func:`reaction_jacobian`, the 1D right-hand side and the 2D Newton step all
call it.  It takes one :class:`ModelParams`, or the :class:`ParamColumns`
of K of them, which evaluates K transect states in one call.  The kernel
also owns the growth quota, the one convention of every solver: the cell
quota p/B, or q_hat where B <= EPS_B, clipped to the tube [Q_m, Q_M].  A
cell without internal phosphorus therefore stops growing and only decays,
as in the paper's extinction regime.

Nonlinear coefficients are evaluated at states clipped to >= 0 and the linear
loss and exchange terms at the raw states.  Domain checks stay in the public
kernels (:func:`growth_h`, :func:`uptake_rho`, ...); the array kernel does not
repeat them.

The quota fallback :attr:`ModelParams.q_hat`, read by the solvers on every
call, is computed once per :class:`ModelParams` and cached on it.  Movement
has one implementation, :class:`Transport`, in the form m y' = -T(v) y +
m R(y) that the transect and the lake share (Hundsdorfer & Verwer,
*Numerical Solution of Time-Dependent Advection-Diffusion-Reaction
Equations*, Springer 2003, ch. I and III).

Units follow the parameter table in :class:`ModelParams`: biomass in mgC/m2,
phosphorus pools in mgP/m2, time in days, lengths in metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

__all__ = [
    "EPS_B",
    "DomainError",
    "ModelParams",
    "HomState",
    "default_params",
    "light_intensity",
    "growth_h",
    "growth_h_prime",
    "uptake_rho",
    "uptake_eta",
    "q_hat",
    "r0",
    "b_bar",
    "reaction_rhs",
    "reaction_jacobian",
]

# Biomass threshold below which the cell quota p/B is replaced by the
# extinction-state quota q_hat (the ratio is otherwise 0/0 at extinction).
EPS_B = 1e-12


class DomainError(ValueError):
    """An argument lies outside the physical domain of a kernel."""


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the lake model.

    Attributes
    ----------
    alpha : float
        Diffusivity of biomass and internal phosphorus (m2/day).
    beta : float
        Diffusivity of dissolved phosphorus (m2/day).
    beta_B, beta_P : float
        Dimensionless advection scalars for biomass and dissolved phosphorus.
    r : float
        Maximum production rate (1/day).
    Q_m, Q_M : float
        Cell quota at which growth and uptake cease respectively (mgP/mgC),
        with ``Q_m < Q_M``.
    z_m : float
        Epilimnion depth (m).
    k : float
        Specific light attenuation of biomass (m2/mgC).
    K_bg : float
        Background light attenuation (1/m).
    H : float
        Light half-saturation (umol/(m2 day)).
    I_in : float
        Surface light intensity (umol/(m2 day)).
    l : float
        Loss rate (1/day).
    D : float
        Epilimnion/hypolimnion exchange rate (m/day).
    rho_m : float
        Maximum phosphorus uptake rate (mgP/mgC/day).
    P_h : float
        Hypolimnion dissolved phosphorus (mgP/m2), may be zero.
    M : float
        Uptake half-saturation (mgP/m2).
    P_in : float
        Optional external phosphorus source (mgP/m2/day), defaults to zero.
    """

    alpha: float
    beta: float
    beta_B: float
    beta_P: float
    r: float
    Q_m: float
    Q_M: float
    z_m: float
    k: float
    K_bg: float
    H: float
    I_in: float
    l: float
    D: float
    rho_m: float
    P_h: float
    M: float
    P_in: float = 0.0

    def __post_init__(self) -> None:
        positive = [
            "r", "Q_m", "Q_M", "z_m", "k", "K_bg", "H", "I_in", "l",
            "rho_m", "M",
        ]
        # movement and exchange coefficients may be exactly zero, which the
        # conservation checks (closed phosphorus budget) rely on
        nonnegative = ["alpha", "beta", "beta_B", "beta_P", "D", "P_h", "P_in"]
        for name in positive:
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise DomainError(f"parameter {name} must be positive, got {value!r}")
        for name in nonnegative:
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise DomainError(f"parameter {name} must be nonnegative, got {value!r}")
        if not self.Q_m < self.Q_M:
            raise DomainError(f"Q_m must be < Q_M, got {self.Q_m} >= {self.Q_M}")

    def replace(self, **overrides) -> "ModelParams":
        """A copy with the given fields replaced (validated again)."""
        return replace(self, **overrides)

    @property
    def exchange(self) -> float:
        """Specific vertical exchange rate D/z_m (1/day)."""
        return self.D / self.z_m

    @property
    def total_loss(self) -> float:
        """Combined specific loss l + D/z_m (1/day)."""
        return self.l + self.D / self.z_m

    @property
    def diffusivities(self) -> tuple[float, float, float]:
        """Diffusivity of the rows (B, p, P): p moves with the cells."""
        return (self.alpha, self.alpha, self.beta)

    @property
    def advection_scalars(self) -> tuple[float, float, float]:
        """Advection scalar of the rows (B, p, P): p moves with the cells."""
        return (self.beta_B, self.beta_B, self.beta_P)

    # cached in the instance's __dict__, which the frozen dataclass's
    # equality, hash and replace() do not read
    @cached_property
    def q_hat(self) -> float:
        """:func:`q_hat` of these parameters, computed once."""
        return q_hat(self)


#: Baseline constants used throughout the bundled scenarios; r and P_h vary
#: by scenario and must be chosen explicitly.
_BASE_CONSTANTS = dict(
    alpha=0.01,
    beta=0.02,
    beta_B=0.05,
    beta_P=0.075,
    z_m=5.0,
    Q_m=0.004,
    Q_M=0.04,
    K_bg=0.3,
    k=0.0004,
    I_in=300.0,
    H=120.0,
    l=0.35,
    D=0.02,
    rho_m=1.0,
    M=1.5,
)


def default_params(r: float = 1.0, P_h: float = 0.2, **overrides) -> ModelParams:
    """Baseline parameter set with a chosen production rate and P_h."""
    merged = dict(_BASE_CONSTANTS, r=r, P_h=P_h)
    merged.update(overrides)
    return ModelParams(**merged)


@dataclass(frozen=True)
class HomState:
    """A spatially homogeneous state (B, p, P), all nonnegative."""

    B: float
    p: float
    P: float

    def __post_init__(self) -> None:
        for name in ("B", "p", "P"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"state component {name} must be >= 0, got {value!r}")

    def quota(self, params: ModelParams) -> float:
        """Cell quota p/B, or q_hat(params) when B is (numerically) zero."""
        return _quota(self.B, self.p, params)

    def check_quota(self, params: ModelParams) -> None:
        """Raise unless Q_m <= p/B <= Q_M (within 1e-9) whenever B > 0."""
        if self.B > EPS_B:
            q = self.p / self.B
            if not (params.Q_m - 1e-9 <= q <= params.Q_M + 1e-9):
                raise DomainError(f"cell quota {q} outside [{params.Q_m}, {params.Q_M}]")

    def as_array(self) -> np.ndarray:
        return np.array([self.B, self.p, self.P], dtype=float)


def light_intensity(s, B, params: ModelParams):
    """Light intensity at depth ``s`` under biomass ``B``.

    Exponential (Lambert-Beer) decay ``I_in * exp(-(K_bg + k B) s)``,
    strictly decreasing in both arguments.
    """
    s = np.asarray(s, dtype=float)
    B = np.asarray(B, dtype=float)
    if np.any(s < 0):
        raise DomainError("depth s must be >= 0")
    if np.any(B < 0):
        raise DomainError("biomass B must be >= 0")
    out = params.I_in * np.exp(-(params.K_bg + params.k * B) * s)
    return float(out) if out.ndim == 0 else out


def growth_h(B, params: ModelParams):
    """Depth-averaged light limitation factor of growth.

    ``h(B) = ln[(H + I_in) / (H + I(z_m, B))] / (z_m (k B + K_bg))``.
    Positive for all ``B >= 0`` and strictly decreasing (denser blooms shade
    themselves).
    """
    B = np.asarray(B, dtype=float)
    if np.any(B < 0):
        raise DomainError("biomass B must be >= 0")
    out = _growth_h(B, params)
    return float(out) if out.ndim == 0 else out


def growth_h_prime(B, params: ModelParams):
    """Analytic derivative dh/dB of :func:`growth_h`.

    Writing g = z_m (k B + K_bg) and I(g) = I_in exp(-g),
    ``h = ln[(H + I_in)/(H + I(g))] / g`` and

        dh/dg = [g I(g)/(H + I(g)) - ln((H + I_in)/(H + I(g)))] / g^2,

    then dh/dB = z_m k dh/dg.  Negative for all B >= 0.
    """
    B = np.asarray(B, dtype=float)
    if np.any(B < 0):
        raise DomainError("biomass B must be >= 0")
    out = _growth_h(B, params, derivative=True)[1]
    return float(out) if out.ndim == 0 else out


def _growth_h(B, params: ModelParams, derivative: bool = False):
    # h(B), or (h(B), h'(B)) with ``derivative``, sharing the light profile;
    # B >= 0 is the caller's to ensure (see growth_h)
    g = params.z_m * (params.k * B + params.K_bg)
    I_bottom = params.I_in * np.exp(-g)
    num = np.log((params.H + params.I_in) / (params.H + I_bottom))
    if not derivative:
        return num / g
    dnum_dg = I_bottom / (params.H + I_bottom)
    return num / g, params.z_m * params.k * (dnum_dg * g - num) / g**2


def uptake_rho(Q, P, params: ModelParams):
    """Per-carbon phosphorus uptake rate rho(Q, P).

    ``rho_m ((Q_M - Q)/(Q_M - Q_m)) P/(P + M)``, zero at the full quota
    Q = Q_M and saturating towards rho_m for starved cells in rich water.
    """
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    if np.any(Q < params.Q_m) or np.any(Q > params.Q_M):
        raise DomainError(f"quota outside [{params.Q_m}, {params.Q_M}]")
    if np.any(P < 0):
        raise DomainError("P must be >= 0")
    out = params.rho_m * (params.Q_M - Q) / (params.Q_M - params.Q_m) * P / (P + params.M)
    return float(out) if out.ndim == 0 else out


def uptake_eta(B, p, P, params: ModelParams):
    """Areal uptake eta(B, p, P) = rho_m ((Q_M B - p)/(Q_M - Q_m)) P/(P+M).

    Equals ``rho(p/B, P) * B`` for B > 0, and is well defined (zero) at
    B = p = 0, which removes the quota singularity of the per-carbon form.
    """
    B = np.asarray(B, dtype=float)
    p = np.asarray(p, dtype=float)
    P = np.asarray(P, dtype=float)
    out = (
        params.rho_m
        * (params.Q_M * B - p)
        / (params.Q_M - params.Q_m)
        * P
        / (P + params.M)
    )
    return float(out) if out.ndim == 0 else out


def _rho_tilde(P: float, params: ModelParams) -> float:
    # quota-free uptake coefficient rho_m/(Q_M - Q_m) * P/(P+M)
    return params.rho_m / (params.Q_M - params.Q_m) * P / (P + params.M)


def _extinction_P(params: ModelParams) -> float:
    # dissolved phosphorus P* = P_h + P_in/(D/z_m) of the extinction state;
    # P_h when D = 0, where with P_in > 0 no extinction state exists
    if params.exchange > 0.0:
        return params.P_h + params.P_in / params.exchange
    return params.P_h


def q_hat(params: ModelParams) -> float:
    """Cell quota of the extinction state.

    A convex combination of Q_m and Q_M,

        q_hat = (rho~(P*) Q_M + r Q_m h(0)) / (rho~(P*) + r h(0)),

    with weight ``r h(0) / (rho~(P*) + r h(0))`` on Q_m, where
    P* = P_h + P_in/(D/z_m) is the dissolved phosphorus of the extinction
    state (P_h when D = 0).  Equals Q_m when P* = 0 and tends to Q_M as P*
    becomes unlimited.
    """
    rt = _rho_tilde(_extinction_P(params), params)
    rh0 = params.r * growth_h(0.0, params)
    return (rt * params.Q_M + rh0 * params.Q_m) / (rt + rh0)


def r0(params: ModelParams) -> float:
    """Basic ecological reproductive index.

    ``r0 = r h(0) (1 - Q_m / q_hat) / (l + D/z_m)``, with :func:`q_hat`
    taken at the extinction state's dissolved phosphorus
    P* = P_h + P_in/(D/z_m) (P_h when D = 0).  Blooms persist when this
    exceeds one; it vanishes exactly when P* = 0.
    """
    qh = q_hat(params)
    return params.r * growth_h(0.0, params) * (1.0 - params.Q_m / qh) / params.total_loss


def b_bar(params: ModelParams) -> float:
    """Biomass bound from the light-limited net growth balance.

    Root of the bracket in the growth/loss comparison,

        b_bar = (1/k) [ r ((Q_M - Q_m)/Q_M) ln((H + I_in)/H) / (z_m l + D)
                        - K_bg ],

    which may be negative; a negative value signals decay from any initial
    condition.  Trajectories satisfy B <= max(B(0), b_bar) when b_bar > 0.
    """
    growth_ceiling = (
        params.r
        * (params.Q_M - params.Q_m)
        / params.Q_M
        * math.log((params.H + params.I_in) / params.H)
        / (params.z_m * params.l + params.D)
    )
    return (growth_ceiling - params.K_bg) / params.k


def _quota(B, p, params: ModelParams, floor: float = EPS_B):
    """Cell quota p/B, or q_hat(params) wherever B <= ``floor``.

    The one home of the extinction fallback (p/B is 0/0 there), in a
    scalar form for the hot homogeneous kernels and a nodewise form.  The
    reaction kernel takes it at EPS_B; sampled nodal fields report it at
    :data:`QUOTA_B_FLOOR`, below which p/B is solver noise.
    """
    if isinstance(B, np.ndarray):
        return np.where(B > floor, p / np.maximum(B, floor), params.q_hat)
    return p / B if B > floor else params.q_hat


#: Tube checks and reported quotas of the transect and lake fields apply only
#: above this biomass.  The solvers control their error relative to the size
#: of the whole field, which permits nodal errors in B and p of ~1e-10 on the
#: bundled runs; below this floor those could move p/B by more than the
#: tube's 1e-6 tolerance.
QUOTA_B_FLOOR = 1e-6


def _sample_floor(y: np.ndarray) -> float:
    """The quota floor of samples ``y`` with rows (B, p, P) first and samples
    last: EPS_B for a homogeneous (3, nt) trajectory, whose states BDF
    controls directly, and QUOTA_B_FLOOR for nodal (3, n, nt) samples."""
    return EPS_B if y.ndim == 2 else QUOTA_B_FLOOR


def _tube_violation(y: np.ndarray, params: ModelParams) -> tuple[int, str] | None:
    """The one validation rule of sampled solutions, vectorised over samples.

    ``y`` has rows (B, p, P) first and samples last, (3, nt) or (3, n, nt).
    A sample passes when every value is finite and >= -1e-10, and p/B lies
    in [Q_m, Q_M] (to 1e-6) wherever B exceeds :func:`_sample_floor`.
    Returns the index of the first failing sample and what it broke, or
    None.  Finiteness is judged first, because the comparisons are false
    on NaN.
    """
    B, p = y[0], y[1]
    finite = np.isfinite(y).all(axis=0)
    live = finite & (B > _sample_floor(y))
    q = np.divide(p, B, out=np.zeros(B.shape), where=live)
    checks = (
        ("non-finite state", ~finite),
        ("negative state beyond tolerance", (y < -1e-10).any(axis=0)),
        ("cell quota left the [Q_m, Q_M] tube",
         live & ((q < params.Q_m - 1e-6) | (q > params.Q_M + 1e-6))),
    )
    # one flag per sample and check: the nodes of each sample collapse
    flags = [bad.reshape(-1, bad.shape[-1]).any(axis=0) for _, bad in checks]
    failed = np.flatnonzero(np.logical_or.reduce(flags))
    if not failed.size:
        return None
    i = int(failed[0])
    return i, next(message for (message, _), flag in zip(checks, flags) if flag[i])


def _check_fields(B, p, P, params: ModelParams) -> None:
    """Raise ValueError unless the nodal arrays, as one sample, pass
    :func:`_tube_violation`: the validation of the transect and lake fields."""
    failure = _tube_violation(np.stack([B, p, P])[..., None], params)
    if failure is not None:
        raise ValueError(failure[1])


class Transport:
    """The movement T(v) = blockdiag_i(d_i K + a_i sum_k c_k(v) A_k) of the
    rows (B, p, P) for a wind v, from a domain's stiffness ``K`` (zero row
    sums), advection directions A_k and ``coefficients`` v -> (c_k(v)), and
    the movement table (d_i, a_i) of :class:`ModelParams`.  T keeps one
    canonical CSR pattern, the union of those of K and the A_k repeated
    down the diagonal; zero coefficients are skipped.
    """

    def __init__(self, K, directions, coefficients, diffusivities, advection_scalars):
        sources = [csr_matrix(S) for S in (K, *directions)]
        union = sum(abs(S) for S in sources)
        n, nnz = K.shape[0], union.nnz
        rows = np.repeat(np.arange(n), np.diff(union.indptr))
        self._stiffness, *self._directions = [np.asarray(S[rows, union.indices]).ravel()
                                              for S in sources]
        self._coefficients = coefficients
        self._d, self._a = np.array([diffusivities, advection_scalars], dtype=float)[..., None]
        blocks = np.arange(3)[:, None]
        self.shape = (3 * n, 3 * n)
        self._pattern = ((union.indices + n * blocks).ravel(),
                         np.r_[(union.indptr[:-1] + nnz * blocks).ravel(), 3 * nnz])

    def _stacked(self, values: np.ndarray) -> csr_matrix:
        return csr_matrix((values.ravel(), *self._pattern), shape=self.shape)

    @cached_property
    def _operators(self):
        # blockdiag(d_i K) and each blockdiag(a_i A_k), built on first use:
        # the lake asks only for matrix and would carry them unused
        return (self._stacked(self._d * self._stiffness),
                [self._stacked(self._a * A) for A in self._directions])

    def apply(self, v, y: np.ndarray) -> np.ndarray:
        """T(v) y for a flat (3 n,) state ``y``."""
        stiffness, directions = self._operators
        out = stiffness @ y
        for ck, A in zip(self._coefficients(v), directions):
            if ck:
                out += ck * (A @ y)
        return out

    def _values(self, v) -> np.ndarray:
        # the stored entries of T(v), in the order of its CSR pattern
        moved = sum(ck * A for ck, A in zip(self._coefficients(v), self._directions) if ck)
        return (self._d * self._stiffness + self._a * moved).ravel()

    def matrix(self, v) -> csr_matrix:
        """T(v) as a canonical CSR matrix."""
        return self._stacked(self._values(v))


class ParamColumns:
    """The constants that the reaction kernel reads, of K parameter sets at
    once: each is a (K, 1) column, so the kernel evaluates K states of
    shape (K, n) in one call.  Each value is read from its own
    :class:`ModelParams` (the derived ``total_loss``, ``exchange`` and
    ``q_hat`` included), so every row gets the bits of its solo call.
    ``rows`` keeps the parameter sets, in order.
    """

    FIELDS = ("z_m", "k", "K_bg", "I_in", "H", "Q_m", "Q_M", "rho_m", "M", "r", "l",
              "P_h", "P_in", "total_loss", "exchange", "q_hat")

    def __init__(self, rows):
        self.rows = tuple(rows)
        table = np.array([[getattr(p, name) for p in self.rows] for name in self.FIELDS])
        for name, column in zip(self.FIELDS, table[:, :, None]):
            setattr(self, name, column)


class _Reactions(NamedTuple):
    rates: np.ndarray              # (3, n) rows dB, dp, dP
    jacobian: np.ndarray | None    # (3, 3, n) d(rates)/d(B, p, P), on request


def _reaction_kernel(B, p, P, params: ModelParams, jacobian: bool = False) -> _Reactions:
    """The pointwise reaction terms, the only implementation of them.

    Evaluates at nodewise arrays (or scalars) of B, p, P, with the
    constants of one :class:`ModelParams`, or at (K, n) arrays with the
    (K, 1) columns of a :class:`ParamColumns`.  Growth is
    ``r (1 - Q_m/q) h B`` with q the cell quota :func:`_quota` (p/B, q_hat
    where B <= EPS_B) clipped to [Q_m, Q_M].  Nonlinear coefficients see
    the states clipped to >= 0, so slightly negative trial iterates cannot
    blow up; the linear loss and exchange terms see the raw states, which
    keeps the uptake and recycling cancellation between the p and P rows
    exact.

    The Jacobian is exact: the clamps have slope one at zero and above, the
    clip slope one on the closed tube, and the quota is chained through
    d(p/B)/d(B, p) where B > EPS_B.  No domain checks: the public kernels
    hold them.
    """
    Bc = np.maximum(B, 0.0)
    pc = np.maximum(p, 0.0)
    Pc = np.maximum(P, 0.0)
    quota = _quota(B, p, params)
    if isinstance(quota, np.ndarray):  # np.clip costs more than the two ufuncs
        q = np.minimum(np.maximum(quota, params.Q_m), params.Q_M)
    else:  # the homogeneous kernels: a ufunc would cost ~4 us a call
        q = min(max(quota, params.Q_m), params.Q_M)
    q_inv = 1.0 / q
    loss = params.total_loss
    uptake = _rho_tilde(Pc, params)
    if jacobian:
        h, h_prime = _growth_h(Bc, params, derivative=True)
    else:
        h = _growth_h(Bc, params)
    growth = params.r * (1.0 - params.Q_m * q_inv)
    eta = uptake * (params.Q_M * Bc - pc)
    rates = np.array(
        [
            growth * h * Bc - loss * B,
            eta - loss * p,
            params.exchange * (params.P_h - P) + params.P_in - eta + params.l * p,
        ]
    )
    if not jacobian:
        return _Reactions(rates, None)

    slope_B, slope_p, slope_P = B >= 0, p >= 0, P >= 0
    h_prime = h_prime * slope_B
    coefficient = params.rho_m / (params.Q_M - params.Q_m)
    saturation = (Pc + params.M) ** 2
    in_tube = (quota >= params.Q_m) & (quota <= params.Q_M)
    # d(dB)/d(quota) = r Q_m h B/q^2 times d(p/B)/d(B, p) = (-p/B, 1)/B
    # where B > EPS_B; q_hat below it is constant in B and p
    a12 = params.r * params.Q_m * h * q_inv**2 * in_tube * (B > EPS_B)
    a11 = growth * h * slope_B + growth * h_prime * Bc - loss - a12 * quota
    a21 = params.Q_M * uptake * slope_B
    a22 = uptake * slope_p
    a23 = coefficient * (params.Q_M * Bc - pc) * params.M / saturation * slope_P
    jac = np.array(
        [
            [a11, a12, np.zeros(Bc.shape)],
            [a21, -a22 - loss, a23],
            [-a21, a22 + params.l, -params.exchange - a23],
        ]
    )
    return _Reactions(rates, jac)


def reaction_rhs(state: HomState, params: ModelParams) -> np.ndarray:
    """Movement-free rates (dB/dt, dp/dt, dP/dt) at a homogeneous state.

    The growth factor ``1 - Q_m/q`` takes the cell quota q = p/B clipped to
    [Q_m, Q_M], and q_hat when B is numerically zero, so a state with
    B > 0 and p = 0 does not grow and decays at the loss rate.  Internal
    uptake and recycling cancel exactly between the p and P equations, so
    ``dp + dP`` involves only the exchange and source terms.
    """
    return _reaction_kernel(state.B, state.p, state.P, params).rates


def reaction_jacobian(B: float, p: float, P: float, params: ModelParams) -> np.ndarray:
    """3x3 Jacobian of :func:`reaction_rhs` with respect to (B, p, P).

    Exact, with the quota clip's slope.  At an extinction state the quota
    is the constant q_hat, so the (1,1) entry is (l + D/z_m)(R0 - 1).  The
    (1,3) entry is identically zero (growth does not see dissolved
    phosphorus) and the (3,1) entry equals minus the (2,1) entry (uptake
    swaps pools).
    """
    return _reaction_kernel(B, p, P, params, jacobian=True).jacobian
