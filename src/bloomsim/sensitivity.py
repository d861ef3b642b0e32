"""Variance-based global sensitivity of biomass to lake parameters.

The pipeline follows the classic two-matrix design: a quasi-random Sobol'
base sequence (SciPy's generator, Joe & Kuo direction numbers, seeded by an
Owen-type digital scramble) provides paired sample matrices A and B plus the
d cross matrices A_B^(i), giving N (d + 2) model evaluations.  The generator
(``scipy.stats.qmc``) is imported inside :func:`saltelli_design`, so only a
process that draws a design loads ``scipy.stats``.  First-order
indices use the Saltelli (2010) estimator

    S1_i = mean(f_B (f_ABi - f_A)) / Var(f),

total-order indices use the Jansen estimator

    ST_i = mean((f_A - f_ABi)^2) / (2 Var(f)).

Each evaluation runs the 1D transect solver for a year and records biomass
averaged inside consecutive ~60-day time bins at every grid node.  Indices
are estimated per (node, bin) and reported as spatial means with spatial
standard deviations, which quantify how much the parameter influence varies
across the domain.

In still water the advection scalars ``beta_B`` and ``beta_P`` do not enter
the transect model, so design rows that differ only in them (each
A_B^(beta_B) row and its A row) run the same model: each such group is
evaluated once and every row in it gets that result or failure.

The distinct rows are split, in design order, into consecutive chunks of
:data:`CHUNK_ROWS`, and each chunk is one ensemble call of
:func:`~bloomsim.solver1d.integrate_1d`: its rows advance together with
one batched right-hand side per round, while each keeps its own step
control, so every row gives the samples and counters of its solo run.
With ``n_jobs > 1`` a process pool maps over the chunks.  The results
therefore do not depend on ``n_jobs`` or on the chunking.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np

from ._textio import export_csv
from .core import ModelParams, default_params
from .solver1d import Field1D, Grid1D, integrate_1d

__all__ = [
    "FACTOR_NAMES",
    "FACTOR_BOUNDS",
    "SobolProblem",
    "SaltelliDesign",
    "SensitivityReport",
    "saltelli_design",
    "estimate_indices",
    "run_sensitivity",
    "write_report_csv",
    "write_rows_csv",
]

#: Distinct design rows per ensemble solve (and per task of a process pool).
CHUNK_ROWS = 64

#: The five physical factors under study and their ranges.
FACTOR_NAMES = ("z_m", "K_bg", "D", "P_in", "beta_B")
FACTOR_BOUNDS = {
    "z_m": (2.0, 10.0),
    "K_bg": (0.1, 1.0),
    "D": (0.01, 0.1),
    "P_in": (0.0, 0.3),
    "beta_B": (0.01, 0.1),
}


@dataclass(frozen=True)
class SobolProblem:
    """Factor ranges plus the simulation scenario they drive.

    Construction rejects, with a ValueError, a scenario that no design row
    can run: a non-finite or non-positive ``L``, ``horizon``, ``bin_days``
    or ``sample_every``, fewer than 3 grid nodes, bins shorter than the
    sampling interval (a bin with no sample), an initial bump that fails
    :meth:`Field1D.validate` under ``base_params``, an empty factor range,
    and factor ranges with a corner (each factor at one end of its range,
    2^d sets) that gives invalid parameters.  The grid and the initial
    field are built once here, as ``grid`` and ``initial``.
    """

    base_params: ModelParams
    names: tuple = FACTOR_NAMES
    bounds: tuple = tuple(FACTOR_BOUNDS[n] for n in FACTOR_NAMES)
    L: float = 1000.0
    Nx: int = 41
    horizon: float = 365.0
    bin_days: float = 60.0
    sample_every: float = 5.0
    wind: object = None
    B_base: float = 0.5
    B_peak: float = 10.0
    Q0: float = 0.02
    P0: float | None = None  # defaults to base_params.P_h
    grid: Grid1D = field(init=False, repr=False, compare=False)
    initial: Field1D = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.names) != len(self.bounds):
            raise ValueError("names and bounds disagree")
        for name in ("L", "horizon", "bin_days", "sample_every"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.bin_days < self.sample_every:
            raise ValueError(f"bin_days ({self.bin_days!r}) is shorter than sample_every "
                             f"({self.sample_every!r}), so a bin would hold no sample")
        grid = Grid1D(self.L, self.Nx)
        P0 = self.base_params.P_h if self.P0 is None else self.P0
        initial = Field1D.bump(grid, B_base=self.B_base, B_peak=self.B_peak, Q0=self.Q0, P0=P0)
        initial.validate(self.base_params)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "initial", initial)
        param_fields = set(type(self.base_params).__dataclass_fields__)
        ranges = dict(zip(self.names, self.bounds))
        for name, (lo, hi) in ranges.items():
            if not lo < hi:
                raise ValueError(f"empty range for factor {name}")
        # design points fill the closed box of the ranges, ends included; the
        # valid parameter sets are convex (bounds and Q_m < Q_M), so the box
        # is valid when each of its corners is
        varied = [name for name in ranges if name in param_fields]
        for corner in itertools.product(*(ranges[name] for name in varied)):
            self.base_params.replace(**dict(zip(varied, corner)))

    @property
    def d(self) -> int:
        return len(self.names)

    def sample_times(self) -> np.ndarray:
        """The times at which a row samples biomass: every ``sample_every``
        days from 0, and the horizon."""
        times = np.arange(0.0, self.horizon + 1e-9, self.sample_every)
        if times[-1] < self.horizon:
            times = np.append(times, self.horizon)
        return times

    def row_params(self, values) -> ModelParams:
        """The parameters of the design row with factor ``values``."""
        return self.base_params.replace(**dict(zip(self.names, values)))

    def bin_edges(self) -> np.ndarray:
        edges = list(np.arange(0.0, self.horizon, self.bin_days))
        edges.append(self.horizon)
        if len(edges) > 2 and edges[-1] - edges[-2] < 0.5 * self.bin_days:
            # fold a runt final bin into its neighbour to keep bins ~bin_days
            edges.pop(-2)
        return np.asarray(edges)


def default_problem(base_params: ModelParams | None = None, **overrides) -> SobolProblem:
    """The desk-scale analysis scenario (no wind, 1D, one year)."""
    if base_params is None:
        base_params = default_params(r=1.0, P_h=2.0)
    return SobolProblem(base_params=base_params, **overrides)


@dataclass(frozen=True)
class SaltelliDesign:
    """Row-stacked evaluation points: A, B, then the d cross matrices."""

    samples: np.ndarray   # (N (d + 2), d)
    N: int
    names: tuple
    seed: int

    @property
    def d(self) -> int:
        return len(self.names)

    def block_rows(self, j: int) -> np.ndarray:
        """Row indices belonging to base sample j across all matrices."""
        return j + self.N * np.arange(self.d + 2)


def saltelli_design(problem: SobolProblem, N: int, seed: int) -> SaltelliDesign:
    """Quasi-random Saltelli design with N (d + 2) evaluation rows.

    A and B come from disjoint column groups of one scrambled 2d-dimensional
    Sobol' sequence, so the design is deterministic for a fixed seed.  N
    should be a power of two for the balance properties of the sequence; any
    other N only degrades accuracy and triggers a warning.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if N & (N - 1):
        warnings.warn(f"N={N} is not a power of two; Sobol' balance is degraded")
    # imported here, not at module level: loading scipy.stats costs about
    # 0.45 s and 16 MiB (scipy 1.17, 2-core x86), which no other run needs
    from scipy.stats import qmc

    d = problem.d
    engine = qmc.Sobol(d=2 * d, scramble=True, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # scipy repeats the power-of-2 advice
        base = engine.random(N)
    A = base[:, :d].copy()
    B = base[:, d:].copy()
    lo = np.array([b[0] for b in problem.bounds])
    hi = np.array([b[1] for b in problem.bounds])

    blocks = [A, B]
    for i in range(d):
        ABi = A.copy()
        ABi[:, i] = B[:, i]
        blocks.append(ABi)
    unit = np.vstack(blocks)
    return SaltelliDesign(lo + unit * (hi - lo), N, tuple(problem.names), seed)


def estimate_indices(outputs: np.ndarray, design: SaltelliDesign):
    """Saltelli-2010 first-order and Jansen total-order indices.

    ``outputs`` has one row per design row and may carry any number of
    trailing output dimensions (the indices are estimated independently for
    each).  Returns ``(S1, ST)`` with shape ``(d, *outputs.shape[1:])``.

    Raises
    ------
    ValueError
        If the output variance vanishes (constant output) or row counts
        disagree with the design.
    """
    y = np.asarray(outputs, dtype=float)
    N, d = design.N, design.d
    if y.shape[0] != N * (d + 2):
        raise ValueError(f"expected {N * (d + 2)} output rows, got {y.shape[0]}")
    fA = y[:N]
    fB = y[N : 2 * N]
    V = np.var(np.concatenate([fA, fB], axis=0), axis=0, ddof=1)
    if np.any(V <= 0.0):
        raise ValueError("constant output: variance is zero, indices undefined")
    S1 = np.empty((d,) + y.shape[1:])
    ST = np.empty((d,) + y.shape[1:])
    for i in range(d):
        fABi = y[(2 + i) * N : (3 + i) * N]
        S1[i] = np.mean(fB * (fABi - fA), axis=0) / V
        ST[i] = 0.5 * np.mean((fA - fABi) ** 2, axis=0) / V
    return S1, ST


@dataclass(frozen=True)
class SensitivityReport:
    """Binned spatially-aggregated indices for every factor."""

    factors: tuple
    bin_edges: np.ndarray          # (n_bins + 1,)
    S1_mean: np.ndarray            # (d, n_bins) spatial means
    S1_sd: np.ndarray              # (d, n_bins) spatial standard deviations
    ST_mean: np.ndarray
    ST_sd: np.ndarray
    N: int
    n_failed_blocks: int = 0
    flags: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)  # (row, message) of each failed row
    counters: dict = field(default_factory=dict)  # solves and summed nfev, njev, nlu
    # (row, owner, counters or None, message or None) of each design row
    rows: list = field(default_factory=list)

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges) - 1


#: Factors that act only through the wind.
_ADVECTION_FACTORS = frozenset({"beta_B", "beta_P"})


def _row_owners(problem: SobolProblem, samples: np.ndarray) -> list[int]:
    """For each design row, the first row that runs the same model.

    With wind every row is its own owner; in still water rows are keyed by
    their factor values without the advection scalars.
    """
    if problem.wind is not None:
        return list(range(len(samples)))
    inert = [i for i, name in enumerate(problem.names) if name not in _ADVECTION_FACTORS]
    first: dict[tuple, int] = {}
    return [first.setdefault(tuple(row), i) for i, row in enumerate(samples[:, inert].tolist())]


def _integrate_rows(problem: SobolProblem, params):
    """The year-long transect run of one parameter set, or the ensemble run
    of a sequence of them (see :func:`~bloomsim.solver1d.integrate_1d`)."""
    return integrate_1d(
        problem.initial,
        problem.grid,
        problem.wind,
        params,
        problem.horizon,
        rtol=1e-6,
        atol=1e-9,
        sample_times=problem.sample_times(),
        # not validated: at atol 1e-9 values undershoot the tube's 1e-10
        # positivity bound (p = -6.2e-9 on row 3 of the N = 2, seed 3
        # design), and the bin means need only BDF's accuracy
        validate=False,
    )


def _evaluate_row(args):
    """Bin one row's run: ``args`` is (index, trajectory or exception,
    problem).

    Returns ``(index, output, message, counters)``: the bin-averaged
    biomass per (bin, node), flattened, and the trajectory's solver
    counters, or ``None`` for both and the error message on failure.
    """
    index, traj, problem = args
    if isinstance(traj, Exception):
        return index, None, f"{type(traj).__name__}: {traj}", None
    edges = problem.bin_edges()
    out = np.empty((len(edges) - 1, problem.Nx))
    for b in range(len(edges) - 1):
        last = b == len(edges) - 2
        mask = (traj.t >= edges[b]) & (
            traj.t <= edges[b + 1] if last else traj.t < edges[b + 1]
        )
        out[b] = traj.B[:, mask].mean(axis=1)
    return index, out.ravel(), None, traj.counters


def _evaluate_chunk(args):
    """Worker: run a chunk of (index, factor values) design rows as one
    ensemble and bin each row (:func:`_evaluate_row`)."""
    rows, problem = args
    try:
        runs = _integrate_rows(problem, [problem.row_params(values) for _, values in rows])
    except Exception as exc:  # noqa: BLE001 - row failures are data, not bugs
        # anything but a row's own IntegrationError ends the whole ensemble,
        # so every row of the chunk records it
        runs = [exc] * len(rows)
    return [_evaluate_row((i, run, problem)) for (i, _), run in zip(rows, runs)]


def run_sensitivity(
    problem: SobolProblem,
    N: int,
    seed: int,
    n_jobs: int = 1,
) -> SensitivityReport:
    """Full pipeline: design, model evaluations, per-bin spatial indices.

    Individual solver failures invalidate their whole Saltelli block (the
    same base sample across A, B, and every cross matrix) to keep the
    estimators unbiased; more than 1% failed rows aborts with a report.
    Below that, each failed row and its message are kept in the report's
    ``failures``.  In still water, rows that differ only in the advection
    scalars are evaluated once and share the result or failure; the
    failure budget still counts every row.  The report's ``counters`` hold
    ``solves``, the number of rows evaluated, and the sums of the solver
    counters ``nfev``, ``njev`` and ``nlu`` over them (a failed solve adds
    none); its ``rows`` hold each design row's owner, counters and failure
    message.  The distinct rows run in ensembles of :data:`CHUNK_ROWS`, each
    row as it would alone, so the report is the same for any ``n_jobs``.
    """
    design = saltelli_design(problem, N, seed)
    owners = _row_owners(problem, design.samples)
    distinct = [(i, design.samples[i]) for i, owner in enumerate(owners) if owner == i]
    chunks = [(distinct[start:start + CHUNK_ROWS], problem)
              for start in range(0, len(distinct), CHUNK_ROWS)]
    if n_jobs > 1:
        with Pool(n_jobs) as pool:
            evaluated = list(itertools.chain(*pool.map(_evaluate_chunk, chunks, chunksize=1)))
    else:
        evaluated = list(itertools.chain(*map(_evaluate_chunk, chunks)))
    results = {i: (out, msg, c) for i, out, msg, c in evaluated}
    raw = [(i, *results[owner][:2]) for i, owner in enumerate(owners)]
    counters = {key: sum(c[key] for *_, c in evaluated if c is not None)
                for key in ("nfev", "njev", "nlu")}
    counters["solves"] = len(evaluated)

    failures = [(i, msg) for i, out, msg in raw if out is None]
    if len(failures) > 0.01 * len(raw):
        sample = "; ".join(f"row {i}: {msg}" for i, msg in failures[:5])
        raise RuntimeError(
            f"{len(failures)}/{len(raw)} model evaluations failed, aborting: {sample}"
        )

    failed_blocks = sorted({i % N for i, _ in failures})
    keep = np.ones(N, dtype=bool)
    keep[failed_blocks] = False
    if keep.sum() < 2:
        raise RuntimeError("too few surviving Saltelli blocks")

    width = next(out.size for _, out, msg in raw if out is not None)
    table = np.zeros((len(raw), width))
    for i, out, _ in raw:
        if out is not None:
            table[i] = out
    # drop failed blocks pairwise across every matrix
    kept_rows = np.concatenate([np.flatnonzero(keep) + m * N for m in range(design.d + 2)])
    pruned = SaltelliDesign(
        design.samples[kept_rows], int(keep.sum()), design.names, design.seed
    )
    S1, ST = estimate_indices(table[kept_rows], pruned)

    edges = problem.bin_edges()
    n_bins = len(edges) - 1
    S1 = S1.reshape(design.d, n_bins, problem.Nx)
    ST = ST.reshape(design.d, n_bins, problem.Nx)
    S1_mean, S1_sd = S1.mean(axis=2), S1.std(axis=2)
    ST_mean, ST_sd = ST.mean(axis=2), ST.std(axis=2)

    flags = {}
    out_of_range = (S1_mean < 0.0) | (S1_mean > 1.0) | (ST_mean < 0.0) | (ST_mean > 1.0)
    if out_of_range.any():
        flags["indices_outside_unit_interval"] = [
            (design.names[i], int(b))
            for i, b in zip(*np.nonzero(out_of_range))
        ]
    return SensitivityReport(
        factors=design.names,
        bin_edges=edges,
        S1_mean=S1_mean,
        S1_sd=S1_sd,
        ST_mean=ST_mean,
        ST_sd=ST_sd,
        N=int(keep.sum()),
        n_failed_blocks=len(failed_blocks),
        flags=flags,
        failures=failures,
        counters=counters,
        rows=[(i, owner, results[owner][2], results[owner][1])
              for i, owner in enumerate(owners)],
    )


def write_report_csv(report: SensitivityReport, path) -> None:
    """One row per (factor, time bin)."""
    rows = ([factor, *report.bin_edges[b:b + 2], report.S1_mean[i, b], report.S1_sd[i, b],
             report.ST_mean[i, b], report.ST_sd[i, b], report.N]
            for i, factor in enumerate(report.factors) for b in range(report.n_bins))
    header = ["factor", "bin_start", "bin_end", "S1_mean", "S1_sd", "ST_mean", "ST_sd", "N"]
    export_csv(rows, header, path)


def write_rows_csv(report: SensitivityReport, path) -> None:
    """One row per design row: its owner (the row whose solve it shares),
    that solve's counters and its failure message (empty when it ran)."""
    rows = ([i, owner, *(("", "", "") if c is None else (c["nfev"], c["njev"], c["nlu"])),
             message or ""] for i, owner, c, message in report.rows)
    export_csv(rows, ["row", "owner", "nfev", "njev", "nlu", "message"], path)
