"""Saltelli design and Sobol estimators against analytic benchmarks.

The Ishigami function is the standard oracle: with a = 7, b = 0.1 its
variance decomposition is known in closed form, giving first-order indices
(0.3139, 0.4424, 0) and total-order (0.5576, 0.4424, 0.2437).
"""

import csv

import numpy as np
import pytest

import bloomsim.sensitivity
from bloomsim.core import DomainError, default_params
from bloomsim.sensitivity import (
    CHUNK_ROWS,
    SensitivityReport,
    SobolProblem,
    _evaluate_row,
    _integrate_rows,
    default_problem,
    estimate_indices,
    run_sensitivity,
    saltelli_design,
    write_report_csv,
)
from bloomsim.wind import SyntheticWind


def ishigami(X, a=7.0, b=0.1):
    """Inputs X in [0,1]^3 are mapped to [-pi, pi]^3."""
    x = -np.pi + 2.0 * np.pi * np.asarray(X)
    return np.sin(x[:, 0]) + a * np.sin(x[:, 1]) ** 2 + b * x[:, 2] ** 4 * np.sin(x[:, 0])


def ishigami_analytic(a=7.0, b=0.1):
    V1 = 0.5 * (1.0 + b * np.pi**4 / 5.0) ** 2
    V2 = a**2 / 8.0
    V13 = b**2 * np.pi**8 * (1.0 / 18.0 - 1.0 / 50.0)
    V = V1 + V2 + V13
    S1 = np.array([V1 / V, V2 / V, 0.0])
    ST = np.array([(V1 + V13) / V, V2 / V, V13 / V])
    return S1, ST


def unit_problem(d=3):
    """A problem object reduced to unit-cube bookkeeping for estimator tests."""
    return SobolProblem(
        base_params=default_params(),
        names=tuple(f"x{i}" for i in range(d))[:d],
        bounds=tuple((0.0, 1.0) for _ in range(d)),
    )


class TestDesign:
    def test_row_count_and_bounds(self):
        problem = default_problem()
        design = saltelli_design(problem, 128, seed=5)
        assert design.samples.shape == (128 * (problem.d + 2), problem.d)
        lo = np.array([b[0] for b in problem.bounds])
        hi = np.array([b[1] for b in problem.bounds])
        assert np.all(design.samples >= lo) and np.all(design.samples <= hi)

    def test_reference_design_size(self):
        # five factors at N = 2048 give 14336 model evaluations
        design = saltelli_design(default_problem(), 2048, seed=0)
        assert design.samples.shape[0] == 14336

    def test_deterministic_for_fixed_seed(self):
        problem = default_problem()
        a = saltelli_design(problem, 64, seed=9).samples
        b = saltelli_design(problem, 64, seed=9).samples
        assert np.array_equal(a, b)
        c = saltelli_design(problem, 64, seed=10).samples
        assert not np.array_equal(a, c)

    def test_cross_matrix_structure(self):
        problem = unit_problem()
        N = 32
        design = saltelli_design(problem, N, seed=2)
        A = design.samples[:N]
        B = design.samples[N : 2 * N]
        for i in range(3):
            ABi = design.samples[(2 + i) * N : (3 + i) * N]
            assert np.array_equal(ABi[:, i], B[:, i])
            other = [j for j in range(3) if j != i]
            assert np.array_equal(ABi[:, other], A[:, other])

    def test_non_power_of_two_warns(self):
        with pytest.warns(UserWarning, match="power of two"):
            saltelli_design(unit_problem(), 100, seed=1)

    def test_block_rows(self):
        design = saltelli_design(unit_problem(), 16, seed=3)
        rows = design.block_rows(5)
        assert list(rows) == [5, 21, 37, 53, 69]


class TestEstimators:
    def test_ishigami_first_order(self):
        problem = unit_problem()
        design = saltelli_design(problem, 2048, seed=42)
        S1, ST = estimate_indices(ishigami(design.samples), design)
        S1_true, ST_true = ishigami_analytic()
        assert np.abs(S1 - S1_true).max() < 0.05
        assert np.abs(ST - ST_true).max() < 0.05

    def test_zero_influence_factor_near_zero(self):
        problem = unit_problem()
        design = saltelli_design(problem, 1024, seed=7)
        X = design.samples

        def model(X):  # ignores x2 entirely
            return np.sin(2 * np.pi * X[:, 0]) + 0.5 * X[:, 1]

        S1, ST = estimate_indices(model(X), design)
        assert abs(S1[2]) < 0.03 and abs(ST[2]) < 0.03

    def test_additive_model_has_equal_orders(self):
        problem = unit_problem()
        design = saltelli_design(problem, 1024, seed=11)
        X = design.samples
        y = 2.0 * X[:, 0] + 1.0 * X[:, 1] + 0.5 * X[:, 2]
        S1, ST = estimate_indices(y, design)
        shares = np.array([4.0, 1.0, 0.25]) / 5.25
        assert np.abs(S1 - shares).max() < 0.03
        assert np.abs(ST - S1).max() < 0.03

    def test_estimator_consistency_improves_with_N(self):
        problem = unit_problem()
        S1_true, _ = ishigami_analytic()
        errs = []
        for N in (1024, 2048):
            err = []
            for seed in (0, 1, 2, 3):
                design = saltelli_design(problem, N, seed=seed)
                S1, _ = estimate_indices(ishigami(design.samples), design)
                err.append(np.abs(S1 - S1_true).mean())
            errs.append(np.mean(err))
        assert errs[1] < errs[0]

    def test_constant_output_is_an_error(self):
        design = saltelli_design(unit_problem(), 64, seed=0)
        with pytest.raises(ValueError, match="constant output"):
            estimate_indices(np.ones(design.samples.shape[0]), design)

    def test_vectorized_outputs(self):
        problem = unit_problem()
        design = saltelli_design(problem, 256, seed=5)
        X = design.samples
        y = np.stack([X[:, 0], X[:, 0] + X[:, 1]], axis=1)  # two outputs
        S1, ST = estimate_indices(y, design)
        assert S1.shape == (3, 2) and ST.shape == (3, 2)
        assert S1[0, 0] > 0.9          # first output is x0 alone
        assert S1[2, 1] == pytest.approx(0.0, abs=0.03)

    def test_jansen_floor_respected_on_ishigami(self):
        design = saltelli_design(unit_problem(), 1024, seed=13)
        S1, ST = estimate_indices(ishigami(design.samples), design)
        assert np.all(ST + 0.05 >= S1)


@pytest.fixture(scope="module")
def small_report():
    problem = default_problem(Nx=15, sample_every=10.0)
    return run_sensitivity(problem, N=8, seed=123, n_jobs=1)


class TestPipeline:
    def test_report_shapes_and_bins(self, small_report):
        report = small_report
        assert report.n_bins == 6  # 365 days in ~60-day bins
        assert report.bin_edges[0] == 0.0 and report.bin_edges[-1] == 365.0
        assert report.S1_mean.shape == (5, 6)
        assert report.ST_sd.shape == (5, 6)
        assert report.N == 8

    def test_jansen_floor_in_pipeline(self, small_report):
        report = small_report
        assert np.all(report.ST_mean + 0.05 >= report.S1_mean)

    def test_determinism(self):
        problem = default_problem(Nx=11, sample_every=20.0)
        a = run_sensitivity(problem, N=4, seed=7, n_jobs=1)
        b = run_sensitivity(problem, N=4, seed=7, n_jobs=1)
        assert np.array_equal(a.S1_mean, b.S1_mean)
        assert np.array_equal(a.ST_sd, b.ST_sd)

    def test_parallel_matches_serial(self, monkeypatch):
        # two chunks of distinct rows, so the pool's two workers each run one
        monkeypatch.setattr(bloomsim.sensitivity, "CHUNK_ROWS", 12)
        problem = default_problem(Nx=11, sample_every=20.0)
        serial = run_sensitivity(problem, N=4, seed=7, n_jobs=1)
        parallel = run_sensitivity(problem, N=4, seed=7, n_jobs=2)
        for name in ("S1_mean", "S1_sd", "ST_mean", "ST_sd"):
            assert np.array_equal(getattr(serial, name), getattr(parallel, name)), name
        assert serial.rows == parallel.rows and serial.counters == parallel.counters

    def test_chunking_does_not_change_the_report(self, monkeypatch):
        problem = default_problem(Nx=11, horizon=20.0, bin_days=10.0, sample_every=5.0)
        whole = run_sensitivity(problem, N=4, seed=7, n_jobs=1)
        assert len(whole.rows) == 28 and whole.counters["solves"] <= CHUNK_ROWS
        monkeypatch.setattr(bloomsim.sensitivity, "CHUNK_ROWS", 5)
        chunked = run_sensitivity(problem, N=4, seed=7, n_jobs=1)
        for name in ("S1_mean", "S1_sd", "ST_mean", "ST_sd"):
            assert np.array_equal(getattr(whole, name), getattr(chunked, name)), name
        assert whole.rows == chunked.rows

    def test_rows_hold_each_rows_solo_counters(self):
        problem = default_problem(Nx=11, horizon=20.0, bin_days=10.0, sample_every=5.0)
        report = run_sensitivity(problem, N=2, seed=3, n_jobs=1)
        samples = saltelli_design(problem, 2, 3).samples
        assert [row[0] for row in report.rows] == list(range(len(samples)))
        for i, owner, counters, message in report.rows:
            solo = _integrate_rows(problem, problem.row_params(samples[i]))
            assert counters == solo.counters and message is None
            assert owner == i or report.rows[owner][1] == owner

    def test_widespread_row_failures_abort_with_report(self, monkeypatch):
        # failures in a third of the rows trip the 1% failure budget
        _counting_integrate_1d(monkeypatch, fail=lambda count: count % 3 == 0)
        problem = default_problem(Nx=11, sample_every=20.0)
        with pytest.raises(RuntimeError, match="failed, aborting: .*injected failure"):
            run_sensitivity(problem, N=4, seed=1, n_jobs=1)

    @pytest.mark.parametrize("names, bounds, message", [
        (("z_m",), ((-4.0, 10.0),), "parameter z_m must be positive"),
        (("z_m", "K_bg"), ((2.0, 10.0), (-0.2, 0.4)), "parameter K_bg must be positive"),
        (("P_in",), ((-0.1, 0.3),), "parameter P_in must be nonnegative"),
        # scrambled Sobol' points can land exactly on the lower end
        (("z_m",), ((0.0, 10.0),), "parameter z_m must be positive"),
        (("Q_m",), ((0.001, 0.05),), "Q_m must be < Q_M"),
        # each end is valid against the other's base value (0.004 and
        # 0.04), but the corner Q_m = 0.03, Q_M = 0.02 is not
        (("Q_m", "Q_M"), ((0.002, 0.03), (0.02, 0.08)), "Q_m must be < Q_M"),
    ], ids=["z_m-negative-end", "K_bg-negative-end", "P_in-negative-end", "z_m-zero-end",
            "Q_m-above-base-Q_M", "quota-limit-corner"])
    def test_invalid_range_end_rejected(self, names, bounds, message):
        # the midpoint of each of these ranges is a valid parameter set
        with pytest.raises(DomainError, match=message):
            SobolProblem(base_params=default_params(r=1.0, P_h=2.0), names=names,
                         bounds=bounds, Nx=11, sample_every=20.0)

    def test_valid_corners_accepted(self):
        # every design point has Q_m < Q_M, although the Q_M range lies
        # below the base Q_m = 0.004
        problem = SobolProblem(base_params=default_params(r=1.0, P_h=2.0),
                               names=("Q_m", "Q_M", "P_in"),
                               bounds=((0.001, 0.002), (0.0025, 0.003), (0.0, 0.3)),
                               Nx=11, sample_every=20.0)
        assert problem.d == 3

    def test_row_failure_is_recorded(self, monkeypatch):
        # one failed row of 16 * 7 stays under the 1% abort: it drops its
        # Saltelli block and is kept, with its message, in the report.  The
        # failure is injected into a B row, which has no still-water twin
        # (the first 96 rows are each evaluated once, in order)
        _counting_integrate_1d(monkeypatch, fail=lambda count: count == 22)
        problem = default_problem(Nx=11, horizon=20.0, bin_days=10.0, sample_every=5.0)
        report = run_sensitivity(problem, N=16, seed=3, n_jobs=1)
        assert report.failures == [(21, "RuntimeError: injected failure")]
        assert report.n_failed_blocks == 1 and report.N == 15

    def test_collapsed_ranges_error(self):
        # ranges collapsed to points cannot produce output variance; they are
        # rejected up front (the estimator-level "constant output" error is
        # exercised in TestEstimators)
        with pytest.raises(ValueError, match="empty range"):
            default_problem(
                Nx=11,
                sample_every=20.0,
                bounds=tuple((v, v) for v in (5.0, 0.3, 0.02, 0.0, 0.05)),
            )

    def test_csv_schema(self, small_report, tmp_path):
        out = tmp_path / "report.csv"
        write_report_csv(small_report, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "factor,bin_start,bin_end,S1_mean,S1_sd,ST_mean,ST_sd,N"
        assert len(lines) == 1 + 5 * 6
        assert lines[1].split(",")[0] == "z_m"

    def test_csv_bytes_match_per_value_writer(self, small_report, tmp_path, edge_values):
        edge = SensitivityReport(
            factors=("z_m", "needs, quoting"),
            bin_edges=edge_values[:7],
            S1_mean=np.resize(edge_values, (2, 6)),
            S1_sd=np.resize(np.roll(edge_values, 1), (2, 6)),
            ST_mean=np.resize(np.roll(edge_values, 2), (2, 6)),
            ST_sd=np.resize(np.roll(edge_values, 3), (2, 6)),
            N=8,
        )
        for k, report in enumerate((small_report, edge)):
            out, expected = tmp_path / f"report{k}.csv", tmp_path / f"expected{k}.csv"
            write_report_csv(report, out)
            # the per-value writer that the shared one replaced, kept as the oracle
            with open(expected, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["factor", "bin_start", "bin_end", "S1_mean", "S1_sd", "ST_mean", "ST_sd", "N"]
                )
                for i, factor in enumerate(report.factors):
                    for b in range(report.n_bins):
                        writer.writerow([
                            factor,
                            f"{report.bin_edges[b]:.17g}",
                            f"{report.bin_edges[b + 1]:.17g}",
                            f"{report.S1_mean[i, b]:.17g}",
                            f"{report.S1_sd[i, b]:.17g}",
                            f"{report.ST_mean[i, b]:.17g}",
                            f"{report.ST_sd[i, b]:.17g}",
                            report.N,
                        ])
            assert out.read_bytes() == expected.read_bytes()


def _counting_integrate_1d(monkeypatch, fail=lambda count: False):
    """Wrap the transect solver the rows call.  The returned list grows by
    one per row it solves, and a row whose count ``fail`` accepts gets an
    injected failure as its result."""
    rows = []

    def counted(*args, _fn=bloomsim.sensitivity.integrate_1d, **kwargs):
        results = []
        for run in _fn(*args, **kwargs):
            rows.append(1)
            results.append(RuntimeError("injected failure") if fail(len(rows)) else run)
        return results

    monkeypatch.setattr(bloomsim.sensitivity, "integrate_1d", counted)
    return rows


class TestStillWaterTwins:
    """In still water a row that differs from an earlier one only in the
    advection scalars is not evaluated again."""

    N, SEED = 4, 11

    @staticmethod
    def problem(**overrides):
        return default_problem(Nx=11, horizon=20.0, bin_days=10.0, sample_every=5.0,
                               **overrides)

    def test_one_solve_per_still_water_row_and_same_indices(self, monkeypatch):
        problem = self.problem()
        # the oracle: every design row run alone and binned
        design = saltelli_design(problem, self.N, self.SEED)
        table = np.array([
            _evaluate_row((i, _integrate_rows(problem, problem.row_params(row)), problem))[1]
            for i, row in enumerate(design.samples)])

        calls = _counting_integrate_1d(monkeypatch)
        report = run_sensitivity(problem, N=self.N, seed=self.SEED, n_jobs=1)
        d = problem.d
        assert len(calls) == self.N * (d + 1)
        S1, ST = estimate_indices(table, design)
        shape = (d, report.n_bins, problem.Nx)
        assert np.array_equal(report.S1_mean, S1.reshape(shape).mean(axis=2))
        assert np.array_equal(report.S1_sd, S1.reshape(shape).std(axis=2))
        assert np.array_equal(report.ST_mean, ST.reshape(shape).mean(axis=2))
        assert np.array_equal(report.ST_sd, ST.reshape(shape).std(axis=2))

    def test_windy_problem_evaluates_every_row(self, monkeypatch):
        problem = self.problem(wind=SyntheticWind(amplitude=5.0, period=10.0))
        calls = _counting_integrate_1d(monkeypatch)
        run_sensitivity(problem, N=self.N, seed=self.SEED, n_jobs=1)
        assert len(calls) == self.N * (problem.d + 2)

    def test_twin_row_shares_its_owners_failure(self, monkeypatch):
        # row 0 (A) fails, and so does its twin in the beta_B cross matrix,
        # row (2 + 4) N; both count against the 1% budget
        _counting_integrate_1d(monkeypatch, fail=lambda count: count == 1)
        twin = 6 * self.N
        with pytest.raises(RuntimeError) as exc:
            run_sensitivity(self.problem(), N=self.N, seed=self.SEED, n_jobs=1)
        assert str(exc.value) == (
            f"2/{7 * self.N} model evaluations failed, aborting: "
            f"row 0: RuntimeError: injected failure; row {twin}: RuntimeError: injected failure"
        )
