"""Config-driven runs: validation, outputs, manifests, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bloomsim.ode
import bloomsim.sensitivity
import bloomsim.solver1d
from bloomsim.cli import ConfigError, export_csv, load_config, main, run_config
from bloomsim.core import QUOTA_B_FLOOR, default_params, q_hat
from bloomsim.sensitivity import FACTOR_NAMES, SobolProblem, _integrate_rows, saltelli_design

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

CASE2 = {"r": 0.7, "P_h": 0.2}
CASE3 = {"r": 1.0, "P_h": 0.2}


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"params": {}, "wibble": 1})
        with pytest.raises(ConfigError, match="wibble"):
            load_config(path)

    def test_unknown_param_listed(self, tmp_path):
        path = write_config(tmp_path, {"params": {"r": 1.0, "gamma": 2.0}})
        with pytest.raises(ConfigError, match="gamma"):
            load_config(path)

    def test_unknown_section_key(self, tmp_path):
        path = write_config(tmp_path, {"params": {}, "ode": {"t_end": 10, "oops": 1}})
        with pytest.raises(ConfigError, match="oops"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_bad_schema_version(self, tmp_path):
        path = write_config(tmp_path, {"schema_version": 99})
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)

    def test_missing_mesh_file(self, tmp_path):
        path = write_config(
            tmp_path,
            {"params": CASE3, "sim2d": {"mesh": "missing.msh", "t_end": 1.0}},
        )
        with pytest.raises(ConfigError, match="mesh file not found"):
            run_config(path, "sim2d", tmp_path / "out")

    def test_missing_wind_file(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "params": CASE3,
                "sim1d": {"Nx": 11, "t_end": 1.0, "wind": {"mode": "csv", "csv": "no.csv"}},
            },
        )
        with pytest.raises(ConfigError, match="wind file not found"):
            run_config(path, "sim1d", tmp_path / "out")


class TestSubcommands:
    def test_stability_reports_golden_r0(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"params": CASE2, "stability": {"equilibrium": "extinction", "n_max": 5}},
        )
        out = tmp_path / "out"
        manifest_path = run_config(path, "stability", out)
        summary = (out / "summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        row = summary[1].split(",")
        r0_value = float(row[header.index("R0")])
        assert abs(r0_value - 0.9494) < 5e-4
        assert row[header.index("verdict")] == "stable"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["subcommand"] == "stability"
        assert "spectrum.csv" in manifest["outputs"]

    def test_ode_final_state_matches_reported_equilibrium(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "params": CASE3,
                "ode": {"initial": [5.0, 0.1, 0.15], "t_end": 4000.0, "rtol": 1e-9, "atol": 1e-12},
            },
        )
        out = tmp_path / "out"
        run_config(path, "ode", out)
        header, row = (out / "final_state.csv").read_text().splitlines()
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert values["B"] == pytest.approx(16.2785, rel=0.01)
        assert values["p"] == pytest.approx(0.1920, rel=0.01)
        assert values["P"] == pytest.approx(0.0080, rel=0.01)

    def test_ode_manifest_counters_match_rhs_calls(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, _fn=bloomsim.ode.reaction_rhs, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(bloomsim.ode, "reaction_rhs", counted)
        path = write_config(tmp_path, {"params": CASE3, "ode": {"t_end": 200.0}})
        out = tmp_path / "out"
        run_config(path, "ode", out)
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        assert set(counters) == {"nfev", "njev", "nlu"}
        # a finite-difference Jacobian would call reaction_rhs past the nfev count
        assert counters["nfev"] == len(calls) > 0
        assert 0 < counters["njev"] <= counters["nlu"]

    def test_ode_subthreshold_config_runs_to_extinction(self, tmp_path):
        out = tmp_path / "out"
        config = CONFIGS_DIR / "ode_subthreshold.json"
        assert main(["ode", "--config", str(config), "--out", str(out)]) == 0
        header, row = (out / "final_state.csv").read_text().splitlines()
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert values["B"] < 1e-9
        assert values["R0"] < 1.0

    def test_sim1d_extinction_summary(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "params": {"r": 1.0, "P_h": 0.0},
                "sim1d": {
                    "L": 1000.0,
                    "Nx": 61,
                    "t_end": 1000.0,
                    "samples": 5,
                    "initial": {"kind": "bump", "Q0": 0.005, "P0": 0.005},
                },
            },
        )
        out = tmp_path / "out"
        run_config(path, "sim1d", out)
        assert "extinction: true" in capsys.readouterr().out
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[1].split(",")[-1] == "true"
        assert (out / "solution.csv").exists()

    def test_sim1d_extinction_config_writes_quota_in_tube(self, tmp_path):
        # at nodes with B <= QUOTA_B_FLOOR the Q column is q_hat, not the
        # solver noise p/B (which read 2.3e-3 < Q_m at two nodes at t = 1000)
        out = tmp_path / "out"
        config = CONFIGS_DIR / "sim1d_extinction.json"
        assert main(["sim1d", "--config", str(config), "--out", str(out)]) == 0
        table = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
        params = default_params(r=1.0, P_h=0.0)
        Q = table[:, 3]
        assert np.all((Q >= params.Q_m) & (Q <= params.Q_M))
        assert np.all(Q[table[:, 2] <= QUOTA_B_FLOOR] == q_hat(params))

    def test_sim1d_manifest_counters_match_rhs_calls(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, _fn=bloomsim.solver1d.rhs_1d, **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(bloomsim.solver1d, "rhs_1d", counted)
        path = write_config(
            tmp_path,
            {
                "params": CASE3,
                "sim1d": {"Nx": 21, "t_end": 10.0, "samples": 3,
                          "wind": {"mode": "synthetic", "amplitude": 40.0}},
            },
        )
        out = tmp_path / "out"
        run_config(path, "sim1d", out)
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        assert set(counters) == {"nfev", "njev", "nlu"}
        # a finite-difference Jacobian would call rhs_1d past the nfev count
        assert counters["nfev"] == len(calls) > 0
        assert 0 < counters["njev"] <= counters["nlu"]

    def test_sim2d_writes_snapshots(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "params": CASE3,
                "sim2d": {"mesh": "synthetic", "dt": 0.5, "t_end": 1.0, "output_times": [0.0, 1.0]},
            },
        )
        out = tmp_path / "out"
        run_config(path, "sim2d", out)
        index = (out / "snapshots.csv").read_text().splitlines()
        assert index[0] == "t,filename"
        assert len(index) == 3
        for row in index[1:]:
            assert (out / row.split(",")[1]).exists()
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        assert counters["half_step_retries"] == 0
        assert 0 < counters["newton_iterations"] <= counters["linear_iterations"]

    def test_sobol_requires_seed(self, tmp_path):
        path = write_config(
            tmp_path,
            {"params": {"r": 1.0, "P_h": 2.0}, "sobol": {"N": 4, "Nx": 11, "sample_every": 20.0}},
        )
        with pytest.raises(ConfigError, match="seed"):
            run_config(path, "sobol", tmp_path / "out")

    def test_sobol_runs_and_is_reproducible(self, tmp_path):
        path = write_config(
            tmp_path,
            {"params": {"r": 1.0, "P_h": 2.0}, "sobol": {"N": 4, "Nx": 11, "sample_every": 20.0}},
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_config(path, "sobol", out1, seed=42)
        run_config(path, "sobol", out2, seed=42)
        assert (out1 / "sobol_indices.csv").read_bytes() == (out2 / "sobol_indices.csv").read_bytes()
        assert json.loads((out1 / "manifest.json").read_text())["row_failures"] == []

    def test_sobol_manifest_records_row_failures(self, tmp_path, monkeypatch):
        solved = []

        # the 19th row solved, row 18, is a B row: it has no still-water
        # twin to share the failure
        def b_row_fails(*args, _fn=bloomsim.sensitivity.integrate_1d, **kwargs):
            runs = _fn(*args, **kwargs)
            solved.extend(range(len(solved), len(solved) + len(runs)))
            return [RuntimeError("injected failure") if k == 18 else run
                    for k, run in zip(solved[-len(runs):], runs)]

        monkeypatch.setattr(bloomsim.sensitivity, "integrate_1d", b_row_fails)
        path = write_config(tmp_path, {
            "params": {"r": 1.0, "P_h": 2.0},
            "sobol": {"N": 16, "Nx": 11, "horizon": 20.0, "bin_days": 10.0, "sample_every": 5.0},
        })
        out = tmp_path / "out"
        run_config(path, "sobol", out, seed=42)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["row_failures"] == [[18, "RuntimeError: injected failure"]]
        assert manifest["n_failed_blocks"] == 1

    def test_sobol_manifest_counters(self, tmp_path, monkeypatch):
        calls = []

        # rows run as one ensemble: each rhs_1d call evaluates every
        # running row, with one time per row
        def counted(t, *args, _fn=bloomsim.solver1d.rhs_1d, **kwargs):
            calls.append(len(t))
            return _fn(t, *args, **kwargs)

        path = write_config(tmp_path, {
            "params": {"r": 1.0, "P_h": 2.0},
            "sobol": {"N": 4, "Nx": 11, "horizon": 20.0, "bin_days": 10.0, "sample_every": 5.0},
        })

        def counters(threads):
            out = tmp_path / f"threads{threads}"
            run_config(path, "sobol", out, seed=42, threads=threads)
            return json.loads((out / "manifest.json").read_text())["counters"]

        parallel = counters(2)
        # counted in this process only: forked workers would count out of sight
        monkeypatch.setattr(bloomsim.solver1d, "rhs_1d", counted)
        serial = counters(1)
        # still water: each beta_B cross-matrix row reuses its A row's solve
        assert serial["solves"] == 4 * (len(FACTOR_NAMES) + 1)
        # one derivative per running row and round
        assert serial["nfev"] == sum(calls) > 0
        assert len(calls) < serial["nfev"]
        assert 0 < serial["njev"] <= serial["nlu"]
        assert parallel == serial

    def test_sobol_rows_file(self, tmp_path):
        body = {"Nx": 11, "horizon": 20.0, "bin_days": 10.0, "sample_every": 5.0}
        path = write_config(tmp_path, {"params": {"r": 1.0, "P_h": 2.0},
                                       "sobol": {"N": 2, **body}})
        texts = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            run_config(path, "sobol", out, seed=3, threads=threads)
            assert "sobol_rows.csv" in json.loads((out / "manifest.json").read_text())["outputs"]
            texts.append((out / "sobol_rows.csv").read_text())
        assert texts[0] == texts[1]
        with open(tmp_path / "threads1" / "sobol_rows.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        problem = SobolProblem(base_params=default_params(r=1.0, P_h=2.0), **body)
        samples = saltelli_design(problem, 2, 3).samples
        assert [int(row["row"]) for row in rows] == list(range(len(samples)))
        # each row's counters are those of its own solo run
        for row, values in zip(rows, samples):
            solo = _integrate_rows(problem, problem.row_params(values)).counters
            assert {key: int(row[key]) for key in solo} == solo
            assert row["message"] == ""
        # in still water each beta_B cross-matrix row shares its A row's solve
        assert [int(row["owner"]) for row in rows[12:]] == [0, 1]

    def test_manifest_hash_stable_and_config_echoed(self, tmp_path):
        body = {"params": CASE2, "stability": {"n_max": 3}}
        path = write_config(tmp_path, body)
        m1 = json.loads(run_config(path, "stability", tmp_path / "o1").read_text())
        # re-run from the echoed config: same hash, same outputs
        path2 = write_config(tmp_path, m1["config"], name="echo.json")
        m2 = json.loads(run_config(path2, "stability", tmp_path / "o2").read_text())
        assert m1["config_hash"] == m2["config_hash"]
        assert (tmp_path / "o1" / "spectrum.csv").read_bytes() == (
            tmp_path / "o2" / "spectrum.csv"
        ).read_bytes()


class TestStartup:
    """``scipy.stats`` serves only the Saltelli design, so a fresh process
    loads it with the first design it draws and not before; the package's
    own BDF integrator leaves ``scipy.integrate`` unloaded throughout."""

    SCRIPT = """
import json, sys
from bloomsim.cli import run_config
run_config(sys.argv[1], "ode", sys.argv[3] + "/ode")
run_config(sys.argv[2], "sim1d", sys.argv[3] + "/sim1d")
before = "scipy.stats" in sys.modules
integrate = "scipy.integrate" in sys.modules  # scipy.stats loads it
from bloomsim.sensitivity import default_problem, saltelli_design
samples = saltelli_design(default_problem(), 4, seed=7).samples
print(json.dumps({"before": before, "after": "scipy.stats" in sys.modules,
                  "integrate": integrate,
                  "shape": samples.shape, "first": samples[0].tolist(),
                  "last": samples[-1].tolist()}))
"""

    @pytest.fixture(scope="class")
    def startup(self, tmp_path_factory):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        out = tmp_path_factory.mktemp("startup")
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(CONFIGS_DIR / "ode_persistent.json"),
             str(CONFIGS_DIR / "sim1d_realwind.json"), str(out)],
            capture_output=True, text=True, env=env, check=True,
        )
        return json.loads(done.stdout.splitlines()[-1])

    def test_runs_without_a_design_leave_scipy_stats_unloaded(self, startup):
        assert startup["before"] is False

    def test_first_design_loads_scipy_stats(self, startup):
        assert startup["after"] is True

    def test_ode_and_sim1d_runs_leave_scipy_integrate_unloaded(self, startup):
        assert startup["integrate"] is False

    def test_design_is_unchanged(self, startup):
        # the N = 4, seed 7 desk design as drawn with qmc imported at module level
        assert startup["shape"] == [28, 5]
        np.testing.assert_allclose(startup["first"], [
            6.634079925715923, 0.7662562123499811, 0.09836902514100075,
            0.20868929978460074, 0.04677264520898462], rtol=1e-14)
        np.testing.assert_allclose(startup["last"], [
            9.15521290898323, 0.4640416802838445, 0.05286142555065454,
            0.017253091000020503, 0.05757349422201515], rtol=1e-14)


class TestBundledConfigs:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS_DIR.glob("*.json")))
    def test_bundled_configs_parse(self, name):
        load_config(CONFIGS_DIR / name)

    def test_measured_wind_demo_runs(self, tmp_path):
        # exercises the CSV wind path end to end on a short horizon
        out = tmp_path / "out"
        run_config(CONFIGS_DIR / "sim1d_realwind.json", "sim1d", out)
        assert (out / "solution.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "sim1d"


class TestExportCsv:
    def test_empty_rows_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        export_csv([], ["a", "b"], out)
        assert out.read_text().strip() == "a,b"

    def test_column_order_fixed(self, tmp_path):
        out = tmp_path / "cols.csv"
        export_csv([(1.0, 2.0, "x")], ["first", "second", "third"], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "first,second,third"

    def test_floats_round_trip(self, tmp_path):
        value = 0.1234567890123456789
        out = tmp_path / "prec.csv"
        export_csv([(value,)], ["v"], out)
        back = float(out.read_text().strip().splitlines()[1])
        assert back == value


class TestMain:
    def test_cli_happy_path(self, tmp_path, capsys):
        path = write_config(tmp_path, {"params": CASE2, "stability": {"n_max": 3}})
        code = main(["stability", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    def test_cli_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"params": {"nope": 1}})
        code = main(["ode", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, section, name, content", [
        ("sim2d", {"mesh": "bad.msh", "t_end": 1.0}, "bad.msh",
         "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n1\n1 0 0 0\n$EndNodes\n"
         "$Elements\n1\n1 2 2 0 1 1 2 9\n$EndElements\n"),
        ("sim1d", {"Nx": 11, "t_end": 1.0, "wind": {"mode": "csv", "csv": "bad.csv"}},
         "bad.csv", "timestamp,u_mps,v_mps\n0.0,1.0,0.0\nnoon,1.0,0.0\n"),
    ], ids=["mesh", "wind"])
    def test_bad_input_file_is_usage_error(self, tmp_path, capsys, subcommand, section,
                                           name, content):
        (tmp_path / name).write_text(content)
        path = write_config(tmp_path, {"params": CASE3, subcommand: section})
        code = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert str(tmp_path / name) in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, body, section", [
        ("ode", {"ode": {"t_end": "abc"}}, "ode"),
        ("ode", {"params": {"r": "x"}, "ode": {"t_end": 10.0}}, "params"),
        ("ode", {"params": {"r": -1}, "ode": {"t_end": 10.0}}, "params"),
        ("sim1d", {"sim1d": {"Nx": 2.7, "t_end": 1.0}}, "sim1d"),
        ("sim1d", {"sim1d": {"t_end": 1.0, "wind": {"mode": "synthetic", "period": 0}}},
         "sim1d"),
        ("sobol", {"sobol": {"N": 2, "Nx": 11, "ranges": {"z_m": [5, 2]}}}, "sobol"),
        ("ode", {"ode": {"initial": [1, 2]}}, "ode"),
        ("ode", {"ode": {"t_end": -5.0}}, "ode"),
        ("ode", {"ode": {"t_end": 10.0, "rtol": 0.0}}, "ode"),
        ("ode", {"ode": {"t_end": 10.0, "atol": -1e-12}}, "ode"),
        ("ode", {"ode": {"initial": [1.0, 1.0, 0.1], "t_end": 10.0}}, "ode"),
        ("sim1d", {"sim1d": {"Nx": 11, "t_end": 0.0}}, "sim1d"),
        ("sim1d", {"sim1d": {"Nx": 11, "t_end": 1.0, "rtol": -1e-8}}, "sim1d"),
        ("sim1d", {"sim1d": {"Nx": 11, "t_end": 1.0, "atol": 0.0}}, "sim1d"),
        ("sim2d", {"sim2d": {"t_end": 1.0, "dt": 0.0}}, "sim2d"),
        ("sim2d", {"sim2d": {"t_end": 1.0, "output_times": [0.0, 2.0]}}, "sim2d"),
        ("ode", {"ode": {"t_end": 10.0, "samples": 0}}, "ode"),
        ("sim1d", {"sim1d": {"Nx": 11, "t_end": 1.0, "samples": 0}}, "sim1d"),
        *[("sobol", {"sobol": {"N": 2, "Nx": 11, "horizon": 20.0, **bad}}, "sobol") for bad in (
            {"bin_days": 0.0}, {"sample_every": 0.0}, {"horizon": -10.0}, {"sample_every": -1.0},
            {"bin_days": 2.0, "sample_every": 5.0}, {"bin_days": -5.0}, {"L": float("inf")},
            {"L": 0.0}, {"Nx": 2}, {"initial": {"Q0": 0.5}}, {"initial": {"B_peak": -20.0}},
            {"initial": {"B_base": -1.0}}, {"initial": {"P0": -1.0}},
        )],
        ("stability", {"stability": {"n_max": 0}}, "stability"),
        ("stability", {"stability": {"wind_speed": float("nan")}}, "stability"),
        ("stability", {"stability": {"wind_speed": 1e308}}, "stability"),
        ("sim1d", {"sim1d": {"Nx": 11, "t_end": 1.0, "initial": {"kind": "uniform", "B": -1}}},
         "sim1d"),
        ("sim1d", {"sim1d": {"Nx": 11, "t_end": 1.0, "initial": {"Q0": 0.5}}}, "sim1d"),
        ("sim2d", {"sim2d": {"t_end": 1.0, "initial": {"kind": "uniform", "B": -1}}}, "sim2d"),
        ("sim2d", {"sim2d": {"t_end": 1.0, "initial": {"Q0": 0.001}}}, "sim2d"),
        ("ode", {"params": 5, "ode": {"t_end": 10.0}}, "params"),
        ("ode", {"ode": 5}, "ode"),
        ("sim2d", {"sim2d": ["dt"]}, "sim2d"),
        *[("sim1d", {"sim1d": {"Nx": 11, "t_end": 1.0,
                               "wind": {"mode": "synthetic", key: value}}}, "sim1d")
          for key, value in (("amplitude", float("nan")), ("period", float("nan")),
                             ("phase", float("inf")))],
        ("sobol", {"sobol": {"N": 1, "Nx": 11}}, "sobol"),
        ("sobol", {"sobol": {"N": 2, "Nx": 11, "ranges": {"z_m": [-4, 10]}}}, "sobol"),
        *[("stability", {"params": {**CASE3, "D": 0.0, "P_in": 0.1},
                         "stability": {"equilibrium": which}}, "stability")
          for which in ("extinction", "positive")],
        ("sim1d", {"sim1d": {"Nx": 11, "t_end": 1.0, "wind": {"mode": "csv"}}}, "sim1d"),
        ("sim1d", {"sim1d": {"Nx": 11, "t_end": 1.0, "L": float("inf")}}, "sim1d"),
    ], ids=["t_end", "r-type", "r-domain", "Nx", "wind-period", "range", "initial",
            "ode-t_end-sign", "ode-rtol", "ode-atol", "ode-initial-quota", "sim1d-t_end-sign",
            "sim1d-rtol", "sim1d-atol", "sim2d-dt", "sim2d-output_times", "ode-samples-zero",
            "sim1d-samples-zero", "sobol-bin_days-zero", "sobol-sample_every-zero",
            "sobol-horizon-sign", "sobol-sample_every-sign", "sobol-bin-without-sample",
            "sobol-bin_days-sign", "sobol-L-infinite", "sobol-L-zero", "sobol-Nx",
            "sobol-initial-quota", "sobol-initial-B_peak", "sobol-initial-B_base",
            "sobol-initial-P0", "stability-n_max-zero", "stability-wind_speed-nan",
            "stability-wind_speed-overflow", "sim1d-initial-B", "sim1d-initial-quota",
            "sim2d-initial-B", "sim2d-initial-quota", "params-not-object", "ode-not-object",
            "sim2d-not-object", "wind-amplitude-nan", "wind-period-nan", "wind-phase-inf",
            "sobol-N-one", "sobol-range-endpoint", "stability-no-equilibrium-extinction",
            "stability-no-equilibrium-positive", "wind-csv-missing", "sim1d-L-inf"])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, subcommand, body, section):
        path = write_config(tmp_path, {"params": CASE3, **body})
        code = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "1"])
        assert code == 2
        assert f"bad {section} section: " in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, section, key, value", [
        ("sim1d", {"t_end": 1.0}, "Nx", 11.9),
        ("sim1d", {"Nx": 11, "t_end": 1.0}, "samples", 2.5),
        ("ode", {"t_end": 1.0}, "samples", "many"),
        ("stability", {}, "n_max", 3.5),
        ("sobol", {"Nx": 11}, "N", 2.5),
        ("sobol", {"N": 2}, "Nx", 11.9),
    ], ids=["sim1d-Nx", "sim1d-samples", "ode-samples", "n_max", "sobol-N", "sobol-Nx"])
    def test_fractional_count_is_usage_error(self, tmp_path, capsys, subcommand, section,
                                             key, value):
        path = write_config(tmp_path, {"params": CASE3, subcommand: {**section, key: value}})
        code = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad {subcommand} section: {key} must be an integer" in err

    def test_integral_float_count_runs(self, tmp_path):
        path = write_config(tmp_path, {"params": CASE3,
                                       "sim1d": {"Nx": 11.0, "t_end": 1.0, "samples": 2.0}})
        out = tmp_path / "out"
        assert main(["sim1d", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "solution.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 11  # header, then 2 samples of 11 nodes

    def test_env_seed_pickup(self, tmp_path, monkeypatch, capsys):
        path = write_config(
            tmp_path,
            {"params": {"r": 1.0, "P_h": 2.0}, "sobol": {"N": 4, "Nx": 11, "sample_every": 20.0}},
        )
        monkeypatch.setenv("BLOOM_SEED", "5")
        code = main(["sobol", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 5

    @pytest.mark.parametrize("name, value", [("BLOOM_SEED", "abc"), ("BLOOM_THREADS", "two")])
    def test_malformed_env_is_usage_error(self, tmp_path, monkeypatch, capsys, name, value):
        path = write_config(tmp_path, {"params": CASE2, "ode": {"t_end": 10.0}})
        monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            main(["ode", "--config", str(path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"invalid int value: '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, {"params": CASE2, "stability": {"n_max": 3}})
        monkeypatch.setenv("BLOOM_SEED", "5")
        monkeypatch.setenv("BLOOM_THREADS", "two")
        code = main(["stability", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "9", "--threads", "1"])
        assert code == 0
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["seed"] == 9

    def test_empty_env_counts_as_unset(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, {"params": CASE2, "stability": {"n_max": 3}})
        for name in ("BLOOM_SEED", "BLOOM_THREADS", "BLOOM_OUT"):
            monkeypatch.setenv(name, "")
        monkeypatch.chdir(tmp_path)
        assert main(["stability", "--config", str(path)]) == 0
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["seed"] is None
