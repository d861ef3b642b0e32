"""The benchmark's wrap sites stay in place.

``perfbench/tracer.py`` measures per-layer metrics by wrapping library
functions at the module attribute where callers look them up.  A refactor
that renames such an attribute, or stops calling through it, turns those
metrics into silent gaps; these checks catch that at test time.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from bloomsim import cli
from bloomsim.core import HomState, default_params
from bloomsim.ode import integrate_homogeneous
from bloomsim.solver1d import Field1D, Grid1D, integrate_1d


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
SITES = [site[:2] for site in TRACER.SPAN_SITES + TRACER.COUNT_SITES]


@pytest.mark.parametrize("module_name, attr", SITES, ids=[".".join(s) for s in SITES])
def test_wrap_site_resolves_to_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_count_sites_are_entered(monkeypatch):
    counts = {name: 0 for _, _, name in TRACER.COUNT_SITES}
    for module_name, attr, name in TRACER.COUNT_SITES:
        module = importlib.import_module(module_name)

        def counted(*args, _fn=getattr(module, attr), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    # one count per integrand evaluation: a call past the count site, or
    # two per evaluation, would skew the benchmark's call counters
    params = default_params(r=1.0, P_h=0.2)
    hom = integrate_homogeneous(HomState(5.0, 0.1, 0.15), params, 10.0)
    grid = Grid1D(100.0, 11)
    traj = integrate_1d(Field1D.uniform(grid, 5.0, 0.02, 0.15), grid, None, params, 1.0)
    assert counts == {"solver1d.rhs_1d": traj.counters["nfev"],
                      "core.reaction_rhs": hom.counters["nfev"]}, counts
    assert all(counts.values()), counts


# the writer span sites each subcommand enters; a writer called past its
# bloomsim.cli lookup would drop out of the per-layer metrics unnoticed
WRITER_RUNS = {
    "stability": ({"n_max": 2}, {"export_csv"}),
    "sim1d": ({"Nx": 11, "t_end": 1.0, "samples": 3}, {"write_trajectory_csv", "export_csv"}),
    "sim2d": ({"mesh": "synthetic", "dt": 0.5, "t_end": 0.5, "output_times": [0.0, 0.5]},
              {"write_vtk", "export_csv"}),
    "sobol": ({"N": 2, "Nx": 11, "horizon": 10.0, "bin_days": 5.0, "sample_every": 1.0},
              {"write_report_csv"}),
}


def test_cli_writer_sites_are_entered(tmp_path, monkeypatch):
    writers = set().union(*(sites for _, sites in WRITER_RUNS.values()))
    assert writers <= {attr for module_name, attr, *_ in TRACER.SPAN_SITES
                       if module_name == "bloomsim.cli"}
    entered = []
    for attr in writers:
        def recorded(*args, _fn=getattr(cli, attr), _attr=attr, **kwargs):
            entered.append(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, attr, recorded)

    for subcommand, (section, expected) in WRITER_RUNS.items():
        path = tmp_path / f"{subcommand}.json"
        path.write_text(json.dumps({"params": {"r": 1.0, "P_h": 2.0}, subcommand: section}))
        entered.clear()
        cli.run_config(path, subcommand, tmp_path / subcommand, seed=1)
        assert set(entered) == expected, subcommand
