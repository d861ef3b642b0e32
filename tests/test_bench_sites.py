"""The benchmark's wrap sites stay in place.

``perfbench/tracer.py`` measures per-layer metrics by wrapping library
functions at the module attribute where callers look them up.  A refactor
that renames such an attribute, or stops calling through it, turns those
metrics into silent gaps; these checks catch that at test time.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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

    params = default_params(r=1.0, P_h=0.2)
    integrate_homogeneous(HomState(5.0, 0.1, 0.15), params, 10.0)
    grid = Grid1D(100.0, 11)
    integrate_1d(Field1D.uniform(grid, 5.0, 0.02, 0.15), grid, None, params, 1.0)
    assert all(counts.values()), counts
