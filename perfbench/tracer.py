"""Spans and exact counters recorded from outside the program.

Public functions are wrapped at the module attribute where the caller looks
them up (``bloomsim.cli.integrate_1d`` for the CLI, ``bloomsim.sensitivity.
integrate_1d`` for Sobol rows, ...), so the program and scipy stay
untouched.  A span records its name, start, end and parent; every span also
accumulates the time of its direct children, which gives self time as
duration minus ``child_s``.  Functions called thousands of times per run
(``rhs_1d``, ``reaction_rhs``) are counted and timed without a span record.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

import numpy as np

#: (module, attribute, span name, note on the result).  Every attribute is
#: wrapped where it is looked up, not where it is defined.
SPAN_SITES = [
    ("bloomsim.cli", "run_config", "cli.run_config", None),
    ("bloomsim.cli", "load_config", "cli.load_config", None),
    ("bloomsim.cli", "_write_manifest", "cli.write_manifest", None),
    ("bloomsim.cli", "export_csv", "cli.export_csv", None),
    ("bloomsim.cli", "parse_wind_records", "wind.parse", None),
    ("bloomsim.cli", "integrate_1d", "solver1d.integrate_1d", None),
    ("bloomsim.cli", "write_trajectory_csv", "solver1d.write_csv", None),
    ("bloomsim.cli", "load_gmsh_mesh", "mesh.msh_load", "mesh"),
    ("bloomsim.cli", "simulate_2d", "solver2d.simulate_2d", None),
    ("bloomsim.cli", "write_vtk", "vtkio.write_vtk", None),
    ("bloomsim.cli", "run_sensitivity", "sensitivity.run_sensitivity", None),
    ("bloomsim.cli", "write_report_csv", "sensitivity.write_report_csv", None),
    ("bloomsim.sensitivity", "_evaluate_row", "sensitivity.row", "row"),
    ("bloomsim.sensitivity", "integrate_1d", "solver1d.integrate_1d", None),
    ("bloomsim.solver2d", "newton_be_step", "solver2d.newton_be_step", None),
    ("bloomsim.ode", "integrate_homogeneous", "ode.integrate_homogeneous", None),
    ("bloomsim.ode", "find_equilibrium", "ode.find_equilibrium", None),
    ("bloomsim.stability", "mode_sweep", "stability.mode_sweep", None),
    ("bloomsim.mesh", "synthetic_lake_mesh", "mesh.build", "mesh"),
    ("bloomsim.mesh", "refine_uniform", "mesh.refine", "mesh"),
    ("bloomsim.mesh", "write_msh22", "mesh.msh_write", None),
]
COUNT_SITES = [
    ("bloomsim.solver1d", "rhs_1d", "solver1d.rhs_1d"),
    ("bloomsim.ode", "reaction_rhs", "core.reaction_rhs"),
]

NOTES = {
    "mesh": lambda m: {"nodes": int(m.n_nodes), "triangles": int(m.n_triangles)},
    "row": lambda r: {"failed": r[2] is not None},
}


class Tracer:
    """In-memory span and counter store for one workload process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, list] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, name, note in SPAN_SITES:
            self._patch(module_name, attr, lambda fn, n=name, k=note: self._span(fn, n, NOTES.get(k)))
        for module_name, attr, name in COUNT_SITES:
            self._patch(module_name, attr, lambda fn, n=name: self._count(fn, n))

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, functools.wraps(fn)(make(fn)))

    def _span(self, fn, name, note):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "parent": parent, "child_s": 0.0}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent]["child_s"] += span["end"] - span["start"]
            if note is not None:
                span["note"] = note(result)
            return result

        return traced

    def _count(self, fn, name):
        tally = self.calls.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                tally[0] += 1
                tally[1] += took
                if self._stack:
                    self.spans[self._stack[-1]]["child_s"] += took

        return counted

    def root(self, fn, *args):
        """Run ``fn`` as one benchmark operation; returns (result, op record)."""
        before = {k: list(v) for k, v in self.calls.items()}
        first = len(self.spans)
        result = self._span(fn, "op", None)(*args)
        calls = {k: [v[0] - before.get(k, [0, 0.0])[0], v[1] - before.get(k, [0, 0.0])[1]]
                 for k, v in self.calls.items()}
        return result, {"spans": self.spans[first:], "offset": first, "calls": calls}


def op_counts(record: dict) -> dict:
    """Exact counts of one operation: counted calls and spans by name."""
    counts = {name: tally[0] for name, tally in record["calls"].items()}
    for span in record["spans"]:
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    return counts


def _dur(span) -> float:
    return span["end"] - span["start"]


def _self(span) -> float:
    return _dur(span) - span["child_s"]


def _pct(values, q):
    return float(np.percentile(values, q)) if values else None


def micro_us(fn, *args, calls=2000, batches=5) -> float:
    """Median over batches of the time per call, in microseconds."""
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times) * 1e6


def layer_metrics(workload: str, ops: list[dict], setup_spans: list[dict],
                  micro: dict, outputs: dict) -> tuple[dict, dict]:
    """Per-layer values for one workload: (values, reasons for None values).

    ``ops`` holds one record per traced operation (see :meth:`Tracer.root`);
    times are medians over operations and counts come from the first one
    (:func:`op_counts` shows whether later ones agree).
    """
    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    if not ops:
        return values, reasons

    def per_op(fn):
        out = [fn(op) for op in ops]
        out = [v for v in out if v is not None]
        return statistics.median(out) if out else None

    def named(op, name, parent_name=None):
        spans = op["spans"]
        base = op["offset"]
        picked = []
        for s in spans:
            if s["name"] != name:
                continue
            if parent_name is not None:
                p = s["parent"]
                if p is None or p < base or spans[p - base]["name"] != parent_name:
                    continue
            picked.append(s)
        return picked

    def put(metric, value, why):
        values[metric] = value
        if value is None:
            reasons[metric] = why

    def pooled(name, scale, q, parent=None):
        return _pct([scale * _dur(s) for op in ops for s in named(op, name, parent)], q)

    never = "span {} never entered on workload " + workload

    # core
    for key in ("core.reaction_rhs_us", "core.reaction_jacobian_us", "core.kernels_us"):
        put(key, micro.get(key), f"micro-timed only on the workloads that call it, not {workload}")
    count = ops[0]["calls"].get("core.reaction_rhs", [0])[0]
    points = outputs.get("points")
    put("core.reaction_rhs_calls", count / points if points and count else None,
        f"reaction_rhs is not called through bloomsim.ode on workload {workload}")

    # ode
    put("ode.integrate_ms_p50", pooled("ode.integrate_homogeneous", 1e3, 50, "op"),
        never.format("ode.integrate_homogeneous"))
    put("ode.integrate_ms_p90", pooled("ode.integrate_homogeneous", 1e3, 90, "op"),
        never.format("ode.integrate_homogeneous"))
    put("ode.equilibrium_ms_p50", pooled("ode.find_equilibrium", 1e3, 50),
        never.format("ode.find_equilibrium"))
    put("ode.equilibrium_ms_p90", pooled("ode.find_equilibrium", 1e3, 90),
        never.format("ode.find_equilibrium"))
    has_eq = any(named(op, "ode.find_equilibrium") for op in ops)
    put("ode.fallbacks",
        len(named(ops[0], "ode.integrate_homogeneous", "ode.find_equilibrium")) if has_eq else None,
        never.format("ode.find_equilibrium"))

    # stability
    put("stability.sweep_ms_p50", pooled("stability.mode_sweep", 1e3, 50),
        never.format("stability.mode_sweep"))

    # wind
    put("wind.parse_s", per_op(lambda op: sum(map(_dur, named(op, "wind.parse"))) or None),
        never.format("wind.parse"))
    put("wind.eval_us", micro.get("wind.eval_us"),
        f"WindSeries.at is micro-timed only on workloads with a wind file, not {workload}")

    # solver1d
    rhs = ops[0]["calls"].get("solver1d.rhs_1d", [0, 0.0])
    put("solver1d.rhs_calls", rhs[0] or None, never.format("solver1d.rhs_1d"))
    put("solver1d.rhs_us",
        per_op(lambda op: 1e6 * op["calls"]["solver1d.rhs_1d"][1] / op["calls"]["solver1d.rhs_1d"][0]
               if op["calls"].get("solver1d.rhs_1d", [0])[0] else None),
        never.format("solver1d.rhs_1d"))
    put("solver1d.integrate_self_s",
        per_op(lambda op: sum(map(_self, named(op, "solver1d.integrate_1d"))) or None),
        never.format("solver1d.integrate_1d"))
    put("solver1d.csv_s", per_op(lambda op: sum(map(_dur, named(op, "solver1d.write_csv"))) or None),
        never.format("solver1d.write_csv"))
    put("solver1d.csv_mb", outputs.get("csv_mb"), f"workload {workload} writes no solution.csv")

    # sensitivity
    rows = [_dur(s) for op in ops for s in named(op, "sensitivity.row")]
    for key, q in (("p50", 50), ("p90", 90), ("max", 100)):
        put(f"sensitivity.row_s_{key}", _pct(rows, q), never.format("sensitivity.row"))
    put("sensitivity.self_s",
        per_op(lambda op: sum(map(_self, named(op, "sensitivity.run_sensitivity"))) or None),
        never.format("sensitivity.run_sensitivity"))
    put("sensitivity.rows", len(named(ops[0], "sensitivity.row")) or None,
        never.format("sensitivity.row"))
    put("sensitivity.failed_blocks", outputs.get("failed_blocks"),
        f"workload {workload} runs no Saltelli design")

    # mesh: lake_fine builds, refines and writes its mesh in set-up, and the
    # CLI call loads it
    every = setup_spans + [s for op in ops[:1] for s in op["spans"]]

    def mesh_time(name, scale):
        spans = [s for s in every if s["name"] == name]
        return scale * sum(map(_dur, spans)) if spans else None

    put("mesh.build_ms", mesh_time("mesh.build", 1e3), never.format("mesh.build"))
    put("mesh.refine_s", mesh_time("mesh.refine", 1.0), never.format("mesh.refine"))
    put("mesh.msh_write_s", mesh_time("mesh.msh_write", 1.0), never.format("mesh.msh_write"))
    put("mesh.msh_load_s", per_op(lambda op: sum(map(_dur, named(op, "mesh.msh_load"))) or None),
        never.format("mesh.msh_load"))
    used = [s["note"] for s in every if s["name"] in ("mesh.build", "mesh.msh_load", "mesh.refine")
            and "note" in s]
    put("mesh.nodes", used[-1]["nodes"] if used else None, never.format("mesh.build/msh_load"))
    put("mesh.triangles", used[-1]["triangles"] if used else None,
        never.format("mesh.build/msh_load"))

    # solver2d: top-level steps are children of simulate_2d, nested ones are
    # the half-step retries of a step that failed to converge
    steps = named(ops[0], "solver2d.newton_be_step", "solver2d.simulate_2d")
    calls = named(ops[0], "solver2d.newton_be_step")
    why = never.format("solver2d.newton_be_step")
    put("solver2d.steps", len(steps) or None, why)
    put("solver2d.step_calls", len(calls) or None, why)
    top = {id(s) for s in steps}
    retried = {s["parent"] for s in calls if id(s) not in top}
    put("solver2d.retries", len(retried) if calls else None, why)
    put("solver2d.first_step_ms", per_op(
        lambda op: 1e3 * _dur(named(op, "solver2d.newton_be_step", "solver2d.simulate_2d")[0])
        if named(op, "solver2d.newton_be_step") else None), why)
    put("solver2d.step_ms_p50", pooled("solver2d.newton_be_step", 1e3, 50, "solver2d.simulate_2d"), why)
    put("solver2d.step_ms_p90", pooled("solver2d.newton_be_step", 1e3, 90, "solver2d.simulate_2d"), why)
    put("solver2d.step_ms_max", pooled("solver2d.newton_be_step", 1e3, 100, "solver2d.simulate_2d"), why)
    put("solver2d.unknowns", 3 * used[-1]["nodes"] if steps and used else None, why)

    # vtkio
    put("vtkio.write_ms_p50", pooled("vtkio.write_vtk", 1e3, 50), never.format("vtkio.write_vtk"))
    put("vtkio.mb", outputs.get("vtk_mb"), f"workload {workload} writes no VTK file")

    # cli
    put("cli.self_s", per_op(lambda op: sum(map(_self, named(op, "cli.run_config"))) or None),
        f"workload {workload} does not go through bloomsim.cli.run_config")

    # share of each operation that no layer span covers: the self time of the
    # operation and of the CLI entry
    put("trace.uncovered_share", per_op(
        lambda op: (_self(op["spans"][0]) + sum(map(_self, named(op, "cli.run_config"))))
        / _dur(op["spans"][0])), "no operation traced")
    return values, reasons
