"""One workload process: set up, repeat the timed call, check every result.

Started by ``run.py`` with the path of a JSON spec; writes its result as
JSON to the path the spec names.  A traced process then runs one tiny-size
operation of each other workload, traced and checked, for the layers its
own workload does not reach.  Run in a fresh interpreter so that
``setup_s`` (measured from the parent's spawn time, so it includes the
interpreter start and ``import bloomsim``) and ``peak_rss_mb`` belong to the
workload alone.
"""

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def _problem(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _micro(name, ctx, tracer):
    """Micro-timings of the kernels the workload leans on."""
    from bloomsim import core, solver1d, wind

    if name == "regime":
        params = core.default_params(r=1.0, P_h=0.2)
        state = core.HomState(16.2785, 0.1920, 0.0080)
        return {
            "core.reaction_rhs_us": tracer.micro_us(core.reaction_rhs, state, params),
            "core.reaction_jacobian_us": tracer.micro_us(
                core.reaction_jacobian, state.B, state.p, state.P, params),
        }
    if name == "sobol":
        params = core.default_params(r=1.0, P_h=2.0)
        f = solver1d.Field1D.bump(solver1d.Grid1D(1000.0, 41), P0=2.0)

        def kernels():
            core.growth_h(f.B, params)
            core.uptake_rho(f.Q, f.P, params)
            core.uptake_eta(f.B, f.p, f.P, params)

        return {"core.kernels_us": tracer.micro_us(kernels)}
    if name == "sim":
        with open(ctx["transect"]["wind"], encoding="utf-8") as fh:
            series = wind.parse_wind_records(fh)
        t0, t1 = series.span
        return {"wind.eval_us": tracer.micro_us(series.at, t0 + 0.37 * (t1 - t0))}
    return {}


def _op_outputs(out_dir: Path, summary) -> dict:
    """What the per-layer metrics need from one operation's outputs."""
    mib = 2.0 ** 20
    sizes = {}
    csv = sorted(out_dir.rglob("solution.csv"))
    if csv:
        sizes["csv_mb"] = csv[0].stat().st_size / mib
    vtk = sorted(out_dir.rglob("*.vtk"))
    if vtk:
        sizes["vtk_mb"] = statistics.median(p.stat().st_size for p in vtk) / mib
    if summary and "n_failed_blocks" in summary:
        sizes["failed_blocks"] = summary["n_failed_blocks"]
    if summary and "points" in summary:
        sizes["points"] = len(summary["points"])
    return sizes


def _probe(wl, tracer, tracing, root: Path, probe_dir: Path, ref) -> tuple[dict, list]:
    """One traced operation of another workload at the ``tiny`` size.

    It gives the per-layer metrics of the layers the measured workload does
    not reach; returns (values, one problem list per checked operation).
    """
    probe_dir.mkdir(parents=True)
    first = len(tracer.spans)
    ctx = wl.setup(wl.inputs("tiny", probe_dir, root))
    setup_spans = tracer.spans[first:]
    out_dir = probe_dir / "out"
    try:
        result, record = tracer.root(wl.run, ctx, out_dir)
        summary, problems = wl.summarize(ctx, out_dir, result)
        problems = [p + q for p, q in zip(problems, wl.compare(ctx, summary, ref))]
    except Exception as exc:  # noqa: BLE001 - a failed probe is a benchmark outcome
        return {}, [[f"probe {wl.name}: {_problem(exc)}"]] * wl.attempted(ctx)
    values, _ = tracing.layer_metrics(wl.name, [record], setup_spans,
                                      _micro(wl.name, ctx, tracing), _op_outputs(out_dir, summary))
    return values, problems


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import bloomsim.cli  # noqa: F401  (part of set-up: the CLI users' import)

    if not Path(bloomsim.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"bloomsim imported from {bloomsim.__file__}, not from {root / 'src'}")
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[spec["workload"]]
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    ctx = wl.setup(spec["ctx"])
    setup_s = time.monotonic() - spec["t_spawn"]
    setup_spans = list(tracer.spans) if tracer else []

    if spec["setup_only"]:
        Path(spec["result"]).write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
        return

    ref = spec.get("reference")
    work = Path(spec["work"])
    walls, op_records, problems, summaries = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        out_dir = work / f"out-{len(walls)}"
        result = summary = None
        op_problems = None
        t0 = time.perf_counter()
        try:
            if tracer:
                result, record = tracer.root(wl.run, ctx, out_dir)
                op_records.append(record)
            else:
                result = wl.run(ctx, out_dir)
        except Exception as exc:  # noqa: BLE001 - a failed call is a benchmark outcome
            op_problems = [[_problem(exc)]] * wl.attempted(ctx)
        wall = time.perf_counter() - t0
        if op_problems is None:
            try:
                summary, op_problems = wl.summarize(ctx, out_dir, result)
                if spec["record"]:
                    summaries.append(summary)
                elif ref is None:
                    op_problems = [p + ["no reference recorded"] for p in op_problems]
                else:
                    extra = wl.compare(ctx, summary, ref)
                    op_problems = [p + q for p, q in zip(op_problems, extra)]
            except Exception as exc:  # noqa: BLE001 - unreadable output fails the check
                op_problems = [[f"check: {_problem(exc)}"]] * wl.attempted(ctx)
        outputs = _op_outputs(out_dir, summary)
        shutil.rmtree(out_dir, ignore_errors=True)
        walls.append(wall)
        attempted += len(op_problems)
        failed += sum(1 for p in op_problems if p)
        problems += [p for ps in op_problems for p in ps][:5 - len(problems)]
        elapsed = time.perf_counter() - start
        if spec["record"] or elapsed + (time.perf_counter() - t0) > spec["budget_s"]:
            break

    out = {
        "setup_s": setup_s,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if spec["record"]:
        out["summary"] = summaries[0] if summaries else None
    if tracer:
        micro = _micro(wl.name, ctx, tracing)
        values, reasons = tracing.layer_metrics(wl.name, op_records, setup_spans, micro, outputs)
        counts = [tracing.op_counts(r) for r in op_records]
        # layers this workload does not reach are measured on a tiny-size
        # operation of the workload that does, so every metric is a number
        probed = {}
        refs = json.loads((Path(__file__).parent / "references.json").read_text(encoding="utf-8"))
        for other in workloads.WORKLOADS.values():
            if other is wl or not reasons:
                continue
            probe, probe_problems = _probe(other, tracer, tracing, root, work / f"probe-{other.name}",
                                           refs["tiny"][other.name])
            out["attempted"] += len(probe_problems)
            out["failed"] += sum(1 for p in probe_problems if p)
            out["problems"] += [p for ps in probe_problems for p in ps][:5]
            for key, value in probe.items():
                if values.get(key) is None and value is not None:
                    values[key] = value
                    probed[key] = other.name
                    reasons.pop(key, None)
        out.update(layer=values, reasons=reasons, probed=probed, missing_sites=tracer.missing,
                   counts=counts[0] if counts else {},
                   counters_repeat=all(c == counts[0] for c in counts))
        Path(spec["spans_out"]).write_text(
            json.dumps({"setup": setup_spans, "ops": [r["spans"] for r in op_records]}),
            encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
