"""bloomsim benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sim --seed 3 --seconds 35 --trace 0

Runs from the root of a source checkout and measures the library in
``src/``.  With ``--trace 0`` one fresh workload process repeats the call into
the program for the measuring time, two more only set up, and the last
stdout line reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_s`` (median time of the call into the program, outputs written,
checks excluded), ``setup_s`` (median over the three processes of spawn to
inputs ready, ``import bloomsim`` and program-side set-up included) and
``peak_rss_mb`` (peak resident set of the workload process).
With ``--trace 1`` one untraced and one traced process share the time and
the last line reports the per-layer metrics.  A layer the workload does not
reach is measured on a tiny-size operation of a workload that does (see
``worker.py``); the line before names those metrics under ``probed``.

Every result is checked (``workloads.py``); an operation that raises or
fails its check counts in ``failed`` and makes ``correct`` false.  The line
before the last one holds diagnostics: versions, the source digest, the
fail ratio with its base, ``/proc/stat`` steal time and a fixed-work
calibration loop before and after the run.  These never enter a metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3
# the whole run must end within this many seconds of its start
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def steal_seconds() -> float | None:
    """Machine-wide CPU time stolen by the hypervisor so far, in seconds."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: a gauge of the machine's speed now."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def spawn(spec: dict, work: Path, index: int, deadline: float) -> dict:
    """Run one workload process and return its result (or a failure record)."""
    spec = dict(spec, result=str(work / f"result-{index}.json"),
                spans_out=str(work / f"spans-{index}.json"))
    spec_path = work / f"spec-{index}.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: "1" for v in THREAD_VARS})
    spec["t_spawn"] = time.monotonic()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        error = proc.stderr.strip().splitlines()[-3:] if proc.returncode else None
    except subprocess.TimeoutExpired:
        error = [f"workload process killed after {timeout:.0f} s"]
    result_path = Path(spec["result"])
    if error is None and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if spec["trace"]:
            shutil.copy(spec["spans_out"], ROOT / ".perfbench" /
                        f"spans-{spec['workload']}-{spec['seed']}.json")
        return result
    return {"crashed": error or ["no result written"]}


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        record: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (final line, diagnostics)."""
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    wl = workloads.WORKLOADS[workload]
    work = ROOT / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        calib = [calibration_s()]
        steal0 = steal_seconds()
        ctx = wl.inputs(size, work, ROOT)
        refs = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
        ref = refs.get(size, {}).get(workload)
        spec = {"root": str(ROOT), "workload": workload, "seed": seed, "ctx": ctx,
                "reference": ref, "record": record, "work": str(work), "trace": False,
                "setup_only": False, "budget_s": seconds}
        if trace:
            plan = [dict(spec, budget_s=seconds / 2), dict(spec, budget_s=seconds / 2, trace=True)]
        else:
            plan = [spec] + [dict(spec, setup_only=True)] * (0 if record else SETUPS - 1)
        processes = [spawn(s, work, i, deadline) for i, s in enumerate(plan)]
        steal1 = steal_seconds()
        calib.append(calibration_s())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups = [r["setup_s"] for r in processes if "setup_s" in r]
    results = [r for r, s in zip(processes, plan) if not s["setup_only"]]
    done = [r for r in results if "crashed" not in r]
    # a process that died counts every operation it would have run as failed
    lost = wl.attempted(ctx) * sum("crashed" in r for r in processes)
    attempted = sum(r["attempted"] for r in done) + lost
    failed = sum(r["failed"] for r in done) + lost
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reasons = {}
    if trace:
        metrics, reasons = per_layer_line(bench["per_layer"], results)
    else:
        values = {
            "wall_s": statistics.median(done[0]["walls"]) if done else None,
            "setup_s": statistics.median(setups) if setups else None,
            "peak_rss_mb": done[0]["peak_rss_mb"] if done else None,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    line = {"correct": failed == 0,
            "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "environment": environment(),
        "fail_ratio": {"value": failed / max(attempted, 1), "failed": failed,
                       "attempted": attempted},
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "calibration_s": calib,
        "setup_s": setups,
        "processes": [{k: v for k, v in r.items()
                       if k not in ("layer", "reasons", "summary", "probed")}
                      for r in processes],
        "null_reasons": reasons,
        "probed": next((r["probed"] for r in results if "probed" in r), {}),
    }
    if record:
        detail["summary"] = done[0].get("summary") if done else None
    return line, detail


def per_layer_line(per_layer: list[dict], results: list[dict]) -> tuple[dict, dict]:
    """The per-layer line from the traced process; null values keep a reason."""
    untraced, traced = results
    values = dict(traced.get("layer", {}))
    reasons = dict(traced.get("reasons", {}))
    if "crashed" in traced:
        reasons = {m["name"]: "traced process failed" for m in per_layer}
    elif untraced.get("walls"):
        values["trace.overhead"] = (statistics.median(traced["walls"])
                                    / statistics.median(untraced["walls"]) - 1.0)
    metrics = {}
    for m in per_layer:
        value = values.get(m["name"])
        if value is None:
            reasons.setdefault(m["name"], "not reported by the traced process")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, {k: v for k, v in reasons.items() if metrics.get(k, {}).get("value") is None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bloomsim" / "__init__.py").is_file():
        print(f"error: no bloomsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    line, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
