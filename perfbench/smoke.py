"""The benchmark's own smoke test (about two minutes on two cores).

    python3 perfbench/smoke.py

1. Runs every workload at the ``tiny`` size, untraced and traced, and checks
   the output schema: the last line has exactly the keys ``correct``,
   ``attempted``, ``failed``, ``metrics``; every metric of ``BENCHMARK.json``
   is printed with its unit; end-to-end values are positive numbers;
   per-layer values are numbers, and those of the layers the workload
   exercises come from the workload itself, not from a probe.
2. Corrupts one output of each workload and checks that the correctness
   gate rejects it.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   ``perfbench/`` and checks that it exits non-zero without a result.

Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

#: Per-layer metrics each workload must measure itself.
EXERCISED = {
    "sobol": ["core.kernels_us", "solver1d.rhs_calls", "solver1d.rhs_us",
              "solver1d.integrate_self_s", "sensitivity.row_s_p50", "sensitivity.row_s_p90",
              "sensitivity.row_s_max", "sensitivity.self_s", "sensitivity.rows",
              "sensitivity.failed_blocks", "cli.self_s"],
    "sim": ["wind.parse_s", "wind.eval_us", "solver1d.rhs_calls", "solver1d.rhs_us",
            "solver1d.integrate_self_s", "solver1d.csv_s", "solver1d.csv_mb",
            "mesh.build_ms", "mesh.refine_s", "mesh.msh_write_s", "mesh.msh_load_s",
            "mesh.nodes", "mesh.triangles", "solver2d.steps", "solver2d.step_calls",
            "solver2d.retries", "solver2d.first_step_ms", "solver2d.step_ms_p50",
            "solver2d.step_ms_p90", "solver2d.step_ms_max", "solver2d.unknowns",
            "vtkio.write_ms_p50", "vtkio.mb", "cli.self_s"],
    "regime": ["core.reaction_rhs_us", "core.reaction_jacobian_us", "core.reaction_rhs_calls",
               "ode.integrate_ms_p50", "ode.integrate_ms_p90", "ode.equilibrium_ms_p50",
               "ode.equilibrium_ms_p90", "ode.fallbacks", "stability.sweep_ms_p50"],
}
ALWAYS = ["trace.overhead", "trace.uncovered_share"]


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def run_tiny(name: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_schema(bench: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run_tiny(name, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or len(lines) < 2:
                fail(f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-800:]}")
            detail, line = json.loads(lines[-2]), json.loads(lines[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name}: result keys {sorted(line)}")
            if not (line["correct"] is True and line["failed"] == 0
                    and isinstance(line["attempted"], int) and line["attempted"] >= 1):
                fail(f"{name} trace={trace}: {line['failed']}/{line['attempted']} failed: "
                     f"{detail['processes']}")
            if set(line["metrics"]) != {m["name"] for m in declared}:
                fail(f"{name} trace={trace}: metric names differ from BENCHMARK.json")
            for m in declared:
                got = line["metrics"][m["name"]]
                if got["unit"] != m["unit"]:
                    fail(f"{name}: {m['name']} unit {got['unit']} != {m['unit']}")
                value = got["value"]
                if (not isinstance(value, (int, float)) or isinstance(value, bool)
                        or (trace == 0 and not value > 0)):
                    fail(f"{name}: {m['name']} = {value!r}")
            if trace:
                probed = [k for k in EXERCISED[name] + ALWAYS if k in detail["probed"]]
                if probed:
                    fail(f"{name}: exercised layers taken from a probe: {probed}")
            print(f"ok   schema {name} trace={trace}")


def corrupt_transect(out_dir: Path, result):
    path = out_dir / "solution.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    t, x, B, *rest = lines[-1].split(",")
    lines[-1] = ",".join([t, x, repr(float(B) * 1.001)] + rest)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return result


def corrupt_vtk(out_dir: Path, result):
    last = sorted(out_dir.glob("*.vtk"))[-1]
    text = last.read_text(encoding="utf-8")
    head, tail = text.split("SCALARS B double 1\nLOOKUP_TABLE default\n")
    first, rest = tail.split("\n", 1)
    last.write_text(f"{head}SCALARS B double 1\nLOOKUP_TABLE default\n-{first}\n{rest}",
                    encoding="utf-8")
    return result


def corrupt_sobol(out_dir: Path, result):
    path = out_dir / "sobol_indices.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[5] = "nan"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return result


def corrupt_regime(out_dir: Path, result):
    point = result[0]
    point["verdict"] = "unstable" if point["verdict"] == "stable" else "stable"
    return result


CORRUPT = {"sobol": [corrupt_sobol], "regime": [corrupt_regime],
           "sim": [lambda out, result: corrupt_transect(out / "transect", result),
                   lambda out, result: corrupt_vtk(out / "lake_fine", result)]}


def check_gate() -> None:
    refs = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    scratch = ROOT / ".perfbench" / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        for name, wl in workloads.WORKLOADS.items():
            ref = refs["tiny"][name]
            ctx = wl.setup(wl.inputs("tiny", scratch, ROOT))
            for i, corrupt in enumerate([None] + CORRUPT[name]):
                out_dir = scratch / f"{name}-{i}"
                result = wl.run(ctx, out_dir)
                if corrupt:
                    result = corrupt(out_dir, result)
                summary, ops = wl.summarize(ctx, out_dir, result)
                ops = [p + q for p, q in zip(ops, wl.compare(ctx, summary, ref))]
                rejected = any(ops)
                if rejected != bool(corrupt):
                    fail(f"{name}: corrupt={bool(corrupt)} but problems={ops}")
            print(f"ok   gate {name} rejects {len(CORRUPT[name])} corrupted output(s)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_tiny("regime", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        print("ok   bare directory exits non-zero without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_bare_directory()
    check_gate()
    check_schema(bench)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
