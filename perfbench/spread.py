"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --runs 10 [--workloads sobol lake] [--trace 1]

Runs ``run.py`` once per (seed, workload), seeds in the outer loop so the
workloads interleave, and prints for each workload and metric the median,
the quartiles and the quartile distance as a share of the median (the
figure each metric's ``bound`` in ``BENCHMARK.json`` is compared against).
With ``--trace 1`` it instead reports whether the exact counters repeat.
Every run's last two output lines go to ``.perfbench/spread.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT = ("core.reaction_rhs_calls", "ode.fallbacks", "solver1d.rhs_calls",
         "sensitivity.rows", "solver2d.step_calls")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    log = ROOT / ".perfbench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict = {w: {} for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in args.workloads:
            seeds = [seed, seed] if args.trace else [seed]
            for s in seeds:
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(s),
                       "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
                out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                lines = out.stdout.strip().splitlines()
                if out.returncode or len(lines) < 2:
                    print(f"{name} seed {s}: exit {out.returncode} {out.stderr[-500:]}")
                    return 1
                detail, line = json.loads(lines[-2]), json.loads(lines[-1])
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"detail": detail, "line": line}) + "\n")
                short = {k: round(v["value"], 4) if isinstance(v["value"], float) else v["value"]
                         for k, v in line["metrics"].items()
                         if args.trace == 0 or k in EXACT}
                print(f"seed {s} {name}: correct={line['correct']} {line['failed']}/{line['attempted']}"
                      f" {short} steal={detail['steal_s']}", flush=True)
                for k, v in line["metrics"].items():
                    values[name].setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for name, metrics in values.items():
        for k, vals in metrics.items():
            if args.trace:
                if k in EXACT:
                    pairs = list(zip(vals[::2], vals[1::2]))
                    print(f"{name:10s} {k:28s} repeats={all(a == b for a, b in pairs)} {pairs[:2]}")
                continue
            q = statistics.quantiles(vals, n=4)
            share = (q[2] - q[0]) / statistics.median(vals)
            if k != "setup_s":
                worst = max(worst, share / bounds[k])
            print(f"{name:10s} {k:12s} median={statistics.median(vals):.4f} "
                  f"q1={q[0]:.4f} q3={q[2]:.4f} iqr/median={share:.4f} bound={bounds[k]}")
    if not args.trace:
        print(f"worst spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
