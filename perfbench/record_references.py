"""Record the reference results the benchmark's checks compare against.

    python3 perfbench/record_references.py [workload ...]

Runs each workload once at both sizes and writes the checked quantities to
``perfbench/references.json``.  Re-record only on a commit whose results are
trusted: the references define what "correct" means for later changes.
"""

import json
import sys

import run
import workloads


def _rounded(value):
    # 12 significant digits keep the file small and sit far below every
    # tolerance the checks apply
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def main(names) -> int:
    path = run.BENCH / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8"))
    for size in ("full", "tiny"):
        for name in names:
            line, detail = run.run(name, 0, 0.0, False, size, record=True)
            if not line["correct"] or detail["summary"] is None:
                print(f"{size} {name} failed: {detail['processes']}", file=sys.stderr)
                return 1
            refs.setdefault(size, {})[name] = _rounded(detail["summary"])
            print(f"{size} {name} recorded", flush=True)
    path.write_text(json.dumps(refs, indent=None, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
