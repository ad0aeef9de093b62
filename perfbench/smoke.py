"""Smoke test of the benchmark on tiny inputs.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs run.py with ``--tiny`` twice
untraced and once traced, each in a fresh interpreter, and checks that every
named metric is printed, that no operation failed, and that definite_frac
repeats exactly between the two untraced runs.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        results = [run(workload, 0), run(workload, 0), run(workload, 1)]
        for trace, result in zip((0, 0, 1), results):
            printed = set(result["metrics"])
            if printed != names[trace]:
                problems.append(
                    f"{workload} trace {trace}: missing {sorted(names[trace] - printed)}, "
                    f"unlisted {sorted(printed - names[trace])}"
                )
            failed_frac = result["failed"] / result["attempted"]
            if failed_frac != 0 or not result["correct"]:
                problems.append(f"{workload} trace {trace}: failed_frac {failed_frac}")
        first, second = (r["metrics"]["definite_frac"]["value"] for r in results[:2])
        if first != second:
            problems.append(f"{workload}: definite_frac {first} then {second}")
        print(f"{workload}: {'ok' if len(problems) == before else 'FAIL'}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
