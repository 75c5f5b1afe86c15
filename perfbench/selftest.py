"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs the `toy` workload (a d=4 sorter on a 32x32 grid, the pipeline
with a 1k-round session, a 1k-round session workload and a 2:16
threshold scan) untraced and traced.  Passes when both runs exit 0,
print a result line of the documented shape whose metrics are exactly
those BENCHMARK.json lists, with their units, and every output check
passes.  Also checks that BENCHMARK.json repeats metrics.py.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE_KEYS = {"nproc", "blas_thread_cap", "python", "numpy", "scipy", "platform",
                   "git_sha", "seed"}


def check_benchmark_json(bench: dict) -> list[str]:
    problems = []
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    want = {name: (unit, better, bound)
            for name, (unit, better, bound, _) in metrics.END_TO_END.items()}
    if e2e != want:
        problems.append(f"end_to_end differs from metrics.END_TO_END: {e2e} != {want}")
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    want = {name: (unit, better) for name, unit, better, *_ in metrics.PER_LAYER}
    if layer != want:
        problems.append("per_layer differs from metrics.PER_LAYER")
    return problems


def check_run(trace: int, expected: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result, prov = json.loads(lines[-1]), json.loads(lines[-2])["provenance"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"trace {trace}: output checks failed: {proc.stderr[-2000:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"trace {trace}: metrics {sorted(got.items())} "
                        f"!= {sorted(expected.items())}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"trace {trace}: {name} = {m['value']!r}")
    if not PROVENANCE_KEYS <= set(prov):
        problems.append(f"trace {trace}: provenance lacks {PROVENANCE_KEYS - set(prov)}")
    if not prov.get("digest_checked"):
        problems.append(f"trace {trace}: no recorded digest for numpy {prov.get('numpy')}")
    if prov.get("unmeasured"):
        problems.append(f"trace {trace}: the toy pass never measured {prov['unmeasured']}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_benchmark_json(bench)
    problems += check_run(0, {m["name"]: m["unit"] for m in bench["end_to_end"]})
    problems += check_run(1, {m["name"]: m["unit"] for m in bench["per_layer"]})
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
