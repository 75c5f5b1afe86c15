"""Record the values the benchmark's output checks compare against.

    python3 perfbench/record_reference.py [--seeds 10]

Updates perfbench/reference.json in place:

* `design`: objective, fidelity and crosstalk of every sorter the
  workloads design, keyed by problem.  Record these only from a commit
  whose design numerics are trusted; a change meant to keep them must
  pass against the recorded values instead.
* `digests`: sha256 of the session-d25 `session.jsonl` and `counts.csv`
  files for seeds 0..N-1, at full and toy size, filed under the running
  numpy version, because the Philox-driven samplers are bit-stable only
  within one numpy version.

Run from the root of a source checkout, like run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# The same BLAS thread cap as run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    path = workloads.REFERENCE_PATH
    ref = json.loads(path.read_text()) if path.is_file() else {}
    ref.setdefault("design", {})
    ref.setdefault("digests", {})
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    work = ROOT / ".perfbench_runs" / "reference"
    try:
        for size in workloads.SIZES.values():
            for design in (v for v in size.values() if isinstance(v, workloads.Design)):
                out = work / design.key
                workloads.run_cli(design.argv(out))
                metrics = json.loads((out / "metrics.json").read_text())
                config = json.loads((out / "resolved_config.json").read_text())
                ref["design"][design.key] = {
                    "objective": config["objective"],
                    "fidelity": metrics["fidelity"],
                    "crosstalk": metrics["mean_crosstalk"],
                }
                print(design.key, ref["design"][design.key])
        digests = ref["digests"].setdefault(np.__version__, {})
        for size in workloads.SIZES.values():
            key = f"session/{size['session_rounds']}/{size['counts_d']}"
            for seed in range(args.seeds):
                session = workloads.session(size, seed, work)
                steps = {step.label: step for step in session.steps}
                files = {}
                for label in ("session-write", "counts-write"):
                    step = steps[label]
                    step.call()
                    got = workloads.digest_dir(step.out)
                    for name in ("session.jsonl", "counts.csv"):
                        files[f"{step.out.name}/{name}"] = got[name]
                digests.setdefault(key, {})[str(seed)] = files
                print(key, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
