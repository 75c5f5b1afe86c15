"""hdqkd benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload sorter-d25 --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Set-up runs five times and is timed; then the workload's steps
repeat, each issued after the previous one returned, until they have
taken `--seconds` (at least one pass; output checks run between passes
and are not counted).  Times are reported in calibrated seconds (see
CAL_REF_S).  `--trace 0` reports the end-to-end metrics.  `--trace 1`
pairs every untraced pass with a traced one, reports the per-layer
metrics from the traced passes and the difference as
`trace.overhead_s`, and fills a metric whose function the workload
never calls from a traced toy-size pass of all workloads.

The last line of standard output is the result object; the line before
it is the run's provenance.  Spans, per-step times and provenance are
also written to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
# A shared host's speed drifts over minutes by more than an affordable
# run length averages away.  So the run also times a fixed kernel
# (calibrate.py, in a child process) just before and just after each
# segment of steps, a segment closing once it has taken CAL_GAP_S.  A
# step's time is scaled by CAL_REF_S / (mean of the two kernel times
# bracketing its segment): calibrated seconds, which read as seconds on a
# host where the kernel takes CAL_REF_S.  This follows the host's speed
# from step to step, not within a step.  Raw step times, the kernel times
# and the factors are kept in the run record.
CAL_REF_S = 0.1
CAL_GAP_S = 0.5


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sorter-d25", "session-d25", "thresholds-scan", "toy"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args()


ARGS = _parse_args()

# One caller on `nproc` CPUs: cap every BLAS/OpenMP pool before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

if not (ROOT / "src" / "hdqkd" / "__init__.py").is_file():
    sys.exit(f"error: no hdqkd sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import hdqkd  # noqa: E402
import numpy as np  # noqa: E402

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

if Path(hdqkd.__file__).resolve().parent != ROOT / "src" / "hdqkd":
    sys.exit(f"error: imported hdqkd from {hdqkd.__file__}, not from {ROOT / 'src'}")


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance() -> dict:
    return {
        "workload": ARGS.workload,
        "seed": ARGS.seed,
        "seconds": ARGS.seconds,
        "trace": ARGS.trace,
        "nproc": NPROC,
        "blas_thread_cap": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "hdqkd": hdqkd.__version__,
    }


class Calibration:
    """Kernel times from calibrate.py, sampled on demand; see CAL_REF_S."""

    def __init__(self):
        self.samples: list[float] = []
        self.at = -math.inf  # perf_counter when the last sample ended
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("calibrate.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        """Time the kernel once; returns its seconds."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration kernel exited with {self._proc.wait()}")
        self.samples.append(float(line))
        self.at = time.perf_counter()
        return self.samples[-1]

    def recent(self) -> float:
        """The last kernel time, sampled anew if older than CAL_GAP_S."""
        if time.perf_counter() - self.at > CAL_GAP_S:
            self.sample()
        return self.samples[-1]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()


def factor(before: float, after: float) -> float:
    """Scale of a time bracketed by kernel times `before` and `after`."""
    return 2.0 * CAL_REF_S / (before + after)


def import_times() -> list[float]:
    """Process start to `import hdqkd` done, in fresh interpreters."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import hdqkd"
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return times


class Runner:
    """Issues steps one at a time and counts attempts and failures."""

    def __init__(self, tracer: spans.Tracer, calibration: Calibration):
        self.tracer = tracer
        self.calibration = calibration
        self.attempted = 0
        self.measured = 0.0  # seconds in steps and calibration, not checks
        self.failures: list[str] = []
        self._digests: dict[Path, dict] = {}

    def cycle(self, workload: workloads.Workload, traced=None) -> dict[str, list[float]]:
        """Run every step once, traced as cycle `traced` unless None, then
        check the outputs untraced.  Returns label -> [raw seconds,
        calibration factor] for every step that completed."""
        times, factors, results = {}, {}, {}
        start = time.perf_counter()
        before = self.calibration.recent()
        segment, segment_s = [], 0.0
        with self.tracer.installed(traced) if traced is not None else contextlib.nullcontext():
            for step in workload.steps:
                self.attempted += 1
                t = time.perf_counter()
                try:
                    with self.tracer.span(step.kind, label=step.label):
                        results[step.label] = step.call()
                        times[step.label] = time.perf_counter() - t
                except Exception as exc:  # a failed step is counted, not fatal
                    self.failures.append(f"{step.label}: {type(exc).__name__}: {exc}")
                segment.append(step.label)
                segment_s += time.perf_counter() - t
                if segment_s >= CAL_GAP_S or step is workload.steps[-1]:
                    after = self.calibration.sample()
                    factors.update(dict.fromkeys(segment, factor(before, after)))
                    before, segment, segment_s = after, [], 0.0
        self.measured += time.perf_counter() - start
        for step in workload.steps:
            if step.label in results:
                self._check(step, results[step.label])
        return {label: [raw, factors[label]] for label, raw in times.items()}

    def _check(self, step: workloads.Step, result) -> None:
        try:
            if step.out in self._digests:
                workloads.expect(workloads.digest_dir(step.out) == self._digests[step.out],
                                 "outputs differ from the first cycle")
                return
            step.check(result)
            if step.out is not None:
                self._digests[step.out] = workloads.digest_dir(step.out)
        except Exception as exc:  # every failed check counts against the step
            self.failures.append(f"{step.label} check: {type(exc).__name__}: {exc}")


def _span_cycles(tracer: spans.Tracer) -> dict:
    """Traced spans grouped by cycle id, with duration, self time and
    the parent's name added."""
    selfs = spans.self_times(tracer.spans)
    cycles: dict = {}
    for item, self_s in zip(tracer.spans, selfs):
        if item["run"] is None:
            continue
        parent = item["parent"]
        cycles.setdefault(item["run"], []).append({
            **item,
            "dur": item["end"] - item["start"],
            "self": self_s,
            "parent_name": None if parent is None else tracer.spans[parent]["name"],
        })
    return cycles


def main() -> int:
    work = RUNS / f"work-{os.getpid()}"
    tracer = spans.Tracer()
    calibration = Calibration()
    runner = Runner(tracer, calibration)
    try:
        before = calibration.sample()
        imports = import_times()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            t = time.perf_counter()
            workload = workloads.build(ARGS.workload, ARGS.seed, work)
            setup_times.append(time.perf_counter() - t)
        setup_factor = factor(before, calibration.sample())

        plain, traced = [], []
        while True:
            plain.append(runner.cycle(workload))
            if ARGS.trace:
                traced.append(runner.cycle(workload, traced=len(traced)))
            if runner.measured >= ARGS.seconds:
                break

        if ARGS.trace:
            values = _trace_metrics(runner, tracer, work, plain, traced)
        else:
            values = {
                "setup_s": setup_factor * (statistics.median(imports)
                                           + statistics.median(setup_times)),
                "cycle_s": statistics.median(_cycle_totals(workload, plain)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "success_rate": 1.0 - len(runner.failures) / runner.attempted,
            }
    finally:
        calibration.close()
        shutil.rmtree(work, ignore_errors=True)

    units = ({name: unit for name, unit, *_ in metrics.PER_LAYER} if ARGS.trace
             else {name: unit for name, (unit, *_) in metrics.END_TO_END.items()})
    result_metrics = {name: {"value": values.get(name) or 0.0, "unit": unit}
                      for name, unit in units.items()}
    prov = provenance()
    prov["digest_checked"] = workload.state.get("digest_checked")
    prov["unmeasured"] = [name for name in units if values.get(name) is None]
    prov["time_unit"] = (f"calibrated s: s on a host where the calibration kernel "
                         f"takes {CAL_REF_S} s")
    prov["calibration_factor"] = {"setup": setup_factor,
                                  "steps": _run_factor(plain + traced)}
    record = {
        "provenance": prov,
        "import_times": imports,
        "setup_times": setup_times,
        "calibration": calibration.samples,
        "step_times": {"plain": plain, "traced": traced},
        "failures": runner.failures,
        "metrics": result_metrics,
        "spans": tracer.spans,
    }
    RUNS.mkdir(exist_ok=True)
    name = f"{ARGS.workload}-seed{ARGS.seed}-trace{ARGS.trace}-{os.getpid()}.json"
    (RUNS / name).write_text(json.dumps(record))
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": result_metrics,
    }))
    return 0


def _calibrated(cycle) -> float:
    return sum(raw * f for raw, f in cycle.values())


def _cycle_totals(workload, cycles):
    """Calibrated time of every cycle in which all steps completed."""
    return [_calibrated(c) for c in cycles if len(c) == len(workload.steps)] or [
        _calibrated(c) for c in cycles]


def _run_factor(cycles) -> float:
    """Time-weighted calibration factor of `cycles`."""
    raw = sum(r for c in cycles for r, _ in c.values())
    return sum(map(_calibrated, cycles)) / raw if raw else 1.0


def _trace_metrics(runner, tracer, work, plain, traced) -> dict:
    """Per-layer metrics of the traced cycles, filled from a toy pass."""
    toy = workloads.build("toy", ARGS.seed, work / "toy")
    runner.cycle(toy, traced="toy")
    cycles = _span_cycles(tracer)
    toy_cycle = cycles.pop("toy", [])
    layer = metrics.per_layer(list(cycles.values()))
    toy_layer = metrics.per_layer([toy_cycle])
    for name, value in layer.items():
        if value is None:
            layer[name] = toy_layer[name]
    probe = workloads.SIZES["full"]["sorter"]
    modes, _ = probe.modes_and_targets()
    layer.update(metrics.propagate_probe(hdqkd.optics, modes[0], probe.spacing))
    # The traced cycles' factor scales their spans and the probe after them.
    scale = _run_factor(traced)
    units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
    layer = {name: None if value is None else metrics.scale(value, units[name], scale)
             for name, value in layer.items()}
    layer["trace.overhead_s"] = (statistics.median(map(_calibrated, traced))
                                 - statistics.median(map(_calibrated, plain)))
    return layer


if __name__ == "__main__":
    sys.exit(main())
