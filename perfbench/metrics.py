"""Metric definitions and their computation from steps and spans.

`END_TO_END` and `PER_LAYER` are the lists BENCHMARK.json repeats.  Every
workload reports every metric; the workload's steps decide what a
metric times (see README.md).  Each per-layer metric names the
end-to-end metric it should move, on which workload and through which
step, so that a change claiming a gain can cite it.

A per-layer value is the median over traced cycles of its per-cycle
value.  A cycle here is a list of span items: the span dict plus its
duration `dur`, its self time `self` and its parent's name.
"""

from __future__ import annotations

import statistics
import time

# name -> (unit, better, bound, meaning).  Times are calibrated seconds
# (see run.py), and so are the per-layer ones.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "median of five imports of hdqkd from process start plus the "
                "median of five workload set-ups"),
    "cycle_s": ("s", "lower", 0.25,
                "median time of one closed-loop pass over all steps"),
    "peak_rss_mb": ("MB", "lower", 0.25, "peak resident set size of the process"),
    "success_rate": ("ratio", "higher", 0.01,
                     "1 - failed/attempted; exceptions, non-zero exits and failed "
                     "output checks fail"),
}


def _dur(item) -> float:
    return item["dur"]


def _select(cycle, name):
    return [item for item in cycle if item["name"] == name]


def total(name):
    def value(cycle):
        hit = _select(cycle, name)
        return sum(map(_dur, hit)) if hit else None
    return value


def self_total(name):
    def value(cycle):
        hit = _select(cycle, name)
        return sum(item["self"] for item in hit) if hit else None
    return value


def calls(name):
    def value(cycle):
        return len(_select(cycle, name)) or None
    return value


def throughput(name, attr, scale=1.0):
    def value(cycle):
        hit = _select(cycle, name)
        return sum(item[attr] for item in hit) / sum(map(_dur, hit)) / scale if hit else None
    return value


def per_iteration(name):
    def value(cycle):
        hit = _select(cycle, name)
        return sum(map(_dur, hit)) / sum(item["iterations"] for item in hit) if hit else None
    return value


def peak_mb(name):
    def value(cycle):
        hit = _select(cycle, name)
        return max(item["peak_bytes"] for item in hit) / 2**20 if hit else None
    return value


MUB_CONSTRUCTORS = {"mub.full_mub_set", "mub.sqrt_mub_pair", "mub.dft_basis"}


def mub_build(cycle):
    hit = [item for item in cycle
           if item["name"] in MUB_CONSTRUCTORS and item["parent_name"] not in MUB_CONSTRUCTORS]
    return sum(map(_dur, hit)) if hit else None


def _steps(cycle):
    return [item for item in cycle if item["parent_name"] is None]


def span_coverage(cycle):
    """Share of the steps' wall time that library spans cover."""
    steps = _steps(cycle)
    return 1.0 - sum(item["self"] for item in steps) / sum(map(_dur, steps)) if steps else None


def span_coverage_min(cycle):
    """The lowest share of one step's wall time that library spans cover."""
    steps = _steps(cycle)
    return min(1.0 - item["self"] / item["dur"] for item in steps) if steps else None


# Probes and paired-run values that run.py measures directly.
PROBED = None

# name, unit, better, moves (end-to-end metric), workload, step, value(cycle)
PER_LAYER = [
    ("optics.wavefront_match.s", "s", "lower", "cycle_s", "sorter-d25", "design",
     total("optics.wavefront_match")),
    ("optics.wavefront_match.iter_s", "s", "lower", "cycle_s", "sorter-d25", "design",
     per_iteration("optics.wavefront_match")),
    ("optics.wavefront_match.peak_mb", "MB", "lower", "peak_rss_mb", "sorter-d25", "design",
     peak_mb("optics.wavefront_match")),
    ("optics.forward_pass.calls", "count", "lower", "cycle_s", "sorter-d25", "design",
     calls("optics.forward_pass")),
    ("optics.forward_pass.s", "s", "lower", "cycle_s", "sorter-d25", "design",
     total("optics.forward_pass")),
    ("optics.transfer_matrix.self_s", "s", "lower", "cycle_s", "sorter-d25", "design",
     self_total("optics.transfer_matrix")),
    ("optics.matching_objective.self_s", "s", "lower", "cycle_s", "sorter-d25", "design",
     self_total("optics.matching_objective")),
    ("optics.propagate_ms", "ms", "lower", "cycle_s", "sorter-d25", "design", PROBED),
    ("optics.propagate_pad1_ms", "ms", "lower", "cycle_s", "sorter-d25", "design", PROBED),
    ("optics.save_stack.s", "s", "lower", "cycle_s", "sorter-d25", "design",
     total("optics.save_stack")),
    ("optics.save_mask_pgm.s", "s", "lower", "cycle_s", "toy", "pipeline:design",
     total("optics.save_mask_pgm")),
    ("optics.make_aperture_modes.s", "s", "lower", "setup_s", "sorter-d25", "design",
     total("optics.make_aperture_modes")),
    ("protocol.simulate_session.s", "s", "lower", "cycle_s", "session-d25",
     "session-write", total("protocol.simulate_session")),
    ("protocol.simulate_session.rounds_per_s", "1/s", "higher", "cycle_s", "session-d25",
     "session-write", throughput("protocol.simulate_session", "rounds")),
    ("protocol.save_jsonl.s", "s", "lower", "cycle_s", "session-d25", "session-write",
     total("protocol.save_jsonl")),
    ("protocol.save_jsonl.mb_per_s", "MB/s", "higher", "cycle_s", "session-d25",
     "session-write", throughput("protocol.save_jsonl", "bytes", 1e6)),
    ("protocol.load_jsonl.s", "s", "lower", "cycle_s", "session-d25", "session-read",
     total("protocol.load_jsonl")),
    ("protocol.load_jsonl.mb_per_s", "MB/s", "higher", "cycle_s", "session-d25",
     "session-read", throughput("protocol.load_jsonl", "bytes", 1e6)),
    ("protocol.save_counts_csv.s", "s", "lower", "cycle_s", "session-d25", "counts-write",
     total("protocol.save_counts_csv")),
    ("protocol.save_counts_csv.mb_per_s", "MB/s", "higher", "cycle_s", "session-d25",
     "counts-write", throughput("protocol.save_counts_csv", "bytes", 1e6)),
    ("protocol.load_counts_csv.s", "s", "lower", "cycle_s", "session-d25", "counts-read",
     total("protocol.load_counts_csv")),
    ("protocol.load_counts_csv.mb_per_s", "MB/s", "higher", "cycle_s", "session-d25",
     "counts-read", throughput("protocol.load_counts_csv", "bytes", 1e6)),
    ("protocol.sample_counts.s", "s", "lower", "cycle_s", "session-d25", "counts-write",
     total("protocol.sample_counts")),
    ("protocol.ideal_prob_table.s", "s", "lower", "cycle_s", "session-d25", "counts-write",
     total("protocol.ideal_prob_table")),
    ("protocol.apply_noise.s", "s", "lower", "cycle_s", "session-d25", "counts-write",
     total("protocol.apply_noise")),
    ("protocol.normalize_counts.s", "s", "lower", "cycle_s", "session-d25", "counts-read",
     total("protocol.normalize_counts")),
    ("protocol.decompose_errors.s", "s", "lower", "cycle_s", "session-d25", "counts-read",
     total("protocol.decompose_errors")),
    ("keyrate.threshold.calls", "count", "lower", "cycle_s", "thresholds-scan",
     "thresholds", calls("keyrate.threshold")),
    ("keyrate.threshold.s", "s", "lower", "cycle_s", "thresholds-scan", "thresholds",
     total("keyrate.threshold")),
    ("keyrate.threshold_curve.self_s", "s", "lower", "cycle_s", "thresholds-scan",
     "thresholds", self_total("keyrate.threshold_curve")),
    ("keyrate.rate_curve.s", "s", "lower", "cycle_s", "thresholds-scan", "curve-block77",
     total("keyrate.rate_curve")),
    ("keyrate.subset_stats.s", "s", "lower", "cycle_s", "session-d25", "counts-read",
     total("keyrate.subset_stats")),
    ("mub.build_s", "s", "lower", "cycle_s", "session-d25", "counts-write", mub_build),
    ("cli.mub.self_s", "s", "lower", "cycle_s", "toy", "pipeline:mub-check-5",
     self_total("cli.mub")),
    ("cli.optics.self_s", "s", "lower", "cycle_s", "sorter-d25", "design",
     self_total("cli.optics")),
    ("cli.simulate.self_s", "s", "lower", "cycle_s", "session-d25", "session-write",
     self_total("cli.simulate")),
    ("cli.keyrate.self_s", "s", "lower", "cycle_s", "thresholds-scan", "thresholds",
     self_total("cli.keyrate")),
    ("trace.span_coverage", "ratio", "higher", "cycle_s", "session-d25", "all",
     span_coverage),
    ("trace.span_coverage_min", "ratio", "higher", "cycle_s", "thresholds-scan",
     "curve-uniform", span_coverage_min),
    ("trace.overhead_s", "s", "lower", "cycle_s", "sorter-d25", "all", PROBED),
]


def scale(value: float, unit: str, factor: float) -> float:
    """Express a measured value at the calibration reference speed."""
    if unit in ("s", "ms"):
        return value * factor
    if unit.endswith("/s"):
        return value / factor
    return value


def per_layer(cycles: list[list[dict]]):
    """Median per-cycle value of every span-derived metric; None if no
    cycle produced one."""
    out = {}
    for name, _unit, _better, _moves, _workload, _step, value in PER_LAYER:
        if value is PROBED:
            continue
        got = [v for v in map(value, cycles) if v is not None]
        out[name] = statistics.median(got) if got else None
    return out


def propagate_probe(optics, field, distance: float, repeats: int = 15) -> dict:
    """Median time of one single-field `optics.propagate` at pad 2 and 1."""
    out = {}
    for name, pad in (("optics.propagate_ms", 2), ("optics.propagate_pad1_ms", 1)):
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            optics.propagate(field, distance, pad_factor=pad)
            times.append(time.perf_counter() - t)
        out[name] = 1e3 * statistics.median(times)
    return out
