"""Span recording for the traced benchmark run.

Wrappers are installed by replacing public functions on the `hdqkd`
modules (and methods on their classes) for the duration of a traced
cycle, then the originals are put back, so untraced cycles run the
program unmodified.  This works because the CLI and the library call
each other through module attributes (`optics.forward_pass(...)`) or
module globals, which the replacement reaches.

A span is a dict with `name`, `start`, `end`, `parent` (index of the
enclosing span or None), `run` (traced cycle id) and optional
attributes (`bytes`, `rounds`, `iterations`, `peak_bytes`).  Spans stay
in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import tracemalloc

from hdqkd import keyrate, mub, optics, protocol


def _path_arg(args, kwargs, index, key="path"):
    return kwargs[key] if key in kwargs else args[index]


def _size(path) -> int:
    return os.path.getsize(path)


# (owner, attribute, span name, attributes(args, kwargs) taken after the call)
TARGETS = [
    (mub, "full_mub_set", "mub.full_mub_set", None),
    (mub, "sqrt_mub_pair", "mub.sqrt_mub_pair", None),
    (mub, "dft_basis", "mub.dft_basis", None),
    (mub, "unitarity_deviation", "mub.unitarity_deviation", None),
    (mub.Basis, "save_json", "mub.Basis.save_json", None),
    (optics, "make_aperture_modes", "optics.make_aperture_modes", None),
    (optics, "superpose", "optics.superpose", None),
    (optics, "wavefront_match", "optics.wavefront_match",
     lambda a, k: {"iterations": k.get("iterations", 30)}),
    (optics, "forward_pass", "optics.forward_pass", None),
    (optics, "transfer_matrix", "optics.transfer_matrix", None),
    (optics, "matching_objective", "optics.matching_objective", None),
    (optics, "sorter_metrics", "optics.sorter_metrics", None),
    (optics.SorterMetrics, "save_json", "optics.SorterMetrics.save_json", None),
    (optics, "save_stack", "optics.save_stack", None),
    (optics, "save_mask_pgm", "optics.save_mask_pgm", None),
    (protocol, "ideal_prob_table", "protocol.ideal_prob_table", None),
    (protocol, "apply_noise", "protocol.apply_noise", None),
    (protocol, "sample_counts", "protocol.sample_counts", None),
    (protocol, "simulate_session", "protocol.simulate_session",
     lambda a, k: {"rounds": k.get("n_rounds", a[1] if len(a) > 1 else 0)}),
    (protocol, "save_counts_csv", "protocol.save_counts_csv",
     lambda a, k: {"bytes": _size(_path_arg(a, k, 1))}),
    (protocol, "load_counts_csv", "protocol.load_counts_csv",
     lambda a, k: {"bytes": _size(_path_arg(a, k, 0))}),
    (protocol, "normalize_counts", "protocol.normalize_counts", None),
    (protocol, "decompose_errors", "protocol.decompose_errors", None),
    (protocol.SessionRecord, "save_jsonl", "protocol.save_jsonl",
     lambda a, k: {"bytes": _size(_path_arg(a, k, 1))}),
    (protocol.SessionRecord, "load_jsonl", "protocol.load_jsonl",
     lambda a, k: {"bytes": _size(_path_arg(a, k, 1))}),
    (keyrate, "threshold", "keyrate.threshold", None),
    (keyrate, "threshold_curve", "keyrate.threshold_curve", None),
    (keyrate, "rate_curve", "keyrate.rate_curve", None),
    (keyrate, "rate_two_mub", "keyrate.rate_two_mub", None),
    (keyrate, "rate_depolarizing", "keyrate.rate_depolarizing", None),
    (keyrate, "subset_stats", "keyrate.subset_stats", None),
    (keyrate, "save_report_csv", "keyrate.save_report_csv", None),
    (keyrate, "save_curve_csv", "keyrate.save_curve_csv", None),
    (keyrate.KeyRateReport, "save_json", "keyrate.KeyRateReport.save_json", None),
]

# Peak traced allocation is recorded for these spans.
MEMORY_TRACED = {"optics.wavefront_match"}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id: int | str | None = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the enclosed block."""
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, attrs):
        memory = name in MEMORY_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                if memory:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if memory:
                        record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                if attrs is not None:
                    record.update(attrs(args, kwargs))
                return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, run_id: int | str):
        """Trace every target while the block runs, as cycle `run_id`."""
        saved = []
        self.run_id = run_id
        try:
            for owner, attr, name, attrs in TARGETS:
                raw = owner.__dict__.get(attr)
                if raw is None:  # renamed or removed since: its metrics stay unmeasured
                    continue
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, attrs))
                else:
                    wrapped = self._wrap(name, raw, attrs)
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self.run_id = None


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]
