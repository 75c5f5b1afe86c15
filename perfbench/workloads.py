"""The benchmark's workloads: set-up, closed-loop steps and output checks.

Every workload is a fixed sequence of steps issued by one caller, each
only after the previous one returned: a closed loop with one client.  A
CLI step runs `hdqkd.cli.main` in-process with the argv a user would
type; a library step calls the public API.  Problem shapes follow the
paper's devices and `scripts/reproduce_pipeline.sh`; iteration counts
are chosen so that one run of a few tens of seconds repeats each step.

Checks read the files the program wrote.  The first cycle of a run is
checked in full; later cycles must write byte-identical files, which
also proves that tracing does not change any output.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hdqkd import cli, optics, protocol

REFERENCE_PATH = Path(__file__).with_name("reference.json")

PITCH = 15e-6
WAVELENGTH = 810e-9
# Design outputs must match the recorded values to this absolute
# tolerance, which admits last-bit changes of the FFT backend.
DESIGN_TOL = 1e-6
# Session noise of the paper's d=25 row/col-DFT link: E_t = E_u + E_b.
SESSION_EU, SESSION_EB = 0.073, 0.248
SESSION_RATE, SESSION_RATE_TOL = 0.816, 0.05
QUBIT_THRESHOLD, QUBIT_TOL = 0.1100, 5e-4
ALL_BLOCK_TOL = 1e-6
COUNTS_ET = 0.1


@functools.cache
def reference() -> dict:
    """Recorded design values and output digests (see record_reference.py)."""
    return json.loads(REFERENCE_PATH.read_text())


class CheckFailed(Exception):
    """An output of the program is not what the benchmark expects."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Design:
    """One `optics design` problem."""

    d: int
    arrangement: str
    target: str
    planes: int
    spacing: float
    iterations: int
    n: int
    radius: float
    aperture_spacing: float
    pgm: bool

    @property
    def key(self) -> str:
        return f"{self.target}-d{self.d}-n{self.n}-p{self.planes}-it{self.iterations}"

    def argv(self, out: Path) -> list[str]:
        argv = [
            "optics", "design", "--d", str(self.d), "--arrangement", self.arrangement,
            "--target", self.target, "--planes", str(self.planes),
            "--plane-spacing", repr(self.spacing), "--iterations", str(self.iterations),
            "--nx", str(self.n), "--ny", str(self.n), "--pitch", repr(PITCH),
            "--wavelength", repr(WAVELENGTH), "--aperture-radius", repr(self.radius),
            "--aperture-spacing", repr(self.aperture_spacing), "--pad-factor", "2",
            "--detection", "propagated", "--out", str(out),
        ]
        return argv + (["--pgm"] if self.pgm else [])

    def grid(self) -> optics.GridSpec:
        return optics.GridSpec(self.n, self.n, PITCH, WAVELENGTH)

    def modes_and_targets(self):
        """Input modes and target fields, built by the CLI's own code."""
        args = cli.build_parser().parse_args(self.argv(Path(".")))
        _, _, modes = cli._design_geometry(args)
        targets, _ = cli._design_targets(args, modes)
        return modes, targets


SIZES = {
    "full": {
        # The paper's headline d=25 row/col-DFT sorter; one iteration.
        "sorter": Design(25, "auto", "row-dft", 10, 43.5e-3, 1, 192, 100e-6, 300e-6, False),
        "session_rounds": 1_000_000,
        "counts_d": 31,
        "counts_rounds": 100_000,
        "scan_d_range": "2:512",
    },
    "toy": {
        # The toy pass also runs reproduce_pipeline.sh's stages, at toy size.
        "sorter": Design(4, "auto", "row-dft", 3, 5e-3, 2, 32, 40e-6, 120e-6, False),
        "pipeline_design": Design(5, "line", "dft", 3, 5e-3, 2, 32, 20e-6, 60e-6, True),
        "pipeline_rounds": 1000,
        "pipeline_d_range": "2:16",
        "session_rounds": 1000,
        "counts_d": 5,
        "counts_rounds": 1000,
        "scan_d_range": "2:16",
    },
}


@dataclass
class Step:
    """One timed operation.

    `kind` names its root span (`cli.<command>` or `lib.<function>`);
    `label` is unique within the workload.  `check(result)` verifies the
    outputs in full; `out` is the directory whose files later cycles
    must reproduce byte for byte.
    """

    label: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    out: Path | None = None


@dataclass
class Workload:
    steps: list[Step]
    state: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> int:
    code = cli.main(argv + ["--quiet"])
    expect(code == 0, f"hdqkd {' '.join(argv[:2])} exited with {code}")
    return code


def cli_step(label: str, argv: list[str], check, out: Path | None = None) -> Step:
    return Step(label, f"cli.{argv[0]}", lambda: run_cli(argv), check, out)


def digest_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir()) if p.is_file()
    }


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _no_check(_result) -> None:
    pass


# ---------------------------------------------------------------------------
# Checks shared by several workloads.


def _check_design(design: Design, out: Path, state: dict) -> None:
    objective = _json(out / "resolved_config.json")["objective"]
    metrics = _json(out / "metrics.json")
    got = {
        "objective": objective,
        "fidelity": metrics["fidelity"],
        "crosstalk": metrics["mean_crosstalk"],
    }
    ref = reference()["design"][design.key]
    for name, value in ref.items():
        expect(abs(got[name] - value) <= DESIGN_TOL,
               f"{design.key} {name} {got[name]!r} != reference {value!r}")
    key = ("zero_objective", design.key)
    if key not in state:
        zero = optics.PhaseMaskStack(
            design.grid(), np.zeros((design.planes, design.n, design.n)), design.spacing
        )
        modes, targets = state[("modes", design.key)]
        state[key] = optics.matching_objective(zero, modes, targets, pad_factor=2)
    expect(objective >= state[key],
           f"{design.key} objective {objective} below the zero-stack {state[key]}")
    if design.pgm:
        masks = sorted(out.glob("mask_*.pgm"))
        expect(len(masks) == design.planes, f"{len(masks)} PGM masks, not {design.planes}")


# Byte map keeping digits and newlines and blanking everything else.
_DIGITS_ONLY = bytes(c if chr(c).isdigit() or c == 10 else 32 for c in range(256))


def parse_session_jsonl(path: Path) -> np.ndarray:
    """(rounds, 5) array of round, k, l, alice, bob, read without hdqkd,
    in blocks so that checking costs less memory than the program."""
    parts, lines, flags = [], 0, 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.readlines(1 << 23), []):
            data = b"".join(block)
            lines += len(block)
            flags += data.count(b'"sifted": true')
            parts.append(np.fromstring(data.translate(_DIGITS_ONLY), dtype=np.int32, sep=" "))
    table = np.concatenate(parts).reshape(-1, 5)
    expect(lines == len(table), f"{path.name}: malformed rows")
    expect(flags == int((table[:, 1] == table[:, 2]).sum()),
           f"{path.name}: sifted flags disagree with the bases")
    return table


def _check_qber(table: np.ndarray) -> None:
    sifted = table[:, 1] == table[:, 2]
    n = int(sifted.sum())
    qber = float((table[sifted, 3] != table[sifted, 4]).mean())
    e_t = SESSION_EU + SESSION_EB
    sigma = math.sqrt(e_t * (1.0 - e_t) / n)
    expect(abs(qber - e_t) <= 3.0 * sigma,
           f"QBER {qber:.5f} outside 3 sigma ({sigma:.5f}) of {e_t}")


def _check_rate(out: Path, expected: float, tol: float) -> None:
    rate = _json(out / "report.json")["rate"]
    expect(abs(rate - expected) <= tol, f"rate {rate} outside {expected}+-{tol}")


def _shannon_hd(x: float, d: int) -> float:
    return -x * math.log2(x / (d - 1)) - (1.0 - x) * math.log2(1.0 - x)


def _check_thresholds(out: Path, d_range: str) -> None:
    rows = np.loadtxt(out / "thresholds.csv", delimiter=",", skiprows=1, ndmin=2)
    lo, hi = (int(x) for x in d_range.split(":"))
    uniform = rows[rows[:, 1] == 0.0]
    expect(np.array_equal(uniform[:, 0], np.arange(lo, hi + 1)),
           "uniform thresholds missing for some d")
    qubit = uniform[uniform[:, 0] == 2, 2]
    expect(qubit.size == 1 and abs(qubit[0] - QUBIT_THRESHOLD) <= QUBIT_TOL,
           f"qubit threshold {qubit} not {QUBIT_THRESHOLD}+-{QUBIT_TOL}")
    squares = [s * s for s in range(2, math.isqrt(hi) + 1) if s * s >= lo]
    block = rows[rows[:, 1] == 1.0]
    expect(block[:, 0].tolist() == squares, "all-block thresholds missing for some d")
    side = np.sqrt(block[:, 0])
    dev = np.abs(block[:, 2] - (side - 1.0) / side).max(initial=0.0)
    expect(dev <= ALL_BLOCK_TOL, f"all-block thresholds off (sqrt(d)-1)/sqrt(d) by {dev:.2e}")


def _check_curve(out: Path, d: int, n: int) -> None:
    rows = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=1, ndmin=2)
    expect(len(rows) == n, f"{len(rows)} curve rows, not {n}")
    expect(rows[0, 0] == 0.0 and abs(rows[0, 1] - math.log2(d)) <= 1e-12,
           f"rate at E=0 is {rows[0, 1]}, not log2({d})")


RATE_PROFILES = {
    # name -> (bound, error flags, expected rows on 0:0.6:121)
    "uniform": ("two-mub-uniform", ["--E", "0.001"], 121),
    "block77": ("two-mub-block", ["--Eu", "0.073", "--Eb", "0.248"], 121),
    "allblock": ("two-mub-block", ["--Eu", "0", "--Eb", "0.3"], 121),
}


def _rate_curve_step(label: str, profile: str, out: Path) -> Step:
    bound, flags, rows = RATE_PROFILES[profile]
    argv = ["keyrate", "--d", "25", "--bound", bound, *flags, "--curve", "rate",
            "--errors", "0:0.6:121", "--out", str(out)]
    return cli_step(label, argv, lambda _: _check_curve(out, 25, rows), out)


def _thresholds_step(label: str, d_range: str, out: Path) -> Step:
    argv = ["keyrate", "--curve", "thresholds", "--d-range", d_range, "--out", str(out)]
    return cli_step(label, argv, lambda _: _check_thresholds(out, d_range), out)


def _design_step(label: str, design: Design, out: Path, state: dict) -> Step:
    state[("modes", design.key)] = design.modes_and_targets()
    return cli_step(label, design.argv(out),
                    lambda _: _check_design(design, out, state), out)


# ---------------------------------------------------------------------------
# Workloads.  Each function here is the workload's set-up: it makes the work
# directories and everything the checks need before the first timed step.


def sorter(size: dict, seed: int, work: Path, prefix: str = "") -> Workload:
    """The d=25 row/col-DFT sorter design; no stochastic input."""
    state: dict = {}
    step = _design_step(prefix + "design", size["sorter"], work / "sorter", state)
    return Workload([step], state)


def pipeline(size: dict, seed: int, work: Path, prefix: str = "") -> Workload:
    """reproduce_pipeline.sh, stage by stage, with the workload seed."""
    state: dict = {}
    w = work / "pipeline"

    def mub_gen(label, d, family, count):
        out = w / f"mubs{d}"
        argv = ["mub", "gen", "--d", str(d), "--family", family, "--out", str(out)]

        def check(_):
            expect(len(list(out.glob("basis_*.json"))) == count, f"mub gen d={d}: files")
        return cli_step(prefix + label, argv, check, out)

    def mub_check(label, d):
        # Globbed when the step runs, as the shell would.
        return Step(prefix + label, "cli.mub", lambda: run_cli(
            ["mub", "check", *map(str, sorted((w / f"mubs{d}").glob("basis_*.json")))]
        ), _no_check)

    sim = w / "sim25"
    sim_argv = ["simulate", "--d", "25", "--family", "sqrt-pair",
                "--Eu", str(SESSION_EU), "--Eb", str(SESSION_EB), "--pair-rate", "1e6",
                "--time", "1", "--rounds", str(size["pipeline_rounds"]),
                "--seed", str(seed), "--out", str(sim)]
    rate5 = w / "rate5"
    q = 6 * 0.11 / 5
    depolarizing = math.log2(5) - _shannon_hd(q, 5) - q * math.log2(6)
    design = size["pipeline_design"]
    steps = [
        mub_gen("mub-gen-5", 5, "wh-all", 6),
        mub_check("mub-check-5", 5),
        mub_gen("mub-gen-25", 25, "sqrt-pair", 2),
        mub_check("mub-check-25", 25),
        _design_step(prefix + "design", design, w / "sorter5", state),
        cli_step(prefix + "simulate", sim_argv,
                 lambda _: _check_qber(parse_session_jsonl(sim / "session.jsonl")), sim),
        cli_step(prefix + "keyrate-counts",
                 ["keyrate", "--counts", str(sim / "counts.csv"), "--bound", "two-mub-block",
                  "--out", str(w / "rate25")],
                 lambda _: _check_rate(w / "rate25", SESSION_RATE, SESSION_RATE_TOL),
                 w / "rate25"),
        cli_step(prefix + "keyrate-depolarizing",
                 ["keyrate", "--d", "5", "--bound", "depolarizing", "--E", "0.11",
                  "--out", str(rate5)],
                 lambda _: _check_rate(rate5, depolarizing, 1e-9), rate5),
        _rate_curve_step(prefix + "curve-uniform", "uniform", w / "curves" / "uniform"),
        _rate_curve_step(prefix + "curve-block77", "block77", w / "curves" / "block77"),
        _thresholds_step(prefix + "thresholds", size["pipeline_d_range"], w / "curves"),
    ]
    return Workload(steps, state)


def session(size: dict, seed: int, work: Path, prefix: str = "") -> Workload:
    """Long JSONL and wide counts CSV, each written and read back."""
    state: dict = {}
    w = work / "session"
    s25, r25, s31, r31 = w / "s25", w / "r25", w / "s31", w / "r31"
    rounds, counts_d = size["session_rounds"], size["counts_d"]
    digests = (reference()["digests"].get(np.__version__, {})
               .get(f"session/{rounds}/{counts_d}", {}).get(str(seed)))
    state["digest_checked"] = digests is not None

    def check_digest(out: Path):
        if digests is not None:
            got = digest_dir(out)
            for name in ("session.jsonl", "counts.csv"):
                key = f"{out.name}/{name}"
                expect(got[name] == digests[key], f"{key} differs from the recorded digest")

    def check_counts_roundtrip(_):
        check_digest(s31)
        read = protocol.load_counts_csv(s31 / "counts.csv").counts
        rows = np.loadtxt(s31 / "counts.csv", delimiter=",", skiprows=1, dtype=np.int32)
        shape = tuple(int(m) for m in rows[:, :4].max(axis=0))
        expect(len(rows) == math.prod(shape), "counts CSV rows missing")
        written = np.zeros(shape, dtype=np.int64)
        written[tuple((rows[:, :4] - 1).T)] = rows[:, 4]
        expect(np.array_equal(read, written), "counts CSV read back differs")

    def check_load(record):
        table = parse_session_jsonl(s25 / "session.jsonl")
        read = (record.alice_basis, record.bob_basis, record.alice_symbol, record.bob_symbol)
        expect(all(np.array_equal(column, table[:, i + 1]) for i, column in enumerate(read)),
               "session JSONL read back differs")
        _check_qber(table)

    e31 = math.log2(counts_d) - 2.0 * _shannon_hd(COUNTS_ET, counts_d)
    steps = [
        cli_step(prefix + "session-write",
                 ["simulate", "--d", "25", "--family", "sqrt-pair",
                  "--Eu", str(SESSION_EU), "--Eb", str(SESSION_EB), "--pair-rate", "1e6",
                  "--time", "1", "--rounds", str(rounds), "--seed", str(seed),
                  "--out", str(s25)],
                 lambda _: check_digest(s25), s25),
        Step(prefix + "session-read", "lib.load_jsonl",
             lambda: protocol.SessionRecord.load_jsonl(s25 / "session.jsonl", 25, seed),
             check_load),
        cli_step(prefix + "session-keyrate", ["keyrate", "--counts", str(s25 / "counts.csv"),
                                              "--out", str(r25)],
                 lambda _: _check_rate(r25, SESSION_RATE, SESSION_RATE_TOL), r25),
        cli_step(prefix + "counts-write",
                 ["simulate", "--d", str(counts_d), "--family", "wh-all",
                  "--Et", str(COUNTS_ET), "--rounds", str(size["counts_rounds"]),
                  "--seed", str(seed), "--out", str(s31)],
                 check_counts_roundtrip, s31),
        cli_step(prefix + "counts-read", ["keyrate", "--counts", str(s31 / "counts.csv"),
                                          "--out", str(r31)],
                 lambda _: _check_rate(r31, e31, 0.01), r31),
    ]
    return Workload(steps, state)


def scan(size: dict, seed: int, work: Path, prefix: str = "") -> Workload:
    """Threshold root-finding over many d, plus the three rate profiles."""
    w = work / "scan"
    # The short curves go first, so that one calibration segment spans
    # the pass and one kernel sample per pass brackets it.
    steps = [_rate_curve_step(prefix + f"curve-{p}", p, w / p) for p in RATE_PROFILES]
    steps.append(_thresholds_step(prefix + "thresholds", size["scan_d_range"], w / "thresholds"))
    return Workload(steps)


SETUPS = {"sorter-d25": sorter, "session-d25": session, "thresholds-scan": scan}
# The toy pass adds the pipeline, the only caller of `mub` commands and
# of `save_mask_pgm`.
TOY_SETUPS = {**SETUPS, "pipeline": pipeline}


def build(name: str, seed: int, work: Path) -> Workload:
    """Set up workload `name`.  `toy` runs every workload and the
    pipeline at toy size, for the self-test and for per-layer metrics a
    workload never calls."""
    work.mkdir(parents=True, exist_ok=True)
    if name != "toy":
        return SETUPS[name](SIZES["full"], seed, work)
    parts = [make(SIZES["toy"], seed, work, f"{n}:") for n, make in TOY_SETUPS.items()]
    state: dict = {}
    for part in parts:
        state.update(part.state)
    return Workload([s for p in parts for s in p.steps], state)
