"""Command-line front end: `hdqkd <command> [options]`.

Commands compose through files: each run writes its outputs plus
`resolved_config.json`, a version-1 config file that replays the run
(`hdqkd <command> [action] --config <it>`).  A config section becomes
flags placed before the typed ones, so typed flags win; all are checked
by one parser and spelled in full.

Exit codes: 0 success, 1 computation failed after validation, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, keyrate, mub, optics, protocol
from .errors import (
    HdqkdError,
    InsufficientDataError,
    InvalidConfigError,
    NoThresholdError,
    write_json,
)

CONFIG_VERSION = 1
# A config's top level: a section per command, and what a snapshot records.
_CONFIG_KEYS = ("version", "command", "package_version", "generator", "objective",
                "observed_qber", "mub", "optics", "simulate", "keyrate")

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2


def _echo(args, *parts) -> None:
    if not getattr(args, "quiet", False):
        print(*parts)


def _out_dir(args) -> tuple[Path, Path]:
    """(stage, out): a `.hdqkd-*` directory on `--out`'s filesystem, made once, and `--out`."""
    out = Path(args.out or os.environ.get("HDQKD_OUT") or ".")
    if "stage" not in vars(args):
        near = next(path for path in (out, *out.parents) if path.exists())
        args.stage = Path(tempfile.mkdtemp(prefix=".hdqkd-", dir=near))
    return args.stage, out


def _commit(stage: Path, out: Path) -> None:
    """Move a run's files into `out`, `resolved_config.json` last."""
    if out.exists():
        (out / "resolved_config.json").unlink(missing_ok=True)  # not beside another run's files
        for name in sorted(os.listdir(stage), key=lambda name: name == "resolved_config.json"):
            os.replace(stage / name, out / name)
        stage.rmdir()
    else:
        out.mkdir(parents=True)  # only for mkdir's mode (mkdtemp's is 0o700)
        stage.chmod(out.stat().st_mode)
        stage.replace(out)  # takes the empty out's place


def _name_in_out(exc: OSError, stage: Path, out: Path) -> None:
    """Name each path of exc that lies in stage, which is gone when exc is
    printed, at its place in out."""
    for attr in ("filename", "filename2"):
        name = getattr(exc, attr)
        if isinstance(name, (str, os.PathLike)) and Path(name).is_relative_to(stage):
            setattr(exc, attr, str(out / Path(name).relative_to(stage)))


def _snapshot(args, out: Path, extra: dict | None = None) -> None:
    """Record the run as a v1 config: `hdqkd <command> [action] --config
    <snapshot>` replays it."""
    command = [args.command] + ([args.action] if "action" in vars(args) else [])
    skip = ("command", "action", "files", "func", "config", "out", "stage")
    options = {k: v for k, v in vars(args).items() if v is not None and k not in skip}
    for key in ("counts", "stack"):  # input files, so that a replay finds them from anywhere
        if options.get(key):
            options[key] = os.path.abspath(options[key])
    doc = {"version": CONFIG_VERSION, "command": command, "package_version": __version__,
           "generator": protocol.GENERATOR_ID, args.command: options, **(extra or {})}
    write_json(out / "resolved_config.json", doc, "the resolved config holds non-finite values")


def _config_argv(path: str, command: str) -> list[str]:
    """The config file's section for `command` as flags: `--key=value`,
    `--key` for true and nothing for false.  A key must name one of the
    command's options, and the parser then checks the values exactly as
    it checks typed flags."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidConfigError(f"config {path} must hold a JSON object")
    version = doc.get("version", CONFIG_VERSION)
    if type(version) is not int or version != CONFIG_VERSION:
        raise InvalidConfigError(f"config {path}: version must be 1, got {version!r:.120}")
    for key in doc:
        if key not in _CONFIG_KEYS:
            raise InvalidConfigError(f"config {path}: unknown top-level key {key!r:.120}")
    recorded = doc.get("command", [command])
    if not isinstance(recorded, list) or recorded[:1] != [command]:
        raise InvalidConfigError(f"config {path} records command {recorded!r:.120}, "
                                 f"not '{command}'")
    section = doc.get(command, {})
    if not isinstance(section, dict):
        raise InvalidConfigError(f"config {path}: section '{command}' must be an object")
    argv, where = [], f"config {path}, section {command}"
    flags = build_parser().commands[command].flags()
    for key, value in section.items():
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_-]*", key):
            raise InvalidConfigError(f"{where}: {key!r:.120} is not an option name")
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise InvalidConfigError(f"{where}: {key!r:.120} names no option of {command}")
        if value is True:
            argv.append(flag)
        elif type(value) in (str, int, float):
            argv.append(f"{flag}={value}")
        elif value is not False:
            raise InvalidConfigError(f"{where}: {key:.120} cannot be {value!r:.120}")
    return argv


def _parse_range(text: str, flag: str, integer: bool = False):
    """Values of a range flag: 'lo:hi' as the integers lo..hi, or for a
    float grid 'lo:hi' or 'lo:hi:n' as n points (default 100) from lo to
    hi.  Anything else raises InvalidConfigError."""
    parts = text.split(":")
    form = "lo:hi" if integer else "lo:hi or lo:hi:n"
    if len(parts) != 2 and (integer or len(parts) != 3):
        raise InvalidConfigError(f"{flag} must be {form}, got '{text}'")
    number = int if integer else float
    try:
        lo, hi = number(parts[0]), number(parts[1])
        n = int(parts[2]) if len(parts) == 3 else 100
    except ValueError:
        kind = "integers" if integer else "numbers"
        raise InvalidConfigError(f"{flag} must be {form} of {kind}, got '{text}'") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi and n >= 1):
        raise InvalidConfigError(f"{flag} needs finite lo <= hi and n >= 1, got '{text}'")
    return range(lo, hi + 1) if integer else np.linspace(lo, hi, n)


# Each family's bases, in the order `mub gen` writes them: `--family` names a
# family, `--target family:i` its basis i.
_FAMILIES = {
    "wh-all": mub.full_mub_set,
    "sqrt-pair": mub.sqrt_mub_pair,
    "comp-dft": lambda d: (mub.computational_basis(d), mub.dft_basis(d)),
    "dft": lambda d: (mub.dft_basis(d),),
    "computational": lambda d: (mub.computational_basis(d),),
}
# The basis names `--target` took before `family:i`; snapshots still hold them.
_TARGET_ALIASES = {"identity": "computational:1", "dft": "dft:1",
                   "row-dft": "sqrt-pair:1", "col-dft": "sqrt-pair:2"}


# ---------------------------------------------------------------------------
# mub


def _basis_filename(basis: mub.Basis) -> str:
    tag = basis.label.lower().replace(":", "_").replace("=", "").replace("-", "_")
    return f"basis_{tag}.json"


def cmd_mub(args) -> int:
    if args.action == "gen":
        bases = _FAMILIES[args.family](args.d)
        stage, out = _out_dir(args)
        for basis in bases:
            basis.save_json(stage / _basis_filename(basis))
            _echo(args, f"wrote {out / _basis_filename(basis)}")
        _snapshot(args, stage)
        return EXIT_OK

    # check
    if not args.files:
        raise InvalidConfigError("mub check needs at least one basis file")
    loaded = [(path, *mub.load_basis_json(path)) for path in args.files]
    failed = 0
    for path, d, label, amps in loaded:
        dev = mub.unitarity_deviation(amps)
        ok = dev <= args.unitarity_tol
        failed += not ok
        _echo(args, f"{path} [{label}]: unitarity deviation {dev:.3e} "
              f"({'ok' if ok else 'FAIL'})")
    for i, (pi, di, li, ai) in enumerate(loaded):
        for pj, dj, lj, aj in loaded[i + 1:]:
            if di != dj:
                _echo(args, f"{li} vs {lj}: dimension mismatch, skipped")
                continue
            dev = mub.unbiasedness_deviation(ai, aj)
            ok = dev <= args.unbiased_tol
            failed += not ok
            _echo(args, f"{li or pi} vs {lj or pj}: unbiasedness deviation "
                  f"{dev:.3e} ({'ok' if ok else 'FAIL'})")
    if failed:
        print(f"error: {failed} unitarity or unbiasedness check(s) failed", file=sys.stderr)
    return EXIT_COMPUTE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# optics


def _design_layout(args):
    grid = optics.GridSpec(args.nx, args.ny, args.pitch, args.wavelength)
    arrangement = args.arrangement
    if arrangement == "auto":
        arrangement = "grid" if mub.square_side(args.d) else "line"
    layout = optics.ApertureLayout(args.d, args.aperture_radius, args.aperture_spacing,
                                   arrangement)
    return grid, layout


def _design_geometry(args):
    grid, layout = _design_layout(args)
    return grid, layout, optics.make_aperture_modes(layout, grid)


def _target_coefficients(args):
    """The rows that superpose the input modes into the `--target` sorter's
    targets, and the unitary the sorter is meant to apply."""
    d = args.d
    if args.target == "swap":
        coeff = np.eye(d, dtype=complex)[::-1]
    else:  # family:i or an alias of one, as `target` admits
        family, _, index = _TARGET_ALIASES.get(args.target, args.target).partition(":")
        bases = _FAMILIES[family](d)
        if int(index) > len(bases):
            raise InvalidConfigError(f"--target {args.target}: {family} has {len(bases)} "
                                     f"bases at d={d}")
        coeff = bases[int(index) - 1].amplitudes
    # Sorter convention: incoming basis state m ends up in port m, so
    # input mode n maps to sum_m conj(coeff[n, m]) * port_m.
    return coeff.conj(), coeff.conj().T


def _design_targets(args, modes):
    rows, intended = _target_coefficients(args)
    return optics.superpose_rows(modes, rows), intended


def _detection_modes(args, grid, layout, modes):
    if args.detection == "disks":
        det_layout = optics.ApertureLayout(
            layout.count, args.detection_radius, layout.spacing, layout.arrangement
        )
        return optics.make_aperture_modes(det_layout, grid)
    # Default: input modes carried to the detection plane with the exact
    # periodic transform (mask-free pass), which keeps them orthonormal.
    return optics.mask_free_passes(modes, args.planes, args.plane_spacing)


def cmd_optics(args) -> int:
    if args.action == "design":  # the design builds its input modes itself
        grid, layout = _design_layout(args)
    else:
        grid, layout, modes = _design_geometry(args)
    rows, intended = _target_coefficients(args)
    # Built on demand: the design drops them while its sweeps run.
    targets = functools.partial(optics.superpose_rows, coefficients=rows)

    if args.action == "design":
        stack, transfer, objective = optics.design_converter(
            functools.partial(optics.make_aperture_modes, layout, grid), targets,
            functools.partial(_detection_modes, args, grid, layout), args.planes,
            args.plane_spacing, iterations=args.iterations, pad_factor=args.pad_factor,
        )
    else:  # eval
        if args.stack is None:
            raise InvalidConfigError("optics eval needs --stack")
        stack = optics.load_stack(args.stack)
        if stack.grid != grid:
            raise InvalidConfigError(
                "stack grid does not match the configured geometry"
            )
        if stack.plane_spacing != args.plane_spacing:
            raise InvalidConfigError(
                f"stack plane spacing {stack.plane_spacing!r} m does not match "
                f"--plane-spacing {args.plane_spacing!r} m"
            )
        if stack.planes != args.planes:
            raise InvalidConfigError(
                f"stack of {stack.planes} planes does not match --planes {args.planes}"
            )
        outputs = _detection_modes(args, grid, layout, modes)
        transfer, objective = optics.score_converter(
            stack, modes, outputs, targets(modes), pad_factor=args.pad_factor
        )
    metrics = optics.sorter_metrics(transfer, intended=intended)  # finite, or it raises
    stage, out = _out_dir(args)
    if args.action == "design":
        optics.save_stack(stack, stage / "stack.mplc")
        _echo(args, f"wrote {out / 'stack.mplc'}")
    metrics.save_json(stage / "metrics.json")
    _echo(args, f"objective {objective:.4f}  fidelity {metrics.fidelity:.4f}  "
          f"crosstalk {metrics.mean_crosstalk:.4f}  "
          f"loss {metrics.insertion_loss_db:.3f} dB")
    if args.pgm:
        for p in range(1, stack.planes + 1):
            optics.save_mask_pgm(stack, p, stage / f"mask_{p:02d}.pgm")
        _echo(args, f"wrote {stack.planes} PGM masks")
    _snapshot(args, stage, {"objective": objective})
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _noise_from_args(args) -> tuple[float, float]:
    """(E_u, E_b) from --Eu/--Eb, or from --Et split with --block-fraction
    f (default 0) as (Et*(1-f), Et*f).  Mixing the two forms, or a
    fraction without --Et, is a usage error; no flag means no noise."""
    if args.Eu is not None or args.Eb is not None:
        if args.Et is not None or args.block_fraction is not None:
            raise InvalidConfigError(
                "--Eu/--Eb cannot be combined with --Et or --block-fraction"
            )
        return args.Eu or 0.0, args.Eb or 0.0
    if args.Et is None:
        if args.block_fraction is not None:
            raise InvalidConfigError("--block-fraction needs --Et")
        return 0.0, 0.0
    return protocol.split_error(args.Et, args.block_fraction or 0.0)


def cmd_simulate(args) -> int:
    bases = _FAMILIES[args.family](args.d)
    e_u, e_b = _noise_from_args(args)
    alignments = protocol._alignments(args.alignments and args.alignments.split(","),
                                      len(bases), "--alignments")
    table = protocol.apply_noise(
        protocol.ideal_prob_table(bases, [b.conjugate() for b in bases]), e_u, e_b, alignments
    )
    if args.pair_rate == 0.0 and args.accidental_rate == 0.0:
        _echo(args, "warning: zero pair and accidental rates, counts will be all zero")
    # Session first: counts first moves session-d25's peak RSS from about 184 to 204 MB.
    session = protocol.simulate_session(table, args.rounds, seed=args.seed)
    counts = protocol.sample_counts(table, args.pair_rate, args.time, args.accidental_rate,
                                    seed=args.seed, alignments=alignments)
    stage, out = _out_dir(args)
    protocol.save_counts_csv(counts, stage / "counts.csv")
    _echo(args, f"wrote {out / 'counts.csv'} "
          f"({int(counts.counts.sum())} coincidences)")
    session.save_jsonl(stage / "session.jsonl")
    qber = session.qber
    _echo(args, f"wrote {out / 'session.jsonl'} "
          f"(sifted {session.sifted_fraction:.3f}, QBER {qber:.4f})")
    _snapshot(args, stage, {"observed_qber": None if math.isnan(qber) else qber})
    return EXIT_OK


# ---------------------------------------------------------------------------
# keyrate


def _errors_from_counts(args):
    counts = protocol.load_counts_csv(args.counts)
    table = protocol.normalize_counts(counts)
    d = table.dim
    if not mub.square_side(d):
        # No sqrt(d)-mode blocks to separate; report the total error as uniform.
        stats = keyrate.subset_stats(table)
        return d, float(stats.E), 0.0
    parts = [
        protocol.decompose_errors(table, k + 1, alignment)
        for k, alignment in enumerate(counts.alignments)
    ]
    e_u = float(np.mean([p.uniform_error for p in parts]))
    e_b = float(np.mean([p.block_error for p in parts]))
    return d, e_u, e_b


def cmd_keyrate(args) -> int:
    if args.curve == "thresholds":
        dims = _parse_range(args.d_range, "--d-range", integer=True)
        rows = keyrate.threshold_curve(dims)
        stage, out = _out_dir(args)
        header = ["d", "block_fraction", "threshold"]
        keyrate.save_curve_csv(
            stage / "thresholds.csv", header, [[row[key] for key in header] for row in rows],
            {"bound": "two_mub", "d_range": args.d_range},
        )
        _echo(args, f"wrote {out / 'thresholds.csv'} ({len(rows)} rows)")
        _snapshot(args, stage)
        return EXIT_OK

    errors = _parse_range(args.errors, "--errors") if args.curve == "rate" else None
    if args.counts:
        if any(flag is not None for flag in (args.d, args.E, args.Eu, args.Eb)):
            raise InvalidConfigError("--counts supplies d and the errors: drop --d/--E/--Eu/--Eb")
        d, e_u, e_b = _errors_from_counts(args)
        if e_b < 0:
            _echo(args, f"block error {e_b:.3g} < 0 folded into the uniform error")
    else:
        d = args.d
        if d is None:
            raise InvalidConfigError("need --d unless reading --counts")
        if args.E is not None and (args.Eu is not None or args.Eb is not None):
            raise InvalidConfigError("--E cannot be combined with --Eu/--Eb")
        e_u, e_b = (args.E, 0.0) if args.E is not None else (args.Eu or 0.0, args.Eb or 0.0)

    # No --bound: the two-MUB bound, named uniform or block from E_b.  A counted E_b < 0 is off
    # the block model; all-uniform is conservative (h_d(E_t) is the largest entropy at E_t).
    if (args.bound == "two-mub-uniform" and e_b > 0) or (args.counts and e_b < 0):
        e_u, e_b = e_u + e_b, 0.0
    if args.bound == "depolarizing":
        report = keyrate.rate_depolarizing(d, protocol.total_error(e_u, e_b))
    else:
        report = keyrate.rate_two_mub(d, e_u, e_b)

    _echo(args, f"bound {report.bound}  d={report.dim}  "
          f"rate {report.rate:.4f} bits/sifted photon  "
          f"threshold {report.threshold:.4f}")
    stage, out = _out_dir(args)
    report.save_json(stage / "report.json")
    keyrate.save_report_csv(report, stage / "report.csv")
    if errors is not None:
        frac = protocol.block_fraction_of(e_u, e_b)
        rows = keyrate.rate_curve(report.bound, d, errors, frac)
        keyrate.save_curve_csv(
            stage / "curve.csv", ["E", "rate"], rows.tolist(),
            {"bound": report.bound, "d": d, "block_fraction": frac},
        )
        _echo(args, f"wrote {out / 'curve.csv'} ({len(rows)} rows)")
    _snapshot(args, stage)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Rejects what it cannot parse with InvalidConfigError instead of
    exiting, and takes long options only when spelled in full.  An
    `intermixed` one takes its positionals between its options too: else
    a nargs="*" positional gets nothing once an option follows the one
    before it (`mub check --quiet a.json`)."""

    def __init__(self, *args, intermixed: bool = False, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._intermixed = intermixed
        self.commands = {}  # the parser of each subcommand, by name

    def flags(self) -> frozenset:
        """The long options this parser takes, `--help` aside."""
        return frozenset(flag for action in self._actions for flag in action.option_strings
                         if flag.startswith("--") and action.dest != "help")

    def parse_known_args(self, args=None, namespace=None):
        if not self._intermixed:
            return super().parse_known_args(args, namespace)
        self._intermixed = False  # parse_known_intermixed_args calls back in here
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixed = True

    def error(self, message):
        raise InvalidConfigError(message)


def finite(text: str) -> float:
    """Float flag type: NaN and the infinities are invalid values."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def seed(text: str) -> int:
    """`--seed` type: an integer that every sampler takes as a seed."""
    try:
        return protocol._check_seed(int(text))
    except HdqkdError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def target(text: str) -> str:
    """`--target` type: `swap`, an alias, or `family:i` with i >= 1."""
    family, _, index = _TARGET_ALIASES.get(text, text).partition(":")
    if text != "swap" and not (family in _FAMILIES and re.fullmatch("[0-9]+", index)
                               and int(index) >= 1):
        raise ValueError(text)
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hdqkd` parser, built once per process: parsing leaves it as it was."""
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file with per-command defaults")
    common.add_argument("--out", help="output directory (default $HDQKD_OUT or .)")
    common.add_argument("--seed", type=seed, default=0, help="RNG seed (>= 0)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = _Parser(
        prog="hdqkd",
        description="High-dimensional QKD design and certification toolkit",
    )
    parser.add_argument("--version", action="version", version=f"hdqkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mub = sub.add_parser("mub", parents=[common], intermixed=True,
                           help="generate or check MUB files")
    p_mub.add_argument("action", choices=["gen", "check"])
    p_mub.add_argument("files", nargs="*", default=[], help="basis JSON files (check)")
    p_mub.add_argument("--d", type=int, default=5, help="dimension")
    p_mub.add_argument("--family", default="wh-all", choices=list(_FAMILIES))
    p_mub.add_argument("--unitarity-tol", type=finite, default=mub.UNITARITY_TOL)
    p_mub.add_argument("--unbiased-tol", type=finite, default=mub.UNBIASED_TOL)
    p_mub.set_defaults(func=cmd_mub)

    p_opt = sub.add_parser("optics", parents=[common],
                           help="design or evaluate a converter stack")
    p_opt.add_argument("action", choices=["design", "eval"])
    p_opt.add_argument("--stack", help="stack container to evaluate (eval)")
    p_opt.add_argument("--d", type=int, default=5, help="number of modes")
    p_opt.add_argument("--arrangement", default="auto", choices=["auto", "grid", "line"])
    p_opt.add_argument("--target", type=target, default="dft",
                       help="family:i (basis i as mub gen orders them), an alias or swap")
    p_opt.add_argument("--planes", type=int, default=10)
    p_opt.add_argument("--plane-spacing", type=finite, default=43.5e-3, help="meters")
    p_opt.add_argument("--iterations", type=int, default=30)
    p_opt.add_argument("--nx", type=int, default=192)
    p_opt.add_argument("--ny", type=int, default=192)
    p_opt.add_argument("--pitch", type=finite, default=15e-6, help="meters per pixel")
    p_opt.add_argument("--wavelength", type=finite, default=810e-9, help="meters")
    p_opt.add_argument("--aperture-radius", type=finite, default=100e-6)
    p_opt.add_argument("--aperture-spacing", type=finite, default=300e-6)
    p_opt.add_argument("--pad-factor", type=int, default=2)
    p_opt.add_argument("--detection", default="propagated", choices=["propagated", "disks"])
    p_opt.add_argument("--detection-radius", type=finite, default=50e-6,
                       help="fiber-core disk radius for --detection disks")
    p_opt.add_argument("--pgm", action="store_true", help="also dump masks as 16-bit PGM")
    p_opt.set_defaults(func=cmd_optics)

    p_sim = sub.add_parser("simulate", parents=[common], help="simulate a QKD session")
    p_sim.add_argument("--d", type=int, default=25)
    p_sim.add_argument("--family", default="sqrt-pair",
                       choices=["wh-all", "sqrt-pair", "comp-dft"])
    p_sim.add_argument("--Et", type=finite, default=None, help="total matched-basis error")
    p_sim.add_argument("--block-fraction", type=finite, default=None,
                       help="share of --Et inside a block (default 0)")
    p_sim.add_argument("--Eu", type=finite, default=None, help="uniform error component")
    p_sim.add_argument("--Eb", type=finite, default=None, help="block error component")
    p_sim.add_argument("--alignments", help="comma list of row/col per basis (kept in counts)")
    p_sim.add_argument("--rounds", type=int, default=100000)
    p_sim.add_argument("--pair-rate", type=finite, default=1e4, help="pairs per second")
    p_sim.add_argument("--time", type=finite, default=100.0, help="integration seconds")
    p_sim.add_argument("--accidental-rate", type=finite, default=0.0)
    p_sim.set_defaults(func=cmd_simulate)

    p_kr = sub.add_parser("keyrate", parents=[common],
                          help="compute rate bounds and thresholds")
    p_kr.add_argument("--d", type=int, default=None)
    p_kr.add_argument("--bound",
                      choices=["depolarizing", "two-mub-uniform", "two-mub-block"],
                      help="default: the two-MUB bound, reported as two_mub_block if "
                           "E_b > 0, else two_mub_uniform; two-mub-block is an alias of it")
    p_kr.add_argument("--E", type=finite, default=None, help="mean error over all bases")
    p_kr.add_argument("--Eu", type=finite, default=None)
    p_kr.add_argument("--Eb", type=finite, default=None)
    p_kr.add_argument("--counts", help="counts CSV to normalize, decompose and bound")
    p_kr.add_argument("--curve", choices=["rate", "thresholds"])
    p_kr.add_argument("--errors", default="0:0.5:101", help="lo:hi:n grid for --curve rate")
    p_kr.add_argument("--d-range", default="2:32", help="lo:hi for --curve thresholds")
    p_kr.set_defaults(func=cmd_keyrate)
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if args.config:
            # The config section as flags right after the command name, so
            # that typed flags, parsed later, win.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_argv(args.config, args.command)
                                     + argv[at:])
        if (code := args.func(args)) == EXIT_OK and "stage" in vars(args):
            _commit(*_out_dir(args))
        return code
    except (HdqkdError, OSError) as exc:
        if isinstance(exc, OSError) and getattr(args, "stage", None):
            _name_in_out(exc, *_out_dir(args))
        print(f"error: {exc}", file=sys.stderr)
        # Failed validation of flags, config, inputs, geometry or noise exits 2.
        failed = isinstance(exc, (InsufficientDataError, NoThresholdError, OSError))
        return EXIT_COMPUTE if failed else EXIT_USAGE
    finally:  # the stage's files reach --out only through _commit
        if getattr(args, "stage", None):
            shutil.rmtree(args.stage, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
