"""Command-line front end: `hdqkd <command> [options]`.

Commands compose through files: each run writes its outputs plus a
resolved-config snapshot (JSON) into the output directory, sufficient to
reproduce the run bit-exactly.  A JSON config file supplies defaults per
command; explicit flags win.

Exit codes: 0 success, 1 computation failed after validation, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, keyrate, mub, optics, protocol
from .errors import (
    HdqkdError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidDimensionError,
    InvalidInputError,
    NoThresholdError,
)

CONFIG_VERSION = 1

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2


def _echo(args, *parts) -> None:
    if not getattr(args, "quiet", False):
        print(*parts)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("HDQKD_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _snapshot(args, out: Path, extra: dict | None = None) -> None:
    """Record everything needed to reproduce this run."""
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "config") and not k.startswith("_")
    }
    doc = {
        "version": CONFIG_VERSION,
        "package_version": __version__,
        "generator": protocol.GENERATOR_ID,
        "command": args.command,
        "params": params,
    }
    doc.update(extra or {})
    try:
        text = json.dumps(doc, indent=2, default=str, allow_nan=False)
    except ValueError:
        raise InvalidInputError("the resolved config holds non-finite values") from None
    (out / "resolved_config.json").write_text(text)


def _load_config_section(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(doc, dict):
        raise InvalidConfigError(f"config {path} must hold a JSON object")
    section = doc.get(command, {})
    if not isinstance(section, dict):
        raise InvalidConfigError(f"config section '{command}' must be an object")
    return section


def _config_defaults(parser: argparse.ArgumentParser, command: str, section: dict) -> dict:
    """A config section as parser defaults.  Keys are the command's long
    options; each value must be what its flag accepts on the command line:
    true or false for a switch, otherwise a number or string that passes
    the flag's type conversion and choices."""
    options = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in section.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise InvalidConfigError(f"unknown config key for {command}: '{key}'")
        try:
            if action.nargs == 0:  # a switch
                ok, converted = isinstance(value, bool), value
            else:
                converted = (action.type or str)(str(value))
                ok = type(value) in (str, int, float)
                ok = ok and converted in (action.choices or [converted])
        except ValueError:
            ok = False
        if not ok:
            raise InvalidConfigError(f"config {command}: {key} cannot be {value!r}")
        defaults[action.dest] = converted
    return defaults


def _check_finite(parser: argparse.ArgumentParser, args) -> None:
    """Reject NaN or an infinity in any float flag, given on the command
    line or by a config file, before the command writes anything."""
    for action in parser._actions:
        value = getattr(args, action.dest, None)
        if action.type is float and value is not None and not math.isfinite(value):
            raise InvalidConfigError(f"{action.option_strings[0]} must be finite")


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


def _build_bases(d: int, family: str) -> list[mub.Basis]:
    if family == "wh-all":
        return list(mub.full_mub_set(d))
    if family == "sqrt-pair":
        return list(mub.sqrt_mub_pair(d))
    if family == "comp-dft":
        return [mub.computational_basis(d), mub.dft_basis(d)]
    if family == "dft":
        return [mub.dft_basis(d)]
    return [mub.computational_basis(d)]  # argparse choices leave only "computational"


def _alignments(text: str | None, n_matched: int) -> list[str]:
    """--alignments: 'row' or 'col' for each of the n_matched settings.
    Without the flag, row,col for two matched settings (the row/col-DFT
    pair) and row for each setting otherwise."""
    if text is None:
        return ["row", "col"] if n_matched == 2 else ["row"] * n_matched
    values = text.split(",")
    if len(values) != n_matched or not set(values) <= {"row", "col"}:
        raise InvalidConfigError(
            f"--alignments needs row or col for each of the {n_matched} matched "
            f"settings, got '{text}'"
        )
    return values


# ---------------------------------------------------------------------------
# mub


def _basis_filename(basis: mub.Basis) -> str:
    tag = basis.label.lower().replace(":", "_").replace("=", "").replace("-", "_")
    return f"basis_{tag}.json"


def cmd_mub(args) -> int:
    out = _out_dir(args)
    if args.action == "gen":
        bases = _build_bases(args.d, args.family)
        for basis in bases:
            basis.save_json(out / _basis_filename(basis))
            _echo(args, f"wrote {out / _basis_filename(basis)}")
        _snapshot(args, out)
        return EXIT_OK

    # check
    if not args.files:
        raise InvalidConfigError("mub check needs at least one basis file")
    loaded = []
    for path in args.files:
        try:
            with open(path) as fh:
                doc = json.load(fh)
            d = int(doc["dim"])
            amps = mub.amplitude_matrix(
                d, np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
            )
            loaded.append((path, d, str(doc.get("label", "")), amps))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidConfigError(f"cannot read basis file {path}: {exc}")
    failed = False
    for path, d, label, amps in loaded:
        dev = mub.unitarity_deviation(amps)
        ok = dev <= args.unitarity_tol
        failed |= not ok
        _echo(args, f"{path} [{label}]: unitarity deviation {dev:.3e} "
              f"({'ok' if ok else 'FAIL'})")
    for i, (pi, di, li, ai) in enumerate(loaded):
        for pj, dj, lj, aj in loaded[i + 1:]:
            if di != dj:
                _echo(args, f"{li} vs {lj}: dimension mismatch, skipped")
                continue
            dev = mub.unbiasedness_deviation(ai, aj)
            ok = dev <= args.unbiased_tol
            failed |= not ok
            _echo(args, f"{li or pi} vs {lj or pj}: unbiasedness deviation "
                  f"{dev:.3e} ({'ok' if ok else 'FAIL'})")
    return EXIT_COMPUTE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# optics


def _design_geometry(args):
    grid = optics.GridSpec(args.nx, args.ny, args.pitch, args.wavelength)
    arrangement = args.arrangement
    if arrangement == "auto":
        arrangement = "grid" if _has_blocks(args.d) else "line"
    layout = optics.ApertureLayout(args.d, args.aperture_radius, args.aperture_spacing,
                                   arrangement)
    modes = optics.make_aperture_modes(layout, grid)
    return grid, layout, modes


def _design_targets(args, modes):
    d = args.d
    if args.target == "identity":
        coeff = np.eye(d, dtype=complex)
    elif args.target == "swap":
        coeff = np.eye(d, dtype=complex)[::-1]
    elif args.target == "dft":
        coeff = mub.dft_basis(d).amplitudes
    else:  # row-dft or col-dft, the remaining argparse choices
        pair = mub.sqrt_mub_pair(d)
        coeff = pair[0 if args.target == "row-dft" else 1].amplitudes
    # Sorter convention: incoming basis state m ends up in port m, so
    # input mode n maps to sum_m conj(coeff[n, m]) * port_m.
    targets = [optics.superpose(modes, coeff[n, :].conj()) for n in range(d)]
    intended = coeff.conj().T
    return targets, intended


def _detection_modes(args, grid, layout, modes, planes):
    if args.detection == "disks":
        det_layout = optics.ApertureLayout(
            layout.count, args.detection_radius, layout.spacing, layout.arrangement
        )
        return optics.make_aperture_modes(det_layout, grid)
    # Default: input modes carried to the detection plane with the exact
    # periodic transform (mask-free pass), which keeps them orthonormal.
    return optics.mask_free_passes(modes, planes, args.plane_spacing)


def cmd_optics(args) -> int:
    out = _out_dir(args)
    grid, layout, modes = _design_geometry(args)
    targets, intended = _design_targets(args, modes)

    if args.action == "design":
        outputs = _detection_modes(args, grid, layout, modes, args.planes)
        stack, transfer, objective = optics.design_converter(
            modes, targets, outputs, args.planes, args.plane_spacing,
            iterations=args.iterations, pad_factor=args.pad_factor,
        )
        optics.save_stack(stack, out / "stack.mplc")
        _echo(args, f"wrote {out / 'stack.mplc'}")
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
        outputs = _detection_modes(args, grid, layout, modes, stack.planes)
        transfer, objective = optics.score_converter(
            stack, modes, outputs, targets, pad_factor=args.pad_factor
        )
    metrics = optics.sorter_metrics(transfer, intended=intended)
    metrics.save_json(out / "metrics.json")
    _echo(args, f"objective {objective:.4f}  fidelity {metrics.fidelity:.4f}  "
          f"crosstalk {metrics.mean_crosstalk:.4f}  "
          f"loss {metrics.insertion_loss_db:.3f} dB")
    if args.pgm:
        for p in range(1, stack.planes + 1):
            optics.save_mask_pgm(stack, p, out / f"mask_{p:02d}.pgm")
        _echo(args, f"wrote {stack.planes} PGM masks")
    _snapshot(args, out, {"objective": objective})
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
    fraction = args.block_fraction or 0.0
    return args.Et * (1.0 - fraction), args.Et * fraction


def cmd_simulate(args) -> int:
    bases = _build_bases(args.d, args.family)
    e_u, e_b = _noise_from_args(args)
    table = protocol.apply_noise(
        protocol.ideal_prob_table(bases, [b.conjugate() for b in bases]), e_u, e_b,
        _alignments(args.alignments, len(bases)),
    )
    if args.pair_rate == 0.0 and args.accidental_rate == 0.0:
        _echo(args, "warning: zero pair and accidental rates, counts will be all zero")
    counts = protocol.sample_counts(
        table, args.pair_rate, args.time, args.accidental_rate, seed=args.seed
    )
    out = _out_dir(args)
    protocol.save_counts_csv(counts, out / "counts.csv")
    _echo(args, f"wrote {out / 'counts.csv'} "
          f"({int(counts.counts.sum())} coincidences)")

    session = protocol.simulate_session(table, args.rounds, seed=args.seed)
    session.save_jsonl(out / "session.jsonl")
    _echo(args, f"wrote {out / 'session.jsonl'} "
          f"(sifted {session.sifted_fraction:.3f}, QBER {session.qber:.4f})")
    qber = session.qber
    _snapshot(args, out, {"observed_qber": None if math.isnan(qber) else qber})
    return EXIT_OK


# ---------------------------------------------------------------------------
# keyrate


def _has_blocks(d: int) -> bool:
    """Whether d is a perfect square >= 4, whose modes form sqrt(d)-mode blocks."""
    try:
        return mub.grid_side(d) > 1
    except InvalidDimensionError:
        return False


def _errors_from_counts(args):
    counts = protocol.load_counts_csv(args.counts)
    table = protocol.normalize_counts(counts)
    d = table.dim
    n_matched = min(table.bases_alice, table.bases_bob)
    alignments = _alignments(args.alignments, n_matched)
    if not _has_blocks(d):
        # No block structure to separate; report the total error as uniform.
        stats = keyrate.subset_stats(table)
        return d, float(stats.E), 0.0
    parts = [
        protocol.decompose_errors(table, k + 1, alignments[k])
        for k in range(n_matched)
    ]
    e_u = float(np.mean([p.uniform_error for p in parts]))
    e_b = float(np.mean([p.block_error for p in parts]))
    return d, e_u, e_b


def cmd_keyrate(args) -> int:
    if args.alignments is not None and not args.counts:
        raise InvalidConfigError("--alignments applies only to --counts")
    out = _out_dir(args)

    if args.curve == "thresholds":
        dims = _parse_range(args.d_range, "--d-range", integer=True)
        rows = keyrate.threshold_curve(dims)
        header = ["d", "block_fraction", "threshold"]
        keyrate.save_curve_csv(
            out / "thresholds.csv", header, [[row[key] for key in header] for row in rows],
            {"bound": "two_mub", "d_range": args.d_range, "root_tol": keyrate.ROOT_TOL},
        )
        _echo(args, f"wrote {out / 'thresholds.csv'} ({len(rows)} rows)")
        _snapshot(args, out)
        return EXIT_OK

    errors = _parse_range(args.errors, "--errors") if args.curve == "rate" else None
    if args.counts:
        if any(flag is not None for flag in (args.E, args.Eu, args.Eb)):
            raise InvalidConfigError("--counts supplies the errors; drop --E, --Eu and --Eb")
        d, e_u, e_b = _errors_from_counts(args)
        bound = args.bound or ("two-mub-block" if e_b > 0 else "two-mub-uniform")
    else:
        d = args.d
        if d is None:
            raise InvalidConfigError("need --d unless reading --counts")
        bound = args.bound or "two-mub-uniform"
        if args.E is not None and (args.Eu is not None or args.Eb is not None):
            raise InvalidConfigError("--E cannot be combined with --Eu/--Eb")
        e_u, e_b = (args.E, 0.0) if args.E is not None else (args.Eu or 0.0, args.Eb or 0.0)

    if bound == "depolarizing":
        report = keyrate.rate_depolarizing(d, e_u + e_b)
    else:
        if bound == "two-mub-uniform" and e_b > 0:
            e_u, e_b = e_u + e_b, 0.0
        report = keyrate.rate_two_mub(d, e_u, e_b)

    _echo(args, f"bound {report.bound}  d={report.dim}  "
          f"rate {report.rate:.4f} bits/sifted photon  "
          f"threshold {report.threshold:.4f}")
    report.save_json(out / "report.json")
    keyrate.save_report_csv(report, out / "report.csv")

    if args.curve == "rate":
        total = e_u + e_b
        frac = e_b / total if total > 0 else 0.0
        rows = keyrate.rate_curve(report.bound, d, errors, block_fraction=frac)
        keyrate.save_curve_csv(
            out / "curve.csv", ["E", "rate"], rows.tolist(),
            {"bound": report.bound, "d": d, "block_fraction": frac,
             "root_tol": keyrate.ROOT_TOL},
        )
        _echo(args, f"wrote {out / 'curve.csv'} ({len(rows)} rows)")
    _snapshot(args, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser, _ = _build_parser_with_map()
    return parser


def _build_parser_with_map():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file with per-command defaults")
    common.add_argument("--out", help="output directory (default $HDQKD_OUT or .)")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="hdqkd",
        description="High-dimensional QKD design and certification toolkit",
    )
    parser.add_argument("--version", action="version", version=f"hdqkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mub = sub.add_parser("mub", parents=[common], help="generate or check MUB files")
    p_mub.add_argument("action", choices=["gen", "check"])
    p_mub.add_argument("files", nargs="*", help="basis JSON files (check)")
    p_mub.add_argument("--d", type=int, default=5, help="dimension")
    p_mub.add_argument("--family", default="wh-all",
                       choices=["wh-all", "sqrt-pair", "comp-dft", "dft", "computational"])
    p_mub.add_argument("--unitarity-tol", type=float, default=mub.UNITARITY_TOL)
    p_mub.add_argument("--unbiased-tol", type=float, default=mub.UNBIASED_TOL)
    p_mub.set_defaults(func=cmd_mub)

    p_opt = sub.add_parser("optics", parents=[common],
                           help="design or evaluate a converter stack")
    p_opt.add_argument("action", choices=["design", "eval"])
    p_opt.add_argument("--stack", help="stack container to evaluate (eval)")
    p_opt.add_argument("--d", type=int, default=5, help="number of modes")
    p_opt.add_argument("--arrangement", default="auto", choices=["auto", "grid", "line"])
    p_opt.add_argument("--target", default="dft",
                       choices=["identity", "swap", "dft", "row-dft", "col-dft"])
    p_opt.add_argument("--planes", type=int, default=10)
    p_opt.add_argument("--plane-spacing", type=float, default=43.5e-3, help="meters")
    p_opt.add_argument("--iterations", type=int, default=30)
    p_opt.add_argument("--nx", type=int, default=192)
    p_opt.add_argument("--ny", type=int, default=192)
    p_opt.add_argument("--pitch", type=float, default=15e-6, help="meters per pixel")
    p_opt.add_argument("--wavelength", type=float, default=810e-9, help="meters")
    p_opt.add_argument("--aperture-radius", type=float, default=100e-6)
    p_opt.add_argument("--aperture-spacing", type=float, default=300e-6)
    p_opt.add_argument("--pad-factor", type=int, default=2)
    p_opt.add_argument("--detection", default="propagated", choices=["propagated", "disks"])
    p_opt.add_argument("--detection-radius", type=float, default=50e-6,
                       help="fiber-core disk radius for --detection disks")
    p_opt.add_argument("--pgm", action="store_true", help="also dump masks as 16-bit PGM")
    p_opt.set_defaults(func=cmd_optics)

    p_sim = sub.add_parser("simulate", parents=[common], help="simulate a QKD session")
    p_sim.add_argument("--d", type=int, default=25)
    p_sim.add_argument("--family", default="sqrt-pair",
                       choices=["wh-all", "sqrt-pair", "comp-dft"])
    p_sim.add_argument("--Et", type=float, default=None, help="total matched-basis error")
    p_sim.add_argument("--block-fraction", type=float, default=None,
                       help="share of --Et inside a block (default 0)")
    p_sim.add_argument("--Eu", type=float, default=None, help="uniform error component")
    p_sim.add_argument("--Eb", type=float, default=None, help="block error component")
    p_sim.add_argument("--alignments", help="comma list of row/col per basis")
    p_sim.add_argument("--rounds", type=int, default=100000)
    p_sim.add_argument("--pair-rate", type=float, default=1e4, help="pairs per second")
    p_sim.add_argument("--time", type=float, default=100.0, help="integration seconds")
    p_sim.add_argument("--accidental-rate", type=float, default=0.0)
    p_sim.set_defaults(func=cmd_simulate)

    p_kr = sub.add_parser("keyrate", parents=[common],
                          help="compute rate bounds and thresholds")
    p_kr.add_argument("--d", type=int, default=None)
    p_kr.add_argument("--bound",
                      choices=["depolarizing", "two-mub-uniform", "two-mub-block"])
    p_kr.add_argument("--E", type=float, default=None, help="mean error over all bases")
    p_kr.add_argument("--Eu", type=float, default=None)
    p_kr.add_argument("--Eb", type=float, default=None)
    p_kr.add_argument("--counts", help="counts CSV to normalize, decompose and bound")
    p_kr.add_argument("--alignments", help="comma list of row/col per matched basis")
    p_kr.add_argument("--curve", choices=["rate", "thresholds"])
    p_kr.add_argument("--errors", default="0:0.5:101", help="lo:hi:n grid for --curve rate")
    p_kr.add_argument("--d-range", default="2:32", help="lo:hi for --curve thresholds")
    p_kr.set_defaults(func=cmd_keyrate)
    return parser, {"mub": p_mub, "optics": p_opt, "simulate": p_sim, "keyrate": p_kr}


def main(argv=None) -> int:
    parser, submap = _build_parser_with_map()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Install the config section as the subcommand's defaults and
            # re-parse, so precedence is built-in < config file < flags.
            section = _load_config_section(args.config, args.command)
            sub = submap[args.command]
            sub.set_defaults(**_config_defaults(sub, args.command, section))
            args = parser.parse_args(argv)
        _check_finite(submap[args.command], args)
    except InvalidConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (InvalidConfigError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InsufficientDataError, NoThresholdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except HdqkdError as exc:
        # Failed validation of inputs/geometry/noise: a configuration problem.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
