import argparse
import contextlib
import errno
import functools
import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdqkd import cli, optics, protocol
from hdqkd.cli import main
from hdqkd.errors import InvalidInputError
from hdqkd.keyrate import rate_two_mub
from hdqkd.optics import load_stack
from hdqkd.protocol import decompose_errors, load_counts_csv, normalize_counts


def run(*argv):
    return main([str(a) for a in argv])


# --- mub -----------------------------------------------------------------------


def test_mub_gen_wh_all_writes_six_files(tmp_path):
    assert run("mub", "gen", "--d", 5, "--family", "wh-all", "--out", tmp_path, "--quiet") == 0
    files = sorted(p.name for p in tmp_path.glob("basis_*.json"))
    assert len(files) == 6
    assert (tmp_path / "resolved_config.json").exists()


def test_mub_gen_sqrt_pair_writes_two_files(tmp_path):
    assert run("mub", "gen", "--d", 25, "--family", "sqrt-pair", "--out", tmp_path, "--quiet") == 0
    assert len(list(tmp_path.glob("basis_*.json"))) == 2


def test_mub_check_passes_on_generated_files(tmp_path):
    run("mub", "gen", "--d", 5, "--family", "wh-all", "--out", tmp_path, "--quiet")
    files = sorted(tmp_path.glob("basis_*.json"))
    assert run("mub", "check", *files, "--quiet") == 0


@pytest.mark.parametrize("where", ["before", "between", "after"])
def test_mub_check_takes_its_options_anywhere(tmp_path, capsys, where):
    run("mub", "gen", "--d", 5, "--family", "wh-all", "--out", tmp_path, "--quiet")
    first, *rest = sorted(map(str, tmp_path.glob("basis_*.json")))
    options = ["--quiet", "--unitarity-tol", "1e-12"]
    argv = {"before": [*options, first, *rest], "between": [first, *options, *rest],
            "after": [first, *rest, *options]}[where]
    assert run("mub", "check", *argv) == 0
    assert capsys.readouterr() == ("", "")


def test_mub_check_creates_no_out_directory(tmp_path):
    run("mub", "gen", "--d", 2, "--family", "dft", "--out", tmp_path, "--quiet")
    fresh = tmp_path / "fresh"
    assert run("mub", "check", tmp_path / "basis_dft.json", "--out", fresh, "--quiet") == 0
    assert not fresh.exists()


def test_mub_check_fails_on_corrupted_file(tmp_path, capsys):
    run("mub", "gen", "--d", 5, "--family", "dft", "--out", tmp_path, "--quiet")
    path = tmp_path / "basis_dft.json"
    doc = json.loads(path.read_text())
    doc["re"][0][0] += 0.2
    path.write_text(json.dumps(doc))
    assert run("mub", "check", path) == 1
    assert "deviation" in capsys.readouterr().out


def test_mub_check_rejects_unparseable_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert run("mub", "check", path) == 2


@pytest.mark.parametrize("dim, shape", [(5, (4, 4)), (3, (3, 5)), (5, (5,))])
def test_mub_check_rejects_amplitudes_of_the_wrong_shape(tmp_path, capsys, dim, shape):
    run("mub", "gen", "--d", 5, "--family", "dft", "--out", tmp_path, "--quiet")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": dim, "label": "bad", "re": np.ones(shape).tolist(),
                               "im": np.zeros(shape).tolist()}))
    assert run("mub", "check", tmp_path / "basis_dft.json", bad, "--quiet") == 2
    assert "bad.json" in capsys.readouterr().err


@pytest.mark.parametrize("part", ["re", "im"])
def test_mub_check_rejects_non_finite_amplitudes(tmp_path, capsys, part):
    run("mub", "gen", "--d", 5, "--family", "dft", "--out", tmp_path, "--quiet")
    path = tmp_path / "basis_dft.json"
    doc = json.loads(path.read_text())
    doc[part][1][2] = float("nan")
    path.write_text(json.dumps(doc))
    assert run("mub", "check", path, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("dim", [2.5, True, "2", 0])
def test_mub_check_rejects_a_dim_that_is_not_a_count(tmp_path, capsys, dim):
    run("mub", "gen", "--d", 2, "--family", "dft", "--out", tmp_path, "--quiet")
    path = tmp_path / "basis_dft.json"
    doc = json.loads(path.read_text())
    doc["dim"] = dim
    path.write_text(json.dumps(doc))
    assert run("mub", "check", path, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


def test_non_finite_flag_is_not_recorded(tmp_path, capsys):
    assert run("mub", "gen", "--d", 2, "--family", "dft", "--unitarity-tol", "nan",
               "--out", tmp_path, "--quiet") == 2
    err = capsys.readouterr().err
    assert err == "error: argument --unitarity-tol: invalid finite value: 'nan'\n"
    assert not (tmp_path / "resolved_config.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_mub_gen_rejects_a_non_finite_tolerance_before_writing(tmp_path, capsys, value):
    out = tmp_path / "out"
    assert run("mub", "gen", "--d", 2, "--family", "dft", f"--unitarity-tol={value}",
               "--out", out, "--quiet") == 2
    assert "--unitarity-tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_mub_check_rejects_a_non_finite_tolerance(tmp_path, capsys, value):
    run("mub", "gen", "--d", 2, "--family", "dft", "--out", tmp_path, "--quiet")
    out = tmp_path / "out"
    assert run("mub", "check", tmp_path / "basis_dft.json", f"--unitarity-tol={value}",
               "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "--unitarity-tol" in captured.err
    assert "FAIL" not in captured.out
    assert not out.exists()


def test_mub_gen_rejects_a_non_finite_tolerance_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mub": {"unbiased-tol": NaN}}')
    out = tmp_path / "out"
    assert run("mub", "gen", "--d", 2, "--family", "dft", "--config", cfg, "--out", out) == 2
    assert "--unbiased-tol" in capsys.readouterr().err
    assert not out.exists()


def test_mub_without_an_action_names_only_the_action(capsys):
    assert run("mub") == 2
    assert capsys.readouterr().err == "error: the following arguments are required: action\n"


def test_mub_gen_invalid_dimension_exits_2(tmp_path):
    assert run("mub", "gen", "--d", 6, "--family", "wh-all", "--out", tmp_path) == 2


# --- optics --------------------------------------------------------------------


def optics_args(tmp_path, *extra):
    return (
        "optics", "design", "--d", 2, "--arrangement", "line", "--target", "swap",
        "--planes", 2, "--plane-spacing", "5e-3", "--iterations", 4,
        "--nx", 96, "--ny", 64, "--out", tmp_path, "--quiet", *extra,
    )


def test_optics_design_writes_stack_and_metrics(tmp_path):
    assert run(*optics_args(tmp_path, "--pgm")) == 0
    stack = load_stack(tmp_path / "stack.mplc")
    assert stack.planes == 2
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert 0.0 <= metrics["fidelity"] <= 1.0
    assert len(list(tmp_path.glob("mask_*.pgm"))) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--detection-radius", "--plane-spacing", "--wavelength"])
def test_optics_design_rejects_a_non_finite_flag_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert run(*optics_args(out, f"{flag}={value}")) == 2
    err = capsys.readouterr().err
    assert err == f"error: argument {flag}: invalid finite value: '{value}'\n"
    assert not out.exists()


TARGET_DESIGN = ("optics", "design", "--d", 4, "--planes", 3, "--plane-spacing", "5e-3",
                 "--iterations", 2, "--nx", 32, "--ny", 32, "--aperture-radius", "40e-6",
                 "--aperture-spacing", "120e-6", "--quiet")


@pytest.mark.parametrize("alias, spec", [
    ("identity", "computational:1"), ("dft", "dft:1"),
    ("row-dft", "sqrt-pair:1"), ("col-dft", "sqrt-pair:2"),
])
def test_old_target_names_are_aliases_of_family_bases(tmp_path, alias, spec):
    assert run(*TARGET_DESIGN, "--target", alias, "--out", tmp_path / "alias") == 0
    assert run(*TARGET_DESIGN, "--target", spec, "--out", tmp_path / "spec") == 0
    for name in ("stack.mplc", "metrics.json"):
        assert (tmp_path / "alias" / name).read_bytes() == (tmp_path / "spec" / name).read_bytes()


@pytest.mark.parametrize("d, spec", [
    (5, "wh-all:0"), (5, "wh-all:x"), (5, "nope:1"), (5, "swap:1"), (5, ""),
    (5, "wh-all:7"),  # six bases at d=5
    (4, "wh-all:1"),  # d not prime
    (5, "sqrt-pair:1"),  # d not square
])
def test_a_bad_target_is_a_usage_error(tmp_path, capsys, d, spec):
    out = tmp_path / "out"
    assert run("optics", "design", "--d", d, "--target", spec, "--out", out, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_optics_eval_reuses_stack(tmp_path):
    run(*optics_args(tmp_path))
    out2 = tmp_path / "eval"
    code = run(
        "optics", "eval", "--stack", tmp_path / "stack.mplc", "--d", 2,
        "--arrangement", "line", "--target", "swap", "--planes", 2,
        "--plane-spacing", "5e-3", "--nx", 96, "--ny", 64,
        "--detection", "disks", "--out", out2, "--quiet",
    )
    assert code == 0
    assert (out2 / "metrics.json").exists()


def eval_args(stack_path, out):
    return (
        "optics", "eval", "--stack", stack_path, "--d", 2, "--arrangement", "line",
        "--target", "swap", "--planes", 2, "--plane-spacing", "5e-3", "--nx", 96,
        "--ny", 64, "--out", out, "--quiet",
    )


def test_optics_eval_needs_a_stack(tmp_path, capsys):
    code = run("optics", "eval", "--d", 2, "--arrangement", "line", "--nx", 96, "--ny", 64,
               "--plane-spacing", "5e-3", "--out", tmp_path, "--quiet")
    assert code == 2
    assert capsys.readouterr().err == "error: optics eval needs --stack\n"
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("flag, value, stacked", [
    ("--plane-spacing", "7e-3", "0.005"),
    ("--planes", "3", "2 planes"),
], ids=["plane-spacing", "planes"])
def test_optics_eval_rejects_another_plane_spacing(tmp_path, capsys, flag, value, stacked):
    run(*optics_args(tmp_path))
    argv = list(eval_args(tmp_path / "stack.mplc", tmp_path / "eval"))
    argv[argv.index(flag) + 1] = value
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and stacked in err and f"{flag} {float(value):g}" in err
    assert not (tmp_path / "eval").exists()


def test_optics_eval_rejects_trailing_bytes(tmp_path, capsys):
    run(*optics_args(tmp_path))
    path = tmp_path / "stack.mplc"
    path.write_bytes(path.read_bytes() + b"\0\0\0\0")
    assert run(*eval_args(path, tmp_path / "eval")) == 2
    assert "payload" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_optics_eval_rejects_a_nan_phase(tmp_path, capsys):
    run(*optics_args(tmp_path))
    path = tmp_path / "stack.mplc"
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    assert run(*eval_args(path, tmp_path / "eval")) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics.json").exists()


@pytest.mark.parametrize("nx, pitch, wavelength, phase, spacing", [
    (4, 15e-6, 810e-9, 0.0, 5e-3),
    (96, math.nan, 810e-9, 0.0, 5e-3),
    (96, 15e-6, math.inf, 0.0, 5e-3),
    (96, 15e-6, 810e-9, math.nan, 5e-3),
    (96, 15e-6, 810e-9, 0.0, 0.0),
    (96, 15e-6, 810e-9, 0.0, -5e-3),
], ids=["grid-under-8x8", "nan-pitch", "infinite-wavelength", "nan-phase", "zero-spacing",
        "negative-spacing"])
def test_optics_eval_names_the_stack_in_what_its_grid_or_masks_reject(
        tmp_path, capsys, nx, pitch, wavelength, phase, spacing):
    path = tmp_path / "bad.mplc"
    header = optics._HEADER.pack(optics.MAGIC, optics.FORMAT_STACK, nx, 64, 2, pitch,
                                 wavelength, spacing)
    path.write_bytes(header + np.full(2 * nx * 64, phase, dtype="<f8").tobytes())
    assert run(*eval_args(path, tmp_path / "eval")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "eval").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_optics_eval_writes_no_nan_metrics(tmp_path, capsys, monkeypatch):
    from hdqkd import optics

    run(*optics_args(tmp_path))
    monkeypatch.setattr(optics, "score_converter",
                        lambda *a, **k: (np.full((2, 2), np.nan + 0j), np.nan))
    assert run(*eval_args(tmp_path / "stack.mplc", tmp_path / "eval")) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_optics_overlapping_apertures_exit_2(tmp_path):
    code = run(
        "optics", "design", "--d", 2, "--arrangement", "line",
        "--aperture-radius", "2e-4", "--aperture-spacing", "3e-4",
        "--out", tmp_path, "--quiet",
    )
    assert code == 2


@pytest.mark.parametrize("spacing", ["-5e-3", "0"])
def test_optics_design_rejects_a_bad_plane_spacing_before_writing(tmp_path, capsys, spacing):
    out = tmp_path / "out"
    assert run(*optics_args(out, f"--plane-spacing={spacing}")) == 2
    assert "plane spacing must be finite and > 0" in capsys.readouterr().err
    assert not (out / "stack.mplc").exists()


@pytest.mark.parametrize("d", [-1, 0])
def test_optics_design_rejects_a_dimension_below_one(tmp_path, capsys, d):
    assert run("optics", "design", "--d", d, "--out", tmp_path, "--quiet") == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("extra, error", [
    # detection disks that do not fit the grid
    (("--aperture-spacing", "1e-3", "--detection", "disks", "--detection-radius", "2e-4"),
     "does not fit"),
    # detection disks that touch at a pixel, so they are not orthogonal
    (("--detection", "disks", "--detection-radius", "1.5e-4"), "not orthonormal"),
    # a spacing within the sweeps' pad-2 bound (35.5 mm) but past the
    # 17.8 mm bound of the unpadded mask-free detection pass
    (("--plane-spacing", "25e-3", "--detection", "propagated"), "anti-aliasing"),
])
def test_optics_design_checks_its_detection_modes_before_the_first_sweep(
    tmp_path, capsys, monkeypatch, extra, error
):
    from hdqkd import optics

    def reached(*args, **kwargs):
        raise AssertionError("the design swept before checking its detection modes")

    monkeypatch.setattr(optics, "_wavefront_sweeps", reached)
    out = tmp_path / "out"
    assert run(*optics_args(out), *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and error in err
    assert not out.exists()


@pytest.mark.parametrize("action", ["design", "eval"])
@pytest.mark.parametrize("extra, error", [
    # apertures of radius 20 um 60 um apart, disks of the default 50 um radius
    (("--aperture-radius", "20e-6", "--aperture-spacing", "60e-6"),
     "detection disks overlap: spacing 6e-05 < 2*radius 0.0001"),
    (("--aperture-spacing", "1e-3", "--detection-radius", "2e-4"),
     "detection disk at (-5.00e-04, 0.00e+00) m with radius 2.00e-04 m does not fit"),
])
def test_optics_names_the_detection_disks_in_what_their_geometry_rejects(
        tmp_path, capsys, action, extra, error):
    out = tmp_path / "out"
    if action == "design":
        argv = optics_args(out)
    else:
        assert run(*optics_args(tmp_path)) == 0
        argv = eval_args(tmp_path / "stack.mplc", out)
    assert run(*argv, "--detection", "disks", *extra) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert not out.exists()


def test_optics_design_with_a_nan_transfer_writes_nothing(tmp_path, capsys, monkeypatch):
    from hdqkd import optics

    def nan_design(inputs, targets, outputs, planes, spacing, **kwargs):
        stack = optics.PhaseMaskStack(inputs()[0].grid, np.zeros((planes, 96, 64)), spacing)
        return stack, np.full((2, 2), np.nan + 0j), np.nan

    monkeypatch.setattr(optics, "design_converter", nan_design)
    out = tmp_path / "out"
    assert run(*optics_args(out)) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_optics_sampling_error_has_remedy(tmp_path, capsys):
    code = run(
        "optics", "design", "--d", 2, "--arrangement", "line", "--nx", 128,
        "--ny", 128, "--pitch", "5e-6", "--plane-spacing", "43.5e-3",
        "--out", tmp_path, "--quiet",
    )
    assert code == 2
    assert "enlarge" in capsys.readouterr().err


# --- simulate ------------------------------------------------------------------


def test_simulate_writes_counts_session_and_config(tmp_path):
    code = run(
        "simulate", "--d", 25, "--family", "sqrt-pair", "--Eu", 0.073, "--Eb", 0.248,
        "--pair-rate", "1e3", "--time", 100, "--rounds", 5000, "--seed", 7,
        "--out", tmp_path, "--quiet",
    )
    assert code == 0
    counts = load_counts_csv(tmp_path / "counts.csv")
    assert counts.dim == 25 and counts.seed == 7
    assert (tmp_path / "session.jsonl").exists()
    snapshot = json.loads((tmp_path / "resolved_config.json").read_text())
    assert snapshot["simulate"]["seed"] == 7
    assert snapshot["generator"] == "numpy-philox4x64"


def test_resolved_config_is_strict_json_when_nothing_is_sifted(tmp_path):
    # one round in a two-basis family is sifted only half the time; seed 4 is not
    assert run("simulate", "--d", 4, "--family", "sqrt-pair", "--rounds", 1, "--seed", 4,
               "--out", tmp_path, "--quiet") == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    text = (tmp_path / "resolved_config.json").read_text()
    assert json.loads(text, parse_constant=reject)["observed_qber"] is None


def test_simulate_is_reproducible(tmp_path):
    args = (
        "simulate", "--d", 4, "--family", "sqrt-pair", "--Et", 0.1,
        "--pair-rate", "1e3", "--time", 10, "--rounds", 1000, "--seed", 3, "--quiet",
    )
    run(*args, "--out", tmp_path / "a")
    run(*args, "--out", tmp_path / "b")
    assert (tmp_path / "a/counts.csv").read_bytes() == (tmp_path / "b/counts.csv").read_bytes()
    assert (tmp_path / "a/session.jsonl").read_bytes() == (tmp_path / "b/session.jsonl").read_bytes()


def test_simulate_noiseless_mubs_give_diagonal_matched_tables(tmp_path):
    run(
        "simulate", "--d", 5, "--family", "wh-all", "--pair-rate", "1e3",
        "--time", 100, "--rounds", 100, "--out", tmp_path, "--quiet",
    )
    counts = load_counts_csv(tmp_path / "counts.csv")
    for k in range(6):
        matched = counts.counts[:, :, k, k]
        assert matched.sum() > 0
        assert matched[~np.eye(5, dtype=bool)].sum() == 0


def test_simulate_zero_rates_warns(tmp_path, capsys):
    code = run(
        "simulate", "--d", 4, "--family", "sqrt-pair", "--pair-rate", 0,
        "--time", 10, "--rounds", 10, "--out", tmp_path,
    )
    assert code == 0
    assert "zero" in capsys.readouterr().out


@pytest.mark.parametrize("alignments", ["diag,diag", "row", "row,col,", "row,col,row"])
def test_simulate_rejects_bad_alignments_before_writing(tmp_path, capsys, alignments):
    out = tmp_path / "sim"
    code = run("simulate", "--d", 25, "--family", "sqrt-pair", "--Et", 0.1,
               "--alignments", alignments, "--rounds", 10, "--out", out)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --alignments")
    assert not out.exists()


def test_comp_dft_pipeline_recovers_the_block_split(tmp_path):
    # simulate records its default alignments (row,col for two matched
    # settings) in the counts, so the split the session was given comes back
    assert run("simulate", "--d", 25, "--family", "comp-dft", "--Eu", 0.073, "--Eb", 0.248,
               "--rounds", 10, "--out", tmp_path / "sim", "--quiet") == 0
    assert run("keyrate", "--counts", tmp_path / "sim" / "counts.csv",
               "--out", tmp_path / "rate", "--quiet") == 0
    report = json.loads((tmp_path / "rate" / "report.json").read_text())
    assert abs(report["rate"] - 0.8167) < 0.05


def test_keyrate_counts_reads_the_simulated_alignments(tmp_path, capsys):
    # The paper's d=25 link measured with the blocks the other way round:
    # the counts carry col,row, so the typed split's bound comes back.
    assert run("simulate", "--d", 25, "--family", "sqrt-pair", "--Eu", 0.073, "--Eb", 0.248,
               "--alignments", "col,row", "--pair-rate", "1e6", "--time", 1, "--rounds", 10,
               "--seed", 3, "--out", tmp_path / "sim", "--quiet") == 0
    counts = tmp_path / "sim" / "counts.csv"
    assert load_counts_csv(counts).alignments == ("col", "row")
    assert run("keyrate", "--counts", counts, "--out", tmp_path / "rate", "--quiet") == 0
    report = json.loads((tmp_path / "rate" / "report.json").read_text())
    assert report["bound"] == "two_mub_block"
    assert abs(report["rate"] - 0.8167) < 0.05
    capsys.readouterr()
    assert run("keyrate", "--counts", counts, "--alignments", "col,row",
               "--out", tmp_path / "again", "--quiet") == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --alignments col,row\n"


def test_negative_seed_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--d", 4, "--seed", -1, "--rounds", 10, "--out", out) == 2
    assert capsys.readouterr().err == "error: argument --seed: seed -1 must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("mub", "gen", "--d", 2, "--family", "dft", "--seed", -1),
    ("keyrate", "--d", 4, "--E", 0.1, "--seed", -5),
    ("optics", "design", "--d", 2, "--arrangement", "line", "--nx", 32, "--ny", 32,
     "--aperture-radius", "40e-6", "--aperture-spacing", "120e-6", "--planes", 2,
     "--plane-spacing", "5e-3", "--iterations", 1, "--seed", -1),
], ids=["mub", "keyrate", "optics"])
def test_every_command_rejects_a_negative_seed(tmp_path, capsys, argv):
    # the seed is checked as the flags are parsed, also by commands that draw nothing
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 2
    seed = argv[-1]
    assert capsys.readouterr().err == f"error: argument --seed: seed {seed} must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--time", "nan"), ("--time", "inf"),
                                         ("--pair-rate", "inf"), ("--pair-rate", "1e300"),
                                         ("--accidental-rate", "nan")])
def test_simulate_rejects_unsampleable_rates_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "sim"
    assert run("simulate", "--d", 4, "--rounds", 10, flag, value, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_simulate_rejects_zero_rounds_before_writing(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--d", 4, "--family", "sqrt-pair", "--rounds", 0, "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: n_rounds")
    assert not out.exists()


# --- keyrate ---------------------------------------------------------------------


def test_keyrate_depolarizing_headline(tmp_path, capsys):
    assert run("keyrate", "--d", 5, "--bound", "depolarizing", "--E", 0.11,
               "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "1.1538" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["rate"] - 1.1538152536472066) < 1e-9
    assert (tmp_path / "report.csv").exists()


def test_keyrate_two_mub_block_headline(tmp_path):
    assert run("keyrate", "--d", 25, "--bound", "two-mub-block", "--Eu", 0.073,
               "--Eb", 0.248, "--out", tmp_path, "--quiet") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["rate"] - 0.8167352325314843) < 1e-9


def test_keyrate_from_counts(tmp_path):
    run(
        "simulate", "--d", 25, "--family", "sqrt-pair", "--Eu", 0.073, "--Eb", 0.248,
        "--pair-rate", "1e4", "--time", 100, "--rounds", 100, "--seed", 5,
        "--out", tmp_path, "--quiet",
    )
    out2 = tmp_path / "rate"
    assert run("keyrate", "--counts", tmp_path / "counts.csv", "--bound",
               "two-mub-block", "--out", out2, "--quiet") == 0
    report = json.loads((out2 / "report.json").read_text())
    assert abs(report["rate"] - 0.8167) < 0.05


@pytest.mark.parametrize("bound", [None, "two-mub-uniform", "two-mub-block"])
@pytest.mark.parametrize("seed", [1, 3, 4])
def test_keyrate_counts_folds_a_negative_block_error(tmp_path, capsys, seed, bound):
    # Uniform noise only: these seeds estimate a block error slightly below 0.
    run("simulate", "--d", 25, "--family", "sqrt-pair", "--Eu", 0.1, "--pair-rate", "1e6",
        "--time", 1, "--rounds", 10, "--seed", seed, "--out", tmp_path, "--quiet")
    table = normalize_counts(load_counts_csv(tmp_path / "counts.csv"))
    parts = [decompose_errors(table, 1, "row"), decompose_errors(table, 2, "col")]
    assert np.mean([p.block_error for p in parts]) < 0
    argv = ["keyrate", "--counts", tmp_path / "counts.csv", "--out", tmp_path / "r"]
    assert run(*argv, *([] if bound is None else ["--bound", bound])) == 0
    assert "folded into the uniform error" in capsys.readouterr().out
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["bound"] == "two_mub_uniform"
    assert report["inputs"]["E"] == pytest.approx(np.mean([p.total_error for p in parts]),
                                                  abs=1e-12)


@pytest.mark.parametrize("bound", [None, "two-mub-uniform", "depolarizing"])
def test_keyrate_rejects_a_typed_negative_block_error(tmp_path, capsys, bound):
    # Only a count estimate of E_b below 0 is folded into E_u.
    argv = ["keyrate", "--d", 25, "--Eu", 0.1, "--Eb", -0.05, "--out", tmp_path]
    assert run(*argv, *([] if bound is None else ["--bound", bound])) == 2
    assert capsys.readouterr().err.splitlines() == ["error: block error -0.05 must be >= 0"]
    assert not (tmp_path / "report.json").exists()


def test_keyrate_default_bound_is_the_two_mub_bound(tmp_path):
    # The paper's d=25 link: without --bound, typed errors and counts
    # with the same noise both get the block-biased bound.
    assert run("keyrate", "--d", 25, "--Eu", 0.073, "--Eb", 0.248, "--out", tmp_path / "flags",
               "--quiet") == 0
    report = json.loads((tmp_path / "flags" / "report.json").read_text())
    assert report["bound"] == "two_mub_block"
    assert report["rate"] == rate_two_mub(25, 0.073, 0.248).rate
    run("simulate", "--d", 25, "--family", "sqrt-pair", "--Eu", 0.073, "--Eb", 0.248,
        "--pair-rate", "1e4", "--time", 100, "--rounds", 10, "--seed", 5,
        "--out", tmp_path / "sim", "--quiet")
    assert run("keyrate", "--counts", tmp_path / "sim" / "counts.csv",
               "--out", tmp_path / "counts", "--quiet") == 0
    report = json.loads((tmp_path / "counts" / "report.json").read_text())
    assert report["bound"] == "two_mub_block"


def test_keyrate_insufficient_counts_exit_1(tmp_path, capsys):
    run(
        "simulate", "--d", 4, "--family", "sqrt-pair", "--pair-rate", 0,
        "--time", 1, "--rounds", 10, "--out", tmp_path, "--quiet",
    )
    code = run("keyrate", "--counts", tmp_path / "counts.csv", "--out",
               tmp_path / "r", "--quiet")
    assert code == 1
    assert "b=1" in capsys.readouterr().err


def test_keyrate_rate_curve(tmp_path):
    assert run("keyrate", "--d", 25, "--bound", "two-mub-block", "--Eu", 0.073,
               "--Eb", 0.248, "--curve", "rate", "--errors", "0:0.5:11",
               "--out", tmp_path, "--quiet") == 0
    rows = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert rows[0] == "E,rate"
    assert len(rows) == 12
    meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert meta["d"] == 25


@pytest.mark.parametrize("flags, digest", [
    # sha256 of curve.csv for the d=25 profiles of the benchmark's thresholds-scan
    (("--bound", "two-mub-uniform", "--E", 0.001),
     "70959171ea4ccd60c9717ce57999119b093ace5ac665d94fb86a85eaf1192747"),
    (("--bound", "two-mub-block", "--Eu", 0.073, "--Eb", 0.248),
     "48f7c6220cc0319d76dd6cee515a367d34c2e7f8f4dfb712c7ab7d4ae13e88be"),
    (("--bound", "two-mub-block", "--Eu", 0, "--Eb", 0.3),
     "1568fb1204b311ab1348b4c894cb271333bc546ee6b55f28fa0f4ce2bb438a5f"),
])
def test_keyrate_rate_curve_bytes_are_pinned(tmp_path, flags, digest):
    assert run("keyrate", "--d", 25, *flags, "--curve", "rate", "--errors", "0:0.6:121",
               "--out", tmp_path, "--quiet") == 0
    assert hashlib.sha256((tmp_path / "curve.csv").read_bytes()).hexdigest() == digest


def test_keyrate_threshold_curve(tmp_path):
    assert run("keyrate", "--curve", "thresholds", "--d-range", "2:9",
               "--out", tmp_path, "--quiet") == 0
    raw = (tmp_path / "thresholds.csv").read_bytes()
    assert raw.endswith(b"\r\n") and raw.count(b"\r\n") == raw.count(b"\n")
    rows = raw.decode().splitlines()
    assert rows[0] == "d,block_fraction,threshold"
    dims = {int(r.split(",")[0]) for r in rows[1:]}
    assert dims == set(range(2, 10))
    for row in rows[1:]:
        d, fraction, threshold = row.split(",")
        assert fraction == repr(float(fraction)) and threshold == repr(float(threshold))


def test_keyrate_thresholds_csv_bytes_are_pinned(tmp_path):
    # The benchmark's threshold scan; recorded with the scalar search, one
    # profile at a time, and kept by the lockstep search of all of them.
    assert run("keyrate", "--curve", "thresholds", "--d-range", "2:512",
               "--out", tmp_path, "--quiet") == 0
    assert hashlib.sha256((tmp_path / "thresholds.csv").read_bytes()).hexdigest() == (
        "a1f33cc168556a31d8c73836fdca3fc5b18364fb15f7042d85b610bfbf40b251")


def test_keyrate_thresholds_below_d_2_is_usage_error(tmp_path, capsys):
    assert run("keyrate", "--curve", "thresholds", "--d-range", "1:5",
               "--out", tmp_path, "--quiet") == 2
    assert capsys.readouterr().err == "error: need d >= 2, got 1\n"


@pytest.mark.parametrize("d_range", ["abc", "2", "2:x", "2:9:3", "9:2"])
def test_keyrate_bad_d_range_is_usage_error(tmp_path, capsys, d_range):
    code = run("keyrate", "--curve", "thresholds", "--d-range", d_range,
               "--out", tmp_path, "--quiet")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --d-range")


@pytest.mark.parametrize("errors", ["0:x", "0", "0:0.5:x", "0:0.5:0", "nan:0.5", "0.5:0"])
def test_keyrate_bad_errors_grid_is_usage_error(tmp_path, capsys, errors):
    code = run("keyrate", "--d", 25, "--curve", "rate", "--errors", errors,
               "--out", tmp_path, "--quiet")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --errors")
    assert not (tmp_path / "report.json").exists()


def test_config_number_for_range_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"keyrate": {"d-range": 5}}))
    code = run("keyrate", "--curve", "thresholds", "--config", cfg,
               "--out", tmp_path, "--quiet")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --d-range")


def test_keyrate_needs_dimension(tmp_path):
    assert run("keyrate", "--E", 0.1, "--out", tmp_path, "--quiet") == 2


def test_unknown_bound_is_usage_error(tmp_path, capsys):
    assert run("keyrate", "--d", 5, "--bound", "magic", "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --bound: invalid choice: 'magic'")
    assert err.count("\n") == 1


# --- config file -----------------------------------------------------------------


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "keyrate": {"d": 25, "bound": "two-mub-block", "Eu": 0.073, "Eb": 0.248}
    }))
    out1 = tmp_path / "one"
    assert run("keyrate", "--config", cfg, "--out", out1, "--quiet") == 0
    report = json.loads((out1 / "report.json").read_text())
    assert report["inputs"] == {"E_u": 0.073, "E_b": 0.248}

    out2 = tmp_path / "two"
    assert run("keyrate", "--config", cfg, "--Eu", 0.1, "--out", out2, "--quiet") == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["inputs"]["E_u"] == 0.1
    assert report2["inputs"]["E_b"] == 0.248


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"keyrate": {"nonsense": 1}}))
    assert run("keyrate", "--config", cfg, "--out", tmp_path) == 2


@pytest.mark.parametrize("doc", [
    [1],
    {"simulate": {"rounds": [1]}},
    {"simulate": {"d": 4.5}},
    {"simulate": {"d": True}},
    {"simulate": {"rounds": None}},
    {"simulate": {"Eu": {"value": 0.1}}},
    {"simulate": {"family": "dft"}},
    {"simulate": {"quiet": 1}},
])
def test_config_values_must_pass_their_flags(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "sim"
    assert run("simulate", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"simulate": {"d=" + "3" * 10**5: 1}},
    {"simulate": {"x" * 10**5: 1}},
    {"simulate": {"d": list(range(10**5))}},
    {"simulate": [1]},
], ids=["bad-key", "long-unknown-key", "long-list-value", "section-not-an-object"])
def test_config_section_errors_name_the_file_in_one_short_line(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run("simulate", "--config", cfg, "--out", tmp_path / "sim") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg}") and err.count("\n") == 1 and len(err) < 400


def test_config_takes_numbers_and_strings_its_flags_convert(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulate": {"d": "9", "rounds": 10, "Eu": 0, "Eb": "0.1",
                                            "pair-rate": 100, "quiet": True}}))
    assert run("simulate", "--config", cfg, "--out", tmp_path) == 0
    params = json.loads((tmp_path / "resolved_config.json").read_text())["simulate"]
    assert (params["d"], params["rounds"], params["Eu"], params["Eb"]) == (9, 10, 0.0, 0.1)
    assert params["quiet"] is True


def test_config_false_leaves_a_switch_off(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulate": {"d": 4, "rounds": 10, "quiet": False}}))
    assert run("simulate", "--config", cfg, "--out", tmp_path / "sim") == 0
    assert "wrote" in capsys.readouterr().out
    snapshot = json.loads((tmp_path / "sim" / "resolved_config.json").read_text())
    assert snapshot["simulate"]["quiet"] is False


def _replays_bit_exactly(tmp_path, *argv):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(*argv, "--out", first, "--quiet") == 0
    command = json.loads((first / "resolved_config.json").read_text())["command"]
    assert run(*command, "--config", first / "resolved_config.json", "--out", second) == 0
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("argv", [
    ("mub", "gen", "--d", 4, "--family", "sqrt-pair", "--unbiased-tol", "1e-9"),
    ("simulate", "--d", 9, "--family", "sqrt-pair", "--Eu", 0.05, "--Eb", 0.1,
     "--rounds", 1000, "--seed", 7),
    ("keyrate", "--curve", "thresholds", "--d-range", "2:9"),
])
def test_run_replays_bit_exactly_from_its_snapshot(tmp_path, argv):
    _replays_bit_exactly(tmp_path, *argv)


@pytest.mark.parametrize("key", ["help", "version", "func", "action", "files", "Eu"])
def test_config_keys_must_name_an_option_of_the_command(tmp_path, capsys, key):
    # mub takes no --Eu; the others are no option of any command's section
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mub": {key: True}}))
    assert run("mub", "gen", "--config", cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == f"error: config {cfg}, section mub: {key!r} names no option of mub\n"
    assert not (tmp_path / "out").exists()


def test_optics_eval_replays_bit_exactly_from_its_snapshot(tmp_path):
    # its snapshot spells options as their `_` names: plane_spacing, pad_factor, ...
    assert run(*optics_args(tmp_path / "design")) == 0
    argv = optics_args(tmp_path / "unused")
    at = argv.index("--out")
    argv = ("optics", "eval", "--stack", tmp_path / "design" / "stack.mplc",
            *argv[2:at], *argv[at + 2:])
    _replays_bit_exactly(tmp_path / "eval", *argv)
    snapshot = json.loads((tmp_path / "eval" / "first" / "resolved_config.json").read_text())
    assert {"plane_spacing", "pad_factor", "detection_radius"} <= set(snapshot["optics"])


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys):
    # The parser is built once per process; each call of a sequence must
    # do what it does on a parser of its own.
    sequence = [
        ("bad", ("keyrate", "--d", 5, "--bound", "magic")),
        ("rate", ("keyrate", "--d", 25, "--Eu", 0.073, "--Eb", 0.248, "--curve", "rate",
                  "--errors", "0:0.5:11")),
        ("replay", ("keyrate", "--config", tmp_path / "seq" / "rate" / "resolved_config.json")),
    ]

    def results(root, alone):
        out = []
        cli.build_parser.cache_clear()
        for name, argv in sequence:
            if alone:
                cli.build_parser.cache_clear()
            code = run(*argv, "--out", root / name, "--quiet")
            files = {p.name: p.read_bytes() for p in sorted((root / name).glob("*"))}
            out.append((code, capsys.readouterr().err, files))
        return out

    in_sequence = results(tmp_path / "seq", alone=False)
    assert cli.build_parser.cache_info().misses == 1
    (code, err, files), rate, replay = in_sequence
    assert code == 2 and err.startswith("error: argument --bound") and err.count("\n") == 1
    assert not files
    assert rate[0] == replay[0] == 0 and replay[2]["curve.csv"] == rate[2]["curve.csv"]
    assert results(tmp_path / "alone", alone=True) == in_sequence


def test_optics_design_replays_bit_exactly_from_its_snapshot(tmp_path):
    argv = optics_args(tmp_path, "--pgm")
    at = argv.index("--out")
    _replays_bit_exactly(tmp_path / "swap", *argv[:at], *argv[at + 2:])
    # a family:i target goes through the snapshot as --target=wh-all:3
    _replays_bit_exactly(tmp_path / "mub", "optics", "design", "--d", 5, "--target", "wh-all:3",
                         "--arrangement", "line", "--planes", 3, "--plane-spacing", "5e-3",
                         "--iterations", 2, "--nx", 48, "--ny", 48, "--aperture-radius", "20e-6",
                         "--aperture-spacing", "60e-6")
    snapshot = json.loads((tmp_path / "mub" / "first" / "resolved_config.json").read_text())
    assert snapshot["optics"]["target"] == "wh-all:3"


def test_keyrate_counts_replays_bit_exactly_from_its_snapshot(tmp_path):
    run("simulate", "--d", 9, "--family", "sqrt-pair", "--Eu", 0.05, "--Eb", 0.1,
        "--rounds", 10, "--seed", 7, "--out", tmp_path / "sim", "--quiet")
    _replays_bit_exactly(tmp_path, "keyrate", "--counts", tmp_path / "sim" / "counts.csv",
                         "--bound", "two-mub-block", "--curve", "rate", "--errors", "0:0.5:11")


def test_keyrate_counts_replays_from_another_directory(tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    run("simulate", "--d", 9, "--family", "sqrt-pair", "--Eu", 0.05, "--Eb", 0.1,
        "--rounds", 10, "--seed", 7, "--out", "sim", "--quiet")
    assert run("keyrate", "--counts", "sim/counts.csv", "--bound", "two-mub-block",
               "--out", "r", "--quiet") == 0
    monkeypatch.chdir(tmp_path)
    assert run("keyrate", "--config", "sub/r/resolved_config.json", "--out", "again") == 0
    first, second = tmp_path / "sub" / "r", tmp_path / "again"
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("doc", [
    {"version": 2, "optics": {"d": 2}},
    {"version": 1, "optics": {"d": 2}, "notes": "x"},
    {"version": 1, "command": ["simulate"], "simulate": {"d": 9}},
    {"version": 1, "optics": {"iter": 3}},
    {"version": 1, "optics": {"d=3": True}},
])
def test_config_rejects_what_is_not_a_v1_config_of_the_command(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("optics", "design", "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("code, argv", [
    (2, ("keyrate", "--d", 1, "--E", 0.1)),
    (1, ("keyrate", "--counts", "missing.csv")),
    (2, ("keyrate", "--curve", "thresholds", "--d-range", "1:3")),
    (2, ("optics", "design", "--d", 4, "--nx", 8, "--ny", 8)),
    (2, ("mub", "gen", "--d", 6, "--family", "wh-all")),
    # the report is valid, the rate curve is not: nothing may be written
    (2, ("keyrate", "--d", 25, "--bound", "depolarizing", "--E", 0.1, "--curve", "rate",
         "--errors", "0.97:0.99:3")),
    (2, ("optics", "design", "--d", 2, "--arrangement", "line", "--nx", 32, "--ny", 32,
         "--aperture-radius", "40e-6", "--aperture-spacing", "120e-6", "--planes", 2,
         "--plane-spacing", "5e-3", "--iterations", 1, "--pad-factor", -1)),
], ids=["keyrate-d1", "counts-missing", "thresholds-d1", "optics-grid", "mub-d6", "rate-curve",
        "optics-pad-factor"])
def test_a_failing_command_creates_no_out(tmp_path, monkeypatch, code, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--out", "out", "--quiet") == code
    assert not (tmp_path / "out").exists()


def _tree(root: Path) -> dict:
    """Every path under root, with the bytes of each file (None for a directory)."""
    return {path.relative_to(root).as_posix(): path.read_bytes() if path.is_file() else None
            for path in sorted(root.rglob("*"))}


SIM = ("simulate", "--d", 4, "--family", "sqrt-pair", "--rounds", 10, "--quiet")


def test_a_write_error_leaves_out_as_it_was(tmp_path, monkeypatch, capsys):
    from hdqkd import protocol

    def fail(record, path):  # a full disk names the staged path it was given
        raise OSError(errno.ENOSPC, "No space left on device", str(path))
    old = tmp_path / "old"
    assert run(*SIM, "--seed", 1, "--out", old) == 0
    before = _tree(tmp_path)
    monkeypatch.setattr(protocol.SessionRecord, "save_jsonl", fail)  # after counts.csv
    for out in (tmp_path / "new" / "sub", old):
        assert run(*SIM, "--seed", 2, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.ENOSPC}] No space left on device: " \
                      f"'{out / 'session.jsonl'}'\n"
        assert ".hdqkd-" not in err
        assert _tree(tmp_path) == before


def test_a_new_out_is_made_as_mkdir_makes_it(tmp_path):
    assert run("keyrate", "--d", 5, "--E", 0.05, "--out", tmp_path / "a" / "b", "--quiet") == 0
    (tmp_path / "c").mkdir()
    assert (tmp_path / "a" / "b").stat().st_mode == (tmp_path / "c").stat().st_mode
    assert sorted(path.name for path in tmp_path.rglob("*")) == [
        "a", "b", "c", "report.csv", "report.csv.meta.json", "report.json",
        "resolved_config.json"]


def test_a_failed_commit_leaves_no_snapshot_of_another_run(tmp_path, capsys):
    out = tmp_path / "r"
    assert run("keyrate", "--d", 5, "--E", 0.05, "--out", out, "--quiet") == 0
    (out / "report.csv").unlink()
    (out / "report.csv").mkdir()
    assert run("keyrate", "--d", 5, "--E", 0.07, "--out", out, "--quiet") == 1
    err = capsys.readouterr().err
    assert str(out / "report.csv") in err and ".hdqkd-" not in err
    assert not (out / "resolved_config.json").exists()
    assert not list(tmp_path.rglob(".hdqkd-*"))


def test_a_rerun_replaces_the_files_and_keeps_the_others(tmp_path, capsys):
    out = tmp_path / "r"
    (out / "curves").mkdir(parents=True)
    (out / "notes.txt").write_text("kept\n")
    assert run("keyrate", "--d", 5, "--E", 0.05, "--curve", "rate", "--out", out) == 0
    assert run("keyrate", "--d", 5, "--E", 0.07, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out / 'curve.csv'} (101 rows)" in stdout and ".hdqkd-" not in stdout
    assert sorted(_tree(out)) == ["curve.csv", "curve.csv.meta.json", "curves", "notes.txt",
                                  "report.csv", "report.csv.meta.json", "report.json",
                                  "resolved_config.json"]
    assert json.loads((out / "report.json").read_text())["inputs"] == {"E": 0.07}
    assert json.loads((out / "resolved_config.json").read_text())["keyrate"]["E"] == 0.07


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("HDQKD_OUT", str(tmp_path / "envout"))
    assert run("keyrate", "--d", 2, "--E", 0.05, "--quiet") == 0
    assert (tmp_path / "envout" / "report.json").exists()


# --- noise flags -------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["simulate", "--d", 4, "--rounds", 10, "--Et", 0.3, "--Eu", 0.02],
    ["simulate", "--d", 4, "--rounds", 10, "--Eb", 0.1, "--block-fraction", 0.5],
    ["simulate", "--d", 4, "--rounds", 10, "--block-fraction", 0.5],
    ["keyrate", "--d", 25, "--bound", "two-mub-block", "--E", 0.1, "--Eu", 0.2, "--Eb", 0.05],
    ["keyrate", "--d", 25, "--E", 0.1, "--Eb", 0.05],
])
def test_conflicting_or_ignored_noise_flags_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(*argv, "--out", out, "--quiet") == 2
    assert capsys.readouterr().err.startswith("error: --")
    assert not out.exists() or not any(out.iterdir())


def test_keyrate_counts_rejects_noise_flags(tmp_path, capsys):
    # The counts supply d as well as the errors: a typed d would be ignored.
    run("simulate", "--d", 4, "--family", "sqrt-pair", "--rounds", 10, "--out", tmp_path,
        "--quiet")
    for flag, value in (("--Eu", 0.1), ("--d", 9)):
        code = run("keyrate", "--counts", tmp_path / "counts.csv", flag, value,
                   "--out", tmp_path / "r", "--quiet")
        assert code == 2
        assert "--counts" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


def test_simulate_names_the_negative_component(tmp_path, capsys):
    code = run("simulate", "--d", 4, "--rounds", 10, "--Eu", -0.1, "--Eb", 0.2,
               "--out", tmp_path / "out", "--quiet")
    assert code == 2
    assert "uniform error -0.1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_total_and_component_forms_write_identical_files(tmp_path):
    common = ("simulate", "--d", 9, "--family", "sqrt-pair", "--pair-rate", "1e3",
              "--time", 10, "--rounds", 2000, "--seed", 11, "--quiet")
    assert run(*common, "--Et", 0.3, "--block-fraction", 0.5, "--out", tmp_path / "t") == 0
    assert run(*common, "--Eu", 0.15, "--Eb", 0.15, "--out", tmp_path / "c") == 0
    for name in ("session.jsonl", "counts.csv"):
        assert (tmp_path / "t" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()


def test_simulate_builds_its_table_once(tmp_path, monkeypatch):
    from hdqkd import protocol

    calls = {"ideal_prob_table": 0, "apply_noise": 0}
    for name in calls:
        original = getattr(protocol, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(protocol, name, counted)
    assert run("simulate", "--d", 9, "--family", "sqrt-pair", "--Eu", 0.05, "--Eb", 0.1,
               "--rounds", 100, "--out", tmp_path, "--quiet") == 0
    assert calls == {"ideal_prob_table": 1, "apply_noise": 1}


# --- any argv ----------------------------------------------------------------------

_noise_values = st.sampled_from(["0", "0.05", "0.3", "0.999", "1", "1.5", "-0.1", "-0.0",
                                 "nan", "inf", "1e-300"])
_noise_flags = st.dictionaries(
    st.sampled_from(["--Et", "--block-fraction", "--E", "--Eu", "--Eb"]), _noise_values,
    max_size=3,
)


@settings(max_examples=80, deadline=None)
@example(command="simulate", d=1, rounds=1, family="comp-dft", bound=None,
         noise={"--Et": "0.05"}, alignments=None, seed=0)  # no wrong outcome at d=1
@given(
    command=st.sampled_from(["simulate", "keyrate"]),
    d=st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 9]),
    rounds=st.sampled_from([-1, 0, 1, 7]),
    family=st.sampled_from(["wh-all", "sqrt-pair", "comp-dft"]),
    bound=st.sampled_from([None, "depolarizing", "two-mub-uniform", "two-mub-block"]),
    noise=_noise_flags,
    alignments=st.one_of(st.none(), st.sampled_from(["row", "col", "row,col", "col,row,row",
                                                     "diag", "row,", ",", ""])),
    seed=st.sampled_from([-1, 0, 3]),
)
def test_any_noise_argv_exits_0_1_or_2(command, d, rounds, family, bound, noise, alignments,
                                       seed):
    argv = [command, "--d", str(d), "--seed", str(seed), "--quiet"]
    if command == "simulate":
        noise.pop("--E", None)
        argv += ["--family", family, "--rounds", str(rounds), "--pair-rate", "100",
                 "--time", "1"]
    else:
        noise.pop("--Et", None)
        noise.pop("--block-fraction", None)
        argv += [] if bound is None else ["--bound", bound]
    argv += [f"{flag}={value}" for flag, value in noise.items()]
    if alignments is not None:
        argv.append(f"--alignments={alignments}")
    with tempfile.TemporaryDirectory() as out:
        assert main(argv + ["--out", out]) in (0, 1, 2)


# Each size flag's largest drawn value, so that no draw allocates more than a
# few MB.  The defaults are larger, so these flags are always drawn.
_SIZE_CAPS = {"--d": 9, "--nx": 32, "--ny": 32, "--planes": 2, "--iterations": 2,
              "--rounds": 100, "--pad-factor": 3}


def _option_words(action):
    """A strategy for the argv words of one option, or None to leave it
    at its default: paths and free text are not drawn."""
    flag = action.option_strings[-1]
    if flag in _SIZE_CAPS:
        return st.integers(-2, _SIZE_CAPS[flag]).map(lambda v: [f"{flag}={v}"])
    if isinstance(action, argparse._StoreTrueAction):
        return st.sampled_from([[], [flag]])
    if action.choices:
        values = st.sampled_from(list(action.choices))
    elif action.type in (int, cli.seed):
        values = st.integers(-3, 3)
    elif action.type is cli.finite:
        values = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1e-9, 1e-6, 1e-5, 1e-3]))
    else:
        return None
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


@st.composite
def _sorter_geometry(draw):
    """Optics flags for a sorter that can fit its grid: each size flag from
    1 (16 for the grid) to its _SIZE_CAPS value, a pitch, the default
    810 nm wavelength, apertures that do not overlap and detection disks,
    their radii and the gap between the apertures in half pitches, and the
    plane spacing in pitch^2 over the wavelength."""
    sizes = {flag: draw(st.integers(16 if flag in ("--nx", "--ny") else 1, cap))
             for flag, cap in _SIZE_CAPS.items() if flag != "--rounds"}
    pitch = draw(st.sampled_from([5e-6, 15e-6]))
    halves = st.integers(0, 4).map(lambda k: k * pitch / 2)
    radius = pitch / 2 + draw(halves)
    return [*(f"{flag}={v}" for flag, v in sizes.items()), f"--pitch={pitch}",
            "--wavelength=810e-9", f"--aperture-radius={radius}",
            f"--aperture-spacing={2 * radius + draw(halves)}",
            f"--detection-radius={pitch / 2 + draw(halves)}",
            f"--plane-spacing={draw(st.integers(1, 16)) * pitch**2 / 810e-9}"]


@st.composite
def _argvs(draw):
    """An argv for any command of `build_parser()`: its positional choices
    and a draw for each option that `_option_words` draws; for optics, at
    times a `_sorter_geometry` after them, which overrides their draws."""
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    command = draw(st.sampled_from(sorted(commands.choices)))
    argv = [command]
    for action in commands.choices[command]._actions:
        if not action.option_strings:
            argv += [draw(st.sampled_from(action.choices))] if action.choices else []
        elif (words := _option_words(action)) is not None:
            argv += draw(words)
    if command == "optics":
        argv += draw(st.one_of(st.just([]), _sorter_geometry()))
    return argv


def _finite_file(path: Path) -> bool:
    """No NaN or infinity in a written JSON file, nor in any value of a CSV."""
    text = path.read_text()
    if path.suffix == ".json":
        tokens = []
        json.loads(text, parse_constant=tokens.append)
        return not tokens
    return all(math.isfinite(float(cell))
               for row in text.splitlines()[1:] for cell in row.split(","))


def _run_into_a_filled_out(argv, tmp: Path) -> tuple[int, str]:
    """Run `argv --out <tmp/out>`, an out that already holds a file, and
    check what every run must do: exit 0, 1 or 2, with one `error:` line
    and no traceback on failure; leave out as it was on failure; leave no
    stage behind; and write no NaN or infinity.  Returns (code, stderr)."""
    out = tmp / "out"
    out.mkdir()
    (out / "sentinel.txt").write_bytes(b"from an earlier run\n")
    before = _tree(out)
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(out)])
    assert code in (0, 1, 2)
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (code != 0), (code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    assert code == 0 or _tree(out) == before
    assert not list(tmp.rglob(".hdqkd-*"))
    assert all(_finite_file(path) for path in out.glob("*") if path.suffix in (".json", ".csv"))
    return code, stderr.getvalue()


@settings(max_examples=150, deadline=None)
@example(argv=["optics", "design", "--d=2", "--arrangement=line", "--nx=32", "--ny=32",
               "--planes=2", "--iterations=2", "--aperture-radius=2e-5",
               "--aperture-spacing=6e-5", "--plane-spacing=1e-3"])  # a design that runs
@given(argv=_argvs())
def test_any_argv_exits_0_1_or_2_with_one_error_line_on_failure(argv):
    with tempfile.TemporaryDirectory() as tmp:
        _run_into_a_filled_out(argv, Path(tmp))


# --- any input file ----------------------------------------------------------------


def _outputs(*argv) -> dict:
    """The bytes of every file that a successful `argv --out <dir>` writes."""
    with tempfile.TemporaryDirectory() as out:
        assert main([str(a) for a in argv] + ["--out", out, "--quiet"]) == 0
        return {path.name: path.read_bytes() for path in Path(out).iterdir()}


@functools.cache
def _d4_run() -> dict:
    """The bytes of every file of a 10-round d=4 simulate run."""
    return _outputs("simulate", "--d", 4, "--family", "sqrt-pair", "--rounds", 10,
                    "--pair-rate", 100, "--time", 1, "--seed", 5)


@functools.cache
def _d4_counts() -> dict:
    """The bytes of counts.csv and its sidecar from the d=4 simulate run."""
    return {name: _d4_run()[name] for name in ("counts.csv", "counts.csv.meta.json")}


@functools.cache
def _d4_session() -> dict:
    """The bytes of session.jsonl from the d=4 simulate run."""
    return {"session.jsonl": _d4_run()["session.jsonl"]}


TOY_STACK = ("--d=2", "--arrangement=line", "--nx=32", "--ny=32", "--planes=2",
             "--aperture-radius=2e-5", "--aperture-spacing=6e-5", "--plane-spacing=1e-3")


@functools.cache
def _toy_stack() -> dict:
    """The bytes of a 2-plane, 32x32 toy design's stack."""
    return {"stack.mplc": _outputs("optics", "design", *TOY_STACK, "--iterations=2")[
        "stack.mplc"]}


@functools.cache
def _d3_bases() -> dict:
    """The bytes of the four basis files of `mub gen --d 3 --family wh-all`."""
    files = _outputs("mub", "gen", "--d", 3, "--family", "wh-all")
    return {name: data for name, data in files.items() if name.startswith("basis_")}


@st.composite
def _edited(draw, files: dict):
    """(name, bytes): one of `files` (name -> bytes) with one edit: truncated,
    appended to, one bit flipped, bytes overwritten, a number replaced by
    a NaN or infinity token, or the 8 bytes at a multiple of 8 from the end
    replaced by a non-finite little-endian double (a field of a binary file)."""
    name = draw(st.sampled_from(sorted(files)))
    data = files[name]
    numbers = list(re.finditer(rb"-?[0-9][0-9.e+-]*", data))
    edit = draw(st.sampled_from(["truncate", "append", "flip", "overwrite", "double"]
                                + ["token"] * bool(numbers)))
    if edit == "truncate":
        return name, data[:draw(st.integers(0, len(data) - 1))]
    if edit == "append":
        return name, data + draw(st.binary(min_size=1, max_size=16))
    if edit == "token":
        number = draw(st.sampled_from(numbers))
        token = draw(st.sampled_from([b"NaN", b"Infinity", b"-Infinity", b"nan", b"inf"]))
        return name, data[:number.start()] + token + data[number.end():]
    if edit == "double":
        at = len(data) % 8 + 8 * draw(st.integers(0, len(data) // 8 - 1))
        new = np.array([draw(st.sampled_from([np.nan, np.inf, -np.inf]))], "<f8").tobytes()
        return name, data[:at] + new + data[at + 8:]
    at = draw(st.integers(0, len(data) - 1))
    if edit == "flip":
        return name, data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]
    new = draw(st.binary(min_size=1, max_size=8))
    return name, data[:at] + new + data[at + len(new):]


def _run_on_edited(files: dict, edit, argv) -> tuple[int, str]:
    """Write `files`, one of them edited as `edit` says, into a fresh
    directory tmp, then `_run_into_a_filled_out(argv(tmp), tmp)`."""
    name, data = edit
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for file, original in files.items():
            (tmp / file).write_bytes(data if file == name else original)
        return _run_into_a_filled_out(argv(tmp), tmp)


@settings(max_examples=80, deadline=None)
@example(edit=("counts.csv.meta.json", b"\xff\xfe{"))  # a sidecar that is not UTF-8
@given(edit=st.deferred(lambda: _edited(_d4_counts())))
def test_any_edit_of_a_counts_file_exits_0_1_or_2_and_writes_no_nan(edit):
    _, stderr = _run_on_edited(_d4_counts(), edit, lambda tmp: [
        "keyrate", "--counts", str(tmp / "counts.csv"), "--curve", "rate",
        "--errors", "0:0.5:6", "--quiet"])
    assert len(stderr) < 1000


@settings(max_examples=80, deadline=None)
@given(edit=st.deferred(lambda: _edited(_toy_stack())))
def test_any_edit_of_a_stack_exits_0_1_or_2_and_writes_no_nan(edit):
    _run_on_edited(_toy_stack(), edit, lambda tmp: [
        "optics", "eval", "--stack", str(tmp / "stack.mplc"), *TOY_STACK, "--quiet"])


@settings(max_examples=80, deadline=None)
@given(edit=st.deferred(lambda: _edited(_d3_bases())))
def test_any_edit_of_a_basis_file_exits_0_1_or_2(edit):
    _run_on_edited(_d3_bases(), edit, lambda tmp: [
        "mub", "check", *sorted(map(str, tmp.glob("basis_*.json"))), "--quiet"])


@functools.cache
def _configs() -> dict:
    """The resolved_config.json bytes of one small run of each command, by command."""
    runs = {"mub": ("mub", "gen", "--d", 3, "--family", "wh-all"),
            "optics": ("optics", "design", *TOY_STACK, "--iterations=2"),
            "keyrate": ("keyrate", "--d", 5, "--E", 0.11, "--curve", "rate",
                        "--errors", "0:0.5:6")}
    configs = {command: _outputs(*argv)["resolved_config.json"] for command, argv in runs.items()}
    return {**configs, "simulate": _d4_run()["resolved_config.json"]}


@settings(max_examples=120, deadline=None)
@given(edit=st.deferred(lambda: _edited(_configs())))
def test_any_edit_of_a_config_file_exits_0_1_or_2(edit):
    command = edit[0]
    action = {"mub": ["gen"], "optics": ["design"]}.get(command, [])
    _run_on_edited(_configs(), edit, lambda tmp: [
        command, *action, "--config", str(tmp / command), "--quiet"])


@settings(max_examples=150, deadline=None)
@given(edit=st.deferred(lambda: _edited(_d4_session())))
def test_any_edit_of_a_session_is_rejected_at_a_line_or_written_back_as_read(edit):
    # no command reads session JSONL, so the reader is called directly
    _, data = edit
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.jsonl"
        path.write_bytes(data)
        try:
            record = protocol.SessionRecord.load_jsonl(path, 4)
        except InvalidInputError as exc:
            assert re.match(rf"{re.escape(str(path))} line [0-9]+: ", str(exc)), exc
            return
        again = Path(tmp) / "again.jsonl"
        record.save_jsonl(again)
        assert again.read_bytes() == data


# --- written JSON bytes ------------------------------------------------------------

TOY_DESIGN = ("optics", "design", "--d", 4, "--target", "row-dft", "--planes", 3,
              "--plane-spacing", "5e-3", "--iterations", 2, "--nx", 32, "--ny", 32,
              "--aperture-radius", "40e-6", "--aperture-spacing", "120e-6")

# The toy run of json_files(): (subdirectory, argv) per command.  The
# keyrate --counts snapshot records the counts file's absolute path, so
# its resolved_config.json is left out.
TOY_RUN = [
    ("mubs5", ("mub", "gen", "--d", 5, "--family", "wh-all")),
    ("mubs4", ("mub", "gen", "--d", 4, "--family", "sqrt-pair")),
    ("design_p", (*TOY_DESIGN, "--detection", "propagated")),
    ("design_d", (*TOY_DESIGN, "--detection", "disks")),
    ("sim", ("simulate", "--d", 9, "--family", "sqrt-pair", "--Eu", 0.05, "--Eb", 0.1,
             "--pair-rate", "1e3", "--time", 1, "--rounds", 50, "--seed", 3)),
    ("rate_counts", ("keyrate", "--counts", "sim/counts.csv", "--curve", "rate",
                     "--errors", "0:0.5:11")),
    ("rate_dep", ("keyrate", "--d", 5, "--bound", "depolarizing", "--E", 0.11)),
    ("rate_uni", ("keyrate", "--d", 25, "--bound", "two-mub-uniform", "--E", 0.001,
                  "--curve", "rate", "--errors", "0:0.6:121")),
    ("rate_block", ("keyrate", "--d", 25, "--bound", "two-mub-block", "--Eu", 0.073,
                    "--Eb", 0.248, "--curve", "rate", "--errors", "0:0.6:121")),
    ("thresholds", ("keyrate", "--curve", "thresholds", "--d-range", "2:9")),
]

# sha256 of every JSON file and sidecar of the toy run, recorded under
# numpy 2.4 (the metrics pin the optics' FFTs, the counts sidecar and
# reports numpy's Philox poisson stream).
JSON_SHA256 = {
    "design_d/metrics.json":
        "515ee12135d5cd7e1e2d84ee23478c96711221faaac4551b9d41ab631c5af2bf",
    "design_d/resolved_config.json":
        "77caf83b9373bbe6a97738078e8a0c79d0a9698d1d83b13f3b3c763b003dd5b2",
    "design_p/metrics.json":
        "97ca7c97ae4fb18040cd9b2f70778c58b764302b386ff92f36281a8efb03bfcf",
    "design_p/resolved_config.json":
        "a19fc1654aec6ce8b0d564dce056c422c8a3bdf3534244e6d24b0aeb12686107",
    "mubs4/basis_col_dft.json":
        "7ecbf6c923922e36d3ed287fd41c594d9987a43c7b9dc3cd1fdb31530fc7b291",
    "mubs4/basis_row_dft.json":
        "e391b0aad068419d23f43872031b554b5c2bfd653db230fed7d9bbb72a864b9a",
    "mubs4/resolved_config.json":
        "44c05eb476b4f8be279d6fd269e526c617cfd35720015c01323bad9bfa2c42a0",
    "mubs5/basis_computational.json":
        "be5caf403d7894000a3c4480d4adb480b794fd36542b1dadba8cdb75e4905f4a",
    "mubs5/basis_dft.json":
        "4220cd5296367adc72cf160708c1040feb006e8aa36cfe54b73fe008571c9df6",
    "mubs5/basis_wh_r3.json":
        "05569dca300182f951e1c7e5674b08773c29e4f706d440020455dce65fbce49a",
    "mubs5/basis_wh_r4.json":
        "ac25df3c22be9e7a5ee3e3109ce6ab1306da9dcb60f873d9c70437eaf525b06a",
    "mubs5/basis_wh_r5.json":
        "d99e2edff7cddf91bc4ac1423f982daa024c1c2e5d6d00da120f2c2c7b646208",
    "mubs5/basis_wh_r6.json":
        "e9d36380f2b24e64860e164a89480c4aa678ae7d0935a8e5c9e2dbd349b985aa",
    "mubs5/resolved_config.json":
        "d1cc6d00ea86a250e3b82365e9f4b3afd24900a722557757729d34f5113b993e",
    "rate_block/curve.csv.meta.json":
        "d1bc17a705d36f6f0fef95f211e0816002a7cd1eea85885ad01048c4835b73a4",
    "rate_block/report.csv.meta.json":
        "cd65f4190ad8debccf823a0b7b2b2364aed18d01446fbeacfa540d23787dff04",
    "rate_block/report.json":
        "f33eec6f9389f0035336a18aa3f3fe972637b82bacf2ada2037dc1d104c0e6d2",
    "rate_block/resolved_config.json":
        "3dd2b9235d778dc116a648a1ad9d44896fe3a7448c1638274e81e7b3750efde9",
    "rate_counts/curve.csv.meta.json":
        "6c3db861fe2081a203c09946eeb7c90eb18f29171af6541f7c4438d7c668e296",
    "rate_counts/report.csv.meta.json":
        "77968aade2494d0f871c36aea09f36b23137ec3e5c2684cbb3f955f1ba2e0ca2",
    "rate_counts/report.json":
        "097b321281841008364d6d38dd7a2a23fcfd3a5457343def5ee4e55c8440540b",
    "rate_dep/report.csv.meta.json":
        "e8c268c7e142525dabe71a9007fe915f56edfd756def44c6911b1389d4bf0848",
    "rate_dep/report.json":
        "07f8697f244f22cbb5d67f9220cbef64ca50576fa0a3a96dc35564f376604eb7",
    "rate_dep/resolved_config.json":
        "4a3c5cdb74a41213316603beb6e3e545fe63c99a5e6a168990719b0aeaa90cfe",
    "rate_uni/curve.csv.meta.json":
        "dc52a0631c5107ac8ed1232de1095b980d5f2bf440f0e05e5091a27657c06113",
    "rate_uni/report.csv.meta.json":
        "9d600cc8336f988134a55182392793d3ad0bdae8b390ec02d33fdb56680016c0",
    "rate_uni/report.json":
        "fa3b5c2719351d8c74134947e81de21dcbc7291424aef5bbe0e9b9571c01134e",
    "rate_uni/resolved_config.json":
        "99d53e95a969ad09057e0b2835b4636d5a4289849c4a711543778e85596edd60",
    "sim/counts.csv.meta.json":
        "cd681d069983bd1cdce7bd03bb9c781c72d8ebadc498fd5ca4a6798084014da8",
    "sim/resolved_config.json":
        "21dacf50ca056a2e1cff6ffd5174a3ffe852b68929b73e0e37d42c1fca5a9383",
    "thresholds/resolved_config.json":
        "64fb7b54347c6cd40ab36e1bc2810c70732ec7276bd6edea9b20a15cd51baeb5",
    "thresholds/thresholds.csv.meta.json":
        "101475be0fb132afe8854ccc8a08698f493c39da673c13fc16bb43957ee5c0b4",
}


def json_files(root):
    for sub, argv in TOY_RUN:
        assert run(*argv, "--out", sub, "--quiet") == 0, sub
    (root / "rate_counts" / "resolved_config.json").unlink()
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*.json"))}


def test_written_json_bytes_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert json_files(tmp_path) == JSON_SHA256
