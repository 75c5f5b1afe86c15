import json
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdqkd.cli import main
from hdqkd.optics import load_stack
from hdqkd.protocol import load_counts_csv


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


def test_non_finite_flag_is_not_recorded(tmp_path, capsys):
    assert run("mub", "gen", "--d", 2, "--family", "dft", "--unitarity-tol", "nan",
               "--out", tmp_path, "--quiet") == 2
    assert capsys.readouterr().err == "error: --unitarity-tol must be finite\n"
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
    assert err == f"error: {flag} must be finite\n"
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


def test_optics_eval_rejects_another_plane_spacing(tmp_path, capsys):
    run(*optics_args(tmp_path))
    argv = list(eval_args(tmp_path / "stack.mplc", tmp_path / "eval"))
    argv[argv.index("--plane-spacing") + 1] = "7e-3"
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "0.005" in err and "0.007" in err
    assert not (tmp_path / "eval" / "metrics.json").exists()


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
    assert snapshot["params"]["seed"] == 7
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


def test_keyrate_counts_rejects_bad_alignments(tmp_path, capsys):
    run("simulate", "--d", 4, "--family", "sqrt-pair", "--rounds", 10, "--out", tmp_path,
        "--quiet")
    code = run("keyrate", "--counts", tmp_path / "counts.csv", "--alignments", "row,diag",
               "--out", tmp_path / "r", "--quiet")
    assert code == 2
    assert "--alignments" in capsys.readouterr().err


def test_comp_dft_pipeline_recovers_the_block_split(tmp_path):
    # simulate and keyrate --counts default to the same alignments (row,col
    # for two matched settings), so the split the session was given comes back
    assert run("simulate", "--d", 25, "--family", "comp-dft", "--Eu", 0.073, "--Eb", 0.248,
               "--rounds", 10, "--out", tmp_path / "sim", "--quiet") == 0
    assert run("keyrate", "--counts", tmp_path / "sim" / "counts.csv",
               "--out", tmp_path / "rate", "--quiet") == 0
    report = json.loads((tmp_path / "rate" / "report.json").read_text())
    assert abs(report["rate"] - 0.8167) < 0.05


def test_keyrate_alignments_need_counts(tmp_path, capsys):
    out = tmp_path / "rate"
    assert run("keyrate", "--d", 4, "--E", 0.1, "--alignments", "diag", "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: --alignments")
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


def test_unknown_bound_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("keyrate", "--d", 5, "--bound", "magic", "--out", tmp_path)
    assert err.value.code == 2


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


def test_config_takes_numbers_and_strings_its_flags_convert(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulate": {"d": "9", "rounds": 10, "Eu": 0, "Eb": "0.1",
                                            "pair-rate": 100, "quiet": True}}))
    assert run("simulate", "--config", cfg, "--out", tmp_path) == 0
    params = json.loads((tmp_path / "resolved_config.json").read_text())["params"]
    assert (params["d"], params["rounds"], params["Eu"], params["Eb"]) == (9, 10, 0.0, 0.1)
    assert params["quiet"] is True


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
    run("simulate", "--d", 4, "--family", "sqrt-pair", "--rounds", 10, "--out", tmp_path,
        "--quiet")
    code = run("keyrate", "--counts", tmp_path / "counts.csv", "--Eu", 0.1,
               "--out", tmp_path / "r", "--quiet")
    assert code == 2
    assert "--counts" in capsys.readouterr().err
    assert not (tmp_path / "r" / "report.json").exists()


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
         noise={"--Et": "0.05"}, alignments=None)  # no wrong outcome at d=1
@given(
    command=st.sampled_from(["simulate", "keyrate"]),
    d=st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 9]),
    rounds=st.sampled_from([-1, 0, 1, 7]),
    family=st.sampled_from(["wh-all", "sqrt-pair", "comp-dft"]),
    bound=st.sampled_from([None, "depolarizing", "two-mub-uniform", "two-mub-block"]),
    noise=_noise_flags,
    alignments=st.one_of(st.none(), st.sampled_from(["row", "col", "row,col", "col,row,row",
                                                     "diag", "row,", ",", ""])),
)
def test_any_noise_argv_exits_0_1_or_2(command, d, rounds, family, bound, noise, alignments):
    argv = [command, "--d", str(d), "--quiet"]
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
