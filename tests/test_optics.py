import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import rel_error
from hdqkd import cli, optics
from hdqkd.errors import (
    DegenerateTransferError,
    GeometryError,
    InvalidConfigError,
    InvalidInputError,
    InvalidModeSetError,
    SamplingError,
)
from hdqkd.optics import (
    ApertureLayout,
    EvanescentClippingWarning,
    GridSpec,
    OpticalField,
    PhaseMaskStack,
    apply_mask,
    design_converter,
    forward_pass,
    inner,
    load_stack,
    make_aperture_modes,
    mask_free_passes,
    matching_objective,
    max_propagation_distance,
    propagate,
    save_mask_pgm,
    save_stack,
    score_converter,
    sorter_metrics,
    superpose,
    transfer_matrix,
    wavefront_match,
)

DESK_GRID = GridSpec(96, 64, 15e-6, 810e-9)
DESK_LAYOUT = ApertureLayout(2, 100e-6, 300e-6, "line")


# --- grids and layouts --------------------------------------------------------


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        GridSpec(4, 64, 1e-5, 8e-7)
    with pytest.raises(InvalidInputError):
        GridSpec(64, 64, -1e-5, 8e-7)


@pytest.mark.parametrize("nx, ny, pitch, wavelength", [
    (16, 16, math.nan, 810e-9), (16, 16, 1e-5, math.inf), (16, 16, 1e-5, math.nan),
    (16, 16, math.inf, 810e-9), (16.5, 16, 1e-5, 810e-9), (16, 16.0, 1e-5, 810e-9),
])
def test_grid_needs_whole_pixels_and_finite_positive_lengths(nx, ny, pitch, wavelength):
    with pytest.raises(InvalidInputError):
        GridSpec(nx, ny, pitch, wavelength)


def test_grid_accepts_numpy_integer_sizes():
    assert GridSpec(np.int64(16), np.int32(16), 1e-5, 810e-9) == GridSpec(16, 16, 1e-5, 810e-9)


@pytest.mark.parametrize("radius, spacing", [(math.nan, 3e-4), (1e-4, math.nan), (1e-4, math.inf)])
def test_layout_needs_finite_positive_lengths(radius, spacing):
    with pytest.raises(InvalidInputError):
        ApertureLayout(2, radius, spacing, "line")


def test_layout_rejects_overlap():
    with pytest.raises(GeometryError):
        ApertureLayout(4, 200e-6, 300e-6, "grid")


def test_layout_grid_needs_square_count():
    with pytest.raises(InvalidInputError):
        ApertureLayout(5, 1e-4, 3e-4, "grid")


def test_aperture_must_fit_grid():
    tiny = GridSpec(16, 16, 10e-6, 810e-9)
    with pytest.raises(GeometryError):
        make_aperture_modes(ApertureLayout(1, 100e-6, 300e-6, "line"), tiny)


def test_single_centered_aperture():
    grid = GridSpec(64, 64, 10e-6, 810e-9)
    (mode,) = make_aperture_modes(ApertureLayout(1, 1e-4, 3e-4, "line"), grid)
    assert abs(mode.power - 1.0) < 1e-12


def test_aperture_modes_orthonormal_d25():
    grid = GridSpec(192, 192, 15e-6, 810e-9)
    modes = make_aperture_modes(ApertureLayout(25, 1e-4, 3e-4, "grid"), grid)
    assert len(modes) == 25
    for i in range(25):
        for j in range(i, 25):
            ov = inner(modes[i], modes[j])
            want = 1.0 if i == j else 0.0
            assert abs(ov - want) < 1e-12


def test_grid_arrangement_order_matches_mode_grid():
    grid = GridSpec(96, 96, 15e-6, 810e-9)
    layout = ApertureLayout(4, 1e-4, 3e-4, "grid")
    centers = layout.centers()
    # flat order walks columns within a row: (1,1),(1,2),(2,1),(2,2)
    assert centers[0][1] == centers[1][1]  # same row -> same y
    assert centers[0][0] < centers[1][0]  # columns step along x
    assert centers[0][1] < centers[2][1]  # rows step along y


# --- propagation ----------------------------------------------------------------


def test_plane_wave_gets_global_phase_only():
    # the periodic spectral transform represents an infinite plane wave
    # exactly: only the DC component is populated
    grid = GridSpec(64, 64, 50e-6, 810e-9)
    wave = OpticalField(grid, np.ones((64, 64), dtype=complex))
    for z in (1e-3, 5e-2, 0.19, -0.12):
        out = propagate(wave, z, pad_factor=1)
        expected = wave.amplitude * np.exp(1j * (2 * np.pi / grid.wavelength) * z)
        assert np.abs(out.amplitude - expected).max() < 1e-8


@pytest.mark.parametrize("pad", [1, 2])
def test_power_conserved(smooth_field, pad):
    out = propagate(smooth_field, 5e-3, pad_factor=pad)
    assert abs(out.power - 1.0) < 1e-8


@pytest.mark.parametrize("pad", [1, 2])
def test_propagation_semigroup(smooth_field, pad):
    one = propagate(smooth_field, 5e-3, pad_factor=pad)
    two = propagate(propagate(smooth_field, 3e-3, pad_factor=pad), 2e-3, pad_factor=pad)
    assert rel_error(two.amplitude, one.amplitude) < 1e-8


@pytest.mark.parametrize("pad", [1, 2])
def test_propagation_inverse(smooth_field, pad):
    there = propagate(smooth_field, 4e-3, pad_factor=pad)
    back = propagate(there, -4e-3, pad_factor=pad)
    assert rel_error(back.amplitude, smooth_field.amplitude) < 1e-8


def test_sampling_bound_error_names_required_grid(smooth_field):
    z_max = max_propagation_distance(smooth_field.grid, 2)
    with pytest.raises(SamplingError, match=r"at least \d+ pixels"):
        propagate(smooth_field, 2 * z_max)


def test_evanescent_clipping_is_reported():
    # sub-wavelength pitch resolves beyond the propagating band; white
    # noise puts real power there, which the transfer function suppresses
    grid = GridSpec(32, 32, 3e-7, 810e-9)
    rng = np.random.default_rng(0)
    field = OpticalField(grid, rng.normal(size=(32, 32)) + 0j)
    with pytest.warns(UserWarning, match="evanescent"):
        propagate(field, 1e-5, pad_factor=1)


def centred_pad_reference(amps, grid, distance, pad):
    """The textbook kernel: numpy fft2 of a centred zero-pad, then crop."""
    nx, ny = grid.nx, grid.ny
    px, py = nx * pad, ny * pad
    ox, oy = (px - nx) // 2, (py - ny) // 2
    work = np.zeros(amps.shape[:-2] + (px, py), dtype=complex)
    work[..., ox : ox + nx, oy : oy + ny] = amps
    kx = 2 * np.pi * np.fft.fftfreq(px, grid.pitch)[:, None]
    ky = 2 * np.pi * np.fft.fftfreq(py, grid.pitch)[None, :]
    kz_sq = (2 * np.pi / grid.wavelength) ** 2 - kx**2 - ky**2
    h = np.where(kz_sq > 0, np.exp(1j * distance * np.sqrt(np.abs(kz_sq))), 0.0)
    out = np.fft.ifft2(np.fft.fft2(work) * h)
    return out[..., ox : ox + nx, oy : oy + ny]


@pytest.mark.parametrize("pad", [1, 2, 3])
def test_kernel_matches_centred_pad_reference(pad):
    grid = GridSpec(36, 27, 10e-6, 810e-9)
    rng = np.random.default_rng(pad)
    amps = rng.normal(size=(3, 36, 27)) + 1j * rng.normal(size=(3, 36, 27))
    out = optics._propagate_array(amps, grid, 1e-3, pad)
    want = centred_pad_reference(amps, grid, 1e-3, pad)
    assert out.shape == amps.shape
    assert rel_error(out, want) <= 1e-12
    # a contiguous crop that does not keep the padded buffer alive
    assert out.flags.c_contiguous
    assert out.base is None or out.base.size == out.size


def test_evanescent_clipping_is_reported_for_padded_batches():
    grid = GridSpec(32, 32, 3e-7, 810e-9)
    rng = np.random.default_rng(0)
    amps = rng.normal(size=(2, 32, 32)) + 0j
    with pytest.warns(EvanescentClippingWarning):
        optics._propagate_array(amps, grid, 1e-5, 2)


def batch_reference(amps, grid, distance, pad_factor, steps=1):
    """The batch-wide kernel the mode-parallel one replaced: every field
    padded into one (..., px, py) buffer and transformed as one batch."""
    import scipy.fft

    nx, ny = grid.nx, grid.ny
    px, py = nx * pad_factor, ny * pad_factor
    h, _ = optics._transfer_function(px, py, grid.pitch, grid.wavelength, distance)
    workers = optics._fft_workers()
    fft = functools.partial(scipy.fft.fft, overwrite_x=True, workers=workers)
    ifft = functools.partial(scipy.fft.ifft, overwrite_x=True, workers=workers)
    work = np.zeros(amps.shape[:-2] + (px, py), dtype=np.complex128)
    work[..., :nx, :ny] = amps
    rows = fft(work[..., :nx, :], axis=-1)
    if not np.may_share_memory(rows, work):
        work[..., :nx, :] = rows
    work = fft(work, axis=-2)
    for _ in range(steps):
        work *= h
    work = ifft(work, axis=-2)
    rows = ifft(work[..., :nx, :], axis=-1)
    return np.ascontiguousarray(rows[..., :ny])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("pad, steps", [(2, 1), (3, 1), (1, 1), (1, 3)])
def test_mode_parallel_kernel_is_bit_identical_to_the_batch_kernel(
    monkeypatch, workers, pad, steps
):
    monkeypatch.setattr(optics, "_fft_workers", lambda: workers)
    grid = GridSpec(24, 20, 10e-6, 810e-9)
    rng = np.random.default_rng(pad * steps)
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(24, 20)))
    for batch in [(), (1,), (3,), (5,), (2, 3)]:
        shape = batch + (24, 20)
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = optics._propagate_array(amps, grid, 1e-3, pad, steps)
        assert np.array_equal(out, batch_reference(amps, grid, 1e-3, pad, steps))
        assert out.shape == shape and out.dtype == np.complex128
        assert out.flags.c_contiguous and not np.shares_memory(out, amps)
        masked = optics._propagate_array(amps, grid, 1e-3, pad, steps, phase=phase)
        assert np.array_equal(
            masked, optics._propagate_array(amps * phase, grid, 1e-3, pad, steps)
        )


def test_mode_parallel_kernel_reraises_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(optics, "_fft_workers", lambda: 2)
    grid = GridSpec(24, 20, 10e-6, 810e-9)
    with pytest.raises(ValueError):
        optics._propagate_array(np.ones((3, 24, 20)), grid, 1e-3, 2, phase=np.ones((3, 3)))


def test_kernel_rejects_fields_of_another_shape():
    # reshaping alone would read a (20, 24) field as (24, 20)
    grid = GridSpec(24, 20, 10e-6, 810e-9)
    with pytest.raises(GeometryError):
        optics._propagate_array(np.ones((2, 20, 24)), grid, 1e-3, 2)


def test_import_loads_neither_scipy_nor_the_executor():
    # the kernel imports both on first use, so `import hdqkd` stays cheap
    code = (
        "import sys, hdqkd; "
        "print([m for m in ('scipy', 'concurrent.futures') if m in sys.modules])"
    )
    src = str(Path(optics.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("count", [1, 2])
def test_evanescent_warning_points_at_the_caller(monkeypatch, count):
    monkeypatch.setattr(optics, "_fft_workers", lambda: 2)
    grid = GridSpec(32, 32, 3e-7, 810e-9)
    rng = np.random.default_rng(0)
    # only the last chunk carries evanescent power
    dark = [OpticalField(grid, np.zeros((32, 32)))] * (count - 1)
    fields = dark + [OpticalField(grid, rng.normal(size=(32, 32)) + 0j)]
    with pytest.warns(EvanescentClippingWarning) as record:
        mask_free_passes(fields, 3, 1e-5)
    assert [w.filename for w in record] == [__file__]


def test_paper_grid_propagates_without_warnings():
    grid = GridSpec(192, 192, 15e-6, 810e-9)
    modes = make_aperture_modes(ApertureLayout(25, 1e-4, 3e-4, "grid"), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pad in (1, 2):
            out = propagate(modes[12], 43.5e-3, pad_factor=pad)
            assert out.power <= 1.0 + 1e-9


# --- masks ----------------------------------------------------------------------


def test_zero_mask_is_identity(smooth_field):
    out = apply_mask(smooth_field, np.zeros((128, 128)))
    assert np.array_equal(out.amplitude, smooth_field.amplitude)


def test_constant_mask_is_global_phase(smooth_field):
    out = apply_mask(smooth_field, np.full((128, 128), 0.7))
    expected = smooth_field.amplitude * np.exp(0.7j)
    assert rel_error(out.amplitude, expected) < 1e-14


def test_mask_then_negation_is_identity(smooth_field):
    rng = np.random.default_rng(1)
    phase = rng.uniform(0, 2 * np.pi, size=(128, 128))
    out = apply_mask(apply_mask(smooth_field, phase), -phase)
    assert rel_error(out.amplitude, smooth_field.amplitude) < 1e-14


def test_mask_preserves_power_exactly(smooth_field):
    rng = np.random.default_rng(2)
    phase = rng.uniform(0, 2 * np.pi, size=(128, 128))
    out = apply_mask(smooth_field, phase)
    assert abs(out.power - smooth_field.power) / smooth_field.power < 1e-14


def test_mask_from_stack_and_shape_mismatch(smooth_field):
    stack = PhaseMaskStack(smooth_field.grid, np.ones((2, 128, 128)), 1e-3)
    out = apply_mask(smooth_field, stack, plane=2)
    assert np.abs(out.amplitude - smooth_field.amplitude * np.exp(1j)).max() < 1e-12
    with pytest.raises(GeometryError):
        apply_mask(smooth_field, np.zeros((4, 4)))


def test_stack_wraps_phases():
    grid = GridSpec(8, 8, 1e-5, 8e-7)
    stack = PhaseMaskStack(grid, np.full((1, 8, 8), -1.0), 1e-3)
    assert np.all(stack.masks >= 0.0) and np.all(stack.masks < 2 * np.pi)
    assert abs(stack.masks[0, 0, 0] - (2 * np.pi - 1.0)) < 1e-12


# --- converter passes -------------------------------------------------------------


def test_zero_stack_is_free_propagation(smooth_field):
    planes, spacing = 3, 2e-3
    stack = PhaseMaskStack(smooth_field.grid, np.zeros((planes, 128, 128)), spacing)
    for pad in (1, 2):
        through = forward_pass(stack, smooth_field, pad_factor=pad)
        direct = propagate(smooth_field, (planes + 1) * spacing, pad_factor=pad)
        assert rel_error(through.amplitude, direct.amplitude) < 1e-8
        assert abs(through.power - smooth_field.power) < 1e-8


def test_single_plane_stack_composes_primitives(smooth_field):
    rng = np.random.default_rng(3)
    phase = rng.uniform(0, 2 * np.pi, size=(128, 128))
    stack = PhaseMaskStack(smooth_field.grid, phase[None], 3e-3)
    through = forward_pass(stack, smooth_field, pad_factor=1)
    direct = propagate(apply_mask(smooth_field, phase), 6e-3, pad_factor=1)
    assert rel_error(through.amplitude, direct.amplitude) < 1e-10


# --- wavefront matching ------------------------------------------------------------


def swap_problem():
    modes = make_aperture_modes(DESK_LAYOUT, DESK_GRID)
    return modes, [modes[1], modes[0]]


def test_wavefront_match_swap_reaches_spec_fidelity():
    modes, targets = swap_problem()
    stack = wavefront_match(modes, targets, planes=4, plane_spacing=5e-3, iterations=30)
    t = transfer_matrix(stack, modes, targets)
    fidelity = float(np.mean(np.abs(np.diag(t)) ** 2))
    assert fidelity >= 0.9
    assert fidelity >= 0.96  # regression baseline from the first successful run


def test_wavefront_match_beats_zero_stack_for_identity_targets():
    modes = make_aperture_modes(DESK_LAYOUT, DESK_GRID)
    stack = wavefront_match(modes, modes, planes=3, plane_spacing=5e-3, iterations=10)
    zero = PhaseMaskStack(DESK_GRID, np.zeros((3, 96, 64)), 5e-3)
    assert matching_objective(stack, modes, modes) >= matching_objective(zero, modes, modes)


def test_wavefront_match_is_deterministic():
    modes, targets = swap_problem()
    one = wavefront_match(modes, targets, planes=3, plane_spacing=5e-3, iterations=5)
    two = wavefront_match(modes, targets, planes=3, plane_spacing=5e-3, iterations=5)
    assert np.array_equal(one.masks, two.masks)


def test_wavefront_match_validates_inputs():
    modes, targets = swap_problem()
    with pytest.raises(InvalidConfigError):
        wavefront_match(modes, targets, planes=0, plane_spacing=1e-3)
    with pytest.raises(InvalidConfigError):
        wavefront_match(modes, targets, planes=2, plane_spacing=1e-3, iterations=0)
    overlapping = [modes[0], superpose([modes[0], modes[1]], [0.8, 0.6])]
    with pytest.raises(InvalidModeSetError):
        wavefront_match(overlapping, targets, planes=2, plane_spacing=1e-3)


# --- transfer matrices --------------------------------------------------------------


def test_zero_stack_transfer_is_near_identity():
    modes = make_aperture_modes(DESK_LAYOUT, DESK_GRID)
    planes, spacing = 2, 5e-3
    stack = PhaseMaskStack(DESK_GRID, np.zeros((planes, 96, 64)), spacing)
    outputs = [forward_pass(stack, m, pad_factor=1) for m in modes]
    t = transfer_matrix(stack, modes, outputs, pad_factor=1)
    assert np.abs(np.abs(np.diag(t)) - 1.0).max() < 1e-6
    assert np.abs(t - np.diag(np.diag(t))).max() < 1e-6


def test_transfer_is_passive():
    modes, targets = swap_problem()
    stack = wavefront_match(modes, targets, planes=3, plane_spacing=5e-3, iterations=8)
    for outputs in (targets, modes):
        t = transfer_matrix(stack, modes, outputs)
        assert np.linalg.svd(t, compute_uv=False).max() <= 1.0 + 1e-6


def test_batched_scoring_matches_per_mode_passes():
    modes, targets = swap_problem()
    stack = wavefront_match(modes, targets, planes=3, plane_spacing=5e-3, iterations=4)
    outs = [forward_pass(stack, m) for m in modes]
    want_t = np.array([[inner(o, out) for out in outs] for o in targets])
    want_objective = np.mean([abs(inner(t, out)) ** 2 for t, out in zip(targets, outs)])
    for got, want in zip(optics._converter_pass(stack, modes, 2), outs):
        assert rel_error(got, want.amplitude) <= 1e-12
    t = transfer_matrix(stack, modes, targets)
    assert np.abs(t - want_t).max() <= 1e-12
    assert abs(matching_objective(stack, modes, targets) - want_objective) <= 1e-12
    shared_t, shared_objective = score_converter(stack, modes, targets, targets)
    assert np.array_equal(shared_t, t)
    assert shared_objective == matching_objective(stack, modes, targets)


TOY_DESIGN = [
    "optics", "design", "--d", "4", "--target", "row-dft", "--planes", "3",
    "--plane-spacing", "5e-3", "--iterations", "2", "--nx", "32", "--ny", "32",
    "--aperture-radius", "40e-6", "--aperture-spacing", "120e-6", "--quiet",
]


def test_design_command_propagation_count(tmp_path, monkeypatch):
    # d=4 modes, P=3 planes, I=2 iterations: 2 hoisted target propagations,
    # I*(2P-2) in the sweeps, 2 finishing the last sweep for the score,
    # and one composed pass for the propagated detection modes
    calls = []
    kernel = optics._propagate_array

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(optics, "_propagate_array", counting)
    for detection, count in (("propagated", 13), ("disks", 12)):
        calls.clear()
        code = cli.main(TOY_DESIGN + ["--detection", detection, "--out", str(tmp_path)])
        assert code == 0
        assert len(calls) == 2 + 2 * (2 * 3 - 2) + 2 + (detection == "propagated") == count
        assert all(shape == (4, 32, 32) for shape in calls)


# sha256 of the toy design's stack.mplc, recorded with the batch-wide
# kernel under numpy 2.4 and scipy 1.17 (pocketfft); the masks do not
# depend on --detection.
TOY_STACK_SHA256 = "4c4210200a9ba8c7c6a360707f92f31cec7be971f2c31bbcd997ebdddc7a8cfc"


def test_toy_design_stack_is_golden(tmp_path):
    assert cli.main(TOY_DESIGN + ["--detection", "disks", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "stack.mplc").read_bytes()).hexdigest()
    assert digest == TOY_STACK_SHA256


def rescore(out, detection):
    """The design command's scoring redone from its saved stack with
    `score_converter`, against stepwise detection modes; returns the
    metrics.json text and the objective."""
    args = cli.build_parser().parse_args(TOY_DESIGN + ["--detection", detection])
    grid, layout, modes = cli._design_geometry(args)
    targets, intended = cli._design_targets(args, modes)
    stack = load_stack(out / "stack.mplc")
    if detection == "disks":
        outputs = cli._detection_modes(args, grid, layout, modes, stack.planes)
    else:
        zero = PhaseMaskStack(grid, np.zeros((stack.planes, 32, 32)), stack.plane_spacing)
        outputs = [forward_pass(zero, mode, pad_factor=1) for mode in modes]
    transfer, objective = score_converter(stack, modes, outputs, targets)
    sorter_metrics(transfer, intended=intended).save_json(out / "rescored.json")
    return (out / "rescored.json").read_text(), objective


def test_design_scores_its_stack_as_score_converter_does(tmp_path):
    assert cli.main(TOY_DESIGN + ["--detection", "disks", "--out", str(tmp_path)]) == 0
    text, objective = rescore(tmp_path, "disks")
    assert (tmp_path / "metrics.json").read_text() == text
    config = json.loads((tmp_path / "resolved_config.json").read_text())
    assert config["objective"] == objective


def test_design_with_propagated_detection_matches_stepwise_scoring(tmp_path):
    assert cli.main(TOY_DESIGN + ["--detection", "propagated", "--out", str(tmp_path)]) == 0
    text, objective = rescore(tmp_path, "propagated")
    got, want = json.loads((tmp_path / "metrics.json").read_text()), json.loads(text)
    for key in want:
        assert np.abs(np.array(got[key]) - np.array(want[key])).max() <= 1e-12
    config = json.loads((tmp_path / "resolved_config.json").read_text())
    assert abs(config["objective"] - objective) <= 1e-12


def test_design_converter_matches_wavefront_match_then_score():
    modes, targets = swap_problem()
    stack, transfer, objective = design_converter(
        modes, targets, modes, planes=3, plane_spacing=5e-3, iterations=4
    )
    want = wavefront_match(modes, targets, planes=3, plane_spacing=5e-3, iterations=4)
    assert np.array_equal(stack.masks, want.masks)
    want_transfer, want_objective = score_converter(want, modes, modes, targets)
    assert np.array_equal(transfer, want_transfer)
    assert objective == want_objective


@pytest.mark.parametrize("planes", [2, 10])
def test_mask_free_passes_match_stepwise_zero_stack(planes):
    spacing = 5e-3
    # every spacing is within the periodic grid's sampling bound; at 10
    # planes the whole 55 mm pass is not
    z_max = max_propagation_distance(DESK_GRID, 1)
    assert spacing <= z_max and ((planes + 1) * spacing > z_max) == (planes == 10)
    modes = make_aperture_modes(DESK_LAYOUT, DESK_GRID)
    zero = PhaseMaskStack(DESK_GRID, np.zeros((planes, 96, 64)), spacing)
    stepwise = [forward_pass(zero, mode, pad_factor=1) for mode in modes]
    for got, want in zip(mask_free_passes(modes, planes, spacing), stepwise):
        assert rel_error(got.amplitude, want.amplitude) <= 1e-12


def test_mask_free_passes_check_the_per_spacing_sampling_bound(smooth_field):
    z_max = max_propagation_distance(smooth_field.grid, 1)
    with pytest.raises(SamplingError):
        mask_free_passes([smooth_field], 2, 1.5 * z_max)


def test_evanescent_clipping_is_reported_for_mask_free_passes():
    grid = GridSpec(32, 32, 3e-7, 810e-9)
    rng = np.random.default_rng(0)
    field = OpticalField(grid, rng.normal(size=(32, 32)) + 0j)
    with pytest.warns(EvanescentClippingWarning):
        mask_free_passes([field], 3, 1e-5)


# --- sorter metrics -----------------------------------------------------------------


def test_metrics_of_perfect_sorter():
    u = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / math.sqrt(3)
    m = sorter_metrics(u, intended=u)
    assert abs(m.fidelity - 1.0) < 1e-12
    assert m.mean_crosstalk < 1e-12
    assert m.insertion_loss_db == 0.0


def test_metrics_of_uniform_loss():
    u = np.eye(4, dtype=complex)
    m = sorter_metrics(0.5 * u, intended=u)
    assert abs(m.fidelity - 1.0) < 1e-12
    assert m.mean_crosstalk < 1e-12
    assert abs(m.insertion_loss_db - 6.0206) < 1e-3


def test_metrics_reject_zero_transfer():
    with pytest.raises(DegenerateTransferError):
        sorter_metrics(np.zeros((3, 3)))


@pytest.mark.parametrize("loss_db,d", [(10.7, 5), (13.4, 25)])
def test_reported_device_losses_fit_the_report_format(tmp_path, loss_db, d):
    # measured per-photon losses annotate cleanly as uniform-loss reports
    amp = 10 ** (-loss_db / 20)
    m = sorter_metrics(amp * np.eye(d, dtype=complex))
    assert abs(m.insertion_loss_db - loss_db) < 1e-9
    m.save_json(tmp_path / "metrics.json")
    assert (tmp_path / "metrics.json").exists()


# --- containers ----------------------------------------------------------------------


def test_stack_container_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    stack = PhaseMaskStack(
        DESK_GRID, rng.uniform(0, 2 * np.pi, size=(3, 96, 64)), 43.5e-3
    )
    path = tmp_path / "stack.mplc"
    save_stack(stack, path)
    again = load_stack(path)
    assert again.grid == stack.grid
    assert again.plane_spacing == stack.plane_spacing
    assert np.array_equal(again.masks, stack.masks)
    assert path.read_bytes()[:4] == b"MPLC"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stack_rejects_non_finite_phases(bad):
    masks = np.zeros((1, 8, 8))
    masks[0, 3, 4] = bad
    with pytest.raises(InvalidInputError):
        PhaseMaskStack(GridSpec(8, 8, 1e-5, 8e-7), masks, 1e-3)


@pytest.mark.parametrize("spacing", [math.nan, math.inf, -1e-3, 0.0])
def test_stack_needs_a_finite_positive_spacing(spacing):
    with pytest.raises(InvalidInputError, match="plane spacing"):
        PhaseMaskStack(GridSpec(8, 8, 1e-5, 8e-7), np.zeros((1, 8, 8)), spacing)


@pytest.mark.parametrize("pitch, spacing", [(1e-5, -1e-3), (1e-5, math.nan), (math.nan, 1e-3)])
def test_container_with_a_bad_length_is_rejected(tmp_path, pitch, spacing):
    path = tmp_path / "bad.mplc"
    header = optics._HEADER.pack(optics.MAGIC, optics.FORMAT_STACK, 8, 8, 1, pitch, 8e-7, spacing)
    path.write_bytes(header + np.zeros(8 * 8).tobytes())
    with pytest.raises(InvalidInputError, match="finite and > 0"):
        load_stack(path)


def test_design_rejects_a_bad_spacing_before_the_first_sweep(monkeypatch):
    modes, targets = swap_problem()
    calls = []
    monkeypatch.setattr(optics, "_propagate_array", lambda *a, **k: calls.append(a))
    for spacing in (-5e-3, 0.0):
        with pytest.raises(InvalidInputError, match="plane spacing"):
            wavefront_match(modes, targets, planes=2, plane_spacing=spacing, iterations=1)
        with pytest.raises(InvalidInputError, match="plane spacing"):
            design_converter(modes, targets, modes, planes=2, plane_spacing=spacing)
    assert calls == []


def test_stack_wrap_never_stores_two_pi():
    # np.mod rounds a phase just below zero up to exactly 2pi
    assert np.mod(-1e-17, 2 * np.pi) == 2 * np.pi
    stack = PhaseMaskStack(GridSpec(8, 8, 1e-5, 8e-7), np.full((1, 8, 8), -1e-17), 1e-3)
    assert (stack.masks == 0.0).all()


@pytest.mark.parametrize("extra", [b"\0", b"\0" * 8, b"\0" * 12])
def test_containers_reject_trailing_bytes(tmp_path, extra):
    path = tmp_path / "container.mplc"
    save_stack(PhaseMaskStack(DESK_GRID, np.ones((2, 96, 64)), 1e-3), path)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(InvalidInputError, match="payload"):
        load_stack(path)


def test_container_kind_mismatch(tmp_path):
    # a one-plane 8x8 stack in every field but the version
    path = tmp_path / "other.mplc"
    header = optics._HEADER.pack(optics.MAGIC, 2, 8, 8, 1, 1e-5, 8e-7, 1e-3)
    path.write_bytes(header + np.zeros(8 * 8).tobytes())
    with pytest.raises(InvalidInputError, match="not a phase-mask container"):
        load_stack(path)


def test_pgm_dump(tmp_path):
    masks = np.zeros((1, 8, 8))
    masks[0, 0, 0] = np.pi  # half scale
    grid = GridSpec(8, 8, 1e-5, 8e-7)
    stack = PhaseMaskStack(grid, masks, 1e-3)
    path = tmp_path / "mask.pgm"
    save_mask_pgm(stack, 1, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n8 8\n65535\n")
    pixels = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2").reshape(8, 8)
    assert pixels[0, 0] == round(0.5 * 65535)
    assert pixels[1:].max() == 0
