import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
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
    CAPTURED_POWER_TOL,
    ApertureLayout,
    EvanescentClippingWarning,
    GridSpec,
    OpticalField,
    PhaseMaskStack,
    design_converter,
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
    sorter_problem,
    superpose,
    transfer_matrix,
    wavefront_match,
)
from hdqkd.mub import full_mub_set, sqrt_mub_pair

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
            ov = np.vdot(modes[i].amplitude, modes[j].amplitude) * grid.pitch**2
            want = 1.0 if i == j else 0.0
            assert abs(ov - want) < 1e-12


def test_superpose_needs_at_least_one_field():
    with pytest.raises(InvalidInputError, match="need at least one field"):
        superpose([], [])


def signed_zero_coefficients(rng, d):
    """A random complex (d, d) matrix with about a third of its real and
    of its imaginary parts set to -0.0."""
    coeff = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    coeff.real[rng.random((d, d)) < 0.3] = -0.0
    coeff.imag[rng.random((d, d)) < 0.3] = -0.0
    return coeff


@pytest.mark.parametrize("grid, layout", [
    (GridSpec(192, 192, 15e-6, 810e-9), ApertureLayout(25, 100e-6, 300e-6, "grid")),
    (GridSpec(48, 48, 15e-6, 810e-9), ApertureLayout(5, 20e-6, 60e-6, "line")),
    # touching disks: spacing = 2 * radius, so pairs of modes share pixels
    (GridSpec(48, 48, 15e-6, 810e-9), ApertureLayout(4, 30e-6, 60e-6, "grid")),
], ids=["d25-grid", "d5-line", "d4-touching"])
def test_target_fields_are_superpose_bit_for_bit(grid, layout):
    modes = make_aperture_modes(layout, grid)
    d = len(modes)
    if layout.spacing == 2 * layout.radius:
        assert (sum(m.amplitude != 0 for m in modes) > 1).any()
    rng = np.random.default_rng(28)
    dft = np.fft.fft(np.eye(d)) / math.sqrt(d)
    for coeff in [dft, -dft, *(signed_zero_coefficients(rng, d) for _ in range(3))]:
        got = optics.superpose_rows(modes, coeff.conj())
        want = [superpose(modes, row.conj()) for row in coeff]
        assert len(got) == d
        for g, w in zip(got, want):
            assert g.grid == w.grid
            assert g.amplitude.tobytes() == w.amplitude.tobytes()


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


def test_sampling_bound_error_names_the_distance_magnitude(smooth_field):
    z_max = max_propagation_distance(smooth_field.grid, 2)
    with pytest.raises(SamplingError) as caught:
        optics._check_sampling(smooth_field.grid, -2 * z_max, 2)
    assert f"distance {2 * z_max:.4g} m exceeds" in str(caught.value)


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
    nx, ny = grid.nx, grid.ny
    px, py = nx * pad_factor, ny * pad_factor
    h, _ = optics._transfer_function(px, py, grid.pitch, grid.wavelength, distance)
    work = np.zeros(amps.shape[:-2] + (px, py), dtype=np.complex128)
    work[..., :nx, :ny] = amps
    work[..., :nx, :] = np.fft.fft(work[..., :nx, :], axis=-1)
    work = np.fft.fft(work, axis=-2)
    for _ in range(steps):
        work *= h
    work = np.fft.ifft(work, axis=-2)
    rows = np.fft.ifft(work[..., :nx, :], axis=-1)
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
        masked = optics._propagate_array(amps, grid, 1e-3, pad, steps, phases=[phase])
        assert np.array_equal(
            masked, optics._propagate_array(amps * phase, grid, 1e-3, pad, steps)
        )
        # a pass of two spacings: the second runs in place, over the first's output
        passed = optics._propagate_array(amps, grid, 1e-3, pad, steps,
                                         phases=iter([phase, None]))
        assert np.array_equal(passed, optics._propagate_array(masked, grid, 1e-3, pad, steps))


def test_mode_parallel_kernel_reraises_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(optics, "_fft_workers", lambda: 2)
    grid = GridSpec(24, 20, 10e-6, 810e-9)
    with pytest.raises(ValueError):
        optics._propagate_array(np.ones((3, 24, 20)), grid, 1e-3, 2, phases=[np.ones((3, 3))])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("pad, steps", [(1, 1), (2, 1), (1, 3)])
def test_in_place_kernel_is_bit_identical_to_the_fresh_output_kernel(monkeypatch, workers, pad,
                                                                    steps):
    monkeypatch.setattr(optics, "_fft_workers", lambda: workers)
    grid = GridSpec(24, 20, 10e-6, 810e-9)
    rng = np.random.default_rng(10 * pad + steps)
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(24, 20)))
    for count in (1, 2, 3, 5):
        amps = rng.normal(size=(count, 24, 20)) + 1j * rng.normal(size=(count, 24, 20))
        for mask in (None, phase):
            want = optics._propagate_array(amps, grid, 1e-3, pad, steps, phases=[mask])
            batch = amps.copy()
            optics._propagate_into(batch, batch, grid, 1e-3, pad, steps, mask)
            assert np.array_equal(batch, want)


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


def test_no_command_loads_scipy(tmp_path):
    # the optics run on numpy.fft, so no command pays for importing scipy
    argvs = [
        TOY_DESIGN + ["--out", str(tmp_path / "design")],
        ["optics", "eval", *TOY_DESIGN[2:], "--stack", str(tmp_path / "design" / "stack.mplc"),
         "--out", str(tmp_path / "eval")],
        ["mub", "gen", "--d", "4", "--family", "dft", "--out", str(tmp_path / "mub"), "--quiet"],
        ["simulate", "--d", "4", "--rounds", "10", "--out", str(tmp_path / "sim"), "--quiet"],
        ["keyrate", "--d", "4", "--E", "0.1", "--out", str(tmp_path / "rate"), "--quiet"],
    ]
    code = (
        "import json, sys; from hdqkd import cli; "
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
        "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(optics.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[0, 0, 0, 0, 0] []"


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


@pytest.mark.parametrize("entry", ["propagate", "mask_free_passes", "transfer_matrix",
                                   "matching_objective", "score_converter", "wavefront_match",
                                   "design_converter"])
def test_every_optics_entry_warns_at_the_caller(monkeypatch, entry):
    # each warning names this file, however deep in optics it was raised:
    # in a pass, in the sweeps, or in the generator of their streamed planes
    monkeypatch.setattr(optics, "_fft_workers", lambda: 2)
    grid = GridSpec(32, 32, 3e-7, 810e-9)
    modes = make_aperture_modes(ApertureLayout(3, 8e-7, 2.4e-6, "line"), grid)
    stack = PhaseMaskStack(grid, np.zeros((3, 32, 32)), 2e-6)
    calls = {
        "propagate": lambda: propagate(modes[0], 2e-6),
        "mask_free_passes": lambda: mask_free_passes(modes, 3, 2e-6),
        "transfer_matrix": lambda: transfer_matrix(stack, modes, modes),
        "matching_objective": lambda: matching_objective(stack, modes, modes[::-1]),
        "score_converter": lambda: score_converter(stack, modes, modes, modes[::-1]),
        "wavefront_match": lambda: wavefront_match(modes, modes[::-1], 3, 2e-6, iterations=1),
        "design_converter": lambda: design_converter(lambda: modes, lambda m: m[::-1],
                                                     lambda m: m, 3, 2e-6, iterations=1),
    }
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        calls[entry]()
    clipping = [w for w in record if w.category is EvanescentClippingWarning]
    assert clipping and [w.filename for w in clipping] == [__file__] * len(clipping)


POOL_CHECK = """
import gc, os, threading, time
from concurrent.futures import ThreadPoolExecutor
import numpy as np
from hdqkd import optics

grid = optics.GridSpec(96, 64, 15e-6, 810e-9)
modes = optics.make_aperture_modes(optics.ApertureLayout(3, 1e-4, 3e-4, "line"), grid)
stack = optics.wavefront_match(modes, modes[::-1], planes=3, plane_spacing=5e-3, iterations=2)
optics.transfer_matrix(stack, modes, modes[::-1])
want = optics._converter_pass(stack, optics._mode_matrix(modes), 2)
optics.propagate(modes[0], 5e-3)
pools = [o for o in gc.get_objects() if isinstance(o, ThreadPoolExecutor)]
print(len(pools), threading.active_count() - 1 <= optics._fft_workers())
pid = os.fork()
if pid == 0:
    got = optics._converter_pass(stack, optics._mode_matrix(modes), 2)
    os._exit(0 if np.array_equal(got, want) else 1)
deadline = time.monotonic() + 60
while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
    time.sleep(0.05)
if not done[0]:
    os.kill(pid, 9)
    os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(done[1]) if done[0] else "hung")
"""


def test_one_pool_serves_the_process_and_a_forked_child():
    # a design, a pass and a propagation share one executor of at most one
    # thread per core; a forked child makes its own and gets the same bits
    src = str(Path(optics.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", POOL_CHECK], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "True", "0"]


@pytest.mark.parametrize("planes, iterations", [(1, 1), (2, 1), (3, 2), (4, 1)])
def test_sweeps_warn_once_per_propagated_batch(monkeypatch, planes, iterations):
    # planes 1 and 2 propagate their batches in chunks of 2 fields but warn
    # once for each: 2 hoisted target propagations, then 2P-2 per sweep
    monkeypatch.setattr(optics, "_fft_workers", lambda: 2)
    grid = GridSpec(32, 32, 3e-7, 810e-9)
    modes = make_aperture_modes(ApertureLayout(3, 8e-7, 2.4e-6, "line"), grid)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        wavefront_match(modes, modes[::-1], planes=planes, plane_spacing=2e-6,
                        iterations=iterations)
    clipping = [w for w in record if w.category is EvanescentClippingWarning]
    assert len(clipping) == 2 + iterations * (2 * planes - 2)


def test_paper_grid_propagates_without_warnings():
    grid = GridSpec(192, 192, 15e-6, 810e-9)
    modes = make_aperture_modes(ApertureLayout(25, 1e-4, 3e-4, "grid"), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pad in (1, 2):
            out = propagate(modes[12], 43.5e-3, pad_factor=pad)
            assert out.power <= 1.0 + 1e-9


# --- masks ----------------------------------------------------------------------


def one_plane_pass(field, phase, pad_factor=2, spacing=2e-3):
    """The field sent through a one-plane converter of mask `phase`, and
    its free propagation over the same two spacings."""
    stack = PhaseMaskStack(field.grid, np.broadcast_to(phase, (1, *field.amplitude.shape)),
                           spacing)
    (through,) = optics._converter_pass(stack, field.amplitude[None], pad_factor)
    free = propagate(propagate(field, spacing, pad_factor), spacing, pad_factor)
    return through, free.amplitude


def test_zero_mask_is_identity(smooth_field):
    through, free = one_plane_pass(smooth_field, 0.0)
    assert np.array_equal(through, free)


def test_constant_mask_is_global_phase(smooth_field):
    through, free = one_plane_pass(smooth_field, 0.7)
    assert rel_error(through, free * np.exp(0.7j)) < 1e-14


def test_mask_from_stack_and_shape_mismatch(smooth_field):
    # the converter applies the stack's mask p at plane p
    rng = np.random.default_rng(4)
    masks = np.stack([np.zeros((128, 128)), rng.uniform(0, 2 * np.pi, size=(128, 128))])
    stack = PhaseMaskStack(smooth_field.grid, masks, 1e-3)
    (through,) = optics._converter_pass(stack, smooth_field.amplitude[None], 1)
    first = propagate(smooth_field, 1e-3, pad_factor=1)
    masked = OpticalField(first.grid, first.amplitude * np.exp(1j * stack.masks[1]))
    want = propagate(masked, 2e-3, pad_factor=1)
    assert rel_error(through, want.amplitude) < 1e-12
    with pytest.raises(GeometryError):
        PhaseMaskStack(smooth_field.grid, np.zeros((2, 4, 4)), 1e-3)


def test_mask_preserves_power_exactly(smooth_field):
    # at pad factor 1 propagation is unitary, so only the mask could lose power
    rng = np.random.default_rng(2)
    phase = rng.uniform(0, 2 * np.pi, size=(128, 128))
    through, _ = one_plane_pass(smooth_field, phase, pad_factor=1)
    power = OpticalField(smooth_field.grid, through).power
    assert abs(power - smooth_field.power) / smooth_field.power < 1e-14


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
        (amp,) = optics._converter_pass(stack, smooth_field.amplitude[None], pad)
        through = OpticalField(smooth_field.grid, amp)
        direct = propagate(smooth_field, (planes + 1) * spacing, pad_factor=pad)
        assert rel_error(through.amplitude, direct.amplitude) < 1e-8
        assert abs(through.power - smooth_field.power) < 1e-8


def test_single_plane_stack_composes_primitives(smooth_field):
    rng = np.random.default_rng(3)
    phase = rng.uniform(0, 2 * np.pi, size=(128, 128))
    stack = PhaseMaskStack(smooth_field.grid, phase[None], 3e-3)
    (through,) = optics._converter_pass(stack, smooth_field.amplitude[None], 1)
    masked = OpticalField(smooth_field.grid, smooth_field.amplitude * np.exp(1j * phase))
    direct = propagate(masked, 6e-3, pad_factor=1)
    assert rel_error(through, direct.amplitude) < 1e-10


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


def reference_masks(inputs, targets, planes, spacing, iterations):
    """wavefront_match's masks with each plane's overlap summed one mode
    at a time as f * conj(b), from +0, with no temporary to elide."""
    grid = inputs[0].grid

    def prop(amps, distance, phase=None):
        return optics._propagate_array(amps, grid, distance, 2, phases=[phase])

    masks = np.zeros((planes, grid.nx, grid.ny))
    last = prop(prop(np.stack([t.amplitude for t in targets]), -spacing), -spacing)
    for _ in range(iterations):
        backward = [last]
        for p in range(planes - 2, -1, -1):
            backward.insert(0, prop(backward[0], -spacing, np.exp(-1j * masks[p + 1])))
        f = np.stack([m.amplitude for m in inputs])
        for p in range(planes):
            overlap = np.zeros((grid.nx, grid.ny), dtype=complex)
            for fn, bn in zip(f, backward[p]):
                overlap = np.add(overlap, np.multiply(fn, np.conjugate(bn)))
            masks[p] = optics._wrap_phase(-optics._angle(overlap))
            f = prop(f, spacing, np.exp(1j * masks[p]))
    return masks


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [3, 4, 5])
@pytest.mark.parametrize("planes", [1, 2, 3, 5])
def test_streamed_sweeps_match_the_batch_reference(monkeypatch, planes, count, workers):
    # planes 1 and 2 are streamed in chunks of `workers` fields, so an odd
    # count leaves a short last chunk; at P=2 the second iteration reads
    # `last` again, which the first must not have overwritten
    monkeypatch.setattr(optics, "_fft_workers", lambda: workers)
    grid = GridSpec(48, 48, 15e-6, 810e-9)
    modes = make_aperture_modes(ApertureLayout(count, 20e-6, 60e-6, "line"), grid)
    dft = np.exp(2j * np.pi * np.outer(range(count), range(count)) / count)
    targets = [superpose(modes, row / math.sqrt(count)) for row in dft]
    stack, transfer, objective = design_converter(
        lambda: modes, lambda _: targets, lambda m: m, planes=planes, plane_spacing=5e-3,
        iterations=2
    )
    assert np.array_equal(stack.masks, reference_masks(modes, targets, planes, 5e-3, 2))
    want_transfer, want_objective = score_converter(stack, modes, modes, targets)
    assert np.array_equal(transfer, want_transfer) and objective == want_objective


def test_design_builds_output_modes_given_as_a_function_after_its_sweeps(monkeypatch):
    # and checks them before, so that a bad set fails before the sweeps,
    # which do not hold them; the targets, also a function, are built as
    # the sweeps start and again for the score
    modes, targets = swap_problem()
    events = []
    sweeps = optics._wavefront_sweeps

    def recording(*args, **kwargs):
        events.append("sweeps")
        return sweeps(*args, **kwargs)

    def build(_modes):
        events.append("output modes")
        return modes

    def build_targets(_modes):
        events.append("targets")
        return targets

    monkeypatch.setattr(optics, "_wavefront_sweeps", recording)
    got = design_converter(lambda: modes, build_targets, build, planes=2, plane_spacing=5e-3,
                           iterations=2)
    assert events == ["output modes", "sweeps", "targets", "output modes", "targets"]
    want = wavefront_match(modes, targets, planes=2, plane_spacing=5e-3, iterations=2)
    assert np.array_equal(got[0].masks, want.masks)
    want_transfer, want_objective = score_converter(want, modes, modes, targets)
    assert np.array_equal(got[1], want_transfer) and got[2] == want_objective
    overlapping = [modes[0], superpose([modes[0], modes[1]], [0.8, 0.6])]
    events.clear()
    with pytest.raises(InvalidModeSetError, match="output modes"):
        design_converter(lambda: modes, build_targets, lambda _: overlapping, planes=2,
                         plane_spacing=5e-3)
    assert events == []


@pytest.mark.parametrize("count, n, kib", [(2, 64, 128), (4, 96, 576)])
def test_sweep_overlaps_do_not_depend_on_temporary_elision(count, n, kib):
    # numpy elides the temporary of a batch product from 256 KiB on, and
    # then multiplies in the other order, which changes the last bits
    grid = GridSpec(n, n, 15e-6, 810e-9)
    modes = make_aperture_modes(ApertureLayout(count, 60e-6, 180e-6, "line"), grid)
    assert count * n * n * 16 == kib * 1024
    dft = np.exp(2j * np.pi * np.outer(range(count), range(count)) / count)
    targets = [superpose(modes, row / math.sqrt(count)) for row in dft]
    stack = wavefront_match(modes, targets, planes=3, plane_spacing=5e-3, iterations=2)
    assert np.array_equal(stack.masks, reference_masks(modes, targets, 3, 5e-3, 2))
    # outside the apertures every plane-1 product is +-0: the sum from +0
    # is +0, so the phase is 0 and not pi
    dark = ~np.any([m.amplitude != 0 for m in modes], axis=0)
    assert dark.sum() > n * n // 2 and np.all(stack.masks[0][dark] == 0.0)


def test_design_holds_its_backward_batches_and_little_else(monkeypatch):
    monkeypatch.setattr(optics, "_fft_workers", lambda: 2)
    grid = GridSpec(96, 96, 15e-6, 810e-9)
    modes = make_aperture_modes(ApertureLayout(16, 100e-6, 300e-6), grid)
    dft = np.exp(2j * np.pi * np.outer(range(16), range(16)) / 16)
    field = 96 * 96 * 16  # one complex (nx, ny) field
    # Everything the design may hold at once above what the caller holds,
    # the inputs, at its worst case: 5.17 batches of 16 fields (5.10
    # measured), with no batch of targets.  The design builds them itself,
    # so holding them through the sweeps reads 6.10.  A chunk is an
    # eighth of a batch, so holding a fifth batch reads above the model:
    # 5.98 with a chunk as large as a batch, 6.10 with the P batches of
    # the unstreamed sweep.
    model = {
        "P - 1 = 4 backward batches of d = 16 fields": 4 * 16 * field,
        "one chunk of 2 fields, 2 workers": 2 * field,
        "2 threads' padded buffers, pad 2": 2 * 4 * field,
        "2 threads' ufunc buffers for the phase product": 2 * np.getbufsize() * 16,
        "the masks": 5 * field // 2,
        "the overlap and its term": 2 * field,
        "one plane's exp(i*mask) and the product it is made from": 2 * field,
        "small Python objects": 64 * 1024,
    }

    def targets(modes):
        return [superpose(modes, row / 4) for row in dft]

    def design():
        return design_converter(lambda: modes, targets, lambda m: m, planes=5,
                                plane_spacing=5e-3, iterations=2)

    design()  # warm: transfer functions cached, FFT plans made
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        design()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= sum(model.values()), (peak - held, model)


def test_design_built_inputs_hold_no_batch_of_them(monkeypatch):
    # The case of the test above where the caller passes a builder and
    # holds no modes: the design holds the inputs on their supports through
    # the sweeps, so its peak stays inside that test's model, which has no
    # batch of inputs: 5.11 batches measured, and 6.11 with the inputs
    # held dense through the sweeps.
    monkeypatch.setattr(optics, "_fft_workers", lambda: 2)
    grid = GridSpec(96, 96, 15e-6, 810e-9)
    layout = ApertureLayout(16, 100e-6, 300e-6)
    dft = np.exp(2j * np.pi * np.outer(range(16), range(16)) / 16)
    field = 96 * 96 * 16
    model = {
        "P - 1 = 4 backward batches of d = 16 fields": 4 * 16 * field,
        "one chunk of 2 fields, 2 workers": 2 * field,
        "2 threads' padded buffers, pad 2": 2 * 4 * field,
        "2 threads' ufunc buffers for the phase product": 2 * np.getbufsize() * 16,
        "the masks": 5 * field // 2,
        "the overlap and its term": 2 * field,
        "one plane's exp(i*mask) and the product it is made from": 2 * field,
        "small Python objects": 64 * 1024,
    }

    def design():
        return design_converter(lambda: make_aperture_modes(layout, grid),
                                lambda modes: [superpose(modes, row / 4) for row in dft],
                                lambda modes: modes, planes=5, plane_spacing=5e-3, iterations=2)

    design()  # warm: transfer functions cached, FFT plans made
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        design()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= sum(model.values()), (peak - held, model)


def test_inputs_on_their_supports_are_written_back_bit_for_bit():
    grid = GridSpec(48, 40, 15e-6, 810e-9)
    disks = [m.amplitude for m in make_aperture_modes(ApertureLayout(4, 60e-6, 150e-6), grid)]
    signed = np.zeros((48, 40), dtype=complex)
    signed[10, 5], signed[20, 30], signed[30, 7] = complex(-0.0, 0.0), complex(0.0, -0.0), 1j
    corners = np.zeros((48, 40), dtype=complex)
    corners[0, 0], corners[-1, -1] = 1.0, -1.0
    amps = disks + [signed, corners]
    held = optics._on_supports(amps)
    # the boxes: each disk's, the signed zeros' with the 1j, and the whole grid
    assert [entries.shape for _, entries in held] == [(8, 8)] * 4 + [(21, 26), (48, 40)]
    assert held[-1][1] is corners
    out = optics._write_dense(held, np.full((6, 48, 40), complex(np.nan, np.nan)))
    assert np.array_equal(out.view(np.uint64), np.stack(amps).view(np.uint64))


def test_wavefront_match_validates_inputs():
    modes, targets = swap_problem()
    with pytest.raises(InvalidConfigError):
        wavefront_match(modes, targets, planes=0, plane_spacing=1e-3)
    with pytest.raises(InvalidConfigError):
        wavefront_match(modes, targets, planes=2, plane_spacing=1e-3, iterations=0)
    overlapping = [modes[0], superpose([modes[0], modes[1]], [0.8, 0.6])]
    with pytest.raises(InvalidModeSetError):
        wavefront_match(overlapping, targets, planes=2, plane_spacing=1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow in the Gram matrix
def test_modes_whose_gram_matrix_overflows_are_not_orthonormal():
    # Finite fields whose overlaps overflow: the Gram matrix holds inf and
    # inf - inf = NaN, a deviation no tolerance admits.
    grid = GridSpec(8, 8, 1.0, 810e-9)
    amps = np.zeros((2, 8, 8), dtype=complex)
    amps[:, 3, 3:5] = [[1e200, 1e200], [1e200, -1e200]]
    fields = [OpticalField(grid, amp) for amp in amps]
    stack = PhaseMaskStack(grid, np.zeros((1, 8, 8)), 1e-3)
    with pytest.raises(InvalidModeSetError, match="not orthonormal"):
        transfer_matrix(stack, fields, fields)


# --- transfer matrices --------------------------------------------------------------


def test_zero_stack_transfer_is_near_identity():
    modes = make_aperture_modes(DESK_LAYOUT, DESK_GRID)
    planes, spacing = 2, 5e-3
    stack = PhaseMaskStack(DESK_GRID, np.zeros((planes, 96, 64)), spacing)
    outputs = [OpticalField(DESK_GRID, a)
               for a in optics._converter_pass(stack, optics._mode_matrix(modes), 1)]
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
    outs = [optics._converter_pass(stack, m.amplitude[None], 2)[0] for m in modes]

    def inner(bra, ket):
        return np.vdot(bra.amplitude, ket) * DESK_GRID.pitch**2

    want_t = np.array([[inner(o, out) for out in outs] for o in targets])
    want_objective = np.mean([abs(inner(t, out)) ** 2 for t, out in zip(targets, outs)])
    for got, want in zip(optics._converter_pass(stack, optics._mode_matrix(modes), 2), outs):
        assert rel_error(got, want) <= 1e-12
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
    # d=4 modes, P=3 planes, I=2 iterations, in field propagations: 2*d
    # hoisted target propagations, I*(2P-2)*d in the sweeps (planes 1 and
    # 2 in chunks of 2 fields), 2*d finishing the last sweep for the
    # score, and d in each of two composed passes for the propagated
    # detection modes: built and checked before the sweeps, and after them
    monkeypatch.setattr(optics, "_fft_workers", lambda: 2)
    calls = []
    kernel = optics._propagate_into

    def counting(fields, *args, **kwargs):
        calls.append(len(fields))
        return kernel(fields, *args, **kwargs)

    monkeypatch.setattr(optics, "_propagate_into", counting)
    for detection, count in (("propagated", 56), ("disks", 48)):
        calls.clear()
        code = cli.main(TOY_DESIGN + ["--detection", detection, "--out", str(tmp_path)])
        assert code == 0
        passes = 2 + 2 * (2 * 3 - 2) + 2 + 2 * (detection == "propagated")
        assert sum(calls) == passes * 4 == count
        assert sorted(set(calls)) == [2, 4] and calls.count(2) == 2 * 2 * 2


# sha256 of the toy design's stack.mplc, recorded under numpy 2.4 (its
# pocketfft) with the longdouble mask angle; the same on
# numpy's AVX512 and AVX2 kernels.  The masks do not depend on --detection.
TOY_STACK_SHA256 = "8e7b1f18c5345cbe6c46b6a783de92cab92af4a191cbf7a58056e875e9dabdaa"


def test_toy_design_stack_is_golden(tmp_path):
    assert cli.main(TOY_DESIGN + ["--detection", "disks", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "stack.mplc").read_bytes()).hexdigest()
    assert digest == TOY_STACK_SHA256


TOY_GRID = GridSpec(32, 32, 15e-6, 810e-9)  # TOY_DESIGN's geometry, the flags' defaults
TOY_LAYOUT = ApertureLayout(4, 40e-6, 120e-6, "grid")


def toy_problem(detection):
    """TOY_DESIGN's sorter problem with `--detection detection`, built by
    the library: (inputs, targets, detection, intended)."""
    radius = 50e-6 if detection == "disks" else None
    return sorter_problem(TOY_GRID, TOY_LAYOUT, sqrt_mub_pair(4)[0].amplitudes, 3, 5e-3, radius)


def same_fields(got, want):
    return [f.grid for f in got] == [f.grid for f in want] and all(
        a.amplitude.tobytes() == b.amplitude.tobytes() for a, b in zip(got, want, strict=True))


def test_the_cli_views_return_what_the_sorter_problem_builds():
    # The benchmark builds its design's modes and targets through these two.
    args = cli.build_parser().parse_args(TOY_DESIGN)
    grid, layout, modes = cli._design_geometry(args)
    targets, intended = cli._design_targets(args, modes)
    inputs, build_targets, _, want_intended = toy_problem("propagated")
    assert (grid, layout) == (TOY_GRID, TOY_LAYOUT)
    assert same_fields(modes, inputs())
    assert same_fields(targets, build_targets(modes))
    assert intended.tobytes() == want_intended.tobytes()


def test_the_sorter_problem_sorts_its_basis_states_into_their_ports():
    # swap as a unitary: input mode n goes to port d-1-n
    inputs, targets, detection, intended = sorter_problem(
        DESK_GRID, DESK_LAYOUT, np.eye(2)[::-1], 2, 5e-3, detection_radius=50e-6)
    modes = inputs()
    assert same_fields(targets(modes), modes[::-1])
    assert np.array_equal(intended, np.eye(2)[::-1])
    disks = make_aperture_modes(ApertureLayout(2, 50e-6, 300e-6, "line"), DESK_GRID)
    assert same_fields(detection(modes), disks)
    _, _, passes, _ = sorter_problem(DESK_GRID, DESK_LAYOUT, np.eye(2), 2, 5e-3)
    assert same_fields(passes(modes), mask_free_passes(modes, 2, 5e-3))


def rescore(out, detection):
    """The design command's scoring redone from its saved stack with
    `score_converter`, against stepwise detection modes; returns the
    metrics.json text and the objective."""
    inputs, targets, detection_modes, intended = toy_problem(detection)
    modes = inputs()
    stack = load_stack(out / "stack.mplc")
    if detection == "disks":
        outputs = detection_modes(modes)
    else:
        zero = PhaseMaskStack(TOY_GRID, np.zeros((stack.planes, 32, 32)), stack.plane_spacing)
        outputs = [OpticalField(TOY_GRID, a)
                   for a in optics._converter_pass(zero, optics._mode_matrix(modes), 1)]
    transfer, objective = score_converter(stack, modes, outputs, targets(modes))
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


# The paper's d=5 measurement set at toy size: one sorter per basis of
# `mub gen --family wh-all`, in the order mub gen writes them.
MUB5_DESIGN = [
    "optics", "design", "--d", "5", "--arrangement", "line", "--planes", "3",
    "--plane-spacing", "5e-3", "--iterations", "8", "--nx", "48", "--ny", "48",
    "--aperture-radius", "20e-6", "--aperture-spacing", "60e-6", "--quiet",
]


def test_each_of_the_six_d5_mubs_gets_a_sorter(tmp_path):
    fidelities = []
    for i in range(1, 7):
        argv = MUB5_DESIGN + ["--target", f"wh-all:{i}"]
        assert cli.main(argv + ["--out", str(tmp_path / str(i))]) == 0
        inputs, _, _, intended = sorter_problem(
            GridSpec(48, 48, 15e-6, 810e-9), ApertureLayout(5, 20e-6, 60e-6, "line"),
            full_mub_set(5)[i - 1].amplitudes, 3, 5e-3)
        modes = inputs()
        stack = load_stack(tmp_path / str(i) / "stack.mplc")
        fidelities.append(sorter_metrics(transfer_matrix(stack, modes, modes), intended).fidelity)
    assert min(fidelities) > 0.9
    # WH_r = diag(phase) DFT, and the apertures are disjoint, so the first
    # mask absorbs the phase: the five quadratic-phase sorters score alike.
    assert max(fidelities[1:]) - min(fidelities[1:]) <= 1e-12


def test_design_converter_matches_wavefront_match_then_score():
    modes, targets = swap_problem()
    stack, transfer, objective = design_converter(
        lambda: modes, lambda _: targets, lambda m: m, planes=3, plane_spacing=5e-3,
        iterations=4
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
    stepwise = optics._converter_pass(zero, optics._mode_matrix(modes), 1)
    for got, want in zip(mask_free_passes(modes, planes, spacing), stepwise):
        assert rel_error(got.amplitude, want) <= 1e-12


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


def test_metrics_allow_captured_power_within_the_tolerance():
    # the same bound as transfer_matrix: a column may capture 1 + CAPTURED_POWER_TOL
    sorter_metrics(math.sqrt(1 + CAPTURED_POWER_TOL / 2) * np.eye(3))
    with pytest.raises(InvalidInputError, match="exceeds 1"):
        sorter_metrics(math.sqrt(1 + 2 * CAPTURED_POWER_TOL) * np.eye(3))


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
    monkeypatch.setattr(optics, "_propagate_into", lambda *a, **k: calls.append(a))
    for spacing in (-5e-3, 0.0):
        with pytest.raises(InvalidInputError, match="plane spacing"):
            wavefront_match(modes, targets, planes=2, plane_spacing=spacing, iterations=1)
        with pytest.raises(InvalidInputError, match="plane spacing"):
            design_converter(lambda: modes, lambda _: targets, lambda m: m, planes=2,
                             plane_spacing=spacing)
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
