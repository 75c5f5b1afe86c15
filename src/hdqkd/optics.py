"""Fourier-optics simulation and multi-plane light converter design.

Fields are sampled on a uniform grid; free-space propagation uses the
angular spectrum method with the exact nonparaxial transfer function
exp(i*z*sqrt(k^2 - kx^2 - ky^2)), evanescent components suppressed.
Propagation zero-pads the field 2x by default to suppress periodic
wraparound; pad_factor=1 gives the strictly unitary periodic transform.

A converter is an ordered stack of phase masks separated by a uniform
free-space spacing.  Stacks are designed by wavefront matching: each
plane's phase is repeatedly set to conjugate the summed overlap between
the forward-propagated inputs and the back-propagated targets.

Array convention: amplitude[ix, iy] with x = (ix - nx//2) * pitch and
y = (iy - ny//2) * pitch, both in meters.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateTransferError,
    GeometryError,
    InvalidConfigError,
    InvalidInputError,
    InvalidModeSetError,
    SamplingError,
    check_positive,
    write_json,
)
from .mub import mode_grid

TWO_PI = 2.0 * np.pi

MAGIC = b"MPLC"
FORMAT_STACK = 1
_HEADER = struct.Struct("<4sIIIIddd")  # magic, version, nx, ny, P, pitch, wl, spacing

ORTHOGONALITY_TOL = 1e-6
# A transfer column captures at most 1 + this of its power: output modes
# are only orthonormal to ORTHOGONALITY_TOL.
CAPTURED_POWER_TOL = 1e-6


class EvanescentClippingWarning(UserWarning):
    """Emitted when suppressed evanescent components carried real power."""


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: pixel counts, pixel pitch and wavelength in meters."""

    nx: int
    ny: int
    pitch: float
    wavelength: float

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) and n >= 8 for n in (self.nx, self.ny)):
            raise InvalidInputError(
                f"grid must be at least 8x8 whole pixels, got {self.nx}x{self.ny}"
            )
        check_positive("pitch and wavelength", self.pitch, self.wavelength)

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.nx) - self.nx // 2) * self.pitch

    @property
    def y(self) -> np.ndarray:
        return (np.arange(self.ny) - self.ny // 2) * self.pitch


@dataclass(frozen=True)
class OpticalField:
    """Complex field sampled on a grid."""

    grid: GridSpec
    amplitude: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=np.complex128)
        if amp.shape != (self.grid.nx, self.grid.ny):
            raise GeometryError(
                f"amplitude shape {amp.shape} does not match grid "
                f"{(self.grid.nx, self.grid.ny)}"
            )
        if not np.isfinite(amp).all():
            raise InvalidInputError("field amplitude contains non-finite values")
        object.__setattr__(self, "amplitude", amp)

    @property
    def power(self) -> float:
        return float((np.abs(self.amplitude) ** 2).sum() * self.grid.pitch**2)

    def normalized(self) -> "OpticalField":
        p = self.power
        if p <= 0.0:
            raise InvalidInputError("cannot normalize a zero-power field")
        return OpticalField(self.grid, self.amplitude / math.sqrt(p))


def superpose(fields, coefficients) -> OpticalField:
    """Linear combination sum_m c_m * field_m on a common grid."""
    fields = list(fields)
    if not fields:
        raise InvalidInputError("need at least one field")
    coefficients = np.asarray(coefficients)
    if len(fields) != len(coefficients):
        raise InvalidInputError("need one coefficient per field")
    amp = np.zeros_like(fields[0].amplitude)
    for c, f in zip(coefficients, fields):
        if f.grid != fields[0].grid:
            raise GeometryError("fields live on different grids")
        amp = amp + c * f.amplitude
    return OpticalField(fields[0].grid, amp)


def superpose_rows(fields, coefficients) -> list[OpticalField]:
    """`[superpose(fields, row) for row in coefficients]` for fields on one
    grid and a (K, len(fields)) coefficient array, bit for bit, built in
    one array and only on each field's support.  superpose's sum
    starts at +0 and so never holds -0: the c * 0 terms (+0 or -0) that it
    adds off a field's support change nothing.  On it, the terms are added
    in field order, as superpose adds them where two supports share a pixel."""
    grid = fields[0].grid
    amps = np.zeros((len(coefficients), grid.nx * grid.ny), dtype=np.complex128)
    for m, field in enumerate(fields):
        flat = field.amplitude.ravel()
        support = np.flatnonzero(flat)
        amps[:, support] += coefficients[:, m, None] * flat[support]
    return [OpticalField(grid, amp) for amp in amps.reshape(-1, grid.nx, grid.ny)]


@dataclass(frozen=True)
class ApertureLayout:
    """Non-overlapping circular apertures on a square grid or a line.

    arrangement "grid" places count = side^2 apertures on a side-by-side
    square lattice; flat aperture index (row-1)*side + col matches the
    mode-grid convention used by the square-root MUB pair (rows step
    along y, columns along x).  arrangement "line" places them along x.
    """

    count: int
    radius: float
    spacing: float
    arrangement: str = "grid"

    def __post_init__(self):
        if self.count < 1:
            raise InvalidInputError(f"need at least one aperture, got {self.count}")
        check_positive("radius and spacing", self.radius, self.spacing)
        if self.spacing < 2.0 * self.radius:
            raise GeometryError(
                f"apertures overlap: spacing {self.spacing} < 2*radius {2 * self.radius}"
            )
        if self.arrangement not in ("grid", "line"):
            raise InvalidInputError(f"unknown arrangement '{self.arrangement}'")
        if self.arrangement == "grid" and math.isqrt(self.count) ** 2 != self.count:
            raise InvalidInputError(
                f"grid arrangement needs a square count, got {self.count}"
            )

    def centers(self) -> np.ndarray:
        """(count, 2) array of (x, y) aperture centers, flat-index order."""
        if self.arrangement == "line":
            offs = (np.arange(self.count) - (self.count - 1) / 2.0) * self.spacing
            return np.stack([offs, np.zeros(self.count)], axis=1)
        side = math.isqrt(self.count)
        rows, cols = mode_grid(side)
        x = (cols - (side - 1) / 2.0) * self.spacing
        y = (rows - (side - 1) / 2.0) * self.spacing
        return np.stack([x, y], axis=1)


def make_aperture_modes(layout: ApertureLayout, grid: GridSpec) -> list[OpticalField]:
    """Unit-power uniform disk modes, one per aperture, in flat order.

    Disjoint supports make distinct modes exactly orthogonal.  Raises
    GeometryError unless every aperture fits the grid with a two-pixel
    margin.
    """
    xx = grid.x[:, None]
    yy = grid.y[None, :]
    margin = 2.0 * grid.pitch
    modes = []
    for cx, cy in layout.centers():
        if (
            cx - layout.radius < grid.x[0] + margin
            or cx + layout.radius > grid.x[-1] - margin
            or cy - layout.radius < grid.y[0] + margin
            or cy + layout.radius > grid.y[-1] - margin
        ):
            raise GeometryError(
                f"aperture at ({cx:.2e}, {cy:.2e}) m with radius {layout.radius:.2e} m "
                f"does not fit the {grid.nx}x{grid.ny} grid with a 2-pixel margin"
            )
        disk = ((xx - cx) ** 2 + (yy - cy) ** 2 <= layout.radius**2).astype(np.complex128)
        if not disk.any():
            raise GeometryError(
                f"aperture radius {layout.radius:.2e} m is below the grid pitch"
            )
        modes.append(OpticalField(grid, disk).normalized())
    return modes


def _wrap_phase(phase: np.ndarray) -> np.ndarray:
    """Phases modulo 2pi, in [0, 2pi).  np.mod alone rounds a phase just
    below zero up to exactly 2pi; mapping that to 0 makes the wrap
    idempotent, so a wrapped array is stored unchanged."""
    wrapped = np.mod(phase, TWO_PI)
    wrapped[wrapped == TWO_PI] = 0.0
    return wrapped


def _angle(z: np.ndarray) -> np.ndarray:
    """np.angle(z), as arctan2 in np.longdouble rounded to float64.
    numpy's float64 arctan2 has a kernel per SIMD level, and the AVX512
    one gives other last bits than the AVX2 one; the longdouble one has
    no SIMD kernel.  Where longdouble is float64 this is np.angle."""
    return np.arctan2(z.imag.astype(np.longdouble), z.real.astype(np.longdouble)).astype(float)


@dataclass(frozen=True)
class PhaseMaskStack:
    """Ordered phase masks (radians, wrapped to [0, 2pi)) with uniform spacing."""

    grid: GridSpec
    masks: np.ndarray
    plane_spacing: float

    def __post_init__(self):
        masks = np.asarray(self.masks, dtype=float)
        if masks.ndim != 3 or masks.shape[0] < 1:
            raise InvalidInputError("masks must be a (P, nx, ny) array with P >= 1")
        if masks.shape[1:] != (self.grid.nx, self.grid.ny):
            raise GeometryError(
                f"mask shape {masks.shape[1:]} does not match grid "
                f"{(self.grid.nx, self.grid.ny)}"
            )
        if not np.isfinite(masks).all():
            raise InvalidInputError("masks contain non-finite phases")
        check_positive("plane spacing", self.plane_spacing)
        object.__setattr__(self, "masks", _wrap_phase(masks))

    @property
    def planes(self) -> int:
        return int(self.masks.shape[0])


# ---------------------------------------------------------------------------
# Propagation.


@functools.lru_cache(maxsize=16)
def _transfer_function(
    nx: int, ny: int, pitch: float, wavelength: float, distance: float
) -> tuple[np.ndarray, np.ndarray | None]:
    """exp(i*z*kz) on the propagating band, and the boolean mask of the
    evanescent band (None when every sample propagates)."""
    k = TWO_PI / wavelength
    kx = TWO_PI * np.fft.fftfreq(nx, pitch)[:, None]
    ky = TWO_PI * np.fft.fftfreq(ny, pitch)[None, :]
    kz_sq = k**2 - kx**2 - ky**2
    propagating = kz_sq > 0.0
    kz = np.sqrt(np.where(propagating, kz_sq, 0.0))
    h = np.where(propagating, np.exp(1j * distance * kz), 0.0)
    h.setflags(write=False)
    if propagating.all():
        return h, None
    evanescent = ~propagating
    evanescent.setflags(write=False)
    return h, evanescent


@functools.cache
def _fft_workers() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def max_propagation_distance(grid: GridSpec, pad_factor: int = 2) -> float:
    """Longest distance the padded grid propagates without transfer-function
    aliasing: N * pitch^2 * sqrt(1 - (wavelength/(2*pitch))^2) / wavelength
    per axis, limited by the smaller axis."""
    n = min(grid.nx, grid.ny) * pad_factor
    s = 1.0 - (grid.wavelength / (2.0 * grid.pitch)) ** 2
    if s <= 0.0:
        # The grid resolves the whole propagating band; the Nyquist-based
        # criterion does not constrain the distance.
        return math.inf
    return n * grid.pitch**2 * math.sqrt(s) / grid.wavelength


def _check_sampling(grid: GridSpec, distance: float, pad_factor: int) -> None:
    z_max = max_propagation_distance(grid, pad_factor)
    if abs(distance) > z_max:
        # the bound grows linearly with the grid size
        n_min = math.ceil(abs(distance) / z_max * min(grid.nx, grid.ny))
        raise SamplingError(
            f"distance {abs(distance):.4g} m exceeds the anti-aliasing bound "
            f"{z_max:.4g} m of this grid; increase the grid to at least "
            f"{n_min} pixels per axis (at pad factor {pad_factor}) or enlarge "
            "the pitch"
        )


def _check_kernel(grid: GridSpec, distance: float, pad_factor: int, steps: int) -> None:
    if pad_factor < 1:
        raise InvalidConfigError(f"pad_factor must be >= 1, got {pad_factor}")
    if steps < 1 or (steps > 1 and pad_factor != 1):
        raise InvalidConfigError(f"cannot compose {steps} steps at pad factor {pad_factor}")
    _check_sampling(grid, distance, pad_factor)


def _warn_clipping(clipped: float, total: float) -> None:
    """Warns if the suppressed evanescent components carried more than
    1e-12 of the spectral power, at the first caller outside this module
    however deep in it the propagation ran."""
    if total > 0.0 and clipped / total > 1e-12:
        frame, level = sys._getframe(1), 2
        while frame.f_globals.get("__name__") == __name__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"evanescent components carried {clipped / total:.3e} of the "
            "spectral power and were suppressed",
            EvanescentClippingWarning,
            stacklevel=level,
        )


@functools.cache
def _pool(pid: int):
    """The process's propagation threads: one executor of `_fft_workers()`
    threads, made on first use.  A forked child inherits the parent's
    executor but none of its threads, so the pool is keyed on the pid."""
    # Imported here so that `import hdqkd` does not pay for the executor.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_fft_workers())


def _propagate_into(fields, out, grid, distance, pad_factor, steps, phase):
    """Propagates the checked (nx, ny) fields into `out` on the process's
    pool; returns the clipped evanescent and the total spectral power.
    `out` may be `fields` itself, a C-contiguous complex128 batch: field
    i is copied into its chunk's buffer before out[i] is written, and no
    other thread touches either."""
    from concurrent.futures import wait

    nx, ny = grid.nx, grid.ny
    px, py = nx * pad_factor, ny * pad_factor
    h, evanescent = _transfer_function(px, py, grid.pitch, grid.wavelength, distance)
    n = len(fields)
    k = max(min(_fft_workers(), n), 1)

    def chunk(lo, hi, work):
        """Propagates fields lo..hi-1 into `out` through the padded
        buffer `work`; returns their clipped and total spectral power."""
        rows, window = work[:nx], work[:nx, :ny]
        clipped = total = 0.0
        for i in range(lo, hi):
            work[:nx, ny:] = 0.0
            work[nx:] = 0.0
            if phase is None:
                window[...] = fields[i]
            else:
                np.multiply(fields[i], phase, out=window)
            np.fft.fft(rows, axis=-1, out=rows)
            np.fft.fft(work, axis=-2, out=work)
            if evanescent is not None:
                clipped += float((np.abs(work[evanescent]) ** 2).sum())
                total += float((np.abs(work) ** 2).sum())
            for _ in range(steps):
                work *= h
            np.fft.ifft(work, axis=-2, out=work)
            np.fft.ifft(rows, axis=-1, out=rows)
            out[i] = window
        return clipped, total

    bounds = [n * j // k for j in range(k + 1)]
    buffers = [np.empty((px, py), dtype=np.complex128) for _ in range(k)]
    pool = _pool(os.getpid())
    jobs = [pool.submit(chunk, lo, hi, work)
            for lo, hi, work in zip(bounds[:-1], bounds[1:], buffers)]
    # Every chunk ends before an error is raised, so none is left writing `out`.
    wait(jobs)
    return tuple(sum(p) for p in zip(*(job.result() for job in jobs)))


def _propagate_array(
    amps: np.ndarray,
    grid: GridSpec,
    distance: float,
    pad_factor: int,
    steps: int = 1,
    phases=(None,),
) -> np.ndarray:
    """Angular-spectrum propagation of (..., nx, ny) amplitudes, one
    spacing of `distance` per entry of `phases`: None, or the (nx, ny)
    exp(i*mask) of the plane crossed before that spacing.  Each spacing
    warns if it clipped.  The first writes a new C-contiguous array of
    the window's size, and the later ones write over it in place.

    The field is zero-padded after the window rather than around it,
    which by translation invariance gives the same result to rounding.
    All transforms run in place in one padded buffer: along y over the
    nx nonzero rows only, and the padding rows are dropped before the
    inverse transform along y.

    The fields are split into one contiguous chunk per core.  Each
    chunk runs on a thread of the process's pool and carries its fields
    one at a time through a padded buffer of its own, made for the call
    and reused for every field, with numpy.fft's single-threaded
    transforms.  A field's arithmetic does not depend on its chunk, so
    the result is bit-identical to a serial pass.

    `steps` > 1 propagates `steps` times by `distance` in one transform,
    multiplying the spectrum by the per-step transfer function once per
    step.  Only the periodic transform (pad_factor 1) composes so: with
    padding, every step crops to the window.
    """
    _check_kernel(grid, distance, pad_factor, steps)
    nx, ny = grid.nx, grid.ny
    if np.shape(amps)[-2:] != (nx, ny):
        raise GeometryError(f"amplitudes of shape {np.shape(amps)} do not match the grid")
    fields = np.reshape(amps, (-1, nx, ny))
    out = np.empty(fields.shape, dtype=np.complex128)
    for phase in phases:
        _warn_clipping(*_propagate_into(fields, out, grid, distance, pad_factor, steps, phase))
        fields = out
    return out.reshape(np.shape(amps)[:-2] + (nx, ny))


def propagate(field: OpticalField, distance: float, pad_factor: int = 2) -> OpticalField:
    """Free-space propagation by `distance` (negative reverses direction).

    pad_factor=2 (default) zero-pads the window to suppress periodic
    wraparound; pad_factor=1 applies the exact periodic transform, which
    is strictly unitary and satisfies the semigroup and inversion
    identities to machine precision.
    """
    return OpticalField(
        field.grid, _propagate_array(field.amplitude, field.grid, distance, pad_factor)
    )


def _converter_pass(stack: PhaseMaskStack, amps, pad_factor: int, first: int = 0) -> np.ndarray:
    """(count, nx, ny) amplitudes sent through the converter from just
    before mask `first` (0-based) as one batch: mask p then one plane
    spacing, for every plane from `first` on, then one final spacing to
    the detection plane.  An all-zero stack therefore reduces to free
    propagation over (planes + 1) spacings.  Each exp(i*mask) is made
    when its plane is reached."""
    phases = itertools.chain((np.exp(1j * mask) for mask in stack.masks[first:]), [None])
    return _propagate_array(amps, stack.grid, stack.plane_spacing, pad_factor, phases=phases)


def mask_free_passes(fields, planes: int, plane_spacing: float) -> list[OpticalField]:
    """The fields sent through a converter of `planes` all-zero masks with
    the periodic transform: `_converter_pass(zero_stack, amps, 1)` to
    rounding.  The periodic kernel composes, so the planes + 1 spacings
    are one forward transform, the spectrum multiplied once per spacing,
    and one inverse transform."""
    fields = list(fields)
    amps = _mode_matrix(fields)
    grid = fields[0].grid
    outs = _propagate_array(amps, grid, plane_spacing, 1, steps=planes + 1)
    return [OpticalField(grid, amp) for amp in outs]


def _mode_matrix(fields, grid: GridSpec | None = None) -> np.ndarray:
    """(count, nx, ny) amplitudes of fields that share one grid."""
    fields = list(fields)
    if not fields:
        raise InvalidInputError("need at least one field")
    grid = grid or fields[0].grid
    if any(f.grid != grid for f in fields):
        raise GeometryError("fields live on different grids")
    return np.stack([f.amplitude for f in fields])


def _on_supports(amps) -> list:
    """Each (nx, ny) field of `amps` as (box, entries): the pair of slices
    that bounds its entries whose bits are not +0.0, and the field on it.
    A box that covers the whole grid keeps the field itself, uncopied."""
    held = []
    for amp in amps:
        live = (amp != 0) | np.signbit(amp.real) | np.signbit(amp.imag)
        rows, cols = np.flatnonzero(live.any(axis=1)), np.flatnonzero(live.any(axis=0))
        box = (slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)
               ) if rows.size else (slice(0, 0), slice(0, 0))
        entries = amp[box]
        held.append((box, amp if entries.shape == amp.shape else entries.copy()))
    return held


def _write_dense(held, out):
    """Writes the fields that `_on_supports` holds into the (nx, ny) arrays
    of `out`, one each, bit for bit: +0.0 off each box.  Returns out."""
    for (box, entries), field in zip(held, out):
        field[...] = 0.0
        field[box] = entries
    return out


def _check_orthonormal(fields, what: str, grid: GridSpec | None = None) -> np.ndarray:
    """`_mode_matrix(fields, grid)`, checked to be orthonormal."""
    fields = list(fields)
    mat = _mode_matrix(fields, grid)
    flat = mat.reshape(len(fields), -1)
    gram = flat.conj() @ flat.T * fields[0].grid.pitch ** 2
    dev = np.abs(gram - np.eye(len(fields))).max()
    if not dev <= ORTHOGONALITY_TOL:  # an overflowed Gram matrix gives NaN
        raise InvalidModeSetError(f"{what} are not orthonormal (max Gram deviation {dev:.3e})")
    return mat


def wavefront_match(
    inputs,
    targets,
    planes: int,
    plane_spacing: float,
    iterations: int = 30,
    pad_factor: int = 2,
) -> PhaseMaskStack:
    """Design converter masks mapping each input mode to its target mode.

    Each iteration sweeps the planes in order.  At plane p the forward
    fields (inputs propagated through planes 1..p-1 with the current
    masks) are compared against the backward fields (targets propagated
    back from the detection plane through planes P..p+1), and the mask is
    set to

        phase_p = -arg( sum_modes forward_p * conj(backward_p) )

    pointwise.  The procedure is deterministic: identical inputs produce
    bit-identical stacks.
    """
    stack, _, _ = _wavefront_sweeps(
        list(inputs), lambda _: targets, planes, plane_spacing, iterations, pad_factor
    )
    return stack


def _wavefront_sweeps(inputs: list, targets, planes, plane_spacing, iterations, pad_factor):
    """`wavefront_match`'s stack for the input modes `inputs` and the target
    modes that `targets(inputs)` returns, the (count, nx, ny) input fields
    of its last forward sweep just before the last plane, and the inputs
    as `_on_supports` holds them.  The stack holds exactly the masks the
    sweep applied, so those fields are the converter pass of the stack
    up to that plane.  The targets are read once, before the sweeps, and
    not kept while they run.  Nor are the inputs: once the targets are
    built, the list `inputs` is emptied, and the sweeps write each input
    back dense only where they read it, at planes 1 and 2."""
    if planes < 1 or iterations < 1:
        raise InvalidConfigError("planes and iterations must both be >= 1")
    check_positive("plane spacing", plane_spacing)
    _check_orthonormal(inputs, "input modes")
    grid = inputs[0].grid
    _check_kernel(grid, plane_spacing, pad_factor, 1)
    last = _check_orthonormal(targets(inputs), "target modes", grid)
    if len(last) != len(inputs):
        raise InvalidConfigError(
            f"need equally many inputs and targets, got {len(inputs)} and {len(last)}"
        )
    held = _on_supports([m.amplitude for m in inputs])
    inputs.clear()

    # The arrays the sweeps keep are made here: after the dense inputs are
    # freed and before the first batch.  Of the orders measured for the
    # paper's d=25 sorter, this one peaks lowest without each design
    # handing the batches' pages back at its end, for the next design in
    # the process to fault in again.
    masks = np.zeros((planes, grid.nx, grid.ny))
    overlap = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
    term = np.empty_like(overlap)
    # Planes 1 and 2 are streamed through this one chunk of fields.
    chunk = np.empty((min(len(held), _fft_workers()), grid.nx, grid.ny), dtype=np.complex128)

    def fold(f, b):
        """Adds sum_n f[n] * conj(b[n]) to the overlap one (nx, ny) term
        at a time, in mode order as numpy's add.reduce does."""
        for fn, bn in zip(f, b):
            np.multiply(fn, np.conjugate(bn, out=term), out=term)
            np.add(overlap, term, out=overlap)

    def set_mask(p):
        """masks[p] from the overlap folded since the last plane; the
        next plane's overlap starts again from +0."""
        masks[p] = _wrap_phase(-_angle(overlap))
        overlap[...] = 0.0

    def chunks(fields, distance, phase):
        """Yields (lo, hi, fields lo..hi-1 propagated by `distance`),
        len(chunk) of them at a time, each written over the last in
        `chunk`.  `fields` is a batch, or the held inputs, which are
        written dense into `chunk` and propagated in place.  Warns once,
        after the last, as for a whole batch."""
        n, k = len(fields), len(chunk)
        clipped = total = 0.0
        for lo in range(0, n, k):
            hi = min(lo + k, n)
            out = chunk[: hi - lo]
            source = fields[lo:hi]
            if not isinstance(fields, np.ndarray):
                source = _write_dense(source, out)
            powers = _propagate_into(source, out, grid, distance, pad_factor, 1, phase)
            clipped, total = clipped + powers[0], total + powers[1]
            yield lo, hi, out
        _warn_clipping(clipped, total)

    # Targets carried back from the detection plane to just after the
    # last mask: the same in every iteration.
    last = _propagate_array(last, grid, -plane_spacing, pad_factor, phases=[None, None])
    for _ in range(iterations):
        f = None  # the previous sweep's batch, not needed in this backward sweep
        # Backward fields just after masks 2..P, from the current stack.
        # They are kept until their plane is set.
        backward = [None] * planes
        backward[planes - 1] = last
        for p in range(planes - 2, 0, -1):
            backward[p] = _propagate_array(backward[p + 1], grid, -plane_spacing, pad_factor,
                                           phases=[np.exp(-1j * masks[p + 1])])
        # The forward sweep sets each plane before passing through it.
        # Plane 1 reads the inputs, written back dense.
        if planes == 1:
            f = _write_dense(held, np.empty_like(last))
            fold(f, last)
            set_mask(0)
            continue
        # Plane 1's backward fields are made from backward[1] one chunk at
        # a time and folded in mode order; no batch of them is held.  Each
        # input is written into `term`, and each chunk, dropped after its
        # fold, is conjugated in place.
        for lo, hi, b in chunks(backward[1], -plane_spacing, np.exp(-1j * masks[1])):
            for mode, bn in zip(held[lo:hi], b):
                _write_dense([mode], [term])
                np.multiply(term, np.conjugate(bn, out=bn), out=term)
                np.add(overlap, term, out=overlap)
        set_mask(0)
        # Plane 2's forward fields are made from the inputs one chunk at a
        # time, folded, and written over the backward fields they were
        # folded with, unless those are `last`, kept for the next iteration.
        f = backward[1] if planes > 2 else np.empty_like(last)
        for lo, hi, fwd in chunks(held, plane_spacing, np.exp(1j * masks[0])):
            fold(fwd, backward[1][lo:hi])
            f[lo:hi] = fwd
        backward[1] = None
        set_mask(1)
        # Planes 3..P: the sweep's own batch, propagated in place.
        for p in range(2, planes):
            _warn_clipping(*_propagate_into(f, f, grid, plane_spacing, pad_factor, 1,
                                            np.exp(1j * masks[p - 1])))
            fold(f, backward[p])
            backward[p] = None
            set_mask(p)
    return PhaseMaskStack(grid, masks, plane_spacing), f, held


def sorter_problem(grid: GridSpec, layout: ApertureLayout, unitary, planes: int,
                   plane_spacing: float, detection_radius: float | None = None):
    """The sorter of the basis whose states are the columns of `unitary` U,
    as (inputs, targets, detection, intended): the functions that
    `design_converter` takes, and the unitary the sorter is meant to apply.

    inputs() builds the aperture modes of `layout` on `grid`.
    targets(modes) sends input mode n to sum_m conj(U[n, m]) * port_m, port
    m being input mode m, so that basis state m ends up in port m; so
    intended is U^H.  detection(modes) builds the detection modes: disks of
    `detection_radius` on the apertures' centres, or without a radius the
    modes carried mask-free through the `planes` planes."""
    rows = np.conj(unitary)

    def detection(modes):
        if detection_radius is None:
            return mask_free_passes(modes, planes, plane_spacing)
        return make_aperture_modes(replace(layout, radius=detection_radius), grid)

    return (functools.partial(make_aperture_modes, layout, grid),
            functools.partial(superpose_rows, coefficients=rows), detection, rows.T)


def design_converter(
    inputs,
    targets,
    output_modes,
    planes: int,
    plane_spacing: float,
    iterations: int = 30,
    pad_factor: int = 2,
) -> tuple[PhaseMaskStack, np.ndarray, float]:
    """`wavefront_match(modes, targets(modes), ...)` and the designed
    stack's `score_converter(stack, modes, output_modes(modes),
    targets(modes))` for modes = inputs(), bit for bit.

    The last forward sweep has already carried the inputs through masks
    1..P-1, so the score finishes that pass from mask P rather than
    making a converter pass of its own.

    `inputs`, `targets` and `output_modes` are functions: inputs()
    builds the input modes, once, and the other two build the target and
    the output modes from them.  The sweeps hold the inputs on their
    supports (`_on_supports`) and write them back dense where they read
    them, and they are written back once more after the sweeps for the
    other two.  The sweeps read the targets only before they start, and
    the output modes only score the design.  So each of those is built
    and checked before the sweeps, dropped while they run, and built
    again after them.
    """
    modes = list(inputs())
    _check_orthonormal(output_modes(modes), "output modes")
    stack, outs, held = _wavefront_sweeps(
        modes, targets, planes, plane_spacing, iterations, pad_factor
    )
    outs = _converter_pass(stack, outs, pad_factor, first=planes - 1)
    grid = stack.grid
    dense = _write_dense(held, np.empty((len(held), grid.nx, grid.ny), dtype=np.complex128))
    modes = [OpticalField(grid, amp) for amp in dense]
    detection = _check_orthonormal(output_modes(modes), "output modes", grid)
    transfer = _transfer_from_outputs(outs, detection, grid)
    del detection  # not held while the targets are built
    return stack, transfer, _objective_from_outputs(outs, targets(modes), grid)


def _transfer_from_outputs(outs: np.ndarray, modes: np.ndarray, grid: GridSpec) -> np.ndarray:
    """T[i, j] = <modes[i] | outs[j]>, checked to be passive."""
    modes_flat = modes.reshape(len(modes), -1)
    return _check_passive(modes_flat.conj() @ outs.reshape(len(outs), -1).T * grid.pitch**2)


def _check_passive(t: np.ndarray) -> np.ndarray:
    """t, unless it holds a non-finite entry or a column captures more
    than 1 + CAPTURED_POWER_TOL."""
    col_power = (np.abs(t) ** 2).sum(axis=0)
    if not np.isfinite(col_power).all():
        raise InvalidInputError("transfer matrix holds non-finite values")
    if col_power.size and col_power.max() > 1.0 + CAPTURED_POWER_TOL:
        raise InvalidInputError(f"transfer column captured power {col_power.max():.9f} exceeds 1")
    return t


def _objective_from_outputs(outs: np.ndarray, targets, grid: GridSpec) -> float:
    """Mean over modes n of |<target_n | outs[n]>|^2."""
    tgt = _mode_matrix(targets, grid)
    if len(tgt) != len(outs):
        raise InvalidInputError(
            f"need one target per input, got {len(tgt)} for {len(outs)}"
        )
    # tgt is a new stack, so conjugating it in place costs no second batch
    overlaps = np.einsum("nxy,nxy->n", np.conjugate(tgt, out=tgt), outs) * grid.pitch**2
    return float(np.mean(np.abs(overlaps) ** 2))


def matching_objective(
    stack: PhaseMaskStack, inputs, targets, pad_factor: int = 2
) -> float:
    """Mean squared overlap between converter outputs and their targets."""
    outs = _converter_pass(stack, _mode_matrix(inputs, stack.grid), pad_factor)
    return _objective_from_outputs(outs, targets, stack.grid)


def transfer_matrix(
    stack: PhaseMaskStack, inputs, output_modes, pad_factor: int = 2
) -> np.ndarray:
    """T[i, j] = <output_mode_i | converter(input_j)>.

    Output modes must be mutually orthonormal so column power measures
    captured power (<= 1 for any passive stack).
    """
    modes = _check_orthonormal(output_modes, "output modes", stack.grid)
    outs = _converter_pass(stack, _mode_matrix(inputs, stack.grid), pad_factor)
    return _transfer_from_outputs(outs, modes, stack.grid)


def score_converter(
    stack: PhaseMaskStack, inputs, output_modes, targets, pad_factor: int = 2
) -> tuple[np.ndarray, float]:
    """`transfer_matrix(stack, inputs, output_modes)` and
    `matching_objective(stack, inputs, targets)` from one shared pass."""
    modes = _check_orthonormal(output_modes, "output modes", stack.grid)
    outs = _converter_pass(stack, _mode_matrix(inputs, stack.grid), pad_factor)
    return (
        _transfer_from_outputs(outs, modes, stack.grid),
        _objective_from_outputs(outs, targets, stack.grid),
    )


@dataclass(frozen=True)
class SorterMetrics:
    """Quality summary of a mode-sorter transfer matrix."""

    transfer: np.ndarray
    fidelity: float
    mean_crosstalk: float
    insertion_loss_db: float

    def __post_init__(self):
        t = _check_passive(np.asarray(self.transfer, dtype=np.complex128))
        object.__setattr__(self, "transfer", t)

    def save_json(self, path) -> None:
        doc = {
            "fidelity": self.fidelity,
            "mean_crosstalk": self.mean_crosstalk,
            "insertion_loss_db": self.insertion_loss_db,
            "transfer_re": self.transfer.real.tolist(),
            "transfer_im": self.transfer.imag.tolist(),
        }
        write_json(path, doc, "sorter metrics hold non-finite values")


def sorter_metrics(transfer: np.ndarray, intended: np.ndarray | None = None) -> SorterMetrics:
    """Fidelity, crosstalk and insertion loss of a transfer matrix.

    fidelity = |trace(U^dagger T)|^2 / (d * total captured power) against
    the intended unitary U (identity by default); crosstalk averages the
    off-diagonal share of each column's captured power after composing
    with U^dagger; insertion loss is -10*log10(mean column captured power).
    A transfer with a non-finite entry is rejected before anything is
    computed, so the metrics are finite.
    """
    t = _check_passive(np.asarray(transfer, dtype=np.complex128))
    d = t.shape[0]
    if t.shape != (d, d):
        raise InvalidInputError(f"transfer matrix must be square, got {t.shape}")
    u = np.eye(d, dtype=np.complex128) if intended is None else np.asarray(intended)
    if u.shape != (d, d):
        raise InvalidInputError("intended unitary shape does not match the transfer")
    col_power = (np.abs(t) ** 2).sum(axis=0)
    captured = float(col_power.sum())
    if captured <= 0.0:
        raise DegenerateTransferError("transfer matrix captures no power")
    fidelity = float(np.abs(np.trace(u.conj().T @ t)) ** 2 / (d * captured))
    m = u.conj().T @ t
    live = col_power > 0.0
    diag = np.abs(np.diag(m)) ** 2
    crosstalk = float(((col_power[live] - diag[live]) / col_power[live]).mean())
    loss_db = float(-10.0 * math.log10(col_power.mean()))
    return SorterMetrics(t, fidelity, crosstalk, max(loss_db, 0.0))


# ---------------------------------------------------------------------------
# Binary container (little-endian): header then float64 payload, the P
# planes of nx*ny phases, row-major.


def save_stack(stack: PhaseMaskStack, path) -> None:
    g = stack.grid
    header = _HEADER.pack(
        MAGIC, FORMAT_STACK, g.nx, g.ny, stack.planes, g.pitch, g.wavelength,
        stack.plane_spacing,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(stack.masks, dtype="<f8").tobytes())


def load_stack(path) -> PhaseMaskStack:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise InvalidInputError(f"{path}: truncated header")
        magic, version, nx, ny, planes, pitch, wavelength, spacing = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise InvalidInputError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_STACK:
            raise InvalidInputError(f"{path}: not a phase-mask container")
        raw = fh.read()
    if len(raw) != 8 * planes * nx * ny:
        raise InvalidInputError(
            f"{path}: payload of {len(raw)} bytes, header implies {8 * planes * nx * ny}"
        )
    masks = np.frombuffer(raw, dtype="<f8").reshape(planes, nx, ny).copy()
    try:  # the payload has the header's length, so what these reject is in the file
        return PhaseMaskStack(GridSpec(nx, ny, pitch, wavelength), masks, spacing)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def save_mask_pgm(stack: PhaseMaskStack, plane: int, path) -> None:
    """Dump one mask as a 16-bit PGM, phase mapped linearly 0..2pi -> 0..65535."""
    if not 1 <= plane <= stack.planes:
        raise InvalidInputError(f"plane {plane} outside 1..{stack.planes}")
    mask = stack.masks[plane - 1]
    levels = np.round(mask / TWO_PI * 65535.0).astype(">u2")
    # PGM raster is row-major with width first; our axis 0 is x.
    with open(path, "wb") as fh:
        fh.write(f"P5\n{stack.grid.nx} {stack.grid.ny}\n65535\n".encode())
        fh.write(np.ascontiguousarray(levels.T).tobytes())
