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
import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTransferError,
    GeometryError,
    InvalidConfigError,
    InvalidInputError,
    InvalidModeSetError,
    SamplingError,
)

TWO_PI = 2.0 * np.pi

MAGIC = b"MPLC"
FORMAT_STACK = 1
_HEADER = struct.Struct("<4sIIIIddd")  # magic, version, nx, ny, P, pitch, wl, spacing

ORTHOGONALITY_TOL = 1e-6


class EvanescentClippingWarning(UserWarning):
    """Emitted when suppressed evanescent components carried real power."""


def _check_positive(what: str, *values: float) -> None:
    if not all(0.0 < v < math.inf for v in values):  # NaN too
        raise InvalidInputError(f"{what} must be finite and > 0")


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
        _check_positive("pitch and wavelength", self.pitch, self.wavelength)

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


def inner(bra: OpticalField, ket: OpticalField) -> complex:
    """<bra|ket> = sum conj(bra) * ket * pitch^2."""
    if bra.grid != ket.grid:
        raise GeometryError("fields live on different grids")
    return complex((bra.amplitude.conj() * ket.amplitude).sum() * bra.grid.pitch**2)


def superpose(fields, coefficients) -> OpticalField:
    """Linear combination sum_m c_m * field_m on a common grid."""
    fields = list(fields)
    coefficients = np.asarray(coefficients)
    if len(fields) != len(coefficients):
        raise InvalidInputError("need one coefficient per field")
    amp = np.zeros_like(fields[0].amplitude)
    for c, f in zip(coefficients, fields):
        if f.grid != fields[0].grid:
            raise GeometryError("fields live on different grids")
        amp = amp + c * f.amplitude
    return OpticalField(fields[0].grid, amp)


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
        _check_positive("radius and spacing", self.radius, self.spacing)
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
        rows, cols = np.divmod(np.arange(self.count), side)
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
        _check_positive("plane spacing", self.plane_spacing)
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
            f"distance {distance:.4g} m exceeds the anti-aliasing bound "
            f"{z_max:.4g} m of this grid; increase the grid to at least "
            f"{n_min} pixels per axis (at pad factor {pad_factor}) or enlarge "
            "the pitch"
        )


def _propagate_array(
    amps: np.ndarray,
    grid: GridSpec,
    distance: float,
    pad_factor: int,
    steps: int = 1,
    phase: np.ndarray | None = None,
) -> np.ndarray:
    """Angular-spectrum propagation of (..., nx, ny) amplitudes.

    The field is zero-padded after the window rather than around it,
    which by translation invariance gives the same result to rounding.
    All transforms run in place in one padded buffer: along y over the
    nx nonzero rows only, and the padding rows are dropped before the
    inverse transform along y.  Returns a new C-contiguous array of the
    window's size.

    The fields are split into one contiguous chunk per core.  Each
    chunk runs on a thread of its own, which carries its fields one at a
    time through a single padded buffer, reused for every field; a
    single field gets every core for its transforms.  A field's
    arithmetic does not depend on its chunk, so the result is
    bit-identical to a serial pass.

    `phase` (nx, ny), when given, multiplies every field before it is
    propagated: the exp(i*mask) of the plane the fields just crossed.

    `steps` > 1 propagates `steps` times by `distance` in one transform,
    multiplying the spectrum by the per-step transfer function once per
    step.  Only the periodic transform (pad_factor 1) composes so: with
    padding, every step crops to the window.
    """
    # Imported here so that `import hdqkd` pays for neither scipy nor
    # the executor.
    from concurrent.futures import ThreadPoolExecutor

    import scipy.fft

    if pad_factor < 1:
        raise InvalidConfigError(f"pad_factor must be >= 1, got {pad_factor}")
    if steps < 1 or (steps > 1 and pad_factor != 1):
        raise InvalidConfigError(f"cannot compose {steps} steps at pad factor {pad_factor}")
    _check_sampling(grid, distance, pad_factor)
    nx, ny = grid.nx, grid.ny
    if np.shape(amps)[-2:] != (nx, ny):
        raise GeometryError(f"amplitudes of shape {np.shape(amps)} do not match the grid")
    px, py = nx * pad_factor, ny * pad_factor
    h, evanescent = _transfer_function(px, py, grid.pitch, grid.wavelength, distance)
    fields = np.reshape(amps, (-1, nx, ny))
    n = len(fields)
    out = np.empty((n, nx, ny), dtype=np.complex128)
    k = max(min(_fft_workers(), n), 1)
    workers = _fft_workers() // k
    fft = functools.partial(scipy.fft.fft, overwrite_x=True, workers=workers)
    ifft = functools.partial(scipy.fft.ifft, overwrite_x=True, workers=workers)

    def in_place(transform, view, axis):
        result = transform(view, axis=axis)
        if not np.may_share_memory(result, view):  # scipy transformed out of place
            view[...] = result

    def chunk(lo, hi):
        """Propagates fields lo..hi-1 into `out`; returns the clipped
        evanescent and the total spectral power."""
        work = np.empty((px, py), dtype=np.complex128)
        window = work[:nx, :ny]
        clipped = total = 0.0
        for i in range(lo, hi):
            work[:nx, ny:] = 0.0
            work[nx:] = 0.0
            if phase is None:
                window[...] = fields[i]
            else:
                np.multiply(fields[i], phase, out=window)
            in_place(fft, work[:nx], -1)
            in_place(fft, work, -2)
            if evanescent is not None:
                clipped += float((np.abs(work[evanescent]) ** 2).sum())
                total += float((np.abs(work) ** 2).sum())
            for _ in range(steps):
                work *= h
            in_place(ifft, work, -2)
            in_place(ifft, work[:nx], -1)
            out[i] = window
        return clipped, total

    bounds = [n * j // k for j in range(k + 1)]
    with ThreadPoolExecutor(k) as pool:
        powers = list(pool.map(chunk, bounds[:-1], bounds[1:]))
    clipped, total = (sum(p) for p in zip(*powers))
    if total > 0.0 and clipped / total > 1e-12:
        warnings.warn(
            f"evanescent components carried {clipped / total:.3e} of the "
            "spectral power and were suppressed",
            EvanescentClippingWarning,
            stacklevel=3,
        )
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


def apply_mask(field: OpticalField, mask, plane: int | None = None) -> OpticalField:
    """Multiply by exp(i*phase); power is preserved exactly.

    `mask` is a phase array or a PhaseMaskStack, in which case `plane`
    selects the mask (1-based).
    """
    if isinstance(mask, PhaseMaskStack):
        if plane is None:
            raise InvalidInputError("selecting from a stack needs a plane index")
        if not 1 <= plane <= mask.planes:
            raise InvalidInputError(f"plane {plane} outside 1..{mask.planes}")
        phase = mask.masks[plane - 1]
    else:
        phase = np.asarray(mask, dtype=float)
    if phase.shape != field.amplitude.shape:
        raise GeometryError(
            f"mask shape {phase.shape} does not match field {field.amplitude.shape}"
        )
    return OpticalField(field.grid, field.amplitude * np.exp(1j * phase))


def _converter_pass(stack: PhaseMaskStack, fields, pad_factor: int) -> np.ndarray:
    """(count, nx, ny) amplitudes of the fields sent through the converter
    as one batch: mask p then one plane spacing, for every plane, then
    one final spacing to the detection plane."""
    amps = _mode_matrix(fields, stack.grid)
    for p in range(stack.planes):
        amps = _propagate_array(
            amps, stack.grid, stack.plane_spacing, pad_factor,
            phase=np.exp(1j * stack.masks[p]),
        )
    return _propagate_array(amps, stack.grid, stack.plane_spacing, pad_factor)


def forward_pass(
    stack: PhaseMaskStack, field: OpticalField, pad_factor: int = 2
) -> OpticalField:
    """Send a field through the converter to the detection plane.

    Applies mask p then propagates one plane spacing, for every plane,
    followed by one final spacing to the detection plane; an all-zero
    stack therefore reduces to free propagation over
    (planes + 1) * plane_spacing.
    """
    (out,) = _converter_pass(stack, [field], pad_factor)
    return OpticalField(stack.grid, out)


def mask_free_passes(fields, planes: int, plane_spacing: float) -> list[OpticalField]:
    """The fields sent through a converter of `planes` all-zero masks with
    the periodic transform: `forward_pass(zero_stack, field, pad_factor=1)`
    of each field to rounding.  The periodic kernel composes, so the
    planes + 1 spacings are one forward transform, the spectrum
    multiplied once per spacing, and one inverse transform."""
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


def _check_orthonormal(fields, what: str) -> None:
    mat = _mode_matrix(fields)
    pitch2 = fields[0].grid.pitch ** 2
    flat = mat.reshape(len(fields), -1)
    gram = flat.conj() @ flat.T * pitch2
    dev = np.abs(gram - np.eye(len(fields))).max()
    if dev > ORTHOGONALITY_TOL:
        raise InvalidModeSetError(f"{what} are not orthonormal (max Gram deviation {dev:.3e})")


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
    stack, _ = _wavefront_sweeps(
        inputs, targets, planes, plane_spacing, iterations, pad_factor
    )
    return stack


def _wavefront_sweeps(inputs, targets, planes, plane_spacing, iterations, pad_factor):
    """`wavefront_match`'s stack, and the (count, nx, ny) input fields of
    its last forward sweep just before the last plane.  The stack holds
    exactly the masks the sweep applied, so those fields are the
    converter pass of the stack up to that plane."""
    inputs = list(inputs)
    targets = list(targets)
    if planes < 1 or iterations < 1:
        raise InvalidConfigError("planes and iterations must both be >= 1")
    _check_positive("plane spacing", plane_spacing)
    if len(inputs) != len(targets) or not inputs:
        raise InvalidConfigError(
            f"need equally many inputs and targets, got {len(inputs)} and {len(targets)}"
        )
    grid = inputs[0].grid
    for f in inputs + targets:
        if f.grid != grid:
            raise GeometryError("all modes must share one grid")
    _check_orthonormal(inputs, "input modes")
    _check_orthonormal(targets, "target modes")

    fwd0 = _mode_matrix(inputs)  # (d, nx, ny), fields just before plane 1
    masks = np.zeros((planes, grid.nx, grid.ny))

    def back(a, phase=None):
        return _propagate_array(a, grid, -plane_spacing, pad_factor, phase=phase)

    def fwd(a, phase):
        return _propagate_array(a, grid, plane_spacing, pad_factor, phase=phase)

    # Targets carried back from the detection plane to just after the
    # last mask: the same in every iteration.
    last = back(back(_mode_matrix(targets)))
    for _ in range(iterations):
        # Backward fields just after each mask, from the current stack.
        backward = [None] * planes
        b = backward[planes - 1] = last
        for p in range(planes - 2, -1, -1):
            b = back(b, np.exp(-1j * masks[p + 1]))
            backward[p] = b
        # Forward sweep, updating each plane before passing through it.
        f = fwd0
        for p in range(planes):
            overlap = (f * backward[p].conj()).sum(axis=0)
            masks[p] = _wrap_phase(-np.angle(overlap))
            if p < planes - 1:
                f = fwd(f, np.exp(1j * masks[p]))
    return PhaseMaskStack(grid, masks, plane_spacing), f


def design_converter(
    inputs,
    targets,
    output_modes,
    planes: int,
    plane_spacing: float,
    iterations: int = 30,
    pad_factor: int = 2,
) -> tuple[PhaseMaskStack, np.ndarray, float]:
    """`wavefront_match(inputs, targets, ...)` and the designed stack's
    `score_converter(stack, inputs, output_modes, targets)`, bit for bit.

    The last forward sweep has already carried the inputs through masks
    1..P-1, so the score finishes that pass: mask P and two spacings,
    rather than a converter pass of its own.
    """
    output_modes = list(output_modes)
    targets = list(targets)
    _check_orthonormal(output_modes, "output modes")
    stack, outs = _wavefront_sweeps(
        inputs, targets, planes, plane_spacing, iterations, pad_factor
    )
    outs = _propagate_array(
        outs, stack.grid, plane_spacing, pad_factor, phase=np.exp(1j * stack.masks[-1])
    )
    outs = _propagate_array(outs, stack.grid, plane_spacing, pad_factor)
    return (
        stack,
        _transfer_from_outputs(outs, output_modes, stack.grid),
        _objective_from_outputs(outs, targets, stack.grid),
    )


def _transfer_from_outputs(outs: np.ndarray, output_modes, grid: GridSpec) -> np.ndarray:
    """T[i, j] = <output_mode_i | outs[j]>, checked to be passive."""
    modes_flat = _mode_matrix(output_modes, grid).reshape(len(output_modes), -1)
    t = modes_flat.conj() @ outs.reshape(len(outs), -1).T * grid.pitch**2
    col_power = (np.abs(t) ** 2).sum(axis=0)
    if col_power.max() > 1.0 + 1e-6:
        raise InvalidInputError(
            f"transfer column captured power {col_power.max():.9f} exceeds 1"
        )
    return t


def _objective_from_outputs(outs: np.ndarray, targets, grid: GridSpec) -> float:
    """Mean over modes n of |<target_n | outs[n]>|^2."""
    tgt = _mode_matrix(targets, grid)
    if len(tgt) != len(outs):
        raise InvalidInputError(
            f"need one target per input, got {len(tgt)} for {len(outs)}"
        )
    overlaps = np.einsum("nxy,nxy->n", tgt.conj(), outs) * grid.pitch**2
    return float(np.mean(np.abs(overlaps) ** 2))


def matching_objective(
    stack: PhaseMaskStack, inputs, targets, pad_factor: int = 2
) -> float:
    """Mean squared overlap between converter outputs and their targets."""
    outs = _converter_pass(stack, inputs, pad_factor)
    return _objective_from_outputs(outs, targets, stack.grid)


def transfer_matrix(
    stack: PhaseMaskStack, inputs, output_modes, pad_factor: int = 2
) -> np.ndarray:
    """T[i, j] = <output_mode_i | converter(input_j)>.

    Output modes must be mutually orthonormal so column power measures
    captured power (<= 1 for any passive stack).
    """
    output_modes = list(output_modes)
    _check_orthonormal(output_modes, "output modes")
    outs = _converter_pass(stack, inputs, pad_factor)
    return _transfer_from_outputs(outs, output_modes, stack.grid)


def score_converter(
    stack: PhaseMaskStack, inputs, output_modes, targets, pad_factor: int = 2
) -> tuple[np.ndarray, float]:
    """`transfer_matrix(stack, inputs, output_modes)` and
    `matching_objective(stack, inputs, targets)` from one shared pass."""
    output_modes = list(output_modes)
    _check_orthonormal(output_modes, "output modes")
    outs = _converter_pass(stack, inputs, pad_factor)
    return (
        _transfer_from_outputs(outs, output_modes, stack.grid),
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
        t = np.asarray(self.transfer, dtype=np.complex128)
        object.__setattr__(self, "transfer", t)
        col_power = (np.abs(t) ** 2).sum(axis=0)
        if col_power.size and col_power.max() > 1.0 + 1e-9:
            raise InvalidInputError(
                f"transfer column captured power {col_power.max():.9f} exceeds 1"
            )

    def to_dict(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "mean_crosstalk": self.mean_crosstalk,
            "insertion_loss_db": self.insertion_loss_db,
            "transfer_re": self.transfer.real.tolist(),
            "transfer_im": self.transfer.imag.tolist(),
        }

    def save_json(self, path) -> None:
        import json

        try:
            text = json.dumps(self.to_dict(), indent=2, allow_nan=False)
        except ValueError:
            raise InvalidInputError("sorter metrics hold non-finite values") from None
        with open(path, "w") as fh:
            fh.write(text)


def sorter_metrics(transfer: np.ndarray, intended: np.ndarray | None = None) -> SorterMetrics:
    """Fidelity, crosstalk and insertion loss of a transfer matrix.

    fidelity = |trace(U^dagger T)|^2 / (d * total captured power) against
    the intended unitary U (identity by default); crosstalk averages the
    off-diagonal share of each column's captured power after composing
    with U^dagger; insertion loss is -10*log10(mean column captured power).
    """
    t = np.asarray(transfer, dtype=np.complex128)
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
    grid = GridSpec(nx, ny, pitch, wavelength)
    masks = np.frombuffer(raw, dtype="<f8").reshape(planes, nx, ny).copy()
    return PhaseMaskStack(grid, masks, spacing)


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
