"""Construction and numerical verification of mutually unbiased bases (MUBs).

Two families are provided:

* the full set of d+1 MUBs for prime d, built from the DFT basis by adding
  quadratic phases (Wootters-Fields construction), and
* a pair of MUBs for perfect-square d whose states are superpositions of
  only sqrt(d) computational modes: sqrt(d)-point DFTs applied along the
  rows or columns of a sqrt(d)-by-sqrt(d) grid of modes.

All state and basis indices in the public API are 1-based.  Amplitude
matrices store state j in column j, expressed in the computational basis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidBasisIndexError, InvalidDimensionError, InvalidInputError, is_count,
                     write_json)

UNITARITY_TOL = 1e-12
UNBIASED_TOL = 1e-10


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def unitarity_deviation(amplitudes: np.ndarray) -> float:
    """Max entry-wise deviation of B†B from the identity."""
    d = amplitudes.shape[0]
    gram = amplitudes.conj().T @ amplitudes
    return float(np.abs(gram - np.eye(d)).max())


def amplitude_matrix(dim: int, values) -> np.ndarray:
    """values as a finite complex dim x dim array; raises InvalidInputError
    for anything that is not an array of numbers, any other shape or a
    non-finite entry."""
    try:
        amps = np.asarray(values, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"amplitudes must be numbers: {exc}") from None
    if amps.shape != (dim, dim):
        raise InvalidInputError(f"amplitudes must be {dim}x{dim}, got {amps.shape}")
    if not np.isfinite(amps).all():
        raise InvalidInputError("amplitudes must be finite")
    return amps


@dataclass(frozen=True)
class Basis:
    """A d-dimensional orthonormal basis; column j holds state j.

    Construction validates finite amplitudes and unitarity to 1e-12,
    which also holds every column norm within 1e-12 of 1.
    Instances are immutable and safe to share across threads.
    """

    dim: int
    amplitudes: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidDimensionError(f"dimension must be >= 1, got {self.dim}")
        amps = amplitude_matrix(self.dim, self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        dev = unitarity_deviation(amps)
        if dev > UNITARITY_TOL:
            raise InvalidInputError(
                f"'{self.label}' is not unitary (max deviation {dev:.3e})"
            )

    def conjugate(self) -> "Basis":
        """Entry-wise complex conjugate (the receiver-side 'transposed' basis)."""
        return Basis(self.dim, self.amplitudes.conj(), self.label + "*")

    def save_json(self, path) -> None:
        """The basis file `mub gen` writes and load_basis_json reads."""
        doc = {"dim": self.dim, "label": self.label, "re": self.amplitudes.real.tolist(),
               "im": self.amplitudes.imag.tolist()}
        write_json(path, doc, f"basis {self.label} holds non-finite amplitudes", indent=None)


def load_basis_json(path) -> tuple[int, str, np.ndarray]:
    """The dim, label and amplitude matrix of a file Basis.save_json wrote.
    Anything else raises InvalidInputError naming path.  Unitarity is not
    checked, so that `mub check` can report a file that is not unitary."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not is_count(d := doc["dim"]):
            raise ValueError(f"dim must be an integer >= 1, got {d!r}")
        amps = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
        return d, str(doc.get("label", "")), amplitude_matrix(d, amps)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"cannot read basis file {path}: {exc}") from None


def computational_basis(d: int) -> Basis:
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    return Basis(d, np.eye(d, dtype=np.complex128), "computational")


def _quadratic_phase_basis(d: int, r: int) -> np.ndarray:
    """B[n,k] = w^(s(k-1)(n-1) + (r-2)(n-1)^2) / sqrt(d), w = exp(2*pi*i/m),
    with m = d and s = 1, except at d = 2, where m = 4 and s = 2 so that
    the quadratic phase takes the fourth roots of unity.  The exponent is
    reduced mod m as an integer and indexes one table of the m roots, so
    every entry is a root to rounding at any d."""
    m = 4 if d == 2 else d
    n = np.arange(d)
    exponent = (np.outer((m // d) * n, n) + (r - 2) * (n * n % m)[:, None]) % m
    return np.exp(2j * np.pi * np.arange(m) / m)[exponent] / math.sqrt(d)


def dft_basis(d: int) -> Basis:
    """Discrete Fourier transform basis: B[n,k] = exp(2*pi*i*(k-1)(n-1)/d)/sqrt(d)."""
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    return Basis(d, _quadratic_phase_basis(d, 2), "DFT")


def wh_basis(d: int, r: int) -> Basis:
    """Quadratic-phase MUB number r of a prime dimension d.

    B[n,k] = exp((2*pi*i/d) * [(k-1)(n-1) + (r-2)(n-1)^2]) / sqrt(d)
    for r in 2..d+1; r=2 reproduces the DFT basis exactly.  For d=2 the
    quadratic phase uses the fourth root of unity i**(n-1)^2 instead of
    (-1)**(n-1)^2, giving the standard three-MUB qubit set (the odd-prime
    formula would only permute the DFT basis there).
    """
    if not is_prime(d):
        raise InvalidDimensionError(f"quadratic-phase MUBs need prime d, got {d}")
    if not 2 <= r <= d + 1:
        raise InvalidBasisIndexError(f"basis index r={r} outside 2..{d + 1}")
    label = "DFT" if r == 2 else f"WH:r={r}"
    return Basis(d, _quadratic_phase_basis(d, r), label)


def full_mub_set(d: int) -> tuple[Basis, ...]:
    """The computational basis plus all d quadratic-phase MUBs of a prime d,
    every pair re-verified unbiased to 1e-10 (InvalidInputError otherwise)."""
    quadratic = [wh_basis(d, r) for r in range(2, d + 2)]  # raises for non-prime d
    bases = (computational_basis(d), *quadratic)
    for i, b1 in enumerate(bases):
        for b2 in bases[i + 1:]:
            ok, dev = check_mub_pair(b1, b2, UNBIASED_TOL)
            if not ok:
                raise InvalidInputError(
                    f"bases '{b1.label}' and '{b2.label}' are not mutually unbiased "
                    f"(max deviation {dev:.3e})"
                )
    return bases


def square_side(d: int) -> int:
    """sqrt(d), the side of the grid of sqrt(d)-mode blocks, for a perfect
    square d >= 4; 0 for any other d."""
    side = math.isqrt(d) if d >= 4 else 0  # d < 4 first: isqrt rejects negatives
    return side if side * side == d else 0


def grid_side(d: int) -> int:
    """square_side(d), raising InvalidDimensionError where that is 0."""
    side = square_side(d)
    if not side:
        raise InvalidDimensionError(f"d={d} is not a perfect square >= 4")
    return side


def mode_grid(side: int) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based grid row and column of each flat mode 0..side^2-1 on a
    side-by-side grid: flat = row*side + col.  The one map of the mode grid
    that the MUB pair, the grid apertures and block noise share."""
    return np.divmod(np.arange(side * side), side)


def sqrt_mub_pair(d: int) -> tuple[Basis, Basis]:
    """Two MUBs whose states mix only sqrt(d) modes each.

    Modes sit on a sqrt(d)-by-sqrt(d) grid (flat = (row-1)*sqrt(d)+col).
    State (a,b) of the first basis applies a sqrt(d)-point DFT along grid
    row a; the second basis applies it along grid column b:

        row-DFT:  (1/d^0.25) * sum_l exp(2*pi*i*(b-1)(l-1)/sqrt(d)) |a,l>
        col-DFT:  (1/d^0.25) * sum_k exp(2*pi*i*(a-1)(k-1)/sqrt(d)) |k,b>

    Any row and column share exactly one mode, so the pair is mutually
    unbiased for every perfect square d >= 4; this is re-verified
    numerically at construction.
    """
    side = grid_side(d)
    scaled = d ** -0.25 * np.exp(2j * np.pi * np.outer(np.arange(side), np.arange(side)) / side)
    # Entry [mode, state] on the grid (row, col) of each; scaled is symmetric.
    row, col = mode_grid(side)
    mub1 = np.where(row[:, None] == row, scaled[col[:, None], col], 0)
    mub2 = np.where(col[:, None] == col, scaled[row[:, None], row], 0)
    b1 = Basis(d, mub1, "row-DFT")
    b2 = Basis(d, mub2, "col-DFT")
    ok, dev = check_mub_pair(b1, b2, UNBIASED_TOL)
    if not ok:
        raise InvalidDimensionError(
            f"row/col DFT pair failed the unbiasedness check at d={d} "
            f"(max deviation {dev:.3e})"
        )
    return b1, b2


def unbiasedness_deviation(a1: np.ndarray, a2: np.ndarray) -> float:
    """Max entry-wise deviation of the squared overlaps |A1†A2|^2 from 1/d."""
    return float(np.abs(np.abs(a1.conj().T @ a2) ** 2 - 1.0 / a1.shape[0]).max())


def check_mub_pair(b1: Basis, b2: Basis, tol: float = UNBIASED_TOL) -> tuple[bool, float]:
    """Whether every squared overlap equals 1/d within tol; also the max deviation."""
    if b1.dim != b2.dim:
        raise InvalidInputError(f"dimension mismatch: {b1.dim} vs {b2.dim}")
    dev = unbiasedness_deviation(b1.amplitudes, b2.amplitudes)
    return dev <= tol, dev
