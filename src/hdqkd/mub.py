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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidBasisIndexError, InvalidDimensionError, InvalidInputError

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
    for any other shape or a non-finite entry."""
    amps = np.asarray(values, dtype=np.complex128)
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

    def state(self, k: int) -> np.ndarray:
        """Column k (1-based) as a length-d vector."""
        if not 1 <= k <= self.dim:
            raise InvalidInputError(f"state index {k} outside 1..{self.dim}")
        return self.amplitudes[:, k - 1].copy()

    def conjugate(self) -> "Basis":
        """Entry-wise complex conjugate (the receiver-side 'transposed' basis)."""
        return Basis(self.dim, self.amplitudes.conj(), self.label + "*")

    def save_json(self, path) -> None:
        """The basis file `mub gen` writes and `mub check` reads."""
        doc = {"dim": self.dim, "label": self.label, "re": self.amplitudes.real.tolist(),
               "im": self.amplitudes.imag.tolist()}
        try:
            text = json.dumps(doc, allow_nan=False)
        except ValueError:
            raise InvalidInputError(f"basis {self.label} holds non-finite amplitudes") from None
        with open(path, "w") as fh:
            fh.write(text)


def computational_basis(d: int) -> Basis:
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    return Basis(d, np.eye(d, dtype=np.complex128), "computational")


def dft_basis(d: int) -> Basis:
    """Discrete Fourier transform basis: B[n,k] = exp(2*pi*i*(k-1)(n-1)/d)/sqrt(d)."""
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    n = np.arange(d)
    phase = np.outer(n, n) * (2.0 * np.pi / d)
    amps = np.exp(1j * phase) / math.sqrt(d)
    return Basis(d, amps, "DFT")


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
    n = np.arange(d)
    fourier = np.outer(n, n) * (2.0 * np.pi / d)
    if d == 2:
        quad = (np.pi / 2.0) * (r - 2) * (n**2)
    else:
        quad = (2.0 * np.pi / d) * (r - 2) * (n**2)
    amps = np.exp(1j * (fourier + quad[:, None])) / math.sqrt(d)
    label = "DFT" if r == 2 else f"WH:r={r}"
    return Basis(d, amps, label)


@dataclass(frozen=True)
class MubSet:
    """An ordered collection of pairwise mutually unbiased bases.

    The first entry is conventionally the computational basis.  Pairwise
    unbiasedness is verified numerically at construction (tolerance 1e-10
    on every squared overlap).
    """

    dim: int
    bases: tuple = field(default=())

    def __post_init__(self):
        bases = tuple(self.bases)
        object.__setattr__(self, "bases", bases)
        for b in bases:
            if b.dim != self.dim:
                raise InvalidInputError(
                    f"basis '{b.label}' has dim {b.dim}, expected {self.dim}"
                )
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                ok, dev = check_mub_pair(bases[i], bases[j], UNBIASED_TOL)
                if not ok:
                    raise InvalidInputError(
                        f"bases '{bases[i].label}' and '{bases[j].label}' are not "
                        f"mutually unbiased (max deviation {dev:.3e})"
                    )

    def __len__(self) -> int:
        return len(self.bases)

    def __iter__(self):
        return iter(self.bases)


def full_mub_set(d: int) -> MubSet:
    """The computational basis plus all d quadratic-phase MUBs of a prime d."""
    quadratic = [wh_basis(d, r) for r in range(2, d + 2)]  # raises for non-prime d
    return MubSet(d, (computational_basis(d), *quadratic))


def grid_side(d: int) -> int:
    """sqrt(d), the side of the grid of sqrt(d)-mode blocks, for a perfect
    square d >= 4; raises InvalidDimensionError otherwise."""
    if d < 4 or math.isqrt(d) ** 2 != d:  # d < 4 first: isqrt rejects negatives
        raise InvalidDimensionError(f"d={d} is not a perfect square >= 4")
    return math.isqrt(d)


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
    dft = np.exp(2j * np.pi * np.outer(np.arange(side), np.arange(side)) / side)
    scale = d ** -0.25
    mub1 = np.zeros((d, d), dtype=np.complex128)
    mub2 = np.zeros((d, d), dtype=np.complex128)
    for a in range(side):
        for b in range(side):
            col = a * side + b
            # row a of the grid: flat modes a*side + l
            mub1[a * side : (a + 1) * side, col] = scale * dft[b, :]
            # column b of the grid: flat modes k*side + b
            mub2[b::side, col] = scale * dft[a, :]
    b1 = Basis(d, mub1, "row-DFT")
    b2 = Basis(d, mub2, "col-DFT")
    ok, dev = check_mub_pair(b1, b2, UNBIASED_TOL)
    if not ok:
        raise InvalidDimensionError(
            f"row/col DFT pair failed the unbiasedness check at d={d} "
            f"(max deviation {dev:.3e})"
        )
    return b1, b2


def overlap_table(b1: Basis, b2: Basis) -> np.ndarray:
    """Squared overlaps |<b1 state i | b2 state j>|^2 as a d x d table.

    Rows and columns each sum to 1 (doubly stochastic, forced by unitarity).
    """
    if b1.dim != b2.dim:
        raise InvalidInputError(f"dimension mismatch: {b1.dim} vs {b2.dim}")
    return np.abs(b1.amplitudes.conj().T @ b2.amplitudes) ** 2


def unbiasedness_deviation(a1: np.ndarray, a2: np.ndarray) -> float:
    """Max entry-wise deviation of the squared overlaps |A1†A2|^2 from 1/d."""
    return float(np.abs(np.abs(a1.conj().T @ a2) ** 2 - 1.0 / a1.shape[0]).max())


def check_mub_pair(b1: Basis, b2: Basis, tol: float = UNBIASED_TOL) -> tuple[bool, float]:
    """Whether every squared overlap equals 1/d within tol; also the max deviation."""
    if b1.dim != b2.dim:
        raise InvalidInputError(f"dimension mismatch: {b1.dim} vs {b2.dim}")
    dev = unbiasedness_deviation(b1.amplitudes, b2.amplitudes)
    return dev <= tol, dev
