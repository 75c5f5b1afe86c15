"""Entanglement-based QKD measurement statistics and session simulation.

Generates the ideal outcome probabilities of the maximally correlated
pixel-entangled state measured in chosen bases, injects uniform or
block-biased noise into the matched-basis correlations, samples Poisson
coincidence counts, normalizes counts back to probabilities, and
decomposes observed errors into their uniform and in-block parts.

Probability tables hold joint probabilities p(a,b|k,l): Bob outcome a,
Alice outcome (sent state) b, Alice basis k, Bob basis l, all 1-based in
the public API.  Alice's state choice is uniform, so joint entries are
the per-sent-state conditionals divided by d.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidConfigError,
    InvalidInputError,
    InvalidNoiseError,
)
from .mub import grid_side

# Counter-based generator used for every stochastic operation, recorded in
# outputs so any run can be replayed from its seed.
GENERATOR_ID = "numpy-philox4x64"

NORMALIZATION_TOL = 1e-9


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class ProbabilityTable:
    """Joint outcome probabilities p(a,b|k,l), shape (d, d, K, L).

    Axis order: Bob outcome a, Alice sent state b, Alice basis k, Bob
    basis l (0-based internally).  Every (k,l) block sums to 1.
    """

    dim: int
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 4 or probs.shape[0] != self.dim or probs.shape[1] != self.dim:
            raise InvalidInputError(
                f"probs must be (d, d, K, L) with d={self.dim}, got {probs.shape}"
            )
        if not (np.isfinite(probs).all() and probs.min() >= 0.0):
            raise InvalidInputError("probabilities must be finite and >= 0")
        sums = probs.sum(axis=(0, 1))
        if np.abs(sums - 1.0).max() > NORMALIZATION_TOL:
            raise InvalidInputError(
                f"each (k,l) block must sum to 1 "
                f"(max deviation {np.abs(sums - 1.0).max():.3e})"
            )
        object.__setattr__(self, "probs", probs)

    @property
    def bases_alice(self) -> int:
        return self.probs.shape[2]

    @property
    def bases_bob(self) -> int:
        return self.probs.shape[3]


@dataclass(frozen=True)
class CountTable:
    """Coincidence counts c(a,b|k,l) with the acquisition metadata."""

    dim: int
    counts: np.ndarray
    integration_time: float
    coincidence_window: float = 400e-12
    seed: int | None = None
    generator: str = GENERATOR_ID

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 4 or counts.shape[0] != self.dim or counts.shape[1] != self.dim:
            raise InvalidInputError(
                f"counts must be (d, d, K, L) with d={self.dim}, got {counts.shape}"
            )
        if counts.dtype.kind not in "biuf":
            raise InvalidInputError(f"counts must be real numbers, got {counts.dtype}")
        if not (np.isfinite(counts).all() and counts.min() >= 0):
            raise InvalidInputError("counts must be finite and >= 0")
        # The int64 cast would truncate a fraction and wrap a count of
        # 2^63 or more.
        top = counts.max()
        if counts.dtype.kind == "f":
            if not (top < 2.0**63 and (counts == np.trunc(counts)).all()):
                raise InvalidInputError("counts must be integers below 2^63")
        elif top > np.iinfo(np.int64).max:
            raise InvalidInputError("counts must be integers below 2^63")
        object.__setattr__(self, "counts", counts.astype(np.int64))


@dataclass(frozen=True)
class NoiseDecomposition:
    """(E_t, E_u, E_b) with E_u + E_b = E_t by construction.

    block_error may come out slightly negative when the data are
    inconsistent with the block model; it is reported raw and flagged
    rather than silently clamped.
    """

    total_error: float
    uniform_error: float
    block_error: float
    clamped: bool = False

    def __post_init__(self):
        if abs(self.uniform_error + self.block_error - self.total_error) > 1e-9:
            raise InvalidInputError("error components must sum to the total")


def _block_mask(d: int, alignment: str) -> np.ndarray:
    """Boolean (a, b) table: outcome a shares sent state b's grid block."""
    side = grid_side(d)
    flat = np.arange(d)
    if alignment == "row":
        group = flat // side
    elif alignment == "col":
        group = flat % side
    else:
        raise InvalidInputError(f"alignment must be 'row' or 'col', got '{alignment}'")
    return group[:, None] == group[None, :]


def ideal_prob_table(alice_bases, bob_bases) -> ProbabilityTable:
    """Outcome probabilities of the maximally correlated d-mode pair state.

    For the state (1/sqrt(d)) sum_n |n>|n> measured in Alice basis A_k and
    Bob basis B_l (as supplied):

        p(a,b|k,l) = (1/d) * |sum_n conj(A_k[n,b]) * conj(B_l[n,a])|^2

    When Bob's basis is the entry-wise conjugate of Alice's, matched
    settings are perfectly correlated: p(a,b|k,k) = delta_ab / d.
    """
    alice = list(alice_bases)
    bob = list(bob_bases)
    if not alice or not bob:
        raise InvalidInputError("need at least one basis per party")
    d = alice[0].dim
    for basis in alice + bob:
        if basis.dim != d:
            raise InvalidInputError(
                f"basis '{basis.label}' has dim {basis.dim}, expected {d}"
            )
    probs = np.empty((d, d, len(alice), len(bob)))
    for k, a_k in enumerate(alice):
        for l, b_l in enumerate(bob):
            # (A_k^dagger conj(B_l))[b, a] = sum_n conj(A_k[n,b]) conj(B_l[n,a])
            m = a_k.amplitudes.conj().T @ b_l.amplitudes.conj()
            probs[:, :, k, l] = np.abs(m.T) ** 2 / d
    return ProbabilityTable(d, probs)


def total_error(uniform_error: float, block_error: float) -> float:
    """E_t = E_u + E_b.  Raises InvalidNoiseError, naming the bad one,
    unless both components are >= 0 and their total is below 1."""
    for name, value in (("uniform", uniform_error), ("block", block_error)):
        if not value >= 0.0:  # NaN too
            raise InvalidNoiseError(f"{name} error {value} must be >= 0")
    total = uniform_error + block_error
    if not total < 1.0:
        raise InvalidNoiseError(f"total error {total} outside [0, 1)")
    return total


def apply_noise(
    table: ProbabilityTable,
    uniform_error: float,
    block_error: float = 0.0,
    alignments=None,
) -> ProbabilityTable:
    """Overwrite matched-basis settings with the noisy correlation model.

    Given sent state b the outcome conditional becomes: 1 - E_u - E_b on
    b, E_u/(d-1) on every wrong outcome, plus E_b/(sqrt(d)-1) extra on
    the sqrt(d)-1 wrong outcomes inside b's block.  Mismatched settings
    are left untouched.  alignments gives the block orientation ("row" or
    "col") per matched basis index; it defaults to "row" everywhere.
    """
    total = total_error(uniform_error, block_error)
    d = table.dim
    n_matched = min(table.bases_alice, table.bases_bob)
    if block_error > 0.0:
        side = grid_side(d)  # raises InvalidDimensionError for non-square d
    if total == 0.0:
        return table
    if d < 2:
        raise InvalidNoiseError(f"d={d} has no wrong outcome to carry an error")
    if alignments is None:
        alignments = ["row"] * n_matched
    if len(alignments) < n_matched:
        raise InvalidInputError(
            f"need an alignment per matched setting ({n_matched}), got {len(alignments)}"
        )
    probs = table.probs.copy()
    eye = np.eye(d, dtype=bool)
    for k in range(n_matched):
        cond = np.full((d, d), uniform_error / (d - 1))
        np.fill_diagonal(cond, 1.0 - total)
        if block_error > 0.0:
            in_block = _block_mask(d, alignments[k]) & ~eye
            cond[in_block] += block_error / (side - 1)
        probs[:, :, k, k] = cond / d
    return ProbabilityTable(d, probs)


def sample_counts(
    table: ProbabilityTable,
    pair_rate: float,
    time: float,
    accidental_rate: float = 0.0,
    seed: int = 0,
) -> CountTable:
    """Poisson coincidence counts for every setting measured for `time`.

    c(a,b|k,l) ~ Poisson(time * (pair_rate * p(a,b|k,l) + accidental_rate/d^2)):
    true pairs follow the table, accidentals add a flat floor.  Bit-exact
    reproducible from the seed.
    """
    for name, rate in (("pair rate", pair_rate), ("accidental rate", accidental_rate)):
        if not 0.0 <= rate < math.inf:  # NaN too
            raise InvalidInputError(f"{name} {rate} must be finite and >= 0")
    if not 0.0 < time < math.inf:
        raise InvalidInputError(f"integration time {time} must be finite and > 0")
    d = table.dim
    mean = time * (pair_rate * table.probs + accidental_rate / d**2)
    try:
        counts = _rng(seed).poisson(mean)
    except ValueError as exc:  # a mean beyond what numpy can sample
        raise InvalidInputError(f"cannot sample Poisson counts: {exc}") from None
    return CountTable(d, counts, integration_time=time, seed=seed)


def normalize_counts(counts: CountTable) -> ProbabilityTable:
    """Counts -> joint probabilities, normalizing per sent state.

    Conditional p(a|b,k,l) = c(a,b|k,l) / sum_a c(a,b|k,l); the joint
    table applies the uniform 1/d prior over Alice's sent states.
    """
    c = counts.counts.astype(float)
    totals = c.sum(axis=0)  # per (b, k, l)
    zero = np.argwhere(totals == 0)
    if zero.size:
        b, k, l = zero[0]
        raise InsufficientDataError(
            f"no counts for sent state b={b + 1} in setting k={k + 1}, l={l + 1}"
        )
    return ProbabilityTable(counts.dim, c / totals[None, :, :, :] / counts.dim)


def decompose_errors(
    table: ProbabilityTable,
    setting: int = 1,
    alignment: str = "row",
) -> NoiseDecomposition:
    """Split the matched-setting error into uniform and block parts.

    E_t is the total wrong-outcome probability.  The uniform component is
    estimated from the d - sqrt(d) outcomes outside the sent state's
    block, rescaled by (d-1)/(d-sqrt(d)) to account for all d-1 error
    states; the block component is the remainder.
    """
    d = table.dim
    side = grid_side(d)
    if not 1 <= setting <= min(table.bases_alice, table.bases_bob):
        raise InvalidInputError(f"no matched setting {setting} in the table")
    joint = table.probs[:, :, setting - 1, setting - 1]
    total = 1.0 - float(np.trace(joint))  # 1 - sum_a p(a,a|k,k)
    out_of_block = float(joint[~_block_mask(d, alignment)].sum())
    uniform = out_of_block * (d - 1) / (d - side)
    block = total - uniform
    return NoiseDecomposition(total, uniform, block, clamped=block < -1e-9)


@dataclass(frozen=True)
class SessionRecord:
    """Per-round outcomes of a simulated QKD session (1-based symbols)."""

    dim: int
    alice_basis: np.ndarray
    bob_basis: np.ndarray
    alice_symbol: np.ndarray
    bob_symbol: np.ndarray
    seed: int | None

    @property
    def n_rounds(self) -> int:
        return len(self.alice_basis)

    @property
    def sifted(self) -> np.ndarray:
        return self.alice_basis == self.bob_basis

    @property
    def sifted_fraction(self) -> float:
        return float(self.sifted.mean())

    @property
    def qber(self) -> float:
        """Error fraction on sifted rounds; NaN when nothing was sifted."""
        mask = self.sifted
        if not mask.any():
            return float("nan")
        return float((self.alice_symbol[mask] != self.bob_symbol[mask]).mean())

    def save_jsonl(self, path) -> None:
        """One JSON object per round, in the layout README "File formats" gives."""
        with open(path, "wb") as fh:
            for start in range(0, self.n_rounds, _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                fh.write(_session_text(start + 1, self.alice_basis[block], self.bob_basis[block],
                                       self.alice_symbol[block], self.bob_symbol[block]))

    @classmethod
    def load_jsonl(cls, path, dim: int, seed: int | None = None) -> "SessionRecord":
        """Read a file written by save_jsonl.  Any other bytes, or a basis
        index below 1 or a symbol outside 1..dim, raise InvalidInputError
        naming the first bad line.  seed=None records it as unknown."""
        parts, rounds = [], 0
        with open(path, "rb") as fh:
            for line, rows, block in _line_blocks(fh, 1):
                cols = _fields(_numbers(block, _DIGITS, np.int64), rows, 5)[:, 1:]
                bad = _mismatch(block, _session_text(rounds + 1, *cols.T))
                if bad is None:
                    out_of_range = (cols < 1).any(axis=1) | (cols[:, 2:] > dim).any(axis=1)
                    bad = int(out_of_range.argmax()) if out_of_range.any() else None
                if bad is not None:
                    raise InvalidInputError(
                        f"{path} line {line + bad}: not round {rounds + bad + 1} of a "
                        f"dim={dim} session in the save_jsonl layout: {_line_text(block, bad)}"
                    )
                parts.append(cols.T.copy())
                rounds += rows
        k, l, alice, bob = np.concatenate(parts, axis=1) if parts else np.empty((4, 0), np.int64)
        return cls(dim, k, l, alice, bob, seed)


def simulate_session(
    table: ProbabilityTable,
    n_rounds: int,
    seed: int = 0,
) -> SessionRecord:
    """Simulate n_rounds of entanglement-based QKD with independent
    basis choices.

    Alice and Bob each pick one of the table's K bases per round, all
    equally likely; the outcome pair of each round is drawn from the
    table's joint distribution for that setting.
    Deterministic for a fixed seed.
    """
    n_bases = table.bases_alice
    if table.bases_bob != n_bases:
        raise InvalidConfigError(
            f"a session needs as many bases for Bob as for Alice, "
            f"got {table.bases_bob} and {n_bases}"
        )
    if n_rounds < 1:
        raise InvalidConfigError(f"n_rounds must be >= 1, got {n_rounds}")
    d = table.dim

    rng = _rng(seed)
    # choice() draws another stream without p, so the uniform p is explicit.
    basis_probs = np.full(n_bases, 1.0 / n_bases)
    k_arr = rng.choice(n_bases, size=n_rounds, p=basis_probs)
    l_arr = rng.choice(n_bases, size=n_rounds, p=basis_probs)
    # Draw outcomes setting by setting in fixed (k,l) order, rounds in
    # ascending order within a setting, so the result is independent of
    # how rounds happen to interleave.  A stable sort groups the rounds;
    # the narrowest integer type lets numpy use its radix sort.
    setting = (k_arr * n_bases + l_arr).astype(np.min_scalar_type(n_bases * n_bases - 1))
    order = np.argsort(setting, kind="stable")
    flat = np.empty(n_rounds, dtype=np.int64)
    start = 0
    for s, size in enumerate(np.bincount(setting, minlength=n_bases * n_bases).tolist()):
        if size == 0:
            continue
        joint = table.probs[:, :, s // n_bases, s % n_bases].ravel()
        joint = joint / joint.sum()
        flat[order[start:start + size]] = rng.choice(d * d, size=size, p=joint)
        start += size
    bob = flat // d + 1
    alice = flat % d + 1
    return SessionRecord(d, k_arr + 1, l_arr + 1, alice, bob, seed)


# ---------------------------------------------------------------------------
# Text serialization.  The writers render blocks of rows with numpy; the
# readers parse a block of whole lines, render the rows it should hold and
# require the same bytes, so a file is read only in exactly the layout the
# writers produce, and the first differing byte names the bad line.

_BLOCK_ROWS = 1 << 16  # rows per rendered block
_BLOCK_BYTES = 1 << 20  # bytes per read block, extended to a line end

_POW10 = 10 ** np.arange(19, dtype=np.int64)
_FLAGS = np.array([b"false", b"true"]).view(np.uint8).reshape(2, -1)
_CSV_HEADER = b"a,b,k,l,value\r\n"

# Byte map that blanks everything between the numbers a reader parses.
_DIGITS = bytes(c if 0x30 <= c <= 0x39 else 0x20 for c in range(256))


def _digits(values) -> np.ndarray:
    """Decimal digits of non-negative integers as an (n, width) uint8
    array, right-aligned with NUL padding (see _join_cells)."""
    v = np.asarray(values, dtype=np.int64)
    if v.size and v.min() < 0:
        raise InvalidInputError("cannot write negative integers")
    width = len(str(int(v.max()))) if v.size else 1
    out = np.empty((v.size, width), dtype=np.uint8)
    q = v
    for j in range(width - 1, -1, -1):
        q, out[:, j] = np.divmod(q, 10)
    out += ord("0")
    out[:, :-1][v[:, None] < _POW10[width - 1:0:-1]] = 0  # leading zeros
    return out


def _join_cells(cells) -> bytes:
    """Concatenate, row by row, cells that are bytes constants or (n, width)
    uint8 arrays padded with NULs, and return all rows as one bytes object."""
    n = next(len(c) for c in cells if isinstance(c, np.ndarray))
    cells = [np.frombuffer(c, np.uint8) if isinstance(c, bytes) else c for c in cells]
    chars = np.empty((n, sum(c.shape[-1] for c in cells)), dtype=np.uint8)
    at = 0
    for c in cells:
        chars[:, at:at + c.shape[-1]] = c
        at += c.shape[-1]
    return chars[chars != 0].tobytes()


def _session_text(first_round: int, k, l, alice, bob) -> bytes:
    """save_jsonl's lines for consecutive rounds from first_round."""
    k, l = np.asarray(k), np.asarray(l)
    return _join_cells([
        b'{"round": ', _digits(np.arange(first_round, first_round + len(k))),
        b', "k": ', _digits(k), b', "l": ', _digits(l),
        b', "alice": ', _digits(alice), b', "bob": ', _digits(bob),
        b', "sifted": ', _FLAGS[(k == l).astype(np.intp)], b"}\n",
    ])


def _table_text(shape, first_row: int, values: np.ndarray) -> bytes:
    """CSV rows from first_row on of a (d, d, K, L) count table, in file
    order (k, l outer; a, b inner)."""
    d1, d2, nk, nl = shape
    rows = np.arange(first_row, first_row + len(values))
    k, l, a, b = np.unravel_index(rows, (nk, nl, d1, d2))
    return _join_cells([_digits(a + 1), b",", _digits(b + 1), b",", _digits(k + 1), b",",
                        _digits(l + 1), b",", _digits(values), b"\r\n"])


def _line_blocks(fh, first_line: int):
    """(number of its first line, number of line ends, block) for blocks
    of whole lines read from fh."""
    while block := fh.read(_BLOCK_BYTES):
        block += fh.readline()
        ends = block.count(b"\n")
        yield first_line, ends, block
        first_line += ends


def _numbers(block: bytes, keep: bytes, dtype) -> np.ndarray:
    """The numbers in block once `keep` has blanked the bytes between them.
    A line holding something else gives none, so that the byte comparison
    which follows names it."""
    try:
        return np.fromstring(block.translate(keep), dtype=dtype, sep=" ")
    except ValueError:
        if block.count(b"\n") <= 1:
            return np.empty(0, dtype=dtype)
        return np.concatenate([_numbers(line, keep, dtype) for line in block.split(b"\n")])


def _fields(numbers: np.ndarray, rows: int, width: int) -> np.ndarray:
    """numbers as a (rows, width) array, cut or zero-filled to size, so a
    malformed block still renders and its comparison names the bad line."""
    if numbers.size == rows * width:
        return numbers.reshape(rows, width)
    out = np.zeros(rows * width, dtype=numbers.dtype)
    n = min(out.size, numbers.size)
    out[:n] = numbers[:n]
    return out.reshape(rows, width)


def _mismatch(got: bytes, want: bytes) -> int | None:
    """Index of the first line of got that differs from want, or None."""
    if got == want:
        return None
    n = min(len(got), len(want))
    diff = np.flatnonzero(np.frombuffer(got, np.uint8, n) != np.frombuffer(want, np.uint8, n))
    return got.count(b"\n", 0, int(diff[0]) if diff.size else n)


def _line_text(block: bytes, index: int) -> str:
    return repr(block.split(b"\n", index + 1)[index][:120])


def _write_table_csv(path, array: np.ndarray) -> None:
    values = array.transpose(2, 3, 0, 1).ravel()
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        for start in range(0, values.size, _BLOCK_ROWS):
            fh.write(_table_text(array.shape, start, values[start:start + _BLOCK_ROWS]))


def _read_sidecar(path, *keys: str) -> tuple[dict, tuple]:
    """The sidecar of a table CSV, which must hold `keys`, and the
    (d, d, K, L) shape it declares."""
    try:
        with open(path + ".meta.json") as fh:
            meta = json.load(fh)
        shape = tuple(meta[key] for key in ("dim", "dim", "bases_alice", "bases_bob"))
        missing = [key for key in keys if key not in meta]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InvalidInputError(f"cannot read the sidecar of {path}: {exc!r}") from None
    if missing:
        raise InvalidInputError(f"{path}.meta.json lacks {', '.join(missing)}")
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in shape):
        raise InvalidInputError(
            f"{path}.meta.json: dim, bases_alice and bases_bob must be integers >= 1"
        )
    return meta, shape


def _read_table_csv(path, shape) -> np.ndarray:
    """The (d, d, K, L) counts a _write_table_csv file of that shape holds.
    Anything but exactly those rows in that layout raises
    InvalidInputError naming the first bad line."""
    n = math.prod(shape)
    parts, done = [], 0  # nothing sized from the sidecar before the rows bear it out
    with open(path, "rb") as fh:
        header = fh.readline()
        if header != _CSV_HEADER:
            raise InvalidInputError(f"{path} line 1: expected the header a,b,k,l,value, "
                                    f"got {header[:120]!r}")
        for line, ends, block in _line_blocks(fh, 2):
            rows = min(ends, n - done)
            cut = _fields(_numbers(block, _DIGITS, np.int64), rows, 5)[:, 4]
            bad = _mismatch(block, _table_text(shape, done, cut))
            if bad is not None:
                raise InvalidInputError(
                    f"{path} line {line + bad}: {_expected_row(shape, done + bad)}, "
                    f"got {_line_text(block, bad)}"
                )
            parts.append(cut.copy())
            done += rows
    if done < n:
        raise InvalidInputError(f"{path} line {done + 2}: {_expected_row(shape, done)}, "
                                f"got the end of the file")
    d1, d2, nk, nl = shape
    values = np.concatenate(parts).reshape(nk, nl, d1, d2)
    return np.ascontiguousarray(values.transpose(2, 3, 0, 1))


def _expected_row(shape, row: int) -> str:
    d1, d2, nk, nl = shape
    table = f"the dim={d1}, {nk}x{nl}-setting table of the sidecar"
    if row >= math.prod(shape):
        return f"expected the end of {table}"
    k, l, a, b = np.unravel_index(row, (nk, nl, d1, d2))
    return f"expected row {a + 1},{b + 1},{k + 1},{l + 1},<count> of {table}"


def save_counts_csv(counts: CountTable, path) -> None:
    path = str(path)
    sidecar = {
        "dim": counts.dim,
        "bases_alice": counts.counts.shape[2],
        "bases_bob": counts.counts.shape[3],
        "integration_time": counts.integration_time,
        "coincidence_window": counts.coincidence_window,
        "seed": counts.seed,
        "generator": counts.generator,
    }
    try:
        meta = json.dumps(sidecar, indent=2, allow_nan=False)
    except ValueError:
        raise InvalidInputError("counts sidecar holds non-finite values") from None
    _write_table_csv(path, counts.counts)
    with open(path + ".meta.json", "w") as fh:
        fh.write(meta)


def load_counts_csv(path) -> CountTable:
    path = str(path)
    meta, shape = _read_sidecar(path, "integration_time", "coincidence_window", "seed",
                                "generator")
    array = _read_table_csv(path, shape)
    return CountTable(
        meta["dim"],
        array,
        integration_time=meta["integration_time"],
        coincidence_window=meta["coincidence_window"],
        seed=meta["seed"],
        generator=meta["generator"],
    )
