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
    is_count,
    write_json,
)
from .mub import grid_side

# Counter-based generator used for every stochastic operation, recorded in
# outputs so any run can be replayed from its seed.
GENERATOR_ID = "numpy-philox4x64"

NORMALIZATION_TOL = 1e-9


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise InvalidInputError(f"seed {seed} must be >= 0")
    return seed


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_check_seed(seed)))


def _alignments(values, n_matched: int, name: str = "alignments") -> tuple:
    """The block orientation, row or col, of each of n_matched matched settings.
    None gives row,col for two (the row/col-DFT pair), else row for each;
    anything but one row or col per setting raises InvalidInputError."""
    if values is None:
        return ("row", "col") if n_matched == 2 else ("row",) * n_matched
    if not (isinstance(values, (list, tuple)) and len(values) == n_matched
            and all(value in ("row", "col") for value in values)):
        raise InvalidInputError(f"{name} needs one alignment per matched setting "
                                f"({n_matched}), each row or col, got {values!r}")
    return tuple(values)


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
    """Coincidence counts c(a,b|k,l) with the acquisition metadata and the
    block orientation of each matched setting (by default apply_noise's)."""

    dim: int
    counts: np.ndarray
    integration_time: float
    coincidence_window: float = 400e-12
    seed: int | None = None
    generator: str = GENERATOR_ID
    alignments: tuple | None = None

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
        object.__setattr__(self, "alignments", _alignments(self.alignments, min(counts.shape[2:])))


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
    group = flat // side if alignment == "row" else flat % side
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
    bob_conj = np.array([b_l.amplitudes.conj() for b_l in bob])
    for k, a_k in enumerate(alice):
        # m[l, b, a] = (A_k^dagger conj(B_l))[b, a] = sum_n conj(A_k[n,b]) conj(B_l[n,a]),
        # one (L, d, d) product per Alice basis
        m = a_k.amplitudes.conj().T @ bob_conj
        probs[:, :, k, :] = (np.abs(m) ** 2 / d).transpose(2, 1, 0)
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
    "col") per matched basis index (default: row,col for two, else row).
    """
    total = total_error(uniform_error, block_error)
    d = table.dim
    alignments = _alignments(alignments, min(table.bases_alice, table.bases_bob))
    if block_error > 0.0:
        side = grid_side(d)  # raises InvalidDimensionError for non-square d
    if total == 0.0:
        return table
    if d < 2:
        raise InvalidNoiseError(f"d={d} has no wrong outcome to carry an error")
    probs = table.probs.copy()
    eye = np.eye(d, dtype=bool)
    for k, alignment in enumerate(alignments):
        cond = np.full((d, d), uniform_error / (d - 1))
        np.fill_diagonal(cond, 1.0 - total)
        if block_error > 0.0:
            in_block = _block_mask(d, alignment) & ~eye
            cond[in_block] += block_error / (side - 1)
        probs[:, :, k, k] = cond / d
    return ProbabilityTable(d, probs)


def sample_counts(
    table: ProbabilityTable,
    pair_rate: float,
    time: float,
    accidental_rate: float = 0.0,
    seed: int = 0,
    alignments=None,
) -> CountTable:
    """Poisson coincidence counts for every setting measured for `time`.

    c(a,b|k,l) ~ Poisson(time * (pair_rate * p(a,b|k,l) + accidental_rate/d^2)):
    true pairs follow the table, accidentals add a flat floor.  Bit-exact
    reproducible from the seed.  The counts record the table's `alignments`.
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
    return CountTable(d, counts, integration_time=time, seed=seed, alignments=alignments)


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
    alignment: str | None = None,
) -> NoiseDecomposition:
    """Split the matched-setting error into uniform and block parts.

    E_t is the total wrong-outcome probability.  The uniform component is
    estimated from the d - sqrt(d) outcomes outside the sent state's
    block (oriented as apply_noise's default unless `alignment` is given),
    rescaled by (d-1)/(d-sqrt(d)) to account for all d-1 error states; the
    block component is the remainder.
    """
    d = table.dim
    side = grid_side(d)
    n_matched = min(table.bases_alice, table.bases_bob)
    if not 1 <= setting <= n_matched:
        raise InvalidInputError(f"no matched setting {setting} in the table")
    alignments = list(_alignments(None, n_matched))
    if alignment is not None:
        alignments[setting - 1] = alignment
    alignment = _alignments(alignments, n_matched)[setting - 1]
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
        sifted = self.sifted
        n_sifted = np.count_nonzero(sifted)
        if not n_sifted:
            return float("nan")
        return np.count_nonzero((self.alice_symbol != self.bob_symbol) & sifted) / n_sifted

    def save_jsonl(self, path) -> None:
        """One JSON object per round, in the layout README "File formats" gives."""
        columns = (self.alice_basis, self.bob_basis, self.alice_symbol, self.bob_symbol)
        _write_text(path, b"", columns, lambda start, *block: _session_text(start + 1, *block))

    @classmethod
    def load_jsonl(cls, path, dim: int, seed: int | None = None) -> "SessionRecord":
        """Read a file written by save_jsonl.  Any other bytes, or a basis
        index below 1 or a symbol outside 1..dim, raise InvalidInputError
        naming the first bad line.  seed=None records it as unknown."""
        parts, rounds = [], 0
        with open(path, "rb") as fh:
            for line, block, ends in _line_blocks(fh, 1):
                # A line's round is its number: step over its width, walk the rest.
                numbers = np.arange(rounds + 1, rounds + len(ends) + 1)
                cols = _walk(block, ends, len(_SESSION_KEYS[0]) + _widths(numbers),
                             [len(key) for key in _SESSION_KEYS[1:]])
                bad = _mismatch(block, _session_text(rounds + 1, *cols))
                if bad is None:
                    out_of_range = (cols < 1).any(axis=0) | (cols[2:] > dim).any(axis=0)
                    bad = int(out_of_range.argmax()) if out_of_range.any() else None
                if bad is not None:
                    raise InvalidInputError(
                        f"{path} line {line + bad}: not round {rounds + bad + 1} of a "
                        f"dim={dim} session in the save_jsonl layout: {_line_text(block, bad)}"
                    )
                parts.append(cols)
                rounds += len(ends)
        k, l, alice, bob = np.concatenate(parts, axis=1) if parts else np.empty((4, 0), np.int64)
        return cls(dim, k, l, alice, bob, seed)


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, side="right"), the index Generator.choice maps
    each uniform draw u in [0, 1) to, for a non-decreasing cdf ending in 1.0.

    With at least as many draws as its 2^b >= 4 len(cdf) bins, a guide
    table (Chen & Asau 1974; Devroye 1986, III.2.4) starts each draw at the
    answer for its bin's lower edge floor(u 2^b) / 2^b <= u, which is exact,
    and steps up while cdf[i] <= u; fewer draws go to searchsorted."""
    bins = 1 << (4 * len(cdf) - 1).bit_length()
    if len(u) < bins:
        return cdf.searchsorted(u, side="right")
    guide = cdf.searchsorted(np.arange(bins) / bins, side="right")
    i = guide.take((u * bins).astype(np.intp))
    more = np.flatnonzero(cdf.take(i) <= u)
    while more.size:  # stops below len(cdf): cdf[-1] = 1.0 > u
        i[more] += 1
        more = more[cdf.take(i[more]) <= u[more]]
    return i


def simulate_session(
    table: ProbabilityTable,
    n_rounds: int,
    seed: int = 0,
) -> SessionRecord:
    """Simulate n_rounds of entanglement-based QKD with independent
    basis choices.

    Alice and Bob each pick one of the table's K bases per round, all
    equally likely; the outcome pair of each round is drawn from the
    table's joint distribution for that setting.  Every pick is the
    inverse CDF of one Philox `random` draw u: the first index whose
    cumulative probability, normalized to end in 1, exceeds u, as
    Generator.choice(p=...) maps it.  Alice's bases take the first
    n_rounds draws, Bob's the next n_rounds, and the outcomes the rest,
    setting by setting in (k,l) order and by ascending round within a
    setting, so the result is independent of how rounds interleave.
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
    n_settings = n_bases * n_bases

    rng = _rng(seed)
    basis_cdf = np.full(n_bases, 1.0 / n_bases).cumsum()
    basis_cdf /= basis_cdf[-1]
    k_arr = _inverse_cdf(basis_cdf, rng.random(n_rounds))
    l_arr = _inverse_cdf(basis_cdf, rng.random(n_rounds))
    # One outcome CDF per setting s = k*K + l over flat outcomes a*d + b,
    # made by the row sums and cumsums that choice() gives a 1-D p.
    cdf = table.probs.reshape(d * d, n_settings).T.copy()
    cdf /= cdf.sum(axis=1, keepdims=True)
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:].copy()  # a view of cdf would make numpy copy all of it
    # A stable sort groups the rounds by setting; the narrowest integer
    # type lets numpy use its radix sort.
    setting = (k_arr * n_bases + l_arr).astype(np.min_scalar_type(n_settings - 1))
    order = np.argsort(setting, kind="stable")
    flat = np.empty(n_rounds, dtype=np.intp)
    start = 0
    for s, size in enumerate(np.bincount(setting, minlength=n_settings).tolist()):
        if size:
            flat[order[start:start + size]] = _inverse_cdf(cdf[s], rng.random(size))
            start += size
    outcome = np.arange(d * d)
    k_arr += 1
    l_arr += 1
    return SessionRecord(d, k_arr, l_arr, (outcome % d + 1).take(flat),
                         (outcome // d + 1).take(flat), seed)


# ---------------------------------------------------------------------------
# Text serialization.  One renderer writes every block of rows: it fills a
# (rows, width) byte buffer from a template row that holds every constant,
# writes each integer column's digits into its byte columns, with NULs for
# leading zeros, and drops the NULs.  The readers walk the digit runs of a
# block of whole lines, column by column for all lines at once, render the
# rows those numbers give and require the same bytes.  So a file is read
# only in exactly the layout the writers produce, and the first differing
# byte names the bad line.

_BLOCK_ROWS = 1 << 14  # rows per rendered block
_BLOCK_BYTES = 1 << 20  # bytes per read block, extended to a line end

_FLAGS = np.array([b"false", b"true"]).view(np.uint8).reshape(2, -1)
_SESSION_KEYS = (b'{"round": ', b', "k": ', b', "l": ', b', "alice": ', b', "bob": ')
_CSV_HEADER = b"a,b,k,l,value\r\n"


def _render(cells) -> bytearray:
    """Concatenate, row by row, cells that are bytes constants, columns of
    non-negative integers in decimal (_write_text rejects negative ones) or
    (rows, width) uint8 arrays padded with NULs: all rows as one byte string."""
    template, fills = bytearray(), []
    for cell in cells:
        if isinstance(cell, bytes):
            template += cell
            continue
        if cell.ndim == 2:
            width = cell.shape[1]
        else:
            width = len(str(int(cell.max()))) if cell.size else 1
        fills.append((len(template), width, cell))
        template += bytes(width)
    rows = len(fills[0][2])
    text = template * rows
    chars = np.frombuffer(text, np.uint8).reshape(rows, len(template))
    for at, width, cell in fills:
        if cell.ndim == 2:
            chars[:, at:at + width] = cell
            continue
        # Right to left; uint32 divides far faster than int64 where it fits.
        v = q = cell.astype(np.uint32 if width <= 9 else np.int64)
        for k in range(width):
            r = q // 10
            digit = q - r * 10 + 48
            chars[:, at + width - 1 - k] = digit * (v >= 10**k) if k else digit
            q = r
    return text.replace(b"\0", b"")


def _session_text(first_round: int, k, l, alice, bob) -> bytearray:
    """save_jsonl's lines for consecutive rounds from first_round."""
    k, l, alice, bob = (np.asarray(c) for c in (k, l, alice, bob))
    columns = (np.arange(first_round, first_round + len(k)), k, l, alice, bob)
    cells = [cell for pair in zip(_SESSION_KEYS, columns) for cell in pair]
    return _render(cells + [b', "sifted": ', _FLAGS[(k == l).astype(np.intp)], b"}\n"])


def _table_index(shape, first_row: int, rows: int) -> list:
    """The 1-based a, b, k, l of `rows` CSV rows from first_row on of a
    (d, d, K, L) count table, in file order (k, l outer; a, b inner).
    A file's row numbers stay far below 2^62, and an axis a sidecar
    claims longer than that divides them as 2^62 does."""
    d1, d2, _, nl = shape
    q, index = np.arange(first_row, first_row + rows), []
    for size in (min(n, 2**62) for n in (d2, d1, nl)):
        r = q // size  # numpy divides by a scalar far faster than divmod does
        index.append(q - r * size + 1)
        q = r
    b, a, l = index
    return [a, b, q + 1, l]


def _table_text(index, values: np.ndarray) -> bytearray:
    """CSV rows of the counts `values` at the _table_index `index`."""
    a, b, k, l = index
    return _render([a, b",", b, b",", k, b",", l, b",", values, b"\r\n"])


def _widths(column: np.ndarray) -> np.ndarray:
    """Decimal digit counts of a column of positive integers."""
    width = np.ones(len(column), dtype=np.intp)
    for k in range(1, len(str(int(column.max(initial=1))))):
        width += column >= 10**k
    return width


def _write_text(path, head: bytes, columns, text) -> None:
    """Write head, then text(first row, *column blocks) per _BLOCK_ROWS rows;
    a negative integer raises InvalidInputError before the file is opened."""
    if any(np.min(c, initial=0) < 0 for c in columns):
        raise InvalidInputError("cannot write negative integers")
    with open(path, "wb") as fh:
        fh.write(head)
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            fh.write(text(start, *(c[start:start + _BLOCK_ROWS] for c in columns)))


def _line_blocks(fh, first_line: int):
    """(number of its first line, block, offsets of its line ends) for
    blocks of whole lines read from fh."""
    while block := fh.read(_BLOCK_BYTES):
        block += fh.readline()
        ends = np.flatnonzero(np.frombuffer(block, np.uint8) == 10)
        yield first_line, block, ends
        first_line += len(ends)


def _walk(block: bytes, ends: np.ndarray, first, seps) -> np.ndarray:
    """The digit runs of the lines of block that end at `ends`, as a
    (runs, lines) int64 array.  Each line is entered `first` bytes (one
    number, or one per line) past its start, the rendered width of the
    columns its row number fixes, and seps[i] bytes are passed over before
    its i-th run.  At most 19 digits of a run are read, and a value above
    2^63 - 1 reads as 0, so a run that is not an int64 never renders as
    itself and the comparison that follows names its line; so does a
    line whose fixed columns are not `first` bytes wide."""
    buf, rows = np.frombuffer(block, np.uint8), len(ends)
    pos = np.concatenate(([0], ends[:-1] + 1))[:rows] + first
    runs = []
    for sep in seps:
        pos += sep
        value = np.zeros(rows, dtype=np.uint64)
        for _ in range(19):
            digit = buf.take(pos, mode="clip") - 48  # wraps non-digits to 10 and above
            more = digit < 10
            if not more.any():
                break
            value = np.where(more, value * 10 + digit, value)
            pos += more
        value[value > np.iinfo(np.int64).max] = 0
        runs.append(value.astype(np.int64))
    return np.array(runs)


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
    _write_text(path, _CSV_HEADER, (values,),
                lambda start, block: _table_text(_table_index(array.shape, start, len(block)),
                                                 block))


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
    if not all(map(is_count, shape)):
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
        for line, block, ends in _line_blocks(fh, 2):
            rows = min(len(ends), n - done)
            # a,b,k,l follow from the row number: step over them and their commas.
            index = _table_index(shape, done, rows)
            [cut] = _walk(block, ends[:rows], sum(map(_widths, index)) + 4, (0,))
            bad = _mismatch(block, _table_text(index, cut))
            if bad is not None:
                raise InvalidInputError(
                    f"{path} line {line + bad}: {_expected_row(shape, done + bad)}, "
                    f"got {_line_text(block, bad)}"
                )
            parts.append(cut)
            done += rows
    if done < n:
        raise InvalidInputError(f"{path} line {done + 2}: {_expected_row(shape, done)}, "
                                f"got the end of the file")
    d1, d2, nk, nl = shape
    values = np.concatenate(parts).reshape(nk, nl, d1, d2)
    return np.ascontiguousarray(values.transpose(2, 3, 0, 1))


def _expected_row(shape, row: int) -> str:
    d1, _, nk, nl = shape
    table = f"the dim={d1}, {nk}x{nl}-setting table of the sidecar"
    if row >= math.prod(shape):
        return f"expected the end of {table}"
    a, b, k, l = (int(c[0]) for c in _table_index(shape, row, 1))
    return f"expected row {a},{b},{k},{l},<count> of {table}"


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
        "alignments": counts.alignments,
    }
    write_json(path + ".meta.json", sidecar, "counts sidecar holds non-finite values")
    _write_table_csv(path, counts.counts)


def load_counts_csv(path) -> CountTable:
    path = str(path)
    meta, shape = _read_sidecar(path, "integration_time", "coincidence_window", "seed",
                                "generator", "alignments")
    array = _read_table_csv(path, shape)
    return CountTable(
        meta["dim"],
        array,
        integration_time=meta["integration_time"],
        coincidence_window=meta["coincidence_window"],
        seed=meta["seed"],
        generator=meta["generator"],
        alignments=meta["alignments"],
    )
