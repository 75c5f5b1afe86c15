"""Analytic secret-key-rate lower bounds and error thresholds.

Implements the high-dimensional Shannon entropy h_d, its block-biased
generalization for noise concentrated on sqrt(d)-mode blocks, the two
closed-form asymptotic rate bounds built from them, threshold root
finding along fixed error-split profiles, and the error statistics
reduced from a full probability table.

All entropies use the 0*log(0) -> 0 convention so rates extend to the
zero-error and all-block axes without NaNs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InvalidDimensionError,
    InvalidInputError,
    NoThresholdError,
    write_json,
)
from .mub import grid_side, square_side
from .protocol import ProbabilityTable, block_fraction_of, split_error, total_error

BOUNDS = ("depolarizing_all_mubs", "two_mub_uniform", "two_mub_block")

ROOT_TOL = 1e-9
_BISECT_LO = 1e-12
_BISECT_HI = 1.0 - 1e-6
_MAX_ITER = 200


def _xlog2(x, scale=1):
    # x*log2(x/scale) with 0*log2(0) -> +0.0, for x a float or, elementwise,
    # an array: math.log2 keeps scalar rates bit-identical, numpy.log2 serves
    # the lockstep search.  The one copy of the 0*log(0) convention.
    if isinstance(x, np.ndarray):
        return x * np.log2(np.where(x == 0.0, 1.0, x / scale))
    return 0.0 if x == 0.0 else x * math.log2(x / scale)


def _check_dim(d: int) -> None:
    if d < 2:
        raise InvalidDimensionError(f"need d >= 2, got {d}")


def _hd(x, d):
    # h_d(x) for d >= 2 and x in [0, 1), floats or arrays: the one copy of its
    # formula.  0.0 - ...: h_d(0) is +0.0, not -0.0.
    return 0.0 - _xlog2(x, d - 1) - _xlog2(1.0 - x)


def _h_block(d, side, uniform_error, block_error):
    # The block-biased entropy for side = sqrt(d), from checked d, side and
    # errors, floats or arrays.
    total = uniform_error + block_error
    p_out = uniform_error / (d - 1)
    p_in = block_error / (side - 1) + p_out
    return (
        -_xlog2(1.0 - total)
        - (d - side) * _xlog2(p_out)
        - (side - 1) * _xlog2(p_in)
    )


def shannon_hd(x: float, d: int) -> float:
    """High-dimensional Shannon entropy of a symmetric error channel.

    h_d(x) = -x*log2(x/(d-1)) - (1-x)*log2(1-x): the entropy of the
    outcome distribution with probability 1-x on the correct state and
    x/(d-1) on each of the d-1 wrong ones.
    """
    _check_dim(d)
    total_error(x, 0.0)
    return _hd(x, d)


def entropy_block_biased(d: int, uniform_error: float, block_error: float) -> float:
    """Entropy of the block-biased error distribution on a square-grid basis.

    With total error E_t = E_u + E_b, the outcome distribution given a sent
    state is: 1 - E_t on the correct state, E_u/(d-1) on each of the
    d - sqrt(d) states outside the state's block, and
    E_b/(sqrt(d)-1) + E_u/(d-1) on each of the sqrt(d)-1 wrong states
    inside it.  Returns the Shannon entropy of that distribution in bits:

        -(1-E_t)*log2(1-E_t)
        - (d-sqrt(d)) * (E_u/(d-1)) * log2(E_u/(d-1))
        - (sqrt(d)-1) * (E_b/(sqrt(d)-1) + E_u/(d-1))
                      * log2(E_b/(sqrt(d)-1) + E_u/(d-1))

    E_b = 0 reduces exactly to shannon_hd(E_u, d).
    """
    side = grid_side(d)
    total_error(uniform_error, block_error)
    return _h_block(d, side, uniform_error, block_error)


@dataclass(frozen=True)
class KeyRateReport:
    """A computed rate bound plus the zero-rate threshold of its profile."""

    bound: str
    dim: int
    inputs: dict = field(default_factory=dict)
    rate: float = 0.0
    threshold: float = float("nan")

    def __post_init__(self):
        if self.bound not in BOUNDS:
            raise InvalidInputError(f"unknown bound '{self.bound}'")
        if self.rate > math.log2(self.dim) + 1e-12:
            raise InvalidInputError(
                f"rate {self.rate} exceeds log2({self.dim}) = {math.log2(self.dim)}"
            )

    def save_json(self, path) -> None:
        write_json(path, asdict(self), "key-rate report holds non-finite values")


def _rate_depolarizing_value(d: int, e: float) -> float:
    scaled = (d + 1) * e / d
    if not 0.0 <= scaled < 1.0:
        raise DomainError(
            f"depolarizing bound needs (d+1)E/d in [0, 1), got {scaled:.6g}"
        )
    return math.log2(d) - _hd(scaled, d) - scaled * math.log2(d + 1)


def _rate_two_mub_value(d: int, side: int, uniform_error: float, block_error: float) -> float:
    # side = sqrt(d) is read only when block_error != 0.
    total_error(uniform_error, block_error)
    if block_error == 0.0:
        h = _hd(uniform_error, d)
    else:
        h = _h_block(d, side, uniform_error, block_error)
    return math.log2(d) - 2.0 * h


def rate_depolarizing(d: int, e: float) -> KeyRateReport:
    """Rate bound assuming identical depolarizing noise across all d+1 MUBs.

    R = log2(d) - h_d((d+1)E/d) - ((d+1)/d)*E*log2(d+1), with E the
    arithmetic-mean error rate over all bases.
    """
    rate = rate_on_profile("depolarizing_all_mubs", d, e)
    thr = threshold("depolarizing_all_mubs", d)
    return KeyRateReport("depolarizing_all_mubs", d, {"E": e}, rate, thr)


def rate_two_mub(d: int, uniform_error: float, block_error: float = 0.0) -> KeyRateReport:
    """Two-basis rate bound R = log2(d) - 2*h, h the (block-biased) entropy.

    block_error=0 uses the uniform entropy and is valid for any d >= 2;
    block_error>0 requires a perfect-square d >= 4.  The report's threshold is
    computed along the profile with the same block fraction as the inputs.
    """
    _check_dim(d)
    uniform = block_error == 0.0
    side = 0 if uniform else grid_side(d)
    rate = _rate_two_mub_value(d, side, uniform_error, block_error)
    bound = "two_mub_uniform" if uniform else "two_mub_block"
    inputs = {"E": uniform_error} if uniform else {"E_u": uniform_error, "E_b": block_error}
    thr = threshold(bound, d, block_fraction_of(uniform_error, block_error))
    return KeyRateReport(bound, d, inputs, rate, thr)


def _profile_rate(bound: str, d: int, block_fraction: float):
    """The bound's rate as a function of the total error E_t, split as
    (1-f)*E_t uniform + f*E_t block (protocol.split_error).  The bound, d
    and f are checked here, once per profile (two_mub_uniform takes only
    f = 0); each E_t only against the bound's domain (DomainError)."""
    if bound not in BOUNDS:
        raise InvalidInputError(f"unknown bound '{bound}'")
    _check_dim(d)
    f = block_fraction
    if not 0.0 <= f <= 1.0:
        raise InvalidInputError(f"block_fraction {f} outside [0, 1]")
    if bound == "depolarizing_all_mubs":
        return lambda e: _rate_depolarizing_value(d, e)
    if bound == "two_mub_uniform":
        if f != 0.0:
            raise InvalidInputError(f"two_mub_uniform has no block error, got block_fraction {f}")
        return lambda e: _rate_two_mub_value(d, 0, e, 0.0)
    side = grid_side(d) if f > 0.0 else 0
    return lambda e: _rate_two_mub_value(d, side, *split_error(e, f))


def rate_on_profile(bound: str, d: int, total_error: float, block_fraction: float = 0.0) -> float:
    """Rate at total error E_t split as (1-f)*E_t uniform + f*E_t block."""
    return _profile_rate(bound, d, block_fraction)(total_error)


def threshold(bound: str, d: int, block_fraction: float | None = None) -> float:
    """Smallest total error at which the bound's rate reaches zero.

    Every bound is log2(d) minus a concave entropy of an outcome
    distribution that is affine in the total error (minus a linear term
    for the depolarizing bound), so the rate is convex along the profile:
    it falls to one minimum and rises after it.  A ternary search walks
    towards that minimum and stops at the first probe whose rate is
    <= -ROOT_TOL: the rate is positive at the profile's start, so the one
    root lies before that probe.  (Not < 0: on a profile that only
    touches zero, rounding leaves the rate a hair below it.)  When no
    probe gets that low the search runs to the minimum: within ROOT_TOL
    of zero, the profile touches zero tangentially and the minimum is the
    threshold (the all-block profile does); above, NoThresholdError is
    raised.  Otherwise bisection from the profile's start refines the
    root to |rate| < ROOT_TOL.
    """
    if bound == "two_mub_block" and block_fraction is None:
        raise InvalidInputError("two_mub_block threshold needs a block_fraction")
    rate = _profile_rate(bound, d, 0.0 if block_fraction is None else float(block_fraction))

    lo = _BISECT_LO
    if rate(lo) <= 0.0:
        raise NoThresholdError(f"{bound} rate is not positive at E={lo:.3g}")

    # The depolarizing rate is defined for E < d/(d+1) only.
    a, b = lo, (d / (d + 1) - 1e-9 if bound == "depolarizing_all_mubs" else _BISECT_HI)
    for _ in range(_MAX_ITER):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if not a < m1 < m2 < b:
            break
        r1 = rate(m1)
        if r1 <= -ROOT_TOL:
            return _bisect_root(rate, lo, m1)
        r2 = rate(m2)
        if r2 <= -ROOT_TOL:
            return _bisect_root(rate, lo, m2)
        if r1 < r2:
            b = m2
        else:
            a = m1
    e_min = 0.5 * (a + b)
    r_min = rate(e_min)
    if abs(r_min) < ROOT_TOL:
        return e_min
    if r_min > 0.0:
        raise NoThresholdError(
            f"{bound} rate stays positive along the profile "
            f"(minimum {r_min:.3e} at E={e_min:.4f})"
        )
    return _bisect_root(rate, lo, e_min)


def _bisect_root(rate, a: float, b: float) -> float:
    # The root between a (rate > 0) and b (rate < 0), to |rate| < ROOT_TOL.
    for _ in range(_MAX_ITER):
        mid = 0.5 * (a + b)
        v = rate(mid)
        if abs(v) < ROOT_TOL:
            return mid
        if v > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _lane_rates(e, d, side, f, log2_d):
    # The two-basis rate at total errors e (one row per probe) on profile
    # lanes (d, sqrt(d), f, log2 d), lanes with f = 0 first: the uniform
    # entropy on those, the block-biased one on the rest.
    n = int(np.searchsorted(f, 0.0, side="right"))
    h = np.empty_like(e)
    if n:
        h[..., :n] = _hd(e[..., :n], d[:n])
    if n < f.size:
        h[..., n:] = _h_block(d[n:], side[n:], *split_error(e[..., n:], f[n:]))
    return log2_d - 2.0 * h


def _lockstep_thresholds(dims, fractions) -> np.ndarray:
    """threshold() of the two-basis bound on every lane (dims[i],
    fractions[i]) at once, a lane with fraction > 0 on a perfect-square
    d >= 4; NaN where threshold() raises NoThresholdError.

    The lanes take threshold()'s steps in three stages: the ternary
    search, the minima of lanes it runs to the end, and bisection from
    _BISECT_LO.  Each round of a stage makes one rate call over the lanes
    still in it.  numpy.log2 and math.log2 round apart on a few
    arguments, so a lane can take another step than threshold() where
    that flips a comparison, and end a few ulps from it.
    """
    order = np.argsort(fractions, kind="stable")  # f = 0 first, for _lane_rates
    d = np.array(dims, dtype=float)[order]
    f = np.array(fractions, dtype=float)[order]
    side = np.where(f > 0.0, np.floor(np.sqrt(d)), 0.0)
    log2_d = np.array([math.log2(n) for n in dims])[order]
    # Per lane, NaN until set: its threshold, where its ternary search
    # ended, and the upper end of its bisection bracket (a probe past the
    # root or a minimum below zero).  A stage takes the lanes set in its
    # array in ascending order, so f = 0 lanes come first.
    found, e_min, past_root = np.full((3, d.size), np.nan)
    lo = _BISECT_LO

    def rates(e, lane):
        return _lane_rates(e, d[lane], side[lane], f[lane], log2_d[lane])

    # No threshold where the rate is not positive at lo.
    lane = np.flatnonzero(rates(np.full(d.size, lo), slice(None)) > 0.0)
    a, b = np.full(lane.size, lo), np.full(lane.size, _BISECT_HI)
    # Ternary search, to a probe past the root or to the rate's minimum.
    for _ in range(_MAX_ITER):
        if not lane.size:
            break
        third = (b - a) / 3.0
        m1, m2 = a + third, b - third
        ordered = (a < m1) & (m1 < m2) & (m2 < b)
        r1, r2 = rates(np.stack([m1, m2]), lane)
        past1 = r1 <= -ROOT_TOL
        past = ordered & (past1 | (r2 <= -ROOT_TOL))
        lower = r1 < r2
        keep = ordered & ~past
        if not keep.all():
            past_root[lane[past]] = np.where(past1, m1, m2)[past]
            e_min[lane[~ordered]] = 0.5 * (a + b)[~ordered]
            lane, a, b, m1, m2, lower = (x[keep] for x in (lane, a, b, m1, m2, lower))
        a, b = np.where(lower, a, m1), np.where(lower, m2, b)
    e_min[lane] = 0.5 * (a + b)

    # A minimum within ROOT_TOL of zero is the root, one above it means no
    # threshold, one below it is bisected.
    lane = np.flatnonzero(~np.isnan(e_min))
    r_min = rates(e_min[lane], lane)
    tangent = np.abs(r_min) < ROOT_TOL
    found[lane[tangent]] = e_min[lane[tangent]]
    below = lane[~tangent & ~(r_min > 0.0)]
    past_root[below] = e_min[below]

    # Bisection of each bracket [lo, past_root] to |rate| < ROOT_TOL.
    lane = np.flatnonzero(~np.isnan(past_root))
    a, b = np.full(lane.size, lo), past_root[lane]
    for _ in range(_MAX_ITER):
        if not lane.size:
            break
        mid = 0.5 * (a + b)
        v = rates(mid, lane)
        root = np.abs(v) < ROOT_TOL
        found[lane[root]] = mid[root]
        keep, pos = ~root, v > 0.0
        a, b = np.where(pos, mid, a)[keep], np.where(pos, b, mid)[keep]
        lane = lane[keep]
    found[lane] = 0.5 * (a + b)
    return found[np.argsort(order)]


@dataclass(frozen=True)
class SubsetStats:
    """Error statistics reduced from p(a,b|k,l) at five granularities.

    E          mean matched-basis error over the K matched settings
    E_k        per-basis matched error, length K
    E_kl       error for every basis combination, K x L
    E_abk      full matched-setting probabilities, d x d x K
    E_abkl     the full table, d x d x K x L
    """

    E: float
    E_k: np.ndarray
    E_kl: np.ndarray
    E_abk: np.ndarray
    E_abkl: np.ndarray


def subset_stats(table) -> SubsetStats:
    """Reduce a normalized probability table to its five data subsets.

    Matched-setting statistics use the diagonal k = l over the first
    min(K, L) settings; E is their arithmetic mean and equals
    1 - (1/K) * sum_k sum_a p(a,a|k,k).
    """
    table = ProbabilityTable(table.dim, table.probs)  # checks it again: arrays are mutable
    probs = table.probs
    n_matched = min(table.bases_alice, table.bases_bob)
    diag_outcomes = np.einsum("aakl->kl", probs)  # sum_a p(a,a|k,l)
    e_kl = 1.0 - diag_outcomes
    e_k = np.array([e_kl[k, k] for k in range(n_matched)])
    e = float(e_k.mean())
    e_abk = np.stack([probs[:, :, k, k] for k in range(n_matched)], axis=-1)
    return SubsetStats(e, e_k, e_kl, e_abk, probs.copy())


def rate_curve(
    bound: str,
    d: int,
    errors,
    block_fraction: float = 0.0,
) -> np.ndarray:
    """Table of (total error, rate) pairs along a fixed split profile.

    Points outside the bound's domain are skipped.
    """
    rate = _profile_rate(bound, d, block_fraction)
    rows = []
    for e in np.asarray(errors, dtype=float):
        try:
            rows.append((float(e), rate(float(e))))
        except DomainError:
            continue
    if not rows:
        raise DomainError("no grid point inside the bound's domain")
    return np.array(rows)


# Error-split profiles of threshold_curve: the fraction of the total error
# that sits inside a sqrt(d)-mode block.  0.77 is a representative
# block-heavy split for 25-dimensional row/col-DFT sorters.
CURVE_BLOCK_FRACTIONS = (0.0, 0.77, 1.0)


def threshold_curve(dims) -> list[dict]:
    """Zero-rate threshold of the two-basis bound versus dimension, on
    each profile of CURVE_BLOCK_FRACTIONS.

    Uniform errors (fraction 0) are evaluated for every d; block-biased
    profiles only exist on perfect squares and other d are skipped, as
    are profiles without a threshold.  All profiles are searched at once
    (_lockstep_thresholds), so a row may differ from threshold() of its
    profile in the last bits.
    """
    lanes = []
    for d in dims:
        _check_dim(d)
        lanes += [(d, f) for f in (CURVE_BLOCK_FRACTIONS if square_side(d) else (0.0,))]
    found = _lockstep_thresholds([d for d, _ in lanes], [f for _, f in lanes])
    return [{"d": d, "block_fraction": f, "threshold": thr}
            for (d, f), thr in zip(lanes, found.tolist()) if not math.isnan(thr)]


def save_report_csv(report: KeyRateReport, path) -> None:
    """Single-row CSV (`E,rate` or `E_u,E_b,rate`) plus a JSON sidecar."""
    if "E_b" in report.inputs:
        header, row = ["E_u", "E_b", "rate"], [report.inputs["E_u"], report.inputs["E_b"]]
    else:
        header, row = ["E", "rate"], [report.inputs.get("E", 0.0)]
    save_curve_csv(path, header, [row + [report.rate]],
                   {"bound": report.bound, "d": report.dim, "threshold": report.threshold})


def save_curve_csv(path, header, rows, sidecar: dict) -> None:
    """Write rows under a header as CSV, each value as its repr() and every
    line ended by \\r\\n, plus a JSON sidecar: sidecar with the threshold
    search's ROOT_TOL appended."""
    path = str(path)
    write_json(path + ".meta.json", {**sidecar, "root_tol": ROOT_TOL},
               "key-rate CSV sidecar holds non-finite values")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
