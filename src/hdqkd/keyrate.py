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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InvalidDimensionError,
    InvalidInputError,
    NoThresholdError,
)
from .mub import grid_side

BOUNDS = ("depolarizing_all_mubs", "two_mub_uniform", "two_mub_block")

ROOT_TOL = 1e-9
_BISECT_LO = 1e-12
_BISECT_HI = 1.0 - 1e-6
_MAX_ITER = 200


def _xlog2(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log2(x)


def shannon_hd(x: float, d: int) -> float:
    """High-dimensional Shannon entropy of a symmetric error channel.

    h_d(x) = -x*log2(x/(d-1)) - (1-x)*log2(1-x): the entropy of the
    outcome distribution with probability 1-x on the correct state and
    x/(d-1) on each of the d-1 wrong ones.
    """
    if d < 2:
        raise InvalidDimensionError(f"entropy needs d >= 2, got {d}")
    if not 0.0 <= x < 1.0:
        raise DomainError(f"error rate {x} outside [0, 1)")
    if x == 0.0:
        return 0.0
    return -x * math.log2(x / (d - 1)) - _xlog2(1.0 - x)


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
    if d < 4:
        raise InvalidDimensionError(f"block-biased entropy needs d >= 4, got {d}")
    if uniform_error < 0.0 or block_error < 0.0:
        raise DomainError("error components must be >= 0")
    total = uniform_error + block_error
    if total >= 1.0:
        raise DomainError(f"total error {total} outside [0, 1)")
    p_out = uniform_error / (d - 1)
    p_in = block_error / (side - 1) + p_out
    return (
        -_xlog2(1.0 - total)
        - (d - side) * _xlog2(p_out)
        - (side - 1) * _xlog2(p_in)
    )


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

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "dim": self.dim,
            "inputs": dict(self.inputs),
            "rate": self.rate,
            "threshold": self.threshold,
        }

    def save_json(self, path) -> None:
        try:
            text = json.dumps(self.to_dict(), indent=2, allow_nan=False)
        except ValueError:
            raise InvalidInputError("key-rate report holds non-finite values") from None
        with open(path, "w") as fh:
            fh.write(text)


def _rate_depolarizing_value(d: int, e: float) -> float:
    scaled = (d + 1) * e / d
    if not 0.0 <= scaled < 1.0:
        raise DomainError(
            f"depolarizing bound needs (d+1)E/d in [0, 1), got {scaled:.6g}"
        )
    return math.log2(d) - shannon_hd(scaled, d) - scaled * math.log2(d + 1)


def _rate_two_mub_value(d: int, uniform_error: float, block_error: float) -> float:
    if block_error == 0.0:
        if not 0.0 <= uniform_error < 1.0:
            raise DomainError(f"error rate {uniform_error} outside [0, 1)")
        h = shannon_hd(uniform_error, d)
    else:
        h = entropy_block_biased(d, uniform_error, block_error)
    return math.log2(d) - 2.0 * h


def rate_depolarizing(d: int, e: float) -> KeyRateReport:
    """Rate bound assuming identical depolarizing noise across all d+1 MUBs.

    R = log2(d) - h_d((d+1)E/d) - ((d+1)/d)*E*log2(d+1), with E the
    arithmetic-mean error rate over all bases.
    """
    if d < 2:
        raise InvalidDimensionError(f"rate bound needs d >= 2, got {d}")
    if e < 0.0:
        raise DomainError(f"error rate {e} must be >= 0")
    rate = _rate_depolarizing_value(d, e)
    thr = threshold("depolarizing_all_mubs", d)
    return KeyRateReport("depolarizing_all_mubs", d, {"E": e}, rate, thr)


def rate_two_mub(d: int, uniform_error: float, block_error: float = 0.0) -> KeyRateReport:
    """Two-basis rate bound R = log2(d) - 2*h, h the (block-biased) entropy.

    block_error=0 uses the uniform entropy and is valid for any d >= 2;
    block_error>0 requires a perfect-square d.  The report's threshold is
    computed along the profile with the same block fraction as the inputs.
    """
    if d < 2:
        raise InvalidDimensionError(f"rate bound needs d >= 2, got {d}")
    total = uniform_error + block_error
    rate = _rate_two_mub_value(d, uniform_error, block_error)
    if block_error == 0.0:
        bound = "two_mub_uniform"
        thr = threshold(bound, d)
        inputs = {"E": uniform_error}
    else:
        bound = "two_mub_block"
        thr = threshold(bound, d, block_fraction=block_error / total)
        inputs = {"E_u": uniform_error, "E_b": block_error}
    return KeyRateReport(bound, d, inputs, rate, thr)


def rate_on_profile(bound: str, d: int, total_error: float, block_fraction: float = 0.0) -> float:
    """Rate at total error E_t split as (1-f)*E_t uniform + f*E_t block."""
    if bound == "depolarizing_all_mubs":
        return _rate_depolarizing_value(d, total_error)
    if bound == "two_mub_uniform":
        return _rate_two_mub_value(d, total_error, 0.0)
    if bound == "two_mub_block":
        return _rate_two_mub_value(
            d, (1.0 - block_fraction) * total_error, block_fraction * total_error
        )
    raise InvalidInputError(f"unknown bound '{bound}'")


def _profile_domain_hi(bound: str, d: int) -> float:
    if bound == "depolarizing_all_mubs":
        return d / (d + 1) - 1e-9
    return _BISECT_HI


def threshold(bound: str, d: int, block_fraction: float | None = None) -> float:
    """Smallest total error at which the bound's rate reaches zero.

    Every bound is log2(d) minus a concave entropy of an outcome
    distribution that is affine in the total error (minus a linear term
    for the depolarizing bound), so the rate is convex along the profile:
    it falls to one minimum and rises after it.  A ternary search finds
    that minimum.  If the rate there is within ROOT_TOL of zero the
    profile touches zero tangentially and the minimum is the threshold
    (the all-block profile does); if it is above, no threshold exists and
    NoThresholdError is raised; otherwise the one root before the minimum
    is refined by bisection to |rate| < ROOT_TOL.
    """
    if bound not in BOUNDS:
        raise InvalidInputError(f"unknown bound '{bound}'")
    if bound == "two_mub_block" and block_fraction is None:
        raise InvalidInputError("two_mub_block threshold needs a block_fraction")
    f = 0.0 if block_fraction is None else float(block_fraction)
    if not 0.0 <= f <= 1.0:
        raise InvalidInputError(f"block_fraction {f} outside [0, 1]")
    if bound == "two_mub_block" and f > 0.0:
        grid_side(d)  # raises for non-square d

    def rate(e: float) -> float:
        return rate_on_profile(bound, d, e, f)

    lo = _BISECT_LO
    if rate(lo) <= 0.0:
        raise NoThresholdError(f"{bound} rate is not positive at E={lo:.3g}")

    a, b = lo, _profile_domain_hi(bound, d)
    for _ in range(_MAX_ITER):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if not a < m1 < m2 < b:
            break
        if rate(m1) < rate(m2):
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

    a, b = lo, e_min
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
    probs = np.asarray(table.probs, dtype=float)
    d = table.dim
    n_matched = min(table.bases_alice, table.bases_bob)
    sums = probs.sum(axis=(0, 1))
    if np.abs(sums - 1.0).max() > 1e-9 or probs.min() < 0.0:
        raise InvalidInputError("probability table is not normalized")
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
    rows = []
    for e in np.asarray(errors, dtype=float):
        try:
            rows.append((float(e), rate_on_profile(bound, d, float(e), block_fraction)))
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
    profiles only exist on perfect squares and other d are skipped.
    """
    rows = []
    for d in dims:
        for f in CURVE_BLOCK_FRACTIONS:
            bound = "two_mub_uniform" if f == 0.0 else "two_mub_block"
            if f > 0.0:
                try:
                    grid_side(d)
                except InvalidDimensionError:
                    continue
            try:
                thr = threshold(bound, d, block_fraction=f if f > 0.0 else None)
            except NoThresholdError:
                continue
            rows.append({"d": d, "block_fraction": f, "threshold": thr})
    return rows


def save_report_csv(report: KeyRateReport, path) -> None:
    """Single-row CSV (`E,rate` or `E_u,E_b,rate`) plus a JSON sidecar."""
    if "E_b" in report.inputs:
        header, row = ["E_u", "E_b", "rate"], [report.inputs["E_u"], report.inputs["E_b"]]
    else:
        header, row = ["E", "rate"], [report.inputs.get("E", 0.0)]
    save_curve_csv(path, header, [row + [report.rate]], {
        "bound": report.bound,
        "d": report.dim,
        "threshold": report.threshold,
        "root_tol": ROOT_TOL,
    })


def save_curve_csv(path, header, rows, sidecar: dict) -> None:
    """Write rows under a header as CSV, each value as its repr() and every
    line ended by \\r\\n, plus a JSON sidecar describing them."""
    path = str(path)
    try:
        meta = json.dumps(sidecar, indent=2, allow_nan=False)
    except ValueError:
        raise InvalidInputError("key-rate CSV sidecar holds non-finite values") from None
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
    with open(path + ".meta.json", "w") as fh:
        fh.write(meta)
