import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdqkd.errors import (
    DomainError,
    InvalidDimensionError,
    InvalidInputError,
    NoThresholdError,
)
from hdqkd.keyrate import (
    BOUNDS,
    ROOT_TOL,
    KeyRateReport,
    entropy_block_biased,
    rate_curve,
    rate_depolarizing,
    rate_on_profile,
    rate_two_mub,
    save_curve_csv,
    shannon_hd,
    subset_stats,
    threshold,
    threshold_curve,
)
from hdqkd.mub import full_mub_set
from hdqkd.protocol import ProbabilityTable, apply_noise, ideal_prob_table


def entropy_of(dist) -> float:
    """Plain Shannon entropy in bits; the oracle the closed forms must match."""
    return -sum(p * math.log2(p) for p in dist if p > 0)


def symmetric_error_dist(x, d):
    return [1 - x] + [x / (d - 1)] * (d - 1)


def block_error_dist(d, e_u, e_b):
    side = math.isqrt(d)
    p_out = e_u / (d - 1)
    p_in = e_b / (side - 1) + p_out
    return [1 - e_u - e_b] + [p_in] * (side - 1) + [p_out] * (d - side)


# --- shannon_hd -------------------------------------------------------------


def test_shannon_zero_error_convention():
    assert shannon_hd(0.0, 5) == 0.0


def test_shannon_binary_maximum():
    assert abs(shannon_hd(0.5, 2) - 1.0) < 1e-15


def test_shannon_value_d5():
    # frozen from the distribution-entropy oracle
    assert abs(shannon_hd(0.132, 5) - 0.8268977911449632) < 1e-12
    assert abs(shannon_hd(0.132, 5) - 0.8270) < 5e-4


@pytest.mark.parametrize("d", [2, 3, 5, 17])
def test_shannon_matches_distribution_entropy(d):
    for x in np.linspace(0.0, 0.95, 20):
        assert abs(shannon_hd(float(x), d) - entropy_of(symmetric_error_dist(x, d))) < 1e-12


def test_shannon_domain_errors():
    with pytest.raises(DomainError):
        shannon_hd(-0.1, 5)
    with pytest.raises(DomainError):
        shannon_hd(1.0, 5)
    with pytest.raises(InvalidDimensionError):
        shannon_hd(0.1, 1)


# --- rate_depolarizing ------------------------------------------------------


def test_depolarizing_zero_error_rate():
    report = rate_depolarizing(5, 0.0)
    assert abs(report.rate - math.log2(5)) < 1e-12


def test_depolarizing_headline_value():
    report = rate_depolarizing(5, 0.11)
    assert abs(report.rate - 1.1538152536472066) < 1e-9  # frozen oracle value
    assert abs(report.rate - 1.1537) < 0.01
    assert abs(report.rate - 1.15) < 0.05


def test_depolarizing_domain_error():
    with pytest.raises(DomainError):
        rate_depolarizing(5, 0.9)  # (d+1)E/d >= 1


# --- entropy_block_biased ---------------------------------------------------


def test_block_entropy_zero_is_zero():
    assert entropy_block_biased(25, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("d", [4, 9, 25])
def test_block_entropy_reduces_to_uniform(d):
    for x in np.linspace(0.0, 0.9, 10):
        assert abs(entropy_block_biased(d, float(x), 0.0) - shannon_hd(float(x), d)) < 1e-12


def test_block_entropy_headline_value():
    h = entropy_block_biased(25, 0.073, 0.248)
    assert abs(h - 1.91356047862162) < 1e-9  # frozen oracle value
    assert abs(h - 1.914) < 1e-3


@pytest.mark.parametrize("d", [4, 9, 25])
def test_block_entropy_matches_distribution_entropy(d):
    rng = np.random.default_rng(5)
    for _ in range(25):
        e_u, e_b = rng.uniform(0.0, 0.45, size=2)
        want = entropy_of(block_error_dist(d, e_u, e_b))
        assert abs(entropy_block_biased(d, e_u, e_b) - want) < 1e-12


@pytest.mark.parametrize("e_u, e_b", [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.0)])
def test_block_entropy_rejects_non_finite_errors(e_u, e_b):
    with pytest.raises(DomainError):
        entropy_block_biased(25, e_u, e_b)


def test_block_entropy_rejects_bad_inputs():
    with pytest.raises(InvalidDimensionError):
        entropy_block_biased(5, 0.1, 0.1)
    with pytest.raises(DomainError):
        entropy_block_biased(25, 0.6, 0.5)
    with pytest.raises(DomainError):
        entropy_block_biased(25, -0.1, 0.2)


# --- rate_two_mub -----------------------------------------------------------


def test_two_mub_headline_value():
    report = rate_two_mub(25, 0.073, 0.248)
    assert abs(report.rate - 0.8167352325314843) < 1e-9  # frozen oracle value
    assert abs(report.rate - 0.816) < 2e-3
    assert abs(report.rate - 0.8) < 0.07
    assert report.bound == "two_mub_block"


def test_two_mub_qubit_noiseless():
    report = rate_two_mub(2, 0.0, 0.0)
    assert abs(report.rate - 1.0) < 1e-12
    assert report.bound == "two_mub_uniform"


def test_rate_at_zero_error_is_log2d():
    for d in (2, 5, 25):
        assert abs(rate_two_mub(d, 0.0).rate - math.log2(d)) < 1e-12


def test_two_mub_monotone_in_each_error():
    es = np.linspace(0.0, 0.25, 11)
    for e_b in (0.0, 0.1, 0.2):
        rates = [
            math.log2(25) - 2 * entropy_block_biased(25, float(e_u), e_b) for e_u in es
        ]
        assert np.all(np.diff(rates) < 1e-12)
    for e_u in (0.0, 0.1, 0.2):
        rates = [
            math.log2(25) - 2 * entropy_block_biased(25, e_u, float(e_b)) for e_b in es
        ]
        assert np.all(np.diff(rates) < 1e-12)


def test_report_validates_rate_bound():
    with pytest.raises(InvalidInputError):
        KeyRateReport("two_mub_uniform", 4, {}, rate=2.5, threshold=0.1)


# --- entropy dominance ------------------------------------------------------


@pytest.mark.parametrize("d", [4, 25])
def test_uniform_split_maximizes_entropy(d):
    # any block bias can only lower the entropy of the error distribution
    grid = np.linspace(0.0, 0.45, 50)
    for e_u in grid:
        for e_b in grid:
            total = e_u + e_b
            if total >= 1.0:
                continue
            assert entropy_block_biased(d, float(e_u), float(e_b)) <= (
                shannon_hd(float(total), d) + 1e-12
            )
    for total in (0.05, 0.1, 0.2, 0.3, 0.4):
        # equality exactly at the all-uniform split
        assert abs(entropy_block_biased(d, total, 0.0) - shannon_hd(total, d)) < 1e-12


# --- thresholds -------------------------------------------------------------


def test_threshold_qubit_two_basis():
    thr = threshold("two_mub_uniform", 2)
    assert abs(thr - 0.1100) < 5e-4
    assert abs(thr - 0.11002786443835955) < 1e-6  # frozen bisection oracle


def test_threshold_ordering_d25():
    uniform = threshold("two_mub_uniform", 25)
    block77 = threshold("two_mub_block", 25, block_fraction=0.77)
    all_block = threshold("two_mub_block", 25, block_fraction=1.0)
    assert uniform < block77 < all_block
    assert abs(all_block - 0.8) < 1e-5  # tangent root of the all-block profile


def test_threshold_depolarizing_exceeds_two_mub_at_d5():
    depol = threshold("depolarizing_all_mubs", 5)
    two = threshold("two_mub_uniform", 5)
    assert abs(depol - 0.25941097762488663) < 1e-6  # frozen regression values
    assert abs(two - 0.20986741124887381) < 1e-6
    assert depol > two


def test_threshold_monotone_in_dimension():
    thresholds = [threshold("two_mub_uniform", d) for d in range(2, 33)]
    assert np.all(np.diff(thresholds) >= -1e-12)


def test_threshold_requires_block_fraction():
    with pytest.raises(InvalidInputError):
        threshold("two_mub_block", 25)


def test_all_block_profile_touches_zero_tangentially():
    # log2(d) - 2*h of the all-block distribution reaches exactly zero at
    # its maximum-entropy point for every square d, so the tangent branch
    # of the root finder is the one that runs.
    for d in (4, 9, 25):
        side = math.isqrt(d)
        expected = (side - 1) / side
        assert abs(threshold("two_mub_block", d, block_fraction=1.0) - expected) < 1e-5


def scan_threshold(bound, d, f=0.0):
    """threshold() as it was before it used the rate's convexity: a
    2001-point scan, bisection on the first sign change, and a ternary
    search around the scan minimum when there is none."""
    def rate(e):
        return rate_on_profile(bound, d, e, f)

    lo = 1e-12
    hi = d / (d + 1) - 1e-9 if bound == "depolarizing_all_mubs" else 1.0 - 1e-6
    grid = np.linspace(lo, hi, 2001)
    values = np.array([rate(e) for e in grid])
    if values[0] <= 0.0:
        raise NoThresholdError("not positive at the start")
    nonpos = np.nonzero(values <= 0.0)[0]
    if nonpos.size:
        i = int(nonpos[0])
        a, b = float(grid[i - 1]), float(grid[i])
        for _ in range(200):
            mid = 0.5 * (a + b)
            v = rate(mid)
            if abs(v) < 1e-9:
                return mid
            if v > 0.0:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)
    i = int(np.argmin(values))
    a = float(grid[max(i - 1, 0)])
    b = float(grid[min(i + 1, len(grid) - 1)])
    for _ in range(200):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if rate(m1) < rate(m2):
            b = m2
        else:
            a = m1
    e_min = 0.5 * (a + b)
    if abs(rate(e_min)) < 1e-9:
        return e_min
    raise NoThresholdError("stays positive")


def test_threshold_matches_the_scan_reference():
    cases = [("two_mub_uniform", d, 0.0) for d in range(2, 65)]
    cases += [("two_mub_block", s * s, f) for s in range(2, 9) for f in (0.77, 1.0)]
    cases += [("depolarizing_all_mubs", d, 0.0) for d in range(2, 33)]
    for bound, d, f in cases:
        got = threshold(bound, d, block_fraction=f if bound == "two_mub_block" else None)
        assert abs(got - scan_threshold(bound, d, f)) < 1e-8, (bound, d, f)


@settings(max_examples=60, deadline=None)
@given(bound=st.sampled_from(BOUNDS), side=st.integers(2, 16), d=st.integers(2, 79),
       f=st.floats(0.0, 1.0))
def test_rate_is_convex_along_every_profile(bound, side, d, f):
    # the premise threshold() rests on: one minimum, no second descent
    if bound == "two_mub_block":
        d = side * side
    hi = d / (d + 1) - 1e-9 if bound == "depolarizing_all_mubs" else 1.0 - 1e-6
    rates = np.array([rate_on_profile(bound, d, float(e), f)
                      for e in np.linspace(1e-12, hi, 401)])
    assert np.diff(rates, 2).min() >= -1e-12  # rounding only


def test_near_tangent_profile_returns_a_root():
    f = 1.0 - 1e-12
    e = threshold("two_mub_block", 25, block_fraction=f)
    assert abs(rate_on_profile("two_mub_block", 25, e, f)) < ROOT_TOL


def test_threshold_curve_skips_nonsquare_blocks():
    rows = threshold_curve(range(2, 10))
    uniform_dims = {r["d"] for r in rows if r["block_fraction"] == 0.0}
    block_dims = {r["d"] for r in rows if r["block_fraction"] > 0.0}
    assert uniform_dims == set(range(2, 10))
    assert block_dims == {4, 9}


# --- subset statistics ------------------------------------------------------


def depolarizing_table(d, n_bases, e0):
    joint = np.full((d, d), e0 / (d * (d - 1)))
    np.fill_diagonal(joint, (1 - e0) / d)
    probs = np.empty((d, d, n_bases, n_bases))
    probs[:] = joint[:, :, None, None]
    return ProbabilityTable(d, probs)


def test_subset_stats_noiseless():
    bases = list(full_mub_set(5))
    table = ideal_prob_table(bases, [b.conjugate() for b in bases])
    stats = subset_stats(table)
    assert abs(stats.E) < 1e-12
    assert np.abs(stats.E_k).max() < 1e-12


def test_subset_stats_depolarizing():
    table = depolarizing_table(5, 6, 0.11)
    stats = subset_stats(table)
    assert abs(stats.E - 0.11) < 1e-12
    assert np.abs(stats.E_k - 0.11).max() < 1e-12
    assert stats.E_kl.shape == (6, 6)
    assert stats.E_abk.shape == (5, 5, 6)
    assert stats.E_abkl.shape == (5, 5, 6, 6)


def test_subset_stats_mean_identity():
    bases = list(full_mub_set(5))
    table = ideal_prob_table(bases, [b.conjugate() for b in bases])
    noisy = apply_noise(table, 0.2)
    stats = subset_stats(noisy)
    assert abs(stats.E - np.mean(np.diag(stats.E_kl))) < 1e-12


def test_subset_stats_rejects_unnormalized():
    table = depolarizing_table(4, 2, 0.1)
    table.probs[0, 0, 0, 0] += 0.1  # corrupt after construction
    with pytest.raises(InvalidInputError):
        subset_stats(table)


# --- curves -----------------------------------------------------------------


def test_rate_curve_starts_at_log2d():
    rows = rate_curve("two_mub_uniform", 25, np.linspace(0.0, 0.3, 7))
    assert abs(rows[0, 1] - math.log2(25)) < 1e-12


def test_rate_curve_block_dominates_uniform():
    grid = np.linspace(0.0, 0.4, 21)
    uniform = rate_curve("two_mub_uniform", 25, grid)
    block = rate_curve("two_mub_block", 25, grid, block_fraction=0.77)
    assert np.all(block[:, 1] - uniform[:, 1] >= -1e-12)


def test_rate_curve_passes_through_reference_point():
    rows = rate_curve("two_mub_block", 25, [0.321], block_fraction=0.248 / 0.321)
    assert abs(rows[0, 1] - 0.8167352325314843) < 1e-9


def test_curve_csv_round_trip(tmp_path):
    rows = rate_curve("two_mub_uniform", 5, np.linspace(0.0, 0.2, 9))
    path = tmp_path / "curve.csv"
    save_curve_csv(path, ["E", "rate"], rows.tolist(), {"bound": "two_mub_uniform", "d": 5})
    assert path.read_bytes().startswith(b"E,rate\r\n")
    again = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(rows, again)


def test_key_rate_writers_reject_non_finite_values(tmp_path):
    report = KeyRateReport("two_mub_uniform", 5, {"E": math.inf}, 1.0, 0.2)
    with pytest.raises(InvalidInputError, match="non-finite"):
        report.save_json(tmp_path / "report.json")
    with pytest.raises(InvalidInputError, match="non-finite"):
        save_curve_csv(tmp_path / "curve.csv", ["E", "rate"], [[0.0, 1.0]], {"d": math.nan})
    assert list(tmp_path.iterdir()) == []


def test_rates_never_nan_on_domain():
    for d in (4, 25):
        for e_u in np.linspace(0.0, 0.49, 12):
            for e_b in np.linspace(0.0, 0.49, 12):
                value = math.log2(d) - 2 * entropy_block_biased(d, float(e_u), float(e_b))
                assert math.isfinite(value)


def test_threshold_emits_no_warning_on_monotone_profiles():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        threshold("two_mub_uniform", 2)
        threshold("two_mub_block", 25, block_fraction=1.0)
