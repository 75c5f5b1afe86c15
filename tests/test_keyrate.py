import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdqkd import keyrate
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


def test_uniform_bound_rejects_a_block_fraction():
    # The uniform bound has no block error to split off: a nonzero fraction
    # is rejected, not read as f = 0 (rate 2.7889 at E_t = 0.1, d = 25).
    for call in (lambda: rate_curve("two_mub_uniform", 25, [0.1], block_fraction=0.9),
                 lambda: rate_on_profile("two_mub_uniform", 25, 0.1, 0.9),
                 lambda: threshold("two_mub_uniform", 25, block_fraction=0.9)):
        with pytest.raises(InvalidInputError, match="block_fraction 0.9"):
            call()
    assert rate_curve("two_mub_uniform", 25, [0.1], block_fraction=0.0)[0, 1] == (
        rate_two_mub(25, 0.1).rate)


def test_all_block_profile_touches_zero_tangentially():
    # log2(d) - 2*h of the all-block distribution reaches exactly zero at
    # its maximum-entropy point for every square d, so the tangent branch
    # of the root finder is the one that runs.  Rounding leaves the rate a
    # hair below zero near that point; a search that stopped at the first
    # probe below 0, not below -ROOT_TOL, would bisect to a point ~1e-5 off.
    for side in range(2, 23):
        expected = (side - 1) / side
        got = threshold("two_mub_block", side * side, block_fraction=1.0)
        assert abs(got - expected) < 1e-6, side * side


def test_threshold_builds_its_profile_once_and_evaluates_it_few_times(monkeypatch):
    # Convexity lets the search stop at the first probe past the root; a
    # search run to the rate's minimum takes about 210 evaluations.
    build, built, evaluations = keyrate._profile_rate, [0], [0]

    def counted(*args):
        rate = build(*args)
        built[0] += 1

        def counted_rate(e):
            evaluations[0] += 1
            return rate(e)
        return counted_rate

    monkeypatch.setattr(keyrate, "_profile_rate", counted)
    cases = [("two_mub_uniform", d, None) for d in range(2, 65)]
    cases += [("two_mub_block", side * side, 0.77) for side in range(2, 9)]
    for bound, d, f in cases:
        built[0] = evaluations[0] = 0
        threshold(bound, d, block_fraction=f)
        assert built[0] == 1 and evaluations[0] <= 60, (bound, d, f, evaluations[0])


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
    if bound == "two_mub_uniform":
        f = 0.0  # the uniform profile has no block part
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


LOCKSTEP_FRACTIONS = (0.0, 0.3, 0.77, 0.9, 1.0 - 1e-12, 1.0)


def lockstep_lanes(dims):
    return [(d, f) for d in dims for f in LOCKSTEP_FRACTIONS
            if f == 0.0 or (d >= 4 and math.isqrt(d) ** 2 == d)]


def scalar_thresholds(lanes):
    """threshold() on each lane, NaN where it finds none."""
    out = []
    for d, f in lanes:
        try:
            out.append(threshold("two_mub_block" if f > 0.0 else "two_mub_uniform", d,
                                 block_fraction=f if f > 0.0 else None))
        except NoThresholdError:
            out.append(math.nan)
    return np.array(out)


def test_lockstep_thresholds_match_threshold():
    # numpy.log2 and math.log2 round apart on ~0.1% of arguments, which can
    # flip one comparison of a search; the roots then differ in the last bits.
    lanes = lockstep_lanes(range(2, 2049))
    got = keyrate._lockstep_thresholds(*zip(*lanes))
    want = scalar_thresholds(lanes)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.nanmax(np.abs(got - want)) <= 1e-12


def lockstep_and_scalar(monkeypatch, rate, lanes):
    """_lockstep_thresholds and threshold() on lanes, both searching rate(e, d, f)."""
    monkeypatch.setattr(keyrate, "_lane_rates", lambda e, d, side, f, log2_d: rate(e, d, f))
    monkeypatch.setattr(keyrate, "_profile_rate", lambda bound, d, f: lambda e: rate(e, d, f))
    return keyrate._lockstep_thresholds(*zip(*lanes)), scalar_thresholds(lanes)


def test_lockstep_threshold_search_takes_the_scalar_steps(monkeypatch):
    # On a rate made of +, - and * alone both searches round alike, so they
    # must agree bit for bit on every branch: a root past a probe, a tangent
    # minimum, a minimum above zero (no threshold) and a start at or below
    # zero (no threshold).
    def parabola(e, d, f):
        centre = 0.1 + 0.8 * f
        return (e - centre) * (e - centre) - centre * centre * ((d % 4) - 1) * 0.5

    lanes = lockstep_lanes(range(2, 40))
    got, want = lockstep_and_scalar(monkeypatch, parabola, lanes)
    assert np.array_equal(got, want, equal_nan=True)
    assert 0 < np.isnan(want).sum() < len(lanes)

    # The rate is 1 but for -1 at the midpoint that nine ternary rounds of
    # a = m1 end at.  With the searches cut to nine rounds, no probe gets
    # past the root, the minimum is below zero, and the bisection from
    # _BISECT_LO runs to its cap and returns a tenth midpoint of [lo, dip].
    monkeypatch.setattr(keyrate, "_MAX_ITER", 9)
    a, b = keyrate._BISECT_LO, keyrate._BISECT_HI
    for _ in range(9):
        a = a + (b - a) / 3.0
    dip, capped = 0.5 * (a + b), keyrate._BISECT_LO
    for _ in range(10):
        capped = 0.5 * (capped + dip)
    got, want = lockstep_and_scalar(monkeypatch, lambda e, d, f: 1.0 - 2.0 * (e == dip),
                                    [(2, 0.0), (4, 0.3), (9, 1.0)])
    assert np.array_equal(got, want) and np.all(want == capped)


def test_threshold_curve_searches_in_few_vectorized_rate_calls(monkeypatch):
    calls, lane_rates = [0], keyrate._lane_rates

    def counted(*args):
        calls[0] += 1
        return lane_rates(*args)

    def scalar(*args, **kwargs):
        raise AssertionError("threshold_curve ran a scalar search")

    monkeypatch.setattr(keyrate, "_lane_rates", counted)
    monkeypatch.setattr(keyrate, "threshold", scalar)
    rows = threshold_curve(range(2, 513))
    assert len(rows) == 511 + 2 * 21
    assert calls[0] <= 150


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
