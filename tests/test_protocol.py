import contextlib
import csv
import hashlib
import io
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdqkd import protocol
from hdqkd.cli import main

from hdqkd.errors import (
    InsufficientDataError,
    InvalidConfigError,
    InvalidDimensionError,
    InvalidInputError,
    InvalidNoiseError,
)
from hdqkd.mub import Basis, computational_basis, dft_basis, full_mub_set, sqrt_mub_pair
from hdqkd.protocol import (
    CountTable,
    ProbabilityTable,
    SessionRecord,
    apply_noise,
    decompose_errors,
    ideal_prob_table,
    load_counts_csv,
    normalize_counts,
    sample_counts,
    save_counts_csv,
    simulate_session,
)


def entangled_table(bases):
    return ideal_prob_table(bases, [b.conjugate() for b in bases])


# --- ideal probabilities ----------------------------------------------------


def test_matched_settings_perfectly_correlated():
    table = entangled_table(list(full_mub_set(5)))
    for k in range(1, 7):
        assert np.abs(table.probs[:, :, k - 1, k - 1] - np.eye(5) / 5).max() < 1e-12


def test_mismatched_mub_settings_are_flat():
    table = entangled_table(list(full_mub_set(5)))
    for k in range(1, 7):
        for l in range(1, 7):
            if k != l:
                assert np.abs(table.probs[:, :, k - 1, l - 1] - 1 / 25).max() < 1e-10


def test_dimension_one_table():
    table = entangled_table([computational_basis(1)])
    assert table.probs.shape == (1, 1, 1, 1)
    assert abs(table.probs[0, 0, 0, 0] - 1.0) < 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probability_table_rejects_non_finite(bad):
    probs = np.full((2, 2, 1, 1), 0.25)
    with pytest.raises(InvalidInputError):
        ProbabilityTable(2, np.full((2, 2, 1, 1), bad))
    probs[0, 1, 0, 0] = bad
    with pytest.raises(InvalidInputError):
        ProbabilityTable(2, probs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_count_table_rejects_non_finite(bad):
    with pytest.raises(InvalidInputError):
        CountTable(2, np.full((2, 2, 1, 1), bad), 1.0)


@pytest.mark.parametrize("bad", [1.7, 1e30, 2.0**63, np.uint64(2**63), 2**70, 1 + 0j])
def test_count_table_rejects_counts_int64_cannot_hold(bad):
    with pytest.raises(InvalidInputError):
        CountTable(2, np.full((2, 2, 1, 1), bad), 1.0)


@pytest.mark.parametrize("good", [3.0, 2.0**62, np.int64(2**63 - 1), np.uint64(5)])
def test_count_table_keeps_integral_counts_exactly(good):
    counts = CountTable(2, np.full((2, 2, 1, 1), good), 1.0).counts
    assert counts.dtype == np.int64 and (counts == int(good)).all()


def test_ideal_table_rejects_mixed_dims():
    with pytest.raises(InvalidInputError):
        ideal_prob_table([dft_basis(3)], [dft_basis(4)])


def reference_prob_table(alice, bob):
    """ideal_prob_table's products one (k, l) setting at a time."""
    d = alice[0].dim
    probs = np.empty((d, d, len(alice), len(bob)))
    for k, a_k in enumerate(alice):
        for l, b_l in enumerate(bob):
            m = a_k.amplitudes.conj().T @ b_l.amplitudes.conj()
            probs[:, :, k, l] = np.abs(m.T) ** 2 / d
    return probs


def random_bases(d, count, seed):
    rng = np.random.default_rng(seed)
    shape = (count, d, d)
    unitaries = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
    return [Basis(d, u) for u in unitaries]


@pytest.mark.parametrize("alice, bob", [
    pytest.param(list(full_mub_set(7)), [b.conjugate() for b in full_mub_set(7)], id="7-all"),
    pytest.param(list(sqrt_mub_pair(25)), [b.conjugate() for b in sqrt_mub_pair(25)], id="25-pair"),
    pytest.param(random_bases(6, 3, 0), random_bases(6, 4, 1), id="6-random-3x4"),
    pytest.param([dft_basis(5)], random_bases(5, 2, 2), id="5-random-1x2"),
])
def test_ideal_table_matches_per_setting_products(alice, bob):
    assert np.array_equal(ideal_prob_table(alice, bob).probs, reference_prob_table(alice, bob))


# --- noise injection ----------------------------------------------------------


def test_zero_noise_leaves_ideal_table_unchanged():
    table = entangled_table(list(sqrt_mub_pair(25)))
    noisy = apply_noise(table, 0.0)
    assert np.array_equal(noisy.probs, table.probs)


def test_uniform_noise_spreads_evenly():
    table = entangled_table(list(full_mub_set(5)))
    noisy = apply_noise(table, 0.2)
    cond = noisy.probs[:, :, 0, 0] * 5
    assert abs(cond[0, 0] - 0.8) < 1e-12
    off = cond[~np.eye(5, dtype=bool)]
    assert np.abs(off - 0.2 / 4).max() < 1e-12


def test_block_noise_three_term_structure():
    table = entangled_table(list(sqrt_mub_pair(25)))
    noisy = apply_noise(table, 0.073, 0.248, alignments=["row", "col"])
    cond = noisy.probs[:, :, 0, 0] * 25
    # sent state 1 sits in grid row 1 = flat states 1..5
    assert abs(cond[0, 0] - (1 - 0.321)) < 1e-12
    assert abs(cond[1, 0] - (0.248 / 4 + 0.073 / 24)) < 1e-12
    assert abs(cond[5, 0] - 0.073 / 24) < 1e-12
    # mismatched settings untouched
    assert np.abs(noisy.probs[:, :, 0, 1] - table.probs[:, :, 0, 1]).max() == 0.0


def test_apply_noise_preserves_normalization():
    table = entangled_table(list(sqrt_mub_pair(9)))
    noisy = apply_noise(table, 0.4 * (1 - 0.6), 0.4 * 0.6)
    sums = noisy.probs.sum(axis=(0, 1))
    assert np.abs(sums - 1.0).max() < 1e-12


def test_noise_model_validation():
    table = entangled_table(list(sqrt_mub_pair(9)))
    with pytest.raises(InvalidNoiseError):
        apply_noise(table, 1.0)
    with pytest.raises(InvalidNoiseError):
        apply_noise(table, 0.3 * (1 - 1.5), 0.3 * 1.5)


@pytest.mark.parametrize("e_u, e_b, name", [
    (-0.1, 0.2, "uniform"), (0.2, -0.1, "block"), (np.nan, 0.1, "uniform"),
    (0.1, np.nan, "block"), (0.6, 0.4, "total"), (np.inf, 0.0, "total"),
])
def test_apply_noise_names_the_bad_component(e_u, e_b, name):
    table = entangled_table(list(sqrt_mub_pair(9)))
    with pytest.raises(InvalidNoiseError, match=name):
        apply_noise(table, e_u, e_b)


@pytest.mark.parametrize("alignments", [["row"], ["row", "col", "diag"]])
def test_apply_noise_needs_one_alignment_per_matched_setting(alignments):
    table = entangled_table(list(sqrt_mub_pair(9)))
    with pytest.raises(InvalidInputError, match="alignment per matched setting"):
        apply_noise(table, 0.1, 0.1, alignments)


def test_apply_noise_needs_a_wrong_outcome():
    table = entangled_table([computational_basis(1)])
    assert apply_noise(table, 0.0) is table
    with pytest.raises(InvalidNoiseError):
        apply_noise(table, 0.1)


def test_decompose_errors_needs_blocks():
    # d=1 has no mode outside a block to estimate the uniform error from
    with pytest.raises(InvalidDimensionError):
        decompose_errors(entangled_table([computational_basis(1)]))


def test_block_noise_needs_square_dimension():
    table = entangled_table(list(full_mub_set(5)))
    with pytest.raises(InvalidDimensionError):
        apply_noise(table, 0.3 * (1 - 0.5), 0.3 * 0.5)


# --- decomposition ------------------------------------------------------------


def test_uniform_noise_decomposes_to_zero_block():
    table = entangled_table(list(sqrt_mub_pair(25)))
    noisy = apply_noise(table, 0.25, alignments=["row", "col"])
    dec = decompose_errors(noisy, 1, "row")
    assert abs(dec.total_error - 0.25) < 1e-12
    assert abs(dec.block_error) < 1e-9
    assert not dec.clamped


@pytest.mark.parametrize("d", [4, 9, 25])
def test_decompose_inverts_apply_noise(d):
    table = entangled_table(list(sqrt_mub_pair(d)))
    for e_u in (0.0, 0.05, 0.2):
        for e_b in (0.0, 0.1, 0.3):
            if e_u + e_b == 0.0:
                continue
            for setting, alignment in ((1, "row"), (2, "col")):
                noisy = apply_noise(table, e_u, e_b, alignments=["row", "col"])
                dec = decompose_errors(noisy, setting, alignment)
                assert abs(dec.total_error - (e_u + e_b)) < 1e-9
                assert abs(dec.uniform_error - e_u) < 1e-9
                assert abs(dec.block_error - e_b) < 1e-9


def test_decompose_flags_inconsistent_tables():
    # all the error mass outside the block: the rescaled uniform estimate
    # overshoots the total and the block part comes out negative
    d, side = 9, 3
    cond = np.zeros((d, d))
    for b in range(d):
        cond[b, b] = 0.7
        out = [a for a in range(d) if a // side != b // side]
        for a in out:
            cond[a, b] = 0.3 / len(out)
    probs = (cond / d)[:, :, None, None]
    dec = decompose_errors(ProbabilityTable(d, probs), 1, "row")
    assert dec.clamped
    assert dec.block_error < 0.0
    assert abs(dec.uniform_error + dec.block_error - dec.total_error) < 1e-12


def test_decompose_alignment_matters():
    table = entangled_table(list(sqrt_mub_pair(9)))
    noisy = apply_noise(table, 0.0, 0.3)
    wrong = decompose_errors(noisy, 1, "col")  # noise was row-aligned
    assert abs(wrong.block_error - 0.3) > 0.01
    with pytest.raises(InvalidInputError, match="one alignment per matched setting"):
        decompose_errors(noisy, 1, "diag")


# --- Poisson sampling ---------------------------------------------------------


def test_zero_rates_give_zero_counts():
    table = entangled_table(list(sqrt_mub_pair(4)))
    counts = sample_counts(table, 0.0, 10.0, 0.0, seed=1)
    assert counts.counts.sum() == 0


def test_sampling_is_reproducible():
    table = entangled_table(list(sqrt_mub_pair(9)))
    a = sample_counts(table, 1e3, 50.0, 10.0, seed=99)
    b = sample_counts(table, 1e3, 50.0, 10.0, seed=99)
    c = sample_counts(table, 1e3, 50.0, 10.0, seed=100)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_sampled_frequencies_match_table():
    # >= 1e6 expected counts per setting; compare via a chi-square statistic
    # against its normal approximation at the 0.1% level
    table = apply_noise(
        entangled_table(list(sqrt_mub_pair(25))),
        0.073,
        0.248,
        alignments=["row", "col"],
    )
    n_expected = 1e6
    counts = sample_counts(table, n_expected, 1.0, seed=2024)
    mean = n_expected * table.probs
    live = mean > 0
    chi2 = float(((counts.counts[live] - mean[live]) ** 2 / mean[live]).sum())
    dof = int(live.sum())
    assert chi2 < dof + 3.29 * math.sqrt(2 * dof)  # 0.1% one-sided normal bound


def test_accidentals_fill_forbidden_outcomes():
    table = entangled_table(list(sqrt_mub_pair(4)))
    counts = sample_counts(table, 0.0, 1000.0, accidental_rate=100.0, seed=5)
    # matched-basis off-diagonal entries are impossible without accidentals
    off = counts.counts[:, :, 0, 0][~np.eye(4, dtype=bool)]
    assert off.sum() > 0


@pytest.mark.parametrize("pair_rate, time, accidental_rate, message", [
    (math.nan, 1.0, 0.0, "pair rate"),
    (math.inf, 1.0, 0.0, "pair rate"),
    (-1.0, 1.0, 0.0, "pair rate"),
    (1.0, 1.0, math.nan, "accidental rate"),
    (1.0, 1.0, math.inf, "accidental rate"),
    (1.0, math.nan, 0.0, "integration time"),
    (1.0, math.inf, 0.0, "integration time"),
    (1.0, 0.0, 0.0, "integration time"),
    (1e300, 1.0, 0.0, "Poisson"),  # a finite mean numpy cannot sample
])
def test_sample_counts_rejects_what_it_cannot_sample(pair_rate, time, accidental_rate, message):
    table = entangled_table([computational_basis(2)])
    with pytest.raises(InvalidInputError, match=message):
        sample_counts(table, pair_rate, time, accidental_rate)


def test_negative_seed_is_rejected():
    table = entangled_table([computational_basis(2)])
    with pytest.raises(InvalidInputError, match="seed -1"):
        sample_counts(table, 1.0, 1.0, seed=-1)
    with pytest.raises(InvalidInputError, match="seed -1"):
        simulate_session(table, 10, seed=-1)


# --- normalization ------------------------------------------------------------


def test_normalize_is_scale_invariant():
    # counts proportional to an exact table recover that table exactly
    rng = np.random.default_rng(9)
    counts = rng.integers(1, 500, size=(4, 4, 2, 2))
    base = normalize_counts(CountTable(4, counts, integration_time=1.0))
    scaled = normalize_counts(CountTable(4, counts * 7, integration_time=7.0))
    assert np.array_equal(base.probs, scaled.probs)


def test_normalize_single_count_identity():
    d = 3
    counts = np.zeros((d, d, 1, 1), dtype=np.int64)
    for a in range(d):
        counts[a, a, 0, 0] = 1
    table = normalize_counts(CountTable(d, counts, integration_time=1.0))
    assert np.abs(table.probs[:, :, 0, 0] - np.eye(d) / d).max() < 1e-15


def test_normalize_names_missing_sent_state():
    counts = np.ones((3, 3, 2, 2), dtype=np.int64)
    counts[:, 1, 0, 1] = 0
    with pytest.raises(InsufficientDataError, match=r"b=2.*k=1.*l=2"):
        normalize_counts(CountTable(3, counts, integration_time=1.0))


def test_sample_then_normalize_round_trip():
    table = apply_noise(
        entangled_table(list(sqrt_mub_pair(9))), 0.05, 0.15
    )
    counts = sample_counts(table, 5e5, 1.0, seed=31)
    recovered = normalize_counts(counts)
    # conditional entries carry Poisson noise sqrt(p_cond / N_per_state)
    cond_err = np.abs(recovered.probs - table.probs) * 9
    sigma = np.sqrt(table.probs * 9 / (5e5 / 9)) + 1e-6
    assert np.all(cond_err < 6 * sigma)


# --- sessions -----------------------------------------------------------------


def test_noiseless_session_statistics():
    bases = [computational_basis(2), dft_basis(2)]
    record = simulate_session(entangled_table(bases), 40000, seed=3)
    sift = record.sifted_fraction
    sigma = math.sqrt(0.25 / 40000)
    assert abs(sift - 0.5) < 3 * sigma
    assert record.qber == 0.0


def test_single_round_session():
    record = simulate_session(entangled_table([computational_basis(3)]), 1, seed=0)
    assert record.n_rounds == 1
    assert record.sifted_fraction == 1.0


def test_session_reproducible():
    bases = list(sqrt_mub_pair(9))
    a = simulate_session(apply_noise(entangled_table(bases), 0.1, 0.1), 500, seed=8)
    b = simulate_session(apply_noise(entangled_table(bases), 0.1, 0.1), 500, seed=8)
    assert np.array_equal(a.bob_symbol, b.bob_symbol)
    assert np.array_equal(a.alice_basis, b.alice_basis)


def test_session_qber_tracks_noise():
    bases = list(sqrt_mub_pair(25))
    table = apply_noise(entangled_table(bases), 0.073, 0.248, alignments=["row", "col"])
    record = simulate_session(table, 200000, seed=12)
    n_sifted = int(record.sifted.sum())
    sigma = math.sqrt(0.321 * 0.679 / n_sifted)
    assert abs(record.qber - 0.321) < 3 * sigma


def test_session_rejects_empty_and_bad_rounds():
    with pytest.raises(InvalidConfigError):
        simulate_session(ProbabilityTable(2, np.full((2, 2, 1, 2), 0.25)), 10)
    with pytest.raises(InvalidConfigError):
        simulate_session(entangled_table([computational_basis(2)]), 0)


# --- serialization ------------------------------------------------------------


def test_counts_csv_round_trip(tmp_path):
    table = entangled_table(list(sqrt_mub_pair(4)))
    counts = sample_counts(table, 500.0, 10.0, 5.0, seed=77, alignments=["col", "row"])
    assert CountTable(4, counts.counts, 10.0).alignments == ("row", "col")  # the default
    path = tmp_path / "counts.csv"
    save_counts_csv(counts, path)
    again = load_counts_csv(path)
    assert np.array_equal(again.counts, counts.counts)
    assert again.integration_time == counts.integration_time
    assert again.coincidence_window == counts.coincidence_window
    assert again.seed == 77
    assert again.alignments == ("col", "row")


def test_counts_csv_rejects_a_non_finite_sidecar(tmp_path):
    counts = CountTable(2, np.zeros((2, 2, 1, 1), dtype=np.int64), 1.0)
    object.__setattr__(counts, "integration_time", math.inf)  # after the table checked it
    with pytest.raises(InvalidInputError, match="non-finite"):
        save_counts_csv(counts, tmp_path / "counts.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field, value", [
    ("integration_time", math.inf), ("integration_time", math.nan), ("integration_time", 0.0),
    ("integration_time", -5), ("integration_time", "abc"), ("integration_time", True),
    ("coincidence_window", [1]), ("coincidence_window", -1e-9), ("coincidence_window", None),
    ("seed", -1), ("seed", "x"), ("seed", 1.0), ("seed", True),
    ("generator", 7), ("generator", None),
])
def test_count_table_checks_its_metadata(field, value):
    metadata = {"integration_time": 1.0, field: value}
    with pytest.raises(InvalidInputError, match=f"^{field} "):
        CountTable(2, np.ones((2, 2, 1, 1), dtype=np.int64), **metadata)


def test_count_table_takes_json_metadata():
    counts = CountTable(2, np.ones((2, 2, 1, 1), dtype=np.int64), 2, 1e-9, seed=0,
                        generator="other")
    assert (counts.integration_time, counts.coincidence_window) == (2, 1e-9)
    assert (counts.seed, counts.generator) == (0, "other")
    assert CountTable(2, counts.counts, np.float64(0.5)).seed is None


def test_session_jsonl_round_trip(tmp_path):
    record = simulate_session(entangled_table(list(sqrt_mub_pair(4))), 200, seed=4)
    path = tmp_path / "session.jsonl"
    record.save_jsonl(path)
    again = SessionRecord.load_jsonl(path, dim=4, seed=4)
    assert np.array_equal(again.alice_basis, record.alice_basis)
    assert np.array_equal(again.bob_basis, record.bob_basis)
    assert np.array_equal(again.alice_symbol, record.alice_symbol)
    assert np.array_equal(again.bob_symbol, record.bob_symbol)
    assert again.qber == record.qber


def test_session_jsonl_defaults_to_unknown_seed(tmp_path):
    record = simulate_session(entangled_table(list(sqrt_mub_pair(4))), 20, seed=4)
    record.save_jsonl(tmp_path / "session.jsonl")
    assert SessionRecord.load_jsonl(tmp_path / "session.jsonl", dim=4).seed is None


@pytest.mark.parametrize("column", ["alice_basis", "bob_basis", "alice_symbol", "bob_symbol"])
def test_session_jsonl_rejects_a_negative_entry_before_opening_the_file(tmp_path, column):
    # 40000 rounds span three 16384-row blocks, and the bad entry is in the last
    record = simulate_session(entangled_table(list(sqrt_mub_pair(4))), 40000, seed=4)
    getattr(record, column)[-1] = -1
    path = tmp_path / "session.jsonl"
    with pytest.raises(InvalidInputError, match="negative"):
        record.save_jsonl(path)
    assert not path.exists()


def test_counts_csv_rejects_a_negative_count_before_opening_the_file(tmp_path):
    counts = CountTable(2, np.ones((2, 2, 1, 1), dtype=np.int64), 1.0)
    counts.counts[0, 0, 0, 0] = -1  # after the table checked its counts
    path = tmp_path / "counts.csv"
    with pytest.raises(InvalidInputError, match="negative"):
        save_counts_csv(counts, path)
    assert not path.exists()


def reference_session(table, n_rounds, seed):
    """simulate_session's outcome draws with one full-array scan per setting."""
    d, n_bases = table.dim, table.bases_alice
    rng = np.random.Generator(np.random.Philox(seed))
    uniform = np.full(n_bases, 1.0 / n_bases)
    k_arr = rng.choice(n_bases, size=n_rounds, p=uniform)
    l_arr = rng.choice(n_bases, size=n_rounds, p=uniform)
    alice = np.zeros(n_rounds, dtype=np.int64)
    bob = np.zeros(n_rounds, dtype=np.int64)
    for k in range(n_bases):
        for l in range(n_bases):
            idx = np.nonzero((k_arr == k) & (l_arr == l))[0]
            if idx.size == 0:
                continue
            joint = table.probs[:, :, k, l].ravel()
            flat = rng.choice(d * d, size=idx.size, p=joint / joint.sum())
            bob[idx] = flat // d + 1
            alice[idx] = flat % d + 1
    return k_arr + 1, l_arr + 1, alice, bob


# Outcome draws per setting against the guide table's 4 len(cdf) bins or
# more: 4-pair 750 vs 64, 5-all about 83 vs 128 (searchsorted), 9-pair
# 750 vs 512, the d=25 block-noise pair 50k vs 4096, and one basis (one
# setting) 3000 vs 256.
@pytest.mark.parametrize("d, family, noise, n_rounds", [
    pytest.param(4, "pair", (0.2, 0.0), 3000, id="4-pair"),
    pytest.param(5, "all", (0.2, 0.0), 3000, id="5-all"),
    pytest.param(9, "pair", (0.2, 0.0), 3000, id="9-pair"),
    pytest.param(25, "pair", (0.073, 0.248), 200_000, id="25-pair-block"),
    pytest.param(7, "one", (0.2, 0.0), 3000, id="7-one-basis"),
])
def test_session_grouping_matches_per_setting_scans(d, family, noise, n_rounds):
    bases = {"pair": lambda: list(sqrt_mub_pair(d)), "all": lambda: list(full_mub_set(d)),
             "one": lambda: [dft_basis(d)]}[family]()
    alignments = ["row", "col"] if noise[1] else ["row"] * len(bases)
    table = apply_noise(entangled_table(bases), *noise, alignments=alignments)
    probs = table.probs.copy()
    record = simulate_session(table, n_rounds, seed=21)
    assert np.array_equal(table.probs, probs)  # the table is left as it was
    want = reference_session(table, n_rounds, 21)
    got = (record.alice_basis, record.bob_basis, record.alice_symbol, record.bob_symbol)
    for column, expected in zip(got, want):
        assert np.array_equal(column, expected)
        assert column.dtype == expected.dtype


def choice_cdf(p):
    """The cumulative p that Generator.choice searches."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


ADVERSARIAL_P = {
    "one": [1.0],
    "halves": [0.5, 0.5],
    "zeros": [0.0, 0.0, 0.3, 0.0, 0.7, 0.0, 0.0],  # zero-probability entries everywhere
    "tiny-first": [1e-300, 1.0, 0.0],
    "clustered": [1e-9] * 300 + [1.0],  # 300 boundaries in one guide bin
    "thirds": [1 / 3] * 3,
    "dirichlet": list(np.random.default_rng(5).dirichlet(np.full(625, 0.05))),
}


@pytest.mark.parametrize("p", ADVERSARIAL_P.values(), ids=ADVERSARIAL_P.keys())
def test_inverse_cdf_is_searchsorted_right(p):
    cdf = choice_cdf(p)
    inside = cdf[cdf < 1.0]
    edges = np.concatenate([np.arange(2**b) / 2**b for b in range(13)])  # every guide's bins
    draws = np.concatenate([
        [0.0, np.nextafter(0.0, 1.0), 0.5, np.nextafter(1.0, 0.0)],
        inside, np.nextafter(inside, 0.0), np.nextafter(inside, 1.0),
        edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
        np.random.default_rng(0).random(1000),
    ])
    assert draws.min() >= 0.0 and draws.max() < 1.0
    # Single draws take searchsorted; the whole tiled set takes the guide table.
    many = np.tile(draws, 1 + 64 * len(cdf) // len(draws))
    for u in [many, draws, *draws[:40, None]]:
        got = protocol._inverse_cdf(cdf, u)
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))


# --- byte format ----------------------------------------------------------------

# sha256 of the files golden_files() writes, recorded with the per-row
# json.dumps / csv.writer serializers under numpy 2.4 (the session and the
# counts also pin numpy's Philox choice and poisson streams).
GOLDEN = {
    "session.jsonl": "6a897196a4723384770739c0d38fb95495d83cb6f3201df072d1da64807de2a6",
    "counts.csv": "3ad8a07547afaef20711c4588894657f2f46a23b87ea16c26545510de952ec61",
}


def golden_files(out):
    bases = list(sqrt_mub_pair(4))
    table = apply_noise(entangled_table(bases), 0.1, 0.05, ["row", "col"])
    simulate_session(table, 300, seed=7).save_jsonl(out / "session.jsonl")
    counts = sample_counts(table, 2000.0, 1.0, 50.0, seed=7)
    save_counts_csv(counts, out / "counts.csv")


def test_written_bytes_match_golden_digests(tmp_path):
    golden_files(tmp_path)
    for name, digest in GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def reference_jsonl(k, l, alice, bob) -> bytes:
    lines = [
        json.dumps({"round": i + 1, "k": int(k[i]), "l": int(l[i]), "alice": int(alice[i]),
                    "bob": int(bob[i]), "sifted": bool(k[i] == l[i])}) + "\n"
        for i in range(len(k))
    ]
    return "".join(lines).encode()


def reference_csv(array) -> bytes:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["a", "b", "k", "l", "value"])
    d1, d2, nk, nl = array.shape
    for k in range(nk):
        for l in range(nl):
            for a in range(d1):
                for b in range(d2):
                    writer.writerow([a + 1, b + 1, k + 1, l + 1, int(array[a, b, k, l])])
    return fh.getvalue().encode()


@contextlib.contextmanager
def small_blocks():
    """Blocks of a few rows, so that small files cross block boundaries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_BLOCK_ROWS", 3)
        mp.setattr(protocol, "_BLOCK_BYTES", 50)
        yield


@st.composite
def sessions(draw):
    dim = draw(st.integers(1, 40))
    n_bases = draw(st.integers(1, 12))
    n = draw(st.integers(0, 40))
    basis = st.lists(st.integers(1, n_bases), min_size=n, max_size=n)
    symbol = st.lists(st.integers(1, dim), min_size=n, max_size=n)
    columns = [np.array(draw(s), dtype=np.int64) for s in (basis, basis, symbol, symbol)]
    return SessionRecord(dim, *columns, seed=None)


@st.composite
def shapes(draw):
    return draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(record=sessions())
def test_session_jsonl_round_trip_property(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("jsonl") / "session.jsonl"
    with small_blocks():
        record.save_jsonl(path)
        again = SessionRecord.load_jsonl(path, record.dim)
    columns = (record.alice_basis, record.bob_basis, record.alice_symbol, record.bob_symbol)
    assert path.read_bytes() == reference_jsonl(*columns)
    for got, want in zip((again.alice_basis, again.bob_basis, again.alice_symbol,
                          again.bob_symbol), columns):
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(record=sessions())
def test_qber_counts_sifted_mismatches(record):
    mask = record.alice_basis == record.bob_basis
    if mask.any():
        assert record.qber == float((record.alice_symbol[mask] != record.bob_symbol[mask]).mean())
    else:
        assert math.isnan(record.qber)


@pytest.mark.parametrize("seed", range(4))
def test_qber_of_long_random_records(seed):
    rng = np.random.default_rng(seed)
    n, n_bases, dim = 100_000 + seed, 1 + seed, 2 + 3 * seed
    k, l = rng.integers(1, n_bases + 1, (2, n))
    alice, bob = rng.integers(1, dim + 1, (2, n))
    record = SessionRecord(dim, k, l, alice, bob, seed)
    mask = k == l
    assert record.qber == float((alice[mask] != bob[mask]).mean())


@settings(max_examples=60, deadline=None)
@given(shape=shapes(), data=st.data())
def test_counts_csv_round_trip_property(tmp_path_factory, shape, data):
    d, nk, nl = shape
    values = data.draw(st.lists(st.integers(0, 2**63 - 1) | st.integers(0, 2**31 + 9),
                                min_size=d * d * nk * nl, max_size=d * d * nk * nl))
    counts = CountTable(d, np.array(values, dtype=np.int64).reshape(d, d, nk, nl), 1.5)
    path = tmp_path_factory.mktemp("counts") / "counts.csv"
    with small_blocks():
        save_counts_csv(counts, path)
        again = load_counts_csv(path)
    assert path.read_bytes() == reference_csv(counts.counts)
    assert np.array_equal(again.counts, counts.counts)


# Values at the edges of the renderer's digit widths and of its uint32
# (up to 9 digits) and int64 paths.
EDGE_VALUES = [9, 10, 999_999_999, 10**9, 2**32 - 1, 2**32, 2**63 - 1]


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_counts_csv_round_trips_width_edges(tmp_path, value):
    # 3-row blocks: the first holds 0, 1 and the value, the second 10**9, so
    # below 10**9 a uint32-path block sits next to an int64-path block
    values = np.array([0, 1, value, 2, 10**9, 3, value, 0], dtype=np.int64)
    counts = CountTable(2, values.reshape(2, 2, 2, 1), 1.0)
    path = tmp_path / "counts.csv"
    with small_blocks():
        save_counts_csv(counts, path)
        again = load_counts_csv(path)
    assert path.read_bytes() == reference_csv(counts.counts)
    assert np.array_equal(again.counts, counts.counts)


def test_session_jsonl_round_trips_two_digit_bases(tmp_path):
    rounds = 12  # every 3-row block mixes one- and two-digit bases
    k = np.array([10, 1, 12, 9, 10, 11, 1, 2, 12, 10, 9, 11])
    l = np.array([10, 9, 12, 10, 1, 11, 1, 12, 3, 10, 9, 1])
    alice = np.arange(rounds) % 11 + 1
    bob = np.arange(rounds)[::-1] % 11 + 1
    record = SessionRecord(11, k, l, alice, bob, seed=None)
    path = tmp_path / "session.jsonl"
    with small_blocks():
        record.save_jsonl(path)
        again = SessionRecord.load_jsonl(path, 11)
    assert path.read_bytes() == reference_jsonl(k, l, alice, bob)
    for got, want in zip((again.alice_basis, again.bob_basis, again.alice_symbol,
                          again.bob_symbol), (k, l, alice, bob)):
        assert np.array_equal(got, want)


# --- malformed files --------------------------------------------------------------


def _edit_lines(path, edit):
    lines = path.read_bytes().split(b"\r\n")[:-1]
    edit(lines)
    path.write_bytes(b"".join(line + b"\r\n" for line in lines))


def _edit_sidecar(path, **changes):
    meta_path = path.with_name(path.name + ".meta.json")
    meta = json.loads(meta_path.read_text())
    for key, value in changes.items():
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    meta_path.write_text(json.dumps(meta))


def _swap(lines, i, j):
    lines[i], lines[j] = lines[j], lines[i]


def _set_value(lines, i, value):
    lines[i] = lines[i].rsplit(b",", 1)[0] + b"," + value


MALFORMED_COUNTS = {
    "header": (lambda p: _edit_lines(p, lambda ls: ls.__setitem__(0, b"a,b,k,l,count")),
               "line 1"),
    "missing row": (lambda p: _edit_lines(p, lambda ls: ls.pop(7)), "line 8"),
    "missing last row": (lambda p: _edit_lines(p, lambda ls: ls.pop()), "line 65"),
    "extra row": (lambda p: _edit_lines(p, lambda ls: ls.append(ls[-1])), "line 66"),
    "duplicate row": (lambda p: _edit_lines(p, lambda ls: ls.__setitem__(9, ls[8])), "line 10"),
    "out of order": (lambda p: _edit_lines(p, lambda ls: _swap(ls, 20, 21)), "line 21"),
    "non-numeric": (lambda p: _edit_lines(p, lambda ls: _set_value(ls, 30, b"abc")), "line 31"),
    "non-integer": (lambda p: _edit_lines(p, lambda ls: _set_value(ls, 30, b"1.5")), "line 31"),
    "negative": (lambda p: _edit_lines(p, lambda ls: _set_value(ls, 12, b"-3")), "line 13"),
    "empty value": (lambda p: _edit_lines(p, lambda ls: _set_value(ls, 12, b"")), "line 13"),
    "no final line end": (lambda p: p.write_bytes(p.read_bytes()[:-2]), "line 65"),
    "count 2^63": (lambda p: _edit_lines(p, lambda ls: _set_value(ls, 40, b"9223372036854775808")),
                   "line 41"),
    "count 23 digits": (lambda p: _edit_lines(p, lambda ls: _set_value(ls, 40, b"1" * 23)),
                        "line 41"),
    "dim": (lambda p: _edit_sidecar(p, dim=9), "line 6"),
    "huge dim": (lambda p: _edit_sidecar(p, dim=10**9), "line 6"),
    "dim past int64": (lambda p: _edit_sidecar(p, dim=10**30), "line 6"),
    "bases_alice": (lambda p: _edit_sidecar(p, bases_alice=3), "line 66"),
    "bases_bob": (lambda p: _edit_sidecar(p, bases_bob=1), "line 18"),
    "sidecar key": (lambda p: _edit_sidecar(p, bases_bob=None), "bases_bob"),
    "sidecar time": (lambda p: _edit_sidecar(p, integration_time=None), "integration_time"),
    "sidecar generator": (lambda p: _edit_sidecar(p, generator=None), "generator"),
    "sidecar type": (lambda p: _edit_sidecar(p, dim="4"), "integers"),
    "sidecar alignments": (lambda p: _edit_sidecar(p, alignments=None), "lacks alignments"),
    "sidecar alignment value": (lambda p: _edit_sidecar(p, alignments=["row", "diag"]),
                                "alignments needs one alignment per matched setting"),
    "sidecar time text": (lambda p: _edit_sidecar(p, integration_time="abc"),
                          "integration_time must be finite and > 0, got 'abc'"),
    "sidecar time negative": (lambda p: _edit_sidecar(p, integration_time=-5),
                              "integration_time must be finite and > 0, got -5"),
    "sidecar window list": (lambda p: _edit_sidecar(p, coincidence_window=[1]),
                            "coincidence_window must be finite and > 0, got [1]"),
    "sidecar seed text": (lambda p: _edit_sidecar(p, seed="x"),
                          "seed must be None or an integer >= 0, got 'x'"),
    "sidecar generator number": (lambda p: _edit_sidecar(p, generator=7),
                                 "generator must be a string, got 7"),
    # The messages cut the rejected value, and name the bad byte, not
    # every byte of the file.
    "sidecar alignments long": (lambda p: _edit_sidecar(p, alignments=["row"] * 10**5),
                                "got ['row', 'row',"),
    "sidecar not UTF-8": (lambda p: p.with_name(p.name + ".meta.json").write_bytes(
        b" " * 10**5 + b"\xff{"), "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff "
                                  "in position 100000: invalid start byte\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COUNTS))
def test_keyrate_rejects_malformed_counts(tmp_path, capsys, case):
    corrupt, where = MALFORMED_COUNTS[case]
    counts = sample_counts(entangled_table(list(sqrt_mub_pair(4))), 500.0, 10.0, 5.0, seed=3)
    path = tmp_path / "counts.csv"
    save_counts_csv(counts, path)
    corrupt(path)
    code = main(["keyrate", "--counts", str(path), "--out", str(tmp_path / "r"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1 and len(err) < 400
    assert where in err
    if case.startswith("sidecar"):  # an error in the metadata names its file
        assert f"{path}.meta.json" in err
    assert not (tmp_path / "r" / "report.json").exists()


@pytest.mark.parametrize("claim, where", [
    pytest.param({"dim": 10**10},
                 "line 6: expected row 1,5,1,1,<count> of the dim=10000000000, 2x2", id="dim"),
    pytest.param({"dim": 2**62 + 1}, "line 6: expected row 1,5,1,1,<count>", id="dim-2^62"),
    pytest.param({"dim": 10**30}, "line 6: expected row 1,5,1,1,<count>", id="dim-1e30"),
    pytest.param({"bases_alice": 10**12}, "line 66: expected row 1,1,3,1,<count>", id="bases"),
    pytest.param({"dim": 10**9, "bases_alice": 10**12, "bases_bob": 10**12},
                 "line 6: expected row 1,5,1,1", id="all"),
])
def test_counts_csv_sidecar_claiming_a_huge_table_is_a_line_error(tmp_path, claim, where):
    counts = sample_counts(entangled_table(list(sqrt_mub_pair(4))), 500.0, 10.0, 5.0, seed=3)
    path = tmp_path / "counts.csv"
    save_counts_csv(counts, path)
    _edit_sidecar(path, **claim)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(InvalidInputError, match=re.escape(where)):
            load_counts_csv(path)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 4 * 2**20  # nothing sized by the claimed shape


@pytest.mark.parametrize("edit, line", [
    pytest.param(lambda t: t.replace(b'"alice": 3', b'"alice":3', 1), None, id="separator"),
    pytest.param(lambda t: t.replace(b'"sifted": true', b'"sifted": false', 1), None,
                 id="sifted flag"),
    pytest.param(lambda t: t.replace(b'"round": 5,', b'"round": 6,', 1), 5, id="round"),
    pytest.param(lambda t: t.replace(b'"round": 5,', b'"round": 05,', 1), 5, id="leading zero"),
    pytest.param(lambda t: t.replace(b'"k": 1', b'"k": 0', 1), None, id="basis 0"),
    pytest.param(lambda t: t.replace(b'"bob": 2', b'"bob": 5', 1), None, id="symbol above dim"),
    pytest.param(lambda t: t.replace(b"}\n", b"}\r\n", 1), 1, id="line end"),
    pytest.param(lambda t: t[:-1], 40, id="no final line end"),
    pytest.param(lambda t: t + b"\n", 41, id="blank line"),
    pytest.param(lambda t: t.replace(b'"bob"', b'"Bob"', 1), None, id="key"),
    pytest.param(lambda t: t.replace(b'"alice": 3', b'"alice": 9223372036854775808', 1), None,
                 id="alice 2^63"),
])
def test_load_jsonl_rejects_other_layouts(tmp_path, edit, line):
    record = simulate_session(entangled_table(list(sqrt_mub_pair(4))), 40, seed=2)
    path = tmp_path / "session.jsonl"
    record.save_jsonl(path)
    text = path.read_bytes()
    changed = edit(text)
    assert changed != text
    if line is None:  # the first line the edit touched
        line = next(i for i, (a, b) in enumerate(zip(text.split(b"\n"), changed.split(b"\n")))
                    if a != b) + 1
    path.write_bytes(changed)
    with pytest.raises(InvalidInputError, match=f"line {line}:"):
        SessionRecord.load_jsonl(path, dim=4)
