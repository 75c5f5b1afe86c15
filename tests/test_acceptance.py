"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import math
import time

import numpy as np
import pytest

from hdqkd.cli import main as cli_main
from hdqkd.keyrate import (
    entropy_block_biased,
    rate_depolarizing,
    rate_two_mub,
    shannon_hd,
    subset_stats,
    threshold,
)
from hdqkd.mub import full_mub_set, sqrt_mub_pair
from hdqkd.optics import (
    ApertureLayout,
    GridSpec,
    OpticalField,
    PhaseMaskStack,
    make_aperture_modes,
    matching_objective,
    propagate,
    sorter_metrics,
    superpose_rows,
    transfer_matrix,
    wavefront_match,
)
from hdqkd.mub import dft_basis
from hdqkd.protocol import (
    ProbabilityTable,
    apply_noise,
    decompose_errors,
    ideal_prob_table,
    normalize_counts,
    sample_counts,
)


def report(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def entropy_of(dist) -> float:
    return -sum(p * math.log2(p) for p in dist if p > 0)


def test_criterion_1_mub_correctness():
    start = time.perf_counter()
    bases = list(full_mub_set(5))
    worst = 0.0
    for i in range(6):
        for j in range(i + 1, 6):
            table = np.abs(bases[i].amplitudes.conj().T @ bases[j].amplitudes) ** 2
            worst = max(worst, float(np.abs(table - 0.2).max()))
    support_ok = True
    for d in (4, 9, 25):
        side = math.isqrt(d)
        b1, b2 = sqrt_mub_pair(d)
        table = np.abs(b1.amplitudes.conj().T @ b2.amplitudes) ** 2
        worst = max(worst, float(np.abs(table - 1.0 / d).max()))
        for basis in (b1, b2):
            counts = (np.abs(basis.amplitudes) > 1e-12).sum(axis=0)
            support_ok &= bool(np.all(counts == side))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-10 and support_ok and elapsed < 1.0,
        f"max unbiasedness deviation {worst:.2e}, sqrt-pair supports exact, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_depolarizing_rate():
    rate = rate_depolarizing(5, 0.11).rate
    report(
        2,
        abs(rate - 1.1537) <= 0.01 and abs(rate - 1.15) <= 0.05,
        f"rate_depolarizing(5, 0.11) = {rate:.4f} (target 1.1537 +/- 0.01)",
    )


def test_criterion_3_block_biased_rate():
    # hand evaluation of the three-term entropy via the plain distribution
    side = 5
    p_out = 0.073 / 24
    p_in = 0.248 / (side - 1) + p_out
    oracle = entropy_of([1 - 0.321] + [p_in] * (side - 1) + [p_out] * (25 - side))
    entropy = entropy_block_biased(25, 0.073, 0.248)
    rate = rate_two_mub(25, 0.073, 0.248).rate
    report(
        3,
        abs(rate - 0.816) <= 0.002
        and abs(rate - 0.8) <= 0.07
        and abs(entropy - 1.914) <= 0.001
        and abs(entropy - oracle) < 1e-12,
        f"rate {rate:.4f} (0.816 +/- 0.002), entropy {entropy:.4f} "
        f"(1.914 +/- 0.001, oracle {oracle:.6f})",
    )


def test_criterion_4_thresholds():
    qubit = threshold("two_mub_uniform", 2)
    uniform = threshold("two_mub_uniform", 25)
    block77 = threshold("two_mub_block", 25, block_fraction=0.77)
    all_block = threshold("two_mub_block", 25, block_fraction=1.0)
    report(
        4,
        abs(qubit - 0.1100) <= 5e-4 and uniform < block77 < all_block,
        f"qubit threshold {qubit:.5f} (0.1100 +/- 0.0005); d=25 ordering "
        f"{uniform:.3f} < {block77:.3f} < {all_block:.3f}",
    )


def test_criterion_5_entropy_dominance():
    start = time.perf_counter()
    ok = True
    worst_gap = -1.0
    for d in (4, 25):
        for total in (0.05, 0.1, 0.2, 0.3, 0.4):
            for frac in np.linspace(0.0, 1.0, 50):
                for scale in np.linspace(0.1, 1.0, 50):
                    e_t = total * scale
                    e_b = float(frac * e_t)
                    e_u = e_t - e_b
                    gap = entropy_block_biased(d, e_u, e_b) - shannon_hd(e_t, d)
                    ok &= gap <= 1e-12
                    worst_gap = max(worst_gap, gap)
            # equality at the uniform split (all error in the uniform part)
            ok &= abs(entropy_block_biased(d, total, 0.0) - shannon_hd(total, d)) <= 1e-12
    elapsed = time.perf_counter() - start
    report(
        5,
        ok and elapsed < 1.0,
        f"block entropy never exceeds uniform entropy (max gap {worst_gap:.1e}), "
        f"equality at uniform split, {elapsed:.2f}s",
    )


def test_criterion_6_statistics_round_trip():
    start = time.perf_counter()
    exact_ok = True
    for d in (4, 9, 25):
        bases = list(sqrt_mub_pair(d))
        table = ideal_prob_table(bases, [b.conjugate() for b in bases])
        for e_u, e_b in ((0.05, 0.1), (0.073, 0.248), (0.2, 0.0), (0.0, 0.3)):
            if e_u + e_b == 0.0:
                continue
            noisy = apply_noise(table, e_u, e_b, alignments=["row", "col"])
            dec = decompose_errors(noisy, 1, "row")
            exact_ok &= abs(dec.total_error - (e_u + e_b)) < 1e-9
            exact_ok &= abs(dec.uniform_error - e_u) < 1e-9
            exact_ok &= abs(dec.block_error - e_b) < 1e-9

    # sampled recovery at >= 1e6 expected counts per setting, within 3 sigma
    d, e_u, e_b = 25, 0.073, 0.248
    n = 1e6
    bases = list(sqrt_mub_pair(d))
    table = apply_noise(
        ideal_prob_table(bases, [b.conjugate() for b in bases]),
        e_u,
        e_b,
        alignments=["row", "col"],
    )
    counts = sample_counts(table, n, 1.0, seed=2026)
    dec = decompose_errors(normalize_counts(counts), 1, "row")
    e_t = e_u + e_b
    q_out = (d - math.isqrt(d)) * e_u / (d - 1)
    sigma_t = math.sqrt(e_t * (1 - e_t) / n)
    sigma_u = math.sqrt(q_out * (1 - q_out) / n) * (d - 1) / (d - math.isqrt(d))
    sigma_b = math.sqrt(sigma_t**2 + sigma_u**2)
    sampled_ok = (
        abs(dec.total_error - e_t) < 3 * sigma_t
        and abs(dec.uniform_error - e_u) < 3 * sigma_u
        and abs(dec.block_error - e_b) < 3 * sigma_b
    )
    elapsed = time.perf_counter() - start
    report(
        6,
        exact_ok and sampled_ok and elapsed < 10.0,
        f"exact recovery to 1e-9 for d in (4,9,25); sampled recovery "
        f"({dec.total_error:.4f}, {dec.uniform_error:.4f}, {dec.block_error:.4f}) "
        f"within 3 sigma at 1e6 counts, {elapsed:.1f}s",
    )


def test_criterion_7_end_to_end_pipeline(tmp_path):
    start = time.perf_counter()
    sim_dir = tmp_path / "sim"
    rate_dir = tmp_path / "rate"
    code1 = cli_main([
        "simulate", "--d", "25", "--family", "sqrt-pair",
        "--Eu", "0.073", "--Eb", "0.248",
        "--pair-rate", "1e6", "--time", "1.0", "--rounds", "2000",
        "--seed", "42", "--out", str(sim_dir), "--quiet",
    ])
    code2 = cli_main([
        "keyrate", "--counts", str(sim_dir / "counts.csv"),
        "--bound", "two-mub-block", "--out", str(rate_dir), "--quiet",
    ])
    rate = json.loads((rate_dir / "report.json").read_text())["rate"]
    elapsed = time.perf_counter() - start
    report(
        7,
        code1 == 0 and code2 == 0 and abs(rate - 0.816) <= 0.05 and elapsed < 30.0,
        f"simulate -> keyrate rate {rate:.4f} (0.816 +/- 0.05 at 1e6 counts), "
        f"{elapsed:.1f}s",
    )


def random_smooth_field(seed: int) -> OpticalField:
    grid = GridSpec(128, 128, 10e-6, 810e-9)
    xx = grid.x[:, None]
    yy = grid.y[None, :]
    rng = np.random.default_rng(seed)
    amp = np.zeros((128, 128), dtype=complex)
    for _ in range(6):
        cx, cy = rng.uniform(-2e-4, 2e-4, size=2)
        waist = rng.uniform(6e-5, 1.2e-4)
        amp += (
            rng.normal()
            * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / waist**2)
            * np.exp(1j * rng.uniform(0, 2 * np.pi))
        )
    return OpticalField(grid, amp).normalized()


def test_criterion_8_optics_properties():
    start = time.perf_counter()
    ident_ok = True
    for seed in (1, 2, 3):
        field = random_smooth_field(seed)
        for pad in (1, 2):
            out = propagate(field, 5e-3, pad_factor=pad)
            ident_ok &= abs(out.power - 1.0) < 1e-8
            two = propagate(propagate(field, 3e-3, pad_factor=pad), 2e-3, pad_factor=pad)
            ident_ok &= (
                np.linalg.norm(two.amplitude - out.amplitude)
                / np.linalg.norm(out.amplitude)
                < 1e-8
            )
            back = propagate(out, -5e-3, pad_factor=pad)
            ident_ok &= (
                np.linalg.norm(back.amplitude - field.amplitude)
                / np.linalg.norm(field.amplitude)
                < 1e-8
            )

    # desk-scale converter design: 5 modes, 10 planes, 30 iterations
    grid = GridSpec(192, 128, 15e-6, 810e-9)
    layout = ApertureLayout(5, 100e-6, 300e-6, "line")
    modes = make_aperture_modes(layout, grid)
    u = dft_basis(5).amplitudes
    targets = superpose_rows(modes, u.conj())
    stack = wavefront_match(modes, targets, planes=10, plane_spacing=43.5e-3,
                            iterations=30)
    again = wavefront_match(modes, targets, planes=10, plane_spacing=43.5e-3,
                            iterations=30)
    deterministic = np.array_equal(stack.masks, again.masks)
    objective = matching_objective(stack, modes, targets)
    zero = PhaseMaskStack(grid, np.zeros((10, 192, 128)), 43.5e-3)
    zero_objective = matching_objective(zero, modes, targets)
    transfer = transfer_matrix(stack, modes, modes)
    metrics = sorter_metrics(transfer, intended=u.conj().T)
    crosstalk_baseline = 0.0013  # first successful run achieved 0.001232
    # a Fourier-type sorter spreads every port's captured power evenly
    captured = (np.abs(transfer) ** 2).sum(axis=0)
    pattern = np.abs(transfer) ** 2 / captured
    uniform_ok = bool(np.abs(pattern - 0.2).max() < 0.05)
    elapsed = time.perf_counter() - start
    report(
        8,
        ident_ok
        and objective >= zero_objective
        and metrics.mean_crosstalk < crosstalk_baseline
        and uniform_ok
        and deterministic
        and elapsed < 180.0,
        f"propagation identities at 1e-8; design objective {objective:.4f} "
        f">= zero-stack {zero_objective:.4f}; crosstalk "
        f"{metrics.mean_crosstalk:.5f} < {crosstalk_baseline}; |T|^2 within "
        f"0.05 of 1/5; deterministic; {elapsed:.0f}s",
    )


def test_criterion_9_scope_statement():
    # The SDP key rates (Table values 1.3881..1.5733) and the measured
    # device error rates (11%, 32.1%) come from an external optimization
    # and physical hardware; this artifact reproduces only the analytic
    # bounds at the reported error values and the subset-statistic
    # definitions on synthetic tables.
    d, e0 = 5, 0.11
    joint = np.full((d, d), e0 / (d * (d - 1)))
    np.fill_diagonal(joint, (1 - e0) / d)
    probs = np.empty((d, d, 6, 6))
    probs[:] = joint[:, :, None, None]
    stats = subset_stats(ProbabilityTable(d, probs))
    definitions_ok = (
        abs(stats.E - e0) < 1e-12
        and np.abs(stats.E_k - e0).max() < 1e-12
        and np.abs(stats.E_kl - e0).max() < 1e-12
        and np.abs(stats.E_abk - joint[:, :, None]).max() < 1e-12
        and np.abs(stats.E_abkl - probs).max() < 1e-12
    )
    analytic_ok = (
        abs(rate_depolarizing(5, 0.11).rate - 1.1538152536472066) < 1e-9
        and abs(rate_two_mub(25, 0.073, 0.248).rate - 0.8167352325314843) < 1e-9
    )
    report(
        9,
        definitions_ok and analytic_ok,
        "SDP rates 1.3881-1.5733 and measured errors 11%/32.1% are not "
        "reproduced (external method / hardware); analytic bounds at the "
        "reported errors and subset statistics on synthetic tables agree to "
        "1e-12",
    )
