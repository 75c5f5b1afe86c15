import json
import math

import numpy as np
import pytest

from hdqkd.errors import (
    InvalidBasisIndexError,
    InvalidDimensionError,
    InvalidInputError,
)
from hdqkd.mub import (
    Basis,
    check_mub_pair,
    computational_basis,
    dft_basis,
    full_mub_set,
    grid_side,
    overlap_table,
    sqrt_mub_pair,
    unbiasedness_deviation,
    unitarity_deviation,
    wh_basis,
)

PRIMES = [2, 3, 5, 7, 11, 13]


def test_dft_dimension_one_is_identity():
    assert np.array_equal(dft_basis(1).amplitudes, np.array([[1.0 + 0j]]))


def test_dft_first_column_is_flat():
    b = dft_basis(5)
    assert np.allclose(b.state(1), np.full(5, 1 / math.sqrt(5)), atol=1e-15)


def test_dft_entry_n2_k2():
    # single-step phase of the d=5 Fourier kernel
    b = dft_basis(5)
    expected = np.exp(2j * np.pi / 5) / math.sqrt(5)
    assert abs(b.amplitudes[1, 1] - expected) < 1e-15


def test_dft_rejects_zero_dimension():
    with pytest.raises(InvalidDimensionError):
        dft_basis(0)


def test_wh_r2_equals_dft_exactly():
    assert np.array_equal(wh_basis(5, 2).amplitudes, dft_basis(5).amplitudes)


def test_wh_r3_first_column():
    b = wh_basis(5, 3)
    n = np.arange(5)
    expected = np.exp(2j * np.pi * n**2 / 5) / math.sqrt(5)
    assert np.abs(b.state(1) - expected).max() < 1e-14


@pytest.mark.parametrize("d", PRIMES)
def test_wh_unitary_for_all_r(d):
    for r in range(2, d + 2):
        assert unitarity_deviation(wh_basis(d, r).amplitudes) <= 1e-12


@pytest.mark.parametrize("d", PRIMES)
def test_wh_is_diagonal_phase_times_dft(d):
    # every quadratic-phase basis differs from the DFT only by per-mode
    # phases, independent of the state index
    dft = dft_basis(d).amplitudes
    for r in range(2, d + 2):
        wh = wh_basis(d, r).amplitudes
        phases = wh[:, 0] / dft[:, 0]
        assert np.abs(np.abs(phases) - 1.0).max() < 1e-12
        assert np.abs(np.diag(phases) @ dft - wh).max() < 1e-12


def test_wh_rejects_nonprime_and_bad_index():
    with pytest.raises(InvalidDimensionError):
        wh_basis(4, 2)
    with pytest.raises(InvalidBasisIndexError):
        wh_basis(5, 1)
    with pytest.raises(InvalidBasisIndexError):
        wh_basis(5, 7)


def test_full_mub_set_d5_has_six_unbiased_bases():
    mubs = full_mub_set(5)
    assert len(mubs) == 6
    bases = list(mubs)
    for i in range(6):
        for j in range(i + 1, 6):
            ok, dev = check_mub_pair(bases[i], bases[j], 1e-10)
            assert ok, f"pair ({i},{j}) deviates by {dev}"


def test_full_mub_set_d2_is_the_qubit_triple():
    mubs = full_mub_set(2)
    assert len(mubs) == 3
    for i, b1 in enumerate(mubs):
        for b2 in list(mubs)[i + 1 :]:
            table = overlap_table(b1, b2)
            assert np.abs(table - 0.5).max() < 1e-12


def test_full_mub_set_d3_brute_force():
    bases = list(full_mub_set(3))
    assert len(bases) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            for a in range(3):
                for b in range(3):
                    ov = abs(np.vdot(bases[i].amplitudes[:, a], bases[j].amplitudes[:, b])) ** 2
                    assert abs(ov - 1 / 3) < 1e-10


def test_full_mub_set_rejects_nonprime():
    with pytest.raises(InvalidDimensionError):
        full_mub_set(6)


def test_sqrt_pair_d4_first_state():
    b1, _ = sqrt_mub_pair(4)
    # state (a=1,b=1): equal superposition of the first grid row
    expected = np.array([1, 1, 0, 0]) / math.sqrt(2)
    assert np.abs(b1.state(1) - expected).max() < 1e-14


def test_sqrt_pair_d25_all_overlaps_brute_force():
    b1, b2 = sqrt_mub_pair(25)
    for i in range(25):
        for j in range(25):
            ov = abs(np.vdot(b1.amplitudes[:, i], b2.amplitudes[:, j])) ** 2
            assert abs(ov - 1 / 25) < 1e-10


@pytest.mark.parametrize("d", [4, 9, 25])
def test_sqrt_pair_support_and_modulus(d):
    side = math.isqrt(d)
    for basis in sqrt_mub_pair(d):
        for k in range(1, d + 1):
            col = basis.state(k)
            nz = np.abs(col) > 1e-12
            assert nz.sum() == side
            assert np.abs(np.abs(col[nz]) - d**-0.25).max() < 1e-12


def test_sqrt_pair_vs_computational_support_structure():
    b1, _ = sqrt_mub_pair(25)
    table = overlap_table(computational_basis(25), b1)
    close_to = np.minimum(np.abs(table), np.abs(table - 0.2))
    assert close_to.max() < 1e-12  # entries are exactly 0 or 1/5
    assert np.all((table > 1e-12).sum(axis=0) == 5)


def test_sqrt_pair_rejects_bad_dimension():
    for d in (5, 8, 2):
        with pytest.raises(InvalidDimensionError):
            sqrt_mub_pair(d)


@pytest.mark.parametrize("d", [-1, 0, 1, 2, 3, 8])
def test_grid_side_needs_a_perfect_square_of_at_least_four(d):
    with pytest.raises(InvalidDimensionError):
        grid_side(d)


def test_unbiasedness_deviation_on_arrays():
    b1, b2 = sqrt_mub_pair(9)
    assert unbiasedness_deviation(b1.amplitudes, b2.amplitudes) == check_mub_pair(b1, b2)[1]
    assert unbiasedness_deviation(b1.amplitudes, b2.amplitudes) < 1e-12
    eye = computational_basis(9).amplitudes
    assert abs(unbiasedness_deviation(eye, eye) - (1 - 1 / 9)) < 1e-15


def test_check_mub_pair_rejects_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        check_mub_pair(dft_basis(4), dft_basis(5))


def test_overlap_table_identity_and_flat():
    b = dft_basis(5)
    assert np.abs(overlap_table(b, b) - np.eye(5)).max() < 1e-12
    table = overlap_table(computational_basis(5), b)
    assert np.abs(table - 0.2).max() < 1e-12


def test_overlap_table_mub1_vs_mub2_d4():
    b1, b2 = sqrt_mub_pair(4)
    assert np.abs(overlap_table(b1, b2) - 0.25).max() < 1e-12


@pytest.mark.parametrize("maker", [lambda: full_mub_set(7).bases, lambda: sqrt_mub_pair(9)])
def test_overlap_table_is_doubly_stochastic(maker):
    bases = list(maker())
    table = overlap_table(bases[0], bases[1])
    assert np.abs(table.sum(axis=0) - 1.0).max() < 1e-10
    assert np.abs(table.sum(axis=1) - 1.0).max() < 1e-10


def test_overlap_table_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        overlap_table(dft_basis(3), dft_basis(4))


def test_check_mub_pair_results():
    ok, dev = check_mub_pair(dft_basis(5), computational_basis(5), 1e-10)
    assert ok and dev < 1e-12
    same, _ = check_mub_pair(dft_basis(5), dft_basis(5), 1e-10)
    assert not same


def test_basis_constructor_rejects_nonunitary():
    bad = np.eye(3, dtype=complex)
    bad[0, 0] = 0.9
    with pytest.raises(InvalidInputError):
        Basis(3, bad, "broken")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_basis_rejects_a_non_finite_amplitude(bad):
    amps = dft_basis(3).amplitudes.copy()
    amps[1, 2] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        Basis(3, amps)


def test_json_round_trip_is_exact(tmp_path):
    for basis in (wh_basis(5, 4), sqrt_mub_pair(9)[0]):
        path = tmp_path / f"{basis.label}.json"
        basis.save_json(path)
        doc = json.loads(path.read_text())
        assert doc["dim"] == basis.dim
        assert doc["label"] == basis.label
        assert np.array_equal(doc["re"], basis.amplitudes.real)
        assert np.array_equal(doc["im"], basis.amplitudes.imag)


def test_json_schema_fields(tmp_path):
    path = tmp_path / "b.json"
    dft_basis(2).save_json(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"dim", "label", "re", "im"}
    assert doc["dim"] == 2
    assert len(doc["re"]) == 2 and len(doc["re"][0]) == 2


def test_json_writer_rejects_non_finite_amplitudes(tmp_path):
    with pytest.raises(InvalidInputError, match="finite"):
        Basis(2, np.full((2, 2), np.nan), "nan")
    # construction rejects NaN, so reach the writer's guard by mutating a built basis
    basis = dft_basis(2)
    basis.amplitudes[0, 0] = np.nan
    with pytest.raises(InvalidInputError, match="non-finite"):
        basis.save_json(tmp_path / "b.json")
    assert not (tmp_path / "b.json").exists()
