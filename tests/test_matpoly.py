import numpy as np
import pytest
from matpoly_reference import kron_exchange, peel_factorize

from twistlab.errors import PartitionInvalid, SizeMismatch, SpectraOverlap
from twistlab.linalg import min_pair_gap
from twistlab.matpoly import (
    FactorTuple,
    MatrixPolynomial,
    act_ordered,
    factorize,
    matrix_polynomial,
    multiply,
    pair_map,
    spectrum,
    transpose_pair,
)
from twistlab.transpositions import compose_permutations, verify_braid

A1_WORKED = np.array([[4.0, 1.0], [0.0, 6.0]], dtype=complex)
A2_WORKED = np.array([[3.0, 1.0], [0.0, 8.0]], dtype=complex)
B1_WORKED = np.array([[3.0, 2.0], [0.0, 4.0]], dtype=complex)
B2_WORKED = np.array([[1.0, -1.0], [0.0, 2.0]], dtype=complex)


def random_factors(rng, m, d):
    while True:
        mats = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(d)]
        try:
            return FactorTuple.from_matrices(mats)
        except Exception:
            continue


def spread_factors(seed, m, d):
    """d factors V diag(block) V^-1 with eigenvalues 2 N(0, 1), at least
    0.3 apart, and eigenvector matrices of condition below 10."""
    rng = np.random.default_rng(seed)
    while True:
        flat = 2 * (rng.standard_normal(m * d) + 1j * rng.standard_normal(m * d)) / np.sqrt(2)
        if min_pair_gap(flat) > 0.3:
            break
    mats = []
    for block in flat.reshape(d, m):
        while True:
            v = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            if np.linalg.cond(v) < 10:
                break
        mats.append(v @ np.diag(block) @ np.linalg.inv(v))
    return mats, flat.reshape(d, m).tolist()


# (m, d, seed): determinants of degree 12 whose roots an interpolated
# determinant polynomial misses by 0.2 to 1.5
SPREAD_CASES = [(4, 3, 2), (2, 6, 3), (3, 4, 15)]


def test_multiply_single_factor():
    b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    poly = multiply([b])
    assert np.allclose(poly.coeffs[0], b)


def test_multiply_diagonal():
    poly = multiply([np.diag([1.0, 2.0]).astype(complex), np.diag([3.0, 4.0]).astype(complex)])
    assert np.allclose(poly.coeffs[0], np.diag([4.0, 6.0]))
    assert np.allclose(poly.coeffs[1], np.diag([3.0, 8.0]))


def test_multiply_worked_pair():
    poly = multiply([B1_WORKED, B2_WORKED])
    assert np.allclose(poly.coeffs[0], A1_WORKED)
    assert np.allclose(poly.coeffs[1], A2_WORKED)


def test_spectrum_worked_pair():
    poly = matrix_polynomial(2, [A1_WORKED, A2_WORKED])
    assert np.allclose(spectrum(poly), [1.0, 2.0, 3.0, 4.0], atol=1e-8)


def test_spectrum_single_factor():
    poly = multiply([np.diag([5.0, 7.0]).astype(complex)])
    assert np.allclose(spectrum(poly), [5.0, 7.0], atol=1e-9)


def test_spectrum_is_union_of_factor_spectra():
    rng = np.random.default_rng(11)
    cases = [random_factors(rng, 2, 3).factors]
    cases += [spread_factors(seed, m, d)[0] for m, d, seed in SPREAD_CASES]
    for mats in cases:
        roots = spectrum(multiply(mats))
        expected = np.sort_complex(np.concatenate([np.linalg.eigvals(b) for b in mats]))
        assert np.max(np.abs(np.sort_complex(roots) - expected)) < 1e-7


@pytest.mark.parametrize("m,d,seed", SPREAD_CASES)
def test_factorize_round_trip_degree_12(m, d, seed):
    mats, blocks = spread_factors(seed, m, d)
    ft = factorize(multiply(mats), blocks)
    assert max(np.linalg.norm(a - b) for a, b in zip(ft.factors, mats)) < 1e-8


def test_degree_zero_polynomial_rejected():
    with pytest.raises(SizeMismatch):
        MatrixPolynomial(2, ())
    with pytest.raises(SizeMismatch):
        matrix_polynomial(2, [])


def test_transpose_pair_scalar():
    b1, b2 = transpose_pair(np.array([[2.0]]), np.array([[5.0]]))
    assert np.allclose(b1, [[5.0]]) and np.allclose(b2, [[2.0]])


def test_transpose_pair_worked_example():
    a1 = np.diag([1.0, 2.0]).astype(complex)
    a2 = np.array([[3.0, 1.0], [0.0, 4.0]], dtype=complex)
    b1, b2 = transpose_pair(a1, a2)
    assert np.allclose(b1, [[3.0, 2.0], [0.0, 4.0]], atol=1e-10)
    assert np.allclose(b2, [[1.0, -1.0], [0.0, 2.0]], atol=1e-10)
    assert np.allclose(b1 + b2, a1 + a2)
    assert np.allclose(b1 @ b2, a1 @ a2)


def test_transpose_pair_overlap_rejected():
    d = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(SpectraOverlap):
        transpose_pair(d, d)


def test_transpose_pair_involution():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b1, b2 = transpose_pair(a1, a2)
        c1, c2 = transpose_pair(b1, b2)
        scale = max(1.0, np.linalg.norm(a1), np.linalg.norm(a2))
        assert np.linalg.norm(c1 - a1) < 1e-9 * scale
        assert np.linalg.norm(c2 - a2) < 1e-9 * scale


# One exchange in the braid samples of pair_map(2) at seed 486216482: both
# matrices have eigenvector condition about 1.25e3, and the Kronecker
# exchange returned for them is off from the 50-digit exchange by 9.4e-8
NEARLY_DEFECTIVE = (
    np.array(
        [
            [296.5684126324664 + 150.12510723708579j, 5.332786964002599 - 221.46656658006887j],
            [395.32294976664184 - 303.54172646485256j, -295.9345889032246 - 150.86702990197296j],
        ]
    ),
    np.array(
        [
            [-295.77844447665143 - 149.9982303232571j, -5.374304594247176 + 220.62336596372347j],
            [-394.04577354245185 + 303.8932729492609j, 295.4024485642531 + 149.63566785072817j],
        ]
    ),
)


def test_transpose_pair_rejects_a_nearly_defective_pair():
    with pytest.raises(SpectraOverlap, match="eigenvector condition"):
        transpose_pair(*NEARLY_DEFECTIVE)


def test_pair_map_braid_redraws_nearly_defective_pairs():
    rep = verify_braid(pair_map(2), samples=3, seed=486216482, tol=1e-8)
    assert rep.passed
    assert rep.redraws >= 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_transpose_pair_matches_the_kron_exchange(m):
    rng = np.random.default_rng(40 + m)
    for _ in range(20):
        a1, a2 = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(2))
        for got, want in zip(transpose_pair(a1, a2), kron_exchange(a1, a2)):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_factorize_matches_the_per_root_peel(m):
    for d in (1, 2, 3):
        for seed in range(4):
            mats, blocks = spread_factors(100 * m + 10 * d + seed, m, d)
            poly = multiply(mats)
            for partition in (blocks, blocks[::-1]):
                got = factorize(poly, partition).factors
                for x, y in zip(got, peel_factorize(poly, partition)):
                    assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)


def test_factorize_round_trip_worked_pair():
    poly = multiply([B1_WORKED, B2_WORKED])
    ft = factorize(poly, [[3.0, 4.0], [1.0, 2.0]])
    assert np.linalg.norm(ft.factors[0] - B1_WORKED) < 1e-9
    assert np.linalg.norm(ft.factors[1] - B2_WORKED) < 1e-9


def test_factorize_swapped_partition_matches_pair_transposition():
    poly = multiply([B1_WORKED, B2_WORKED])
    ft = factorize(poly, [[1.0, 2.0], [3.0, 4.0]])
    c1, c2 = transpose_pair(B1_WORKED, B2_WORKED)
    assert np.linalg.norm(ft.factors[0] - c1) < 1e-8
    assert np.linalg.norm(ft.factors[1] - c2) < 1e-8


def test_factorize_degree_one_identity():
    b = np.array([[1.0, 1.0], [0.0, 3.0]], dtype=complex)
    poly = multiply([b])
    ft = factorize(poly, [[1.0, 3.0]])
    assert np.allclose(ft.factors[0], b)


def test_factorize_invalid_partition():
    poly = multiply([B1_WORKED, B2_WORKED])
    with pytest.raises(PartitionInvalid):
        factorize(poly, [[1.0], [2.0, 3.0, 4.0]])
    with pytest.raises(PartitionInvalid):
        factorize(poly, [[1.0, 2.0], [3.0, 9.0]])


def test_act_ordered_identity():
    rng = np.random.default_rng(13)
    ft = random_factors(rng, 2, 2)
    out = act_ordered(list(range(4)), ft)
    assert all(np.allclose(a, b) for a, b in zip(out.factors, ft.factors))
    assert out.spectra == ft.spectra


def test_act_ordered_m1_is_pair_transposition():
    rng = np.random.default_rng(14)
    ft = random_factors(rng, 1, 2)
    out = act_ordered([1, 0], ft)
    b1, b2 = transpose_pair(*ft.factors)
    assert np.linalg.norm(out.factors[0] - b1) < 1e-9
    assert np.linalg.norm(out.factors[1] - b2) < 1e-9


def test_act_ordered_full_swap_is_pair_transposition():
    rng = np.random.default_rng(15)
    ft = random_factors(rng, 2, 2)
    out = act_ordered([2, 3, 0, 1], ft)
    b1, b2 = transpose_pair(*ft.factors)
    assert np.linalg.norm(out.factors[0] - b1) < 1e-7
    assert np.linalg.norm(out.factors[1] - b2) < 1e-7
    poly = multiply(ft)
    back = multiply(out)
    assert max(np.linalg.norm(a - b) for a, b in zip(back.coeffs, poly.coeffs)) < 1e-8


def test_act_ordered_label_bookkeeping_exact():
    rng = np.random.default_rng(16)
    ft = random_factors(rng, 2, 3)
    sigma = list(rng.permutation(6))
    out = act_ordered(sigma, ft)
    flat_in = ft.labels()
    flat_out = out.labels()
    expected = [None] * 6
    for i, lab in enumerate(flat_in):
        expected[sigma[i]] = lab
    assert flat_out == expected


def test_act_ordered_group_law():
    rng = np.random.default_rng(17)
    ft = random_factors(rng, 2, 2)
    s1 = list(rng.permutation(4))
    s2 = list(rng.permutation(4))
    one = act_ordered(s2, act_ordered(s1, ft))
    two = act_ordered(compose_permutations(s2, s1), ft)
    assert max(np.linalg.norm(a - b) for a, b in zip(one.factors, two.factors)) < 1e-7
    assert one.spectra == two.spectra


def test_factorize_uniqueness_two_routes():
    # direct factorization to a target partition versus reaching the same
    # partition through the ordered action: both must give one answer
    rng = np.random.default_rng(18)
    ft = random_factors(rng, 2, 2)
    poly = multiply(ft)
    (l1, l2), (l3, l4) = ft.spectra
    target = [[l3, l4], [l1, l2]]
    direct = factorize(poly, target)
    via_action = act_ordered([2, 3, 0, 1], ft)
    assert max(
        np.linalg.norm(a - b) for a, b in zip(direct.factors, via_action.factors)
    ) < 1e-7
