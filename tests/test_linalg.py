import numpy as np
import pytest
from matpoly_reference import kron_sylvester

from twistlab.errors import DegreeZero, NonGeneric, RankUnexpected, SpectraOverlap
from twistlab.linalg import (
    canonical_order,
    eigen,
    min_pair_gap,
    nullspace_vector,
    poly_roots,
    solve_sylvester,
    sort_canonical,
)


def test_eigen_identity_rejected_for_ordered_use():
    with pytest.raises(NonGeneric):
        eigen(np.eye(2), ordered=True)


def test_eigen_diagonal():
    w, v = eigen(np.diag([1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0])
    assert np.allclose(np.abs(v), np.eye(2))


def test_eigen_residual_random_3x3():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w, v = eigen(a)
    resid = np.linalg.norm(a @ v - v * w[None, :]) / np.linalg.norm(a)
    assert resid < 1e-10


def test_eigen_reconstruction_property():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        try:
            w, v = eigen(a)
        except NonGeneric:
            continue
        back = v @ np.diag(w) @ np.linalg.inv(v)
        assert np.linalg.norm(back - a) / np.linalg.norm(a) < 1e-9


def test_nullspace_simple():
    v = nullspace_vector(np.diag([0.0, 1.0]))
    assert np.allclose(v, [1.0, 0.0])


def test_nullspace_full_rank_rejected():
    with pytest.raises(RankUnexpected):
        nullspace_vector(np.diag([1.0, 2.0]))


def test_nullspace_at_polynomial_root():
    # independent root: expand det(l^2 - a1 l + a2) with scalar polynomial
    # arithmetic on the 2x2 entries, then solve with numpy roots
    rng = np.random.default_rng(7)
    a1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    entry = {}
    for i in range(2):
        for j in range(2):
            lead = 1.0 if i == j else 0.0
            entry[i, j] = np.array([lead, -a1[i, j], a2[i, j]])
    detpoly = np.polysub(np.polymul(entry[0, 0], entry[1, 1]), np.polymul(entry[0, 1], entry[1, 0]))
    root = np.roots(detpoly)[0]
    mat = root**2 * np.eye(2) - a1 * root + a2
    v = nullspace_vector(mat, tol=1e-6)
    assert np.linalg.norm(mat @ v) < 1e-8 * max(1.0, np.linalg.norm(mat))


def _nullity_one_stack(rng, m, count):
    """count random m x m matrices of nullity one: (count, m, m)."""
    a = rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))
    u, s, vh = np.linalg.svd(a)
    s[:, -1] = 0
    return (u * s[:, None, :]) @ vh


@pytest.mark.parametrize("m", [2, 3, 4])
def test_nullspace_stack_matches_one_call_per_matrix(m):
    mats = _nullity_one_stack(np.random.default_rng(m), m, 6)
    vs = nullspace_vector(mats)
    assert vs.shape == (6, m)
    for a, v in zip(mats, vs):
        assert np.array_equal(v, nullspace_vector(a))
    # a (2, 3) stack keeps its leading shape
    assert np.array_equal(nullspace_vector(mats.reshape(2, 3, m, m)), vs.reshape(2, 3, m))


def test_nullspace_stack_rejects_one_full_rank_matrix():
    mats = _nullity_one_stack(np.random.default_rng(1), 3, 4)
    mats[2] = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(RankUnexpected, match="nullity 0"):
        nullspace_vector(mats)


def test_nullspace_stack_rejects_a_non_finite_entry():
    mats = _nullity_one_stack(np.random.default_rng(2), 2, 3)
    mats[1, 0, 1] = np.nan
    with pytest.raises(ValueError) as single:
        nullspace_vector(mats[1])
    with pytest.raises(type(single.value), match=str(single.value)):
        nullspace_vector(mats)


def test_sylvester_scalar():
    x = solve_sylvester(np.array([[3.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert np.allclose(x, [[0.5]])


def test_sylvester_worked_2x2():
    a = np.array([[3.0, 1.0], [0.0, 4.0]])
    b = np.diag([1.0, 2.0])
    x = solve_sylvester(a, b, np.eye(2))
    assert np.allclose(x, [[0.5, -0.5], [0.0, 0.5]], atol=1e-12)
    assert np.linalg.norm(a @ x - x @ b - np.eye(2)) < 1e-12


def test_sylvester_overlap_rejected():
    d = np.diag([1.0, 2.0])
    with pytest.raises(SpectraOverlap):
        solve_sylvester(d, d, np.eye(2))


def test_sylvester_rejects_a_nearly_defective_coefficient():
    # eigenvalues 1e-6 apart: eigenvector condition about 2e6
    a = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-6]])
    with pytest.raises(SpectraOverlap, match="eigenvector condition"):
        solve_sylvester(a, np.diag([5.0, 6.0]), np.eye(2))
    with pytest.raises(SpectraOverlap, match="eigenvector condition"):
        solve_sylvester(np.diag([5.0, 6.0]), a, np.eye(2))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sylvester_matches_the_kron_reference(m):
    rng = np.random.default_rng(20 + m)
    for _ in range(40):
        a, b, c = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(3))
        x = solve_sylvester(a, b, c)
        ref = kron_sylvester(a, b, c)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_sylvester_residual_property():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        try:
            x = solve_sylvester(a, b, c)
        except SpectraOverlap:
            continue
        resid = np.linalg.norm(a @ x - x @ b - c)
        assert resid <= max(
            1e-10 * (np.linalg.norm(a) + np.linalg.norm(b)) * np.linalg.norm(x),
            1e-14 * np.linalg.norm(c),
        )


def test_poly_roots_quadratics():
    assert np.allclose(poly_roots([1.0, -3.0, 2.0]), [1.0, 2.0])
    assert np.allclose(poly_roots([1.0, 0.0, 1.0]), [-1j, 1j])


def test_poly_roots_worked_quartic():
    # det(t^2 - a1 t + a2) for the upper triangular worked pair expands to
    # (t^2 - 4 t + 3)(t^2 - 6 t + 8) = t^4 - 10 t^3 + 35 t^2 - 50 t + 24
    roots = poly_roots([1.0, -10.0, 35.0, -50.0, 24.0])
    assert np.allclose(roots, [1.0, 2.0, 3.0, 4.0], atol=1e-8)


def test_poly_roots_round_trip_degree_12():
    rng = np.random.default_rng(5)
    for _ in range(10):
        roots = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        if min_pair_gap(roots) < 1e-3:
            continue
        coeffs = np.poly(roots)
        back = poly_roots(coeffs)
        expected = sort_canonical(roots)
        assert np.max(np.abs(back - expected)) < 1e-7 * max(1.0, np.max(np.abs(roots)))


def test_poly_roots_degree_zero():
    with pytest.raises(DegreeZero):
        poly_roots([2.0])
    with pytest.raises(DegreeZero):
        poly_roots([0.0, 1.0, 2.0])


def test_canonical_order_conjugate_pair_stable():
    vals = np.array([1j + 1e-16, -1j - 2e-17])
    idx = canonical_order(vals)
    ordered = vals[idx]
    assert ordered[0].imag < ordered[1].imag
