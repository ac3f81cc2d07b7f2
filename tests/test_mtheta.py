import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import mtheta
from twistlab.errors import NonGeneric, NullityMismatch, SumRuleViolated
from twistlab.mtheta import (
    LatticeParams,
    MThetaBasis,
    ThetaDomain,
    _kernel_vector,
    act_ordered_theta,
    clifford_pair,
    det_zeros,
    factorize_theta,
    interpolate,
    modular_distance,
    mtheta_basis,
    multiply_elements,
    random_element,
    theta_map,
    theta_mu,
    zero_sum_residual,
)
from twistlab.transpositions import MAX_REDRAW, verify_braid, verify_involution, word_permutation

TAU = 1j
C0 = 0.31 + 0.17j


def test_clifford_pair_small_sizes():
    g1, g2 = clifford_pair(1)
    assert np.allclose(g1, [[1.0]]) and np.allclose(g2, [[1.0]])
    g1, g2 = clifford_pair(2)
    assert np.allclose(g1, np.diag([1.0, -1.0]))
    assert np.allclose(g2, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(g2 @ g1, -g1 @ g2)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_clifford_relations(m):
    g1, g2 = clifford_pair(m)
    eps = np.exp(2j * np.pi / m)
    assert np.linalg.norm(g2 @ g1 - eps * g1 @ g2) < 1e-14
    assert np.linalg.norm(np.linalg.matrix_power(g1, m) - np.eye(m)) < 1e-14
    assert np.linalg.norm(np.linalg.matrix_power(g2, m) - np.eye(m)) < 1e-14


def _law_residuals(params, vals):
    """Worst relative residuals of both laws for matrix functions given as
    vals(zs) -> (..., P, m, m), at points of the (1/m, tau/m) cell; every
    value must be finite."""
    m, n, tau, c = params.m, params.n, params.tau, params.c
    rng = np.random.default_rng(2)
    zs = (rng.random(40) + rng.random(40) * tau) / m
    g1, g2 = clifford_pair(m)
    f0, f1, f2 = vals(zs), vals(zs + 1.0 / m), vals(zs + tau / m)
    assert all(np.isfinite(f).all() for f in (f0, f1, f2))
    e2 = np.exp(-2j * np.pi * (m * n * zs - c))[:, None, None]
    c1 = np.linalg.inv(g1) @ f0 @ g1
    c2 = e2 * (np.linalg.inv(g2) @ f0 @ g2)
    axes = (-3, -2, -1)

    def rel(lhs, rhs):
        scale = np.maximum(np.abs(lhs).max(axis=axes), np.abs(rhs).max(axis=axes))
        return float((np.abs(lhs - rhs).max(axis=axes) / scale).max())

    return rel(f1, c1), rel(f2, c2)


def _check_space(params):
    """Dimension m^2 n, both laws within 1e-12 relative for every element,
    finite values, and full numerical rank of the sampled basis."""
    basis = MThetaBasis(params)
    m = params.m
    assert basis.dim == m * m * params.n
    assert max(_law_residuals(params, basis.eval_basis)) < 1e-12
    rng = np.random.default_rng(3)
    zs = (rng.random(2 * basis.dim) + rng.random(2 * basis.dim) * params.tau) / m
    vals = basis.eval_basis(zs)
    vals = vals / np.abs(vals).max(axis=(0, 2, 3))[None, :, None, None]
    s = np.linalg.svd(vals.reshape(basis.dim, -1), compute_uv=False)
    assert s[-1] > 1e-8 * s[0]


def test_scalar_basis_quasi_periodicity():
    # at m = 1 the space is the scalar theta space of level n
    basis = mtheta_basis(LatticeParams(tau=TAU, m=1, n=1, c=C0))
    rng = np.random.default_rng(0)
    zs = rng.random(20) + rng.random(20) * TAU
    v0 = basis.series(zs)
    v1 = basis.series(zs + 1.0)
    v2 = basis.series(zs + TAU)
    mult = np.exp(-2j * np.pi * (1 * zs - C0))
    assert np.abs(v1 - v0).max() / np.abs(v0).max() < 1e-12
    assert np.abs(v2 - mult[None, :] * v0).max() / np.abs(v2).max() < 1e-12


def test_scalar_basis_linear_independence():
    basis = mtheta_basis(LatticeParams(tau=TAU, m=1, n=3, c=C0))
    rng = np.random.default_rng(1)
    zs = rng.random(3) + rng.random(3) * TAU
    s = np.linalg.svd(basis.series(zs), compute_uv=False)
    assert s[-1] > 1e-8 * s[0]


@pytest.mark.parametrize(
    "m,n",
    [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2)],
)
def test_dimension_formula(m, n):
    params = LatticeParams(tau=TAU, m=m, n=n, c=C0)
    assert mtheta_basis(params).dim == m * m * n


@pytest.mark.parametrize("tau,c", [(complex(0, np.nan), 0), (complex(np.nan, 1), 0), (1j, complex(np.inf, 0))])
def test_lattice_params_reject_non_finite(tau, c):
    with pytest.raises(ValueError, match="finite"):
        LatticeParams(tau=tau, m=2, n=1, c=c)


def test_basis_laws_on_holdout_points():
    params = LatticeParams(tau=TAU, m=2, n=1, c=C0)
    assert max(_law_residuals(params, mtheta_basis(params).eval_basis)) < 1e-12


# corners of the advertised box, among them parameter sets the earlier
# SVD construction rejected
CORNERS = [
    (3, 3, 1j, C0),
    (4, 3, 1j, 0),
    (4, 3, 2j, C0),
    (2, 2, 0.5 + 1j, C0),
    (2, 3, 1j, 0),
    (3, 1, 1j, 0.125 - 0.25j),
    (4, 3, 0.5 + 0.3j, -8j),
    (1, 1, 0.3j, 8j),
    (4, 1, 0.3j, -8j),
    (4, 3, -0.5 + 3j, 8j),
]


@pytest.mark.parametrize("m,n,tau,c", CORNERS)
def test_basis_at_box_corners(m, n, tau, c):
    _check_space(LatticeParams(tau=tau, m=m, n=n, c=c))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 3),
    re_tau=st.floats(-0.5, 0.5),
    im_tau=st.floats(0.3, 3.0),
    re_c=st.floats(-1.0, 1.0),
    im_c=st.floats(-8.0, 8.0),
)
def test_basis_over_the_box(m, n, re_tau, im_tau, re_c, im_c):
    _check_space(LatticeParams(tau=complex(re_tau, im_tau), m=m, n=n, c=complex(re_c, im_c)))


def test_basis_matches_direct_fourier_sum():
    """Each element is the stated series times a positive constant, summed
    here term by term without the strip reduction."""
    params = LatticeParams(tau=0.2 + 1.1j, m=2, n=2, c=0.3 - 0.4j)
    m, n, tau, c = params.m, params.n, params.tau, params.c
    basis = mtheta_basis(params)
    g1, g2 = clifford_pair(m)
    # points one strip below, in, and one and two strips above the strip
    zs = np.array([0.3 - 0.5j, 0.1 + 0.2j, 0.7 + 0.9j, -0.4 + 1.6j])
    th = basis.series(zs)
    vals = basis.eval_basis(zs)
    js = np.arange(-12, 13)
    for d, (a, b, s) in enumerate(np.ndindex(m, m, n)):
        k0 = b / m + s
        coef = np.exp(2j * np.pi * (js * (k0 * tau - c + a / m) + n * tau * js * (js - 1) / 2))
        ks = b + m * s + m * n * js
        ratio = th[d] / (np.exp(2j * np.pi * np.outer(zs, ks)) @ coef)
        assert ratio[0].real > 0
        assert np.abs(ratio - ratio[0].real).max() < 1e-12 * ratio[0].real
        mono = np.linalg.matrix_power(g1, a) @ np.linalg.matrix_power(g2, b)
        assert np.abs(vals[d] - th[d][:, None, None] * mono).max() < 1e-14 * np.abs(vals[d]).max()


def test_det_zeros_m1_n1_location():
    c = 0.21 + 0.05j
    params = LatticeParams(tau=TAU, m=1, n=1, c=c)
    f = random_element(params, np.random.default_rng(3))
    zs = det_zeros(f)
    assert len(zs.points) == 1
    assert modular_distance(zs.points[0], c + 0.5, 1.0, TAU) < 1e-6


def test_det_zeros_m2_count_and_sum():
    params = LatticeParams(tau=TAU, m=2, n=1, c=C0)
    rng = np.random.default_rng(4)
    for _ in range(3):
        f = random_element(params, rng)
        zs = det_zeros(f)
        assert len(zs.points) == 2
        assert zs.sum_residual < 1e-6


def test_interpolate_round_trip_through_zero_finder():
    params = LatticeParams(tau=TAU, m=2, n=1, c=0.2 + 0.1j)
    rng = np.random.default_rng(5)
    f = random_element(params, rng)
    zs = det_zeros(f)
    vs = [_kernel_vector(f.eval(np.array([z]))[0], 2) for z in zs.points]
    f2 = interpolate(params, zs.points, vs)
    dom = ThetaDomain(2, TAU)
    assert dom.distance(f, f2) < 1e-6


def test_interpolate_m1_n1_unique_theta():
    lam = 0.4 + 0.3j
    params = LatticeParams(tau=TAU, m=1, n=1, c=lam - 0.5)
    f = interpolate(params, [lam], [np.ones(1)])
    val = f.eval(np.array([lam]))[0]
    probe = np.abs(f.eval(np.array([0.1 + 0.1j]))[0]).max()
    assert np.abs(val).max() < 1e-9 * probe


def test_interpolate_sum_rule_gate():
    lam = 0.4 + 0.3j
    params = LatticeParams(tau=TAU, m=1, n=1, c=lam - 0.5)
    with pytest.raises(SumRuleViolated):
        interpolate(params, [lam + 0.1], [np.ones(1)])


def test_interpolate_nullity_gate():
    # one point and one vector repeated leaves a two dimensional nullspace
    z0 = 0.21 + 0.33j
    pts = [z0, z0]
    vs = [np.array([1.0, 0.4]), np.array([1.0, 0.4])]
    params = LatticeParams(tau=TAU, m=2, n=1, c=sum(pts) - 0.5)
    with pytest.raises(NullityMismatch):
        interpolate(params, pts, vs)


def test_quasi_periodicity_of_random_elements():
    rng = np.random.default_rng(7)
    for (m, n) in [(2, 1), (2, 2)]:
        params = LatticeParams(tau=TAU, m=m, n=n, c=C0)
        f = random_element(params, rng)
        assert max(_law_residuals(params, f.eval)) < 1e-12


def test_factorize_theta_degree_one_identity():
    dom = ThetaDomain(2, TAU)
    f = dom.sample(np.random.default_rng(8))
    out = factorize_theta(f, [list(f.zeros)], [f.params.c])
    assert len(out) == 1
    assert dom.distance(out[0], f) < 1e-10


def test_factorize_theta_round_trip_and_cross():
    rng = np.random.default_rng(9)
    dom = ThetaDomain(2, TAU)
    f, g = dom.sample(rng), dom.sample(rng)
    h = multiply_elements(f, g)
    fac = factorize_theta(h, [list(f.zeros), list(g.zeros)], [f.params.c, g.params.c])
    assert dom.distance(fac[0], f) < 1e-6
    assert dom.distance(fac[1], g) < 1e-6
    cb = sum([f.zeros[1], g.zeros[1]]) - 0.5
    ca = (f.params.c + g.params.c) - cb
    crossed = factorize_theta(
        h, [[f.zeros[0], g.zeros[0]], [f.zeros[1], g.zeros[1]]], [ca, cb]
    )
    zs = np.array([0.11 + 0.21j, 0.42 + 0.62j, 0.77 + 0.37j])
    prod = np.matmul(crossed[0].eval(zs), crossed[1].eval(zs)).ravel()
    ref = h.eval(zs).ravel()
    s = np.vdot(prod, ref) / np.vdot(prod, prod)
    assert np.linalg.norm(prod * s - ref) / np.linalg.norm(ref) < 1e-6


def test_theta_mu_involution_and_zero_exchange():
    rng = np.random.default_rng(10)
    dom = ThetaDomain(2, TAU)
    f, g = dom.sample(rng), dom.sample(rng)
    f1, g1 = theta_mu(f, g)
    assert f1.zeros == g.zeros and g1.zeros == f.zeros
    recovered = det_zeros(f1.with_zeros(None)).points
    err = max(min(modular_distance(a, b, 0.5, TAU / 2) for b in g.zeros) for a in recovered)
    assert err < 1e-6
    f2, g2 = theta_mu(f1, g1)
    assert dom.distance(f2, f) < 1e-9
    assert dom.distance(g2, g) < 1e-9


def test_theta_mu_m1_is_projective_swap():
    rng = np.random.default_rng(11)
    dom = ThetaDomain(1, TAU)
    f, g = dom.sample(rng), dom.sample(rng)
    f1, g1 = theta_mu(f, g)
    assert dom.distance(f1, g) < 1e-9
    assert dom.distance(g1, f) < 1e-9


def test_theta_map_verifiers():
    tm = theta_map(2, TAU)
    assert verify_involution(tm, samples=15, seed=12, tol=1e-9).passed
    assert verify_braid(tm, samples=8, seed=12, tol=1e-8).passed


def test_act_ordered_theta_identity_and_swap():
    rng = np.random.default_rng(13)
    dom1 = ThetaDomain(1, TAU)
    fs = [dom1.sample(rng) for _ in range(2)]
    out = act_ordered_theta(list(range(2)), fs)
    assert dom1.distance(out[0], fs[0]) < 1e-12
    out = act_ordered_theta([1, 0], fs)
    f1, g1 = theta_mu(fs[0], fs[1])
    assert dom1.distance(out[0], f1) < 1e-8
    assert dom1.distance(out[1], g1) < 1e-8


def test_act_ordered_theta_braid_words():
    rng = np.random.default_rng(14)
    dom1 = ThetaDomain(1, TAU)
    fs = [dom1.sample(rng) for _ in range(3)]
    r1 = act_ordered_theta(word_permutation((1, 2, 1), 3), fs)
    r2 = act_ordered_theta(word_permutation((2, 1, 2), 3), fs)
    assert max(dom1.distance(a, b) for a, b in zip(r1, r2)) < 1e-8


def test_zero_sum_residual_measures_offsets():
    params = LatticeParams(tau=TAU, m=2, n=1, c=C0)
    pts = [0.1 + 0.2j, complex(C0 + 0.5) - (0.1 + 0.2j)]
    assert zero_sum_residual(pts, params) < 1e-12
    assert zero_sum_residual([pts[0] + 0.07, pts[1]], params) > 0.05


def test_theta_sample_redraws_failed_interpolations(monkeypatch):
    calls = []

    def failing(params, points, vectors):
        calls.append(points)
        raise NullityMismatch("interpolation nullity 2, expected 1")

    monkeypatch.setattr(mtheta, "interpolate", failing)
    with pytest.raises(NonGeneric, match=f"after {MAX_REDRAW} draws"):
        ThetaDomain(1, TAU).sample(np.random.default_rng(0))
    assert len(calls) == MAX_REDRAW
    assert len({tuple(p) for p in calls}) == MAX_REDRAW
