import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistlab import mtheta
from twistlab.errors import NonGeneric, NullityMismatch, ResidualTooLarge, SumRuleViolated, TwistlabError
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
    lattice_distance,
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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 4),
    re_tau=st.floats(-0.5, 0.5),
    im_tau=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**16),
)
def test_theta_mu_over_the_box(m, re_tau, im_tau, seed):
    tau = complex(re_tau, im_tau)
    rng = np.random.default_rng(seed)
    dom = ThetaDomain(m, tau)
    f, g = dom.sample(rng), dom.sample(rng)
    assume(theta_map(m, tau).is_generic(f, g))
    f1, g1 = theta_mu(f, g)
    assert f1.zeros == g.zeros and g1.zeros == f.zeros
    assert f1.params.c == g.params.c and g1.params.c == f.params.c
    # points in the strips below and above the cell
    zs = rng.random(12) + (rng.random(12) - 1 + 2 * (rng.random(12) > 0.5)) * tau / m
    prod = np.matmul(f1.eval(zs), g1.eval(zs)).ravel()
    ref = np.matmul(f.eval(zs), g.eval(zs)).ravel()
    s = np.vdot(prod, ref) / np.vdot(prod, prod)
    assert np.linalg.norm(prod * s - ref) / np.linalg.norm(ref) < 1e-10
    f2, g2 = theta_mu(f1, g1)
    assert max(dom.distance(f2, f), dom.distance(g2, g)) < 1e-9


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


def _vanishing(f, z, v):
    """|f(z) v| / (|f(z)| |v|) at any z: where
    f(z) overflows, z = w + s/m + q tau/m is moved to w with the laws,
    f(z) being a scalar times M^{-1} f(w) M for M = gamma_1^s gamma_2^q."""
    m, tau = f.params.m, f.params.tau
    mono = np.eye(m)
    with np.errstate(all="ignore"):
        val = f.eval(np.array([z]))[0]
    if not np.isfinite(val).all():
        q = int(np.floor((m * z).imag / tau.imag))
        s = int(np.floor((m * z - q * tau).real))
        g1, g2 = clifford_pair(m)
        mono = np.linalg.matrix_power(g1, s % m) @ np.linalg.matrix_power(g2, q % m)
        val = np.linalg.inv(mono) @ f.eval(np.array([z - (s + q * tau) / m]))[0] @ mono
    return np.linalg.norm(val @ v) / (np.linalg.norm(val) * np.linalg.norm(v))


# interpolation prescribes right kernels only; the "side" id stays in
# the test names
@pytest.mark.parametrize("side", ["right"])
@pytest.mark.parametrize("y", [2, 4, 8, 16])
def test_interpolate_points_outside_the_cell(y, side):
    # the points lie y above and below the cell; at y = 8 and 16 the
    # values there overflow, so vanishing is checked through the laws
    params = LatticeParams(tau=1j, m=2, n=1, c=0.3 + 0.2j)
    z1 = 0.1 + 0.2j + y * 1j
    pts = [z1, params.c + 0.5 - z1]
    vs = [np.array([1.0, 0.4 + 0.2j]), np.array([0.3, 1.0])]
    f = interpolate(params, pts, vs)
    assert f.zeros == tuple(pts)
    assert max(_vanishing(f, z, v) for z, v in zip(pts, vs)) < 1e-12
    # the same conditions moved into the cell by hand give the same element
    g1, _ = clifford_pair(2)
    moved = [0.1 + 0.2j, pts[1] - 0.5 + y * 1j]
    ref = interpolate(params, moved, [vs[0], g1 @ vs[1]])
    assert ThetaDomain(2, 1j).distance(f, ref) < 1e-12


@pytest.mark.parametrize("m,n,tau", [(3, 3, 1j), (4, 3, 1j), (4, 3, 2j)])
def test_interpolate_round_trips_at_large_sizes(m, n, tau):
    # each point's rows are taken in units of the basis envelope there
    rng = np.random.default_rng(m * 10 + n)
    dom = ThetaDomain(m, tau)
    for _ in range(20):
        params = LatticeParams(tau=tau, m=m, n=n, c=complex(*rng.uniform(-1, 1, 2)))
        f = random_element(params, rng)
        zs = det_zeros(f).points
        vs = [_kernel_vector(val, m) for val in f.eval(np.array(zs))]
        assert dom.distance(f, interpolate(params, zs, vs)) < 1e-9


# the (1, 3) element of one benchmark round whose zero, found first by a
# Newton walk three cells up, was once kept over the exact one found later
N3_PARAMS = LatticeParams(tau=1j, m=1, n=3, c=0.375 - 0.125j)
N3_COEFFS = np.array([0.8750296528537922 - 0.19578470064503045j, 0.619533222408183 - 0.09024238744208211j, 1.0])
N3_ZEROS = (
    0.5444382131407922 + 0.14258459624096398j,
    0.9198448950471914 + 0.6107134500115344j,
    0.41071689181201654 + 0.12170195374750159j,
)


def _zero_error(found, prescribed):
    return max(min(modular_distance(a, b, 1.0, 1j) for b in found) for a in prescribed)


def test_det_zeros_regression_walk_across_cells():
    zs = det_zeros(mtheta.ThetaElement(N3_PARAMS, N3_COEFFS)).points
    assert len(zs) == 3
    assert _zero_error(zs, N3_ZEROS) < 1e-12


def test_det_zeros_keeps_the_better_root(monkeypatch):
    # det_zeros moves all converged roots into the cell in one call; the
    # first of them is moved 1e-9 off, another start finds the same zero
    # exactly and must win its class
    reduce = mtheta.reduce_to_cell
    calls = []

    def first_off(z, o1, o2):
        calls.append(z)
        out = reduce(z, o1, o2)
        if len(calls) == 1:
            out[0] += 1e-9
        return out

    monkeypatch.setattr(mtheta, "reduce_to_cell", first_off)
    zs = det_zeros(mtheta.ThetaElement(N3_PARAMS, N3_COEFFS)).points
    assert _zero_error(zs, N3_ZEROS) < 1e-12


def test_det_zeros_retires_non_finite_steps(monkeypatch):
    # det f is NaN more than one cell above or below the cell; a Newton
    # start there must retire at once instead of stepping on to the cap,
    # while a start beside a zero converges to it
    det = mtheta.ThetaElement.det
    nan_points = []

    def det_nan_far(self, zs):
        zs = np.asarray(zs)
        far = np.abs(zs.imag - 0.5) > 1.5
        nan_points.append(int(far.sum()))
        return np.where(far, np.nan, det(self, zs))

    monkeypatch.setattr(mtheta.ThetaElement, "det", det_nan_far)
    starts = np.array([0.5 + 2.5j, N3_ZEROS[1] + 0.01])
    roots, steps = mtheta._newton_roots(mtheta.ThetaElement(N3_PARAMS, N3_COEFFS), starts, 6.0)
    assert nan_points[0] == 3 and sum(nan_points) == 3
    assert steps < mtheta._NEWTON_CAP
    assert len(roots) == 1 and abs(roots[0] - N3_ZEROS[1]) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_det_zeros_needs_no_lapack_determinant(monkeypatch, m):
    # the scan and Newton take determinants in closed form
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    f = random_element(LatticeParams(tau=0.2 + 1.1j, m=m, n=1, c=C0), np.random.default_rng(m))
    monkeypatch.setattr(np.linalg, "det", forbidden)
    assert len(det_zeros(f).points) == m


def test_interpolate_m1_at_the_cell_corner_with_im_c_2():
    # a draw of the sweep below at 400 examples, where a row floor taken
    # over the whole cell once kept the 1x1 row at the prescribed zero
    # above the rank cut
    f = interpolate(LatticeParams(tau=0.25 + 1j, m=1, n=1, c=-1 + 2j), [0j], [np.ones(1)])
    at_zero, beside = f.eval(np.array([0j, 0.5])).ravel()
    assert abs(at_zero) < 1e-12 * abs(beside)


# the round trip through det_zeros stays at |Im c| <= 2 and Im tau >= 0.5:
# beyond that det_zeros still misses zeros in the thin cells at m = 4
# (ROADMAP.md); interpolation alone is swept over the whole box below
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 3),
    re_tau=st.floats(-0.5, 0.5),
    im_tau=st.floats(0.5, 3.0),
    re_c=st.floats(-1.0, 1.0),
    im_c=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_det_zeros_recovers_interpolated_zeros_over_the_box(m, n, re_tau, im_tau, re_c, im_c, seed):
    tau, c = complex(re_tau, im_tau), complex(re_c, im_c)
    o1, o2 = 1 / m, tau / m
    pts, vs = _cell_draw(m, n, tau, c, np.random.default_rng(seed))
    assume(all(modular_distance(a, b, o1, o2) > 50 * mtheta.CELL_GATE for i, a in enumerate(pts) for b in pts[:i]))
    f = interpolate(LatticeParams(tau=tau, m=m, n=n, c=c), pts, vs)
    zs = det_zeros(f).points
    assert len(zs) == m * n
    assert max(min(modular_distance(a, b, o1, o2) for b in zs) for a in pts) < 1e-9


def _cell_draw(m, n, tau, c, rng):
    """m n random points of the (1/m, tau/m) cell, the last one fixed by
    the sum rule, and a random kernel vector for each."""
    o1, o2 = 1 / m, tau / m
    pts = list(rng.random(m * n - 1) * o1 + rng.random(m * n - 1) * o2)
    pts.append(complex(mtheta.reduce_to_cell(c + n / 2 - sum(pts), o1, o2)))
    return pts, [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in pts]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 3),
    re_tau=st.floats(-0.5, 0.5),
    im_tau=st.floats(0.3, 3.0),
    re_c=st.floats(-1.0, 1.0),
    im_c=st.floats(-8.0, 8.0),
    seed=st.integers(0, 2**16),
)
def test_interpolate_round_trips_over_the_whole_box(m, n, re_tau, im_tau, re_c, im_c, seed):
    tau, c = complex(re_tau, im_tau), complex(re_c, im_c)
    pts, vs = _cell_draw(m, n, tau, c, np.random.default_rng(seed))
    assume(all(modular_distance(a, b, 1 / m, tau / m) > 50 * mtheta.CELL_GATE for i, a in enumerate(pts) for b in pts[:i]))
    f = interpolate(LatticeParams(tau=tau, m=m, n=n, c=c), pts, vs)
    assert f.zeros == tuple(pts)
    for p, v in zip(pts, vs):
        # against the largest value on the line through p at the same
        # height, where the series' terms neither grow nor decay
        line = np.linalg.norm(f.eval(p + np.arange(1, 8) / (8 * m)), axis=(1, 2)).max()
        assert np.linalg.norm(f.eval(np.array([p]))[0] @ v) < 1e-9 * line * np.linalg.norm(v)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_det_zeros_recovers_interpolated_zeros_at_im_c_8(seed):
    # at (3, 3, i, 8i) the basis values at one edge of the cell are 1e-20
    # of those at the other
    pts, vs = _cell_draw(3, 3, 1j, 8j, np.random.default_rng(seed))
    f = interpolate(LatticeParams(tau=1j, m=3, n=3, c=8j), pts, vs)
    zs = det_zeros(f).points
    assert max(min(modular_distance(a, b, 1 / 3, 1j / 3) for b in zs) for a in pts) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_theta_mu_exchanges_a_pair_near_im_c_8(seed):
    # operands at c = -5.33+7.52i and 3.23-5.07i, each interpolated with
    # random kernel vectors; the exchange interpolates both factors there
    tau, m = -0.4 + 0.6j, 3
    rng = np.random.default_rng(seed)
    f, g = (
        interpolate(LatticeParams(tau=tau, m=m, n=1, c=c), *_cell_draw(m, 1, tau, c, rng))
        for c in (-5.33 + 7.52j, 3.23 - 5.07j)
    )
    f1, g1 = theta_mu(f, g)
    assert f1.zeros == g.zeros and g1.zeros == f.zeros
    assert mtheta._product_residual([f1, g1], [f, g]) < 1e-10
    f2, g2 = theta_mu(f1, g1)
    dom = ThetaDomain(m, tau)
    assert max(dom.distance(f2, f), dom.distance(g2, g)) < 1e-9


def test_distance_holds_where_the_values_are_large():
    # the element reaches 2e183 at the probes, where a plain norm of its
    # values overflows; the distance must stay a number and resolve the
    # 1e-15 step in c
    p = LatticeParams(tau=8j, m=4, n=1, c=-8j)
    f = random_element(p, np.random.default_rng(0))
    g = mtheta.ThetaElement(LatticeParams(tau=8j, m=4, n=1, c=-8j + 1e-15), f.coeffs)
    assert ThetaDomain(4, 8j).distance(f, g) < 1e-12


def _relative_product_error(f, g, h, zs):
    ref = np.matmul(f.eval(zs), g.eval(zs))
    val = h.eval(zs)
    assert np.isfinite(ref).all() and np.isfinite(val).all()
    return float((np.linalg.norm(val - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))).max())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 4),
    nf=st.integers(1, 2),
    ng=st.integers(1, 2),
    re_tau=st.floats(-0.5, 0.5),
    im_tau=st.floats(0.3, 3.0),
    cs=st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_product_is_exact_over_the_box(m, nf, ng, re_tau, im_tau, cs, seed):
    if nf + ng > 3:
        ng = 3 - nf
    tau = complex(re_tau, im_tau)
    rng = np.random.default_rng(seed)
    f = random_element(LatticeParams(tau=tau, m=m, n=nf, c=complex(cs[0] / 4, cs[1])), rng)
    g = random_element(LatticeParams(tau=tau, m=m, n=ng, c=complex(cs[2] / 4, cs[3])), rng)
    h = multiply_elements(f, g)
    assert h.params.n == nf + ng and h.params.c == f.params.c + g.params.c
    # points in the strip below the cell, in it and in the one above
    zs = rng.random(12) + (rng.random(12) * 3 - 1) * tau / m
    assert _relative_product_error(f, g, h, zs) < 1e-12


def test_product_and_exchange_need_no_fit(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("sampled fit or product called")

    rng = np.random.default_rng(15)
    dom = ThetaDomain(2, TAU)
    f, g = dom.sample(rng), dom.sample(rng)
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", forbidden)
        h = multiply_elements(f, g)
        zs = np.array([0.11 + 0.21j, 0.42 + 0.62j, 0.77 + 0.37j])
        assert _relative_product_error(f, g, h, zs) < 1e-12
    # the exchange, factorization and the ordered action interpolate
    # every factor, draw no sample points and never form a product; the
    # exchange looks up no space of degree 2
    looked_up = []
    lookup = mtheta.mtheta_basis

    def recording(params):
        looked_up.append(params)
        return lookup(params)

    for name in ("_right_multiplier", "multiply_elements"):
        monkeypatch.setattr(mtheta, name, forbidden)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(mtheta, "mtheta_basis", recording)
    f1, g1 = theta_mu(f, g)
    assert f1.zeros == g.zeros and g1.zeros == f.zeros
    assert looked_up and all(p.n == 1 for p in looked_up)
    fac = factorize_theta(h, [list(f.zeros), list(g.zeros)], [f.params.c, g.params.c])
    assert dom.distance(fac[0], f) < 1e-9 and dom.distance(fac[1], g) < 1e-9
    out = act_ordered_theta([0, 2, 1, 3], [f, g])
    assert out[0].zeros == (f.zeros[0], g.zeros[0]) and out[1].zeros == (f.zeros[1], g.zeros[1])


def test_out_of_box_product_and_zero_element_raise_typed_errors():
    # the c of f g leaves the box |Im c| <= 8 (the exchange of this pair,
    # which never forms f g, is a CLI test)
    one = np.ones(1, dtype=complex)
    f = mtheta.ThetaElement(LatticeParams(tau=TAU, m=1, n=1, c=0.1 + 5j), one)
    g = mtheta.ThetaElement(LatticeParams(tau=TAU, m=1, n=1, c=0.4 + 4.5j), one)
    with pytest.raises(TwistlabError, match="Im c"):
        multiply_elements(f, g)
    # at m = 1 no kernel vector reads the element, so the zero element
    # of degree 2 reaches the product certificate, which rejects it
    zero = mtheta.ThetaElement(LatticeParams(tau=TAU, m=1, n=2, c=2 * C0), np.zeros(2, dtype=complex))
    with pytest.raises(ResidualTooLarge):
        factorize_theta(zero, [[C0 + 0.8], [C0 + 0.2]], [C0 + 0.3, C0 - 0.3])


def test_exchange_certificate_holds_where_the_product_is_large():
    # c_f + c_g has Im -12.6; f g reaches about 1e154 at the certificate's
    # probes, where a plain Frobenius norm overflows
    tau, m = 0.2 + 1.1j, 4
    rng = np.random.default_rng(3)

    def draw(im_c):
        zs = [complex(rng.random() / m + rng.random() * tau / m) for _ in range(m)]
        c = sum(zs) - 0.5
        c += round((im_c - c.imag) / (tau.imag / m)) * tau / m
        vs = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(m)]
        return interpolate(LatticeParams(tau=tau, m=m, n=1, c=c), zs, vs)

    f, g = draw(-5.3), draw(-7.3)
    f1, g1 = theta_mu(f, g)
    assert f1.zeros == g.zeros and g1.zeros == f.zeros
    assert mtheta._product_residual([f1, g1], [f, g]) < 1e-10


def test_product_certificate_rejects_a_wrong_product(monkeypatch):
    # a product whose coordinates miss f g must fail its probe residual
    rng = np.random.default_rng(16)
    f = random_element(LatticeParams(tau=TAU, m=2, n=1, c=C0), rng)
    g = random_element(LatticeParams(tau=TAU, m=2, n=1, c=C0), rng)
    rows = mtheta._monomial_rows

    def perturbed(elem):
        r, k0 = rows(elem)
        return r * (1 + 1e-6 * (elem is g)), k0

    monkeypatch.setattr(mtheta, "_monomial_rows", perturbed)
    multiply_elements(f, g, resid_tol=1e-5)
    with pytest.raises(ResidualTooLarge, match="product residual"):
        multiply_elements(f, g)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_product_certificate_fails_closed_where_the_product_is_large(monkeypatch, eps):
    # here f g reaches about 1e156 at the fourth (1, tau)-cell probe, so
    # its plain Frobenius norm overflows; a product with coordinates off
    # by eps must still fail, and the correct one pass
    tau = -0.195 + 2.769j
    pf = LatticeParams(tau=tau, m=4, n=1, c=-0.521 - 2.109j)
    pg = LatticeParams(tau=tau, m=4, n=2, c=0.611 - 2.709j)
    build = mtheta._right_multiplier
    for seed in range(10):
        rng = np.random.default_rng(seed)
        f, g = random_element(pf, rng), random_element(pg, rng)
        multiply_elements(f, g)
        noise = 1 + eps * rng.standard_normal(48)  # the product space has dim 16 * 3

        def perturbed(g, left):
            pr, mat = build(g, left)
            return pr, mat * noise[:, None]

        with monkeypatch.context() as mp:
            mp.setattr(mtheta, "_right_multiplier", perturbed)
            with pytest.raises(ResidualTooLarge, match="product residual"):
                multiply_elements(f, g)


@pytest.mark.parametrize("n", [2, 3])
def test_product_certificate_rejects_an_indivisible_element(n):
    # at m = 1 each peeled factor is the degree-1 theta with its block's
    # zero, whatever the element; a step of 1e-4 out of the range of the
    # last factor's right multiplier leaves an element they do not divide
    rng = np.random.default_rng(19 + n)
    dom = ThetaDomain(1, TAU)
    fs = [dom.sample(rng) for _ in range(n)]
    h = fs[0]
    for fk in fs[1:]:
        h = multiply_elements(h, fk)
    blocks, cs = [list(f.zeros) for f in fs], [f.params.c for f in fs]
    factorize_theta(h, blocks, cs)
    left = LatticeParams(tau=TAU, m=1, n=n - 1, c=h.params.c - cs[-1])
    _, mat = mtheta._right_multiplier(fs[-1], left)
    q, _ = np.linalg.qr(mat)
    step = rng.standard_normal(h.coeffs.shape) + 1j * rng.standard_normal(h.coeffs.shape)
    step -= q @ (q.conj().T @ step)
    step *= 1e-4 * np.linalg.norm(h.coeffs) / np.linalg.norm(step)
    bad = mtheta.ThetaElement(h.params, h.coeffs + step)
    with pytest.raises(ResidualTooLarge, match="factor product misses the element"):
        factorize_theta(bad, blocks, cs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(2, 3),
    re_tau=st.floats(-0.5, 0.5),
    im_tau=st.floats(0.5, 2.0),
    cs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_factorize_theta_round_trips_over_the_box(m, n, re_tau, im_tau, cs, seed):
    tau = complex(re_tau, im_tau)
    o1, o2 = 1 / m, tau / m
    rng = np.random.default_rng(seed)
    cs = [complex(*c) for c in cs[:n]]
    blocks = []
    for c in cs:
        pts = list(rng.random(m - 1) * o1 + rng.random(m - 1) * o2)
        pts.append(complex(mtheta.reduce_to_cell(c + 0.5 - sum(pts), o1, o2)))
        blocks.append(pts)
    flat = [z for b in blocks for z in b]
    assume(all(modular_distance(a, b, o1, o2) > 50 * mtheta.CELL_GATE for i, a in enumerate(flat) for b in flat[:i]))
    fs = []
    for c, pts in zip(cs, blocks):
        vs = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in pts]
        fs.append(interpolate(LatticeParams(tau=tau, m=m, n=1, c=c), pts, vs))
    h = fs[0]
    for fk in fs[1:]:
        h = multiply_elements(h, fk)
    fac = factorize_theta(h, blocks, cs)
    dom = ThetaDomain(m, tau)
    assert max(dom.distance(a, b) for a, b in zip(fac, fs)) < 1e-8
    assert mtheta._product_residual(fac, [h]) < 1e-10


def _lattice_distance_numpy(w, o1, o2):
    mat = np.array([[o1.real, o2.real], [o1.imag, o2.imag]], dtype=float)
    xy = np.linalg.solve(mat, [w.real, w.imag])
    frac = xy - np.round(xy)
    return min(abs((frac[0] + dx) * o1 + (frac[1] + dy) * o2) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def test_lattice_distance_matches_numpy_reference():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        m = int(rng.integers(1, 5))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 3.0))
        w = complex(*rng.uniform(-2, 2, 2))
        for o1, o2 in ((1.0 / m, tau / m), (1.0, tau)):
            assert abs(lattice_distance(w, o1, o2) - _lattice_distance_numpy(w, o1, o2)) < 1e-15


def test_array_lattice_distances_equal_the_scalar_form():
    rng = np.random.default_rng(18)
    for m in range(1, 5):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 3.0))
        ws = rng.uniform(-2, 2, (20, 3)) + 1j * rng.uniform(-2, 2, (20, 3))
        got = mtheta._lattice_distances(ws, 1.0 / m, tau / m)
        assert got.shape == ws.shape
        ref = [[lattice_distance(w, 1.0 / m, tau / m) for w in row] for row in ws]
        # numpy may fuse the complex products, so allow the last bits
        assert np.abs(got - ref).max() < 1e-15
