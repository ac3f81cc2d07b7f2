"""Theta trials over stacks: the stacked verifiers against the per-sample
loop, the stacked draws, row errors, the array gates, far points and the
one term table per (m, n, tau)."""

import numpy as np
import pytest

from sampling_reference import same_samples
from test_transpositions import reference_braid, reference_involution
from test_ybe import reference_inverse, reference_tybe
from twistlab import mtheta
from twistlab.errors import (
    InputInvalid,
    NullityMismatch,
    PartitionInvalid,
    ResidualTooLarge,
    SpectraOverlap,
    SumRuleViolated,
    TwistlabError,
)
from twistlab.mtheta import (
    CELL_GATE,
    LatticeParams,
    MThetaBasis,
    ThetaDomain,
    clifford_pair,
    factorize_theta,
    interpolate,
    modular_distance,
    mtheta_basis,
    random_element,
    theta_map,
    theta_mu,
    zero_sum_residual,
)
from twistlab.transpositions import verify_braid, verify_involution
from twistlab.ybe import builtin_R, verify_inverse, verify_tybe

CASES = [(m, tau) for m in (1, 2, 3) for tau in (1j, 0.2 + 1.1j)]


@pytest.mark.parametrize("m,tau", CASES)
def test_stacked_theta_verifiers_match_the_per_sample_reference(m, tau):
    tm = theta_map(m, tau)
    r = builtin_R("relabel_swap", tm, 2)
    for seed in range(10):
        same_samples(verify_involution(tm, samples=3, seed=seed), reference_involution(tm, 3, seed))
        same_samples(verify_braid(tm, samples=2, seed=seed), reference_braid(tm, 2, seed))
        same_samples(verify_inverse(r, samples=3, seed=seed), reference_inverse(r, 3, seed))
        same_samples(verify_tybe(r, samples=1, seed=seed), reference_tybe(r, 1, seed))


@pytest.mark.parametrize("m,tau", CASES)
def test_stacked_draws_equal_successive_single_draws(m, tau):
    dom = ThetaDomain(m, tau)
    stacked, single = np.random.default_rng(m), np.random.default_rng(m)
    block = dom.sample(stacked, 6)
    assert block.ok.all() and block.shape == (6,)
    for k in range(6):
        one = dom.sample(single)
        got = block.element(k)
        assert got.zeros == one.zeros and got.params == one.params
        assert np.abs(got.coeffs - one.coeffs).max() <= 1e-13
    # the stream goes on where the stack left it
    assert dom.sample(stacked).zeros == dom.sample(single).zeros


def test_a_failed_sampling_interpolation_is_one_more_redraw(monkeypatch):
    tm = theta_map(2, 1j)
    base = verify_involution(tm, samples=3, seed=4)
    real = mtheta.interpolate
    forced = []

    def first_row_fails(params, points, vectors):
        out = real(params, points, vectors)
        if np.ndim(params.c) and not forced:
            forced.append(True)
            out.ok[0] = False
        return out

    monkeypatch.setattr(mtheta, "interpolate", first_row_fails)
    rep = verify_involution(tm, samples=3, seed=4)
    assert forced and rep.redraws == base.redraws + 1 and rep.passed


@pytest.mark.parametrize("error", [NullityMismatch, ResidualTooLarge])
def test_a_row_error_in_the_stacked_exchange_is_raised_as_per_sample(monkeypatch, error):
    real = mtheta._interpolate

    def last_row_fails(p, pts, us, why, th=None):
        out = real(p, pts, us, why, th)
        if th is not None:  # an interpolation of the exchange, not of a draw
            why.setdefault(len(pts) - 1, error("forced"))
        return out

    dom = ThetaDomain(2, 1j)
    rng = np.random.default_rng(5)
    f, g = dom.sample(rng), dom.sample(rng)
    monkeypatch.setattr(mtheta, "_interpolate", last_row_fails)
    with pytest.raises(error, match="forced"):
        theta_mu(f, g)
    tm = theta_map(2, 1j)
    with pytest.raises(error, match="forced"):
        verify_involution(tm, samples=3, seed=1)
    with pytest.raises(error, match="forced"):
        reference_involution(tm, 3, 1)


def _at_distance(rng, base, d, o1, o2):
    """A point at lattice distance d from base, moved by a lattice vector."""
    return base + d * np.exp(2j * np.pi * rng.random()) + int(rng.integers(-2, 3)) * o1 + int(rng.integers(-2, 3)) * o2


@pytest.mark.parametrize("tau", [1j, 0.2 + 1.1j])
def test_array_gates_decide_as_the_scalar_forms(tau):
    rng = np.random.default_rng(21)
    for m in (1, 2, 3):
        o1, o2 = 1.0 / m, tau / m
        for gate in (CELL_GATE, 10 * CELL_GATE, 50 * CELL_GATE):
            for eps in (-1e-12, 1e-12):
                for _ in range(20):
                    a = (rng.random() + rng.random() * tau) / m
                    b = _at_distance(rng, a, gate + eps, o1, o2)
                    scalar = modular_distance(b, a, o1, o2)
                    assert (scalar < gate) == (eps < 0)
                    array = float(mtheta._lattice_distances(np.array([b - a]), o1, o2)[0])
                    assert (array < gate) == (scalar < gate) and (array > gate) == (scalar > gate)


def _element_at(m, tau, zeros, rng):
    c = sum(zeros) - 0.5
    vs = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(m)]
    return interpolate(LatticeParams(tau=tau, m=m, n=1, c=c), zeros, vs)


@pytest.mark.parametrize("eps", [-1e-12, 1e-12])
def test_exchange_gates_at_their_thresholds(eps):
    rng = np.random.default_rng(22)
    a = 0.31 + 0.27j
    b = _at_distance(rng, a, CELL_GATE + eps, 1.0, 1j)
    f, g = _element_at(1, 1j, [a], rng), _element_at(1, 1j, [b], rng)
    # theta_mu: a gap below CELL_GATE collides
    if eps < 0:
        with pytest.raises(SpectraOverlap):
            theta_mu(f, g)
    else:
        theta_mu(f, g)
    # the map gates within 10 CELL_GATE
    far = _element_at(1, 1j, [_at_distance(rng, a, 10 * CELL_GATE + eps, 1.0, 1j)], rng)
    assert theta_map(1, 1j).is_generic(f, far) == (eps > 0)
    # factorization: blocks closer than CELL_GATE are not disjoint
    h = random_element(LatticeParams(tau=1j, m=1, n=2, c=f.params.c + g.params.c), rng)
    if eps < 0:
        with pytest.raises(PartitionInvalid, match="not disjoint"):
            factorize_theta(h, [[a], [b]], [f.params.c, g.params.c])
    else:
        with pytest.raises(ResidualTooLarge):  # h does not vanish there
            factorize_theta(h, [[a], [b]], [f.params.c, g.params.c])


class _Scripted:
    """A generator that returns the given uniforms in turn."""

    def __init__(self, uniforms):
        self.uniforms = iter(uniforms)

    def random(self):
        return next(self.uniforms)

    def standard_normal(self, size):
        return np.ones(size)


@pytest.mark.parametrize("eps", [-1e-12, 1e-12])
def test_draw_and_sum_gates_at_their_thresholds(eps):
    # a draw keeps a zero set whose points lie more than 50 CELL_GATE apart
    dom = ThetaDomain(2, 1j)
    first = [0.4, 0.4, 0.4 + 2 * (50 * CELL_GATE + eps), 0.4]
    zs, _ = dom._draw(_Scripted(first + [0.2, 0.2, 0.6, 0.8]))
    pts = [first[0] / 2 + first[1] * 1j / 2, first[2] / 2 + first[3] * 1j / 2]
    scalar = modular_distance(pts[0], pts[1], 0.5, 0.5j) > 50 * CELL_GATE
    assert (zs == pts) == scalar == (eps > 0)
    # interpolate keeps points within 1e-6 of the sum congruence
    p = LatticeParams(tau=1j, m=2, n=1, c=0.3 + 0.2j)
    pts = [0.1 + 0.2j, p.c + 0.5 - (0.1 + 0.2j) + (1e-6 + eps) / 2]
    assert (zero_sum_residual(pts, p) > 1e-6) == (eps > 0)
    raised = None
    try:
        interpolate(p, pts, [np.array([1.0, 0.4j]), np.array([0.3, 1.0])])
    except TwistlabError as exc:  # within the gate, the system may still have no kernel
        raised = exc
    assert isinstance(raised, SumRuleViolated) == (eps > 0)


P_FAR = LatticeParams(tau=1j, m=2, n=1, c=0.3 + 0.2j)


def _far_element():
    return random_element(P_FAR, np.random.RandomState(1))


def _from_the_cell(f, z):
    """f(z) over exp(E), from the value at the point w of the cell that z
    moves to by the two laws, with exp(E) their scalar factor."""
    p = f.params
    m, n, tau, c = p.m, p.n, p.tau, p.c
    q = int(np.floor(m * z.imag / tau.imag))
    s = int(np.floor(m * (z - q * tau / m).real))
    w = z - s / m - q * tau / m
    u = w + s / m
    exponent = -2j * np.pi * (q * (m * n * u - c) + n * tau * q * (q - 1) / 2)
    g1, g2 = clifford_pair(m)
    inv = np.linalg.inv
    value = f.eval(np.array([w]))[0]
    value = inv(np.linalg.matrix_power(g1, s)) @ value @ np.linalg.matrix_power(g1, s)
    value = inv(np.linalg.matrix_power(g2, q % m)) @ value @ np.linalg.matrix_power(g2, q % m)
    return value, exponent


@pytest.mark.parametrize("z", [0.1 + 7.2j, 0.1 + 7.87j, 0.1 - 7.17j, 0.7 - 7.15j])
def test_far_values_are_finite_and_obey_the_laws(z):
    # at 0.1 + 7.87i and 0.1 - 7.17i the factor of the tau/m law alone
    # exceeds the double range, where the value itself does not
    f = _far_element()
    value = f.eval(np.array([z]))[0]
    assert np.isfinite(value).all()
    ref, exponent = _from_the_cell(f, z)
    half = np.exp(-exponent / 2)
    scaled = value * half * half
    assert np.abs(scaled - ref).max() <= 1e-10 * np.abs(ref).max()
    g1, _ = clifford_pair(2)
    shifted = f.eval(np.array([z - 0.5]))[0]
    assert np.abs(g1 @ value @ np.linalg.inv(g1) - shifted).max() <= 1e-10 * np.abs(value).max()


@pytest.mark.parametrize("z", [0.1 + 8.2j, 0.7 - 8j, 0.1 + 12j])
def test_values_beyond_the_double_range_raise(z):
    f = _far_element()
    with pytest.raises(InputInvalid, match="double range"):
        f.eval(np.array([z]))
    with pytest.raises(InputInvalid, match="double range"):
        f.basis().series(np.array([0.3 + 0.1j, z]))
    with pytest.raises(InputInvalid, match="double range"):
        f.det([z])


def test_one_term_table_per_m_n_tau(monkeypatch):
    mtheta._table.cache_clear()
    built = []
    init = MThetaBasis.__init__

    def counted(self, params):
        built.append((params.m, params.n, params.tau))
        init(self, params)

    monkeypatch.setattr(MThetaBasis, "__init__", counted)
    for c in (0.1, 0.2 + 1j, -3j, np.array([0.5, 1 + 2j])):
        basis = mtheta_basis(LatticeParams(tau=1j, m=2, n=1, c=c))
        assert basis.dim == 4
    assert built == [(2, 1, 1j)]
    # the table at c has the coefficients of a table built at c
    fresh = object.__new__(MThetaBasis)
    init(fresh, LatticeParams(tau=1j, m=2, n=1, c=-3j))
    shared = mtheta_basis(LatticeParams(tau=1j, m=2, n=1, c=-3j))
    assert np.array_equal(shared.coeffs, fresh.coeffs) and np.array_equal(shared.ks, fresh.ks)
