import numpy as np
import pytest

from twistlab.errors import NonGeneric, UnknownMap
from twistlab.matpoly import pair_map
from twistlab.transpositions import (
    MAX_REDRAW,
    ScalarDomain,
    TwistedMap,
    act,
    adjacent_word,
    builtin_map,
    chain_invariants,
    compose_permutations,
    verify_braid,
    verify_involution,
    word_permutation,
)
from twistlab.ybe import builtin_L, builtin_R, q_check, verify_inverse, verify_L, verify_tybe


def test_scalar_rational_worked_value():
    m = builtin_map("scalar_rational")
    phi, psi = m.apply(2 + 0j, 3 + 0j)
    assert abs(phi - 5) < 1e-14
    assert abs(psi - 6 / 5) < 1e-14


def test_matrix_rational_matches_scalar_at_size_one():
    ms = builtin_map("scalar_rational")
    mm = builtin_map("matrix_rational", m=1)
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = complex(rng.standard_normal(), rng.standard_normal())
        v = complex(rng.standard_normal(), rng.standard_normal())
        if not ms.is_generic(u, v):
            continue
        su, sv = ms.apply(u, v)
        mu, mv = mm.apply(np.array([[u]]), np.array([[v]]))
        assert abs(mu[0, 0] - su) < 1e-12 * max(1, abs(su))
        assert abs(mv[0, 0] - sv) < 1e-12 * max(1, abs(sv))


def test_q_swap_identity_is_plain_swap():
    m = builtin_map("q_swap")
    assert m.apply(2 + 1j, 3 - 1j) == (3 - 1j, 2 + 1j)


def test_unknown_map_rejected():
    with pytest.raises(UnknownMap):
        builtin_map("nope")


def test_involution_scalar_rational():
    rep = verify_involution(builtin_map("scalar_rational"), samples=200, seed=0)
    assert rep.passed and rep.max_residual < 1e-10


def test_involution_matrix_rational():
    rep = verify_involution(builtin_map("matrix_rational", m=2), samples=100, seed=0)
    assert rep.passed


def test_involution_q_swap_affine():
    rep = verify_involution(builtin_map("q_swap", q_shift=1.0), samples=50, seed=0)
    assert rep.passed


def test_braid_scalar_rational_fixed_triple():
    m = builtin_map("scalar_rational")
    pts = (2 + 0j, 3 + 0j, 5 + 0j)
    left = act(m, (1, 2, 1), pts)
    right = act(m, (2, 1, 2), pts)
    assert max(abs(a - b) for a, b in zip(left, right)) < 1e-10


def test_braid_q_swap_scaling():
    rep = verify_braid(builtin_map("q_swap", q_scale=2.0), samples=50, seed=1)
    assert rep.passed


def test_braid_matpoly_pair():
    rep = verify_braid(pair_map(2), samples=40, seed=1)
    assert rep.passed


def test_act_empty_word_and_involution_word():
    m = builtin_map("scalar_rational")
    pts = (1.5 + 0.5j, -0.3 + 1j, 0.8 - 0.2j)
    assert act(m, (), pts) == pts
    back = act(m, (1, 1), pts)
    assert max(abs(a - b) for a, b in zip(back, pts)) < 1e-10


def test_act_identity_permutation_words():
    m = builtin_map("scalar_rational")
    rng = np.random.default_rng(3)
    pts = tuple(complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4))
    for word in [(1, 1), (2, 2, 3, 3), (1, 2, 1, 1, 2, 1)]:
        assert word_permutation(word, 4) == list(range(4))
        back = act(m, word, pts)
        assert max(abs(a - b) for a, b in zip(back, pts)) < 1e-8


def test_act_rejects_bad_index():
    m = builtin_map("scalar_rational")
    with pytest.raises(ValueError):
        act(m, (3,), (1 + 0j, 2 + 0j))


def test_chain_invariants_definition_n1():
    m = builtin_map("scalar_rational")
    u, w = 1.3 + 0.2j, -0.7 + 0.9j
    t, s = chain_invariants(m, [u], w)
    assert t == m.apply(u, w)[0]
    assert s == m.apply(w, u)[1]


def test_chain_invariants_scalar_swap():
    m = builtin_map("scalar_rational")
    rng = np.random.default_rng(4)
    us = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(3)]
    w = complex(rng.standard_normal(), rng.standard_normal())
    t0, s0 = chain_invariants(m, us, w)
    permuted = act(m, (1,), us)
    t1, s1 = chain_invariants(m, permuted, w)
    assert abs(t0 - t1) < 1e-9 * max(1, abs(t0))
    assert abs(s0 - s1) < 1e-9 * max(1, abs(s0))


def test_chain_invariants_plain_swap_collapses():
    m = builtin_map("q_swap")
    us = [0.4 + 0.1j, -1.2 + 0.7j]
    w = 0.9 - 0.3j
    t, _ = chain_invariants(m, us, w)
    assert t == w


def test_scalar_rational_product_identity():
    m = builtin_map("scalar_rational")
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = complex(rng.standard_normal(), rng.standard_normal())
        v = complex(rng.standard_normal(), rng.standard_normal())
        if not m.is_generic(u, v):
            continue
        phi, psi = m.apply(u, v)
        assert abs(phi * psi - u * v) < 1e-12 * max(1, abs(u * v))


def test_matrix_rational_identities():
    m = builtin_map("matrix_rational", m=2)
    rng = np.random.default_rng(6)
    for _ in range(50):
        u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if not m.is_generic(u, v):
            continue
        phi, psi = m.apply(u, v)
        scale = max(1.0, np.linalg.norm(u @ v))
        assert np.linalg.norm(phi @ psi - u @ v) < 1e-9 * scale
        assert np.linalg.norm(np.eye(2) - phi + phi @ psi - u) < 1e-9 * scale


def test_word_permutation_braid_words_agree():
    assert word_permutation((1, 2, 1), 3) == word_permutation((2, 1, 2), 3)


def test_adjacent_word_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(20):
        sigma = list(rng.permutation(6))
        word = adjacent_word(sigma)
        arr = list(range(6))
        for j in word:
            arr[j], arr[j + 1] = arr[j + 1], arr[j]
        realized = [0] * 6
        for pos, orig in enumerate(arr):
            realized[orig] = pos
        assert realized == sigma


def test_compose_permutations_convention():
    s1 = [1, 2, 0]
    s2 = [2, 0, 1]
    comp = compose_permutations(s2, s1)
    assert comp == [s2[s1[i]] for i in range(3)]


class CountingDomain(ScalarDomain):
    def __init__(self):
        self.draws = 0

    def sample(self, rng):
        self.draws += 1
        return super().sample(rng)


@pytest.mark.parametrize(
    "verify,points",
    [
        (lambda mp: verify_involution(mp, samples=3), 2),
        (lambda mp: verify_braid(mp, samples=3), 3),
        (lambda mp: verify_inverse(builtin_R("relabel_id", mp), samples=3), 2),
        (lambda mp: verify_tybe(builtin_R("relabel_swap", mp), samples=3), 3),
        (lambda mp: verify_L(builtin_L("constant"), builtin_R("relabel_id", mp), samples=3), 2),
        (lambda mp: q_check(builtin_L("constant"), mp, samples=3), 2),
    ],
    ids=["involution", "braid", "inverse", "tybe", "l_operator", "q_operator"],
)
def test_redraw_cap(verify, points):
    dom = CountingDomain()
    never = TwistedMap("never_generic", dom, lambda u, v: (v, u), lambda u, v: False)
    with pytest.raises(NonGeneric, match=f"after {MAX_REDRAW} draws"):
        verify(never)
    assert dom.draws == points * MAX_REDRAW
