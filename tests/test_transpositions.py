import json
import math
import warnings

import numpy as np
import pytest

from sampling_reference import reference_samples, same_samples
from twistlab import cli, transpositions
from twistlab.errors import NonGeneric, UnknownMap
from twistlab.matpoly import pair_map
from twistlab.mtheta import theta_map
from twistlab.report import VerificationReport
from twistlab.transpositions import (
    MAX_REDRAW,
    MatrixDomain,
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


# --- stacked draws and stacked verifiers -------------------------------------


DOMAINS = {"scalar": ScalarDomain(), **{f"matrix{m}": MatrixDomain(m) for m in (1, 2, 3, 4)}}


@pytest.mark.parametrize("kind", DOMAINS)
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_stacked_draws_equal_successive_single_draws(kind, seed):
    dom = DOMAINS[kind]
    stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in (1, 5, 32):
        block = dom.sample(stacked, size)
        one = np.array([dom.sample(single) for _ in range(size)])
        assert block.shape == one.shape and block.dtype == np.complex128
        assert block.tobytes() == one.tobytes()
    # the stream continues where the stack left it
    assert np.asarray(dom.sample(stacked)).tobytes() == np.asarray(dom.sample(single)).tobytes()


def reference_involution(map_, samples, seed, tol=1e-9):
    dom = map_.domain

    def trial(rng):
        u, v = dom.sample(rng), dom.sample(rng)
        u2, v2 = map_.apply(*map_.apply(u, v))
        return max(dom.distance(u2, u), dom.distance(v2, v))

    return reference_samples("involution", map_.name, samples, seed, tol, trial)


def reference_braid(map_, samples, seed, tol=1e-8):
    dom = map_.domain

    def trial(rng):
        pts = tuple(dom.sample(rng) for _ in range(3))
        left, right = act(map_, (1, 2, 1), pts), act(map_, (2, 1, 2), pts)
        return max(dom.distance(x, y) for x, y in zip(left, right))

    return reference_samples("braid", map_.name, samples, seed, tol, trial)


# (map, MAP_GATE or None for the default, involution samples, braid samples);
# the raised gates reject a share of the trials, so redraws are compared too
CLOSED_FORM = {
    "q_swap": (lambda: builtin_map("q_swap", q_scale=1.5 + 0.5j, q_shift=0.25 - 0.5j), None, 60, 30),
    "scalar": (lambda: builtin_map("scalar_rational"), None, 60, 30),
    "scalar_tight": (lambda: builtin_map("scalar_rational"), 0.3, 60, 30),
    "matrix1": (lambda: builtin_map("matrix_rational", m=1), None, 30, 15),
    "matrix1_tight": (lambda: builtin_map("matrix_rational", m=1), 0.3, 30, 15),
    "matrix2": (lambda: builtin_map("matrix_rational", m=2), None, 20, 10),
    "matrix2_tight": (lambda: builtin_map("matrix_rational", m=2), 0.1, 20, 10),
    "matrix3": (lambda: builtin_map("matrix_rational", m=3), None, 20, 10),
    "matrix3_tight": (lambda: builtin_map("matrix_rational", m=3), 0.05, 20, 10),
}


@pytest.mark.parametrize("case", CLOSED_FORM)
def test_stacked_verifiers_match_the_per_sample_reference(monkeypatch, case):
    make, gate, n_inv, n_braid = CLOSED_FORM[case]
    if gate is not None:
        monkeypatch.setattr(transpositions, "MAP_GATE", gate)
    map_ = make()
    redraws = 0
    for seed in range(50):
        for verify, reference, n in ((verify_involution, reference_involution, n_inv), (verify_braid, reference_braid, n_braid)):
            rep = verify(map_, samples=n, seed=seed)
            same_samples(rep, reference(map_, n, seed))
            redraws += rep.redraws
    assert (redraws > 0) == (gate is not None)


def test_non_stacked_maps_report_bitwise_as_the_reference():
    pair, theta = pair_map(2), theta_map(1)
    for seed in range(3):
        assert verify_involution(pair, samples=8, seed=seed).to_dict() == reference_involution(pair, 8, seed).to_dict()
        assert verify_braid(pair, samples=4, seed=seed).to_dict() == reference_braid(pair, 4, seed).to_dict()
    assert verify_involution(theta, samples=3, seed=1).to_dict() == reference_involution(theta, 3, 1).to_dict()
    assert verify_braid(theta, samples=2, seed=1).to_dict() == reference_braid(theta, 2, 1).to_dict()


def _skewed(stacked: bool):
    """Not an involution where Re u > 0, with a gate that rejects |u| < 0.5:
    failures and redraws follow a pattern of the drawn points."""

    def body(u, v):
        return v, u * (1 + 1e-6 * (u.real > 0)), abs(u) >= 0.5

    if stacked:
        return TwistedMap("skewed", ScalarDomain(), _body=body, _stack=body)
    return TwistedMap("skewed", ScalarDomain(), lambda u, v: body(u, v)[:2], lambda u, v: body(u, v)[2])


@pytest.mark.parametrize("stacked", [False, True], ids=["per_sample", "stacked"])
def test_redraws_and_failures_follow_the_drawn_points(stacked):
    map_ = _skewed(stacked)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        expect_redraws, expect_failures, accepted = 0, [], 0
        while accepted < 25:
            u, v = map_.domain.sample(rng), map_.domain.sample(rng)
            # mu(u, v) = (v, u'), then mu(v, u'): both first points are gated
            if abs(u) < 0.5 or abs(v) < 0.5:
                expect_redraws += 1
                continue
            if u.real > 0 or v.real > 0:
                expect_failures.append(accepted)
            accepted += 1
        rep = verify_involution(map_, samples=25, seed=seed)
        assert rep.redraws == expect_redraws and expect_redraws > 0
        assert [i for i, _ in rep.failures] == expect_failures
        assert all(4e-7 < r < 2e-6 for _, r in rep.failures)
        assert rep.to_dict()["redraws"] == expect_redraws


def _pairs_at_the_gate(rng, count):
    """Scalar pairs whose denominator 1 - u + u v sits at t times the gate,
    for t on both sides of 1, plus pairs with a zero denominator."""
    us, vs = [], []
    for t in np.geomspace(0.25, 4.0, count - 2):
        u = complex(rng.standard_normal(), rng.standard_normal())
        phase = np.exp(2j * np.pi * rng.random())
        den = t * transpositions.MAP_GATE * phase
        for _ in range(3):
            v = (den - 1 + u) / u
            den = t * transpositions.MAP_GATE * max(1.0, abs(u), abs(v), abs(u * v)) * phase
        us.append(u)
        vs.append((den - 1 + u) / u)
    return np.array(us + [1, 2]), np.array(vs + [0, 0.5])


def _matrix_pairs_at_the_gate(rng, m, count):
    """Matrix pairs whose denominator I - u + u v has its least singular
    value at t times the gate, plus the pair u = I, v = 0."""
    us, vs = [np.eye(m, dtype=complex)], [np.zeros((m, m), dtype=complex)]
    for t in np.geomspace(0.25, 4.0, count - 1):
        u = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        w, s, vh = np.linalg.svd(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        v = np.zeros((m, m), dtype=complex)
        for _ in range(3):
            s[-1] = t * transpositions.MAP_GATE * max(1.0, np.linalg.norm(u), np.linalg.norm(v))
            v = np.linalg.solve(u, (w * s) @ vh - np.eye(m) + u)
        us.append(u)
        vs.append(v)
    return np.array(us), np.array(vs)


def _rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.linalg.norm(a - b) / np.linalg.norm(b) if np.linalg.norm(b) else np.linalg.norm(a)


@pytest.mark.parametrize("name,m", [("q_swap", 1), ("scalar_rational", 1), ("matrix_rational", 2), ("matrix_rational", 3)])
def test_stack_body_agrees_with_single_apply(name, m):
    map_ = builtin_map(name, m=m, q_scale=1.5 + 0.5j, q_shift=0.25 - 0.5j)
    rng = np.random.default_rng(11)
    count = 10_000 if map_.domain.kind == "scalar" else 5_000
    u, v = map_.domain.sample(rng, count), map_.domain.sample(rng, count)
    if name == "scalar_rational":
        gu, gv = _pairs_at_the_gate(rng, 400)
    elif name == "matrix_rational":
        gu, gv = _matrix_pairs_at_the_gate(rng, m, 200)
    else:
        gu, gv = u[:0], v[:0]
    u, v = np.concatenate([u, gu]), np.concatenate([v, gv])
    phi, psi, generic = map_._stack(u, v)
    generic = np.broadcast_to(generic, u.shape[:1])
    if name != "q_swap":
        assert 0 < generic[count:].sum() < len(gu)
    for k in range(len(u)):
        a, b = (complex(u[k]), complex(v[k])) if map_.domain.kind == "scalar" else (u[k], v[k])
        assert map_.is_generic(a, b) == generic[k]
        if generic[k]:
            one = map_.apply(a, b)
            assert _rel(phi[k], one[0]) <= 1e-15 and _rel(psi[k], one[1]) <= 1e-15


def test_gated_out_rows_leave_the_other_rows_alone():
    rng = np.random.default_rng(5)
    for map_, bad_u, bad_v in (
        (builtin_map("scalar_rational"), 1.0 + 0j, 0j),
        (builtin_map("matrix_rational", m=2), np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)),
    ):
        u, v = map_.domain.sample(rng, 8), map_.domain.sample(rng, 8)
        clean = map_._stack(u, v)
        u2, v2 = u.copy(), v.copy()
        u2[[2, 5]], v2[[2, 5]] = bad_u, bad_v
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, psi, generic = map_._stack(u2, v2)
        keep = [0, 1, 3, 4, 6, 7]
        assert list(np.flatnonzero(~generic)) == [2, 5] and clean[2].all()
        assert np.array_equal(phi[keep], clean[0][keep]) and np.array_equal(psi[keep], clean[1][keep])
        assert np.isfinite(phi).all() and np.isfinite(psi).all()


@pytest.mark.parametrize("name,m", [("scalar_rational", 2), ("matrix_rational", 2), ("matrix_rational", 3)])
@pytest.mark.parametrize("verify", [verify_involution, verify_braid])
def test_stacked_redraw_cap(monkeypatch, name, m, verify):
    monkeypatch.setattr(transpositions, "MAP_GATE", math.inf)
    with pytest.raises(NonGeneric, match=f"after {MAX_REDRAW} draws"):
        verify(builtin_map(name, m=m), samples=3, seed=0)


def _nan_swap(stacked: bool):
    """mu(u, v) = (NaN, u): every residual is NaN."""

    def body(u, v):
        return v * math.nan, u, True

    if stacked:
        return TwistedMap("nan_swap", ScalarDomain(), _body=body, _stack=body)
    return TwistedMap("nan_swap", ScalarDomain(), lambda u, v: (math.nan, u))


@pytest.mark.parametrize("stacked", [False, True], ids=["per_sample", "stacked"])
def test_a_nan_residual_fails(stacked):
    map_ = _nan_swap(stacked)
    for verify in (verify_involution, verify_braid):
        rep = verify(map_, samples=5, seed=3)
        assert not rep.passed and rep.to_dict()["status"] == "fail"
        assert [i for i, _ in rep.failures] == list(range(5))
        assert all(math.isnan(r) for _, r in rep.failures)


def test_record_counts_non_finite_residuals_as_failures():
    rep = VerificationReport("c", "s", 3, 0, 1e-9)
    rep.record(0, 1e-12)
    rep.record(1, math.nan)
    assert not rep.passed and rep.failures == [(1, rep.failures[0][1])]
    assert rep.max_residual == math.inf and rep.argmax_sample == 1
    rep.record(2, math.inf)
    assert rep.max_residual == math.inf and rep.argmax_sample == 1
    assert [i for i, _ in rep.failures] == [1, 2]


@pytest.mark.parametrize("stacked", [False, True], ids=["per_sample", "stacked"])
def test_a_nan_residual_shows_as_an_infinite_maximum_and_null_in_json(stacked):
    rep = verify_involution(_nan_swap(stacked), samples=3)
    assert rep.max_residual == math.inf and rep.argmax_sample == 0
    out = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    assert out["status"] == "fail" and out["max_residual"] is None and out["argmax_sample"] == 0
    assert out["failures"] == [{"sample": i, "residual": None} for i in range(3)]
    body = json.loads(json.dumps(cli.report_body(reports=[rep]), allow_nan=False))
    assert body["status"] == "fail" and body["max_residual"] is None
    assert [f["residual"] for f in body["failures"]] == [None] * 3


def test_breakdown_counts_a_non_finite_residual_as_infinite():
    rep = VerificationReport("c", "s", 2, 0, 1e-9)
    rep.record(0, 1e-12, "a")
    rep.record(1, math.nan, "a")
    rep.record(1, 1e-13, "b")
    assert rep.breakdown == {"a": math.inf, "b": 1e-13}
    out = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    assert out["breakdown"] == {"a": None, "b": 1e-13} and out["max_residual"] is None
