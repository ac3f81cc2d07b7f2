import dataclasses
import itertools
import math

import numpy as np
import pytest

from sampling_reference import reference_samples, same_samples
from twistlab import transpositions, ybe
from twistlab.errors import NonGeneric, SizeMismatch, UnknownR
from twistlab.matpoly import pair_map
from twistlab.mtheta import theta_map
from twistlab.transpositions import MAX_REDRAW, adjacent_word, builtin_map, act, verify_braid, verify_involution
from twistlab.ybe import (
    LOperator,
    RMatrix,
    block_swap_perm,
    block_swap_word,
    builtin_L,
    builtin_R,
    compose_L,
    gf_compose,
    gf_verify,
    local_gf_system,
    place,
    q_check,
    q_of,
    scattering,
    verify_inverse,
    verify_L,
    verify_tybe,
    _specnorm,
)

SCALAR = builtin_map("scalar_rational")


def _place_by_kron(op, legs, dims):
    """Reference embedding: kron with the identity on the other legs,
    then a transpose of the tensor legs into place; a stack is placed
    matrix by matrix."""
    op = np.asarray(op)
    if op.ndim > 2:
        total = int(np.prod(dims))
        flat = op.reshape((-1,) + op.shape[-2:])
        return np.array([_place_by_kron(o, legs, dims) for o in flat]).reshape(op.shape[:-2] + (total, total))
    legs = list(legs)
    rest = [i for i in range(len(dims)) if i not in legs]
    d_rest = int(np.prod([dims[i] for i in rest]))
    order = legs + rest
    inv = [int(p) for p in np.argsort(order)]
    shape = [dims[o] for o in order]
    tens = np.kron(op, np.eye(d_rest)).reshape(shape + shape)
    total = int(np.prod(dims))
    return tens.transpose(inv + [len(dims) + p for p in inv]).reshape(total, total)


def _specnorm_by_norm(a):
    a = np.asarray(a)
    if a.ndim > 2:
        return np.linalg.norm(a, 2, axis=(-2, -1))
    return float(np.linalg.norm(a, 2))


def test_place_matches_kron_layouts():
    rng = np.random.default_rng(0)
    for dims in ((2, 2, 1), (2, 2, 3), (3, 2, 2), (2, 2, 2, 2)):
        for k in (1, 2, 3):
            for legs in itertools.permutations(range(len(dims)), k):
                d = int(np.prod([dims[i] for i in legs]))
                real = rng.standard_normal((d, d))
                for op in (real, real + 1j * rng.standard_normal((d, d))):
                    got = place(op, legs, dims)
                    want = _place_by_kron(op, legs, dims)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (dims, legs)
                    assert _specnorm(got) == np.linalg.norm(got, 2)
    # acting on legs (0, 2) of a 2 x 3 x 2 product, against the tensor form
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    full = place(c, (0, 2), [2, 3, 2])
    tens = c.reshape(2, 2, 2, 2)
    expected = np.einsum("ikjl,ab->iakjbl", tens, np.eye(3)).reshape(12, 12)
    assert np.allclose(full, expected)
    assert np.array_equal(place(c, (0, 1), [2, 2]), c)


def test_place_rejects_bad_shape():
    with pytest.raises(SizeMismatch):
        place(np.eye(3), (0, 1), [2, 2])
    for legs in ((0, 0), (-1,), (3,)):
        with pytest.raises(SizeMismatch):
            place(np.eye(2), legs, [2, 2, 2])


def _equivalence_runs():
    """Every ybe verifier, the GF layer and scattering at fixed seeds,
    as plain values that compare with ==."""
    rng = np.random.default_rng(14)
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    maps = (SCALAR, builtin_map("matrix_rational", m=2), pair_map(2))
    out = []
    for map_ in maps:
        for name in ("relabel_id", "relabel_swap"):
            r = builtin_R(name, map_, 2)
            out.append(verify_inverse(r, samples=10, seed=1).to_dict())
            out.append(verify_tybe(r, samples=10, seed=1).to_dict())
    const = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    randconst = RMatrix("randconst", 2, SCALAR, lambda u, v: const)
    out.append(verify_inverse(randconst, samples=5, seed=2).to_dict())
    out.append(verify_tybe(randconst, samples=5, seed=2).to_dict())
    r_id = builtin_R("relabel_id", SCALAR, 2)
    r_swap = builtin_R("relabel_swap", SCALAR, 2)
    fixtures = [builtin_L(n, 2, w) for n, w in (("constant", 1), ("power", 1), ("power", 2), ("diag_u", 1))]
    fixtures.append(compose_L(fixtures[1], fixtures[2]))
    for l_op in fixtures:
        for r in (r_id, r_swap):
            out.append(verify_L(l_op, r, samples=10, seed=3).to_dict())
        out.append(q_check(l_op, SCALAR, samples=10, seed=3).to_dict())
    systems = [local_gf_system(SCALAR, m, 2) for m in (1, 2, 3)]
    systems.append(local_gf_system(SCALAR, 2, 2, g_ops=(lambda u: c,)))
    for sys_ in systems:
        out.append(gf_verify(sys_, samples=5, seed=11).to_dict())
    for sys_ in systems[:3]:
        _, r = gf_compose(sys_, samples=10, seed=12)
        u, v = sys_.domain.sample(rng), sys_.domain.sample(rng)
        out.append(r(u, v).tolist())
    pts = tuple(complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4))
    for r in (r_swap, randconst):
        for word in ((), (1,), (1, 2, 1), (2, 1, 2), (1, 2, 1, 3, 2, 1), (3, 2, 3, 1, 2, 3)):
            op, after = scattering(r, word, pts)
            out.append((op.tolist(), after))
    return out


def test_place_and_specnorm_match_the_kron_reference_bit_for_bit(monkeypatch):
    got = _equivalence_runs()
    monkeypatch.setattr(ybe, "place", _place_by_kron)
    monkeypatch.setattr(ybe, "_specnorm", _specnorm_by_norm)
    want = _equivalence_runs()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a == b


def test_builtin_r_shapes():
    r = builtin_R("relabel_id", SCALAR, 2)
    assert np.allclose(r(0.1, 0.2), np.eye(4))
    r = builtin_R("relabel_swap", SCALAR, 2)
    p = r(0.1, 0.2)
    e01 = np.kron([1, 0], [0, 1.0])
    assert np.allclose(p @ e01, np.kron([0, 1.0], [1, 0]))
    assert np.allclose(p @ p, np.eye(4))
    with pytest.raises(UnknownR):
        builtin_R("other", SCALAR, 2)


def test_verify_inverse_builtin_and_negative():
    for name in ("relabel_id", "relabel_swap"):
        rep = verify_inverse(builtin_R(name, SCALAR, 2), samples=20, seed=0)
        assert rep.passed and rep.max_residual < 1e-14
    bad = RMatrix("scaled", 2, SCALAR, lambda u, v: 2 * np.eye(4))
    rep = verify_inverse(bad, samples=5, seed=0)
    assert not rep.passed
    assert abs(rep.max_residual - 3.0) < 1e-12


def test_verify_tybe_builtin_over_maps():
    maps = [
        builtin_map("q_swap", q_scale=2.0),
        SCALAR,
        builtin_map("matrix_rational", m=2),
        pair_map(2),
    ]
    for map_ in maps:
        for name in ("relabel_id", "relabel_swap"):
            rep = verify_tybe(builtin_R(name, map_, 2), samples=20, seed=1)
            assert rep.passed, (map_.name, name, rep.max_residual)


def test_verify_tybe_negative_control():
    rng = np.random.default_rng(2)
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    bad = RMatrix("randconst", 2, SCALAR, lambda u, v: c)
    rep = verify_tybe(bad, samples=5, seed=2)
    assert not rep.passed


def test_verify_l_constant_fixtures():
    r_swap = builtin_R("relabel_swap", SCALAR, 2)
    r_id = builtin_R("relabel_id", SCALAR, 2)
    lc = builtin_L("constant", 2, 1)
    assert verify_L(lc, r_swap, samples=30, seed=3).passed
    assert verify_L(lc, r_id, samples=30, seed=3).passed


def test_verify_l_udependent_and_negative():
    r_id = builtin_R("relabel_id", SCALAR, 2)
    lp = builtin_L("power", 2, 1)
    assert verify_L(lp, r_id, samples=30, seed=4).passed
    ld = builtin_L("diag_u", 2, 1)
    rep = verify_L(ld, r_id, samples=10, seed=4)
    assert not rep.passed
    assert rep.failures


def test_compose_l_block_pattern():
    la = builtin_L("constant", 2, 1)
    lb = builtin_L("power", 2, 1)
    comp = compose_L(la, lb)
    u = 0.7 + 0.2j
    assert np.allclose(comp(u), lb(u) @ la(u))


def test_compose_l_with_identity():
    la = builtin_L("power", 2, 1)
    ident = type(la)(2, 1, lambda u: np.eye(2))
    comp = compose_L(la, ident)
    u = 1.1 - 0.4j
    assert np.allclose(comp(u), la(u))


def test_compose_l_residual_inflation():
    r_id = builtin_R("relabel_id", SCALAR, 2)
    la = builtin_L("power", 2, 1)
    lb = builtin_L("power", 2, 2)
    ra = verify_L(la, r_id, samples=30, seed=5).max_residual
    rb = verify_L(lb, r_id, samples=30, seed=5).max_residual
    comp = compose_L(la, lb)
    rc = verify_L(comp, r_id, samples=30, seed=5).max_residual
    assert rc <= 4 * max(ra, rb, 1e-15)


def test_q_of_partial_trace():
    lc = builtin_L("constant", 2, 2)
    mat = lc(0.0).reshape(2, 2, 2, 2)
    expected = mat[0, :, 0, :] + mat[1, :, 1, :]
    assert np.allclose(q_of(lc, 0.0), expected)


def test_q_check_positive_and_negative():
    lc = builtin_L("constant", 2, 1)
    assert q_check(lc, SCALAR, samples=20, seed=6).passed
    lp = builtin_L("power", 2, 2)
    assert q_check(lp, SCALAR, samples=20, seed=6).passed
    ld = builtin_L("diag_u", 2, 1)
    assert not q_check(ld, SCALAR, samples=10, seed=6).passed


def test_q_follows_from_l_with_bounded_inflation():
    r_id = builtin_R("relabel_id", SCALAR, 2)
    for fixture, w in (("constant", 1), ("power", 1), ("power", 2)):
        l_op = builtin_L(fixture, 2, w)
        rl = verify_L(l_op, r_id, samples=30, seed=7)
        rq = q_check(l_op, SCALAR, samples=30, seed=7)
        assert rl.passed
        assert rq.max_residual <= 10 * max(rl.max_residual, 1e-15)


def test_scattering_trivial_words():
    r = builtin_R("relabel_swap", SCALAR, 2)
    op, pts = scattering(r, (), (2 + 0j, 3 + 0j))
    assert np.allclose(op, np.eye(4)) and pts == (2 + 0j, 3 + 0j)
    op, pts = scattering(r, (1, 1), (2 + 0j, 3 + 0j))
    assert np.linalg.norm(op - np.eye(4)) < 1e-12
    assert max(abs(a - b) for a, b in zip(pts, (2 + 0j, 3 + 0j))) < 1e-12


def test_scattering_path_independence():
    r = builtin_R("relabel_swap", SCALAR, 2)
    rng = np.random.default_rng(8)
    pts = tuple(complex(rng.standard_normal(), rng.standard_normal()) for _ in range(3))
    op1, p1 = scattering(r, (1, 2, 1), pts)
    op2, p2 = scattering(r, (2, 1, 2), pts)
    assert np.linalg.norm(op1 - op2) < 1e-12
    assert max(abs(a - b) for a, b in zip(p1, p2)) < 1e-10


def test_scattering_longer_reduced_words():
    r = builtin_R("relabel_swap", SCALAR, 2)
    rng = np.random.default_rng(9)
    pts = tuple(complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4))
    # two reduced words for the reversal in S4
    w1 = (1, 2, 1, 3, 2, 1)
    w2 = (3, 2, 3, 1, 2, 3)
    op1, p1 = scattering(r, w1, pts)
    op2, p2 = scattering(r, w2, pts)
    assert np.linalg.norm(op1 - op2) < 1e-8
    assert max(abs(a - b) for a, b in zip(p1, p2)) < 1e-8


def test_scattering_path_independence_all_short_words():
    # every word over the S4 generators up to length 4 must agree with any
    # other word realizing the same permutation
    import itertools

    from twistlab.transpositions import word_permutation

    r = builtin_R("relabel_swap", SCALAR, 2)
    rng = np.random.default_rng(10)
    pts = tuple(complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4))
    seen = {}
    for length in range(0, 5):
        for word in itertools.product((1, 2, 3), repeat=length):
            key = tuple(word_permutation(word, 4))
            op, out = scattering(r, word, pts)
            if key not in seen:
                seen[key] = (op, out)
                continue
            ref_op, ref_out = seen[key]
            assert np.linalg.norm(op - ref_op) < 1e-8
            assert max(abs(a - b) for a, b in zip(out, ref_out)) < 1e-8


def test_gf_verify_trivial_system():
    sys2 = local_gf_system(SCALAR, 2, 2)
    rep = gf_verify(sys2, samples=25, seed=10)
    assert rep.passed


def test_gf_verify_m1_delegates():
    sys1 = local_gf_system(SCALAR, 1, 2)
    rep = gf_verify(sys1, samples=10, seed=10)
    assert rep.passed
    assert set(rep.breakdown) == {"inverse", "tybe"}


def test_gf_verify_negative_control():
    rng = np.random.default_rng(11)
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sys2 = local_gf_system(SCALAR, 2, 2, g_ops=(lambda u: c,))
    rep = gf_verify(sys2, samples=5, seed=11)
    assert not rep.passed


def test_gf_compose_m1_passthrough():
    sys1 = local_gf_system(SCALAR, 1, 2)
    mu, r = gf_compose(sys1, samples=10, seed=12)
    u = np.array([0.5 + 0.1j])
    v = np.array([1.2 - 0.3j])
    out = mu.apply(u, v)
    direct = sys1.f_map(u, v)
    assert np.allclose(out[0], direct[0]) and np.allclose(out[1], direct[1])
    assert np.allclose(r(u, v), np.eye(4))


def test_gf_compose_trivial_m2():
    sys2 = local_gf_system(SCALAR, 2, 2)
    mu, r = gf_compose(sys2, samples=50, seed=13)
    rng = np.random.default_rng(13)
    u, v = sys2.domain.sample(rng), sys2.domain.sample(rng)
    assert np.allclose(r(u, v), np.eye(4))
    assert verify_tybe(r, samples=10, seed=13).passed
    # against the direct word action on the concatenated tuple
    word = [j + 1 for j in adjacent_word(block_swap_perm(2))]
    direct = act(SCALAR, word, list(u) + list(v))
    got = np.concatenate(mu.apply(u, v))
    assert np.abs(np.array(direct) - got).max() < 1e-8


def test_block_swap_word_length():
    for m in (1, 2, 3, 4):
        assert len(block_swap_word(m)) == m * m


# --- stacked verifiers against the per-sample reference ----------------------


def reference_inverse(r, samples, seed, tol=1e-9):
    map_, eye = r.twisted_map, np.eye(r.n * r.n)

    def trial(rng):
        u, v = map_.domain.sample(rng), map_.domain.sample(rng)
        p, q = map_.apply(u, v)
        return _specnorm(r(p, q) @ r(u, v) - eye)

    return reference_samples("inverse", r.name, samples, seed, tol, trial)


def _reference_scattering(r, word, pts):
    pts = list(pts)
    dims = [r.n] * len(pts)
    op = np.eye(r.n ** len(pts), dtype=np.complex128)
    for i in word:
        op = place(r(pts[i - 1], pts[i]), (i - 1, i), dims) @ op
        pts[i - 1], pts[i] = r.twisted_map.apply(pts[i - 1], pts[i])
    return op, pts


def reference_tybe(r, samples, seed, tol=1e-9):
    dom = r.twisted_map.domain

    def trial(rng):
        pts = tuple(dom.sample(rng) for _ in range(3))
        left_op, left_pts = _reference_scattering(r, (1, 2, 1), pts)
        right_op, right_pts = _reference_scattering(r, (2, 1, 2), pts)
        resid = _specnorm(left_op - right_op)
        return max(resid, max(dom.distance(a, b) for a, b in zip(left_pts, right_pts)))

    return reference_samples("tybe", r.name, samples, seed, tol, trial)


def reference_L(l_op, r, samples, seed, tol=1e-9):
    map_ = r.twisted_map
    dims = [r.n, r.n, l_op.w]

    def trial(rng):
        u, v = map_.domain.sample(rng), map_.domain.sample(rng)
        p, q = map_.apply(u, v)
        rmat = place(r(u, v), (0, 1), dims)
        lhs = rmat @ place(l_op(u), (0, 2), dims) @ place(l_op(v), (1, 2), dims)
        rhs = place(l_op(p), (0, 2), dims) @ place(l_op(q), (1, 2), dims) @ rmat
        return _specnorm(lhs - rhs) / max(1.0, _specnorm(lhs), _specnorm(rhs))

    return reference_samples("l_operator", r.name, samples, seed, tol, trial)


def reference_q(l_op, map_, samples, seed, tol=1e-9):
    def q(u):
        return np.einsum("iaib->ab", l_op(u).reshape(l_op.n, l_op.w, l_op.n, l_op.w))

    def trial(rng):
        u, v = map_.domain.sample(rng), map_.domain.sample(rng)
        p, q_ = map_.apply(u, v)
        lhs, rhs = q(u) @ q(v), q(p) @ q(q_)
        return _specnorm(lhs - rhs) / max(1.0, _specnorm(lhs), _specnorm(rhs))

    return reference_samples("q_operator", map_.name, samples, seed, tol, trial)


# (map, MAP_GATE or None for the default); the raised gates reject a share
# of the trials, so redraws are compared too
STACKED_MAPS = {
    "q_swap": (lambda: builtin_map("q_swap", q_scale=1.5 + 0.5j, q_shift=0.25 - 0.5j), None),
    "scalar": (lambda: builtin_map("scalar_rational"), None),
    "scalar_tight": (lambda: builtin_map("scalar_rational"), 0.3),
    "matrix1": (lambda: builtin_map("matrix_rational", m=1), None),
    "matrix2": (lambda: builtin_map("matrix_rational", m=2), None),
    "matrix2_tight": (lambda: builtin_map("matrix_rational", m=2), 0.1),
    "matrix3": (lambda: builtin_map("matrix_rational", m=3), None),
}
L_FIXTURES = (("constant", 1), ("power", 1), ("power", 2), ("diag_u", 1))


@pytest.mark.parametrize("case", STACKED_MAPS)
def test_stacked_r_verifiers_match_the_per_sample_reference(monkeypatch, case):
    make, gate = STACKED_MAPS[case]
    if gate is not None:
        monkeypatch.setattr(transpositions, "MAP_GATE", gate)
    map_ = make()
    rs = [builtin_R(name, map_, 2) for name in ("relabel_id", "relabel_swap")]
    assert all(r._stack is not None for r in rs)
    redraws = 0
    for seed in range(50):
        for r in rs:
            for verify, reference, n in ((verify_inverse, reference_inverse, 20), (verify_tybe, reference_tybe, 6)):
                rep = verify(r, samples=n, seed=seed)
                same_samples(rep, reference(r, n, seed))
                redraws += rep.redraws
    assert (redraws > 0) == (gate is not None)


@pytest.mark.parametrize("case", ["q_swap", "scalar", "scalar_tight"])
def test_stacked_l_and_q_match_the_per_sample_reference(monkeypatch, case):
    make, gate = STACKED_MAPS[case]
    if gate is not None:
        monkeypatch.setattr(transpositions, "MAP_GATE", gate)
    map_ = make()
    rs = [builtin_R(name, map_, 2) for name in ("relabel_id", "relabel_swap")]
    fixtures = [builtin_L(name, 2, w) for name, w in L_FIXTURES]
    reports = []
    for seed in range(50):
        for l_op in fixtures:
            for r in rs:
                reports.append(verify_L(l_op, r, samples=8, seed=seed))
                same_samples(reports[-1], reference_L(l_op, r, 8, seed))
            reports.append(q_check(l_op, map_, samples=16, seed=seed))
            same_samples(reports[-1], reference_q(l_op, map_, 16, seed))
    # some fixtures fail, so failure indices are compared as well
    assert any(rep.passed for rep in reports) and not all(rep.passed for rep in reports)
    assert any(rep.redraws for rep in reports) == (gate is not None)


def test_diag_u_fails_at_the_reference_samples():
    ld, r_id = builtin_L("diag_u", 2, 1), builtin_R("relabel_id", SCALAR, 2)
    for seed in range(5):
        rep, ref = verify_L(ld, r_id, samples=20, seed=seed), reference_L(ld, r_id, 20, seed)
        assert rep.failures and [i for i, _ in rep.failures] == [i for i, _ in ref.failures]
        rep, ref = q_check(ld, SCALAR, samples=20, seed=seed), reference_q(ld, SCALAR, 20, seed)
        assert rep.failures and [i for i, _ in rep.failures] == [i for i, _ in ref.failures]


def test_non_stacked_subjects_report_bitwise_as_the_reference():
    rng = np.random.default_rng(4)
    const = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    user_r = RMatrix("randconst", 2, SCALAR, lambda u, v: const)
    mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    user_l = LOperator(2, 1, lambda u: u * mat)
    assert user_r._stack is None and user_l._stack is None
    for seed in range(3):
        for r in (user_r, builtin_R("relabel_swap", pair_map(2), 2)):
            assert verify_inverse(r, samples=6, seed=seed).to_dict() == reference_inverse(r, 6, seed).to_dict()
            assert verify_tybe(r, samples=3, seed=seed).to_dict() == reference_tybe(r, 3, seed).to_dict()
        r_id = builtin_R("relabel_id", SCALAR, 2)
        assert verify_L(user_l, r_id, samples=6, seed=seed).to_dict() == reference_L(user_l, r_id, 6, seed).to_dict()
        assert q_check(user_l, SCALAR, samples=6, seed=seed).to_dict() == reference_q(user_l, SCALAR, 6, seed).to_dict()
    r = builtin_R("relabel_swap", theta_map(1), 2)
    assert verify_inverse(r, samples=2, seed=1).to_dict() == reference_inverse(r, 2, 1).to_dict()
    assert verify_tybe(r, samples=1, seed=1).to_dict() == reference_tybe(r, 1, 1).to_dict()


def test_a_non_generic_user_r_passes_its_trial_over():
    """A user R that raises NonGeneric where |u| < 0.4 runs in blocks of
    one: the trial is redrawn, as in the per-sample loop."""
    rng = np.random.default_rng(8)
    const = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    def ev(u, v):
        if abs(u) < 0.4:
            raise NonGeneric("user R: outside its domain")
        return const

    user_r = RMatrix("picky", 2, SCALAR, ev)
    redraws = 0
    for seed in range(4):
        for verify, reference, n in ((verify_inverse, reference_inverse, 6), (verify_tybe, reference_tybe, 3)):
            rep = verify(user_r, samples=n, seed=seed)
            assert rep.to_dict() == reference(user_r, n, seed).to_dict()
            redraws += rep.redraws
    assert redraws > 0


@pytest.mark.parametrize("map_", [builtin_map("matrix_rational", m=2), theta_map(1)], ids=["matrix", "theta"])
def test_l_and_q_checks_reject_maps_without_scalar_parameters(map_):
    r_id = builtin_R("relabel_id", map_, 2)
    for name in ("diag_u", "power"):
        l_op = builtin_L(name, 2, 1)
        with pytest.raises(SizeMismatch, match="scalar parameters"):
            verify_L(l_op, r_id, samples=3)
        with pytest.raises(SizeMismatch, match="scalar parameters"):
            q_check(l_op, map_, samples=3)


def test_stacked_place_and_specnorm_equal_each_matrix():
    rng = np.random.default_rng(3)
    for dims in ((2, 2), (2, 2, 1), (2, 2, 3), (3, 2, 2)):
        for legs in itertools.permutations(range(len(dims)), 2):
            d = dims[legs[0]] * dims[legs[1]]
            for stack in ((5,), (2, 3)):
                ops = rng.standard_normal(stack + (d, d)) + 1j * rng.standard_normal(stack + (d, d))
                got = place(ops, legs, dims)
                norms = _specnorm(got)
                assert got.shape[:-2] == stack and norms.shape == stack
                for idx in np.ndindex(*stack):
                    assert np.array_equal(got[idx], place(ops[idx], legs, dims))
                    assert norms[idx] == _specnorm(got[idx])
    with pytest.raises(SizeMismatch):
        place(np.ones((3, 2, 2)), (0, 1), [2, 2])


def test_stack_evaluators_agree_with_the_pair_evaluators():
    rng = np.random.default_rng(6)
    u = SCALAR.domain.sample(rng, 20)
    v = SCALAR.domain.sample(rng, 20)
    for name in ("relabel_id", "relabel_swap"):
        r = builtin_R(name, SCALAR, 3)
        stack = np.broadcast_to(r._stack(u, v), (20, 9, 9))
        for k in range(20):
            assert np.array_equal(stack[k], r(complex(u[k]), complex(v[k])))
    for name, w in L_FIXTURES + (("power", 3),):
        l_op = builtin_L(name, 3, w)
        stack = np.broadcast_to(l_op._stack(u), (20, 3 * w, 3 * w))
        assert stack.dtype == np.complex128
        for k in range(20):
            assert np.array_equal(stack[k], l_op(complex(u[k])))


@pytest.mark.parametrize("name,m", [("scalar_rational", 2), ("matrix_rational", 2)])
def test_stacked_ybe_redraw_cap(monkeypatch, name, m):
    monkeypatch.setattr(transpositions, "MAP_GATE", math.inf)
    map_ = builtin_map(name, m=m)
    r = builtin_R("relabel_swap", map_, 2)
    runs = [lambda: verify_inverse(r, samples=3, seed=0), lambda: verify_tybe(r, samples=3, seed=0)]
    if map_.domain.kind == "scalar":
        l_op = builtin_L("power", 2, 1)
        runs += [lambda: verify_L(l_op, r, samples=3, seed=0), lambda: q_check(l_op, map_, samples=3, seed=0)]
    for run in runs:
        with pytest.raises(NonGeneric, match=f"after {MAX_REDRAW} draws"):
            run()


def _spied(map_, rows):
    """map_ with a stack body that records how many rows it gets."""

    def stack(u, v):
        rows.append(len(u))
        return map_._stack(u, v)

    return dataclasses.replace(map_, _stack=stack)


def test_block_cap_bounds_the_rows_and_keeps_the_report(monkeypatch):
    caps = []
    block_cap = transpositions._block_cap

    def spied_cap(trial_bytes):
        caps.append(block_cap(trial_bytes))
        return caps[-1]

    monkeypatch.setattr(transpositions, "_block_cap", spied_cap)
    l_op = builtin_L("power", 2, 2)
    verifiers = {
        "involution": lambda mp: verify_involution(mp, samples=300, seed=2),
        "braid": lambda mp: verify_braid(mp, samples=200, seed=2),
        "inverse": lambda mp: verify_inverse(builtin_R("relabel_swap", mp, 2), samples=200, seed=2),
        "tybe": lambda mp: verify_tybe(builtin_R("relabel_swap", mp, 2), samples=40, seed=2),
        "l_operator": lambda mp: verify_L(l_op, builtin_R("relabel_id", mp, 2), samples=40, seed=2),
        "q_operator": lambda mp: q_check(l_op, mp, samples=100, seed=2),
    }
    for map_ in (SCALAR, builtin_map("matrix_rational", m=2)):
        for check, verify in verifiers.items():
            if check in ("l_operator", "q_operator") and map_.domain.kind != "scalar":
                continue
            monkeypatch.setattr(transpositions, "BLOCK_BYTES", 1 << 40)
            rows, caps[:] = [], []
            whole = verify(_spied(map_, rows)).to_dict()
            assert max(rows) >= whole["samples"]
            for block_bytes in (1, 40_000):
                monkeypatch.setattr(transpositions, "BLOCK_BYTES", block_bytes)
                rows, caps[:] = [], []
                assert verify(_spied(map_, rows)).to_dict() == whole, (check, block_bytes)
                assert len(caps) == 1 and max(rows) <= caps[0] < whole["samples"], (check, caps)


# --- the GF layer on stacks against its per-sample form ----------------------


def _reference_gf_system(base, m, n, g_ops=None, f_op=None):
    """Maps and operators of one tuple, as local_gf_system built them
    before it ran on stacks."""

    def g_factory(i):
        def g(u):
            u = np.array(u, dtype=np.complex128)
            u[i - 1], u[i] = base.apply(u[i - 1], u[i])
            return u

        return g

    def f_map(u, v):
        u, v = np.array(u, dtype=np.complex128), np.array(v, dtype=np.complex128)
        u[m - 1], v[0] = base.apply(u[m - 1], v[0])
        return u, v

    g_ops = g_ops or [lambda u: np.eye(n)] * (m - 1)
    f_op = f_op or (lambda u, v: np.eye(n * n))
    return [g_factory(i) for i in range(1, m)], f_map, list(g_ops), f_op


def reference_gf_verify(base, m, n, samples, seed, tol=1e-9, g_ops=None, f_op=None):
    """gf_verify's per-sample loop, one tuple pair at a time."""
    gs, f, gops, fop = _reference_gf_system(base, m, n, g_ops, f_op)
    dom = transpositions.VectorDomain(m)
    pair_dist = lambda a, b: max(dom.distance(a[0], b[0]), dom.distance(a[1], b[1]))
    left = lambda g: place(g, (0,), (n, n))
    right = lambda g: place(g, (1,), (n, n))
    eye_n, eye_nn = np.eye(n), np.eye(n * n)
    rng = np.random.default_rng(seed)
    rep = ybe.VerificationReport("gf_relations", f"m={m}", samples, seed, tol)
    for k in range(samples):
        u = dom.sample(rng)
        v = dom.sample(rng)
        worst = 0.0
        for i, g in enumerate(gs):
            worst = max(worst, dom.distance(g(g(u)), u))
            worst = max(worst, _specnorm(gops[i](g(u)) @ gops[i](u) - eye_n))
        rep.record(k, worst, "g_involution")
        fu, fv = f(u, v)
        rep.record(k, pair_dist(f(fu, fv), (u, v)), "f_involution")
        rep.record(k, _specnorm(fop(fu, fv) @ fop(u, v) - eye_nn), "f_inverse_op")
        for i in range(len(gs) - 1):
            ga, gb, ga_op, gb_op = gs[i], gs[i + 1], gops[i], gops[i + 1]
            rep.record(k, dom.distance(ga(gb(ga(u))), gb(ga(gb(u)))), "g_braid")
            lhs = ga_op(gb(ga(u))) @ gb_op(ga(u)) @ ga_op(u)
            rhs = gb_op(ga(gb(u))) @ ga_op(gb(u)) @ gb_op(u)
            rep.record(k, _specnorm(lhs - rhs), "g_braid_op")
        glast, glast_op, gfirst, gfirst_op = gs[-1], gops[-1], gs[0], gops[0]
        gl = lambda pair: (glast(pair[0]), pair[1])
        gr = lambda pair: (pair[0], gfirst(pair[1]))
        rep.record(k, pair_dist(f(*gl(f(u, v))), gl(f(*gl((u, v))))), "f_g_left_braid")
        rep.record(k, pair_dist(f(*gr(f(u, v))), gr(f(*gr((u, v))))), "f_g_right_braid")
        lhs = fop(glast(fu), fv) @ left(glast_op(fu)) @ fop(u, v)
        lu2, _ = f(glast(u), v)
        rhs = left(glast_op(lu2)) @ fop(glast(u), v) @ left(glast_op(u))
        rep.record(k, _specnorm(lhs - rhs), "f_g_left_square")
        lhs = fop(fu, gfirst(fv)) @ right(gfirst_op(fv)) @ fop(u, v)
        _, mu3 = f(u, gfirst(v))
        rhs = right(gfirst_op(mu3)) @ fop(u, gfirst(v)) @ right(gfirst_op(v))
        rep.record(k, _specnorm(lhs - rhs), "f_g_right_square")
    return rep


def _close(a, b, rel=1e-14):
    return abs(a - b) <= rel * max(1.0, abs(b))


def same_gf_report(rep, ref):
    """Same samples, verdict, failures, argmax and relations; residuals
    to rounding, relative to the larger of 1 and the residual."""
    for key in ("check", "subject", "samples", "seed", "tol", "redraws", "passed", "argmax_sample"):
        assert getattr(rep, key) == getattr(ref, key), key
    assert _close(rep.max_residual, ref.max_residual)
    assert rep.argmax_sample == ref.argmax_sample
    assert [i for i, _ in rep.failures] == [i for i, _ in ref.failures]
    assert all(_close(a, b) for (_, a), (_, b) in zip(rep.failures, ref.failures))
    assert list(rep.breakdown) == list(ref.breakdown)
    assert all(_close(rep.breakdown[k], ref.breakdown[k]) for k in ref.breakdown)


USER_MAP = transpositions.TwistedMap("user_swap", transpositions.ScalarDomain(), lambda u, v: (v, u))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("base", [SCALAR, builtin_map("q_swap", q_scale=1.5 + 0.5j, q_shift=0.25), USER_MAP],
                         ids=["scalar", "q_swap", "user"])
def test_gf_verify_matches_the_per_sample_loop(base, m):
    rng = np.random.default_rng(11)
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    d = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    user_ops = {"g_ops": [lambda u, k=k: c * (1 + k * u[0]) for k in range(m - 1)], "f_op": lambda u, v: d * v[0]}
    for ops in ({}, {"g_ops": [lambda u: c] * (m - 1)}, user_ops):
        for seed in range(4):
            rep = gf_verify(local_gf_system(base, m, 2, **ops), samples=7, seed=seed)
            same_gf_report(rep, reference_gf_verify(base, m, 2, 7, seed, **ops))


def test_gf_verify_blocks_keep_the_report(monkeypatch):
    sys3 = local_gf_system(SCALAR, 3, 2, g_ops=[lambda u: np.diag([1, u[0]])] * 2)
    whole = gf_verify(sys3, samples=40, seed=5).to_dict()
    assert whole["status"] == "fail"
    for cap in (1, 7):
        monkeypatch.setattr(ybe, "_block_cap", lambda trial_bytes: cap)
        assert gf_verify(sys3, samples=40, seed=5).to_dict() == whole


def test_gf_verify_raises_on_a_non_generic_sample(monkeypatch):
    monkeypatch.setattr(transpositions, "MAP_GATE", math.inf)
    with pytest.raises(NonGeneric):
        gf_verify(local_gf_system(SCALAR, 2, 2), samples=3, seed=0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gf_compose_matches_the_letter_by_letter_product(m):
    rng = np.random.default_rng(m)
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    ops = {"g_ops": [lambda u, k=k: c + k * u[-1] * np.eye(2) for k in range(m - 1)],
           "f_op": lambda u, v: np.kron(c, np.eye(2)) * u[-1] * v[0]}
    gs, f, gops, fop = _reference_gf_system(SCALAR, m, 2, **ops)
    sys_ = local_gf_system(SCALAR, m, 2, **ops)
    map_, r = ybe._exchange(sys_)
    for _ in range(5):
        u, v = sys_.domain.sample(rng), sys_.domain.sample(rng)
        pts, op = (u, v), np.eye(4, dtype=np.complex128)
        for letter in reversed(block_swap_word(m)):
            a, b = pts
            if letter[0] == "gl":
                op, pts = place(gops[letter[1] - 1](a), (0,), (2, 2)) @ op, (gs[letter[1] - 1](a), b)
            elif letter[0] == "gr":
                op, pts = place(gops[letter[1] - 1](b), (1,), (2, 2)) @ op, (a, gs[letter[1] - 1](b))
            else:
                op, pts = fop(a, b) @ op, f(a, b)
        got = map_.apply(u, v)
        assert all(np.abs(x - y).max() <= 1e-14 * max(1, np.abs(y).max()) for x, y in zip(got, pts))
        assert np.abs(r(u, v) - op).max() <= 1e-14 * max(1, np.abs(op).max())
    map_, r = gf_compose(local_gf_system(SCALAR, m, 2), samples=8, seed=1)
    assert map_._stack is not None and r._stack is not None
    assert np.array_equal(r(u, v), np.eye(4))


def test_scatter_matches_the_placed_product_for_a_point_dependent_r():
    rng = np.random.default_rng(21)
    a, b = (rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)) for _ in range(2))
    r = RMatrix("affine", 3, SCALAR, lambda u, v: a + u * b - v * v * a @ b)
    for legs in range(3, 7):
        pts = tuple(SCALAR.domain.sample(rng) for _ in range(legs))
        for word in ([1, 2, 1], list(range(1, legs)), [legs - 1, 1, legs - 1, 2, 1]):
            op, after = scattering(r, word, pts)
            ref_op, ref_after = _reference_scattering(r, word, pts)
            assert np.abs(op - ref_op).max() <= 1e-14 * np.abs(ref_op).max()
            assert list(after) == list(ref_after)


def test_vector_domain_stacks_equal_single_draws_and_distances():
    for m in (1, 2, 3, 5):
        dom = transpositions.VectorDomain(m)
        rng = np.random.default_rng(m)
        single = np.array([dom.sample(rng) for _ in range(30)])
        stack = dom.sample(np.random.default_rng(m), 30)
        assert stack.shape == (30, m) and np.array_equal(stack, single)
        xs, ys = stack[:15] * 3, stack[15:]
        got = dom.distances(xs, ys)
        assert np.array_equal(got, [dom.distance(x, y) for x, y in zip(xs, ys)])
        assert np.allclose(got, [transpositions.point_distance(x, y) for x, y in zip(xs, ys)], rtol=1e-15, atol=0)


def test_compose_l_runs_stacked_and_reports_as_the_reference():
    r_id, r_swap = builtin_R("relabel_id", SCALAR, 2), builtin_R("relabel_swap", SCALAR, 2)
    fixtures = [builtin_L(name, 2, w) for name, w in L_FIXTURES]
    for la, lb in ((fixtures[1], fixtures[2]), (fixtures[0], fixtures[3]), (fixtures[2], fixtures[0])):
        comp = compose_L(la, lb)
        assert comp._stack is not None
        u = SCALAR.domain.sample(np.random.default_rng(0), 5)
        assert np.allclose(np.broadcast_to(comp._stack(u), (5,) + comp(0.1).shape), [comp(x) for x in u])
        for seed in range(10):
            for r in (r_id, r_swap):
                same_samples(verify_L(comp, r, samples=8, seed=seed), reference_L(comp, r, 8, seed))
            same_samples(q_check(comp, SCALAR, samples=16, seed=seed), reference_q(comp, SCALAR, 16, seed))
    user = LOperator(2, 1, lambda u: np.eye(2) * u)
    assert compose_L(fixtures[1], user)._stack is None


def test_scattering_rejects_an_r_of_the_wrong_size():
    r = RMatrix("small", 3, SCALAR, lambda u, v: np.eye(4))
    with pytest.raises(SizeMismatch):
        scattering(r, (1, 2), (0.1 + 0j, 0.2 + 0j, 0.3 + 0j))
    with pytest.raises(ValueError, match="out of range"):
        scattering(builtin_R("relabel_swap", SCALAR, 2), (1, 3), (0.1 + 0j, 0.2 + 0j, 0.3 + 0j))
