"""Twisted R-matrices, L and Q operators, scattering words, and the
GF-matrix layer for multiplet particles.

An R-matrix over a twisted transposition mu is a two-leg operator
R(u, v) whose composition with R(phi(u, v), psi(u, v)) is the identity
and which makes the twisted Yang-Baxter relation

    R12(phi(u,v), phi(psi(u,v), w)) R23(psi(u,v), w) R12(u, v)
  = R23(psi(u, phi(v,w)), psi(v,w)) R12(u, phi(v,w)) R23(v, w)

hold.  Both sides are exactly the operator accumulated by the
scattering words (1,2,1) and (2,1,2), so the verifier and the word
machinery share one code path.  The GF layer packages an S_m action on
the parameter manifold together with one-leg operators G_i and a
two-leg operator F; their m^2-fold ordered product yields an R-matrix
for the multiplet exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonGeneric, ResidualTooLarge, SizeMismatch, UnknownMap, UnknownR
from .report import VerificationReport
from .transpositions import (
    PointDomain,
    TwistedMap,
    VectorDomain,
    adjacent_word,
    verify_samples,
)

# ---------------------------------------------------------------------------
# leg placement utilities


def place(op: np.ndarray, legs, dims) -> np.ndarray:
    """Embed an operator acting on the given legs (identity elsewhere).

    dims lists every leg dimension; legs names, in the operator's own
    leg order, the positions it acts on.  The first leg is the slowest
    tensor index throughout.
    """
    dims = [int(d) for d in dims]
    legs = [int(l) for l in legs]
    n_legs = len(dims)
    rest = [i for i in range(n_legs) if i not in legs]
    d_legs = int(np.prod([dims[i] for i in legs]))
    if op.shape != (d_legs, d_legs):
        raise SizeMismatch(f"operator shape {op.shape} does not match legs {legs} of dims {dims}")
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    full = np.kron(op, np.eye(d_rest))
    order = legs + rest
    inv = np.argsort(order)
    shape = [dims[o] for o in order]
    tens = full.reshape(shape + shape)
    perm = list(inv) + [n_legs + int(p) for p in inv]
    total = int(np.prod(dims))
    return tens.transpose(perm).reshape(total, total)


def flip_operator(n: int) -> np.ndarray:
    """P with P(e_i (x) e_j) = e_j (x) e_i."""
    p = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            p[j * n + i, i * n + j] = 1.0
    return p


def _specnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


# ---------------------------------------------------------------------------
# R-matrices


@dataclass(frozen=True)
class RMatrix:
    name: str
    n: int
    twisted_map: TwistedMap
    evaluator: Callable

    def __call__(self, u, v) -> np.ndarray:
        return self.evaluator(u, v)


def builtin_R(name: str, map_: TwistedMap, n: int = 2) -> RMatrix:
    """The two relabeling R-matrices that work over any map:
    the identity on V (x) V, and the flip."""
    n = int(n)
    if name == "relabel_id":
        mat = np.eye(n * n)
        return RMatrix(name, n, map_, lambda u, v: mat)
    if name == "relabel_swap":
        mat = flip_operator(n)
        return RMatrix(name, n, map_, lambda u, v: mat)
    raise UnknownR(f"no built-in R-matrix named {name!r}")


def verify_inverse(r: RMatrix, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Check R(phi(u,v), psi(u,v)) R(u,v) = 1 in spectral norm."""
    map_ = r.twisted_map
    eye = np.eye(r.n * r.n)

    def trial(rng):
        u, v = map_.domain.sample(rng), map_.domain.sample(rng)
        p, q = map_.apply(u, v)
        return _specnorm(r(p, q) @ r(u, v) - eye)

    return verify_samples("inverse", r.name, samples, seed, tol, trial)


def scattering(r: RMatrix, word, params):
    """Accumulate R factors along a word of adjacent exchanges.

    Each step left-multiplies by R on legs (i, i+1) at the current
    parameters, then advances the parameters by the map.  Words
    realizing the same permutation give the same operator and final
    parameters whenever R is a twisted R-matrix.
    """
    pts = list(params)
    n_legs = len(pts)
    dims = [r.n] * n_legs
    op = np.eye(int(np.prod(dims)), dtype=np.complex128)
    for step, i in enumerate(word):
        i = int(i)
        if not 1 <= i <= n_legs - 1:
            raise ValueError(f"word index {i} out of range for {n_legs} legs")
        try:
            mat = r(pts[i - 1], pts[i])
            op = place(mat, (i - 1, i), dims) @ op
            pts[i - 1], pts[i] = r.twisted_map.apply(pts[i - 1], pts[i])
        except NonGeneric as exc:
            raise NonGeneric(f"non-generic pair at word position {step}") from exc
    return op, tuple(pts)


def verify_tybe(r: RMatrix, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Twisted Yang-Baxter relation: the words (1,2,1) and (2,1,2) must
    accumulate the same operator and the same final parameters."""
    dom = r.twisted_map.domain

    def trial(rng):
        pts = tuple(dom.sample(rng) for _ in range(3))
        left_op, left_pts = scattering(r, (1, 2, 1), pts)
        right_op, right_pts = scattering(r, (2, 1, 2), pts)
        resid = _specnorm(left_op - right_op)
        return max(resid, max(dom.distance(a, b) for a, b in zip(left_pts, right_pts)))

    return verify_samples("tybe", r.name, samples, seed, tol, trial)


# ---------------------------------------------------------------------------
# L and Q operators


@dataclass(frozen=True)
class LOperator:
    """Operator family u -> End(V (x) W), legs ordered (V, W)."""

    n: int
    w: int
    evaluator: Callable

    def __call__(self, u) -> np.ndarray:
        return np.asarray(self.evaluator(u), dtype=np.complex128)


def builtin_L(name: str, n: int = 2, w: int = 1) -> LOperator:
    """Seeded L-operator fixtures.

    constant   a fixed random invertible matrix on V (x) W
    power      u times a fixed random matrix (passes whenever the map
               preserves the product of the parameters)
    diag_u     diag(1, u, 1, ...) with w = 1, a deliberate failure case
    """
    n, w = int(n), int(w)
    rng = np.random.default_rng(97 + 131 * n + 17 * w)
    if name == "constant":
        mat = rng.standard_normal((n * w, n * w)) + 1j * rng.standard_normal((n * w, n * w))
        return LOperator(n, w, lambda u: mat)
    if name == "power":
        mat = rng.standard_normal((n * w, n * w)) + 1j * rng.standard_normal((n * w, n * w))
        return LOperator(n, w, lambda u: u * mat)
    if name == "diag_u":
        if w != 1:
            raise SizeMismatch("diag_u fixture is defined for w = 1")

        def ev(u):
            d = np.ones(n, dtype=np.complex128)
            d[1] = u
            return np.diag(d)

        return LOperator(n, 1, ev)
    raise UnknownMap(f"no built-in L-operator named {name!r}")


def verify_L(l_op: LOperator, r: RMatrix, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Exchange relation R(u,v) L1(u) L2(v) = L1(phi) L2(psi) R(u,v) on
    V (x) V (x) W, residual relative to the larger side."""
    if l_op.n != r.n:
        raise SizeMismatch("L and R auxiliary dimensions differ")
    map_ = r.twisted_map
    dims = [r.n, r.n, l_op.w]

    def trial(rng):
        u, v = map_.domain.sample(rng), map_.domain.sample(rng)
        p, q = map_.apply(u, v)
        rmat = place(r(u, v), (0, 1), dims)
        lhs = rmat @ place(l_op(u), (0, 2), dims) @ place(l_op(v), (1, 2), dims)
        rhs = place(l_op(p), (0, 2), dims) @ place(l_op(q), (1, 2), dims) @ rmat
        return _specnorm(lhs - rhs) / max(1.0, _specnorm(lhs), _specnorm(rhs))

    return verify_samples("l_operator", r.name, samples, seed, tol, trial)


def compose_L(l_a: LOperator, l_b: LOperator) -> LOperator:
    """Coproduct composition: an L-operator on W_a (x) W_b whose matrix
    entries are sums of tensor products of the factors' entries."""
    if l_a.n != l_b.n:
        raise SizeMismatch("composed L-operators need equal auxiliary dimension")
    n = l_a.n
    dims = [n, l_a.w, l_b.w]

    def ev(u):
        return place(l_b(u), (0, 2), dims) @ place(l_a(u), (0, 1), dims)

    return LOperator(n, l_a.w * l_b.w, ev)


def q_of(l_op: LOperator, u) -> np.ndarray:
    """Q(u): partial trace of L(u) over the auxiliary leg V."""
    mat = l_op(u).reshape(l_op.n, l_op.w, l_op.n, l_op.w)
    return np.einsum("iaib->ab", mat)


def q_check(l_op: LOperator, map_: TwistedMap, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Trace relation Q(u) Q(v) = Q(phi(u,v)) Q(psi(u,v)) on W."""

    def trial(rng):
        u, v = map_.domain.sample(rng), map_.domain.sample(rng)
        p, q = map_.apply(u, v)
        lhs = q_of(l_op, u) @ q_of(l_op, v)
        rhs = q_of(l_op, p) @ q_of(l_op, q)
        return _specnorm(lhs - rhs) / max(1.0, _specnorm(lhs), _specnorm(rhs))

    return verify_samples("q_operator", map_.name, samples, seed, tol, trial)


# ---------------------------------------------------------------------------
# GF layer


@dataclass(frozen=True)
class GFSystem:
    """An S_m action on the parameter manifold together with one-leg
    operators G_1..G_{m-1} and a two-leg operator F over it."""

    m: int
    n: int
    domain: PointDomain
    g_maps: tuple
    f_map: Callable
    g_ops: tuple
    f_op: Callable


def local_gf_system(base_map: TwistedMap, m: int, n: int = 2, g_ops=None, f_op=None) -> GFSystem:
    """S_m acting on tuples in C^m through a scalar twisted
    transposition: g_i applies the base map inside one tuple at slots
    (i, i+1), f applies it across the boundary slots (m, 1).  Operators
    default to identities, the minimal consistent choice."""
    m = int(m)

    def g_factory(i):
        def g(u):
            u = np.array(u, dtype=np.complex128)
            u[i - 1], u[i] = base_map.apply(u[i - 1], u[i])
            return u

        return g

    def f_map(u, v):
        u = np.array(u, dtype=np.complex128)
        v = np.array(v, dtype=np.complex128)
        u[m - 1], v[0] = base_map.apply(u[m - 1], v[0])
        return u, v

    if g_ops is None:
        g_ops = tuple((lambda u: np.eye(n)) for _ in range(m - 1))
    if f_op is None:
        f_op = lambda u, v: np.eye(n * n)
    return GFSystem(
        m=m,
        n=int(n),
        domain=VectorDomain(m),
        g_maps=tuple(g_factory(i) for i in range(1, m)),
        f_map=f_map,
        g_ops=tuple(g_ops),
        f_op=f_op,
    )


def _pair_dist(dom: PointDomain, a, b) -> float:
    return max(dom.distance(a[0], b[0]), dom.distance(a[1], b[1]))


def gf_verify(sys: GFSystem, samples: int = 50, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """All point-level relations plus the operator squares and the two
    identity compositions.  For m = 1 the system is a plain R-matrix
    and the check delegates to the inverse and Yang-Baxter verifiers."""
    if sys.m == 1:
        map_ = TwistedMap("gf_base", sys.domain, sys.f_map)
        r = RMatrix("gf_f", sys.n, map_, sys.f_op)
        inv = verify_inverse(r, samples, seed, tol)
        tybe = verify_tybe(r, samples, seed, tol)
        rep = VerificationReport("gf_relations", "m=1", samples, seed, tol)
        for name, sub in (("inverse", inv), ("tybe", tybe)):
            rep.record(sub.argmax_sample, sub.max_residual, name)
        return rep
    rng = np.random.default_rng(seed)
    rep = VerificationReport("gf_relations", f"m={sys.m}", samples, seed, tol)
    m, n = sys.m, sys.n
    dom = sys.domain
    gs, f = sys.g_maps, sys.f_map
    eye_n = np.eye(n)
    eye_nn = np.eye(n * n)
    for k in range(samples):
        u = dom.sample(rng)
        v = dom.sample(rng)
        worst = 0.0
        # point involutions and operator inverse compositions
        for i, g in enumerate(gs, start=1):
            worst = max(worst, dom.distance(g(g(u)), u))
            gop = sys.g_ops[i - 1]
            worst = max(worst, _specnorm(gop(g(u)) @ gop(u) - eye_n))
        rep.record(k, worst, "g_involution")
        fu, fv = f(u, v)
        rep.record(k, _pair_dist(dom, f(fu, fv), (u, v)), "f_involution")
        rep.record(k, _specnorm(sys.f_op(fu, fv) @ sys.f_op(u, v) - eye_nn), "f_inverse_op")
        # braid of interior generators, point level and operator square
        for i in range(len(gs) - 1):
            ga, gb = gs[i], gs[i + 1]
            worst = dom.distance(ga(gb(ga(u))), gb(ga(gb(u))))
            rep.record(k, worst, "g_braid")
            ga_op, gb_op = sys.g_ops[i], sys.g_ops[i + 1]
            lhs = ga_op(gb(ga(u))) @ gb_op(ga(u)) @ ga_op(u)
            rhs = gb_op(ga(gb(u))) @ ga_op(gb(u)) @ gb_op(u)
            rep.record(k, _specnorm(lhs - rhs), "g_braid_op")
        # mixed braids across the boundary
        glast, glast_op = gs[-1], sys.g_ops[-1]
        gl = lambda pair: (glast(pair[0]), pair[1])
        rep.record(
            k,
            _pair_dist(dom, f(*gl(f(u, v))), gl(f(*gl((u, v))))),
            "f_g_left_braid",
        )
        gfirst, gfirst_op = gs[0], sys.g_ops[0]
        gr = lambda pair: (pair[0], gfirst(pair[1]))
        rep.record(
            k,
            _pair_dist(dom, f(*gr(f(u, v))), gr(f(*gr((u, v))))),
            "f_g_right_braid",
        )
        # operator squares threading the evolving points
        lu, mu_ = f(u, v)
        lhs = sys.f_op(glast(lu), mu_) @ np.kron(glast_op(lu), eye_n) @ sys.f_op(u, v)
        lu2, mu2 = f(glast(u), v)
        rhs = np.kron(glast_op(lu2), eye_n) @ sys.f_op(glast(u), v) @ np.kron(glast_op(u), eye_n)
        rep.record(k, _specnorm(lhs - rhs), "f_g_left_square")
        lhs = sys.f_op(lu, gfirst(mu_)) @ np.kron(eye_n, gfirst_op(mu_)) @ sys.f_op(u, v)
        lu3, mu3 = f(u, gfirst(v))
        rhs = np.kron(eye_n, gfirst_op(mu3)) @ sys.f_op(u, gfirst(v)) @ np.kron(eye_n, gfirst_op(v))
        rep.record(k, _specnorm(lhs - rhs), "f_g_right_square")
    return rep


def block_swap_perm(m: int) -> list[int]:
    """The multiplet exchange (1, m+1)(2, m+2)...(m, 2m) as an image list."""
    return [(i + m) % (2 * m) for i in range(2 * m)]


def block_swap_word(m: int) -> list[tuple]:
    """Reduced word for the multiplet exchange, by rows: row r is the
    ascending run of adjacent transpositions m-r+1 .. 2m-r, translated
    to letters ('gl', i), ('f',), ('gr', i).  Composition applies the
    rightmost letter first."""
    word: list[tuple] = []
    for r in range(1, m + 1):
        for idx in range(m - r + 1, 2 * m - r + 1):
            if idx < m:
                word.append(("gl", idx))
            elif idx == m:
                word.append(("f",))
            else:
                word.append(("gr", idx - m))
    return word


def _letters_from_positions(word_positions, m: int) -> list[tuple]:
    letters = []
    for j in word_positions:
        idx = j + 1
        if idx < m:
            letters.append(("gl", idx))
        elif idx == m:
            letters.append(("f",))
        else:
            letters.append(("gr", idx - m))
    return letters


def _apply_letter_points(sys: GFSystem, letter, pts):
    u, v = pts
    if letter[0] == "gl":
        return sys.g_maps[letter[1] - 1](u), v
    if letter[0] == "gr":
        return u, sys.g_maps[letter[1] - 1](v)
    return sys.f_map(u, v)


def _letter_operator(sys: GFSystem, letter, pts) -> np.ndarray:
    u, v = pts
    n = sys.n
    if letter[0] == "gl":
        return np.kron(sys.g_ops[letter[1] - 1](u), np.eye(n))
    if letter[0] == "gr":
        return np.kron(np.eye(n), sys.g_ops[letter[1] - 1](v))
    return np.asarray(sys.f_op(u, v), dtype=np.complex128)


def gf_compose(sys: GFSystem, samples: int = 50, seed: int = 0, tol: float = 1e-8):
    """Compose the multiplet exchange map and its R-matrix.

    The map is the ordered product of the point letters of the reduced
    block-swap word; the operator threads the same letters with
    arguments advancing alongside.  Before returning, the composed map
    is checked against an independently decomposed word for the same
    permutation, and the operator is run through the inverse and
    Yang-Baxter verifiers.
    """
    m = sys.m
    if m == 1:
        map_ = TwistedMap("gf_composite", sys.domain, sys.f_map)
        r = RMatrix("gf_composite_R", sys.n, map_, sys.f_op)
    else:
        word = block_swap_word(m)

        def ap(u, v):
            pts = (u, v)
            for letter in reversed(word):
                pts = _apply_letter_points(sys, letter, pts)
            return pts

        map_ = TwistedMap("gf_composite", sys.domain, ap)

        def rev(u, v):
            pts = (u, v)
            op = np.eye(sys.n * sys.n, dtype=np.complex128)
            for letter in reversed(word):
                op = _letter_operator(sys, letter, pts) @ op
                pts = _apply_letter_points(sys, letter, pts)
            return op

        r = RMatrix("gf_composite_R", sys.n, map_, rev)

        alt_letters = _letters_from_positions(adjacent_word(block_swap_perm(m)), m)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(samples):
            u = sys.domain.sample(rng)
            v = sys.domain.sample(rng)
            direct = (u, v)
            for letter in alt_letters:
                direct = _apply_letter_points(sys, letter, direct)
            composed = map_.apply(u, v)
            worst = max(worst, _pair_dist(sys.domain, composed, direct))
        if worst > tol:
            raise ResidualTooLarge(
                f"composed map disagrees with the direct block-swap action by {worst:.2e}"
            )
    inv = verify_inverse(r, min(samples, 25), seed, tol)
    tybe = verify_tybe(r, min(samples, 25), seed, tol)
    if not inv.passed or not tybe.passed:
        raise ResidualTooLarge(
            f"composed R fails verification (inverse {inv.max_residual:.2e}, tybe {tybe.max_residual:.2e})"
        )
    return map_, r
