"""Twisted R-matrices, L and Q operators, scattering words, and the
GF-matrix layer for multiplet particles.

An R-matrix over a twisted transposition mu is a two-leg operator
R(u, v) whose composition with R(phi(u, v), psi(u, v)) is the identity
and which makes the twisted Yang-Baxter relation

    R12(phi(u,v), phi(psi(u,v), w)) R23(psi(u,v), w) R12(u, v)
  = R23(psi(u, phi(v,w)), psi(v,w)) R12(u, phi(v,w)) R23(v, w)

hold.  Both sides are exactly the operator accumulated by the
scattering words (1,2,1) and (2,1,2), so the verifier and the word
machinery share one code path, the word loop `_scatter`.  The GF layer
packages an S_m action on the parameter manifold together with one-leg
operators G_i and a two-leg operator F; their m^2-fold ordered product
yields an R-matrix for the multiplet exchange.

Operators on several legs act on V_0 (x) V_1 (x) ... with the first leg
the slowest tensor index, so a basis index is the row-major flattening
of the legs' indices.  `place` embeds an operator on some of the legs
as the identity on the others; every residual is a spectral norm, the
largest singular value.

Operators also come in stacks along leading axes: `place` and
`_specnorm` act on each matrix of a stack, and the built-in R- and
L-operators have an evaluator over stacks of parameters beside the one
for a single point.  The inverse, Yang-Baxter, L and Q verifiers each
write their identity once, as a residual over stacks of trials (see
`transpositions`); the Yang-Baxter residual runs the word loop of
`scattering` on stacks of triples.  Over a closed-form map with
built-in operators a block holds many trials, drawn, mapped and
measured per numpy call.  Other maps and operators (user operators,
the composed GF R-matrix, `compose_L`) run blocks of one trial, whose
operators `RMatrix.stack` and `LOperator.stack` evaluate point by
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NonGeneric, ResidualTooLarge, SizeMismatch, UnknownMap, UnknownR
from .report import VerificationReport
from .transpositions import (
    PointDomain,
    TwistedMap,
    VectorDomain,
    _distances,
    _part,
    _rows_of,
    _trials,
    adjacent_word,
    verify_samples,
)

# ---------------------------------------------------------------------------
# leg placement utilities


@lru_cache(maxsize=128)
def _leg_table(legs: tuple, dims: tuple) -> np.ndarray:
    """Where `place` puts each entry of the operator: entry [r, i, j]
    is the flat position, in the full total x total matrix, of op[i, j]
    within the block of the other legs' joint index r.  Every other
    entry of the full matrix is zero.  Cached per (legs, dims), bounded,
    and read-only."""
    dims = tuple(int(d) for d in dims)
    legs = tuple(int(l) for l in legs)
    n_legs = len(dims)
    if len(set(legs)) != len(legs) or not all(0 <= l < n_legs for l in legs):
        raise SizeMismatch(f"legs {list(legs)} must be distinct positions among {n_legs} legs")
    rest = [i for i in range(n_legs) if i not in legs]
    d_legs = math.prod(dims[i] for i in legs)
    d_rest = math.prod(dims[i] for i in rest)
    # index[a, r]: the full basis index whose legs carry joint index a
    # (first named leg slowest) and whose other legs carry r
    index = np.arange(d_legs * d_rest).reshape(dims).transpose(list(legs) + rest).reshape(d_legs, d_rest)
    total = d_legs * d_rest
    table = index.T[:, :, None] * total + index.T[:, None, :]
    table.setflags(write=False)
    return table


def place(op: np.ndarray, legs, dims) -> np.ndarray:
    """Embed an operator acting on the given legs (identity elsewhere).

    dims lists every leg dimension; legs names, in the operator's own
    leg order, the distinct positions it acts on.  The first leg is the
    slowest tensor index throughout, both of the full space and of the
    operator: op on legs (0,) of dims (n, n) is kron(op, 1), on legs
    (1,) it is kron(1, op), and on legs (1, 0) it is conjugated by the
    flip.  Leading axes of op are a stack, placed matrix by matrix.  The
    result is a new array of op's dtype promoted to float.
    """
    op = np.asarray(op)
    table = _leg_table(tuple(legs), tuple(dims))
    if op.shape[-2:] != table.shape[1:]:
        raise SizeMismatch(f"operator shape {op.shape} does not match legs {list(legs)} of dims {list(dims)}")
    stack = op.shape[:-2]
    total = table.shape[0] * table.shape[1]
    full = np.zeros(stack + (total * total,), dtype=np.promote_types(op.dtype, np.float64))
    full[..., table] = op[..., None, :, :]
    return full.reshape(stack + (total, total))


@lru_cache(maxsize=32)
def _identity(d: int, dtype=np.float64) -> np.ndarray:
    """The d x d identity, built once per (d, dtype), bounded, and
    read-only."""
    eye = np.eye(d, dtype=dtype)
    eye.setflags(write=False)
    return eye


def flip_operator(n: int) -> np.ndarray:
    """P with P(e_i (x) e_j) = e_j (x) e_i."""
    p = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            p[j * n + i, i * n + j] = 1.0
    return p


def _specnorm(a: np.ndarray):
    """Spectral norm: the largest singular value, which LAPACK returns
    first; an array of them for a stack of matrices."""
    s = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(s) if s.ndim == 0 else s


def _relative_gap(lhs, rhs):
    """Spectral norm of lhs - rhs relative to the larger side, floor 1."""
    return _specnorm(lhs - rhs) / np.maximum(np.maximum(1.0, _specnorm(lhs)), _specnorm(rhs))


# ---------------------------------------------------------------------------
# R-matrices


@dataclass(frozen=True)
class RMatrix:
    """R(u, v) on V (x) V over a twisted map.  _stack, when given, is the
    evaluator over stacks of pairs along a leading axis; a constant R
    may return its one matrix, which broadcasts over the stack."""

    name: str
    n: int
    twisted_map: TwistedMap
    evaluator: Callable
    _stack: Callable | None = None

    def __call__(self, u, v) -> np.ndarray:
        return self.evaluator(u, v)

    def stack(self, us, vs) -> np.ndarray:
        """R over stacks of pairs: _stack over arrays, the evaluator pair
        by pair over lists."""
        if isinstance(us, list):
            return np.array([self.evaluator(u, v) for u, v in zip(us, vs)])
        return self._stack(us, vs)


def builtin_R(name: str, map_: TwistedMap, n: int = 2) -> RMatrix:
    """The two relabeling R-matrices that work over any map:
    the identity on V (x) V, and the flip."""
    n = int(n)
    if name == "relabel_id":
        mat = np.eye(n * n)
    elif name == "relabel_swap":
        mat = flip_operator(n)
    else:
        raise UnknownR(f"no built-in R-matrix named {name!r}")
    const = lambda u, v: mat
    return RMatrix(name, n, map_, const, _stack=const)


def verify_inverse(r: RMatrix, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Check R(phi(u,v), psi(u,v)) R(u,v) = 1 in spectral norm."""
    map_ = r.twisted_map
    eye = _identity(r.n * r.n)

    def residual(stack, pts):
        u, v = pts
        p, q, generic = stack(u, v)
        return _specnorm(r.stack(p, q) @ r.stack(u, v) - eye), generic

    return verify_samples("inverse", r.name, samples, seed, tol, _trials(map_, 2, residual, r.n**4, (r,)))


def _scatter(evaluate, step, n: int, words, params, group: int | None = None):
    """The word loop of `scattering` and of the Yang-Baxter residual,
    along each of words (of one length), over one tuple of points or over
    stacks of tuples.

    Each letter i left-multiplies by evaluate(u, v) placed on legs
    (i, i+1), then advances the pair by step(u, v) -> (phi, psi,
    generic).  At each position the pairs of `group` words (all by
    default) are evaluated and mapped in one call each, the rows of one
    word after another's.  Returns, per word, the operator, the final
    parameters and where every step was generic."""
    if group is not None and group < len(words):
        parts = [words[i : i + group] for i in range(0, len(words), group)]
        return [out for part in parts for out in _scatter(evaluate, step, n, part, params)]
    runs = [list(params) for _ in words]
    n_legs = len(runs[0])
    dims = [n] * n_legs
    count = len(words)
    ops = [_identity(n**n_legs, np.complex128)] * count
    generic = [True] * count
    for position, letters in enumerate(zip(*words)):
        letters = [int(i) for i in letters]
        for i in letters:
            if not 1 <= i <= n_legs - 1:
                raise ValueError(f"word index {i} out of range for {n_legs} legs")
        us, vs = (_rows_of([run[i + j - 1] for run, i in zip(runs, letters)]) for j in (0, 1))
        try:
            mats = evaluate(us, vs)
            phi, psi, ok = step(us, vs)
        except NonGeneric as exc:
            raise NonGeneric(f"non-generic pair at word position {position}") from exc
        for k, i in enumerate(letters):
            mat = mats if np.ndim(mats) == 2 else _part(mats, k, count)
            ops[k] = place(mat, (i - 1, i), dims) @ ops[k]
            runs[k][i - 1], runs[k][i] = _part(phi, k, count), _part(psi, k, count)
            generic[k] = generic[k] & _part(ok, k, count)
    return [(op, tuple(run), g) for op, run, g in zip(ops, runs, generic)]


def scattering(r: RMatrix, word, params):
    """Accumulate R factors along a word of adjacent exchanges.

    Each step left-multiplies by R on legs (i, i+1) at the current
    parameters, then advances the parameters by the map.  Words
    realizing the same permutation give the same operator and final
    parameters whenever R is a twisted R-matrix.
    """
    apply = r.twisted_map.apply
    [(op, pts, _)] = _scatter(r, lambda u, v: (*apply(u, v), True), r.n, [word], params)
    return op, pts


def verify_tybe(r: RMatrix, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Twisted Yang-Baxter relation: the words (1,2,1) and (2,1,2) must
    accumulate the same operator and the same final parameters."""
    map_ = r.twisted_map

    def residual(stack, pts, group):
        words = [(1, 2, 1), (2, 1, 2)]
        (left_op, left_pts, gl), (right_op, right_pts, gr) = _scatter(r.stack, stack, r.n, words, pts, group)
        dist = np.max([_distances(map_.domain, a, b) for a, b in zip(left_pts, right_pts)], axis=0)
        return np.maximum(_specnorm(left_op - right_op), dist), gl & gr

    return verify_samples("tybe", r.name, samples, seed, tol, _trials(map_, 3, residual, r.n**6, (r,), words=2))


# ---------------------------------------------------------------------------
# L and Q operators


@dataclass(frozen=True)
class LOperator:
    """Operator family u -> End(V (x) W), legs ordered (V, W).  _stack,
    when given, is the evaluator over a stack of scalar parameters,
    returning complex matrices (a constant may return its one matrix)."""

    n: int
    w: int
    evaluator: Callable
    _stack: Callable | None = None

    def __call__(self, u) -> np.ndarray:
        return np.asarray(self.evaluator(u), dtype=np.complex128)

    def stack(self, us) -> np.ndarray:
        """L over a stack of parameters: _stack over an array, the
        evaluator point by point over a list."""
        if isinstance(us, list):
            return np.array([self(u) for u in us])
        return self._stack(us)


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
        const = lambda u: mat
        return LOperator(n, w, const, _stack=const)
    if name == "power":
        mat = rng.standard_normal((n * w, n * w)) + 1j * rng.standard_normal((n * w, n * w))
        return LOperator(n, w, lambda u: u * mat, _stack=lambda u: u[..., None, None] * mat)
    if name == "diag_u":
        if w != 1:
            raise SizeMismatch("diag_u fixture is defined for w = 1")

        def ev(u):
            d = np.ones(n, dtype=np.complex128)
            d[1] = u
            return np.diag(d)

        def stack(u):
            out = np.zeros(u.shape + (n, n), dtype=np.complex128)
            out[..., range(n), range(n)] = 1
            out[..., 1, 1] = u
            return out

        return LOperator(n, 1, ev, _stack=stack)
    raise UnknownMap(f"no built-in L-operator named {name!r}")


def verify_L(l_op: LOperator, r: RMatrix, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Exchange relation R(u,v) L1(u) L2(v) = L1(phi) L2(psi) R(u,v) on
    V (x) V (x) W, residual relative to the larger side."""
    if l_op.n != r.n:
        raise SizeMismatch("L and R auxiliary dimensions differ")
    map_ = r.twisted_map
    if map_.domain.kind != "scalar":
        raise SizeMismatch(f"{map_.name}: L operators take scalar parameters, not {map_.domain.kind} points")
    dims = [r.n, r.n, l_op.w]

    def residual(stack, pts):
        u, v = pts
        p, q, generic = stack(u, v)
        rmat = place(r.stack(u, v), (0, 1), dims)
        lhs = rmat @ place(l_op.stack(u), (0, 2), dims) @ place(l_op.stack(v), (1, 2), dims)
        rhs = place(l_op.stack(p), (0, 2), dims) @ place(l_op.stack(q), (1, 2), dims) @ rmat
        return _relative_gap(lhs, rhs), generic

    trials = _trials(map_, 2, residual, (r.n * r.n * l_op.w) ** 2, (r, l_op))
    return verify_samples("l_operator", r.name, samples, seed, tol, trials)


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


def _trace_v(mat: np.ndarray, n: int, w: int) -> np.ndarray:
    """Partial trace over V of operators on V (x) W, of one matrix or of
    each matrix of a stack."""
    return np.einsum("...iaib->...ab", mat.reshape(mat.shape[:-2] + (n, w, n, w)))


def q_of(l_op: LOperator, u) -> np.ndarray:
    """Q(u): partial trace of L(u) over the auxiliary leg V."""
    return _trace_v(l_op(u), l_op.n, l_op.w)


def q_check(l_op: LOperator, map_: TwistedMap, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Trace relation Q(u) Q(v) = Q(phi(u,v)) Q(psi(u,v)) on W."""
    if map_.domain.kind != "scalar":
        raise SizeMismatch(f"{map_.name}: Q operators take scalar parameters, not {map_.domain.kind} points")
    n, w = l_op.n, l_op.w

    def residual(stack, pts):
        u, v = pts
        p, q, generic = stack(u, v)
        qu, qv, qp, qq = (_trace_v(l_op.stack(x), n, w) for x in (u, v, p, q))
        return _relative_gap(qu @ qv, qp @ qq), generic

    return verify_samples("q_operator", map_.name, samples, seed, tol, _trials(map_, 2, residual, (n * w) ** 2, (l_op,)))


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
    m, n = int(m), int(n)

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
        eye_n = _identity(n)
        g_ops = tuple((lambda u: eye_n) for _ in range(m - 1))
    if f_op is None:
        eye_nn = _identity(n * n)
        f_op = lambda u, v: eye_nn
    return GFSystem(
        m=m,
        n=n,
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
    eye_n, eye_nn = _identity(n), _identity(n * n)
    # G on the first or the second tuple's legs of V (x) V
    left = lambda g: place(g, (0,), (n, n))
    right = lambda g: place(g, (1,), (n, n))
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
        lhs = sys.f_op(glast(lu), mu_) @ left(glast_op(lu)) @ sys.f_op(u, v)
        lu2, mu2 = f(glast(u), v)
        rhs = left(glast_op(lu2)) @ sys.f_op(glast(u), v) @ left(glast_op(u))
        rep.record(k, _specnorm(lhs - rhs), "f_g_left_square")
        lhs = sys.f_op(lu, gfirst(mu_)) @ right(gfirst_op(mu_)) @ sys.f_op(u, v)
        lu3, mu3 = f(u, gfirst(v))
        rhs = right(gfirst_op(mu3)) @ sys.f_op(u, gfirst(v)) @ right(gfirst_op(v))
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
    positions = [j for r in range(1, m + 1) for j in range(m - r, 2 * m - r)]
    return _letters_from_positions(positions, m)


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
        return place(sys.g_ops[letter[1] - 1](u), (0,), (n, n))
    if letter[0] == "gr":
        return place(sys.g_ops[letter[1] - 1](v), (1,), (n, n))
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
            op = _identity(sys.n * sys.n, np.complex128)
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
