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
as the identity on the others, and the word loops contract an operator
on adjacent legs instead.  Every residual is a spectral norm, the
largest singular value.

Operators also come in stacks along leading axes: `place` and
`_specnorm` act on each matrix of a stack, and the built-in R- and
L-operators have an evaluator over stacks of parameters beside the one
for a single point.  The inverse, Yang-Baxter, L and Q verifiers each
write their identity once, as a residual over stacks of trials (see
`transpositions`); the Yang-Baxter residual runs the word loop of
`scattering` on stacks of triples.  Over a closed-form map or the GF
multiplet exchange, with built-in operators, the composed GF R-matrix
or `compose_L` of stacked factors, a block holds many trials, drawn,
mapped and measured per numpy call, as `gf_verify`'s are.  `pair_map`,
user maps and user operators run blocks of one trial, whose operators
`RMatrix.stack` and `LOperator.stack` evaluate point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import NonGeneric, ResidualTooLarge, SizeMismatch, UnknownMap, UnknownR
from .report import VerificationReport
from .transpositions import (
    _TRIAL_COPIES,
    PointDomain,
    TwistedMap,
    VectorDomain,
    _block_cap,
    _distances,
    _part,
    _rows_of,
    _stack_body,
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


def _on_legs(op: np.ndarray, mat: np.ndarray, before: int) -> np.ndarray:
    """place(mat, legs, dims) @ op for adjacent legs whose joint index
    follows a factor of dimension `before` in op's row index, contracted
    on those legs alone.  Leading axes are stacks, which broadcast."""
    out = mat[..., None, :, :] @ op.reshape(op.shape[:-2] + (before, mat.shape[-1], -1))
    return out.reshape(out.shape[:-3] + op.shape[-2:])


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

    Each letter i left-multiplies by evaluate(u, v) on legs (i, i+1),
    contracted on those legs, then advances the pair by step(u, v) ->
    (phi, psi, generic).  At each position the pairs of `group` words
    (all by default) are evaluated and mapped in one call each, the rows
    of one word after another's.  Returns, per word, the operator, the
    final parameters and where every step was generic."""
    if group is not None and group < len(words):
        parts = [words[i : i + group] for i in range(0, len(words), group)]
        return [out for part in parts for out in _scatter(evaluate, step, n, part, params)]
    runs = [list(params) for _ in words]
    n_legs = len(runs[0])
    count = len(words)
    ops = [_identity(n**n_legs, np.complex128)] * count
    generic = [True] * count
    for position, letters in enumerate(zip(*words)):
        letters = [int(i) for i in letters]
        if not all(1 <= i <= n_legs - 1 for i in letters):
            raise ValueError(f"word indices {letters} out of range for {n_legs} legs")
        us, vs = (_rows_of([run[i + j - 1] for run, i in zip(runs, letters)]) for j in (0, 1))
        try:
            mats = np.asarray(evaluate(us, vs))
            phi, psi, ok = step(us, vs)
        except NonGeneric as exc:
            raise NonGeneric(f"non-generic pair at word position {position}") from exc
        if mats.shape[-2:] != (n * n, n * n):
            raise SizeMismatch(f"R has shape {mats.shape[-2:]}, not {n * n} x {n * n}")
        for k, i in enumerate(letters):
            mat = mats if np.ndim(mats) == 2 else _part(mats, k, count)
            ops[k] = _on_legs(ops[k], mat, n ** (i - 1))
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
    entries are sums of tensor products of the factors' entries.  It
    evaluates stacks when both factors do."""
    if l_a.n != l_b.n:
        raise SizeMismatch("composed L-operators need equal auxiliary dimension")
    dims = [l_a.n, l_a.w, l_b.w]
    product = lambda a, b: place(b, (0, 2), dims) @ place(a, (0, 1), dims)
    stack = None if l_a._stack is None or l_b._stack is None else lambda u: product(l_a._stack(u), l_b._stack(u))
    return LOperator(l_a.n, l_a.w * l_b.w, lambda u: product(l_a(u), l_b(u)), _stack=stack)


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
    operators G_1..G_{m-1} and a two-leg operator F over it, all on
    stacks of tuples (..., m): g_maps[i](u) -> (u', generic) and
    f_map(u, v) -> (u', v', generic), with finite placeholders where the
    base map's gate fails; g_ops[i](u) and f_op(u, v) return a stack of
    matrices, and None stands for the identity."""

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
    default to identities, the minimal consistent choice; given ones
    take one tuple (G_i) or a pair (F) and are evaluated row by row."""
    m, n = int(m), int(n)
    if base_map.domain.kind != "scalar":
        raise SizeMismatch(f"{base_map.name}: the GF layer takes scalar parameters, not {base_map.domain.kind} points")
    body = _stack_body(base_map)

    def pair(a, b):
        # the base map on two slots' scalars, over any stack shape
        phi, psi, ok = body(a.ravel(), b.ravel())
        return phi.reshape(a.shape), psi.reshape(a.shape), np.reshape(ok, a.shape) if np.ndim(ok) else ok

    def g(i, u):
        u = np.array(u, dtype=np.complex128)
        u[..., i - 1], u[..., i], ok = pair(u[..., i - 1], u[..., i])
        return u, ok

    def f_map(u, v):
        u, v = np.array(u, dtype=np.complex128), np.array(v, dtype=np.complex128)
        u[..., m - 1], v[..., 0], ok = pair(u[..., m - 1], v[..., 0])
        return u, v, ok

    rows = lambda op: lambda *stacks: np.array([op(*row) for row in zip(*stacks)], dtype=np.complex128)
    g_ops = [None] * (m - 1) if g_ops is None else map(rows, g_ops)
    f_op = None if f_op is None else rows(f_op)
    return GFSystem(m, n, VectorDomain(m), tuple(partial(g, i) for i in range(1, m)), f_map, tuple(g_ops), f_op)


def _gf_word(sys: GFSystem, letters, u, v, op=None):
    """Apply GF letters in turn to stacks of pairs of tuples.  Returns the
    images, where every letter was generic and, when op is given, op
    left-multiplied by each letter's operator at the points it meets:
    G_i on the legs of the tuple it maps, F on both."""
    generic = True
    for kind, *i in letters:
        x, fn = (v if kind == "gr" else u), (sys.f_op if kind == "f" else sys.g_ops[i[0] - 1])
        if op is not None and fn is not None:
            op = _on_legs(op, fn(u, v) if kind == "f" else fn(x), sys.n if kind == "gr" else 1)
        if kind == "f":
            u, v, ok = sys.f_map(u, v)
        else:
            x, ok = sys.g_maps[i[0] - 1](x)
            u, v = (u, x) if kind == "gr" else (x, v)
        generic = generic & ok
    return u, v, generic, op


def _gf_relations(sys: GFSystem, u, v) -> list:
    """gf_verify's residuals over stacks of pairs of tuples, (name,
    residuals) in the order it records them.  Each relation makes two
    words of letters (applied in turn) agree on the points and on the
    operators; NonGeneric where a letter is not generic."""
    eye, dom = _identity(sys.n * sys.n, np.complex128), sys.domain

    def agree(a, b=()):
        ua, va, ok_a, op_a = _gf_word(sys, a, u, v, eye)
        ub, vb, ok_b, op_b = _gf_word(sys, b, u, v, eye)
        if not np.all(ok_a & ok_b):
            raise NonGeneric("gf system: a sample fails the base map's genericity gate")
        return np.maximum(dom.distances(ua, ub), dom.distances(va, vb)), _specnorm(op_a - op_b)

    gl = [("gl", i) for i in range(1, sys.m)]
    f, last, first = ("f",), gl[-1], ("gr", 1)
    # point involutions and operator inverse compositions
    out = [("g_involution", np.max(np.broadcast_arrays(*[x for g in gl for x in agree([g, g])]), axis=0))]
    out += zip(("f_involution", "f_inverse_op"), agree([f, f]))
    # braids of interior generators, and the mixed braids across the boundary
    for a, b in zip(gl, gl[1:]):
        out += zip(("g_braid", "g_braid_op"), agree([a, b, a], [b, a, b]))
    left, right = agree([f, last, f], [last, f, last]), agree([f, first, f], [first, f, first])
    out += zip(("f_g_left_braid", "f_g_right_braid"), (left[0], right[0]))
    return out + list(zip(("f_g_left_square", "f_g_right_square"), (left[1], right[1])))


def gf_verify(sys: GFSystem, samples: int = 50, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """All point-level relations plus the operator squares and the two
    identity compositions, per sample in a fixed order, on blocks of
    samples.  For m = 1 the system is a plain R-matrix and the check
    delegates to the inverse and Yang-Baxter verifiers."""
    if sys.m == 1:
        _, r = _exchange(sys)
        inv = verify_inverse(r, samples, seed, tol)
        tybe = verify_tybe(r, samples, seed, tol)
        rep = VerificationReport("gf_relations", "m=1", samples, seed, tol)
        for name, sub in (("inverse", inv), ("tybe", tybe)):
            rep.record(sub.argmax_sample, sub.max_residual, name)
        return rep
    rep = VerificationReport("gf_relations", f"m={sys.m}", samples, seed, tol)
    rng = np.random.default_rng(seed)
    # a sample draws u then v; its points and two words' operators size a block
    cap = _block_cap(_TRIAL_COPIES * 16 * 2 * (sys.m + sys.n**4))
    for start in range(0, samples, cap):
        x = sys.domain.sample(rng, 2 * min(cap, samples - start)).reshape(-1, 2, sys.m)
        rows = [(name, np.broadcast_to(res, len(x)).tolist()) for name, res in _gf_relations(sys, x[:, 0], x[:, 1])]
        for j in range(len(x)):
            for name, res in rows:
                rep.record(start + j, res[j], name)
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


def _exchange(sys: GFSystem):
    """The multiplet exchange map and its R-matrix, the letters of the
    reduced block-swap word applied rightmost first, each with a body
    over stacks of pairs of tuples.  One pair is a stack of one."""
    word, eye = block_swap_word(sys.m)[::-1], _identity(sys.n * sys.n, np.complex128)
    body = lambda u, v: _gf_word(sys, word, u, v)[:3]
    # identity letters make the identity, at any points
    fixed = all(op is None for op in (*sys.g_ops, sys.f_op))
    stack = lambda u, v: eye if fixed else _gf_word(sys, word, u, v, eye)[3]

    def one(u, v):
        op = stack(np.asarray(u)[None], np.asarray(v)[None])
        return op if op.ndim == 2 else op[0]

    map_ = TwistedMap("gf_composite", sys.domain, _body=body, _stack=body)
    return map_, RMatrix("gf_composite_R", sys.n, map_, one, _stack=stack)


def gf_compose(sys: GFSystem, samples: int = 50, seed: int = 0, tol: float = 1e-8):
    """Compose the multiplet exchange map and its R-matrix.

    The map is the ordered product of the point letters of the reduced
    block-swap word; the operator threads the same letters with
    arguments advancing alongside, each contracted on its legs; both run
    on stacks of pairs.  Before returning, the composed map is checked
    on seeded generic samples against an independently decomposed word
    for the same permutation, and the operator is run through the
    inverse and Yang-Baxter verifiers.
    """
    map_, r = _exchange(sys)
    alt_letters = _letters_from_positions(adjacent_word(block_swap_perm(sys.m)), sys.m)

    def residual(stack, pts):
        (cu, cv, ok), (du, dv, direct_ok, _) = stack(*pts), _gf_word(sys, alt_letters, *pts)
        return np.maximum(sys.domain.distances(cu, du), sys.domain.distances(cv, dv)), ok & direct_ok

    direct = verify_samples("block_swap", map_.name, samples, seed, tol, _trials(map_, 2, residual))
    if not direct.passed:
        raise ResidualTooLarge(f"composed map disagrees with the direct block-swap action by {direct.max_residual:.2e}")
    inv = verify_inverse(r, min(samples, 25), seed, tol)
    tybe = verify_tybe(r, min(samples, 25), seed, tol)
    if not inv.passed or not tybe.passed:
        raise ResidualTooLarge(
            f"composed R fails verification (inverse {inv.max_residual:.2e}, tybe {tybe.max_residual:.2e})"
        )
    return map_, r
