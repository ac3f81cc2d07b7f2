"""Twisted transpositions and the symmetric-group action they generate.

A twisted transposition is a birational map mu(u, v) = (phi(u, v),
psi(u, v)) on pairs of points whose shifted copies

    sigma_i = id^(i-1) x mu x id^(N-i-1)

are involutions and satisfy the braid relation sigma_i sigma_{i+1}
sigma_i = sigma_{i+1} sigma_i sigma_{i+1}, hence define an action of
the symmetric group S_N on N-tuples.  This module holds the map
abstraction, the closed-form examples (permutation-twisted swap,
scalar and matrix rational maps), the tuple action, chain invariants
and the sampling verifiers for the involution and braid identities.

The verifiers draw trials from one seeded stream and accept the generic
ones in stream order.  Every trial draws its points before it applies
the map, so for a closed-form map, which has a body over stacks of
pairs, a whole block of trials is drawn in one call and mapped once per
stack: the stream is read in the same order as one trial at a time,
and the accepted samples are the same points.  Other maps run blocks of
one trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonGeneric, PartitionInvalid, UnknownMap
from .report import VerificationReport

MAX_REDRAW = 16
MAP_GATE = 1e-6
_SQRT2 = np.sqrt(2)


def point_distance(a, b) -> float:
    """Relative distance between two points with scale floor 1."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a = np.asarray(a, dtype=np.complex128)
        b = np.asarray(b, dtype=np.complex128)
        return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b)))
    return abs(a - b) / max(1.0, abs(a), abs(b))


class PointDomain:
    """Sampling and metric for one kind of spectral parameter."""

    kind = "abstract"

    def sample(self, rng):
        raise NotImplementedError

    def distance(self, a, b) -> float:
        return point_distance(a, b)


class ScalarDomain(PointDomain):
    kind = "scalar"

    def sample(self, rng, size: int | None = None):
        """One point, or a stack of `size` points equal bit for bit to
        `size` successive single draws."""
        if size is None:
            return complex(rng.standard_normal() + 1j * rng.standard_normal()) / _SQRT2
        return (rng.standard_normal((size, 2)) / _SQRT2).view(np.complex128)[:, 0]


class MatrixDomain(PointDomain):
    kind = "matrix"

    def __init__(self, m: int):
        self.m = int(m)

    def sample(self, rng, size: int | None = None):
        """One point, or a stack of `size` points equal bit for bit to
        `size` successive single draws."""
        m = self.m
        if size is None:
            return (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / _SQRT2
        x = rng.standard_normal((size, 2, m, m))
        return (x[:, 0] + 1j * x[:, 1]) / _SQRT2


class VectorDomain(PointDomain):
    """Tuples in C^m, used by the multiplet layer."""

    kind = "vector"

    def __init__(self, m: int):
        self.m = int(m)

    def sample(self, rng):
        m = self.m
        return (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / _SQRT2


def _cmul(a, b):
    """a * b written out in real arithmetic, rounded as Python's complex
    product is (numpy's complex multiply on arrays may fuse the products),
    so a stack body forms the same values as a single-pair body."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def _sizes(x):
    """abs of each scalar in a stack (k,), by hypot as Python's abs is,
    or the Frobenius norm of each matrix in a stack (..., m, m)."""
    return np.hypot(x.real, x.imag) if x.ndim == 1 else np.linalg.norm(x, axis=(-2, -1))


@dataclass(frozen=True)
class TwistedMap:
    """Named map mu(u, v) -> (phi, psi) over a point domain.

    A map is given by _apply with an optional gate _is_generic, or, for
    the closed-form maps, by a body (u, v) -> (phi, psi, generic) that
    gates and maps a pair in one pass.  _stack is such a body over stacks
    of pairs along a leading axis; rows that fail the gate get finite
    placeholders, so nothing divides by or solves a gated-out
    denominator.

    apply raises NonGeneric outside the genericity gate; verifiers
    respond by redrawing the sample.
    """

    name: str
    domain: PointDomain
    _apply: Callable | None = None
    _is_generic: Callable | None = None
    _body: Callable | None = None
    _stack: Callable | None = None

    def is_generic(self, u, v) -> bool:
        if self._body is not None:
            return bool(self._body(u, v)[2])
        return self._is_generic is None or bool(self._is_generic(u, v))

    def apply(self, u, v):
        if self._body is None:
            if not self.is_generic(u, v):
                raise NonGeneric(f"{self.name}: pair fails the genericity gate")
            return self._apply(u, v)
        phi, psi, generic = self._body(u, v)
        if not generic:
            raise NonGeneric(f"{self.name}: pair fails the genericity gate")
        return phi, psi

    def phi(self, u, v):
        return self.apply(u, v)[0]

    def psi(self, u, v):
        return self.apply(u, v)[1]


def builtin_map(name: str, m: int = 2, q_scale=1.0 + 0.0j, q_shift=0.0 + 0.0j) -> TwistedMap:
    """One of the closed-form twisted transpositions.

    q_swap          mu(u, v) = (q(v), q^{-1}(u)), q(u) = q_scale * u + q_shift
    scalar_rational mu(u, v) = (1 - u + u v, u v / (1 - u + u v))
    matrix_rational the same formula on m x m matrices, with a matrix inverse

    q_swap and matrix_rational have one body for a pair and for a stack
    (a pair is a stack of shape ()); scalar_rational keeps a Python
    complex body for a pair beside its stack body, which takes the same
    gate decisions and the same denominators.
    """
    if name == "q_swap":
        q_scale = complex(q_scale)
        q_shift = complex(q_shift)
        if q_scale == 0:
            raise ValueError("q_swap needs an invertible affine map")

        def body_q(u, v):
            return _cmul(q_scale, v) + q_shift, (u - q_shift) / q_scale, True

        return TwistedMap("q_swap", ScalarDomain(), _body=body_q, _stack=body_q)

    if name == "scalar_rational":

        def body_s(u, v):
            uv = u * v
            den = 1 - u + uv
            if abs(den) > MAP_GATE * max(1.0, abs(u), abs(v), abs(uv)):
                return den, uv / den, True
            return None, None, False

        def stack_s(u, v):
            uv = _cmul(u, v)
            den = 1 - u + uv
            scale = np.maximum(np.maximum(1.0, _sizes(u)), np.maximum(_sizes(v), _sizes(uv)))
            generic = _sizes(den) > MAP_GATE * scale
            return den, uv / np.where(generic, den, 1), generic

        return TwistedMap("scalar_rational", ScalarDomain(), _body=body_s, _stack=stack_s)

    if name == "matrix_rational":
        eye = np.eye(m)

        def body_m(u, v):
            uv = u @ v
            den = eye - u + uv
            smin = np.linalg.svd(den, compute_uv=False)[..., -1]
            generic = smin > MAP_GATE * np.maximum(1.0, np.maximum(_sizes(u), _sizes(v)))
            return den, np.linalg.solve(np.where(generic[..., None, None], den, eye), uv), generic

        return TwistedMap("matrix_rational", MatrixDomain(m), _body=body_m, _stack=body_m)

    raise UnknownMap(f"no built-in map named {name!r}")


def redraw(trial, what: str):
    """Run trial() until it returns, retrying up to MAX_REDRAW times while
    it raises NonGeneric; a trial that draws its own points resamples
    them on every retry."""
    for _ in range(MAX_REDRAW):
        try:
            return trial()
        except NonGeneric:
            continue
    raise NonGeneric(f"{what}: no generic sample after {MAX_REDRAW} draws")


def verify_samples(
    check: str, subject: str, samples: int, seed: int, tol: float, trial, trials=None
) -> VerificationReport:
    """Record a residual for each of `samples` seeded generic trials.

    A trial is the whole sample (draw, map and residual): trial(rng) runs
    one and a NonGeneric raised anywhere in it makes the trial
    non-generic.  trials(rng, k), when given, runs k trials from the same
    stream in one pass and returns their residuals and generic flags.
    Generic trials are accepted in stream order; MAX_REDRAW non-generic
    trials in a row raise NonGeneric, and the report counts the
    non-generic trials it passed over in `redraws`."""
    if trials is None:
        trials = _one_trial(trial)
    rng = np.random.default_rng(seed)
    rep = VerificationReport(check, subject, samples, seed, tol)
    index = run = 0
    while index < samples:
        residuals, generic = trials(rng, samples - index)
        for residual, ok in zip(residuals, generic):
            if ok:
                rep.record(index, residual)
                index += 1
                run = 0
                if index == samples:
                    break
            else:
                rep.redraws += 1
                run += 1
                if run == MAX_REDRAW:
                    raise NonGeneric(f"{subject}: {check}: no generic sample after {MAX_REDRAW} draws")
    return rep


def _one_trial(trial):
    """trial(rng) as a block of one trial."""

    def trials(rng, k):
        try:
            return (trial(rng),), (True,)
        except NonGeneric:
            return (0.0,), (False,)

    return trials


def _stacked(map_: TwistedMap, points: int, residual):
    """Blocks of trials for a map with a stack body: each trial draws
    `points` points, and residual(stack, pts) returns each trial's
    residual and generic flag."""

    def trials(rng, k):
        x = map_.domain.sample(rng, k * points)
        x = x.reshape((k, points) + x.shape[1:])
        res, generic = residual(map_._stack, tuple(x[:, j] for j in range(points)))
        return res.tolist(), np.broadcast_to(generic, res.shape).tolist()

    return trials


def _act_stack(stack, word, pts):
    """act over stacks of tuples; returns the images and where every
    step was generic."""
    pts = list(pts)
    generic = True
    for i in word:
        pts[i - 1], pts[i], ok = stack(pts[i - 1], pts[i])
        generic = generic & ok
    return pts, generic


def _distances(xs, ys):
    """point_distance between corresponding points of two stacks."""
    return _sizes(xs - ys) / np.maximum(1.0, np.maximum(_sizes(xs), _sizes(ys)))


def verify_involution(map_: TwistedMap, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Check mu(mu(u, v)) = (u, v) on seeded generic samples."""
    dom = map_.domain

    def trial(rng):
        u, v = dom.sample(rng), dom.sample(rng)
        u2, v2 = map_.apply(*map_.apply(u, v))
        return max(dom.distance(u2, u), dom.distance(v2, v))

    def residual(stack, pts):
        back, generic = _act_stack(stack, (1, 1), pts)
        return np.maximum(*(_distances(x, y) for x, y in zip(back, pts))), generic

    trials = _stacked(map_, 2, residual) if map_._stack is not None else None
    return verify_samples("involution", map_.name, samples, seed, tol, trial, trials)


def verify_braid(map_: TwistedMap, samples: int = 100, seed: int = 0, tol: float = 1e-8) -> VerificationReport:
    """Compare sigma1 sigma2 sigma1 with sigma2 sigma1 sigma2 on triples."""
    dom = map_.domain

    def trial(rng):
        pts = tuple(dom.sample(rng) for _ in range(3))
        left = act(map_, (1, 2, 1), pts)
        right = act(map_, (2, 1, 2), pts)
        return max(dom.distance(x, y) for x, y in zip(left, right))

    def residual(stack, pts):
        left, gl = _act_stack(stack, (1, 2, 1), pts)
        right, gr = _act_stack(stack, (2, 1, 2), pts)
        return np.max([_distances(x, y) for x, y in zip(left, right)], axis=0), gl & gr

    trials = _stacked(map_, 3, residual) if map_._stack is not None else None
    return verify_samples("braid", map_.name, samples, seed, tol, trial, trials)


def act(map_: TwistedMap, word, points):
    """Apply sigma_i factors left to right; word entries are 1-based."""
    pts = list(points)
    n = len(pts)
    for step, i in enumerate(word):
        i = int(i)
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for a {n}-tuple")
        try:
            pts[i - 1], pts[i] = map_.apply(pts[i - 1], pts[i])
        except NonGeneric as exc:
            raise NonGeneric(f"{map_.name}: non-generic pair at word position {step}") from exc
    return tuple(pts)


def chain_invariants(map_: TwistedMap, us, w):
    """The two nested compositions left invariant by permuting us.

    Returns (phi(u_1, phi(u_2, ... phi(u_N, w))),
             psi(... psi(psi(w, u_1), u_2) ..., u_N)).
    """
    us = list(us)
    t = w
    for u in reversed(us):
        t = map_.apply(u, t)[0]
    s = w
    for u in us:
        s = map_.apply(s, u)[1]
    return t, s


def word_permutation(word, size: int) -> list[int]:
    """Image list of the permutation realized by applying adjacent swaps
    (1-based generator indices) left to right: new[sigma[i]] = old[i]."""
    arr = list(range(size))
    for i in word:
        i = int(i)
        if not 1 <= i <= size - 1:
            raise ValueError(f"generator index {i} out of range for size {size}")
        arr[i - 1], arr[i] = arr[i], arr[i - 1]
    sigma = [0] * size
    for pos, orig in enumerate(arr):
        sigma[orig] = pos
    return sigma


def compose_permutations(second, first) -> list[int]:
    """(second . first)[i] = second[first[i]]."""
    return [second[first[i]] for i in range(len(first))]


def adjacent_word(sigma) -> list[int]:
    """0-based adjacent swap positions realizing new[sigma[i]] = old[i]
    when applied left to right (swap j exchanges slots j and j+1)."""
    sigma = [int(s) for s in sigma]
    size = len(sigma)
    if sorted(sigma) != list(range(size)):
        raise ValueError("sigma must be a permutation given as an image list")
    inv = [0] * size
    for i, p in enumerate(sigma):
        inv[p] = i
    cur = list(range(size))
    word: list[int] = []
    for p in range(size):
        q = cur.index(inv[p], p)
        for j in range(q - 1, p - 1, -1):
            cur[j], cur[j + 1] = cur[j + 1], cur[j]
            word.append(j)
    return word


def _act_on_blocks(sigma, factors, labels, refactor):
    """Ordered action of sigma on factors carrying m labels each.

    sigma is an image list over the m * len(factors) label slots.  An
    interior adjacent swap relabels inside one factor; a boundary swap
    exchanges one label across the pair and replaces the pair (f_a, f_b)
    by refactor(f_a, f_b, new_la, new_lb).  Returns (factors, labels).
    """
    m = len(labels[0])
    size = m * len(factors)
    if len(sigma) != size:
        raise PartitionInvalid(f"permutation length {len(sigma)} does not match {size} slots")
    factors = list(factors)
    labels = [list(s) for s in labels]
    for j in adjacent_word(sigma):
        a, r = divmod(j, m)
        if r < m - 1:
            labels[a][r], labels[a][r + 1] = labels[a][r + 1], labels[a][r]
            continue
        la, lb = labels[a], labels[a + 1]
        new_la = la[: m - 1] + [lb[0]]
        new_lb = [la[m - 1]] + lb[1:]
        factors[a], factors[a + 1] = refactor(factors[a], factors[a + 1], new_la, new_lb)
        labels[a], labels[a + 1] = new_la, new_lb
    return factors, labels
