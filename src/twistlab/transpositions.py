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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonGeneric, PartitionInvalid, UnknownMap
from .report import VerificationReport

MAX_REDRAW = 16
MAP_GATE = 1e-6


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

    def sample(self, rng):
        return complex(rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)


class MatrixDomain(PointDomain):
    kind = "matrix"

    def __init__(self, m: int):
        self.m = int(m)

    def sample(self, rng):
        m = self.m
        return (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)


class VectorDomain(PointDomain):
    """Tuples in C^m, used by the multiplet layer."""

    kind = "vector"

    def __init__(self, m: int):
        self.m = int(m)

    def sample(self, rng):
        m = self.m
        return (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)


@dataclass(frozen=True)
class TwistedMap:
    """Named map mu(u, v) -> (phi, psi) over a point domain.

    apply raises NonGeneric outside the genericity gate; verifiers
    respond by redrawing the sample.
    """

    name: str
    domain: PointDomain
    _apply: Callable
    _is_generic: Callable | None = None

    def is_generic(self, u, v) -> bool:
        if self._is_generic is None:
            return True
        return bool(self._is_generic(u, v))

    def apply(self, u, v):
        if not self.is_generic(u, v):
            raise NonGeneric(f"{self.name}: pair fails the genericity gate")
        return self._apply(u, v)

    def phi(self, u, v):
        return self.apply(u, v)[0]

    def psi(self, u, v):
        return self.apply(u, v)[1]


def builtin_map(name: str, m: int = 2, q_scale=1.0 + 0.0j, q_shift=0.0 + 0.0j) -> TwistedMap:
    """One of the closed-form twisted transpositions.

    q_swap          mu(u, v) = (q(v), q^{-1}(u)), q(u) = q_scale * u + q_shift
    scalar_rational mu(u, v) = (1 - u + u v, u v / (1 - u + u v))
    matrix_rational the same formula on m x m matrices, with a matrix inverse
    """
    if name == "q_swap":
        q_scale = complex(q_scale)
        q_shift = complex(q_shift)
        if q_scale == 0:
            raise ValueError("q_swap needs an invertible affine map")

        def ap_q(u, v):
            return q_scale * v + q_shift, (u - q_shift) / q_scale

        return TwistedMap("q_swap", ScalarDomain(), ap_q)

    if name == "scalar_rational":

        def gen_s(u, v):
            return abs(1 - u + u * v) > MAP_GATE * max(1.0, abs(u), abs(v), abs(u * v))

        def ap_s(u, v):
            den = 1 - u + u * v
            return den, u * v / den

        return TwistedMap("scalar_rational", ScalarDomain(), ap_s, gen_s)

    if name == "matrix_rational":
        dom = MatrixDomain(m)

        def gen_m(u, v):
            den = np.eye(m) - u + u @ v
            s = np.linalg.svd(den, compute_uv=False)
            return s[-1] > MAP_GATE * max(1.0, np.linalg.norm(u), np.linalg.norm(v))

        def ap_m(u, v):
            den = np.eye(m) - u + u @ v
            return den, np.linalg.solve(den, u @ v)

        return TwistedMap("matrix_rational", dom, ap_m, gen_m)

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


def verify_samples(check: str, subject: str, samples: int, seed: int, tol: float, trial) -> VerificationReport:
    """Record trial(rng), a residual, for each of `samples` seeded samples.

    A trial is the whole sample (draw, map and residual), so a NonGeneric
    raised anywhere in it redraws that sample."""
    rng = np.random.default_rng(seed)
    rep = VerificationReport(check, subject, samples, seed, tol)
    for k in range(samples):
        rep.record(k, redraw(lambda: trial(rng), f"{subject}: {check}"))
    return rep


def verify_involution(map_: TwistedMap, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> VerificationReport:
    """Check mu(mu(u, v)) = (u, v) on seeded generic samples."""
    dom = map_.domain

    def trial(rng):
        u, v = dom.sample(rng), dom.sample(rng)
        u2, v2 = map_.apply(*map_.apply(u, v))
        return max(dom.distance(u2, u), dom.distance(v2, v))

    return verify_samples("involution", map_.name, samples, seed, tol, trial)


def verify_braid(map_: TwistedMap, samples: int = 100, seed: int = 0, tol: float = 1e-8) -> VerificationReport:
    """Compare sigma1 sigma2 sigma1 with sigma2 sigma1 sigma2 on triples."""
    dom = map_.domain

    def trial(rng):
        pts = tuple(dom.sample(rng) for _ in range(3))
        left = act(map_, (1, 2, 1), pts)
        right = act(map_, (2, 1, 2), pts)
        return max(dom.distance(x, y) for x, y in zip(left, right))

    return verify_samples("braid", map_.name, samples, seed, tol, trial)


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
