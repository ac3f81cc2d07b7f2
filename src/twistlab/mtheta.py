"""Matrix theta spaces and their refactorization transpositions.

A matrix theta space of order n collects the entire functions
f: C -> Mat_m satisfying, for the lattice generated by 1 and tau and
the Heisenberg pair (gamma_1, gamma_2),

    f(z + 1/m)   = gamma_1^{-1} f(z) gamma_1
    f(z + tau/m) = exp(-2 pi i (m n z - c)) gamma_2^{-1} f(z) gamma_2

The pair splits f into m^2 components along the monomials
gamma_1^a gamma_2^b, and each component is a scalar theta function of
level n with characteristics fixed by (a, b) (Mumford, Tata Lectures on
Theta I, the finite Heisenberg group acting on level-n theta
functions).  So the basis is written down in closed form and the space
has dimension m^2 n.  det f has exactly m n simple zeros per
fundamental cell {s/m + t tau/m} for generic f, and the scaled sum
m * sum(zeros) is congruent to m c + m n / 2 modulo the (1, tau)
lattice; equivalently sum(zeros) = c + n/2 modulo the (1/m) lattice.

Degree-1 elements refactor like linear matrix polynomial factors: a
product f g determines, for each exchange of zero sets, a unique new
ordered factorization up to scalars.  That exchange is the theta
twisted transposition, and its local version gives the ordered
symmetric-group action on factor tuples.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._kernels import small_det, theta_eval, theta_eval_grid
from .errors import (
    InputInvalid,
    NonGeneric,
    NullityMismatch,
    PartitionInvalid,
    RankUnexpected,
    ResidualTooLarge,
    SpectraOverlap,
    SumRuleViolated,
    ZeroCountMismatch,
)
from .linalg import nullspace_vector
from .transpositions import PointDomain, TwistedMap, _act_on_blocks, redraw

CELL_GATE = 1e-4
_TAIL_CUT = 40.0


def _probes(tau: complex) -> np.ndarray:
    """Four fixed points of the (1, tau) cell where products and
    distances are certified."""
    return np.array([0.137, 0.613, 0.829, 0.283]) + np.array([0.211, 0.377, 0.641, 0.907]) * tau


def clifford_pair(m: int):
    """Heisenberg pair: gamma_1 = diag(eps^a) with eps = exp(2 pi i / m)
    and gamma_2 the index-lowering cyclic shift, so that
    gamma_2 gamma_1 = eps gamma_1 gamma_2 and both have order m."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be positive")
    eps = np.exp(2j * np.pi / m)
    g1 = np.diag(eps ** np.arange(m)).astype(np.complex128)
    g2 = np.zeros((m, m), dtype=np.complex128)
    for a in range(m):
        g2[a, (a + 1) % m] = 1.0
    return g1, g2


@dataclass(frozen=True)
class LatticeParams:
    tau: complex
    m: int
    n: int
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "tau", complex(self.tau))
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))
        if not (cmath.isfinite(self.tau) and cmath.isfinite(self.c)):
            raise InputInvalid("tau and c must be finite")
        if self.tau.imag < 0.3:
            raise InputInvalid("Im tau must be at least 0.3 for the series to converge fast")
        if not 1 <= self.m <= 4:
            raise InputInvalid("m outside the supported desk scale 1..4")
        if not 1 <= self.n <= 3:
            raise InputInvalid("n outside the supported desk scale 1..3")
        if abs(self.c.imag) > 8.0:
            raise InputInvalid("Im c outside the supported range |Im c| <= 8")

    @property
    def L(self) -> int:
        return self.m * self.m * self.n

    @property
    def c1(self) -> complex:
        return self.m * self.c - self.n * self.m * (self.m - 1) / 2.0 * self.tau

    @property
    def omega1(self) -> complex:
        return 1.0 / self.m

    @property
    def omega2(self) -> complex:
        return self.tau / self.m


@lru_cache(maxsize=None)
def _monomials(m: int, n: int) -> np.ndarray:
    """The flattened monomial gamma_1^a gamma_2^b of every element
    (a, b, s) of a degree-n space, (m^2 n, m^2).  Cached per (m, n) and
    read-only."""
    g1, g2 = clifford_pair(m)
    mono = [np.linalg.matrix_power(g1, i) @ np.linalg.matrix_power(g2, k) for i in range(m) for k in range(m)]
    out = np.repeat(np.reshape(mono, (m * m, m * m)), n, axis=0)
    out.flags.writeable = False
    return out


class MThetaBasis:
    """Closed-form basis of one matrix theta space.

    Write f = sum_{a,b} f_ab(z) gamma_1^a gamma_2^b.  Conjugation by
    gamma_1 multiplies gamma_1^a gamma_2^b by eps^b and conjugation by
    gamma_2 multiplies it by eps^{-a}, so the two laws split into
    scalar laws for the components:

        f_ab(z + 1/m)   = eps^b f_ab(z)
        f_ab(z + tau/m) = eps^{-a} exp(-2 pi i (m n z - c)) f_ab(z)

    The first keeps the wavenumbers k = b mod m; the second ties the
    coefficient of k + m n to that of k, which leaves one free series
    per seed s < n.  Element d = (a, b, s), d = (a m + b) n + s, is
    theta_abs(z) gamma_1^a gamma_2^b, where theta_abs runs over
    k = b + m s + m n j (j in Z) with coefficient

        exp(2 pi i [j (k0 tau - c + a/m) + n tau j (j - 1) / 2]),  k0 = b/m + s,

    times the one positive constant that brings its largest coefficient
    (over real j) to modulus 1.  The dimension is m^2 n by construction,
    and coefficient vectors of elements mean the same on every machine.

    Evaluation moves each point into the strip 0 <= Im z < Im tau / m
    with the tau/m law.  There the series share one window of j that
    keeps every term above exp(-40) of the largest.  The size of a
    combination at a point of the strip is its largest single term
    (`envelope`), the one scale behind interpolation and `det_zeros`;
    building a basis evaluates nothing.
    """

    def __init__(self, params: LatticeParams):
        p = params
        m, n, t = p.m, p.n, p.tau.imag
        self.params = p
        self.dim = p.L
        a, b, s = (ix.ravel() for ix in np.indices((m, m, n)))
        k0 = b / m + s
        # |coefficient j| = exp(-2 pi (n t j^2 / 2 + slope j)), largest at
        # j = -slope / (n t); a term of wavenumber k also carries
        # exp(-2 pi k Im z), which moves that peak down by up to one
        # across the strip
        slope = k0 * t - p.c.imag - n * t / 2
        half = np.sqrt(_TAIL_CUT / (np.pi * n * t))
        peak = -slope / (n * t)
        js = np.arange(int(np.floor(peak.min() - 1 - half)), int(np.ceil(peak.max() + half)) + 1)
        expo = js * (k0[:, None] * p.tau - p.c + a[:, None] / m) + n * p.tau * js * (js - 1) / 2
        # log |coefficient|, kept apart so that term sizes never overflow
        self._log_coeffs = -2 * np.pi * expo.imag - np.pi * slope[:, None] ** 2 / (n * t)
        self.coeffs = np.exp(2j * np.pi * expo.real + self._log_coeffs)
        self.ks = (b + m * s)[:, None] + m * n * js.astype(np.float64)
        self._a = a
        self._mono = _monomials(m, n)

    def slots(self):
        """Where each term sits: the monomial a m + b of its element,
        (dim, 1), and its integer wavenumber, (dim, T)."""
        return (np.arange(self.dim) // self.params.n)[:, None], np.rint(self.ks).astype(np.int64)

    @property
    def terms(self) -> int:
        return self.ks.shape[1]

    def series(self, zs) -> np.ndarray:
        """theta_abs at the points zs, one row per element: (dim, P)."""
        p = self.params
        zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
        q = np.floor(zs.imag / p.omega2.imag)
        w = zs - q * p.omega2
        th = theta_eval(self.coeffs, self.ks, w)
        if not q.any():  # all points in the strip, as on Newton steps
            return th
        # q applications of the tau/m law from the strip back to zs
        lift = np.outer(self._a / p.m, q) + q * (p.m * p.n * w - p.c + (q - 1) * (p.n * p.tau / 2))
        return th * np.exp(-2j * np.pi * lift)

    def eval_basis(self, zs) -> np.ndarray:
        """Matrix values of every element: (dim, P, m, m)."""
        th = self.series(zs)
        m = self.params.m
        return (th[:, :, None] * self._mono[:, None, :]).reshape(self.dim, th.shape[1], m, m)

    def combine(self, x, th) -> np.ndarray:
        """Matrix values of the combination x from th = series(zs): (P, m, m)."""
        th = th * np.asarray(x, dtype=np.complex128)[:, None]
        m = self.params.m
        return (th.T @ self._mono).reshape(-1, m, m)

    def eval(self, x, zs) -> np.ndarray:
        """Matrix values of the combination with coefficients x: (P, m, m)."""
        return self.combine(x, self.series(zs))

    def eval_grid(self, x, us, vs) -> np.ndarray:
        """Matrix values of the combination x at the points us[i] + vs[j],
        all in the strip 0 <= Im z < Im tau / m: (len(us) * len(vs), m, m),
        row-major in (i, j).  The coordinates x scale the series
        coefficients, so the kernel sums the combination's terms at once."""
        coeffs = self.coeffs * np.asarray(x, dtype=np.complex128)[:, None]
        th = theta_eval_grid(coeffs, self.ks, us, vs).reshape(self.dim, -1)
        m = self.params.m
        return (th.T @ self._mono).reshape(-1, m, m)

    def envelope(self, x, ws) -> np.ndarray:
        """Size of the combination x, (..., dim), at the points ws of the
        strip 0 <= Im w < Im tau / m: sqrt(m) times its largest single
        term |x_d coeffs[d, j]| exp(-2 pi ks[d, j] Im w), (..., P).  It
        depends on Im w alone and does not vanish at a zero of the
        combination; the largest term is found in log form, so that none
        overflows."""
        return self._envelope(x, self._log_terms(ws))

    def _log_terms(self, ws) -> np.ndarray:
        """log of each element's largest term at the points ws: (dim, P)."""
        return (self._log_coeffs[..., None] - self.ks[..., None] * (2 * np.pi * np.imag(ws))).max(axis=1)

    def _envelope(self, x, terms) -> np.ndarray:
        """`envelope` of x from the table terms = _log_terms(ws)."""
        with np.errstate(divide="ignore"):  # a zero coordinate has no terms
            logx = np.log(np.abs(x))
        return math.sqrt(self.params.m) * np.exp((logx[..., None] + terms).max(axis=-2))


@lru_cache(maxsize=512)
def _basis_cached(params: LatticeParams) -> MThetaBasis:
    return MThetaBasis(params)


def mtheta_basis(params: LatticeParams) -> MThetaBasis:
    return _basis_cached(params)


@dataclass(frozen=True, eq=False)
class ThetaElement:
    params: LatticeParams
    coeffs: np.ndarray
    zeros: tuple | None = None

    def basis(self) -> MThetaBasis:
        return mtheta_basis(self.params)

    def eval(self, zs) -> np.ndarray:
        return self.basis().eval(self.coeffs, zs)

    def det(self, zs) -> np.ndarray:
        return small_det(self.eval(zs))

    def normalized(self) -> "ThetaElement":
        j = int(np.argmax(np.abs(self.coeffs)))
        piv = self.coeffs[j]
        if piv == 0:
            raise InputInvalid("cannot normalize the zero element")
        return ThetaElement(self.params, self.coeffs / piv, self.zeros)

    def with_zeros(self, zeros) -> "ThetaElement":
        return replace(self, zeros=None if zeros is None else tuple(zeros))


def random_element(params: LatticeParams, rng) -> ThetaElement:
    basis = mtheta_basis(params)
    x = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return ThetaElement(params, x).normalized()


# ---------------------------------------------------------------------------
# lattice bookkeeping


def _lattice_solve(w: complex, o1: complex, o2: complex) -> tuple[float, float]:
    """Coordinates (x, y) with w = x o1 + y o2, by Cramer's rule."""
    det = o1.real * o2.imag - o2.real * o1.imag
    return (
        (w.real * o2.imag - w.imag * o2.real) / det,
        (o1.real * w.imag - o1.imag * w.real) / det,
    )


def lattice_distance(w: complex, o1: complex, o2: complex) -> float:
    """Distance from w to the lattice generated by o1 and o2."""
    o1, o2 = complex(o1), complex(o2)
    x, y = _lattice_solve(complex(w), o1, o2)
    r = (x - round(x)) * o1 + (y - round(y)) * o2
    lo, hi = r - o2, r + o2
    return min(abs(lo - o1), abs(lo), abs(lo + o1), abs(r - o1), abs(r), abs(r + o1),
               abs(hi - o1), abs(hi), abs(hi + o1))


def _lattice_distances(w: np.ndarray, o1: complex, o2: complex) -> np.ndarray:
    """lattice_distance elementwise over an array; the scalar form stays
    for the many single-pair gates, where numpy's overhead would dominate."""
    x, y = _lattice_solve(w, o1, o2)
    dx = (x - np.rint(x))[..., None, None] + np.arange(-1, 2)[:, None]
    dy = (y - np.rint(y))[..., None, None] + np.arange(-1, 2)
    return np.abs(dx * o1 + dy * o2).min(axis=(-2, -1))


def modular_distance(a: complex, b: complex, o1: complex, o2: complex) -> float:
    return lattice_distance(complex(a) - complex(b), o1, o2)


def reduce_to_cell(z, o1: complex, o2: complex):
    """Representatives of z in the cell {s o1 + t o2 : 0 <= s, t < 1}."""
    o1, o2 = complex(o1), complex(o2)
    x, y = _lattice_solve(np.asarray(z, dtype=np.complex128), o1, o2)
    return (x - np.floor(x)) * o1 + (y - np.floor(y)) * o2


def zero_sum_residual(points, params: LatticeParams) -> float:
    """Distance of m * sum(points) from m c + m n / 2 modulo the (1, tau)
    lattice, which is the sum rule satisfied by determinant zeros."""
    w = params.m * sum(complex(z) for z in points)
    target = params.m * params.c + params.m * params.n / 2.0
    return lattice_distance(w - target, 1.0, params.tau)


# ---------------------------------------------------------------------------
# determinant zeros


@dataclass(frozen=True)
class ZeroSet:
    points: tuple
    sum_residual: float
    grid: int  # side of the scan grid that found the zeros
    newton_steps: int  # batched Newton iterations over all scans


_NEWTON_CAP = 60
_NEIGHBOURS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]


def _normalized_det(f: ThetaElement, zs) -> np.ndarray:
    """|det f| over the m-th power of f's envelope at points zs of the
    strip, so that values compare across heights in the cell.  det f
    comes from `ThetaElement.det`, the closed form `small_det` at
    arbitrary points."""
    return np.abs(f.det(zs)) / f.basis().envelope(f.coeffs, zs) ** f.params.m


def _newton_roots(f: ThetaElement, zs: np.ndarray, limit: float):
    """Central-difference Newton on det f from every start at once, one
    det call on 3 points per active start and step.  A start retires when
    its step drops below 1e-12 (converged), exceeds limit, is not finite,
    or its derivative vanishes.  Returns the converged roots, in start
    order, and the number of steps taken."""
    h = 1e-6  # central-difference step
    z = np.array(zs, dtype=np.complex128)
    active = np.arange(len(z))
    converged = np.zeros(len(z), dtype=bool)
    steps = 0
    while active.size and steps < _NEWTON_CAP:
        steps += 1
        za = z[active]
        # a start that walks far out overflows det f; its step is then
        # not finite and it retires below
        with np.errstate(over="ignore", invalid="ignore"):
            g0, gp, gm = f.det(np.concatenate([za, za + h, za - h])).reshape(3, -1)
            deriv = (gp - gm) / (2 * h)
            live = deriv != 0
            dz = g0 / np.where(live, deriv, 1)
        z[active] = za - dz
        size = np.abs(dz)
        done = live & (size < 1e-12)
        converged[active[done]] = True
        # a non-finite step fails this comparison too
        active = active[live & ~done & (size <= limit)]
    return z[converged], steps


def det_zeros(f: ThetaElement, tol: float = 1e-6) -> ZeroSet:
    """Locate the m n determinant zeros in the fundamental cell.

    Scan: |det f| on a 48 x 48 mesh of the (1/m, tau/m) cell, over the
    m-th power of f's envelope (`MThetaBasis.envelope`, its largest
    term) so local minima are meaningful at every height.  The mesh is
    the outer sum of its two axes, so the series come from the grid
    kernel `theta_eval_grid` and the determinants from the closed form
    `small_det`; the envelope depends on the height alone and is
    computed once per height.  The Newton starts are the grid's
    periodic 8-neighbour local minima and its 2 m n + 4 smallest cells.

    Newton: central differences on all starts at once (`_newton_roots`),
    at most 60 steps.  Converged roots are moved into the cell, and a
    root is kept only where its normalized |det f| is at most 1e-7 of
    the scan's largest.

    Dedup: roots closer than CELL_GATE modulo the cell form one class,
    and each class keeps its root with the smallest normalized |det f|.
    If the classes do not number m n, the grid doubles, up to twice.
    The zeros come back ordered by their lattice coordinates.
    """
    p = f.params
    o1, o2 = p.omega1, p.omega2
    expected = p.m * p.n
    basis = f.basis()
    g = 48
    steps = 0
    for _ in range(3):
        xs = (np.arange(g) + 0.5) / g
        us, vs = xs * o1, xs * o2
        zs = (us[:, None] + vs[None, :]).ravel()
        dets = small_det(basis.eval_grid(f.coeffs, us, vs)).reshape(g, g)
        ng = np.abs(dets) / basis.envelope(f.coeffs, vs) ** p.m
        scale0 = float(ng.max())
        # periodic local minima, read off the grid with a wrapped border
        # of one cell, then the smallest cells; a mask rather than
        # np.union1d, whose np.unique imports numpy.ma (1 MB)
        wrap = np.arange(-1, g + 1) % g
        ring = ng[np.ix_(wrap, wrap)]
        start = np.logical_and.reduce([ng <= ring[1 + i : g + 1 + i, 1 + j : g + 1 + j] for i, j in _NEIGHBOURS])
        start = start.ravel()
        start[np.argsort(ng, axis=None)[: 2 * expected + 4]] = True
        found, taken = _newton_roots(f, zs[start], 3 * (abs(o1) + abs(o2)))
        steps += taken
        roots = reduce_to_cell(found, o1, o2)
        local = _normalized_det(f, roots)
        order = np.argsort(local, kind="stable")
        roots = roots[order][local[order] <= 1e-7 * scale0]
        near = _lattice_distances(roots[:, None] - roots[None, :], o1, o2) <= CELL_GATE
        free = np.ones(len(roots), dtype=bool)
        kept = []
        while free.any():
            best = int(np.argmax(free))
            kept.append(best)
            free &= ~near[best]
        roots = roots[kept]
        if len(roots) == expected:
            break
        g *= 2
    else:
        raise ZeroCountMismatch(f"found {len(roots)} determinant zeros, expected {expected}")
    x, y = _lattice_solve(roots, o1, o2)
    roots = roots[np.lexsort((y, x))]
    sr = zero_sum_residual(roots, p)
    if sr > tol:
        raise SumRuleViolated(f"zero sum misses the lattice congruence by {sr:.2e}")
    return ZeroSet(tuple(roots.tolist()), sr, g, steps)


# ---------------------------------------------------------------------------
# interpolation


def _kernel_vector(mat: np.ndarray, m: int) -> np.ndarray:
    if m == 1:
        return np.ones(np.shape(mat)[:-1], dtype=np.complex128)
    try:
        return nullspace_vector(mat, tol=1e-5)
    except RankUnexpected as exc:
        raise NonGeneric("matrix value has no one-dimensional kernel") from exc


def interpolate(params: LatticeParams, points, vectors) -> ThetaElement:
    """The unique element, up to scale, with right kernel vectors
    f(p_k) v_k = 0.

    Needs m n points whose scaled sum meets the lattice congruence to
    1e-6; the homogeneous linear system over the basis coefficients must
    then have a one-dimensional nullspace (singular values below 1e-8 of
    the largest), and the element must vanish on the prescribed vectors
    to 1e-7 of its envelope at each point.

    Each point p = w + s/m + q tau/m is first moved to w in the
    (1/m, tau/m) cell.  By the two laws f(p) is a scalar times
    M^{-1} f(w) M with M = gamma_1^s gamma_2^q, so the conditions become
    f(w) M v = 0.  The rows of each point are taken in units of the
    basis envelope there (`MThetaBasis.envelope` with every coordinate
    1), which keeps them comparable across the cell at any Im c.
    """
    p = params
    points = [complex(z) for z in points]
    vectors = [np.asarray(v, dtype=np.complex128).ravel() for v in vectors]
    if len(points) != p.m * p.n or len(vectors) != len(points):
        raise PartitionInvalid(f"need {p.m * p.n} points and as many vectors")
    if any(v.shape != (p.m,) for v in vectors):
        raise PartitionInvalid(f"kernel vectors must have {p.m} entries")
    norms = [np.linalg.norm(v) for v in vectors]
    # a NaN or infinite entry gives a NaN or infinite norm
    if not all(0 < norm < math.inf for norm in norms):
        raise PartitionInvalid("kernel vectors must be finite and nonzero")
    sr = zero_sum_residual(points, p)
    if sr > 1e-6:
        raise SumRuleViolated(f"prescribed zeros miss the sum congruence by {sr:.2e}")
    basis = mtheta_basis(p)
    m, o1, o2 = p.m, p.omega1, p.omega2
    ws, us = [], []
    for z, v, norm in zip(points, vectors, norms):
        x, y = _lattice_solve(z, o1, o2)
        s, q = math.floor(x), math.floor(y)
        ws.append(z - s * o1 - q * o2)
        # M is unitary, so M v keeps |v| = 1
        mono = basis._mono[((s % m) * m + q % m) * p.n].reshape(m, m)
        us.append(mono @ (v / norm))
    ws, us = np.array(ws), np.array(us)
    beval = basis.eval_basis(ws)
    # each basis element's largest log term at each point: the rows take
    # the largest, the residual the envelope of the solution
    terms = basis._log_terms(ws)
    scale = math.sqrt(m) * np.exp(terms.max(axis=0))
    rows = np.einsum("dpij,pj->pid", beval, us) / scale[:, None, None]
    _, sv, vh = np.linalg.svd(rows.reshape(-1, basis.dim))
    anchor = max(float(sv[0]), 1.0)
    nullity = int(np.sum(sv <= 1e-8 * anchor))
    if nullity != 1:
        raise NullityMismatch(f"interpolation nullity {nullity}, expected 1")
    elem = ThetaElement(p, vh[-1].conj(), zeros=tuple(points)).normalized()
    vals = np.einsum("d,dpij,pj->pi", elem.coeffs, beval, us)
    worst = float((np.linalg.norm(vals, axis=1) / basis._envelope(elem.coeffs, terms)).max())
    if not worst <= 1e-7:
        raise ResidualTooLarge(f"interpolation residual {worst:.2e} above 1e-07")
    return elem


def _monomial_rows(f: ThetaElement):
    """Fourier coefficients of f grouped by monomial: row a m + b holds
    those of f_ab at the integer wavenumbers k0, k0 + 1, ...; returns
    (rows, k0)."""
    basis = f.basis()
    mono, ks = basis.slots()
    k0 = int(ks.min())
    rows = np.zeros((f.params.m ** 2, int(ks.max()) - k0 + 1), dtype=np.complex128)
    # the wavenumbers of one monomial's n series are disjoint
    rows[mono, ks - k0] = f.coeffs[:, None] * basis.coeffs
    return rows, k0


@lru_cache(maxsize=None)
def _monomial_products(m: int):
    """For monomials r = a m + b and t = a' m + b', the t with
    gamma_1^a gamma_2^b gamma_1^a' gamma_2^b' a multiple of monomial R,
    indexed [r, R], and that multiple eps^{b a'}.  Cached per m; the
    callers only index with the two arrays."""
    a, b = np.divmod(np.arange(m * m), m)
    other = ((a[None, :] - a[:, None]) % m) * m + (b[None, :] - b[:, None]) % m
    return other, np.exp(2j * np.pi / m * (b[:, None] * a[other] % m))


def _right_multiplier(g: ThetaElement, left: LatticeParams):
    """Right multiplication by g as a matrix: M takes the coordinates of
    q, an element of the space of left, to those of q g.  Returns the
    parameters of the product space and M, (dim_h, dim_left).

    Since gamma_1^a gamma_2^b gamma_1^a' gamma_2^b' =
    eps^{b a'} gamma_1^{a + a'} gamma_2^{b + b'}, the Fourier coefficients
    of q g along each monomial are sums of convolutions of those of the
    factors; here q runs over the basis of left, one column each.  Each
    product element (A, B, s) owns the wavenumbers B + m s + m n_h j,
    and its coordinate is the least-squares ratio of the product's
    coefficients to its own over them, weighted by their size.
    """
    if left.m != g.params.m or left.tau != g.params.tau:
        raise PartitionInvalid("product factors must share m and tau")
    pr = LatticeParams(tau=left.tau, m=left.m, n=left.n + g.params.n, c=left.c + g.params.c)
    m = pr.m
    lb = mtheta_basis(left)
    mono_l, ks_l = lb.slots()
    kl = int(ks_l.min())
    nl = int(ks_l.max()) - kl + 1
    # column d holds the coefficients of basis element d at the integer
    # wavenumbers kl, kl + 1, ...
    cols = np.zeros((nl, lb.dim), dtype=np.complex128)
    cols[ks_l - kl, np.arange(lb.dim)[:, None]] = lb.coeffs
    rg, kg = _monomial_rows(g)
    width = nl + rg.shape[1] - 1
    # conv[t, K, d] = sum_i cols[i, d] rg[t, K - i]: one product with the
    # Toeplitz matrices of the rows of g
    padded = np.concatenate([np.zeros((m * m, nl - 1)), rg, np.zeros((m * m, nl - 1))], axis=1)
    toeplitz = padded[:, np.arange(width)[:, None] + np.arange(nl - 1, -1, -1)]
    conv = (toeplitz.reshape(-1, nl) @ cols).reshape(m * m, width, lb.dim)
    basis = mtheta_basis(pr)
    mono, ks = basis.slots()
    other, weight = _monomial_products(m)
    r = mono_l.T
    # terms[e, d, j]: basis element d of left, on monomial r_d, times the
    # monomial other[r_d, R_e] of g lands on the monomial R_e of product
    # element e; read there at e's j-th wavenumber
    idx = ks - (kl + kg)
    terms = conv[other[r, mono][:, :, None], np.clip(idx, 0, width - 1)[:, None], np.arange(lb.dim)[:, None]]
    c = basis.coeffs
    proj = np.where((idx >= 0) & (idx < width), c.conj(), 0) / (np.abs(c) ** 2).sum(axis=1, keepdims=True)
    return pr, (terms * proj[:, None]).sum(axis=2) * weight[r, mono]


def multiply_elements(f: ThetaElement, g: ThetaElement, resid_tol: float = 1e-8) -> ThetaElement:
    """The pointwise product f g in the degree-(n_f + n_g) space, exact:
    the right multiplier of g (`_right_multiplier`) applied to the
    coordinates of f.  The relative residual of h against f g at the
    probe points certifies the result; a residual that cannot be
    computed (NaN) fails it.
    """
    pr, mat = _right_multiplier(g, f.params)
    x = mat @ f.coeffs
    zs = _probes(f.params.tau)
    ref = np.matmul(f.eval(zs), g.eval(zs))
    # in units of each probe's largest entry, so that the norms do not
    # overflow where f g is large
    unit = np.abs(ref).max(axis=(1, 2), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.linalg.norm((mtheta_basis(pr).eval(x, zs) - ref) / unit, axis=(1, 2))
        resid = float((err / np.linalg.norm(ref / unit, axis=(1, 2))).max())
    if not resid <= resid_tol:
        raise ResidualTooLarge(f"product residual {resid:.2e} above {resid_tol:.0e}")
    zeros = None
    if f.zeros is not None and g.zeros is not None:
        zeros = tuple(f.zeros) + tuple(g.zeros)
    return ThetaElement(pr, x, zeros)


def _ensure_zeros(f: ThetaElement) -> ThetaElement:
    if f.zeros is not None:
        return f
    return f.with_zeros(det_zeros(f).points)


def _projective_residual(x, ref) -> float:
    """Relative residual of ref against the best multiple of x.  Each
    vector is taken in units of its largest entry, so that the norms do
    not overflow where the values are large; the multiple absorbs the
    units.  A vector that vanishes or is not finite gives inf."""
    x, ref = np.ravel(x), np.ravel(ref)
    ux, ur = np.abs(x).max(), np.abs(ref).max()
    if not (0 < ux < math.inf and 0 < ur < math.inf):
        return math.inf
    x, ref = x / ux, ref / ur
    s = np.vdot(x, ref) / np.vdot(x, x)
    return float(np.linalg.norm(s * x - ref) / np.linalg.norm(ref))


def _residual_points(tau: complex) -> np.ndarray:
    """The 20 points that certify a factorization: the four probes, five
    times, spaced by 0.017."""
    return np.tile(_probes(tau), 5) + 0.017 * np.arange(20)


def theta_mu(f: ThetaElement, g: ThetaElement, tol: float = 1e-6):
    """Exchange transposition on degree-1 elements.

    Returns (f1, g1) with f g = f1 g1 pointwise up to normalization
    scalars, the zero sets exchanged, and the c parameters exchanged
    along with them: the factorization of f g with the zero blocks
    [S(g), S(f)] and the c split [c_g, c_f], as in `factorize_theta`.
    f g is read only through the values of f and g; its coefficients
    and its degree-2 space are never formed.
    """
    if f.params.n != 1 or g.params.n != 1:
        raise PartitionInvalid("theta transposition acts on degree-1 elements")
    if f.params.m != g.params.m or f.params.tau != g.params.tau:
        raise PartitionInvalid("operands must share m and tau")
    f = _ensure_zeros(f)
    g = _ensure_zeros(g)
    p = f.params
    gap = min(
        modular_distance(zf, zg, p.omega1, p.omega2) for zf in f.zeros for zg in g.zeros
    )
    if gap < CELL_GATE:
        raise SpectraOverlap(f"zero sets collide modulo the cell (gap {gap:.2e})")
    f1, g1 = _factor_product([f, g], [g.zeros, f.zeros], [g.params.c, f.params.c], tol)
    return f1, g1


def factorize_theta(f: ThetaElement, partition, csplit, tol: float = 1e-6) -> list[ThetaElement]:
    """Ordered factorization into degree-1 elements with prescribed
    zero blocks and c split.

    Every factor is interpolated, peeled right to left: for h = f_0 ...
    f_{n-1} and a point p of block k, the other factors are invertible
    at p, so ker f_k(p) = (f_{k+1} ... f_{n-1})(p) ker h(p).  The kernel
    vectors of f at block k, carried through the factors already peeled,
    interpolate f_k with c = csplit[k]; there is no quotient.  The
    product of the factors against f at 20 probe points certifies the
    whole factorization.  Each space is evaluated once, at the block and
    the 20 certificate points, and read through `MThetaBasis.combine`.
    """
    return _factor_product([f], partition, csplit, tol)


def _factor_product(elements, partition, csplit, tol: float) -> list[ThetaElement]:
    """`factorize_theta` of the ordered product of elements, read only
    through its values, the matmul of theirs.  m, tau, the degree and c
    of the product come from the elements; its space is never built.
    Each distinct space of an element or factor has one `series` call, at
    the block points in block order and then the 20 certificate points."""
    first = elements[0].params
    m, tau = first.m, first.tau
    if any(e.params.m != m or e.params.tau != tau for e in elements):
        raise PartitionInvalid("product factors must share m and tau")
    n = sum(e.params.n for e in elements)
    c = sum(e.params.c for e in elements)
    blocks = [[complex(z) for z in block] for block in partition]
    cs = [complex(x) for x in csplit]
    if len(blocks) != n or len(cs) != n:
        raise PartitionInvalid(f"need {n} blocks and {n} c values")
    if any(len(b) != m for b in blocks):
        raise PartitionInvalid(f"every block must have size {m}")
    flat = [z for b in blocks for z in b]
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            if modular_distance(flat[i], flat[j], first.omega1, first.omega2) < CELL_GATE:
                raise PartitionInvalid("partition blocks are not disjoint modulo the cell")
    if abs(sum(cs) - c) > 1e-8 * max(1.0, abs(c)):
        raise PartitionInvalid("c split does not sum to the c of the element")
    factor_params = [LatticeParams(tau=tau, m=m, n=1, c=ck) for ck in cs]
    for b, pk in zip(blocks, factor_params):
        sr = zero_sum_residual(b, pk)
        if sr > 1e-6:
            raise SumRuleViolated(f"block sum misses its c congruence by {sr:.2e}")
    if n == 1:
        return [elements[0].normalized().with_zeros(tuple(blocks[0]))]
    zs = np.concatenate([flat, _residual_points(tau)])
    series = {p: mtheta_basis(p).series(zs) for p in dict.fromkeys([e.params for e in elements] + factor_params)}

    def values(e: ThetaElement) -> np.ndarray:
        return e.basis().combine(e.coeffs, series[e.params])

    prod = values(elements[0])
    for e in elements[1:]:
        prod = prod @ values(e)
    nb = len(flat)
    vs = _kernel_vector(prod[:nb], m)
    peeled: list[ThetaElement] = []  # f_{n-1}, f_{n-2}, ...
    for k in range(n - 1, -1, -1):
        fk = interpolate(factor_params[k], blocks[k], vs[k * m : (k + 1) * m])
        vals = values(fk)
        # f_k acts on the blocks before it, after the factors peeled already
        vs[: k * m] = (vals[: k * m] @ vs[: k * m, :, None])[..., 0]
        acc = vals[nb:] if not peeled else vals[nb:] @ acc
        peeled.append(fk)
    rel = _projective_residual(acc, prod[nb:])
    if not rel <= tol:
        raise ResidualTooLarge(f"factor product misses the element by {rel:.2e}")
    return peeled[::-1]


def act_ordered_theta(sigma, factors, tol: float = 1e-6) -> list[ThetaElement]:
    """Ordered symmetric-group action on tuples of degree-1 elements.

    Interior adjacent swaps relabel the ordered zero set of one factor;
    boundary swaps refactor the product of the adjacent pair, read
    through the values of the pair, with the exchanged zero blocks and
    matching exchanged c split.
    """
    factors = [_ensure_zeros(f) for f in factors]
    if any(f.params.n != 1 for f in factors):
        raise PartitionInvalid("ordered action runs on degree-1 factors")

    def refactor(fa, fb, new_la, new_lb):
        cb = sum(new_lb) - 0.5
        ca = (fa.params.c + fb.params.c) - cb
        return _factor_product([fa, fb], [new_la, new_lb], [ca, cb], tol)

    fs, labels = _act_on_blocks(sigma, factors, [f.zeros for f in factors], refactor)
    return [f.with_zeros(tuple(z)) for f, z in zip(fs, labels)]


# ---------------------------------------------------------------------------
# the theta transposition as a TwistedMap


class ThetaDomain(PointDomain):
    """Degree-1 elements across all c, sampled by interpolation at
    random zero sets satisfying the sum congruence."""

    kind = "theta"

    def __init__(self, m: int, tau: complex):
        self.m = int(m)
        self.tau = complex(tau)

    def sample(self, rng) -> ThetaElement:
        m, tau = self.m, self.tau
        o1, o2 = 1.0 / m, tau / m

        def trial():
            zs = [complex(rng.random() / m + rng.random() * tau / m) for _ in range(m)]
            if not all(
                modular_distance(zs[i], zs[j], o1, o2) > 50 * CELL_GATE
                for i in range(m)
                for j in range(i + 1, m)
            ):
                raise NonGeneric("prescribed zeros too close modulo the cell")
            try:
                params = LatticeParams(tau=tau, m=m, n=1, c=sum(zs) - 0.5)
            except ValueError as exc:
                raise NonGeneric(str(exc)) from exc
            if m == 1:
                vs = [np.ones(1, dtype=np.complex128)]
            else:
                vs = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(m)]
            try:
                return interpolate(params, zs, vs)
            except (NullityMismatch, ResidualTooLarge) as exc:
                raise NonGeneric(str(exc)) from exc

        return redraw(trial, "degree-1 theta element")

    def distance(self, a: ThetaElement, b: ThetaElement) -> float:
        # projective distance as a direct residual; the 1 - cos^2 form
        # cannot resolve anything below sqrt(eps)
        if a.params == b.params:
            return _projective_residual(b.coeffs, a.coeffs)
        zs = _probes(self.tau)
        return _projective_residual(b.eval(zs), a.eval(zs))


def theta_map(m: int = 1, tau: complex = 1j) -> TwistedMap:
    """The zero-set exchange on degree-1 matrix theta elements."""
    dom = ThetaDomain(m, tau)

    def gen(fa: ThetaElement, fb: ThetaElement):
        if fa.zeros is None or fb.zeros is None:
            return True
        o1, o2 = 1.0 / dom.m, dom.tau / dom.m
        gap = min(modular_distance(x, y, o1, o2) for x in fa.zeros for y in fb.zeros)
        return gap > 10 * CELL_GATE

    def ap(fa, fb):
        return theta_mu(fa, fb)

    return TwistedMap("theta_mu", dom, ap, gen)
