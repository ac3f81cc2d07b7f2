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
from .transpositions import MAX_REDRAW, PointDomain, TwistedMap, _act_on_blocks

CELL_GATE = 1e-4
_TAIL_CUT = 40.0
_SINGLE_CS = 64  # single c values whose coefficient window a term table keeps


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
    """One matrix theta space, or with an array c, the stack of spaces of
    one (m, n, tau) at those c values (which are then neither hashed nor
    compared)."""

    tau: complex
    m: int
    n: int
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "tau", complex(self.tau))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.complex128) if np.ndim(self.c) else complex(self.c))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))
        im_c = abs(self.c.imag) if isinstance(self.c, complex) else np.abs(self.c.imag).max(initial=0.0)
        if not (cmath.isfinite(self.tau) and np.isfinite(self.c).all()):
            raise InputInvalid("tau and c must be finite")
        if self.tau.imag < 0.3:
            raise InputInvalid("Im tau must be at least 0.3 for the series to converge fast")
        if not 1 <= self.m <= 4:
            raise InputInvalid("m outside the supported desk scale 1..4")
        if not 1 <= self.n <= 3:
            raise InputInvalid("n outside the supported desk scale 1..3")
        if im_c > 8.0:
            raise InputInvalid("Im c outside the supported range |Im c| <= 8")

    def at_c(self, c) -> "LatticeParams":
        """These parameters at c values taken from checked ones (rows of a
        stack), so not checked again."""
        out = object.__new__(LatticeParams)
        out.__dict__.update(tau=self.tau, m=self.m, n=self.n, c=c)
        return out

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
    """Closed-form basis of the matrix theta spaces of one (m, n, tau).

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

    c enters the coefficients alone, as the phase exp(-2 pi i j c) on
    term j and the normalizing constant, both in log form (Mumford, Tata
    Lectures on Theta I, ch. I 3: f(z + delta) lies in the space at
    c - m n delta, so c is a translation, written here on the
    coefficients so that points stay where they are).  So one term table
    per (m, n, tau) serves every c, and `mtheta_basis` builds it once.  A
    basis object is that table at params.c, which may be an array: then
    every method runs over that stack of spaces, with one window of j for
    all of them.  `at` gives the table at another c.

    Evaluation moves each point into the strip 0 <= Im z < Im tau / m
    with the tau/m law, and applies that law's factor in log form where
    it alone would overflow.  There the series share one window of j
    that keeps every term above exp(-40) of the largest.  The size of a
    combination at a point of the strip is its largest single term
    (`_envelope`), the scale of interpolation; building a basis
    evaluates nothing.
    """

    def __init__(self, params: LatticeParams):
        p = params
        m, n = p.m, p.n
        a, b, s = (ix.ravel() for ix in np.indices((m, m, n)))
        self.dim = p.L
        self._a = a
        self._k = b + m * s
        self._k0 = b / m + s
        self._half = np.sqrt(_TAIL_CUT / (np.pi * n * p.tau.imag))
        self._mono = _monomials(m, n)
        self._k0tau = self._k0[:, None] * p.tau
        self._a_m = self._a[:, None] / m
        self._windows = {}  # (first j, last j) -> js, their quadratic term, wavenumbers
        self._singles = {}  # single c -> this table at c
        self._set_c(p)

    def at(self, params: LatticeParams) -> "MThetaBasis":
        """The table at the c of params (same m, n and tau).  It keeps its
        coefficients at the last _SINGLE_CS single c values it served."""
        single = not isinstance(params.c, np.ndarray)
        if single and params.c in self._singles:
            return self._singles[params.c]
        if np.shape(params.c) == (1,):  # a stack of one: the table at its single c
            return self.at(params.at_c(complex(params.c[0])))._rows(params, lambda x: x[None])
        view = self._copy()
        view._set_c(params)
        if single:
            if len(self._singles) >= _SINGLE_CS:
                del self._singles[next(iter(self._singles))]
            self._singles[params.c] = view
        return view

    def _rows(self, params: LatticeParams, index) -> "MThetaBasis":
        """The basis of params, whose c are the rows index picks of this
        stack's (index acts on arrays with two trailing axes)."""
        view = self._copy()
        view.params = params
        view.coeffs, view._log_coeffs = index(self.coeffs), index(self._log_coeffs)
        return view

    def _copy(self) -> "MThetaBasis":
        view = object.__new__(MThetaBasis)
        view.__dict__.update(self.__dict__)
        return view

    def _set_c(self, params: LatticeParams) -> None:
        p = params
        m, n, t = p.m, p.n, p.tau.imag
        c = np.asarray(p.c)[..., None]
        # |coefficient j| = exp(-2 pi (n t j^2 / 2 + slope j)), largest at
        # j = -slope / (n t) = (Im c / t + n / 2 - k0) / n; a term of
        # wavenumber k also carries exp(-2 pi k Im z), which moves that
        # peak down by up to one across the strip.  The window covers the
        # peaks of every c in the bands b t <= Im c < (b + 1) t of the
        # stack, so that a c gets the same terms alone as in any stack of
        # its band
        slope = self._k0 * t - c.imag - n * t / 2
        band = np.floor(c.imag / t)
        window = (int(np.floor((band.min() + n / 2 - self._k0.max()) / n - 1 - self._half)),
                  int(np.ceil((band.max() + 1 + n / 2 - self._k0.min()) / n + self._half)))
        if window not in self._windows:
            js = np.arange(window[0], window[1] + 1)
            ks = self._k[:, None] + m * n * js.astype(np.float64)
            self._windows[window] = (js, n * p.tau * js * (js - 1) / 2, ks)
        js, quad, self.ks = self._windows[window]
        expo = js * (self._k0tau - c[..., None] + self._a_m) + quad
        self.params = p
        # log |coefficient|, kept apart so that term sizes never overflow
        self._log_coeffs = -2 * np.pi * expo.imag - np.pi * slope[..., None] ** 2 / (n * t)
        self.coeffs = np.exp(2j * np.pi * expo.real + self._log_coeffs)

    def slots(self):
        """Where each term sits: the monomial a m + b of its element,
        (dim, 1), and its integer wavenumber, (dim, T)."""
        return (np.arange(self.dim) // self.params.n)[:, None], np.rint(self.ks).astype(np.int64)

    @property
    def terms(self) -> int:
        return self.ks.shape[1]

    def series(self, zs) -> np.ndarray:
        """theta_abs at the points zs, one row per element: (..., dim, P).
        A value beyond the double range raises InputInvalid."""
        p = self.params
        step = p.omega2
        zs = np.asarray(zs, dtype=np.complex128)
        if not zs.ndim:
            zs = zs[None]
        q = np.floor(zs.imag / step.imag)
        w = zs - q * step
        th = theta_eval(self.coeffs, self.ks, w)
        if np.count_nonzero(q):
            # q applications of the tau/m law from the strip back to zs
            c = np.asarray(p.c)[..., None]
            lift = self._a_m * q[..., None, :] + (q * (p.m * p.n * w - c + (q - 1) * (p.n * p.tau / 2)))[..., None, :]
            # the law's factor has modulus exp(2 pi Im lift); where that
            # alone would overflow, the product is taken in log form
            logs = 2 * np.pi * lift.imag.max() >= 700
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                th = np.exp(np.log(th) - 2j * np.pi * lift) if logs else th * np.exp(-2j * np.pi * lift)
        if np.count_nonzero(np.isfinite(th)) < th.size:
            raise InputInvalid("theta values exceed the double range: points too far from the cell")
        return th

    def eval_basis(self, zs) -> np.ndarray:
        """Matrix values of every element: (..., dim, P, m, m)."""
        th = self.series(zs)
        m = self.params.m
        return (th[..., None] * self._mono[:, None, :]).reshape(th.shape + (m, m))

    def combine(self, x, th) -> np.ndarray:
        """Matrix values of the combination x, (..., dim), from
        th = series(zs): (..., P, m, m)."""
        th = th * np.asarray(x, dtype=np.complex128)[..., None]
        m = self.params.m
        return (th.swapaxes(-1, -2) @ self._mono).reshape(th.shape[:-2] + (th.shape[-1], m, m))

    def eval(self, x, zs) -> np.ndarray:
        """Matrix values of the combination with coefficients x: (..., P, m, m)."""
        return self.combine(x, self.series(zs))

    def _log_terms(self, ws) -> np.ndarray:
        """log of each element's largest term at the points ws: (..., dim, P)."""
        height = 2 * np.pi * np.imag(ws)[..., None, None, :]
        return (self._log_coeffs[..., None] - self.ks[..., None] * height).max(axis=-2)

    def _envelope(self, x, terms) -> np.ndarray:
        """Size of the combination x, (..., dim), at points ws of the strip
        from terms = _log_terms(ws), (..., P): sqrt(m) times its largest term."""
        size = np.abs(x)
        if np.count_nonzero(size) == size.size:
            logx = np.log(size)
        else:  # a zero coordinate has no terms
            logx = np.log(size, out=np.full(size.shape, -np.inf), where=size > 0)
        return math.sqrt(self.params.m) * np.exp((logx[..., None] + terms).max(axis=-2))


@lru_cache(maxsize=64)
def _table(m: int, n: int, tau: complex) -> MThetaBasis:
    return MThetaBasis(LatticeParams(tau=tau, m=m, n=n, c=0))


def mtheta_basis(params: LatticeParams) -> MThetaBasis:
    """The basis of the space of params, or of each space of a stack: the
    term table of its (m, n, tau) at its c, kept with params."""
    basis = params.__dict__.get("_basis")
    if basis is None:
        basis = _table(params.m, params.n, params.tau).at(params)
        object.__setattr__(params, "_basis", basis)
    return basis


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
        """det f at zs.  A value beyond the double range raises InputInvalid."""
        with np.errstate(over="ignore", invalid="ignore"):
            det = small_det(self.eval(zs))
        if np.count_nonzero(np.isfinite(det)) < det.size:
            raise InputInvalid("det f exceeds the double range: points too far from the cell")
        return det

    def normalized(self) -> "ThetaElement":
        x, zero = _normalized(self.coeffs[None])
        if zero[0]:
            raise InputInvalid("cannot normalize the zero element")
        return ThetaElement(self.params, x[0], self.zeros)

    def with_zeros(self, zeros) -> "ThetaElement":
        return replace(self, zeros=None if zeros is None else tuple(zeros))


def _normalized(x):
    """Each coordinate vector of x, (K, dim), divided by its entry of
    largest modulus, and where that entry is zero (there x is left)."""
    piv = x[np.arange(len(x)), np.abs(x).argmax(axis=-1)]
    zero = piv == 0
    if np.count_nonzero(zero):
        piv = np.where(zero, 1, piv)
    return x / piv[:, None], zero


def random_element(params: LatticeParams, rng) -> ThetaElement:
    x = rng.standard_normal(params.L) + 1j * rng.standard_normal(params.L)
    return ThetaElement(params, x).normalized()


def _carry_basis(src: LatticeParams, dst: LatticeParams, index) -> LatticeParams:
    """dst, whose c are rows of src's, with the rows of src's basis if it
    has one (see `MThetaBasis._rows`)."""
    basis = src.__dict__.get("_basis")
    if basis is not None:
        object.__setattr__(dst, "_basis", basis._rows(dst, index))
    return dst


@dataclass(frozen=True, eq=False)
class ThetaStack:
    """Elements of the spaces of one (m, n, tau) along leading axes: row i
    has c params.c[i], coordinates coeffs[i] and zeros zeros[i] (None if
    unknown).  A row with ok False is a gated-out placeholder; why, if set,
    holds the error of each failed row."""

    params: LatticeParams
    coeffs: np.ndarray
    zeros: np.ndarray | None
    ok: np.ndarray
    why: np.ndarray | None = None

    @classmethod
    def of(cls, elements) -> "ThetaStack":
        first = elements[0].params
        params = first.at_c(np.array([e.params.c for e in elements]))
        if len(elements) == 1:
            _carry_basis(first, params, lambda x: x[None])
        zeros = None if any(e.zeros is None for e in elements) else np.array([e.zeros for e in elements], dtype=complex)
        coeffs = np.array([e.coeffs for e in elements], dtype=np.complex128)
        return cls(params, coeffs, zeros, np.ones(len(elements), dtype=bool))

    @classmethod
    def concat(cls, stacks) -> "ThetaStack":
        """The rows of stacks, one stack's after another's."""
        join = lambda xs: np.concatenate(xs)  # noqa: E731
        params = stacks[0].params.at_c(join([x.params.c for x in stacks]))
        bases = [x.params.__dict__.get("_basis") for x in stacks]
        if all(b is not None and b.ks is bases[0].ks for b in bases):
            view = bases[0]._copy()
            view.params = params
            view.coeffs, view._log_coeffs = join([b.coeffs for b in bases]), join([b._log_coeffs for b in bases])
            object.__setattr__(params, "_basis", view)
        whys = [x.why for x in stacks]
        why = None
        if any(w is not None for w in whys):
            why = join([np.full(len(x.ok), None, dtype=object) if w is None else w for x, w in zip(stacks, whys)])
        zeros = None if any(x.zeros is None for x in stacks) else join([x.zeros for x in stacks])
        return cls(params, join([x.coeffs for x in stacks]), zeros, join([x.ok for x in stacks]), why)

    @property
    def shape(self) -> tuple:
        return self.params.c.shape

    def __len__(self) -> int:
        return len(self.params.c)

    def _rows(self, pick) -> "ThetaStack":
        """The rows pick(x, tail) takes of each array x with tail trailing axes."""
        p = self.params
        return ThetaStack(
            _carry_basis(p, p.at_c(pick(p.c, 0)), lambda x: pick(x, 2)),
            pick(self.coeffs, 1),
            None if self.zeros is None else pick(self.zeros, 1),
            pick(self.ok, 0),
            None if self.why is None else pick(self.why, 0),
        )

    def __getitem__(self, key) -> "ThetaStack":
        return self._rows(lambda x, tail: x[key])

    def reshape(self, shape) -> "ThetaStack":
        shape = tuple(shape)
        return self._rows(lambda x, tail: x.reshape(shape + x.shape[x.ndim - tail :]))

    def basis(self) -> MThetaBasis:
        return mtheta_basis(self.params)

    def element(self, i) -> ThetaElement:
        p = self.params
        zeros = None if self.zeros is None else tuple(self.zeros[i].tolist())
        return ThetaElement(p.at_c(complex(p.c[i])), self.coeffs[i], zeros)


def _one(stack: ThetaStack) -> ThetaElement:
    """The element of a stack of one, or the error that gated it out."""
    if not stack.ok[0]:
        raise stack.why[0]
    return stack.element(0)


def _pick(mask, a: ThetaStack, b: ThetaStack) -> ThetaStack:
    """Rows of a where mask holds and of b elsewhere, ok where mask holds."""
    if np.count_nonzero(mask) == mask.size:
        return a
    col = mask[:, None]
    return ThetaStack(
        a.params.at_c(np.where(mask, a.params.c, b.params.c)),
        np.where(col, a.coeffs, b.coeffs),
        np.where(col, a.zeros, b.zeros),
        mask,
    )


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


def _lattice_distances(w: np.ndarray, o1: float, o2: complex) -> np.ndarray:
    """lattice_distance over an array, for a real o1 (every lattice of the
    theta layer has one), from the same nine lattice points: the form of
    every gate of the layer."""
    y = w.imag / o2.imag
    x = (w.real - y * o2.real) / o1
    r = (x - np.rint(x)) * o1 + (y - np.rint(y)) * o2
    return np.abs(r[..., None] + _neighbours(o1, o2)).min(axis=-1)


@lru_cache(maxsize=64)
def _neighbours(o1: float, o2: complex) -> np.ndarray:
    """The steps i o1 + j o2, i and j in {-1, 0, 1}; read-only."""
    out = (np.arange(-1, 2)[:, None] * o1 + np.arange(-1, 2) * o2).ravel()
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _pairs(count: int, block: int = 1):
    """The pairs i < j of count points, and which pairs join the first two
    blocks when the points come in blocks of `block`."""
    i, j = np.triu_indices(count, 1)
    return i, j, (i < block) & (j >= block) & (j < 2 * block)


def _row_sum(points) -> np.ndarray:
    """Sum over the last axis, left to right as Python's sum adds."""
    points = np.asarray(points, dtype=np.complex128)
    total = points[..., 0]
    for k in range(1, points.shape[-1]):
        total = total + points[..., k]
    return total


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
    p = params
    return float(_sum_residuals(np.asarray(points, dtype=np.complex128), p.c, p.m, p.n, p.tau))


def _sum_residuals(points: np.ndarray, c, m: int, n: int, tau: complex) -> np.ndarray:
    """`zero_sum_residual` of each row of points, (..., N), at its c."""
    w = m * _row_sum(points)
    target = m * c + m * n / 2.0
    return _lattice_distances(w - target, 1.0, tau)


# ---------------------------------------------------------------------------
# determinant zeros


@dataclass(frozen=True)
class ZeroSet:
    points: tuple
    sum_residual: float
    strip_counts: tuple  # zeros between neighbouring kept lines
    winding_gap: float  # worst kept line's winding number off integers
    newton_steps: int  # batched Newton iterations


_NEWTON_CAP = 8
# (lines per zero, irrational first offset in spacings): try, retry
_LINE_TRIES = ((2, (5**0.5 - 1) / 2), (3, 2**0.5 - 1))


def _slope_rows(f: ThetaElement):
    """Series rows of f and f', (2, dim, T), and their wavenumbers."""
    basis = f.basis()
    rows = basis.coeffs * f.coeffs[:, None]
    return np.stack([rows, rows * (2j * np.pi * basis.ks)]), basis.ks


def _det_slope(f: ThetaElement, th: np.ndarray):
    """det f and its derivative from the `_slope_rows` series th, (2, dim, N),
    by Jacobi's formula: the sum over i of det f with row i from f'."""
    m = f.params.m
    val, der = (th.swapaxes(1, 2) @ f.basis()._mono).reshape(2, -1, m, m)
    dets = np.repeat(val[None], m + 1, axis=0)
    dets[np.arange(1, m + 1), :, np.arange(m)] = der.swapaxes(0, 1)
    dets = small_det(dets)
    return dets[0], dets[1:].sum(axis=0)


def _newton(f: ThetaElement, zs: np.ndarray):
    """Newton on det f from all starts at once, each step from the cell; a
    start retires when its step is below 1e-12 (converged), above the cell
    or not finite.  Returns the converged roots, their slopes and the steps."""
    o1, o2 = f.params.omega1, f.params.omega2
    rows, ks = _slope_rows(f)
    z = np.array(zs, dtype=np.complex128)
    slopes = np.zeros_like(z)
    active = np.arange(len(z))
    converged = np.zeros(len(z), dtype=bool)
    steps = 0
    while active.size and steps < _NEWTON_CAP:
        steps += 1
        za = reduce_to_cell(z[active], o1, o2)
        det, slopes[active] = _det_slope(f, theta_eval(rows, ks, za))
        with np.errstate(divide="ignore", invalid="ignore"):
            dz = det / slopes[active]
        z[active] = za - dz
        size = np.abs(dz)
        converged[active[size < 1e-12]] = True
        # a non-finite step fails both comparisons
        active = active[(size >= 1e-12) & (size <= o1 + abs(o2))]
    return reduce_to_cell(z[converged], o1, o2), slopes[converged], steps


@lru_cache(maxsize=None)
def _moment_table(m: int, points: int, count: int) -> np.ndarray:
    """zeta^q / (2 pi i m points) at x = k / (m points), (points, count)."""
    out = np.exp(2j * np.pi / points * np.outer(np.arange(points), np.arange(count))) / (2j * np.pi * m * points)
    out.flags.writeable = False
    return out


def _strip_starts(p: LatticeParams, heights: np.ndarray, moments: np.ndarray):
    """Starts, strip counts and worst kept line's gap from moments[j, q] =
    F_q(heights[j]) = (1 / 2 pi i) int_0^{1/m} zeta^q (det f)'/det f dx / |zeta|^q."""
    m, mn = p.m, p.m * p.n
    gap = np.abs(moments[:, 0] - np.rint(moments[:, 0].real))
    keep = np.flatnonzero(gap <= 1e-6)
    if not keep.size:
        return np.zeros(0, complex), (), float(gap.min())
    # z -> z + tau/m: zeta gains exp(2 pi i tau), (det f)'/det f loses 2 pi i m^2 n
    lines = np.concatenate([moments[keep], moments[keep[:1]] * np.exp(2j * np.pi * p.tau.real * np.arange(2 * mn))])
    lines[-1, 0] -= mn
    ys = np.append(heights[keep], heights[keep[0]] + p.omega2.imag)
    counts = -np.diff(np.rint(lines[:, 0].real).astype(int))
    starts = [np.zeros(0, complex)]
    for k in sorted(set(counts.tolist()) - {0}) if counts.min() >= 0 else ():
        i = np.flatnonzero(counts == k)
        # power sums of w = zeta exp(2 pi m mid) over a strip of middle
        # height mid: its bottom line's F_q less its top's
        e = (np.pi * m * (ys[i + 1] - ys[i]))[:, None] * np.arange(2 * k)
        s = np.exp(e) * lines[i, : 2 * k] - np.exp(-e) * lines[i + 1, : 2 * k]
        if k == 1:
            w = s[:, 1:] / s[:, :1]
        else:  # the Hankel pencil's eigenvalues
            hankel = np.add.outer(np.arange(k), np.arange(k))
            w = np.linalg.eigvals(np.linalg.solve(s[:, hankel], s[:, hankel + 1]))
        starts.append((np.log(w) / (2j * np.pi * m) + 0.5j * (ys[i] + ys[i + 1])[:, None]).ravel())
    return np.concatenate(starts), tuple(counts.tolist()), float(gap[keep].max())


def det_zeros(f: ThetaElement, tol: float = 1e-6) -> ZeroSet:
    """The m n determinant zeros in the cell, in lattice-coordinate order,
    by the argument principle on lines of the strip, where det f is
    1/m-periodic and zeta = exp(2 pi i m z) (Delves and Lyness 1967; see
    README).  Lines off an integer winding number by over 1e-6, or through
    a zero or a non-finite value of det f, are dropped.
    m n roots with |det f| below 1e-9 cells of its slope, CELL_GATE apart
    and meeting the sum rule are accepted; else 3 m n lines are tried."""
    p = f.params
    m, mn, o1, o2 = p.m, p.m * p.n, p.omega1, p.omega2
    rows, ks = _slope_rows(f)
    steps = 0
    for per_zero, offset in _LINE_TRIES:
        count = per_zero * mn
        points = max(16, 1 << math.ceil(math.log2(8 * count / p.tau.imag)))
        heights = (np.arange(count) + offset) * (o2.imag / count)
        th = theta_eval_grid(rows, ks, 1j * heights, np.arange(points) / (m * points) + 0j)
        det, slope = _det_slope(f, th.reshape(2, len(ks), -1))
        ok = np.isfinite(det) & (det != 0) & np.isfinite(slope)
        ratio = np.where(ok, slope, np.nan) / np.where(ok, det, 1)
        moments = ratio.reshape(count, points) @ _moment_table(m, points, 2 * mn)
        starts, counts, gap = _strip_starts(p, heights, moments)
        roots, slopes, taken = _newton(f, starts)
        steps += taken
        roots = roots[np.abs(f.det(roots)) <= 1e-9 * o1 * np.abs(slopes)]
        i, j, _ = _pairs(len(roots))
        distinct = (_lattice_distances(roots[i] - roots[j], o1, o2) > CELL_GATE).all()
        if len(roots) == mn and distinct:
            sr = zero_sum_residual(roots, p)
            if sr <= tol:
                break
    else:
        if len(roots) == mn and distinct:
            raise SumRuleViolated(f"zero sum misses the lattice congruence by {sr:.2e}")
        raise ZeroCountMismatch(f"found {len(roots)} {'' if distinct else 'non-distinct '}determinant zeros, expected {mn}")
    x, y = _lattice_solve(roots, o1, o2)
    roots = roots[np.lexsort((y, x))]
    return ZeroSet(tuple(roots.tolist()), sr, counts, gap, steps)


# ---------------------------------------------------------------------------
# interpolation


def _kernel_vectors(mat: np.ndarray, m: int):
    """Unit right kernel vectors of a stack of m x m matrices, (..., m),
    and where each matrix has a one-dimensional kernel at 1e-5 of its
    largest singular value, (...)."""
    if m == 1:
        return np.ones(mat.shape[:-1], dtype=np.complex128), np.ones(mat.shape[:-2], dtype=bool)
    _, sv, vh = np.linalg.svd(mat)
    cut = 1e-5 * sv[..., 0]
    return vh[..., -1, :].conj(), (sv[..., -1] <= cut) & (sv[..., -2] > cut)


def _kernel_vector(mat: np.ndarray, m: int) -> np.ndarray:
    if m == 1:
        return np.ones(np.shape(mat)[:-1], dtype=np.complex128)
    try:
        return nullspace_vector(mat, tol=1e-5)
    except RankUnexpected as exc:
        raise NonGeneric("matrix value has no one-dimensional kernel") from exc


def _gate(why: dict, mask, error, live=None) -> None:
    """Record error(r) for each row r in mask (and in live, where given)
    that has no error yet."""
    if np.count_nonzero(mask):
        for r in np.flatnonzero(mask if live is None else mask & live).tolist():
            if r not in why:
                why[r] = error(r)


def interpolate(params: LatticeParams, points, vectors):
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
    basis envelope there (`MThetaBasis._envelope` with every coordinate
    1), which keeps them comparable across the cell at any Im c.

    With an array c in params, this interpolates a stack: points (K, m n)
    and vectors (K, m n, m) give a ThetaStack, one element per c, in one
    pass; a row that fails a gate has ok False and its error in why.  One
    element is a stack of one, whose error is raised.
    """
    p = params
    m, n = p.m, p.n
    count = m * n
    if np.ndim(p.c):
        pts = np.asarray(points, dtype=np.complex128)
        vecs = np.asarray(vectors, dtype=np.complex128)
        if pts.shape != p.c.shape + (count,) or vecs.shape != pts.shape + (m,):
            raise PartitionInvalid(f"need {count} points and as many vectors of {m} entries per row")
        stack = p
    else:
        points = [complex(z) for z in points]
        vectors = [np.asarray(v, dtype=np.complex128).ravel() for v in vectors]
        if len(points) != count or len(vectors) != len(points):
            raise PartitionInvalid(f"need {count} points and as many vectors")
        if any(v.shape != (m,) for v in vectors):
            raise PartitionInvalid(f"kernel vectors must have {m} entries")
        pts, vecs = np.array([points]), np.array([vectors])
        stack = _carry_basis(p, p.at_c(np.array([p.c])), lambda x: x[None])
    why: dict = {}
    us = _unit_vectors(vecs, why)
    finite = np.isfinite(pts).all(axis=-1)
    if np.count_nonzero(finite) < finite.size:
        _gate(why, ~finite, lambda r: PartitionInvalid("prescribed points must be finite"))
        pts = np.where(finite[:, None], pts, 0)
    sr = _sum_residuals(pts, stack.c, m, n, p.tau)
    _gate(why, sr > 1e-6, lambda r: SumRuleViolated(f"prescribed zeros miss the sum congruence by {sr[r]:.2e}"))
    coeffs = _interpolate(stack, pts, us, why)
    if np.ndim(p.c):
        return ThetaStack(stack, coeffs, pts, *_outcome(np.ones(len(pts), dtype=bool), why))
    if why:
        raise why[0]
    return ThetaElement(p, coeffs[0], zeros=tuple(points))


def _unit_vectors(vecs: np.ndarray, why: dict) -> np.ndarray:
    """vecs, (K, N, m), each divided by its norm; a row with a vector
    that is zero or not finite fails, and its vectors become finite
    placeholders."""
    size = np.abs(vecs)
    norms = np.sqrt(np.einsum("...i,...i->...", size, size))
    # a NaN or infinite entry gives a NaN or infinite norm
    if not (norms.min() > 0 and math.isfinite(norms.sum())):
        bad = ~((0 < norms) & (norms < math.inf)).all(axis=-1)
        _gate(why, bad, lambda r: PartitionInvalid("kernel vectors must be finite and nonzero"))
        vecs, norms = np.where(bad[:, None, None], 1, vecs), np.where(bad[:, None], math.sqrt(vecs.shape[-1]), norms)
    return vecs / norms[..., None]


def _interpolate(p: LatticeParams, pts: np.ndarray, us: np.ndarray, why: dict, th=None) -> np.ndarray:
    """The coordinates `interpolate` finds for a stack, after its argument
    checks: finite points pts, (K, m n), and unit vectors us, (K, m n, m),
    for the spaces of the stacked parameters p.  th, where given, is the
    series of p at pts, read when every point lies in the cell.  Rows
    that fail a gate are added to why."""
    m, n = p.m, p.n
    rows = len(pts)
    basis = mtheta_basis(p)
    o1, o2 = p.omega1, p.omega2
    y = pts.imag / o2.imag
    s, q = np.floor((pts.real - y * o2.real) / o1), np.floor(y)
    ws = pts
    if np.count_nonzero(s) or np.count_nonzero(q):
        ws, th = pts - s * o1 - q * o2, None
        # M is unitary, so M v keeps |v| = 1
        mono = basis._mono[((s % m) * m + q % m).astype(np.int64) * n].reshape(pts.shape + (m, m))
        us = (mono @ us[..., None])[..., 0]
    if th is None:
        th = basis.series(ws)
    beval = (th[..., None] * basis._mono[:, None, :]).reshape(th.shape + (m, m))
    # each basis element's largest log term at each point: the rows take
    # the largest, the residual the envelope of the solution
    terms = basis._log_terms(ws)
    scale = math.sqrt(m) * np.exp(terms.max(axis=-2))
    system = np.einsum("kdpij,kpj->kpid", beval, us) / scale[..., None, None]
    _, sv, vh = np.linalg.svd(system.reshape(rows, -1, basis.dim))
    cut = 1e-8 * np.maximum(sv[:, 0], 1.0)
    flat = sv[:, -1] <= cut
    if basis.dim > 1:
        flat &= sv[:, -2] > cut
    _gate(why, ~flat, lambda r: NullityMismatch(f"interpolation nullity {np.sum(sv[r] <= cut[r])}, expected 1"))
    coeffs, _ = _normalized(vh[:, -1].conj())
    vals = np.einsum("kd,kdpij,kpj->kpi", coeffs, beval, us)
    worst = (np.linalg.norm(vals, axis=-1) / basis._envelope(coeffs, terms)).max(axis=-1)
    _gate(why, ~(worst <= 1e-7), lambda r: ResidualTooLarge(f"interpolation residual {worst[r]:.2e} above 1e-07"))
    return coeffs


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
    """Relative residual of ref against the best multiple of x."""
    return float(_projective_residuals(np.ravel(x)[None], np.ravel(ref)[None])[0])


def _projective_residuals(x, ref) -> np.ndarray:
    """Relative residual of each row of ref, (K, N), against the best
    multiple of the same row of x.  Each row is taken in units of its
    largest entry, so that the norms do not overflow where the values are
    large; the multiple absorbs the units.  A row that vanishes or is not
    finite gives inf."""
    ux, ur = np.abs(x).max(axis=-1), np.abs(ref).max(axis=-1)
    good = None
    lo, hi = min(ux.min(), ur.min()), max(ux.max(), ur.max())
    if not (lo > 0 and hi < math.inf):
        good = (0 < ux) & (0 < ur) & np.isfinite(ux + ur)
        ux, ur = np.where(good, ux, 1), np.where(good, ur, 1)
        x, ref = np.where(good[:, None], x, 1), np.where(good[:, None], ref, 1)
    if good is not None or lo < 1e-100 or hi > 1e100:  # the squares below stay in range
        x, ref = x / ux[:, None], ref / ur[:, None]
    xc = x.conj()
    d = (np.einsum("ki,ki->k", xc, ref) / np.einsum("ki,ki->k", xc, x).real)[:, None] * x - ref
    rel = np.sqrt(np.einsum("ki,ki->k", d.conj(), d).real / np.einsum("ki,ki->k", ref.conj(), ref).real)
    return rel if good is None else np.where(good, rel, math.inf)


@lru_cache(maxsize=64)
def _residual_points(tau: complex) -> np.ndarray:
    """The 20 points that certify a factorization: the four probes, five
    times, spaced by 0.017.  Read-only."""
    out = np.tile(_probes(tau), 5) + 0.017 * np.arange(20)
    out.flags.writeable = False
    return out


def _check_degree_one(p: LatticeParams, q: LatticeParams) -> None:
    if p.n != 1 or q.n != 1:
        raise PartitionInvalid("theta transposition acts on degree-1 elements")
    if p.m != q.m or p.tau != q.tau:
        raise PartitionInvalid("operands must share m and tau")


def theta_mu(f: ThetaElement, g: ThetaElement, tol: float = 1e-6):
    """Exchange transposition on degree-1 elements.

    Returns (f1, g1) with f g = f1 g1 pointwise up to normalization
    scalars, the zero sets exchanged, and the c parameters exchanged
    along with them: the factorization of f g with the zero blocks
    [S(g), S(f)] and the c split [c_g, c_f], as in `factorize_theta`.
    f g is read only through the values of f and g; its coefficients
    and its degree-2 space are never formed.  One pair is a stack of one
    of the exchange that `theta_map` runs over stacks of pairs.
    """
    _check_degree_one(f.params, g.params)
    fs, gs = ThetaStack.of([_ensure_zeros(f)]), ThetaStack.of([_ensure_zeros(g)])
    blocks, cs = [gs.zeros, fs.zeros], [gs.params, fs.params]
    f1, g1 = _factor_rows([fs, gs], blocks, cs, tol, fs.ok, lambda gap: gap < CELL_GATE)
    return _one(f1), _one(g1)


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
    """`factorize_theta` of the ordered product of elements: `_factor_rows`
    on stacks of one."""
    first = elements[0].params
    m, tau = first.m, first.tau
    if any(e.params.m != m or e.params.tau != tau for e in elements):
        raise PartitionInvalid("product factors must share m and tau")
    n = sum(e.params.n for e in elements)
    blocks = [[complex(z) for z in block] for block in partition]
    cs = [complex(x) for x in csplit]
    if len(blocks) != n or len(cs) != n:
        raise PartitionInvalid(f"need {n} blocks and {n} c values")
    if any(len(b) != m for b in blocks):
        raise PartitionInvalid(f"every block must have size {m}")
    if not all(cmath.isfinite(z) for b in blocks for z in b):
        raise PartitionInvalid("partition points must be finite")
    params = [LatticeParams(tau=tau, m=m, n=1, c=np.array([x])) for x in cs]
    stacks = [ThetaStack.of([e]) for e in elements]
    factors = _factor_rows(stacks, [np.array([b]) for b in blocks], params, tol, stacks[0].ok)
    return [_one(fk) for fk in factors]


def _factor_rows(elements, blocks, cs, tol: float, live, close=None) -> list[ThetaStack]:
    """`factorize_theta` of the products of the rows of the stacks
    elements, (K,): row r with finite zero blocks blocks[k][r], (K, m)
    each, and c split cs[k].c[r], cs[k] the parameters of a degree-1
    stack (whose space factor k then is).  Returns one stack per factor,
    f_0 first.

    Rows outside live come back as placeholders, ok False with no error.
    With close, a row whose first two blocks come within a gap where
    close(gap) holds fails with SpectraOverlap first.  A live row that
    fails a check gets the error that check raises for one element, the
    first it meets.  Each distinct space has one `series` call, at the
    block and the 20 certificate points, which the interpolations read."""
    first = elements[0].params
    m, tau = first.m, first.tau
    o1, o2 = first.omega1, first.omega2
    n, rows = len(blocks), len(live)
    nb = n * m
    why: dict = {}
    gate = lambda mask, error: _gate(why, mask, error, live)  # noqa: E731
    c = sum(e.params.c for e in elements)
    params = list(cs)
    split = np.array([ck.c for ck in cs]).T
    flat = np.concatenate(blocks, axis=-1)
    # the pairs of points and, at 1/m scale, the blocks' sum rules, in one call
    i, j, cross = _pairs(nb, m)
    rule = _row_sum(flat.reshape(rows, n, m)) - split - 0.5
    dist = _lattice_distances(np.concatenate([flat[:, i] - flat[:, j], rule], axis=-1), o1, o2)
    pairs, sr = dist[:, : len(i)], m * dist[:, len(i) :]
    if close is not None:
        gap = pairs[:, cross].min(axis=-1)
        gate(close(gap), lambda r: SpectraOverlap(f"zero sets collide modulo the cell (gap {gap[r]:.2e})"))
    if len(i):
        gate(pairs.min(axis=-1) < CELL_GATE,
             lambda r: PartitionInvalid("partition blocks are not disjoint modulo the cell"))
    off = np.abs(_row_sum(split) - c)
    if off.max() > 1e-8:
        gate(off > 1e-8 * np.maximum(1.0, np.abs(c)),
             lambda r: PartitionInvalid("c split does not sum to the c of the element"))
    bad = sr > 1e-6
    if np.count_nonzero(bad):
        for k in range(n):
            gate(bad[:, k], lambda r, k=k: SumRuleViolated(f"block sum misses its c congruence by {sr[r, k]:.2e}"))
    blocks = [flat[:, k * m : (k + 1) * m] for k in range(n)]
    if n == 1:
        x, zero = _normalized(elements[0].coeffs)
        gate(zero, lambda r: InputInvalid("cannot normalize the zero element"))
        return [ThetaStack(elements[0].params, x, blocks[0], *_outcome(live, why))]
    coeffs = [np.zeros((rows, m * m), dtype=np.complex128) for _ in range(n)]
    if not why and np.count_nonzero(live) == rows:  # every row is factored: no row is copied
        at = slice(None)
    else:
        factored = live.copy()
        factored[list(why)] = False
        at = np.flatnonzero(factored)
        if not at.size:
            return [ThetaStack(pk, x, b, *_outcome(live, why)) for pk, x, b in zip(params, coeffs, blocks)]
    rows_of = np.arange(rows)[at]
    zs = np.empty((len(rows_of), nb + 20), dtype=np.complex128)
    zs[:, :nb], zs[:, nb:] = flat[at], _residual_points(tau)
    spaces = []  # (parameters given, the same at the rows factored, series there)

    def space(p: LatticeParams):
        """The parameters of p at the rows factored and their series, one
        `series` call per distinct space."""
        for given, local, th in spaces:
            if p is given or p is local:
                return local, th
        pc = p.c[at]
        for given, local, th in spaces:
            if local.n == p.n and local.c.tobytes() == pc.tobytes():
                return local, th
        local = p if isinstance(at, slice) else _carry_basis(p, p.at_c(pc), lambda x: x[at])
        spaces.append((p, local, mtheta_basis(local).series(zs)))
        return spaces[-1][1:]

    for p in [e.params for e in elements] + params:
        space(p)

    def values(p: LatticeParams, x):
        local, th = space(p)
        return mtheta_basis(local).combine(x, th)

    prod = values(elements[0].params, elements[0].coeffs[at])
    for e in elements[1:]:
        prod = prod @ values(e.params, e.coeffs[at])
    failed: dict = {}  # errors by row of the rows factored
    finite = np.isfinite(prod).all(axis=(1, 2, 3))
    if np.count_nonzero(finite) < finite.size:
        _gate(failed, ~finite, lambda r: InputInvalid("product values exceed the double range"))
        prod = np.where(finite[:, None, None, None], prod, 0)
    vs, kernel_ok = _kernel_vectors(prod[:, :nb], m)
    if m > 1:
        _gate(failed, ~kernel_ok.all(axis=-1), lambda r: NonGeneric("matrix value has no one-dimensional kernel"))
    acc = None
    for k in range(n - 1, -1, -1):
        local = space(params[k])[0]
        us = vs[:, k * m : (k + 1) * m]
        if k < n - 1:  # carried through the factors peeled; the kernel vectors are unit
            us = _unit_vectors(us, failed)
        fk = _interpolate(local, blocks[k][at], us, failed, space(local)[1][..., k * m : (k + 1) * m])
        if isinstance(at, slice):
            coeffs[k], params[k] = fk, local
        else:
            coeffs[k][at] = fk
        vals = values(local, fk)
        # f_k acts on the blocks before it, after the factors peeled already
        vs[:, : k * m] = (vals[:, : k * m] @ vs[:, : k * m, :, None])[..., 0]
        acc = vals[:, nb:] if acc is None else vals[:, nb:] @ acc
    rel = _projective_residuals(acc.reshape(len(acc), -1), prod[:, nb:].reshape(len(acc), -1))
    _gate(failed, ~(rel <= tol), lambda r: ResidualTooLarge(f"factor product misses the element by {rel[r]:.2e}"))
    for r, error in failed.items():
        why[int(rows_of[r])] = error
    outcome = _outcome(live, why)
    return [ThetaStack(pk, x, b, *outcome) for pk, x, b in zip(params, coeffs, blocks)]


def _outcome(live, why: dict):
    """ok and why of a stack whose rows outside live are placeholders and
    whose rows in why failed with those errors."""
    ok = live.copy()
    if not why:
        return ok, None
    errors = np.full(len(live), None, dtype=object)
    for r, error in why.items():
        errors[r] = error
        ok[r] = False
    return ok, errors


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
        # complex entries per point of a stacked trial: the series of its
        # space at the 2 m block and 20 certificate points, with the
        # kernel's work arrays (at m = 1 to 4 a full block of involution or
        # braid trials peaked at 0.3 to 0.65 of the bytes this allows)
        self.entries = 2 * self.m**2 * (2 * self.m + 20) + 32

    def _draw(self, rng):
        """One element's zero points, drawn again while two lie within
        50 CELL_GATE modulo the cell, then its kernel vectors."""
        m, tau = self.m, self.tau
        for _ in range(MAX_REDRAW):
            zs = [complex(rng.random() / m + rng.random() * tau / m) for _ in range(m)]
            if m == 1:
                return zs, [np.ones(1, dtype=np.complex128)]
            i, j, _ = _pairs(m)
            pts = np.array(zs)
            if _lattice_distances(pts[i] - pts[j], 1.0 / m, tau / m).min() > 50 * CELL_GATE:
                return zs, [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(m)]
        raise NonGeneric(f"degree-1 theta element: no separated zeros after {MAX_REDRAW} draws")

    def sample(self, rng, size: int | None = None):
        """One element, or a ThetaStack of `size` elements drawn as `size`
        single draws are, interpolated in one call.  A single draw draws
        again an element that fails to interpolate, up to MAX_REDRAW times;
        in a stack that row is gated out."""
        m, tau = self.m, self.tau
        if size is None:
            for _ in range(MAX_REDRAW):
                zs, vs = self._draw(rng)
                try:
                    return interpolate(LatticeParams(tau=tau, m=m, n=1, c=sum(zs) - 0.5), zs, vs)
                except (NullityMismatch, ResidualTooLarge):
                    continue
            raise NonGeneric(f"degree-1 theta element: no generic sample after {MAX_REDRAW} draws")
        zeros, vectors = zip(*[self._draw(rng) for _ in range(size)])
        zeros = np.array(zeros, dtype=np.complex128)
        params = LatticeParams(tau=tau, m=m, n=1, c=_row_sum(zeros) - 0.5)
        return interpolate(params, zeros, np.array(vectors, dtype=np.complex128))

    def distance(self, a: ThetaElement, b: ThetaElement) -> float:
        return float(self.distances(ThetaStack.of([a]), ThetaStack.of([b]))[0])

    def distances(self, xs: ThetaStack, ys: ThetaStack) -> np.ndarray:
        """Projective distance row by row, as a direct residual (the
        1 - cos^2 form cannot resolve anything below sqrt(eps)): of the
        coordinates where the two rows share a space, else of the values
        at the four probes."""
        same = (xs.params.n == ys.params.n) & (xs.params.c == ys.params.c)
        out = np.empty(same.shape)
        if same.any():
            out[same] = _projective_residuals(ys.coeffs[same], xs.coeffs[same])
        if not same.all():
            a, b = xs[~same], ys[~same]
            zs = _probes(self.tau)
            va, vb = a.basis().eval(a.coeffs, zs), b.basis().eval(b.coeffs, zs)
            out[~same] = _projective_residuals(vb.reshape(len(vb), -1), va.reshape(len(va), -1))
        return out


def theta_map(m: int = 1, tau: complex = 1j) -> TwistedMap:
    """The zero-set exchange on degree-1 matrix theta elements.  Its body
    maps stacks of pairs: a pair whose zero sets come within 10 CELL_GATE
    of each other modulo the cell, or that fails a NonGeneric check of
    the exchange, is gated out; any other error of the exchange is raised
    for the first row that meets it."""
    dom = ThetaDomain(m, tau)

    def too_close(gap):
        return ~(gap > 10 * CELL_GATE)

    def stack(u: ThetaStack, v: ThetaStack):
        _check_degree_one(u.params, v.params)
        f1, g1 = _factor_rows([u, v], [v.zeros, u.zeros], [v.params, u.params], 1e-6, u.ok & v.ok, too_close)
        if f1.why is not None:
            for error in f1.why:
                if error is not None and not isinstance(error, NonGeneric):
                    raise error
        return _pick(f1.ok, f1, u), _pick(f1.ok, g1, v), f1.ok

    def body(u: ThetaElement, v: ThetaElement):
        _check_degree_one(u.params, v.params)
        phi, psi, generic = stack(ThetaStack.of([_ensure_zeros(u)]), ThetaStack.of([_ensure_zeros(v)]))
        return phi.element(0), psi.element(0), bool(generic[0])

    return TwistedMap("theta_mu", dom, _body=body, _stack=stack)
