"""Output checks that do not trust the program's own certificates.

Each check raises CheckFailed with a message naming what went wrong.
The references are coded here: closed forms of the scalar and matrix
maps, the pair exchange rebuilt with scipy's Sylvester solver, a plain
expansion of matrix polynomial products, the Heisenberg pair and the
lattice reduction of the theta laws, and an argument-principle count of
determinant zeros.  Theta elements are compared as evaluated functions
up to one scalar, never through coefficient vectors, because those
depend on how LAPACK orients the SVD that builds the basis.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-7  # matrix identities in the closed-form and matpoly layers
THETA_RTOL = 1e-6  # theta identities, sampled through fitted elements


class CheckFailed(Exception):
    """A program output failed an independent check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b)))


def match_multisets(got, want, tol: float, what: str) -> None:
    """Greedy nearest matching of two lists of complex numbers."""
    got = [complex(x) for x in got]
    want = [complex(x) for x in want]
    require(len(got) == len(want), f"{what}: {len(got)} values, expected {len(want)}")
    left = list(got)
    for w in want:
        d = [abs(x - w) for x in left]
        k = int(np.argmin(d))
        require(d[k] <= tol * max(1.0, abs(w)), f"{what}: {w} unmatched (nearest off by {d[k]:.2e})")
        left.pop(k)


# ---------------------------------------------------------------------------
# verifier reports


def verifier_report(rep, check: str, samples: int, tol: float) -> None:
    require(rep.check == check, f"report is for {rep.check!r}, expected {check!r}")
    require(rep.samples == samples, f"report covers {rep.samples} samples, asked {samples}")
    require(not rep.failures, f"{check}: {len(rep.failures)} failing samples")
    require(0.0 <= rep.max_residual <= tol, f"{check}: residual {rep.max_residual:.2e} above {tol:.0e}")


# ---------------------------------------------------------------------------
# closed-form maps


def q_swap(a, b):
    return lambda u, v: (a * v + b, (u - b) / a)


def scalar_rational(u, v):
    den = 1 - u + u * v
    return den, u * v / den


def matrix_rational(u, v):
    den = np.eye(u.shape[0]) - u + u @ v
    return den, np.linalg.solve(den, u @ v)


def pair_exchange(a1, a2):
    """(b1, b2) = (a1 + L^-1, a2 - L^-1) with a2 L - L a1 = 1, via scipy."""
    from scipy.linalg import solve_sylvester

    lam = solve_sylvester(a2, -a1, np.eye(a1.shape[0]))
    li = np.linalg.inv(lam)
    return a1 + li, a2 - li


def map_output(reference, u, v, got) -> None:
    want = reference(u, v)
    err = max(rel_err(g, w) for g, w in zip(got, want))
    require(err <= RTOL, f"map output differs from the closed form by {err:.2e}")


def pair_swap(a1, a2, b1, b2) -> None:
    """Pair exchange: scipy rebuild, sum, product and swapped spectra."""
    r1, r2 = pair_exchange(a1, a2)
    require(max(rel_err(b1, r1), rel_err(b2, r2)) <= RTOL, "pair exchange differs from the scipy rebuild")
    require(rel_err(b1 + b2, a1 + a2) <= RTOL, "pair exchange changed the sum")
    require(rel_err(b1 @ b2, a1 @ a2) <= RTOL, "pair exchange changed the product")
    match_multisets(np.linalg.eigvals(b1), np.linalg.eigvals(a2), 1e-6, "spectrum of b1")
    match_multisets(np.linalg.eigvals(b2), np.linalg.eigvals(a1), 1e-6, "spectrum of b2")


def word_action(mu, word, points):
    """Apply mu at 1-based adjacent positions, left to right."""
    pts = list(points)
    for i in word:
        pts[i - 1], pts[i] = mu(pts[i - 1], pts[i])
    return pts


def tuple_action(mu, word, points, got) -> None:
    want = word_action(mu, word, points)
    err = max(rel_err(g, w) for g, w in zip(got, want))
    require(len(got) == len(want) and err <= RTOL, f"tuple action differs from the reference by {err:.2e}")


def permutation_operator(word, legs: int, dim: int) -> np.ndarray:
    """Operator that permutes tensor legs as the adjacent swaps of word do."""
    size = dim**legs
    op = np.zeros((size, size))
    for idx in range(size):
        digits = list(np.unravel_index(idx, (dim,) * legs))
        for i in word:
            digits[i - 1], digits[i] = digits[i], digits[i - 1]
        op[np.ravel_multi_index(digits, (dim,) * legs), idx] = 1.0
    return op


def scattering(word, legs: int, dim: int, op, mu, points, got_points) -> None:
    err = rel_err(op, permutation_operator(word, legs, dim))
    require(err <= RTOL, f"scattering operator is not the word's permutation operator ({err:.2e})")
    tuple_action(mu, word, points, got_points)


def block_swap(m: int, mu, u, v, got) -> None:
    """The multiplet exchange equals the block-swap word on the 2m-tuple:
    row r of adjacent swaps m-r+1 .. 2m-r, applied as a plain word."""
    word = [i for r in range(1, m + 1) for i in range(m - r + 1, 2 * m - r + 1)]
    flat = word_action(mu, word, list(u) + list(v))
    err = max(rel_err(got[0], flat[:m]), rel_err(got[1], flat[m:]))
    require(err <= RTOL, f"composed multiplet map differs from the block-swap word by {err:.2e}")


# ---------------------------------------------------------------------------
# matrix polynomials


def expand(factors) -> list:
    """Coefficients (a_1..a_d) of (t - b_1)...(t - b_d) in the sign
    convention p(t) = t^d - a_1 t^{d-1} + a_2 t^{d-2} - ..."""
    m = factors[0].shape[0]
    std = [np.eye(m, dtype=np.complex128)]
    for b in factors:
        std = [std[0]] + [
            (std[k] if k < len(std) else 0) - std[k - 1] @ b for k in range(1, len(std) + 1)
        ]
    return [((-1) ** k) * std[k] for k in range(1, len(std))]


def factorization(coeffs, factors, blocks) -> None:
    """Factors reproduce the polynomial and carry the prescribed blocks."""
    back = expand(factors)
    scale = max(1.0, max(float(np.linalg.norm(a)) for a in coeffs))
    err = max(float(np.linalg.norm(a - b)) for a, b in zip(back, coeffs)) / scale
    require(len(back) == len(coeffs) and err <= RTOL, f"factor product misses the polynomial by {err:.2e}")
    require(len(factors) == len(blocks), "factor count differs from the block count")
    for k, (b, block) in enumerate(zip(factors, blocks)):
        match_multisets(np.linalg.eigvals(b), block, 1e-6, f"spectrum of factor {k}")


def group_law(two, composed, labels_two, labels_composed) -> None:
    """act(s2, act(s1, F)) equals act(s2 s1, F), matrices and labels."""
    err = max(rel_err(a, b) for a, b in zip(two, composed))
    require(err <= 1e-6, f"group law s2.s1 violated by {err:.2e}")
    require(
        [list(s) for s in labels_two] == [list(s) for s in labels_composed],
        "group law s2.s1 moved the labels differently",
    )


# ---------------------------------------------------------------------------
# theta functions


def heisenberg(m: int):
    eps = np.exp(2j * np.pi / m)
    g1 = np.diag(eps ** np.arange(m))
    g2 = np.roll(np.eye(m), 1, axis=1)  # g2[a, a+1] = 1
    return g1, g2


def lattice_residual(w: complex, tau: complex) -> float:
    """Distance of w from the nearest point of the (1, tau) lattice."""
    b = w.imag / tau.imag
    a = w.real - b * tau.real
    best = np.inf
    for da in (0, 1):
        for db in (0, 1):
            na, nb = np.floor(a) + da, np.floor(b) + db
            best = min(best, abs(w - (na + nb * tau)))
    return float(best)


def cell_distance(z: complex, w: complex, m: int, tau: complex) -> float:
    """Distance of z - w from the (1/m, tau/m) lattice."""
    return lattice_residual(m * (complex(z) - complex(w)), tau) / m


class Theta:
    """An evaluated theta function with its claimed parameters."""

    def __init__(self, ev, m: int, n: int, c: complex, tau: complex):
        self.ev, self.m, self.n, self.c, self.tau = ev, m, n, complex(c), complex(tau)

    @classmethod
    def of(cls, elem):
        p = elem.params
        return cls(elem.eval, p.m, p.n, p.c, p.tau)

    def __call__(self, zs) -> np.ndarray:
        return np.asarray(self.ev(np.atleast_1d(np.asarray(zs, dtype=np.complex128))), dtype=np.complex128)


def fresh_points(tau: complex, count: int = 12, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random(count) + rng.random(count) * tau


def theta_laws(f: Theta) -> None:
    """Both quasi-periodicity laws at fresh points, with our own pair."""
    m, n = f.m, f.n
    g1, g2 = heisenberg(m)
    zs = fresh_points(f.tau, 6, 11)
    f0, f1, f2 = f(zs), f(zs + 1.0 / m), f(zs + f.tau / m)
    worst = 0.0
    for k, z in enumerate(zs):
        e2 = np.exp(-2j * np.pi * (m * n * z - f.c))
        r1 = np.linalg.norm(f1[k] - np.linalg.inv(g1) @ f0[k] @ g1)
        r1 /= max(np.linalg.norm(f1[k]), np.linalg.norm(f0[k]), 1e-300)
        r2 = np.linalg.norm(f2[k] - e2 * np.linalg.inv(g2) @ f0[k] @ g2)
        r2 /= max(np.linalg.norm(f2[k]), abs(e2) * np.linalg.norm(f0[k]), 1e-300)
        worst = max(worst, r1, r2)
    require(worst <= THETA_RTOL, f"theta law residual {worst:.2e}")


def ring_scale(f: Theta, z: complex) -> float:
    """Largest norm of f on a small ring around z: the local size of f."""
    ring = z + 0.05 * np.exp(2j * np.pi * np.arange(8) / 8)
    return max(max(np.linalg.norm(v, 2) for v in f(ring)), 1e-300)


def vanishing(f: Theta, z: complex) -> float:
    """Smallest singular value of f(z) relative to the local size of f."""
    return float(np.linalg.svd(f([z])[0], compute_uv=False)[-1] / ring_scale(f, z))


def vanishes_at(f: Theta, points, what: str) -> None:
    for z in points:
        r = vanishing(f, z)
        require(r <= THETA_RTOL, f"{what} does not vanish at {complex(z):.6f} (relative {r:.2e})")


def winding_count(f: Theta, avoid) -> int:
    """Zeros of det f in one cell by the argument principle.

    The contour is the cell boundary, shifted so that it keeps away from
    the points in avoid, and refined until no phase step exceeds pi/4.
    """
    m, tau = f.m, f.tau
    o1, o2 = 1.0 / m, tau / m
    ys = [complex(z).imag / o2.imag for z in avoid]
    xs = [(complex(z).real - y * o2.real) / o1 for z, y in zip(avoid, ys)]

    def best_shift(coords):
        grid = np.arange(20) / 20
        return max(grid, key=lambda s: min((abs((c - s) - round(c - s)) for c in coords), default=1.0))

    z0 = best_shift(xs) * o1 + best_shift(ys) * o2
    corners = [z0, z0 + o1, z0 + o1 + o2, z0 + o2, z0]
    for per_edge in (256, 1024, 4096):
        t = np.arange(per_edge) / per_edge
        path = np.concatenate([a + (b - a) * t for a, b in zip(corners[:-1], corners[1:])] + [[corners[0]]])
        d = np.linalg.det(f(path))
        steps = np.angle(d[1:] / d[:-1])
        if np.max(np.abs(steps)) < np.pi / 4:
            return int(round(float(np.sum(steps)) / (2 * np.pi)))
    raise CheckFailed("argument principle contour could not be resolved")


def det_zeros(f: Theta, zeros, prescribed=None) -> None:
    """Claimed determinant zeros: count, vanishing, sum rule, and, when
    known, the prescribed interpolation points among them."""
    m, n = f.m, f.n
    zeros = [complex(z) for z in zeros]
    require(len(zeros) == m * n, f"{len(zeros)} zeros claimed, expected m n = {m * n}")
    for i in range(len(zeros)):
        for j in range(i + 1, len(zeros)):
            require(cell_distance(zeros[i], zeros[j], m, f.tau) > 1e-5, "claimed zeros coincide modulo the cell")
    count = winding_count(f, zeros)
    require(count == m * n, f"argument principle counts {count} zeros, expected {m * n}")
    vanishes_at(f, zeros, "det f")
    sr = lattice_residual(m * sum(zeros) - (m * f.c + m * n / 2.0), f.tau)
    require(sr <= THETA_RTOL, f"zero sum misses the congruence by {sr:.2e}")
    if prescribed is not None:
        match_zero_sets(zeros, prescribed, m, f.tau, "prescribed zeros")


def interpolation(f: Theta, points, vectors) -> None:
    """f(p_k) v_k = 0 relative to the size of f near p_k, and both laws."""
    theta_laws(f)
    for z, v in zip(points, vectors):
        v = np.asarray(v, dtype=np.complex128) / np.linalg.norm(v)
        r = np.linalg.norm(f([z])[0] @ v) / ring_scale(f, z)
        require(r <= THETA_RTOL, f"interpolant misses its kernel condition at {z:.6f} ({r:.2e})")


def proportional(lhs, rhs, what: str) -> None:
    """Two sampled matrix functions agree up to one scalar."""
    a = np.asarray(lhs).ravel()
    b = np.asarray(rhs).ravel()
    s = np.vdot(a, b) / max(np.vdot(a, a).real, 1e-300)
    err = float(np.linalg.norm(s * a - b) / max(np.linalg.norm(b), 1e-300))
    require(err <= THETA_RTOL, f"{what}: residual {err:.2e} up to a scalar")


def product(factors, zs) -> np.ndarray:
    out = factors[0](zs)
    for f in factors[1:]:
        out = np.matmul(out, f(zs))
    return out


def theta_exchange(f: Theta, g: Theta, f_zeros, g_zeros, f1: Theta, g1: Theta, f1_zeros, g1_zeros) -> None:
    """(f1, g1) = mu(f, g): f g and f1 g1 agree up to a scalar, the zero
    sets and the c parameters are exchanged, both laws hold."""
    zs = fresh_points(f.tau, 12, 5)
    proportional(product([f1, g1], zs), product([f, g], zs), "f1 g1 against f g")
    require(abs(f1.c - g.c) < 1e-12 and abs(g1.c - f.c) < 1e-12, "c parameters were not exchanged")
    match_zero_sets(f1_zeros, g_zeros, f.m, f.tau, "zeros of f1")
    match_zero_sets(g1_zeros, f_zeros, f.m, f.tau, "zeros of g1")
    vanishes_at(f1, g_zeros, "f1")
    vanishes_at(g1, f_zeros, "g1")
    theta_laws(f1)
    theta_laws(g1)


def match_zero_sets(got, want, m: int, tau: complex, what: str) -> None:
    got, want = list(got), list(want)
    require(len(got) == len(want), f"{what}: {len(got)} zeros, expected {len(want)}")
    for w in want:
        d = min(cell_distance(w, z, m, tau) for z in got)
        require(d <= THETA_RTOL, f"{what}: {complex(w):.6f} missing (off by {d:.2e})")


def theta_factorization(h: Theta, factors, blocks, csplit) -> None:
    """Ordered factors reproduce h up to a scalar and vanish on their blocks."""
    require(len(factors) == len(blocks), "factor count differs from the block count")
    zs = fresh_points(h.tau, 12, 3)
    proportional(product(factors, zs), h(zs), "factor product against the element")
    for k, (fk, block, ck) in enumerate(zip(factors, blocks, csplit)):
        require(abs(fk.c - complex(ck)) < 1e-9, f"factor {k} carries c {fk.c}, expected {ck}")
        vanishes_at(fk, block, f"factor {k}")
        theta_laws(fk)


def theta_factors_equal(a, b, what: str) -> None:
    """Two factor tuples agree factor by factor, each up to a scalar."""
    require(len(a) == len(b), f"{what}: tuple lengths differ")
    zs = fresh_points(a[0].tau, 8, 13)
    for k, (x, y) in enumerate(zip(a, b)):
        proportional(x(zs), y(zs), f"{what}, factor {k}")
