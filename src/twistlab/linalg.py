"""Dense complex linear algebra primitives.

Small deterministic building blocks shared by every higher layer:
ordered eigendecompositions, nullity-one kernel vectors, Sylvester
solves in the eigenvector coordinates of the two coefficients, and
companion-matrix polynomial roots.  Matrices are plain complex128 numpy
arrays; tolerances are read relative to the scale of the input, with
genericity gates defaulting to GENERICITY_TOL.  `nullspace_vector` also
takes a stack (..., m, m) and returns one kernel vector per matrix,
(..., m), from one batched SVD, with the same gate on every matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegreeZero,
    NonGeneric,
    RankUnexpected,
    ResidualTooLarge,
    SpectraOverlap,
)

GENERICITY_TOL = 1e-7
EIGVEC_COND = 1e3  # eigenvector-matrix condition of a nearly defective matrix


def as_square_matrix(a, stack: bool = False) -> np.ndarray:
    """a as a finite complex square matrix, or a stack of them if stack."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frobenius(a) -> float:
    """Frobenius norm of an array, from one BLAS dot product."""
    return float(np.sqrt(np.vdot(a, a).real))


def matrix_scale(a) -> float:
    return max(1.0, float(np.linalg.norm(a)))


def canonical_order(values, scale=None) -> np.ndarray:
    """Indices sorting complex values by (Re, Im), with a fuzz band.

    Values whose real parts agree to within 1e-10 * scale count as tied
    and are ordered by imaginary part, so conjugate pairs come out in a
    reproducible order even when rounding perturbs the real parts.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.size == 0:
        return np.array([], dtype=int)
    if scale is None:
        scale = max(1.0, float(np.max(np.abs(values))))
    fuzz = 1e-10 * scale
    order = np.lexsort((values.imag, values.real))
    sv = values[order]
    out: list[int] = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and sv[j + 1].real - sv[j].real < fuzz:
            j += 1
        group = sorted(order[i : j + 1], key=lambda k: (values[k].imag, values[k].real))
        out.extend(group)
        i = j + 1
    return np.array(out, dtype=int)


def sort_canonical(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    return values[canonical_order(values)]


def min_pair_gap(values) -> float:
    values = np.asarray(values).ravel()
    if values.size < 2:
        return np.inf
    d = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """v with each row's largest-magnitude entry made real positive, by a
    scalar division per row, which numpy rounds unlike an array division."""
    v = np.array(v)
    for row in v.reshape(-1, v.shape[-1]):
        piv = row[np.abs(row).argmax()]
        if piv != 0:
            row *= abs(piv) / piv
    return v


def eigen(a, ordered: bool = True, tol: float = GENERICITY_TOL):
    """Eigenvalues in canonical order with matching unit right eigenvectors.

    With ordered=True the spectrum must be simple: a pair of eigenvalues
    closer than tol * scale raises NonGeneric, since a caller asking for
    an ordered spectrum is about to rely on the labels.
    """
    a = as_square_matrix(a)
    w, v = np.linalg.eig(a)
    idx = canonical_order(w)
    w = w[idx]
    v = v[:, idx]
    scale = matrix_scale(a)
    if ordered and min_pair_gap(w) < tol * scale:
        raise NonGeneric(
            f"eigenvalue gap {min_pair_gap(w):.2e} below {tol:.0e} * scale; ordered spectrum unusable"
        )
    for k in range(v.shape[1]):
        col = v[:, k]
        col = col / np.linalg.norm(col)
        v[:, k] = _fix_phase(col)
    resid = float(np.linalg.norm(a @ v - v * w[None, :])) / scale
    if resid > 1e-10:
        raise ResidualTooLarge(f"eigendecomposition residual {resid:.2e} exceeds 1e-10")
    return w, v


def nullspace_vector(a, tol: float = 1e-8, scale: float | None = None) -> np.ndarray:
    """Unit kernel vector of a matrix with numerical nullity one, or one
    per matrix of a stack (..., m, m), each under the same gate.

    The sign convention makes the largest-magnitude entry real positive.
    scale overrides the largest singular value as the rank reference,
    which matters when the whole matrix is small.
    """
    a = as_square_matrix(a, stack=True)
    _, s, vh = np.linalg.svd(a)
    ref = s[..., :1] if scale is None else np.maximum(s[..., :1], float(scale))
    if not ref.all():
        raise RankUnexpected("zero matrix has full nullity")
    nullity = (s <= tol * ref).sum(axis=-1)
    if (nullity != 1).any():
        wrong = next(k for k in np.ravel(nullity) if k != 1)
        raise RankUnexpected(f"nullity {wrong} at tolerance {tol:.0e}, expected 1")
    return _fix_phase(vh[..., -1, :].conj())


def solve_sylvester(a, b, c, tol: float = GENERICITY_TOL) -> np.ndarray:
    """Solve a X - X b = c as X = V_a [(V_a^-1 c V_b) / (d_a,i - d_b,j)] V_b^-1
    from one eig each of a and b.

    Raises SpectraOverlap when the spectra come within tol * scale, or
    when an eigenvector matrix has Frobenius condition above EIGVEC_COND
    (nearly defective: these coordinates lose the certificate's digits).
    """
    a = as_square_matrix(a)
    b = as_square_matrix(b)
    c = as_square_matrix(c)
    m = a.shape[0]
    if b.shape[0] != m or c.shape[0] != m:
        raise ValueError("solve_sylvester needs three matrices of identical size")
    w, v = np.linalg.eig(np.stack((a, b)))
    gaps = w[0][:, None] - w[1][None, :]
    scale = max(1.0, float(np.abs(w).max()))
    if np.abs(gaps).min() < tol * scale:
        raise SpectraOverlap(f"spectra of the coefficients come within {np.abs(gaps).min():.2e}; system singular")
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise SpectraOverlap("a coefficient is defective") from exc
    # eig returns unit columns, so |V|_F = sqrt(m)
    cond = np.sqrt(m) * max(frobenius(v_inv[0]), frobenius(v_inv[1]))
    if not cond <= EIGVEC_COND:
        raise SpectraOverlap(f"eigenvector condition {cond:.2e} above {EIGVEC_COND:.0e}; nearly defective")
    x = v[0] @ ((v_inv[0] @ c @ v[1]) / gaps) @ v_inv[1]
    resid = frobenius(a @ x - x @ b - c)
    bound = 1e-10 * (frobenius(a) + frobenius(b)) * max(frobenius(x), 1e-30)
    if resid > max(bound, 1e-14 * frobenius(c)):
        raise ResidualTooLarge(f"Sylvester residual {resid:.2e} above its certificate")
    return x


def poly_roots(coeffs) -> np.ndarray:
    """Roots of a scalar polynomial given coefficients, leading first.

    Computed as companion-matrix eigenvalues, returned in canonical
    order.
    """
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    if c.size < 2:
        raise DegreeZero("polynomial is constant")
    if c[0] == 0:
        raise DegreeZero("leading coefficient is zero")
    monic = c / c[0]
    k = c.size - 1
    comp = np.zeros((k, k), dtype=np.complex128)
    comp[0, :] = -monic[1:]
    if k > 1:
        comp[1:, :-1] = np.eye(k - 1)
    w = np.linalg.eigvals(comp)
    return sort_canonical(w)
