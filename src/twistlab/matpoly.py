"""Monic matrix polynomials and their spectral refactorizations.

A degree-d monic matrix polynomial is stored through the coefficient
list (a_1, ..., a_d) of

    p(t) = t^d - a_1 t^{d-1} + a_2 t^{d-2} - ... + (-1)^d a_d

so a factorization p(t) = (t - b_1)...(t - b_d) has a_1 = b_1 + ... and
a_d = b_1 ... b_d.  The md roots of det p(t) split across the factors:
choosing a partition of the roots into blocks of size m selects a unique
factorization whose i-th factor has the i-th block as spectrum.  The
two-factor exchange that swaps spectra while preserving sum and product
comes from the Sylvester equation a_2 L - L a_1 = 1 via

    b_1 = a_1 + L^{-1},  b_2 = a_2 - L^{-1}

and the block structure of adjacent transpositions makes the induced
S_{mN} action on ordered factor tuples local: transpositions interior
to a factor only relabel its ordered spectrum, boundary transpositions
refactor one adjacent pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonGeneric,
    PartitionInvalid,
    ResidualTooLarge,
    SingularLambda,
    SizeMismatch,
)
from .linalg import (
    GENERICITY_TOL,
    as_square_matrix,
    eigen,
    frobenius,
    min_pair_gap,
    solve_sylvester,
    sort_canonical,
)
from .transpositions import MatrixDomain, TwistedMap, _act_on_blocks


@dataclass(frozen=True)
class MatrixPolynomial:
    m: int
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise SizeMismatch("need at least one coefficient")
        for a in self.coeffs:
            if a.shape != (self.m, self.m):
                raise SizeMismatch(f"coefficient shape {a.shape} does not match m={self.m}")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def standard_coeffs(self) -> list[np.ndarray]:
        """[P_0 = I, P_1, ..., P_d] with p(t) = sum_k P_k t^{d-k}."""
        out = [np.eye(self.m, dtype=np.complex128)]
        for k, a in enumerate(self.coeffs, start=1):
            out.append(((-1) ** k) * a)
        return out

    def value(self, t: complex) -> np.ndarray:
        return _value(self.standard_coeffs(), t)

    def scale(self) -> float:
        return max(1.0, max(float(np.linalg.norm(a)) for a in self.coeffs))


def matrix_polynomial(m: int, coeffs) -> MatrixPolynomial:
    return MatrixPolynomial(int(m), tuple(as_square_matrix(a) for a in coeffs))


def _value(std: list[np.ndarray], t: complex) -> np.ndarray:
    acc = std[0].copy()
    for p in std[1:]:
        acc = acc * t + p
    return acc


@dataclass(frozen=True)
class FactorTuple:
    """Ordered linear factors (t - b_i) with ordered eigenvalue labels."""

    factors: tuple
    spectra: tuple

    @property
    def m(self) -> int:
        return self.factors[0].shape[0]

    @classmethod
    def from_matrices(cls, mats, tol: float = GENERICITY_TOL) -> "FactorTuple":
        mats = tuple(as_square_matrix(b) for b in mats)
        spectra = []
        for b in mats:
            w, _ = eigen(b, ordered=True, tol=tol)
            spectra.append(tuple(w))
        allvals = np.concatenate([np.asarray(s) for s in spectra])
        scale = max(1.0, float(np.max(np.abs(allvals))))
        if min_pair_gap(allvals) < tol * scale:
            raise NonGeneric("factor spectra are not pairwise disjoint at tolerance")
        return cls(mats, tuple(spectra))

    def labels(self) -> list[complex]:
        out: list[complex] = []
        for s in self.spectra:
            out.extend(s)
        return out


def multiply(factors) -> MatrixPolynomial:
    """Expand the ordered product (t - b_1)...(t - b_N)."""
    mats = factors.factors if isinstance(factors, FactorTuple) else tuple(factors)
    mats = [as_square_matrix(b) for b in mats]
    if not mats:
        raise SizeMismatch("need at least one factor")
    m = mats[0].shape[0]
    if any(b.shape != (m, m) for b in mats):
        raise SizeMismatch("factors must share one square size")
    std = [np.eye(m, dtype=np.complex128)]
    for b in mats:
        nxt = [std[0]]
        for k in range(1, len(std) + 1):
            pk = std[k] if k < len(std) else np.zeros((m, m), dtype=np.complex128)
            nxt.append(pk - std[k - 1] @ b)
        std = nxt
    coeffs = tuple(((-1) ** k) * std[k] for k in range(1, len(std)))
    return MatrixPolynomial(m, coeffs)


def _companion(poly: MatrixPolynomial) -> np.ndarray:
    """The block companion matrix, with det(t - C) = det p(t): first block
    column (-P_1; ...; -P_d), identities on the block superdiagonal.  Its
    eigenvector at a root lam has first block v with p(lam) v = 0."""
    m, d = poly.m, poly.degree
    comp = np.zeros((m * d, m * d), dtype=np.complex128)
    comp[:, :m] = -np.vstack(poly.standard_coeffs()[1:])
    comp[:-m, m:] = np.eye(m * (d - 1))
    return comp


def _check_roots(roots: np.ndarray, tol: float) -> None:
    scale = max(1.0, float(np.max(np.abs(roots))))
    if min_pair_gap(roots) < tol * scale:
        raise NonGeneric(f"determinant roots cluster below {tol:.0e} * scale")


def spectrum(poly: MatrixPolynomial, tol: float = GENERICITY_TOL) -> np.ndarray:
    """The md roots of det p(t) in canonical order; rejects clustered roots.

    They are the eigenvalues of the block companion matrix.
    """
    roots = sort_canonical(np.linalg.eigvals(_companion(poly)))
    _check_roots(roots, tol)
    return roots


PAIR_GAP = 1e-4  # spectral gap of a generic pair, relative to its scale


def transpose_pair(a1, a2, tol: float = 1e-8):
    """Exchange transposition (a_1, a_2) -> (b_1, b_2) with swapped
    spectra and the same sum and product.

    Solves a_2 L - L a_1 = 1, gated by solve_sylvester at PAIR_GAP, and
    returns (a_1 + L^{-1}, a_2 - L^{-1}) = (L^{-1} a_2 L, L a_1 L^{-1}),
    certified by the sum, the product and the similarity residuals.
    """
    a1 = as_square_matrix(a1)
    a2 = as_square_matrix(a2)
    if a1.shape != a2.shape:
        raise SizeMismatch("pair must share one size")
    lam = solve_sylvester(a2, a1, np.eye(a1.shape[0]), tol=PAIR_GAP)
    try:
        lam_inv = np.linalg.inv(lam)
    except np.linalg.LinAlgError as exc:
        raise SingularLambda("Sylvester solution is singular") from exc
    lam_norm = frobenius(lam)
    if lam_norm * frobenius(lam_inv) >= 1e10:
        raise SingularLambda("Sylvester solution is numerically singular")
    b1 = a1 + lam_inv
    b2 = a2 - lam_inv
    scale = max(1.0, frobenius(a1), frobenius(a2), frobenius(lam_inv))
    if frobenius((b1 + b2) - (a1 + a2)) > tol * scale:
        raise ResidualTooLarge("sum not preserved by the pair exchange")
    if frobenius(b1 @ b2 - a1 @ a2) > tol * scale * scale:
        raise ResidualTooLarge("product not preserved by the pair exchange")
    if max(frobenius(lam @ b1 - a2 @ lam), frobenius(b2 @ lam - lam @ a1)) > tol * scale * lam_norm:
        raise ResidualTooLarge("spectra were not exchanged by the pair transposition")
    return b1, b2


def pair_map(m: int = 2) -> TwistedMap:
    """The pair exchange as a twisted transposition on m x m matrices,
    gated by transpose_pair itself."""
    return TwistedMap("matpoly_pair", MatrixDomain(m), transpose_pair)


def _match_labels(labels, roots, tol: float) -> list[int]:
    """Indices of the roots matched to prescribed labels: each label in
    turn takes the nearest root not yet taken."""
    dist = np.abs(np.asarray(labels)[:, None] - roots[None, :])
    scale = max(1.0, float(np.abs(labels).max()))
    matched: list[int] = []
    for lab, row in zip(labels, dist):
        best = int(row.argmin())
        if row[best] > tol * scale:
            raise PartitionInvalid(f"label {lab} matches no determinant root within {tol:.0e} * scale")
        matched.append(best)
        dist[:, best] = np.inf
    return matched


def _divide_right(std: list[np.ndarray], b: np.ndarray):
    """p(t) = q(t)(t - b) + R with right evaluation Horner."""
    qs = [std[0]]
    for k in range(1, len(std) - 1):
        qs.append(std[k] + qs[-1] @ b)
    rem = std[-1] + qs[-1] @ b
    return qs, rem


def factorize(poly: MatrixPolynomial, partition, tol: float = 1e-8) -> FactorTuple:
    """Unique factorization whose i-th factor carries the i-th block.

    One eig of the block companion matrix gives the roots of det p and a
    kernel vector of p at each.  Peeling right to left, a block's kernel
    vectors are the eigenvectors of its factor b, a right Horner division
    with a remainder bound removes (t - b), and the roots still to peel
    carry their vectors through w = (lam - b) w, since p = q (t - b).
    """
    m, d = poly.m, poly.degree
    blocks = [list(block) for block in partition]
    if len(blocks) != d or any(len(b) != m for b in blocks):
        raise PartitionInvalid(f"need {d} blocks of size {m}")
    flat = [x for b in blocks for x in b]
    scale_l = max(1.0, max(abs(x) for x in flat))
    if min_pair_gap(np.array(flat)) < GENERICITY_TOL * scale_l:
        raise PartitionInvalid("partition blocks are not disjoint at tolerance")
    roots, vecs = np.linalg.eig(_companion(poly))
    _check_roots(roots, GENERICITY_TOL)
    order = _match_labels(flat, roots, 1e-5)
    roots = roots[order]
    vecs = vecs[:m, order]

    std = poly.standard_coeffs()
    pscale = poly.scale()
    out = [None] * d
    for idx in range(d - 1, 0, -1):
        cols = slice(idx * m, (idx + 1) * m)
        vmat = vecs[:, cols] / np.linalg.norm(vecs[:, cols], axis=0)
        sv = np.linalg.svd(vmat, compute_uv=False)
        # conditioning of the kernel basis bounds how many digits survive
        # the similarity; past 1e5 the 1e-7 accuracy contract is gone
        if sv[-1] < 1e-5 * sv[0]:
            raise NonGeneric("kernel vectors of one block are nearly dependent")
        b = (vmat * roots[cols]) @ np.linalg.inv(vmat) if m > 1 else roots[cols].reshape(1, 1)
        vecs = vecs[:, : idx * m] * roots[: idx * m] - b @ vecs[:, : idx * m]
        std, rem = _divide_right(std, b)
        if np.linalg.norm(rem) > tol * pscale:
            raise ResidualTooLarge(f"division remainder {np.linalg.norm(rem):.2e} above tolerance")
        out[idx] = b
    out[0] = -std[1]
    return FactorTuple(tuple(out), tuple(tuple(b) for b in blocks))


def act_ordered(sigma, ft: FactorTuple, tol: float = 1e-8) -> FactorTuple:
    """Action of a permutation of the mN ordered eigenvalue slots.

    sigma is an image list over range(mN).  Interior adjacent swaps
    permute labels inside one factor; boundary swaps refactor the
    product of the adjacent pair with the exchanged eigenvalue sets.
    Labels move exactly, matrices move within tolerance.
    """

    def refactor(ba, bb, new_la, new_lb):
        return factorize(multiply([ba, bb]), [new_la, new_lb], tol=tol).factors

    mats, labels = _act_on_blocks(sigma, [b.copy() for b in ft.factors], ft.spectra, refactor)
    return FactorTuple(tuple(mats), tuple(tuple(s) for s in labels))
