"""Reference pair exchange and factorization, computed as twistlab did
before its eigenvector-coordinate solves: the Sylvester equation as one
m^2 x m^2 Kronecker system, and a peel that takes each root's kernel
vector from an SVD of p at that root.  The tests compare the package
against them; they have no gates or certificates of their own."""

import numpy as np

from twistlab.linalg import nullspace_vector
from twistlab.matpoly import _divide_right, _value, spectrum


def kron_sylvester(a, b, c):
    """X with a X - X b = c, from the vectorized system."""
    m = a.shape[0]
    k = np.kron(a, np.eye(m)) - np.kron(np.eye(m), b.T)
    return np.linalg.solve(k, c.reshape(-1)).reshape(m, m)


def kron_exchange(a1, a2):
    lam_inv = np.linalg.inv(kron_sylvester(a2, a1, np.eye(a1.shape[0])))
    return a1 + lam_inv, a2 - lam_inv


def peel_factorize(poly, partition):
    """Factors (t - b_1)...(t - b_d) of poly, b_i carrying partition[i]:
    right to left, b is built from the kernel vectors of p at the roots
    nearest its labels, then divided off."""
    m, d = poly.m, poly.degree
    roots = spectrum(poly)
    std = poly.standard_coeffs()
    factors = [None] * d
    for idx in range(d - 1, 0, -1):
        lam = [roots[np.abs(roots - x).argmin()] for x in partition[idx]]
        if m == 1:
            vmat = np.ones((1, 1))
        else:
            vmat = np.column_stack([nullspace_vector(_value(std, r), tol=1e-6) for r in lam])
        factors[idx] = vmat @ np.diag(lam) @ np.linalg.inv(vmat)
        std, _ = _divide_right(std, factors[idx])
    factors[0] = -std[1]
    return factors
