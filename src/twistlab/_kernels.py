"""The Fourier-series kernels under every theta evaluation, and the
determinant of their small matrix values.

Each row of a batch is one truncated series whose wavenumbers step by an
amount shared by all rows: ks[d, t] = ks[d, mid] + (t - mid) * step.  So

    exp(2 pi i ks[d, t] z) = exp(2 pi i ks[d, mid] z) * exp(2 pi i (t - mid) step z),

and a batch costs (rows + terms) exponentials per point and one matrix
product instead of rows * terms exponentials.  Factoring about the middle
term keeps both exponentials in range on the strip where the series are
evaluated.

There are two kernels, and the caller picks one by the shape of its
points.  `theta_eval` takes arbitrary points.  `theta_eval_grid` takes
the outer sum us[i] + vs[j] of two axes, where each exponential splits
further into one factor per axis,

    exp(2 pi i k (u + v)) = exp(2 pi i k u) * exp(2 pi i k v),

so a grid costs (rows + terms) * (len(us) + len(vs)) exponentials and
the same single matrix product.

`small_det` is the determinant of a stack of m x m matrices with m <= 4,
the sizes a matrix theta space allows, by cofactor expansion.
"""

import numpy as np


def theta_eval(coeffs, ks, zs):
    """Evaluate D truncated Fourier series at the points zs, or a stack of
    such batches that share their wavenumbers.

    coeffs: (..., D, T) complex term coefficients
    ks:     (D, T) float wavenumbers; every row steps by the same amount
    zs:     (..., P) complex points
    returns (..., D, P) with out[..., d, p] = sum_t coeffs[..., d, t] * exp(2 pi i ks[d, t] zs[..., p])
    """
    mid = ks.shape[1] // 2
    tz = 2j * np.pi * zs[..., None, :]
    lead = np.exp(ks[:, mid, None] * tz)
    shared = np.exp((ks[0, :, None] - ks[0, mid]) * tz)
    return lead * (coeffs @ shared)


def theta_eval_grid(coeffs, ks, us, vs):
    """Evaluate D truncated Fourier series, or a stack, at us[i] + vs[j].

    coeffs, ks as for theta_eval
    us:     (U,) complex points of the first axis
    vs:     (V,) complex points of the second axis
    returns (..., D, U, V) with out[..., d, i, j] = sum_t coeffs[..., d, t] * exp(2 pi i ks[d, t] (us[i] + vs[j]))
    """
    mid = ks.shape[1] // 2
    tu, tv = 2j * np.pi * us, 2j * np.pi * vs
    kmid = ks[:, mid, None]
    step = ks[0, :, None] - ks[0, mid]
    # the factors of the first axis go into the coefficients, one row per
    # (d, i); the matrix product sums the terms at every vs[j]
    rows = np.exp(kmid * tu)[:, :, None] * (coeffs[..., None, :] * np.exp(step * tu).T)
    out = rows @ np.exp(step * tv)
    out *= np.exp(kmid * tv)[:, None, :]
    return out


def small_det(a):
    """Determinants of a stack of m x m matrices, m <= 4: (..., m, m) -> (...).

    m = 1 is the entry, m = 2 is ad - bc, m = 3 expands the first row
    against the 2 x 2 minors of the last two, and m = 4 pairs the 2 x 2
    minors of the first two rows with the complementary minors of the
    last two (Laplace expansion along two rows).  The arithmetic runs on
    one (...)-shaped array per entry: stacked minors of a large batch
    would be arrays large enough that allocating them costs more than
    the arithmetic.
    """
    m = a.shape[-1]
    e = [[a[..., i, j] for j in range(m)] for i in range(m)]
    if m == 1:
        return e[0][0]

    def minor(r, x, y):  # rows r, r + 1 and columns x, y
        return e[r][x] * e[r + 1][y] - e[r][y] * e[r + 1][x]

    if m == 2:
        return minor(0, 0, 1)
    if m == 3:
        return e[0][0] * minor(1, 1, 2) - e[0][1] * minor(1, 0, 2) + e[0][2] * minor(1, 0, 1)
    return (minor(0, 0, 1) * minor(2, 2, 3) - minor(0, 0, 2) * minor(2, 1, 3)
            + minor(0, 0, 3) * minor(2, 1, 2) + minor(0, 1, 2) * minor(2, 0, 3)
            - minor(0, 1, 3) * minor(2, 0, 2) + minor(0, 2, 3) * minor(2, 0, 1))
