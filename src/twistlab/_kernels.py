"""The Fourier-series kernel under every theta evaluation.

Each row of a batch is one truncated series whose wavenumbers step by an
amount shared by all rows: ks[d, t] = ks[d, mid] + (t - mid) * step.  So

    exp(2 pi i ks[d, t] z) = exp(2 pi i ks[d, mid] z) * exp(2 pi i (t - mid) step z),

and a batch costs (rows + terms) exponentials per point and one matrix
product instead of rows * terms exponentials.  Factoring about the middle
term keeps both exponentials in range on the strip where the series are
evaluated.
"""

import numpy as np


def theta_eval(coeffs, ks, zs):
    """Evaluate D truncated Fourier series at the points zs.

    coeffs: (D, T) complex term coefficients
    ks:     (D, T) float wavenumbers; every row steps by the same amount
    zs:     (P,) complex points
    returns (D, P) with out[d, p] = sum_t coeffs[d, t] * exp(2 pi i ks[d, t] zs[p])
    """
    mid = ks.shape[1] // 2
    tz = 2j * np.pi * zs
    lead = np.exp(ks[:, mid, None] * tz)
    shared = np.exp((ks[0, :, None] - ks[0, mid]) * tz)
    return lead * (coeffs @ shared)
