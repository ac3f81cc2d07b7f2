import numpy as np

from twistlab import _kernels


def test_numpy_kernel_against_direct_sum():
    # rows with their own starting wavenumber and one shared step, as the
    # theta series have them
    rng = np.random.default_rng(0)
    rows, terms, points, step = 5, 9, 11, 6.0
    coeffs = rng.standard_normal((rows, terms)) + 1j * rng.standard_normal((rows, terms))
    ks = rng.integers(-6, 7, size=(rows, 1)) + step * np.arange(-4, terms - 4)
    zs = rng.random(points) + 1j * rng.random(points) / step
    out = _kernels.theta_eval(coeffs, ks, zs)
    direct = np.zeros_like(out)
    for d in range(rows):
        for p in range(points):
            direct[d, p] = np.sum(coeffs[d] * np.exp(2j * np.pi * ks[d] * zs[p]))
    assert np.allclose(out, direct, rtol=1e-12, atol=1e-12 * np.abs(direct).max())

