import numpy as np
import pytest

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


def test_grid_kernel_matches_the_point_kernel_on_an_outer_sum():
    # rows with their own starting wavenumber, as above; the grid is the
    # outer sum of the axes of a cell with a tilted tau
    rng = np.random.default_rng(1)
    rows, terms, step, tau = 6, 9, 6.0, 0.37 + 0.83j
    coeffs = rng.standard_normal((rows, terms)) + 1j * rng.standard_normal((rows, terms))
    ks = rng.integers(-6, 7, size=(rows, 1)) + step * np.arange(-4, terms - 4)
    xs = (np.arange(13) + 0.5) / 13
    us, vs = xs / 3, xs[:11] * tau / 3
    out = _kernels.theta_eval_grid(coeffs, ks, us, vs)
    ref = _kernels.theta_eval(coeffs, ks, (us[:, None] + vs[None, :]).ravel()).reshape(rows, len(us), len(vs))
    assert out.shape == (rows, len(us), len(vs))
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_closed_form_det_matches_lapack(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((200, m, m)) + 1j * rng.standard_normal((200, m, m))
    # nearly singular: the smallest singular value of each matrix is 1e-10
    u, s, vh = np.linalg.svd(a)
    s[:, -1] = 1e-10
    near = np.einsum("pij,pj,pjk->pik", u, s, vh)
    for batch in (a, near):
        bound = 1e-13 * np.prod(np.linalg.norm(batch, axis=2), axis=1)
        assert np.all(np.abs(_kernels.small_det(batch) - np.linalg.det(batch)) <= bound)
