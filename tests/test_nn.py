"""The conv primitives against their definitions: naive loops for the forward
passes, adjoint identities and per-block loops for the backward passes and for
the adjoint forward passes that give the input gradients."""

import itertools

import numpy as np
import pytest

from scenediff import nn

# (grid dims, kernel size): non-cubic grids, some smaller than the kernel
CONV_CASES = [((3, 4, 2), 1), ((4, 3, 5), 3), ((2, 5, 3), 3), ((5, 3, 4), 5)]
CIN, COUT = 2, 3


def naive_conv3d_same(x, w, b):
    """Zero-padded stride-1 cross-correlation, one output voxel at a time."""
    k = w.shape[0]
    pad = k // 2
    dims = x.shape[:3]
    out = np.empty(dims + (w.shape[-1],))
    for v in itertools.product(*map(range, dims)):
        acc = b.astype(np.float64)
        for tap in itertools.product(range(k), repeat=3):
            src = tuple(vi + ti - pad for vi, ti in zip(v, tap))
            if all(0 <= s < d for s, d in zip(src, dims)):
                acc = acc + x[src] @ w[tap]
        out[v] = acc
    return out


def random_conv(dims, k, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=dims + (CIN,)), rng.normal(size=(k, k, k, CIN, COUT)),
            rng.normal(size=COUT), rng.normal(size=dims + (COUT,)))


@pytest.mark.parametrize("dims,k", CONV_CASES)
def test_conv3d_same_matches_naive_loop(dims, k):
    x, w, b, _ = random_conv(dims, k, 0)
    y = nn.conv3d_same(x, w, b)
    assert y.shape == dims + (COUT,)
    np.testing.assert_allclose(y, naive_conv3d_same(x, w, b), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dims,k", CONV_CASES)
def test_conv3d_same_backward_is_the_adjoint(dims, k):
    zero_w, zero_b = np.zeros((k, k, k, CIN, COUT)), np.zeros(COUT)
    for seed in range(3):
        x, w, b, dy = random_conv(dims, k, seed)
        dw, db = nn.conv3d_same_backward(x, w, dy)
        dx = nn.conv3d_same_adjoint(dy, w)
        assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
        # the conv is linear in x (for fixed w), in w (for fixed x) and in b
        out = np.vdot(nn.conv3d_same(x, w, zero_b), dy)
        assert np.vdot(x, dx) == pytest.approx(out, rel=1e-12)
        assert np.vdot(w, dw) == pytest.approx(out, rel=1e-12)
        assert np.vdot(b, db) == pytest.approx(
            np.vdot(nn.conv3d_same(x, zero_w, b), dy), rel=1e-12)


def test_conv3d_same_rejects_bad_kernels():
    x = np.zeros((3, 3, 3, CIN))
    for shape in [(2, 2, 2, CIN, COUT), (3, 3, 1, CIN, COUT), (3, 3, 3, CIN + 1, COUT)]:
        with pytest.raises(ValueError):
            nn.conv3d_same(x, np.zeros(shape), np.zeros(COUT))


STRIDE = (2, 3, 1)
BLOCKS = (2, 1, 3)  # block grid; the voxel grid is (4, 3, 3)


def blocks():
    """Each block's index and the voxel slices it covers."""
    for i, j, l in itertools.product(*map(range, BLOCKS)):
        yield (i, j, l), tuple(slice(n * s, (n + 1) * s) for n, s in zip((i, j, l), STRIDE))


def test_patchify_round_trip_and_block_layout():
    x = np.random.default_rng(0).normal(size=(4, 3, 3, CIN))
    p = nn.patchify(x, STRIDE)
    assert p.shape == BLOCKS + (6 * CIN,)
    for idx, sl in blocks():
        np.testing.assert_array_equal(p[idx], x[sl].reshape(-1))
    np.testing.assert_array_equal(nn.unpatchify(p, STRIDE, CIN), x)
    with pytest.raises(ValueError):
        nn.patchify(np.zeros((4, 4, 3, CIN)), STRIDE)


def test_patch_conv_and_backward_match_blocks():
    rng = np.random.default_rng(1)
    x, w = rng.normal(size=(4, 3, 3, CIN)), rng.normal(size=(6 * CIN, COUT))
    b, dy = rng.normal(size=COUT), rng.normal(size=BLOCKS + (COUT,))
    y = nn.patch_conv(x, w, b, STRIDE)
    dw, db = nn.patch_conv_backward(x, dy, STRIDE)
    dx = nn.patch_deconv(dy, w.T, 0.0, STRIDE, CIN)
    ref_dx, ref_dw = np.zeros_like(x), np.zeros_like(w)
    for idx, sl in blocks():
        np.testing.assert_allclose(y[idx], x[sl].reshape(-1) @ w + b, rtol=1e-12)
        ref_dx[sl] = (w @ dy[idx]).reshape(x[sl].shape)
        ref_dw += np.outer(x[sl].reshape(-1), dy[idx])
    np.testing.assert_allclose(dx, ref_dx, rtol=1e-12)
    np.testing.assert_allclose(dw, ref_dw, rtol=1e-12)
    np.testing.assert_allclose(db, dy.sum(axis=(0, 1, 2)), rtol=1e-12)


def test_patch_deconv_and_backward_match_blocks():
    rng = np.random.default_rng(2)
    z, w = rng.normal(size=BLOCKS + (CIN,)), rng.normal(size=(CIN, 6 * COUT))
    b, dy = rng.normal(size=6 * COUT), rng.normal(size=(4, 3, 3, COUT))
    y = nn.patch_deconv(z, w, b, STRIDE, COUT)
    assert y.shape == dy.shape
    dw, db = nn.patch_deconv_backward(z, dy, STRIDE)
    dz = nn.patch_conv(dy, w.T, 0.0, STRIDE)
    ref_dw, ref_db = np.zeros_like(w), np.zeros_like(b)
    for idx, sl in blocks():
        np.testing.assert_allclose(y[sl], (z[idx] @ w + b).reshape(y[sl].shape), rtol=1e-12)
        np.testing.assert_allclose(dz[idx], w @ dy[sl].reshape(-1), rtol=1e-12)
        ref_dw += np.outer(z[idx], dy[sl].reshape(-1))
        ref_db += dy[sl].reshape(-1)
    np.testing.assert_allclose(dw, ref_dw, rtol=1e-12)
    np.testing.assert_allclose(db, ref_db, rtol=1e-12)
