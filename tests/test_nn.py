"""The conv primitives against their definitions: naive loops for the forward
passes, adjoint identities and per-block loops for the backward passes and for
the adjoint forward passes that give the input gradients."""

import itertools

import numpy as np
import pytest

from scenediff import nn

# (grid dims, kernel size): non-cubic grids, some smaller than the kernel, and
# the 16x16x4 grid the voxel models train on
CONV_CASES = [((3, 4, 2), 1), ((4, 3, 5), 3), ((2, 5, 3), 3), ((5, 3, 4), 5), ((16, 16, 4), 3)]
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


def test_conv3d_same_primitives_accept_strided_views():
    """A sliced input, a flipped and axis-swapped kernel and a transposed upstream
    gradient give the results of their contiguous copies (the adjoint passes
    such a kernel view)."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 5, 8, CIN))[1:5, ::-1, ::2]
    w = rng.normal(size=(3, 3, 3, COUT, CIN))[::-1, :, ::-1].swapaxes(3, 4)
    dy = rng.normal(size=(COUT, 4, 4, 5)).transpose(2, 3, 1, 0)
    b = rng.normal(size=COUT)
    xc, wc, dyc = map(np.ascontiguousarray, (x, w, dy))
    assert not any(a.flags.c_contiguous for a in (x, w, dy))
    close = dict(rtol=1e-12, atol=0)
    np.testing.assert_allclose(nn.conv3d_same(x, w, b), nn.conv3d_same(xc, wc, b), **close)
    for got, want in zip(nn.conv3d_same_backward(x, w, dy), nn.conv3d_same_backward(xc, wc, dyc)):
        np.testing.assert_allclose(got, want, **close)
    np.testing.assert_allclose(nn.conv3d_same_adjoint(dy, w), nn.conv3d_same_adjoint(dyc, wc),
                               **close)


def test_conv3d_same_rejects_bad_kernels():
    x = np.zeros((3, 3, 3, CIN))
    for shape in [(2, 2, 2, CIN, COUT), (3, 3, 1, CIN, COUT), (3, 3, 3, CIN + 1, COUT)]:
        with pytest.raises(ValueError):
            nn.conv3d_same(x, np.zeros(shape), np.zeros(COUT))


def one_hot_input(idx, channels):
    """The dense input whose hot channels `idx` names; an entry equal to
    `channels` names none."""
    return np.eye(channels + 1)[idx].sum(axis=-2)[..., :channels]


def hot_channels(dims, cin, encoding, rng):
    """(X, Y, Z, m) hot channel indices: a label; a label plus the last channel
    where occupied; or the last channel where occupied only."""
    occupied = np.where(rng.random(dims + (1,)) < 0.5, cin - 1, cin)
    if encoding == "label":
        return rng.integers(0, cin, size=dims + (1,))
    if encoding == "label+occupancy":
        return np.concatenate([rng.integers(0, cin - 1, size=dims + (1,)), occupied], axis=-1)
    return occupied


# (dims, k, Cin, Cout): both branches (gather for Cin > Cout, dense otherwise),
# sides smaller than the kernel, k = 5, and the latent and voxel model shapes
ONEHOT_CASES = [((1, 1, 1), 3, 40, 3), ((3, 3, 1), 3, 40, 3), ((2, 5, 3), 5, 40, 3),
                ((2, 5, 3), 3, 3, 16), ((3, 3, 1), 5, 5, 16), ((4, 4, 2), 3, 1100, 16),
                ((16, 16, 4), 3, 5, 16), ((16, 16, 4), 3, 40, 16)]


@pytest.mark.parametrize("encoding", ["label", "label+occupancy", "occupancy"])
@pytest.mark.parametrize("dims,k,cin,cout", ONEHOT_CASES)
def test_conv3d_onehot_is_conv3d_same_on_the_one_hot_input_bit_for_bit(dims, k, cin, cout,
                                                                       encoding):
    rng = np.random.default_rng(cin)
    idx = hot_channels(dims, cin, encoding, rng)
    w, b = rng.normal(size=(k, k, k, cin, cout)), rng.normal(size=cout)
    dy = rng.normal(size=dims + (cout,))
    x = one_hot_input(idx, cin)
    assert np.array_equal(nn.conv3d_onehot(idx, w, b), nn.conv3d_same(x, w, b))
    for got, want in zip(nn.conv3d_onehot_backward(idx, w, dy),
                         nn.conv3d_same_backward(x, w, dy)):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_conv3d_bias_fill_keeps_the_input_dtype():
    x = np.ones((2, 2, 1, CIN), dtype=np.float32)
    w = np.ones((1, 1, 1, CIN, COUT), dtype=np.float32)
    assert nn.conv3d_same(x, w, np.arange(COUT, dtype=np.float64)).dtype == np.float32
    idx = np.zeros((2, 2, 1, 1), dtype=np.intp)
    for cin in (2, 8):  # the dense and the gather branch
        w = np.ones((1, 1, 1, cin, COUT), dtype=np.float32)
        assert nn.conv3d_onehot(idx, w, np.zeros(COUT)).dtype == np.float32


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


def adam_oracle(params, grads, m, v, t, lr):
    """Adam as a closed formula: (new params, new m, new v) for step t."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    out = {}
    for name, p in params.items():
        g = grads[name]
        m[name] = beta1 * m.get(name, np.zeros_like(p)) + (1 - beta1) * g
        v[name] = beta2 * v.get(name, np.zeros_like(p)) + (1 - beta2) * g * g
        mhat = m[name] / (1 - beta1 ** t)
        vhat = v[name] / (1 - beta2 ** t)
        out[name] = p - lr * mhat / (np.sqrt(vhat) + eps)
    return out, m, v


def test_adam_step_is_the_formula_bit_for_bit_and_leaves_params_alone():
    rng = np.random.default_rng(4)
    params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
    state, ref, m, v = nn.AdamState(), params, {}, {}
    for t in range(1, 4):
        grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
        before = {name: p.copy() for name, p in params.items()}
        new = nn.adam_step(params, grads, state, lr=1e-2)
        ref, m, v = adam_oracle(ref, grads, m, v, t, lr=1e-2)
        assert state.step == t
        for name in params:
            assert np.array_equal(params[name], before[name])
            assert new[name] is not params[name]
            assert np.array_equal(new[name], ref[name])
            assert np.array_equal(state.m[name], m[name])
            assert np.array_equal(state.v[name], v[name])
        params = new
