import numpy as np
import pytest

from scenediff.diffusion import (diffusion_loss_and_grad, kl_categorical, posterior, q_marginal,
                                 reverse_step, sample_field, sample_loop, softmax)
from scenediff.grids import CategoricalField, VoxelGrid, one_hot
from scenediff.schedule import UniformTransition, make_schedule

from oracles import diffusion_loss, posterior_enumeration, q_onestep, schedule


@pytest.fixture
def trans():
    return UniformTransition(4, make_schedule("cosine", 20))


def random_field(rng, dims, k):
    p = rng.dirichlet(np.ones(k), size=int(np.prod(dims)))
    return CategoricalField(p.reshape(dims + (k,)))


def test_q_marginal_matches_matrix_product(trans):
    rng = np.random.default_rng(0)
    g = VoxelGrid(rng.integers(0, 4, size=(3, 3, 2)))
    x0 = one_hot(g, 4)
    q = np.eye(4)
    for t in range(1, 21):
        q = q @ trans.single_step_matrix(t)
        expected = x0.flat() @ q
        got = q_marginal(x0, t, trans).flat()
        assert np.max(np.abs(got - expected)) < 1e-10


def test_q_marginal_range_check(trans):
    x0 = one_hot(VoxelGrid(np.zeros((1, 1, 1), dtype=int)), 4)
    for bad in (0, 21):
        with pytest.raises(ValueError):
            q_marginal(x0, bad, trans)


def test_q_onestep_identity_and_stationary(trans):
    rng = np.random.default_rng(1)
    f = random_field(rng, (2, 2, 2), 4)
    uniform = CategoricalField(np.full((2, 2, 2, 4), 0.25))
    out = q_onestep(uniform, 5, trans)
    np.testing.assert_allclose(out.probs, 0.25, atol=1e-15)
    # composing single steps equals the closed-form marginal
    g = VoxelGrid(rng.integers(0, 4, size=(2, 2, 2)))
    cur = one_hot(g, 4)
    for t in range(1, 13):
        cur = q_onestep(cur, t, trans)
        ref = q_marginal(one_hot(g, 4), t, trans)
        assert np.max(np.abs(cur.probs - ref.probs)) < 1e-10


def test_sample_field_degenerate_and_deterministic(trans):
    rng = np.random.default_rng(2)
    g = VoxelGrid(rng.integers(0, 4, size=(4, 4, 2)))
    assert sample_field(one_hot(g, 4), np.random.default_rng(0)) == g
    f = random_field(rng, (4, 4, 2), 4)
    a = sample_field(f, np.random.default_rng(7))
    b = sample_field(f, np.random.default_rng(7))
    assert a == b


def test_sample_field_monte_carlo():
    p = np.array([0.5, 0.2, 0.25, 0.05])
    f = CategoricalField(np.tile(p, (100, 1000, 1, 1)).reshape(100, 1000, 1, 4))
    g = sample_field(f, np.random.default_rng(3))
    freq = np.bincount(g.labels.ravel(), minlength=4) / g.num_voxels
    assert np.abs(freq - p).sum() < 0.01


def test_posterior_matches_enumeration():
    rng = np.random.default_rng(4)
    for k in (2, 3, 6):
        trans = UniformTransition(k, make_schedule("cosine", 20))
        for _ in range(60):
            t = int(rng.integers(2, 21))
            xt = VoxelGrid(rng.integers(0, k, size=(2, 2, 1)))
            p0 = random_field(rng, (2, 2, 1), k)
            post = posterior(xt, p0, t, trans)
            sums = post.probs.sum(axis=-1)
            assert np.max(np.abs(sums - 1)) < 1e-9
            for idx in np.ndindex(2, 2, 1):
                ref = posterior_enumeration(xt.labels[idx], p0.probs[idx], t, trans)
                assert np.max(np.abs(post.probs[idx] - ref)) < 1e-10


def test_posterior_delta_when_alpha_bar_prev_is_one():
    # with alpha_bar_1 == 1 the t=2 posterior collapses onto the one-hot x0~
    from scenediff.schedule import NoiseSchedule
    sched = NoiseSchedule(np.array([1e-12, 0.5]))
    trans = UniformTransition(3, sched)
    x0 = one_hot(VoxelGrid(np.array([[[2]]])), 3)
    post = posterior(VoxelGrid(np.array([[[0]]])), x0, 2, trans)
    np.testing.assert_allclose(post.probs.ravel(), [0, 0, 1], atol=1e-9)


def test_posterior_uniform_under_total_mixing(trans):
    uniform = CategoricalField(np.full((1, 1, 1, 4), 0.25))
    post = posterior(VoxelGrid(np.array([[[1]]])), uniform, 10, trans)
    # uniform x0~ mixes the per-candidate posteriors symmetrically around x_t
    assert post.probs.ravel()[1] == max(post.probs.ravel())


def test_posterior_at_t1_is_the_prediction():
    # alpha_bar_0 = 1, so q(x_0 | x_1, x0~) is x0~: the dense oracle with Qbar_0 = I
    # agrees, and the true posterior of a one-hot x0 is that one-hot exactly
    rng = np.random.default_rng(14)
    for k in (2, 3, 6, 1100):
        trans = UniformTransition(k, make_schedule("cosine", 20))
        x0 = VoxelGrid(rng.integers(0, k, size=(3, 2, 2)))
        x_t = VoxelGrid(rng.integers(0, k, size=(3, 2, 2)))
        p0 = random_field(rng, (3, 2, 2), k)
        got = posterior(x_t, p0, 1, trans).flat()
        assert np.max(np.abs(got - p0.flat())) < 1e-15
        ref = dense_posterior(x_t.labels.reshape(-1), p0.flat(), 1, trans)
        assert np.max(np.abs(got - ref)) < 1e-15
        exact = one_hot(x0, k)
        assert np.array_equal(posterior(x_t, exact, 1, trans).probs, exact.probs)


def exact_denoiser(pi, t, trans):
    """The exact x0~ for data drawn from pi, for each observed label c as a
    (K, 1, 1, K) field: p(x0 = m | x_t = c) proportional to pi_m Qbar_t[m, c]."""
    k = trans.num_classes
    joint = pi[:, None] * trans.cumulative_matrix(t)
    return CategoricalField((joint / joint.sum(axis=0)).T.reshape(k, 1, 1, k))


EXACT_CASES = [(kind, k, steps) for kind in ("cosine", "linear")
               for k in (3, 5, 7) for steps in (10, 20, 50)]


@pytest.mark.parametrize("kind, k, steps", EXACT_CASES)
def test_reverse_chain_of_the_exact_denoiser_returns_the_data(kind, k, steps):
    # chaining the library's reverse kernels q(x_{t-1} | x_t = c) with the exact
    # x0~ from q(x_T) = pi Qbar_T down to t = 1 must give pi back
    trans = UniformTransition(k, schedule(kind, steps))
    pi = np.random.default_rng(k * steps).dirichlet(np.ones(k))
    every_label = VoxelGrid(np.arange(k).reshape(k, 1, 1))
    q = pi @ trans.cumulative_matrix(steps)
    for t in range(steps, 0, -1):
        q = q @ posterior(every_label, exact_denoiser(pi, t, trans), t, trans).flat()
    assert np.max(np.abs(q - pi)) < 1e-14


@pytest.mark.parametrize("kind, k, steps", EXACT_CASES)
def test_bound_of_the_exact_denoiser_is_entropy_plus_prior_mismatch(kind, k, steps):
    # E_{x0~pi}[-ELBO] = H(pi) + KL(pi Qbar_T || uniform) with the exact x0~,
    # enumerating every (x0 = m, x_t = c) pair; the t = 1 term is the decoder NLL
    trans = UniformTransition(k, schedule(kind, steps))
    pi = np.random.default_rng(k * steps).dirichlet(np.ones(k))
    x0 = one_hot(VoxelGrid(np.repeat(np.arange(k), k).reshape(k, k, 1)), k)
    x_t = VoxelGrid(np.tile(np.arange(k), k).reshape(k, k, 1))
    uniform = np.full(k, 1.0 / k)
    bound = pi @ kl_categorical(q_marginal(x0, steps, trans).probs[:, 0, 0], uniform)
    for t in range(1, steps + 1):
        rows = exact_denoiser(pi, t, trans).probs.reshape(1, k, 1, k)
        pred = CategoricalField(np.broadcast_to(rows, (k, k, 1, k)))  # [m, c] -> row c
        true = posterior(x_t, x0, t, trans).probs
        vb = kl_categorical(true, posterior(x_t, pred, t, trans).probs)[..., 0]
        bound += (pi[:, None] * trans.cumulative_matrix(t) * vb).sum()
    prior_mismatch = kl_categorical(pi @ trans.cumulative_matrix(steps), uniform)
    assert abs(bound - (-(pi * np.log(pi)).sum() + prior_mismatch)) < 1e-13


def test_kl_categorical():
    q = np.array([0.3, 0.7])
    assert kl_categorical(q, q) == pytest.approx(0.0, abs=1e-15)
    onehot = np.array([0.0, 1.0])
    p = np.array([0.4, 0.6])
    assert kl_categorical(onehot, p) == pytest.approx(-np.log(0.6))
    with pytest.raises(ValueError):
        kl_categorical(np.ones(3) / 3, np.ones(4) / 4)
    # high-precision oracle on random pairs
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.dirichlet(np.ones(6))
        p = rng.dirichlet(np.ones(6))
        ref = sum(float(qi) * (np.log(float(qi)) - np.log(float(pi)))
                  for qi, pi in zip(q, p) if qi > 0)
        assert kl_categorical(q, p) == pytest.approx(ref, abs=1e-12)
        assert kl_categorical(q, p) >= 0


def test_diffusion_loss_sanity(trans):
    rng = np.random.default_rng(6)
    x0 = VoxelGrid(rng.integers(0, 4, size=(3, 3, 2)))
    for t in (1, 5, 20):
        x_t = sample_field(q_marginal(one_hot(x0, 4), t, trans), rng)
        perfect = np.log(one_hot(x0, 4).probs + 1e-10)
        total, vb, aux = diffusion_loss(x0, t, perfect, x_t, 0.001, trans)
        assert vb < 1e-6
        assert aux < 1e-5
        logits = rng.normal(size=(3, 3, 2, 4))
        total, vb, aux = diffusion_loss(x0, t, logits, x_t, 0.0, trans)
        assert total == vb
        assert total >= 0 and aux >= 0


def test_diffusion_loss_compositional_oracle():
    # single voxel, K=4, t=5: assemble vb from posterior + kl_categorical by hand
    trans = UniformTransition(4, make_schedule("cosine", 20))
    rng = np.random.default_rng(7)
    x0 = VoxelGrid(np.array([[[2]]]))
    x_t = VoxelGrid(np.array([[[1]]]))
    logits = rng.normal(size=(1, 1, 1, 4))
    _, vb, _ = diffusion_loss(x0, 5, logits, x_t, 0.5, trans)
    q_true = posterior(x_t, one_hot(x0, 4), 5, trans).probs.ravel()
    p_pred = posterior(x_t, CategoricalField(softmax(logits)), 5, trans).probs.ravel()
    assert vb == pytest.approx(kl_categorical(q_true, p_pred), abs=1e-12)


def test_diffusion_loss_gradient_finite_differences(trans):
    rng = np.random.default_rng(8)
    x0 = VoxelGrid(rng.integers(0, 4, size=(2, 2, 1)))
    x_t = VoxelGrid(rng.integers(0, 4, size=(2, 2, 1)))
    logits = rng.normal(size=(2, 2, 1, 4))
    for t in (1, 2, 9):
        _, _, _, grad = diffusion_loss_and_grad(x0, t, logits, x_t, 0.3, trans)
        h = 1e-6
        for idx in np.ndindex(logits.shape):
            lp, lm = logits.copy(), logits.copy()
            lp[idx] += h
            lm[idx] -= h
            fp, _, _ = diffusion_loss(x0, t, lp, x_t, 0.3, trans)
            fm, _, _ = diffusion_loss(x0, t, lm, x_t, 0.3, trans)
            assert grad[idx] == pytest.approx((fp - fm) / (2 * h), abs=1e-6)


def test_reverse_step_contracts(trans):
    rng = np.random.default_rng(9)
    target = VoxelGrid(rng.integers(0, 4, size=(3, 3, 2)))

    def oracle_denoiser(x_t, t):
        return np.log(one_hot(target, 4).probs + 1e-12)

    x1 = VoxelGrid(rng.integers(0, 4, size=(3, 3, 2)))
    out = reverse_step(x1, 1, oracle_denoiser, trans, np.random.default_rng(0))
    assert out == target

    def random_denoiser(x_t, t):
        r = np.random.default_rng(hash((t, 0)) % 2**32)
        return r.normal(size=x_t.dims + (4,))

    a = reverse_step(x1, 7, random_denoiser, trans, np.random.default_rng(3))
    b = reverse_step(x1, 7, random_denoiser, trans, np.random.default_rng(3))
    assert a == b
    assert a.dims == x1.dims
    assert a.labels.max() < 4


def test_reverse_step_at_t1_draws_from_the_prediction(trans):
    # the t = 1 posterior is x0~ itself, so the step's draw is sample_field(x0~)
    rng = np.random.default_rng(15)
    x1 = VoxelGrid(rng.integers(0, 4, size=(16, 16, 4)))
    for seed in range(20):
        logits = np.random.default_rng(seed).normal(size=(16, 16, 4, 4))
        step = reverse_step(x1, 1, lambda x_t, t: logits, trans, np.random.default_rng(seed))
        direct = sample_field(CategoricalField(softmax(logits)), np.random.default_rng(seed))
        assert step == direct


def test_sample_loop_contracts(trans):
    def random_denoiser(x_t, t):
        r = np.random.default_rng(t)
        return r.normal(size=x_t.dims + (4,))

    g1 = sample_loop(random_denoiser, (4, 3, 2), trans, np.random.default_rng(0))
    g2 = sample_loop(random_denoiser, (4, 3, 2), trans, np.random.default_rng(1))
    assert g1.dims == (4, 3, 2)
    assert g1.labels.max() < 4
    assert g1 != g2

    target = VoxelGrid(np.arange(8).reshape(2, 2, 2) % 3)
    one_step = UniformTransition(3, schedule("linear", 1))

    def oracle(x_t, t):
        return np.log(one_hot(target, 3).probs + 1e-12)

    assert sample_loop(oracle, (2, 2, 2), one_step, np.random.default_rng(5)) == target


def test_ancestral_corruption_matches_marginal():
    # step-by-step sampled chain reproduces the closed-form marginal
    k, t_max = 6, 20
    trans = UniformTransition(k, make_schedule("cosine", t_max))
    n = 50_000
    x0 = VoxelGrid(np.full((n, 1, 1), 2))
    rng = np.random.default_rng(11)
    cur = x0
    for t in range(1, t_max + 1):
        cur = sample_field(q_onestep(one_hot(cur, k), t, trans), rng)
        if t in (1, t_max // 2, t_max):
            freq = np.bincount(cur.labels.ravel(), minlength=k) / n
            expect = q_marginal(one_hot(x0, k), t, trans).flat()[0]
            assert np.abs(freq - expect).sum() < 0.02


def dense_posterior(xt_flat, p0, t, trans):
    """Reference reverse-step posterior from the dense K x K oracle matrices."""
    qt = trans.single_step_matrix(t)
    qbar_prev = trans.cumulative_matrix(t - 1)
    qbar_t = trans.cumulative_matrix(t)
    post = qt[xt_flat] * ((p0 / qbar_t[xt_flat]) @ qbar_prev)
    return post / post.sum(axis=-1, keepdims=True)


def dense_loss_and_grad(x0_flat, xt_flat, logits, w0, t, trans):
    """Reference (total, vb, d total / d logits) for any t from the dense
    oracle matrices, chaining vb through post = M p with
    M[j, m] = Qt[x_t, j] Qbar_{t-1}[m, j] / Qbar_t[m, x_t]."""
    k, nvox = trans.num_classes, x0_flat.size
    rows = np.arange(nvox)
    p = softmax(logits)
    qt = trans.single_step_matrix(t)
    qbar_prev = trans.cumulative_matrix(t - 1)
    qbar_t = trans.cumulative_matrix(t)
    post_pred = dense_posterior(xt_flat, p, t, trans)
    q_true = dense_posterior(xt_flat, np.eye(k)[x0_flat], t, trans)
    post_floor = np.maximum(post_pred, 1e-12)
    log_q = np.log(np.where(q_true > 0, q_true, 1.0))  # q_true is one-hot at t = 1
    vb = float(np.mean(np.where(
        q_true > 0, q_true * (log_q - np.log(post_floor)), 0.0).sum(axis=-1)))
    aux = float(np.mean(-np.log(p[rows, x0_flat])))
    g_post = -np.where(post_pred > 1e-12, q_true / post_floor, 0.0) / nvox
    g_p = ((g_post * qt[xt_flat]) @ qbar_prev.T) / qbar_t[xt_flat]
    g_p[rows, x0_flat] -= w0 / (nvox * p[rows, x0_flat])
    g_logits = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True))
    return vb + w0 * aux, vb, g_logits


def test_closed_form_matches_dense_oracle_at_full_scale_codebook():
    # K = 1100 is the full-scale codebook; the enumeration oracle above only
    # reaches K = 6, so a closed form that fails only at large K shows here
    k, t_max, dims = 1100, 20, (2, 2, 2)
    trans = UniformTransition(k, make_schedule("cosine", t_max))
    rng = np.random.default_rng(12)
    x0 = VoxelGrid(rng.integers(0, k, size=dims))
    xt_labels = rng.integers(0, k, size=dims)
    xt_labels.reshape(-1)[::2] = x0.labels.reshape(-1)[::2]  # x_t == x0 on half the voxels
    x_t = VoxelGrid(xt_labels)
    xt_flat = xt_labels.reshape(-1)
    logits = rng.normal(size=dims + (k,))
    for t in (1, 2, 10, t_max):
        for p0 in (random_field(rng, dims, k), one_hot(x0, k)):
            got = posterior(x_t, p0, t, trans).flat()
            assert np.max(np.abs(got - dense_posterior(xt_flat, p0.flat(), t, trans))) < 1e-12
        total, vb, _, grad = diffusion_loss_and_grad(x0, t, logits, x_t, 0.3, trans)
        ref_total, ref_vb, ref_grad = dense_loss_and_grad(
            x0.labels.reshape(-1), xt_flat, logits.reshape(-1, k), 0.3, t, trans)
        assert abs(vb - ref_vb) < 1e-12
        assert abs(total - ref_total) < 1e-12
        assert np.max(np.abs(grad.reshape(-1, k) - ref_grad)) < 1e-12


def test_diffusion_loss_gradient_finite_differences_k64():
    k = 64
    trans = UniformTransition(k, make_schedule("cosine", 20))
    rng = np.random.default_rng(13)
    x0 = VoxelGrid(rng.integers(0, k, size=(2, 1, 1)))
    x_t = VoxelGrid(np.array([[[x0.labels[0, 0, 0]]], [[rng.integers(0, k)]]]))
    logits = rng.normal(size=(2, 1, 1, k))
    t = 6
    _, _, _, grad = diffusion_loss_and_grad(x0, t, logits, x_t, 0.3, trans)
    h = 1e-6
    for idx in np.ndindex(logits.shape):
        lp, lm = logits.copy(), logits.copy()
        lp[idx] += h
        lm[idx] -= h
        fp, _, _ = diffusion_loss(x0, t, lp, x_t, 0.3, trans)
        fm, _, _ = diffusion_loss(x0, t, lm, x_t, 0.3, trans)
        assert grad[idx] == pytest.approx((fp - fm) / (2 * h), abs=1e-6)
