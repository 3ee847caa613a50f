"""Acceptance suite: twelve go/no-go checks, each printing one PASS/FAIL line.

The numbered criteria mix exact oracles (transition matrices, posteriors,
quantization, file formats), calculus checks (full finite-difference coverage),
arithmetic consistency of the metric conventions, and end-to-end trend checks
on the procedural toy dataset. Run with -s to see the lines as they complete.
"""

import time

import numpy as np
import pytest

from scenediff import denoiser as dn
from scenediff import latent as lat
from scenediff import ssc
from scenediff import vqvae as vq
from scenediff.diffusion import (diffusion_loss, posterior, q_marginal, q_onestep,
                                 sample_field, softmax)
from scenediff.grids import CategoricalField, VoxelGrid, one_hot
from scenediff.metrics import miou_from_per_class
from scenediff.sceneio import load_scene, save_scene
from scenediff.schedule import UniformTransition, make_schedule
from scenediff.toydata import ToySceneParams, generate_toy_dataset, toy_class_table


def report(num: int, name: str, ok: bool) -> bool:
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def toy_dataset():
    params = ToySceneParams(dims=(16, 16, 4), num_classes=5)
    return generate_toy_dataset(params, 200, 123)


def test_criterion_01_transition_matrix_exactness():
    t0 = time.time()
    worst = 0.0
    for kind in ("cosine", "linear"):
        for k in (2, 4, 8, 16):
            trans = UniformTransition(k, make_schedule(kind, 100))
            q = np.eye(k)
            for t in range(1, 101):
                q = q @ trans.single_step_matrix(t)
                worst = max(worst, float(np.max(np.abs(q - trans.cumulative_matrix(t)))))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 10
    assert report(1, f"transition-matrix exactness (err {worst:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_02_forward_marginal_correctness():
    t0 = time.time()
    k, t_max, n = 6, 20, 50_000
    trans = UniformTransition(k, make_schedule("cosine", t_max))
    x0 = VoxelGrid(np.full((n, 1, 1), 2))
    rng = np.random.default_rng(202)
    cur = x0
    worst = 0.0
    for t in range(1, t_max + 1):
        cur = sample_field(q_onestep(one_hot(cur, k), t, trans), rng)
        if t in (1, t_max // 2, t_max):
            freq = np.bincount(cur.labels.ravel(), minlength=k) / n
            expect = q_marginal(one_hot(x0, k), t, trans).flat()[0]
            worst = max(worst, float(np.abs(freq - expect).sum()))
    elapsed = time.time() - t0
    ok = worst < 0.02 and elapsed < 30
    assert report(2, f"forward-marginal correctness (L1 {worst:.4f}, {elapsed:.1f}s)", ok)


def enumerate_posterior(xt_label, p0, t, trans):
    k = trans.num_classes
    qt = trans.single_step_matrix(t)
    qbar_prev = trans.cumulative_matrix(t - 1)
    out = np.zeros(k)
    for m in range(k):
        joint = qbar_prev[m] * qt[:, xt_label]
        out += p0[m] * joint / joint.sum()
    return out


def test_criterion_03_posterior_exactness():
    rng = np.random.default_rng(303)
    worst = worst_norm = 0.0
    pairs = 0
    for k in (2, 3, 4, 5, 6):
        trans = UniformTransition(k, make_schedule("cosine", 20))
        for t in range(2, 21):
            for _ in range(11):
                xt = VoxelGrid(rng.integers(0, k, size=(1, 1, 1)))
                p0 = CategoricalField(rng.dirichlet(np.ones(k)).reshape(1, 1, 1, k))
                post = posterior(xt, p0, t, trans)
                ref = enumerate_posterior(int(xt.labels.ravel()[0]),
                                          p0.probs.reshape(-1), t, trans)
                worst = max(worst, float(np.max(np.abs(post.probs.reshape(-1) - ref))))
                worst_norm = max(worst_norm, abs(float(post.probs.sum()) - 1.0))
                pairs += 1
    ok = pairs >= 1000 and worst < 1e-10 and worst_norm < 1e-9
    assert report(3, f"posterior exactness ({pairs} pairs, err {worst:.2e})", ok)


def test_criterion_04_loss_sanity():
    rng = np.random.default_rng(404)
    trans = UniformTransition(4, make_schedule("cosine", 20))
    ok = True
    perfect_worst = 0.0
    for trial in range(50):
        x0 = VoxelGrid(rng.integers(0, 4, size=(3, 3, 2)))
        t = int(rng.integers(1, 21))
        x_t = sample_field(q_marginal(one_hot(x0, 4), t, trans), rng)
        logits = CategoricalField(rng.normal(size=(3, 3, 2, 4)))
        total, vb, aux = diffusion_loss(x0, t, logits, x_t, 0.3, trans)
        ok &= total >= 0 and vb >= 0 and aux >= 0
        zero_total, zero_vb, _ = diffusion_loss(x0, t, logits, x_t, 0.0, trans)
        ok &= zero_total == zero_vb
        perfect = CategoricalField(np.log(one_hot(x0, 4).probs + 1e-10))
        p_total, _, _ = diffusion_loss(x0, t, perfect, x_t, 0.0, trans)
        perfect_worst = max(perfect_worst, p_total)
    ok &= perfect_worst < 1e-6
    assert report(4, f"loss sanity (perfect-prediction loss {perfect_worst:.1e})", ok)


def test_criterion_05_gradient_fidelity():
    t0 = time.time()
    # denoiser: every parameter, 4x4x2 instance, 64-bit central differences
    config = dn.DenoiserConfig(num_classes=3, in_channels=3, hidden=(5, 7),
                               time_dim=8, time_hidden=10, num_steps=10)
    params = dn.init_params(config, 1)
    rng = np.random.default_rng(505)
    x = rng.random((4, 4, 2, 3))
    up = rng.normal(size=(4, 4, 2, 3))
    _, cache = dn.forward(params, config, x, 4, with_cache=True)
    grads = dn.backward(params, config, cache, up)

    def dn_scalar():
        return float((dn.forward(params, config, x, 4) * up).sum())

    worst_dn = 0.0
    h = 1e-5
    for name, arr in sorted(params.items()):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + h
            fp = dn_scalar()
            arr[i] = orig - h
            fm = dn_scalar()
            arr[i] = orig
            fd = (fp - fm) / (2 * h)
            denom = max(abs(fd), abs(grads[name][i]), 1e-8)
            worst_dn = max(worst_dn, abs(fd - grads[name][i]) / denom)

    # VQ-VAE straight-through on a 4x4x2 instance: the surrogate freezes the
    # code assignment and stop-gradients exactly as the update rule assumes
    vconfig = vq.VQVAEConfig(num_classes=3, num_codes=5, code_dim=3, hidden=4,
                             strides=((2, 2, 1), (2, 2, 2)))
    vparams = vq.init_params(vconfig, 2)
    g = VoxelGrid(rng.integers(0, 3, size=(4, 4, 2)))
    xf = one_hot(g, 3)
    weights = np.linspace(0.5, 1.5, 3)
    z, enc_cache = vq.encode(vparams, vconfig, xf, with_cache=True)
    zq, idx = vq.quantize(vparams["codes"], z)
    logits, dec_cache = vq.decode(vparams, vconfig, zq, with_cache=True)
    *_, dlogits = vq.vqvae_loss(xf, logits, z, zq, weights, vconfig.beta_commit)
    vgrads = vq.vqvae_grads(vparams, vconfig, dlogits, enc_cache, dec_cache, z, zq, idx)

    def vq_scalar():
        zz = vq.encode(vparams, vconfig, xf)
        logits = vq.decode(vparams, vconfig, zz + (zq - z))
        _, recon, *_ = vq.vqvae_loss(xf, logits, zz, zz, weights, 0.0)
        npos = int(np.prod(zz.shape[:3]))
        codebook = float(((vparams["codes"][idx] - z) ** 2).sum()) / npos
        commit = vconfig.beta_commit * float(((zz - zq) ** 2).sum()) / npos
        return recon + codebook + commit

    worst_vq = 0.0
    h = 1e-5
    for name, arr in sorted(vparams.items()):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + h
            fp = vq_scalar()
            arr[i] = orig - h
            fm = vq_scalar()
            arr[i] = orig
            fd = (fp - fm) / (2 * h)
            denom = max(abs(fd), abs(vgrads[name][i]), 1e-7)
            worst_vq = max(worst_vq, abs(fd - vgrads[name][i]) / denom)

    elapsed = time.time() - t0
    ok = worst_dn < 1e-4 and worst_vq < 1e-3 and elapsed < 120
    assert report(5, f"gradient fidelity (denoiser {worst_dn:.1e}, "
                     f"vq {worst_vq:.1e}, {elapsed:.1f}s)", ok)


def test_criterion_06_metric_arithmetic():
    diffusion_row = [96.00, 31.75, 3.42, 25.43, 46.22, 43.32,
                     84.57, 13.01, 67.50, 37.45, 55.46]
    baseline_row = [96.40, 27.72, 3.15, 8.77, 22.15, 37.14,
                    89.02, 18.22, 59.25, 29.74, 47.72]
    a = miou_from_per_class(np.array(diffusion_row) / 100) * 100
    b = miou_from_per_class(np.array(baseline_row) / 100) * 100
    ok = abs(a - 45.83) < 0.01 and abs(b - 39.94) < 0.01
    assert report(6, f"metric arithmetic ({a:.2f} vs 45.83, {b:.2f} vs 39.94)", ok)


def test_criterion_07_quantizer_exactness():
    rng = np.random.default_rng(707)
    checked = 0
    ok = True
    for n in (2, 7, 16, 64):
        codes = rng.normal(size=(n, 5))
        z = rng.normal(size=(2500, 1, 1, 5))
        zq, idx = vq.quantize(codes, z)
        dists = ((z.reshape(-1, 1, 5) - codes[None]) ** 2).sum(axis=-1)
        ok &= np.array_equal(idx.reshape(-1), np.argmin(dists, axis=1))
        zq2, idx2 = vq.quantize(codes, zq)
        ok &= np.array_equal(idx, idx2) and np.array_equal(zq, zq2)
        checked += z.shape[0]
    ok &= checked == 10_000
    assert report(7, f"quantizer exactness ({checked} vectors)", ok)


def test_criterion_08_toy_generation(toy_dataset):
    t0 = time.time()
    trans = UniformTransition(5, make_schedule("cosine", 20))
    config = dn.DenoiserConfig(num_classes=5, in_channels=5, hidden=(16, 32),
                               num_steps=20)
    params, history = dn.train_diffusion(toy_dataset, config, trans, seed=0,
                                         epochs=18, batch_size=8, lr=2e-3, w0=0.01)
    smooth = np.convolve(history, np.ones(3) / 3, mode="valid")
    monotone = bool(np.all(np.diff(smooth) <= 1e-4))

    data_hist = np.zeros(5)
    for g in toy_dataset:
        data_hist += np.bincount(g.labels.ravel(), minlength=5)
    data_hist /= data_hist.sum()

    sample_hist = np.zeros(5)
    fn = dn.as_denoiser_fn(params, config)
    from scenediff.diffusion import sample_loop
    for i in range(64):
        s = sample_loop(fn, (16, 16, 4), trans, np.random.default_rng((7, i)))
        sample_hist += np.bincount(s.labels.ravel(), minlength=5)
    sample_hist /= sample_hist.sum()
    l1 = float(np.abs(sample_hist - data_hist).sum())
    elapsed = time.time() - t0
    ok = monotone and l1 < 0.15 and elapsed < 900
    assert report(8, f"toy generation (hist L1 {l1:.3f}, smoothed-loss monotone "
                     f"{monotone}, {elapsed:.0f}s)", ok)


def test_criterion_09_toy_ssc_comparison(toy_dataset):
    t0 = time.time()
    tasks = ssc.build_tasks(toy_dataset, 0.1, 77)
    trans = UniformTransition(5, make_schedule("cosine", 20))
    config = dn.DenoiserConfig(num_classes=5, in_channels=6, hidden=(16, 32),
                               num_steps=20)
    cond_params, _ = ssc.train_conditional(tasks, config, trans, seed=1,
                                           epochs=12, batch_size=8, lr=2e-3, w0=0.01)
    base_params, _ = ssc.train_baseline(tasks, config, seed=1, epochs=12,
                                        batch_size=8, lr=2e-3)
    methods = {
        "majority": lambda task, rng: ssc.majority_class_predictor(toy_dataset)(task),
        "baseline": lambda task, rng: ssc.baseline_predict(base_params, config,
                                                           task.condition),
        "diffusion": lambda task, rng: ssc.complete(cond_params, config, trans,
                                                    task.condition, rng),
    }
    result = ssc.evaluate(methods, tasks[:20], toy_class_table(5), seed=5)
    print(result.as_text())
    m_diff = result.reports["diffusion"].miou
    m_major = result.reports["majority"].miou
    m_base = result.reports["baseline"].miou
    elapsed = time.time() - t0
    ok = m_diff > m_major and m_diff >= m_base - 0.20 and elapsed < 1800
    assert report(9, f"toy SSC comparison (diffusion {100 * m_diff:.1f} vs "
                     f"majority {100 * m_major:.1f}, baseline {100 * m_base:.1f}, "
                     f"{elapsed:.0f}s)", ok)


def test_criterion_10_latent_speed_trend():
    # resolutions below 4x4x2 are dominated by the per-step codebook-sized
    # matrix work and time out as noise, so the trend is read off the two
    # grid-bound resolutions; the 4x compression row is the voxel comparison
    rep = lat.timing_report((16, 16, 4), 5, [(8, 8, 2), (4, 4, 2)],
                            64, num_steps=20, trials=5)
    print(rep.as_text())
    voxel = rep.rows[0].sample_seconds
    latents = [r.sample_seconds for r in rep.rows[1:]]
    ok = voxel > latents[-1] and all(a >= b for a, b in zip(latents, latents[1:]))
    assert report(10, f"latent speed trend (voxel {voxel:.3f}s vs latent "
                      f"{', '.join(f'{v:.3f}' for v in latents)}s)", ok)


def test_criterion_11_vqvae_ablation_trend():
    data = generate_toy_dataset(ToySceneParams(dims=(16, 16, 4), num_classes=5), 100, 123)
    plans = {
        "8x8x2": ((2, 2, 1), (1, 1, 2)),
        "4x4x2": ((2, 2, 1), (2, 2, 2)),
        "2x2x1": ((4, 4, 2), (2, 2, 2)),
    }
    mious = {}
    improved = True
    for label, strides in plans.items():
        config = vq.VQVAEConfig(num_classes=5, num_codes=32, code_dim=8,
                                hidden=24, strides=strides)
        result = vq.train_vqvae(data, config, seed=0, epochs=12,
                                batch_size=8, lr=3e-3)
        mious[label] = result.history[-1].miou
        improved &= result.history[-1].miou > result.history[0].miou
    ok = improved and mious["8x8x2"] >= mious["4x4x2"] >= mious["2x2x1"]
    assert report(11, "vq-vae ablation trend (mIoU " +
                  ", ".join(f"{k} {v:.3f}" for k, v in mious.items()) + ")", ok)


def test_criterion_12_format_round_trips(tmp_path):
    rng = np.random.default_rng(1212)
    ok = True
    for trial in range(1000):
        k = int(rng.integers(2, 8))
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
        g = VoxelGrid(rng.integers(0, k, size=dims))
        table = toy_class_table(max(k, 4))
        for rle in (False, True):
            path = tmp_path / "scene.vxsc"
            save_scene(g, table, path, rle=rle)
            loaded, lt = load_scene(path)
            ok &= loaded == g and lt.names == table.names

    config = dn.DenoiserConfig(num_classes=4, in_channels=4, hidden=(5, 7),
                               time_dim=8, time_hidden=10, num_steps=10)
    params = dn.init_params(config, 3)
    dn.save_denoiser(tmp_path / "d.vxdn", params, config)
    loaded, lconfig, _ = dn.load_denoiser(tmp_path / "d.vxdn")
    x = rng.random((4, 4, 2, 4))
    ok &= lconfig == config
    ok &= np.array_equal(dn.forward(loaded, lconfig, x, 2),
                         dn.forward(params, config, x, 2))
    assert report(12, "format round-trips (1000 scenes raw+RLE, checkpoint)", ok)
