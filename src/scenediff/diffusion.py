"""Exact categorical diffusion: forward marginals, posteriors, losses, sampling.

All probability math runs in float64. Steps are 1-based, t in {1..T}.
"""

from __future__ import annotations

import numpy as np

from .grids import CategoricalField, VoxelGrid, one_hot
from .schedule import UniformTransition

PROB_FLOOR = 1e-12


def q_marginal(x0: CategoricalField, t: int, trans: UniformTransition) -> CategoricalField:
    """Closed-form t-step corruption marginal: abar_t * p0 + (1 - abar_t)/K."""
    trans.schedule._check_t(t)
    a = trans.schedule.alpha_bar_at(t)
    k = trans.num_classes
    return CategoricalField(a * x0.probs + (1.0 - a) / k)


def q_onestep(x_prev: CategoricalField, t: int, trans: UniformTransition) -> CategoricalField:
    """Single-step row action of Q_t: (1 - beta_t) * p + beta_t / K."""
    b = trans.schedule.beta_at(t)
    k = trans.num_classes
    return CategoricalField((1.0 - b) * x_prev.probs + b / k)


def sample_field(field: CategoricalField, rng: np.random.Generator) -> VoxelGrid:
    """Independent per-voxel categorical draws."""
    p = field.flat()
    cdf = np.cumsum(p, axis=-1)
    u = rng.random(p.shape[0]) * cdf[:, -1]
    labels = (u[:, None] >= cdf).sum(axis=-1)
    labels = np.minimum(labels, p.shape[1] - 1)
    return VoxelGrid(labels.reshape(field.dims))


def _uniform_rows(labels: np.ndarray, keep: float, k: int) -> np.ndarray:
    """Rows M[labels] of M = keep * I + (1 - keep)/K 11^T, as a (V, K) array:
    a constant plus one bump at each label."""
    rows = np.full((labels.size, k), (1.0 - keep) / k)
    rows[np.arange(labels.size), labels] += keep
    return rows


def _uniform_mix(x: np.ndarray, keep: float) -> np.ndarray:
    """x @ M for M = keep * I + (1 - keep)/K 11^T. M is symmetric, so this is
    also x @ M^T."""
    out = keep * x
    out += (1.0 - keep) / x.shape[-1] * x.sum(axis=-1, keepdims=True)
    return out


def _posterior_pieces(xt_flat: np.ndarray, t: int, trans: UniformTransition):
    """Closed-form pieces of the reverse-step posterior, O(V*K): the rows
    a = Qt[x_t] and denom = Qbar_t[x_t] (= Qbar_t[:, x_t] by symmetry), and
    alpha_bar_{t-1}, the keep-probability of Qbar_{t-1}."""
    k = trans.num_classes
    a = _uniform_rows(xt_flat, 1.0 - trans.schedule.beta_at(t), k)
    denom = _uniform_rows(xt_flat, trans.schedule.alpha_bar_at(t), k)
    return a, denom, trans.schedule.alpha_bar_at(t - 1)


def _posterior_from(p0: np.ndarray, a: np.ndarray, denom: np.ndarray,
                    abar_prev: float) -> np.ndarray:
    """Normalized posterior rows a * ((p0 / denom) @ Qbar_{t-1})."""
    post = a * _uniform_mix(p0 / denom, abar_prev)
    post /= post.sum(axis=-1, keepdims=True)
    return post


def posterior(x_t: VoxelGrid, x0_dist: CategoricalField, t: int,
              trans: UniformTransition) -> CategoricalField:
    """One reverse-step distribution q(x_{t-1} | x_t, x0~), marginalized over
    the (possibly soft) x0~ prediction.

    Per voxel with observed label c = x_t:
        post_j = Qt[c, j] * sum_m p0_m * Qbar_{t-1}[m, j] / Qbar_t[m, c]
    which is the Bayes posterior for each candidate x0~ = m, weighted by p0_m.

    Every uniform transition is a*I + (1-a)/K 11^T, so the rows of Qt and
    Qbar_t and the product with Qbar_{t-1} are formed in closed form with
    O(V*K) work and memory. The dense K x K matrices of `UniformTransition`
    are the reference oracle the tests check this against.
    """
    if t < 2:
        raise ValueError("posterior requires t >= 2; the t=1 step is the decoder term")
    trans.schedule._check_t(t)
    pieces = _posterior_pieces(x_t.labels.reshape(-1), t, trans)
    post = _posterior_from(x0_dist.flat(), *pieces)
    return CategoricalField(post.reshape(x0_dist.probs.shape))


def kl_categorical(q: np.ndarray, p: np.ndarray) -> float | np.ndarray:
    """KL(q || p) over the last axis, with p floored at 1e-12 and 0 log 0 := 0."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if q.shape[-1] != p.shape[-1]:
        raise ValueError("distribution length mismatch")
    logp = np.log(np.maximum(p, PROB_FLOOR))
    terms = np.where(q > 0, q * (np.log(np.maximum(q, PROB_FLOOR)) - logp), 0.0)
    out = terms.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def weighted_cross_entropy(logits: np.ndarray, target: np.ndarray, weights: np.ndarray):
    """(loss, dlogits): the class-weighted cross-entropy of softmax(logits) against
    `target` probabilities, averaged over voxels, and its gradient."""
    p = softmax(logits)
    wt = weights * target
    loss = float(-np.mean((wt * np.log(np.maximum(p, PROB_FLOOR))).sum(axis=-1)))
    return loss, (p * wt.sum(axis=-1, keepdims=True) - wt) / (target.size // target.shape[-1])


def diffusion_loss_and_grad(x0: VoxelGrid, t: int, model_logits: CategoricalField,
                            x_t: VoxelGrid, w0: float, trans: UniformTransition):
    """Hybrid loss (variational-bound term + w0 * auxiliary cross-entropy),
    averaged over voxels, and its gradient with respect to the logits.

    vb: for t >= 2, KL between the true posterior (one-hot x0) and the posterior
    built from the predicted x0~ distribution; for t = 1, the decoder NLL.
    aux: cross-entropy of the predicted x0~ distribution against x0.
    """
    trans.schedule._check_t(t)
    k = trans.num_classes
    nvox = x0.num_voxels
    x0_flat = x0.labels.reshape(-1)
    logits = model_logits.probs.reshape(-1, k)
    p = softmax(logits)
    p_at_x0 = p[np.arange(nvox), x0_flat]

    # auxiliary term and its gradient in p
    aux = float(np.mean(-np.log(np.maximum(p_at_x0, PROB_FLOOR))))
    mask = p_at_x0 > PROB_FLOOR
    g_aux = np.zeros_like(p)
    g_aux[np.arange(nvox)[mask], x0_flat[mask]] = -1.0 / (nvox * p_at_x0[mask])

    if t == 1:
        vb = aux
        g_p = (1.0 + w0) * g_aux
    else:
        xt_flat = x_t.labels.reshape(-1)
        a, denom, abar_prev = _posterior_pieces(xt_flat, t, trans)
        post_pred = _posterior_from(p, a, denom, abar_prev)
        q_true = _posterior_from(one_hot(x0, k).flat(), a, denom, abar_prev)
        post_floor = np.maximum(post_pred, PROB_FLOOR)
        vb = float(np.mean(
            np.where(q_true > 0, q_true * (np.log(q_true) - np.log(post_floor)), 0.0).sum(axis=-1)
        ))
        # d vb / d p, through post = M p with M[j, m] = a_j qbar_prev[m, j] / denom_m
        # (the final renormalization has zero gradient since sum_j post_j == 1)
        r = np.where(post_pred > PROB_FLOOR, q_true / post_floor, 0.0)
        g_post = -r / nvox
        g_p = _uniform_mix(g_post * a, abar_prev) / denom
        g_p += w0 * g_aux

    total = vb + w0 * aux
    # gradient through the softmax
    dot = (g_p * p).sum(axis=-1, keepdims=True)
    g_logits = p * (g_p - dot)
    return total, vb, aux, CategoricalField(g_logits.reshape(model_logits.probs.shape))


def diffusion_loss(x0: VoxelGrid, t: int, model_logits: CategoricalField,
                   x_t: VoxelGrid, w0: float, trans: UniformTransition):
    """(total, vb_term, aux_term); see diffusion_loss_and_grad."""
    total, vb, aux, _ = diffusion_loss_and_grad(x0, t, model_logits, x_t, w0, trans)
    return total, vb, aux


def reverse_step(x_t: VoxelGrid, t: int, denoiser, trans: UniformTransition,
                 rng: np.random.Generator, condition: VoxelGrid | None = None) -> VoxelGrid:
    """One ancestral reverse step: predict x0~, then draw x_{t-1} from the
    posterior marginalized over it."""
    trans.schedule._check_t(t)
    logits = denoiser(x_t, t, condition)
    p0 = CategoricalField(softmax(logits.probs))
    if t == 1:
        return sample_field(p0, rng)
    return sample_field(posterior(x_t, p0, t, trans), rng)


def sample_loop(denoiser, dims: tuple[int, int, int], trans: UniformTransition,
                rng: np.random.Generator, condition: VoxelGrid | None = None) -> VoxelGrid:
    """Full ancestral sampler: uniform x_T, then reverse steps down to x_0."""
    k = trans.num_classes
    x = VoxelGrid(rng.integers(0, k, size=dims))
    for t in range(trans.schedule.num_steps, 0, -1):
        x = reverse_step(x, t, denoiser, trans, rng, condition)
    return x
