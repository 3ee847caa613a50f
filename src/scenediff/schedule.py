"""Corruption-rate schedules and uniform categorical transition matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class NoiseSchedule:
    """Per-step mixing rates beta_t and cumulative keep-probabilities
    alpha_bar_t = prod_{s<=t} (1 - beta_s), indexed t = 1..T."""

    beta: np.ndarray  # (T,)
    alpha_bar: np.ndarray  # (T,)

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.alpha_bar = np.asarray(self.alpha_bar, dtype=np.float64)
        if self.beta.ndim != 1 or self.beta.shape != self.alpha_bar.shape:
            raise ValueError("beta and alpha_bar must be 1D arrays of equal length")
        if np.any(self.beta <= 0) or np.any(self.beta > 1):
            raise ValueError("beta entries must lie in (0, 1]")
        if np.any(np.diff(self.alpha_bar) >= 0):
            raise ValueError("alpha_bar must be strictly decreasing")

    @property
    def num_steps(self) -> int:
        return self.beta.size

    def beta_at(self, t: int) -> float:
        self._check_t(t)
        return float(self.beta[t - 1])

    def alpha_bar_at(self, t: int) -> float:
        """alpha_bar at step t, with alpha_bar_0 = 1 by convention."""
        if t == 0:
            return 1.0
        self._check_t(t)
        return float(self.alpha_bar[t - 1])

    def _check_t(self, t: int):
        if not (1 <= t <= self.num_steps):
            raise ValueError(f"step {t} outside 1..{self.num_steps}")


def make_schedule(kind: str, num_steps: int) -> NoiseSchedule:
    """Build a schedule; `kind` is "cosine" (default choice) or "linear".

    Cosine: alpha_bar follows the squared-cosine profile with offset s=0.008;
    beta_t = 1 - alpha_bar_t / alpha_bar_{t-1}, clipped to (0, 0.999], and
    alpha_bar recomputed from the clipped betas so the product identity is exact.
    Linear: beta linearly spaced in [1e-4, 0.5].
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    if kind == "cosine":
        s = 0.008
        ts = np.arange(num_steps + 1) / num_steps
        f = np.cos((ts + s) / (1 + s) * np.pi / 2) ** 2
        abar = f / f[0]
        beta = 1.0 - abar[1:] / abar[:-1]
        beta = np.clip(beta, 1e-8, 0.999)
    elif kind == "linear":
        beta = np.linspace(1e-4, 0.5, num_steps)
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    alpha_bar = np.cumprod(1.0 - beta)
    return NoiseSchedule(beta, alpha_bar)


class UniformTransition:
    """Uniform-mixing Markov transitions over K categories.

    Single step: Q_t = (1 - beta_t) I + (beta_t / K) 11^T.
    Cumulative:  Qbar_t = alpha_bar_t I + ((1 - alpha_bar_t) / K) 11^T,
    which equals the explicit product Q_1 ... Q_t.

    The dense K x K matrices are the reference oracle that the tests check
    the runtime path against. The diffusion code never builds them: it uses
    the closed form of rows and products, which costs O(V*K) for V voxels.
    """

    def __init__(self, num_classes: int, schedule: NoiseSchedule):
        if num_classes < 2:
            raise ValueError("need at least 2 classes")
        self.num_classes = num_classes
        self.schedule = schedule

    def single_step_matrix(self, t: int) -> np.ndarray:
        k = self.num_classes
        b = self.schedule.beta_at(t)
        return (1.0 - b) * np.eye(k) + b / k

    def cumulative_matrix(self, t: int) -> np.ndarray:
        """Qbar_t; Qbar_0 is the identity."""
        k = self.num_classes
        a = self.schedule.alpha_bar_at(t)
        return a * np.eye(k) + (1.0 - a) / k
