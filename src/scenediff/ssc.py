"""Semantic scene completion: task synthesis, conditional diffusion training,
the same-architecture discriminative baseline, and the evaluation harness."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import denoiser as dn
from . import nn
from .diffusion import sample_loop, weighted_cross_entropy
from .grids import CategoricalField, ClassTable, VoxelGrid, argmax_decode, one_hot, sparsify
from .metrics import inverse_frequency_weights, report_from_pairs
from .schedule import UniformTransition

BASELINE_TIMESTEP = 0  # fixed embedding input so parameter counts match exactly


@dataclass
class CompletionTask:
    condition: VoxelGrid  # binary partial occupancy
    target: VoxelGrid
    rate: float

    def __post_init__(self):
        if self.condition.dims != self.target.dims:
            raise ValueError("condition and target dims differ")


def build_tasks(dataset, rate: float, seed: int) -> list[CompletionTask]:
    """One task per scene: uniformly retained occupied voxels as the condition."""
    return [CompletionTask(sparsify(g, rate, seed + i), g, rate)
            for i, g in enumerate(dataset)]


def train_conditional(tasks, config: dn.DenoiserConfig, trans: UniformTransition,
                      seed: int, epochs: int = 10, batch_size: int = 8,
                      lr: float = 1e-3, w0: float = 1e-3, log=None):
    """Conditional diffusion training; the occupancy channel rides along every
    forward call. Returns (params, per-epoch mean losses)."""
    if not config.conditioned:
        raise ValueError("conditional training needs a K+1-channel denoiser")
    return dn.fit_diffusion([(task.target, task.condition) for task in tasks], config, trans,
                            seed, epochs, batch_size, lr, w0, log)


def complete(params: dict, config: dn.DenoiserConfig, trans: UniformTransition,
             condition: VoxelGrid, rng: np.random.Generator) -> VoxelGrid:
    """Probabilistic completion: full reverse chain with the condition fixed."""
    return sample_loop(dn.as_denoiser_fn(params, config), condition.dims, trans, rng,
                       condition=condition)


def _baseline_input(condition: VoxelGrid, config: dn.DenoiserConfig) -> np.ndarray:
    x = np.zeros(condition.dims + (config.num_classes,), dtype=np.float64)
    cond = condition.occupancy()[..., None].astype(np.float64)
    return np.concatenate([x, cond], axis=-1)


def train_baseline(tasks, config: dn.DenoiserConfig, seed: int, epochs: int = 10,
                   batch_size: int = 8, lr: float = 1e-3, log=None):
    """Discriminative counterpart: identical architecture, condition-only input,
    cross-entropy against the target weighted by the targets' inverse class
    frequencies."""
    if not config.conditioned:
        raise ValueError("baseline needs the K+1-channel architecture")
    weights = inverse_frequency_weights([t.target for t in tasks], config.num_classes)

    def loss_and_grads(params, task):
        x_in = _baseline_input(task.condition, config)
        logits, cache = dn.forward(params, config, x_in, BASELINE_TIMESTEP, with_cache=True)
        target = one_hot(task.target, config.num_classes).probs
        loss, dlogits = weighted_cross_entropy(logits, target, weights)
        return {"loss": loss}, dn.backward(params, config, cache, dlogits)

    rng = np.random.default_rng(seed)
    return nn.fit(dn.init_params(config, seed), loss_and_grads, tasks, rng,
                  epochs, batch_size, lr, log)


def baseline_predict(params: dict, config: dn.DenoiserConfig,
                     condition: VoxelGrid) -> VoxelGrid:
    """Deterministic inference for the discriminative model."""
    logits = dn.forward(params, config, _baseline_input(condition, config),
                        BASELINE_TIMESTEP)
    return argmax_decode(CategoricalField(logits))


def majority_class_predictor(dataset):
    """Constant predictor emitting the dataset's most frequent label."""
    max_k = max(int(g.labels.max()) for g in dataset) + 1
    hist = np.zeros(max_k, dtype=np.int64)
    for g in dataset:
        hist += np.bincount(g.labels.reshape(-1), minlength=max_k)
    label = int(np.argmax(hist))

    def predict(task: CompletionTask, rng=None) -> VoxelGrid:
        return VoxelGrid(np.full(task.condition.dims, label, dtype=np.int64))

    return predict


@dataclass
class EvaluationResult:
    table: ClassTable
    reports: dict = field(default_factory=dict)  # method -> MetricsReport

    def as_text(self) -> str:
        width = max(len(n) for n in self.table.names) + 2
        header = f"{'method':<22}{'IoU':>8}{'mIoU':>8}  " + "".join(
            f"{n:>{width}}" for n in self.table.names)
        lines = [header]
        for name, rep in self.reports.items():
            cells = "".join(
                f"{'--' if np.isnan(v) else format(100 * v, '.2f'):>{width}}"
                for v in rep.per_class_iou)
            lines.append(f"{name:<22}{100 * rep.completion_iou:>8.2f}"
                         f"{100 * rep.miou:>8.2f}  {cells}")
        return "\n".join(lines)

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["method", "class", "iou"])
            for name, rep in self.reports.items():
                w.writerow([name, "__completion__", f"{rep.completion_iou:.6f}"])
                w.writerow([name, "__miou__", f"{rep.miou:.6f}"])
                for cls, v in zip(self.table.names, rep.per_class_iou):
                    w.writerow([name, cls, "" if np.isnan(v) else f"{v:.6f}"])


def evaluate(methods: dict, tasks, table: ClassTable, seed: int = 0) -> EvaluationResult:
    """Aggregate per-class IoU, mIoU, and completion IoU per method.

    `methods` maps names to callables (task, rng) -> VoxelGrid. Each (method,
    task) pair owns an RNG stream derived from the global seed and the task id,
    so the evaluation is order-invariant.
    """
    if not methods or len(tasks) == 0:
        raise ValueError("need at least one method and one task")
    result = EvaluationResult(table)
    for name, fn in methods.items():
        pairs = ((fn(task, np.random.default_rng((seed, tid))), task.target)
                 for tid, task in enumerate(tasks))
        result.reports[name] = report_from_pairs(pairs, table.num_classes)
    return result
