"""Span tracing for the benchmark, installed from outside the library.

`Tracer.install()` replaces every listed public function with a wrapper that
records one span per call: (name, start, end, parent span, request id).  A
function is replaced in every `scenediff` module that binds it, because
several modules import functions by name (`latent` and `ssc` bind
`diffusion.sample_loop`, `latent` binds `vqvae.encode`, `denoiser` binds
`diffusion.diffusion_loss_and_grad`, and so on); patching only the defining
module would miss those calls.  Methods are replaced on their class.

Spans stay in memory until `write()`.  Self time is a span's duration minus
the durations of its direct children; calls run on one thread, so children
never overlap.  A few layers also get counts computed from their arguments or
results ("computed" metrics: flops, dense elements, bytes); these repeat
exactly for a given seed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

# Layer -> public functions whose calls and self time are reported.
TARGETS = {
    "nn": ["conv3d_same", "conv3d_same_backward", "patch_conv", "patch_conv_backward",
           "patch_deconv", "patch_deconv_backward", "adam_step"],
    "denoiser": ["forward", "backward", "train_step"],
    "diffusion": ["q_marginal", "posterior", "diffusion_loss_and_grad", "sample_field",
                  "reverse_step", "sample_loop"],
    "schedule": ["UniformTransition.single_step_matrix", "UniformTransition.cumulative_matrix"],
    "vqvae": ["encode", "quantize", "decode", "vqvae_grads", "reinit_dead_codes", "train_vqvae"],
    "latent": ["encode_dataset", "train_latent_denoiser", "sample_latent"],
    "ssc": ["train_conditional", "train_baseline", "complete", "baseline_predict", "evaluate"],
    "metrics": ["iou_counts", "inverse_frequency_weights"],
    "grids": ["one_hot", "argmax_decode"],
    "sceneio": ["save_scene", "load_scene", "rle_encode", "rle_decode", "export_ply",
                "export_slices"],
    "checkpoint": ["save_checkpoint", "load_checkpoint"],
}

# Computed count metrics and their units.
COUNTS = {
    "nn.conv3d_same.gflop": "GFLOP",
    "nn.conv3d_same_backward.gflop": "GFLOP",
    "diffusion.posterior.dense_elems": "count",
    "vqvae.codes_used_ratio": "ratio",
    "vqvae.reinit_dead_codes.replaced": "count",
    "sceneio.bytes_written": "B",
    "sceneio.bytes_read": "B",
    "checkpoint.bytes_written": "B",
    "checkpoint.bytes_read": "B",
}


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]


def _conv_gflop(passes):
    def count(args, kwargs, result):
        x, w = args[0], args[1]
        k, cin, cout = w.shape[0], w.shape[3], w.shape[4]
        voxels = int(np.prod(x.shape[:3]))
        return 2.0 * passes * voxels * k ** 3 * cin * cout / 1e9
    return count


def _posterior_elems(args, kwargs, result):
    x_t, x0_dist = args[0], args[1]
    k = x0_dist.probs.shape[-1]
    return x_t.labels.size * k + 3 * k * k


def _size_of(path) -> int:
    return os.path.getsize(path)


# name -> (count metric, counter(args, kwargs, result) -> increment, accumulate?)
# A counter that does not accumulate keeps the value of the last call.
_COUNTERS = {
    "nn.conv3d_same": ("nn.conv3d_same.gflop", _conv_gflop(1), True),
    # backward runs two GEMMs per tap: one for dx, one for dw
    "nn.conv3d_same_backward": ("nn.conv3d_same_backward.gflop", _conv_gflop(2), True),
    "diffusion.posterior": ("diffusion.posterior.dense_elems", _posterior_elems, True),
    "vqvae.reinit_dead_codes": ("vqvae.reinit_dead_codes.replaced",
                                lambda a, kw, r: r[1], True),
    "latent.encode_dataset": (
        "vqvae.codes_used_ratio",
        lambda a, kw, r: np.unique(np.concatenate([g.labels.ravel() for g in r])).size
        / a[0].config.num_codes,
        False),
    "sceneio.save_scene": ("sceneio.bytes_written", lambda a, kw, r: _size_of(a[2]), True),
    "sceneio.export_ply": ("sceneio.bytes_written", lambda a, kw, r: _size_of(a[2]), True),
    "sceneio.export_slices": ("sceneio.bytes_written",
                              lambda a, kw, r: sum(_size_of(p) for p in r), True),
    "sceneio.load_scene": ("sceneio.bytes_read", lambda a, kw, r: _size_of(a[0]), True),
    "checkpoint.save_checkpoint": ("checkpoint.bytes_written",
                                   lambda a, kw, r: _size_of(a[0]), True),
    "checkpoint.load_checkpoint": ("checkpoint.bytes_read",
                                   lambda a, kw, r: _size_of(a[0]), True),
}


class Tracer:
    """Records spans around the library's public functions while installed."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or None, request id)
        self.counts = {name: 0.0 for name in COUNTS}
        self.request = None  # id of the benchmark operation now running
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.request)
            if counter is not None:
                metric, count, accumulate = counter
                value = count(args, kwargs, result)
                self.counts[metric] = self.counts[metric] + value if accumulate else value
            return result

        return wrapper

    def install(self):
        """Wrap every target wherever a loaded `scenediff` module binds it."""
        for layer in TARGETS:
            importlib.import_module(f"scenediff.{layer}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "scenediff" or name.startswith("scenediff.")]
        for layer, fns in TARGETS.items():
            home = importlib.import_module(f"scenediff.{layer}")
            for qualname in fns:
                name = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._undo.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """`<name>.calls` and `<name>.self_s` for every target, plus the counts."""
        calls = {name: 0 for name in span_names()}
        total = {name: 0.0 for name in calls}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            total[name] += end - start - inner
        out = {}
        for name in calls:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (total[name], "s")
        for name, unit in COUNTS.items():
            out[name] = (self.counts[name], unit)
        return out

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one span adds to a call: a wrapped no-op timed against the
        bare no-op.  Times spans by this gives the tracing overhead free of the
        machine's drift between the untraced and traced runs."""
        def noop():
            return None

        wrapped = Tracer()._wrap("probe", noop)
        elapsed = []
        for fn in (noop, wrapped):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            elapsed.append(time.perf_counter() - start)
        return (elapsed[1] - elapsed[0]) / calls

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, request in self.spans:
                f.write(json.dumps({"name": name, "start": start - origin,
                                    "end": end - origin, "parent": parent,
                                    "request": request}) + "\n")
