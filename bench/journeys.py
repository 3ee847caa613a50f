"""The benchmark's workloads: one user journey each, through the library's
public functions.

A journey trains, generates, evaluates and persists, so every end-to-end
metric has a value on every workload:

* `voxel`  -- voxel-space diffusion and semantic scene completion (SSC) on
  16x16x4 toy scenes with K=5: the shapes of acceptance criteria 08/09.
* `latent` -- the two-stage pipeline with the full-scale codebook (N=1100,
  code dim 11) on the same scenes.

Both persist the same kind of full-scale files: 128x128x8 scenes with 11
classes and thousands of RLE runs, an N=1100 index denoiser and an 11-class
full-scale denoiser, beside the models the journey trains.  Files that big
keep the library's encoding and decoding, not the file system's per-file
cost, in the file timings, and their size does not depend on how well a
model trained on one seed samples.

Library functions are called through their modules, so that the wrappers
tracing.py installs there see the benchmark's own calls too.

Sizes come from `--seconds` through `plan()`, so one seed and one duration
always give the same work and the same quality figures on any commit.  Each
operation checks its own output; a failed check counts as a failed operation.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import scenediff.denoiser as dn
import scenediff.latent as lat
import scenediff.metrics as metrics
import scenediff.sceneio as sceneio
import scenediff.ssc as ssc
import scenediff.toydata as toydata
import scenediff.vqvae as vq
import scenediff.diffusion as diffusion
import scenediff.grids as grids
from scenediff.schedule import UniformTransition, make_schedule

SMALL_DIMS = (16, 16, 4)
NUM_CLASSES = 5
NUM_STEPS = 20
HIDDEN = (16, 32)
BATCH = 8
LR = 2e-3
W0 = 0.01
# Full-scale files: configs/full_scale.cfg dims and classes, with object counts
# raised so that a scene holds thousands of RLE runs.
FULL_SCENE = toydata.ToySceneParams(dims=(128, 128, 8), num_classes=11, num_buildings=60,
                                    num_vehicles=120, num_poles=60)
FULL_DENOISER = dn.DenoiserConfig(num_classes=11, in_channels=11, hidden=(32, 64),
                                  num_steps=100)
CODEBOOK = dict(num_codes=1100, code_dim=11, hidden=32)
INDEX_DENOISER = dn.DenoiserConfig(num_classes=1100, in_channels=1100, hidden=HIDDEN,
                                   num_steps=NUM_STEPS)
LATENT_DIMS = (4, 4, 2)  # SMALL_DIMS under the default VQ-VAE strides
VALIDATION_SCENES = 8
EVAL_CHUNK = 2


@dataclass(frozen=True)
class Plan:
    fit_scenes: int  # training set of the models the journey keeps
    fit_epochs: int
    vq_epochs: int
    rounds: int  # interleaved rounds; one generated sample each
    train_batches: int  # one-batch training loops timed for throughput
    eval_tasks: int
    file_scenes: int
    exports: int
    ckpt_rounds: int


def plan(workload: str, seconds: float) -> Plan:
    """Work sized so that a run measures about `seconds` on two x86-64 cores."""
    f = seconds / 45.0
    full = seconds >= 10

    def n(x, floor=2):
        return max(floor, round(x * f))

    if workload == "voxel":
        return Plan(fit_scenes=BATCH * n(5, 1), fit_epochs=4 if full else 2, vq_epochs=0,
                    rounds=n(80), train_batches=n(14), eval_tasks=EVAL_CHUNK * n(22),
                    file_scenes=n(24), exports=n(8), ckpt_rounds=n(45))
    # the index-space model needs 8 epochs before its quality figures settle
    return Plan(fit_scenes=BATCH * n(6, 1), fit_epochs=8 if full else 2,
                vq_epochs=24 if full else 2, rounds=n(40), train_batches=n(12),
                eval_tasks=n(128), file_scenes=n(24), exports=n(6), ckpt_rounds=n(45))


class Run:
    """Per-operation timings and the attempted/failed tally of one journey."""

    def __init__(self, tracer=None):
        self.times = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = tracer

    def op(self, kind: str, fn, check=None, per: float = 1.0):
        """Time `fn()` and record the time divided by `per` (scenes, tasks or
        Mvox); then apply `check(result)`, where False is a failure."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = f"{kind}#{len(self.times[kind])}"
        start = time.perf_counter()
        result = fn()
        self.times[kind].append((time.perf_counter() - start) / per)
        if check is not None:
            self.expect(check(result), f"{kind} #{len(self.times[kind])}")
        return result

    def expect(self, ok: bool, what: str):
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _finite(history) -> bool:
    """Check a training loop's per-epoch history: losses, or for the VQ-VAE
    (whose loop keeps no losses) per-epoch reconstruction reports."""
    return len(history) > 0 and all(
        np.isfinite(h.miou if isinstance(h, grids.MetricsReport) else h) for h in history)


def _labels_ok(grid: grids.VoxelGrid, dims, k: int) -> bool:
    return (grid.dims == tuple(dims) and grid.labels.min() >= 0
            and grid.labels.max() < k)


def _hist(scenes, k: int) -> np.ndarray:
    h = np.zeros(k)
    for g in scenes:
        h += np.bincount(g.labels.ravel(), minlength=k)
    return h / h.sum()


def _ply_vertices(path) -> int:
    with open(path) as f:
        for line in f:
            if line.startswith("element vertex "):
                return int(line.split()[2])
    return -1


def _same_params(loaded: dict, written: dict) -> bool:
    return loaded.keys() == written.keys() and all(
        np.array_equal(loaded[n], np.asarray(written[n], np.float32).astype(np.float64))
        for n in written)


def setup(workload: str, p: Plan, seed: int) -> dict:
    """Generate every input of a journey from its seed: toy scenes, the
    full-scale scenes it saves and the untrained full-scale denoisers whose
    checkpoints it writes (`latent` trains its own index denoiser)."""
    base = 100_000 * seed
    small = toydata.ToySceneParams(dims=SMALL_DIMS, num_classes=NUM_CLASSES)
    inputs = {
        "train": toydata.generate_toy_dataset(small, p.fit_scenes, base),
        "held_out": toydata.generate_toy_dataset(small, p.eval_tasks, base + 50_000),
        "table": toydata.toy_class_table(NUM_CLASSES),
        "files": toydata.generate_toy_dataset(FULL_SCENE, p.file_scenes, base + 70_000),
        "file_table": toydata.toy_class_table(FULL_SCENE.num_classes),
        "full_params": dn.init_params(FULL_DENOISER, seed),
    }
    if workload == "voxel":
        inputs["index_params"] = dn.init_params(INDEX_DENOISER, seed)
    return inputs


def _rounds(rounds: int, ops: dict):
    """Interleave repeated operations: `ops` maps a name to (count, fn), and
    fn(i) runs for i in range(count), spread evenly over the rounds so that a
    passing slowdown of the machine touches only a few samples of each kind."""
    for r in range(rounds):
        for count, fn in ops.values():
            for i in range(r * count // rounds, (r + 1) * count // rounds):
                fn(i)


def _scene_io(run: Run, scenes, table, work: Path):
    """fn(i): save scene i raw and RLE and read both back."""
    def io(i):
        grid = scenes[i % len(scenes)]
        mvox = grid.num_voxels / 1e6
        for kind in ("rle", "raw"):
            path = work / f"scene_{i}.{kind}.vxsc"
            run.op(f"save_{kind}", lambda: sceneio.save_scene(grid, table, path,
                                                              rle=kind == "rle"), per=mvox)
            run.op(f"load_{kind}", lambda: sceneio.load_scene(path),
                   lambda r: r[0] == grid and r[1].names == table.names
                   and r[1].colors == table.colors, per=mvox)
            path.unlink()
    return io


def _export(run: Run, scenes, table, work: Path):
    """fn(i): export scene i as PLY and as per-layer slices."""
    def export(i):
        grid = scenes[i % len(scenes)]
        ply = work / "scene.ply"

        def both():
            sceneio.export_ply(grid, table, ply)
            return sceneio.export_slices(grid, table, work / "slices")

        paths = run.op("export", both, lambda paths: len(paths) == grid.dims[2]
                       and _ply_vertices(ply) == int(np.count_nonzero(grid.labels)))
        _remove([ply, *paths])
    return export


def _remove(paths):
    """Delete files a timed operation wrote, so that the next one writes new
    files: ext4 starts writeback when a file is truncated and written again,
    which would put the disk into the timings of cached I/O."""
    for path in paths:
        path.unlink()


def _checkpoints(run: Run, models: dict, work: Path):
    """fn(i): save every model of the journey, then load them all back;
    `models` maps a name to (params, save(path, params), load(path) -> params)."""
    def round_trip(i):
        def save_all():
            for name, (params, save, _) in models.items():
                save(work / f"{name}.vxdn", params)

        def load_all():
            return {name: load(work / f"{name}.vxdn") for name, (_, _, load) in models.items()}

        run.op("ckpt_save", save_all)
        run.op("ckpt_load", load_all, lambda loaded: all(
            _same_params(loaded[name], params) for name, (params, _, _) in models.items()))
        _remove(work / f"{name}.vxdn" for name in models)
    return round_trip


def _denoiser_ckpt(config):
    def save(path, params):
        dn.save_denoiser(path, params, config)

    def load(path):
        params, _, _ = dn.load_denoiser(path, config)
        return params

    return save, load


def _persistence(run: Run, p: Plan, inputs: dict, models: dict, work: Path) -> dict:
    """The file operations of a journey, as `_rounds` ops: the full-scale
    scenes saved, loaded and exported, and round trips of the checkpoints of
    `models` together with the full-scale denoiser."""
    files, table = inputs["files"], inputs["file_table"]
    save, load = _denoiser_ckpt(FULL_DENOISER)
    models = dict(models, full=(inputs["full_params"], save, load))
    return {
        "scene_io": (len(files), _scene_io(run, files, table, work)),
        "export": (p.exports, _export(run, files, table, work)),
        "ckpt": (p.ckpt_rounds, _checkpoints(run, models, work)),
    }


def _x0_accuracy(run: Run, params, config, trans, scenes, seed: int) -> float:
    """Share of held-out voxels whose label the trained denoiser predicts
    (argmax of its x0 logits) from x_t, averaged over every timestep; x_t is
    drawn from a fixed stream per (scene, t)."""
    k = config.num_classes
    hits = []
    for i, x0 in enumerate(scenes):
        for t in range(1, trans.schedule.num_steps + 1):
            def predict():
                rng = np.random.default_rng((seed, i, t))
                x_t = diffusion.sample_field(diffusion.q_marginal(grids.one_hot(x0, k), t, trans),
                                             rng)
                logits = dn.forward(params, config, dn.build_input(x_t, config, None), t)
                return grids.argmax_decode(grids.CategoricalField(logits))

            pred = run.op("validate", predict, lambda g: _labels_ok(g, x0.dims, k))
            hits.append(np.mean(pred.labels == x0.labels))
    return float(np.mean(hits))


def _hist_overlap(samples, data, k: int) -> float:
    """Shared mass of the class histograms of the samples and the data
    (1 - total variation distance)."""
    return float(np.minimum(_hist(samples, k), _hist(data, k)).sum())


def _batch(items, i: int):
    """The i-th batch of a training set, wrapping around."""
    start = (BATCH * i) % len(items)
    return (list(items) * 2)[start : start + BATCH]


def voxel(run: Run, p: Plan, inputs: dict, seed: int, work: Path) -> dict:
    data, table, held_out = inputs["train"], inputs["table"], inputs["held_out"]
    trans = UniformTransition(NUM_CLASSES, make_schedule("cosine", NUM_STEPS))
    config = dn.DenoiserConfig(NUM_CLASSES, NUM_CLASSES, hidden=HIDDEN, num_steps=NUM_STEPS)
    cond = dn.DenoiserConfig(NUM_CLASSES, NUM_CLASSES + 1, hidden=HIDDEN, num_steps=NUM_STEPS)
    tasks = ssc.build_tasks(data, 0.1, seed)

    def train(scenes, s, epochs):
        return dn.train_diffusion(scenes, config, trans, s, epochs=epochs, batch_size=BATCH,
                                  lr=LR, w0=W0)

    def train_cond(batch, s, epochs):
        return ssc.train_conditional(batch, cond, trans, s, epochs=epochs, batch_size=BATCH,
                                     lr=LR, w0=W0)

    def train_base(batch, s, epochs):
        return ssc.train_baseline(batch, cond, s, epochs=epochs, batch_size=BATCH, lr=LR)

    def fit(kind, fn, items):
        return run.op(kind, lambda: fn(items, seed, p.fit_epochs), lambda r: _finite(r[1]))[0]

    params = fit("fit", train, data)
    cond_params = fit("fit", train_cond, tasks)
    base_params = fit("fit", train_base, tasks)
    accuracy = _x0_accuracy(run, params, config, trans, held_out[:VALIDATION_SCENES], seed)

    def train_batch(i):
        run.op("train", lambda: train(_batch(data, i), seed + i, 1), lambda r: _finite(r[1]),
               per=BATCH)
        run.op("train", lambda: train_cond(_batch(tasks, i), seed + i, 1),
               lambda r: _finite(r[1]), per=BATCH)
        run.op("recon_train", lambda: train_base(_batch(tasks, i), seed + i, 1),
               lambda r: _finite(r[1]), per=BATCH)

    fn = dn.as_denoiser_fn(params, config)

    def draw(i):
        return diffusion.sample_loop(fn, SMALL_DIMS, trans, np.random.default_rng((seed, i)))

    samples = []

    def sample(i):
        samples.append(run.op("sample", lambda: draw(i),
                              lambda g: _labels_ok(g, SMALL_DIMS, NUM_CLASSES)))

    majority = ssc.majority_class_predictor(data)

    def checked(method):
        def predict(task, rng):
            pred = method(task, rng)
            run.expect(_labels_ok(pred, task.target.dims, NUM_CLASSES), "eval prediction")
            return pred
        return predict

    methods = {
        "majority": checked(lambda task, rng: majority(task)),
        "baseline": checked(lambda task, rng: ssc.baseline_predict(base_params, cond,
                                                                   task.condition)),
        "diffusion": checked(lambda task, rng: ssc.complete(cond_params, cond, trans,
                                                            task.condition, rng)),
    }
    eval_tasks = ssc.build_tasks(held_out, 0.1, seed + 1)
    mious = []

    def evaluate(i):
        chunk = eval_tasks[EVAL_CHUNK * i : EVAL_CHUNK * (i + 1)]
        result = run.op("eval", lambda: ssc.evaluate(methods, chunk, table, seed=seed),
                        lambda r: all(0.0 <= rep.miou <= 1.0 for rep in r.reports.values()),
                        per=len(chunk))
        mious.append(result.reports["diffusion"].miou)

    save, load = _denoiser_ckpt(config)
    save_c, load_c = _denoiser_ckpt(cond)
    save_i, load_i = _denoiser_ckpt(INDEX_DENOISER)
    models = {"diffusion": (params, save, load), "conditional": (cond_params, save_c, load_c),
              "baseline": (base_params, save_c, load_c),
              "index": (inputs["index_params"], save_i, load_i)}
    _rounds(p.rounds, {
        "sample": (p.rounds, sample),
        "train": (p.train_batches, train_batch),
        "eval": (len(eval_tasks) // EVAL_CHUNK, evaluate),
        **_persistence(run, p, inputs, models, work),
    })
    run.op("redraw", lambda: draw(0), lambda g: g == samples[0])
    return {"heldout_x0_acc": accuracy,
            "sample_hist_overlap": _hist_overlap(samples, data, NUM_CLASSES),
            "eval_miou": float(np.mean(mious))}


def latent(run: Run, p: Plan, inputs: dict, seed: int, work: Path) -> dict:
    data, table, held_out = inputs["train"], inputs["table"], inputs["held_out"]
    vq_config = vq.VQVAEConfig(num_classes=NUM_CLASSES, **CODEBOOK)
    n_codes = vq_config.num_codes
    trans = UniformTransition(n_codes, make_schedule("cosine", NUM_STEPS))

    def train_vq(scenes, s, epochs):
        return vq.train_vqvae(scenes, vq_config, s, epochs=epochs, batch_size=BATCH, lr=3e-3)

    vq_result = run.op("fit", lambda: train_vq(data, seed, p.vq_epochs),
                       lambda r: _finite(r.history))
    codes = run.op("encode", lambda: lat.encode_dataset(vq_result, held_out),
                   lambda index: len(index) == len(held_out)
                   and all(_labels_ok(g, LATENT_DIMS, n_codes) for g in index))

    def train(scenes, s, epochs):
        return lat.train_latent_denoiser(scenes, vq_result, trans, s, epochs=epochs,
                                         batch_size=BATCH, lr=LR, w0=W0, hidden=HIDDEN)

    params, config, _ = run.op("fit", lambda: train(data, seed, p.fit_epochs),
                               lambda r: _finite(r[2]))
    accuracy = _x0_accuracy(run, params, config, trans, codes[:VALIDATION_SCENES], seed)

    def train_batch(i):
        run.op("train", lambda: train(_batch(data, i), seed + i, 1), lambda r: _finite(r[2]),
               per=BATCH)
        run.op("recon_train", lambda: train_vq(_batch(data, i), seed + i, 1),
               lambda r: _finite(r.history), per=BATCH)

    def draw(i):
        return lat.sample_latent(params, config, vq_result, LATENT_DIMS, trans,
                                 np.random.default_rng((seed, i)))

    samples = []

    def sample(i):
        samples.append(run.op("sample", lambda: draw(i),
                              lambda g: _labels_ok(g, SMALL_DIMS, NUM_CLASSES)))

    inter = np.zeros(NUM_CLASSES, dtype=np.int64)
    union = np.zeros(NUM_CLASSES, dtype=np.int64)

    def reconstruct(i):
        grid = held_out[i]
        rec = run.op("eval", lambda: vq.reconstruct(vq_result.params, vq_config, grid),
                     lambda g: _labels_ok(g, SMALL_DIMS, NUM_CLASSES))
        i_, u_ = metrics.iou_counts(rec, grid, NUM_CLASSES)
        inter[:] += i_
        union[:] += u_

    save, load = _denoiser_ckpt(config)

    def save_vq(path, params):
        vq.save_vqvae(path, vq.VQVAETrainResult(params, vq_config, vq_result.weights))

    def load_vq(path):
        got = vq.load_vqvae(path)
        return dict(got.params, class_weights=got.weights)

    vq_params = dict(vq_result.params, class_weights=vq_result.weights)
    models = {"index": (params, save, load), "vqvae": (vq_params, save_vq, load_vq)}
    _rounds(p.rounds, {
        "sample": (p.rounds, sample),
        "train": (p.train_batches, train_batch),
        "eval": (len(held_out), reconstruct),
        **_persistence(run, p, inputs, models, work),
    })
    run.op("redraw", lambda: draw(0), lambda g: g == samples[0])
    return {"heldout_x0_acc": accuracy,
            "sample_hist_overlap": _hist_overlap(samples, data, NUM_CLASSES),
            "eval_miou": float(metrics.report_from_counts(inter, union, 1.0).miou)}


JOURNEYS = {"voxel": voxel, "latent": latent}

