"""Command-line entry point.

Every command is deterministic given its flags (seeds included). Errors print
a single "error: <reason>" line and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import denoiser as dn
from . import latent as lat
from . import ssc as ssc_mod
from . import vqvae as vq
from .config import Rate, Seed, Size, Triple, convert, load_run_config
from .diffusion import sample_loop
from .errors import CheckpointError, ConfigError, SceneFormatError, TrainingDiverged
from .grids import ClassTable, VoxelGrid
from .sceneio import export_ply, export_slices, load_scene, save_scene
from .schedule import UniformTransition, make_schedule
from .toydata import ToySceneParams, generate_toy_scene, toy_class_table


def _load_dataset(data_dir) -> tuple[list[VoxelGrid], ClassTable]:
    paths = sorted(Path(data_dir).glob("*.vxsc"))
    if not paths:
        raise SceneFormatError(f"no .vxsc scenes in {data_dir}")
    scenes, tables = zip(*(load_scene(p) for p in paths))
    for p, t in zip(paths, tables):
        if t != tables[0]:
            raise SceneFormatError(f"{p}: class table differs from that of {paths[0]}")
    return list(scenes), tables[0]


def _transition(k: int, num_steps: int) -> UniformTransition:
    return UniformTransition(k, make_schedule("cosine", num_steps))


def _overrides(args) -> dict:
    return {k.strip(): v.strip() for k, _, v in (item.partition("=") for item in args.set or [])}


def cmd_gen_data(args):
    params = ToySceneParams(dims=args.dims, num_classes=args.classes)
    count, seed = convert(Size, args.scenes, "--scenes"), convert(Seed, args.seed, "--seed")
    table = toy_class_table(params.num_classes)
    out = Path(args.out)
    for i in range(count):
        g = generate_toy_scene(params, seed + i)
        out.mkdir(parents=True, exist_ok=True)  # once the first scene exists
        save_scene(g, table, out / f"scene_{i:04d}.vxsc")
    print(f"wrote {count} scenes to {out}")


def _trainer(train):
    """A train-* command: `train(args, cfg, scenes, k)` fits a model on scenes of k
    classes and returns a function that saves it. Config, data and report are shared."""

    def cmd(args):
        cfg = load_run_config(args.config, _overrides(args), log=print)
        scenes, table = _load_dataset(args.data)
        train(args, cfg, scenes, table.num_classes)(args.out)
        print(f"saved checkpoint {args.out}")

    return cmd


def _denoiser_config(cfg, k: int, in_channels: int) -> dn.DenoiserConfig:
    return dn.DenoiserConfig(num_classes=k, in_channels=in_channels,
                             hidden=cfg.hidden, num_steps=cfg.num_steps)


def _saver(params, config, mode):
    """Saver for a trained denoiser, with its `mode` extra."""
    return lambda path: dn.save_denoiser(path, params, config, extra={"mode": mode})


@_trainer
def cmd_train_diffusion(args, cfg, scenes, k):
    config = _denoiser_config(cfg, k, k)
    trans = _transition(k, cfg.num_steps)
    params, _ = dn.train_diffusion(scenes, config, trans, cfg.seed, epochs=cfg.epochs,
                                   batch_size=cfg.batch_size, lr=cfg.lr, w0=cfg.w0, log=print)
    return _saver(params, config, "unconditional")


@_trainer
def cmd_train_vqvae(args, cfg, scenes, k):
    config = vq.VQVAEConfig(num_classes=k, num_codes=cfg.vq_num_codes,
                            code_dim=cfg.vq_code_dim, hidden=cfg.vq_hidden,
                            strides=cfg.vq_strides)
    result = vq.train_vqvae(scenes, config, cfg.seed, epochs=cfg.epochs,
                            batch_size=cfg.batch_size, lr=cfg.lr, log=print)
    return lambda path: vq.save_vqvae(path, result)


@_trainer
def cmd_train_latent(args, cfg, scenes, k):
    vq_result = vq.load_vqvae(args.vqvae)
    if (n := vq_result.config.num_classes) != k:
        raise CheckpointError(f"{args.vqvae} has {n} classes; --data has {k}")
    trans = _transition(vq_result.config.num_codes, cfg.num_steps)
    params, config, _ = lat.train_latent_denoiser(
        scenes, vq_result, trans, cfg.seed, epochs=cfg.epochs, batch_size=cfg.batch_size,
        lr=cfg.lr, w0=cfg.w0, hidden=cfg.hidden, log=print)
    return _saver(params, config, "latent")


@_trainer
def cmd_train_baseline(args, cfg, scenes, k):
    tasks = ssc_mod.build_tasks(scenes, cfg.sparsity_rate, cfg.seed)
    config = _denoiser_config(cfg, k, k + 1)
    params, _ = ssc_mod.train_baseline(tasks, config, cfg.seed, epochs=cfg.epochs,
                                       batch_size=cfg.batch_size, lr=cfg.lr, log=print)
    return _saver(params, config, "baseline")


@_trainer
def cmd_train_conditional(args, cfg, scenes, k):
    tasks = ssc_mod.build_tasks(scenes, cfg.sparsity_rate, cfg.seed)
    config = _denoiser_config(cfg, k, k + 1)
    trans = _transition(k, cfg.num_steps)
    params, _ = ssc_mod.train_conditional(tasks, config, trans, cfg.seed, epochs=cfg.epochs,
                                          batch_size=cfg.batch_size, lr=cfg.lr, w0=cfg.w0,
                                          log=print)
    return _saver(params, config, "conditional")


def _load(path, mode, reader, num_classes=None):
    """(params, config, cosine transitions) of a denoiser file for `reader`, which takes only
    `mode` (a file saved through the API has none and passes) and, if given, `num_classes`
    classes. A file whose `schedule` extra names another schedule is refused."""
    params, config, meta = dn.load_denoiser(path)
    if meta.get("mode", mode) != mode:
        raise CheckpointError(f"{path} has mode {meta['mode']}; {reader} takes mode {mode}")
    if meta.get("schedule", "cosine") != "cosine":
        raise CheckpointError(f"{path} was trained under the {meta['schedule']} schedule; "
                              "only cosine is supported, retrain it")
    if num_classes not in (None, config.num_classes):
        raise CheckpointError(f"{path} has {config.num_classes} classes; --data has {num_classes}")
    return params, config, _transition(config.num_classes, config.num_steps)


def cmd_sample(args):
    dims = convert(Triple, args.dims, "--dims")
    count, seed = convert(Size, args.count, "--count"), convert(Seed, args.seed, "--seed")
    params, config, trans = (_load(args.ckpt, "latent", "sample with --vqvae") if args.vqvae
                             else _load(args.ckpt, "unconditional", "sample without --vqvae"))
    vq_result = vq.load_vqvae(args.vqvae) if args.vqvae else None
    table = toy_class_table(vq_result.config.num_classes if vq_result else config.num_classes)
    out = Path(args.out)
    for i in range(count):
        rng = np.random.default_rng((seed, i))
        if vq_result is not None:
            grid = lat.sample_latent(params, config, vq_result, dims, trans, rng)
        else:
            grid = sample_loop(dn.as_denoiser_fn(params, config), dims, trans, rng)
        out.mkdir(parents=True, exist_ok=True)  # once the first sample has passed every check
        save_scene(grid, table, out / f"sample_{i:04d}.vxsc")
    print(f"wrote {count} samples to {out}")


def cmd_complete(args):
    seed = convert(Seed, args.seed, "--seed")
    params, config, trans = _load(args.ckpt, "conditional", "complete")
    table = toy_class_table(config.num_classes)
    condition, _ = load_scene(args.condition)
    rng = np.random.default_rng(seed)
    grid = ssc_mod.complete(params, config, trans, condition, rng)
    save_scene(grid, table, args.out)
    print(f"wrote completion to {args.out}")


def cmd_eval(args):
    seed, rate = convert(Seed, args.seed, "--seed"), convert(Rate, args.rate, "--rate")
    scenes, table = _load_dataset(args.data)
    tasks = ssc_mod.build_tasks(scenes, rate, seed)
    methods = {}
    for item in args.methods.split(","):
        name, eq, ckpt = (part.strip() for part in item.partition("="))
        if name not in ("majority", "baseline", "diffusion"):
            raise ConfigError(f"unknown method {name!r}")
        if name in methods or (eq if name == "majority" else not ckpt):
            raise ConfigError(f"bad --methods item {item.strip()!r}: name each method once, "
                              "as majority, baseline=CKPT or diffusion=CKPT")
        if name == "majority":
            methods[name] = ssc_mod.majority_class_predictor(scenes)
        elif name == "baseline":
            params, config, _ = _load(ckpt, "baseline", "eval baseline=", table.num_classes)
            methods[name] = (
                lambda task, rng, p=params, c=config: ssc_mod.baseline_predict(p, c, task.condition))
        else:
            params, config, trans = _load(ckpt, "conditional", "eval diffusion=", table.num_classes)
            methods[name] = (
                lambda task, rng, p=params, c=config, tr=trans:
                ssc_mod.complete(p, c, tr, task.condition, rng))
    result = ssc_mod.evaluate(methods, tasks, table, seed=seed)
    text = result.as_text()
    print(text)
    Path(str(args.out) + ".txt").write_text(text + "\n")
    result.write_csv(str(args.out) + ".csv")
    print(f"wrote {args.out}.txt and {args.out}.csv")


def cmd_export(args):
    grid, table = load_scene(args.scene)
    if args.format == "ply":
        export_ply(grid, table, args.out)
    else:
        export_slices(grid, table, args.out)
    print(f"exported {args.scene} as {args.format} to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="scenediff",
                                description="Discrete and latent diffusion for 3D voxel scenes")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a procedural toy dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--scenes", default=100)
    g.add_argument("--dims", default="16x16x4")
    g.add_argument("--classes", default=5)
    g.add_argument("--seed", default=0)
    g.set_defaults(fn=cmd_gen_data)

    def train_parser(name, help_, fn, needs_vq=False):
        t = sub.add_parser(name, help=help_)
        t.add_argument("--config", default=None)
        t.add_argument("--data", required=True)
        t.add_argument("--out", required=True)
        if needs_vq:
            t.add_argument("--vqvae", required=True)
        t.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config value (repeatable)")
        t.set_defaults(fn=fn)

    train_parser("train-diffusion", "train the unconditional voxel diffusion model",
                 cmd_train_diffusion)
    train_parser("train-vqvae", "train the VQ-VAE compressor", cmd_train_vqvae)
    train_parser("train-latent", "train the latent index-space diffusion model",
                 cmd_train_latent, needs_vq=True)
    train_parser("train-baseline", "train the discriminative SSC baseline",
                 cmd_train_baseline)
    train_parser("train-conditional", "train the conditional SSC diffusion model",
                 cmd_train_conditional)

    s = sub.add_parser("sample", help="draw unconditional samples")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--vqvae", default=None, help="VQ-VAE checkpoint for latent sampling")
    s.add_argument("--dims", default="16x16x4", help="voxel dims, or latent dims with --vqvae")
    s.add_argument("--count", default=1)
    s.add_argument("--seed", default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sample)

    c = sub.add_parser("complete", help="complete a scene from a sparse condition")
    c.add_argument("--ckpt", required=True)
    c.add_argument("--condition", required=True)
    c.add_argument("--seed", default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_complete)

    e = sub.add_parser("eval", help="compare completion methods")
    e.add_argument("--methods", required=True,
                   help="comma list, each method once: majority, baseline=CKPT, diffusion=CKPT")
    e.add_argument("--data", required=True)
    e.add_argument("--rate", default=0.1)
    e.add_argument("--seed", default=0)
    e.add_argument("--out", required=True, help="output prefix (.txt/.csv appended)")
    e.set_defaults(fn=cmd_eval)

    x = sub.add_parser("export", help="export a scene for visualization")
    x.add_argument("--scene", required=True)
    x.add_argument("--format", choices=["ply", "slices"], default="ply")
    x.add_argument("--out", required=True)
    x.set_defaults(fn=cmd_export)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (SceneFormatError, CheckpointError, TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    except MemoryError as exc:  # numpy's message names the size it asked for
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
