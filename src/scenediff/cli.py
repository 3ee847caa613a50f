"""Command-line entry point.

Every command is deterministic given its flags (seeds included). Errors print
a single "error: <reason>" line and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import denoiser as dn
from . import latent as lat
from . import ssc as ssc_mod
from . import vqvae as vq
from .config import Triple, convert, load_run_config
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
        if (t.names, t.colors) != (tables[0].names, tables[0].colors):
            raise SceneFormatError(f"{p}: class table differs from that of {paths[0]}")
    return list(scenes), tables[0]


def _transition(cfg, k: int) -> UniformTransition:
    return UniformTransition(k, make_schedule(cfg.schedule, cfg.num_steps))


def _overrides(args) -> dict:
    return {k.strip(): v.strip() for k, _, v in (item.partition("=") for item in args.set or [])}


def _at_least_one(flag: str, value):
    """`value`, an int or a tuple of ints, if each is >= 1; else a ConfigError naming `flag`."""
    if min(np.atleast_1d(value)) < 1:
        raise ConfigError(f"bad value {value!r} for {flag} (expected >= 1)")
    return value


def cmd_gen_data(args):
    dims = _at_least_one("--dims", convert(Triple, args.dims, "--dims"))
    _at_least_one("--scenes", args.scenes)
    params = ToySceneParams(dims=dims, num_classes=args.classes)
    table = toy_class_table(args.classes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(args.scenes):
        g = generate_toy_scene(params, args.seed + i)
        name = f"scene_{i:04d}.vxsc"
        save_scene(g, table, out / name)
        files.append(name)
    manifest = {
        "files": files,
        "dims": list(dims),
        "num_classes": args.classes,
        "seed": args.seed,
        "classes": [{"name": n, "color": list(c)}
                    for n, c in zip(table.names, table.colors)],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(files)} scenes to {out}")


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


def _denoiser_saver(params, config, cfg, **extra):
    """Saver for a diffusion denoiser; records its schedule and w0."""
    extra = dict(schedule=cfg.schedule, w0=cfg.w0, **extra)
    return lambda path: dn.save_denoiser(path, params, config, extra=extra)


@_trainer
def cmd_train_diffusion(args, cfg, scenes, k):
    config = _denoiser_config(cfg, k, k)
    params, _ = dn.train_diffusion(scenes, config, _transition(cfg, k), cfg.seed,
                                   epochs=cfg.epochs, batch_size=cfg.batch_size,
                                   lr=cfg.lr, w0=cfg.w0, log=print)
    return _denoiser_saver(params, config, cfg, epochs=cfg.epochs, mode="unconditional")


@_trainer
def cmd_train_vqvae(args, cfg, scenes, k):
    config = vq.VQVAEConfig(num_classes=k, num_codes=cfg.vq_num_codes,
                            code_dim=cfg.vq_code_dim, hidden=cfg.vq_hidden,
                            strides=cfg.vq_strides, beta_commit=cfg.vq_beta_commit)
    result = vq.train_vqvae(scenes, config, cfg.seed, epochs=cfg.epochs,
                            batch_size=cfg.batch_size, lr=cfg.lr, log=print)
    return lambda path: vq.save_vqvae(path, result, extra={"epochs": cfg.epochs})


@_trainer
def cmd_train_latent(args, cfg, scenes, k):
    vq_result = vq.load_vqvae(args.vqvae)
    params, config, _ = lat.train_latent_denoiser(
        scenes, vq_result, _transition(cfg, vq_result.config.num_codes), cfg.seed,
        epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, w0=cfg.w0,
        hidden=cfg.hidden, log=print)
    return _denoiser_saver(params, config, cfg, mode="latent", vqvae=str(args.vqvae))


@_trainer
def cmd_train_baseline(args, cfg, scenes, k):
    tasks = ssc_mod.build_tasks(scenes, cfg.sparsity_rate, cfg.seed)
    config = _denoiser_config(cfg, k, k + 1)
    params, _ = ssc_mod.train_baseline(tasks, config, cfg.seed, epochs=cfg.epochs,
                                       batch_size=cfg.batch_size, lr=cfg.lr, log=print)
    extra = {"mode": "baseline", "sparsity_rate": cfg.sparsity_rate}
    return lambda path: dn.save_denoiser(path, params, config, extra=extra)


@_trainer
def cmd_train_conditional(args, cfg, scenes, k):
    tasks = ssc_mod.build_tasks(scenes, cfg.sparsity_rate, cfg.seed)
    config = _denoiser_config(cfg, k, k + 1)
    params, _ = ssc_mod.train_conditional(tasks, config, _transition(cfg, k), cfg.seed,
                                          epochs=cfg.epochs, batch_size=cfg.batch_size,
                                          lr=cfg.lr, w0=cfg.w0, log=print)
    return _denoiser_saver(params, config, cfg, mode="conditional",
                           sparsity_rate=cfg.sparsity_rate)


def _load_diffusion(path):
    """(params, config, transition) of a diffusion denoiser checkpoint."""
    params, config, meta = dn.load_denoiser(path)
    if meta.get("mode") == "baseline":
        raise CheckpointError(f"{path} is an SSC baseline, not a diffusion model")
    schedule = make_schedule(meta.get("schedule", "cosine"), config.num_steps)
    return params, config, UniformTransition(config.num_classes, schedule)


def cmd_sample(args):
    dims = _at_least_one("--dims", convert(Triple, args.dims, "--dims"))
    _at_least_one("--count", args.count)
    params, config, trans = _load_diffusion(args.ckpt)
    vq_result = vq.load_vqvae(args.vqvae) if args.vqvae else None
    table = toy_class_table(vq_result.config.num_classes if vq_result else config.num_classes)
    out = Path(args.out)
    for i in range(args.count):
        rng = np.random.default_rng((args.seed, i))
        if vq_result is not None:
            grid = lat.sample_latent(params, config, vq_result, dims, trans, rng)
        else:
            grid = sample_loop(dn.as_denoiser_fn(params, config), dims, trans, rng)
        out.mkdir(parents=True, exist_ok=True)  # once the first sample has passed every check
        save_scene(grid, table, out / f"sample_{i:04d}.vxsc")
    print(f"wrote {args.count} samples to {out}")


def cmd_complete(args):
    params, config, trans = _load_diffusion(args.ckpt)
    condition, _ = load_scene(args.condition)
    rng = np.random.default_rng(args.seed)
    grid = ssc_mod.complete(params, config, trans, condition, rng)
    save_scene(grid, toy_class_table(config.num_classes), args.out)
    print(f"wrote completion to {args.out}")


def cmd_eval(args):
    scenes, table = _load_dataset(args.data)
    tasks = ssc_mod.build_tasks(scenes, args.rate, args.seed)
    methods = {}
    for spec_item in args.methods.split(","):
        name, _, ckpt = spec_item.partition("=")
        name = name.strip()
        if name == "majority":
            methods["majority"] = ssc_mod.majority_class_predictor(scenes)
        elif name == "baseline":
            params, config, meta = dn.load_denoiser(ckpt)
            if meta.get("mode", "baseline") != "baseline":
                raise CheckpointError(f"{ckpt} is not an SSC baseline (mode {meta['mode']})")
            methods["baseline"] = (
                lambda task, rng, p=params, c=config: ssc_mod.baseline_predict(p, c, task.condition))
        elif name == "diffusion":
            params, config, trans = _load_diffusion(ckpt)
            methods["diffusion"] = (
                lambda task, rng, p=params, c=config, tr=trans:
                ssc_mod.complete(p, c, tr, task.condition, rng))
        else:
            raise ConfigError(f"unknown method {name!r}")
    result = ssc_mod.evaluate(methods, tasks, table, seed=args.seed)
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
    g.add_argument("--scenes", type=int, default=100)
    g.add_argument("--dims", default="16x16x4")
    g.add_argument("--classes", type=int, default=5)
    g.add_argument("--seed", type=int, default=0)
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
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sample)

    c = sub.add_parser("complete", help="complete a scene from a sparse condition")
    c.add_argument("--ckpt", required=True)
    c.add_argument("--condition", required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_complete)

    e = sub.add_parser("eval", help="compare completion methods")
    e.add_argument("--methods", required=True,
                   help="comma list: majority, baseline=CKPT, diffusion=CKPT")
    e.add_argument("--data", required=True)
    e.add_argument("--rate", type=float, default=0.1)
    e.add_argument("--seed", type=int, default=0)
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
    except (ConfigError, SceneFormatError, CheckpointError, TrainingDiverged,
            ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
