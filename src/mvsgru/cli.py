"""Command-line front end.

Subcommands cover the whole pipeline: synthesize scene directories, train
the estimator, run inference to depth/confidence maps, fuse those maps
into a point cloud, score a cloud against ground truth, and audit the
operator gradients.

Exit codes: 0 success, 1 bad input (arguments, config files, malformed
artifacts, missing input paths), 2 runtime failure (numerical trouble,
failed checks).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .errors import ConfigError, MvsError, TrainStepError
from .estimator import DepthEstimator
from .fusion import (FuseConfig, fuse, read_ply, write_ply, write_pgm)
from .gradcheck import check_full_loss, run_suite
from .nn import load_checkpoint
from .scenes import (SynthSpec, build_gt_cloud, evaluate, load_pfm, load_scene,
                     save_pfm, save_scene, synth_scene)
from .tensor import no_grad
from .training import TrainConfig, load_train_config, train


def _cmd_synth(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.scenes):
        spec = SynthSpec(seed=args.seed + i, views=args.views,
                         size=args.size, quads=args.quads,
                         background=not args.no_background)
        root = os.path.join(args.out, f"scene_{i:04d}")
        save_scene(synth_scene(spec), root)
        print(f"wrote {root} (seed {spec.seed}, {spec.views} views, "
              f"{spec.size}x{spec.size})")
    return 0


def _scene_roots(path: str) -> list[str]:
    if os.path.exists(os.path.join(path, "pair.txt")):
        return [path]
    subs = sorted(d for d in os.listdir(path)
                  if os.path.exists(os.path.join(path, d, "pair.txt")))
    return [os.path.join(path, d) for d in subs]


def _train_config(args) -> TrainConfig:
    cfg = load_train_config(args.config) if args.config else TrainConfig()
    overrides = {k: getattr(args, k) for k in
                 ("epochs", "iters", "views", "seed", "lr", "batch")
                 if getattr(args, k) is not None}
    return dataclasses.replace(cfg, **overrides)


def _cmd_train(args) -> int:
    roots = _scene_roots(args.scenes)
    if not roots:
        raise MvsError(f"no scene directories under {args.scenes}")
    scenes = [load_scene(r) for r in roots]
    cfg = _train_config(args)
    print(f"training on {len(scenes)} scenes for {cfg.epochs} epochs")
    train(scenes, cfg, args.out, log=print)
    print(f"wrote {os.path.join(args.out, 'model.ckpt')}")
    return 0


def _load_model(args) -> tuple[DepthEstimator, TrainConfig]:
    state = load_checkpoint(args.checkpoint)
    # without --config, the model.cfg that train() wrote next to the
    # checkpoint, which must exist
    sibling = os.path.join(os.path.dirname(args.checkpoint), "model.cfg")
    cfg = load_train_config(args.config or sibling)
    model = DepthEstimator(cfg, np.random.default_rng(0))
    model.load_state(state)
    return model, cfg


def _extraction_plan(scene, refs: list[int],
                     views: int) -> tuple[list[list[int]], dict[int, int]]:
    """What each reference reads, and when each view's features can go.

    Returns, per entry of refs, the view indices its run reads (the
    reference, then its first views - 1 sources), and for every view read
    the position in refs of the last run that reads it.  Every reference is
    checked here, so a bad --ref or --views stops infer before it writes.
    """
    reads, last_reader = [], {}
    for pos, ref in enumerate(refs):
        if not 0 <= ref < len(scene.views):
            raise MvsError(f"reference index {ref} out of range")
        read = [ref] + scene.sources(ref, views - 1)
        if len(read) < 2:
            raise ConfigError(f"view {ref}: need a reference and at least "
                              f"one source view")
        reads.append(read)
        last_reader.update(dict.fromkeys(read, pos))
    return reads, last_reader


def _cmd_infer(args) -> int:
    """Depth and confidence maps for each reference.

    Most views feed several references, so the feature pyramid of each view
    is extracted once, when the first run that reads it comes up, and
    dropped after the last one (see _extraction_plan): only the pyramids
    that later runs still need are held, never the whole scene's.
    """
    scene = load_scene(args.scene)
    model, cfg = _load_model(args)
    iters = cfg.iters if args.iters is None else args.iters
    views = cfg.views if args.views is None else args.views
    refs = args.ref if args.ref else list(range(len(scene.views)))
    reads, last_reader = _extraction_plan(scene, refs, views)
    pyramids = {}
    for pos, (ref, read) in enumerate(zip(refs, reads)):
        with no_grad():
            for j in read:
                if j not in pyramids:
                    pyramids[j] = model.fpn.extract(scene.views[j].image)
            run = model.run([scene.views[j] for j in read], iters=iters,
                            pyramids=[pyramids[j] for j in read])
        for j in read:
            if last_reader[j] == pos:
                pyramids.pop(j)
        os.makedirs(args.out, exist_ok=True)
        save_pfm(os.path.join(args.out, f"depth_{ref:04d}.pfm"),
                 run.d_up.data.astype(np.float32))
        save_pfm(os.path.join(args.out, f"conf_{ref:04d}.pfm"),
                 run.conf_up.data.astype(np.float32))
        if args.prob_csv:
            _write_prob_csv(os.path.join(args.out, f"prob_{ref:04d}.csv"),
                            run.probs[-1].data, run.inv_grid)
        print(f"view {ref:04d}: depth in [{run.d_up.data.min():.4g}, "
              f"{run.d_up.data.max():.4g}], "
              f"mean confidence {run.conf_up.data.mean():.3f}")
    return 0


def _write_prob_csv(path, prob: np.ndarray, inv_grid: np.ndarray) -> None:
    """Quarter-resolution per-sample probabilities, one row per (pixel, j).

    Rows run over y, then x, then j, as CSV lines ending in CRLF.  One
    image row's lines share a template that fixes x, j and the inverse
    depth; y is spliced in and one ``%`` call formats its probabilities.
    """
    d, h, w = prob.shape
    inv = [f"{v:.8g}" for v in inv_grid]
    row = "".join(f"{x},{{y}},{j},{inv[j]},%.8g\r\n"
                  for x in range(w) for j in range(d))
    with open(path, "w", newline="") as f:
        f.write("x,y,j,inverse_depth_j,probability\r\n")
        for y in range(h):
            f.write(row.replace("{y}", str(y))
                    % tuple(prob[:, y, :].T.ravel().tolist()))


def _cmd_fuse(args) -> int:
    cfg = FuseConfig(tau=args.tau, delta=args.delta, eps=args.eps,
                     n_geo=args.ngeo)
    scene = load_scene(args.scene)
    depths, confs = [], []
    for i in range(len(scene.views)):
        depths.append(load_pfm(os.path.join(args.depths, f"depth_{i:04d}.pfm")))
        if not args.no_conf:
            confs.append(load_pfm(os.path.join(args.depths, f"conf_{i:04d}.pfm")))
    cloud, masks = fuse(scene.views, depths, confs or None, cfg)
    write_ply(cloud, args.out)
    kept = sum(int(m.sum()) for m in masks)
    total = sum(m.size for m in masks)
    print(f"kept {kept}/{total} pixels "
          f"({100.0 * kept / max(total, 1):.1f}%), "
          f"wrote {len(cloud)} points to {args.out}")
    if args.masks:
        os.makedirs(args.masks, exist_ok=True)
        for i, m in enumerate(masks):
            write_pgm(os.path.join(args.masks, f"mask_{i:04d}.pgm"), m)
    return 0


def _cmd_eval(args) -> int:
    cloud = read_ply(args.cloud)
    scene = load_scene(args.scene)
    gt = build_gt_cloud(scene, stride=args.stride)
    acc, comp, overall = evaluate(cloud, gt, args.threshold)
    print(f"accuracy {acc:.6f}")
    print(f"completeness {comp:.6f}")
    print(f"overall {overall:.6f}")
    return 0


def _cmd_gradcheck(args) -> int:
    reports = run_suite(instances=args.instances, seed=args.seed)
    bad = 0
    print(f"{'check':<28s} {'margin':>10s}  (|analytic - numeric| / tolerance; < 1 passes)")
    for rep in reports:
        flag = "ok" if rep.passed else "FAIL"
        print(f"{rep.name:<28s} {rep.margin:10.3e}  {flag}")
        bad += not rep.passed
    if args.full:
        margin = check_full_loss()
        flag = "ok" if margin < 1.0 else "FAIL"
        print(f"{'full_loss':<28s} {margin:10.3e}  {flag}")
        bad += flag == "FAIL"
    if bad:
        raise TrainStepError(f"{bad} gradient checks failed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mvsgru",
        description="multi-view stereo with an iterative GRU estimator")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate synthetic scene directories")
    s.add_argument("--out", required=True)
    s.add_argument("--scenes", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--views", type=int, default=5)
    s.add_argument("--size", type=int, default=64)
    s.add_argument("--quads", type=int, default=3)
    s.add_argument("--no-background", action="store_true")
    s.set_defaults(func=_cmd_synth)

    s = sub.add_parser("train", help="fit the estimator on scene directories")
    s.add_argument("--scenes", required=True,
                   help="scene directory, or a directory of scene_* dirs")
    s.add_argument("--out", required=True)
    s.add_argument("--config", help="training config file")
    s.add_argument("--epochs", type=int)
    s.add_argument("--iters", type=int)
    s.add_argument("--views", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--lr", type=float)
    s.add_argument("--batch", type=int)
    s.set_defaults(func=_cmd_train)

    s = sub.add_parser("infer", help="write depth and confidence maps")
    s.add_argument("--scene", required=True)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--config", help="training config (default: model.cfg "
                                    "next to the checkpoint)")
    s.add_argument("--out", required=True)
    s.add_argument("--iters", type=int, help="GRU update count")
    s.add_argument("--views", type=int, help="views per sample incl. ref")
    s.add_argument("--ref", type=int, action="append",
                   help="reference view index (repeatable; default all)")
    s.add_argument("--prob-csv", action="store_true",
                   help="also dump quarter-res probabilities as CSV")
    s.set_defaults(func=_cmd_infer)

    s = sub.add_parser("fuse", help="filter and merge depth maps into a "
                                    "point cloud")
    s.add_argument("--scene", required=True)
    s.add_argument("--depths", required=True, help="directory from infer")
    s.add_argument("--out", required=True, help="output .ply path")
    s.add_argument("--tau", type=float, default=FuseConfig.tau)
    s.add_argument("--delta", type=float, default=FuseConfig.delta)
    s.add_argument("--eps", type=float, default=FuseConfig.eps)
    s.add_argument("--ngeo", type=int, default=FuseConfig.n_geo)
    s.add_argument("--no-conf", action="store_true",
                   help="skip the confidence filter")
    s.add_argument("--masks", help="directory for acceptance masks (PGM)")
    s.set_defaults(func=_cmd_fuse)

    s = sub.add_parser("eval", help="score a point cloud against ground "
                                    "truth")
    s.add_argument("--cloud", required=True)
    s.add_argument("--scene", required=True)
    s.add_argument("--threshold", type=float, default=0.25,
                   help="outlier cap for accuracy is 10x this")
    s.add_argument("--stride", type=int, default=1)
    s.set_defaults(func=_cmd_eval)

    s = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    s.add_argument("--instances", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--full", action="store_true",
                   help="also check the end-to-end training loss")
    s.set_defaults(func=_cmd_gradcheck)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except TrainStepError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MvsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FileNotFoundError, NotADirectoryError) as e:
        print(f"error: {e.strerror.lower()}: {e.filename}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - last-resort exit mapping
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
