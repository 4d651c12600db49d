"""Command-line pipeline driver.

Subcommands: preprocess, train, predict, evaluate, raster2points. Every
run writes a key=value manifest next to its artifacts recording the
command, configuration, input digests, seed and timings (and, for
preprocess, train and predict, the peak resident memory and the minor
page faults the command took); artifacts
themselves are bit-reproducible for identical inputs and seeds.

preprocess streams its block store: it tiles the scene at every scale,
then samples one group of blocks at a time as write_block_store writes
them, so it never holds the whole store.
"""

import argparse
import hashlib
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, blocks as blk, infer, io as pio, network, training
from .container import read_container_file, write_container_file


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _peak_rss_mb():
    """The process's resident-memory high-water mark so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 1024)


def _minor_faults():
    """Minor page faults the process has taken so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def write_manifest(path, command, settings, inputs, timings):
    lines = [f"command={command}", f"version={__version__}"]
    for k in sorted(settings):
        lines.append(f"{k}={settings[k]}")
    for p in inputs:
        lines.append(f"digest.{Path(p).name}={_sha256(p)}")
    for k, v in timings.items():
        lines.append(f"timing.{k}={v:.3f}s")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# block store (preprocess output, train input)

# parent indices are stored as float32, which holds every integer up to
# 2^24 exactly
MAX_STORE_POINTS = 2 ** 24


# the files of a store, each written as <name>.partial and renamed into
# place only once every block is written
STORE_FILES = ("points.txt", "blocks.bin", "blocks.manifest")


def write_block_store(out_dir, cloud, all_blocks, scales, n_blocks=None):
    """Write `cloud` and its blocks as a block store in out_dir.

    blocks.bin holds each block's features and parent indices and
    blocks.manifest one MANIFEST_FIELDS line per block; a block's labels
    are its parents' in points.txt, so they are not stored.

    all_blocks is a sequence of blocks, or any iterable of them when
    `n_blocks` gives their count (the container header precedes the first
    payload). Each block is written as it comes and not kept, so an
    iterator such as blocks.sample_scene's keeps one sample group in
    memory, not the store. The files are written under temporary names
    and renamed into place after the last block: a write that fails
    leaves no partial store and any store already in out_dir unchanged.
    The cloud's size is checked before anything is written.
    """
    if len(cloud) > MAX_STORE_POINTS:
        raise ValueError(f"cloud holds {len(cloud)} points; the block store "
                         f"indexes at most {MAX_STORE_POINTS}")
    if n_blocks is None:
        n_blocks = len(all_blocks)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    partial = {name: out_dir / f"{name}.partial" for name in STORE_FILES}
    lines = []

    def tensors():
        # no name holds a block while the next is drawn, which may start a
        # new group: not b, and not enumerate, whose reused result tuple
        # would keep the last one
        for b in all_blocks:
            i = len(lines)
            lines.append(f"{b.scale_id} {b.origin_x!r} {b.origin_y!r} "
                         f"{b.replica}")
            yield f"b{i}.features", b.features
            yield f"b{i}.parent", b.parent_idx.astype(np.float32)
            del b

    try:
        pio.save_points(partial["points.txt"], cloud)
        write_container_file(partial["blocks.bin"], n_blocks, tensors())
        if len(lines) != n_blocks:
            raise ValueError(f"block store given {len(lines)} blocks, "
                             f"not the {n_blocks} declared")
        partial["blocks.manifest"].write_text("\n".join(
            ["scales " + ",".join(map(str, scales))] + lines) + "\n",
            encoding="utf-8")
    except BaseException:
        for path in partial.values():
            path.unlink(missing_ok=True)
        raise
    for name, path in partial.items():
        path.replace(out_dir / name)


# manifest block line: field name and type, in order
MANIFEST_FIELDS = (("scale id", int), ("origin x", float), ("origin y", float),
                   ("replica", int))


def _manifest_fields(i, line):
    """The parsed fields of block i's manifest line; ParseError naming the
    block and the field that does not parse."""
    f = line.split()
    if len(f) != len(MANIFEST_FIELDS):
        raise pio.ParseError(f"block {i}: manifest line {line!r} has {len(f)} "
                             f"fields, not {len(MANIFEST_FIELDS)}")
    out = []
    for (name, kind), text in zip(MANIFEST_FIELDS, f):
        try:
            out.append(kind(text))
        except ValueError:
            raise pio.ParseError(
                f"block {i}: {name} {text!r} is not "
                f"{'an integer' if kind is int else 'a number'} in manifest "
                f"line {line!r}") from None
    return out


def read_block_store(in_dir):
    """The blocks and scales of the store in in_dir. Each block's size is
    its scale's, and its labels are its parents' labels in points.txt
    (None for an unlabeled cloud). ParseError names the first block
    whose manifest line, tensors or parent indices do not fit."""
    in_dir = Path(in_dir)
    # only the labels and the point count are kept, so the text parse's
    # memory is freed before blocks.bin is loaded
    cloud = pio.load_points(in_dir / "points.txt")
    labels, top = cloud.labels, len(cloud) - 1
    del cloud
    _, tensors = read_container_file(in_dir / "blocks.bin")
    lines = (in_dir / "blocks.manifest").read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("scales "):
        raise pio.ParseError("blocks.manifest: missing scales line")
    scales = infer.ScaleConfig.parse(lines[0][len("scales "):])
    entries = lines[1:]
    stored = sum(name.endswith(".features") for name in tensors)
    if len(entries) != stored:
        raise pio.ParseError(f"blocks.manifest lists {len(entries)} blocks but "
                             f"blocks.bin holds {stored}")
    out = []
    for i, line in enumerate(entries):
        features = tensors.get(f"b{i}.features")
        parent = tensors.get(f"b{i}.parent")
        if features is None or parent is None:
            raise pio.ParseError(f"block {i}: tensors missing")
        scale_id, origin_x, origin_y, replica = _manifest_fields(i, line)
        if features.shape[1] != blk.FEATURE_DIM:
            raise pio.ParseError(f"block {i}: features are {features.shape[1]} "
                                 f"columns wide, not {blk.FEATURE_DIM}")
        rows = len(features)
        if parent.size != rows:
            raise pio.ParseError(f"block {i}: {rows} feature rows but "
                                 f"{parent.size} parents")
        scale = scales[scale_id] if 0 <= scale_id < len(scales) else None
        bad = ("scale id" if scale is None else "replica" if replica < 0
               else "row count" if rows != scale.sample_count else None)
        if bad:
            raise pio.ParseError(f"block {i}: bad {bad} in manifest line "
                                 f"{line!r} ({rows} rows; {lines[0]})")
        # stored as float32, each must index the cloud: astype would
        # truncate 2.5 to 2 and let -1 through
        values = parent.reshape(-1).astype(np.float64)
        wrong = ~((values >= 0) & (values <= top) & (values == np.floor(values)))
        if wrong.any():
            r = int(wrong.argmax())
            raise pio.ParseError(f"block {i}: row {r} holds parent "
                                 f"{float(values[r])}, not an integer in "
                                 f"0..{top}")
        parent_idx = values.astype(np.int64)
        out.append(blk.Block(
            origin_x=origin_x, origin_y=origin_y, size=scale.size,
            scale_id=scale_id, features=features, parent_idx=parent_idx,
            labels=None if labels is None else labels[parent_idx],
            replica=replica))
    return out, scales


# ---------------------------------------------------------------------------
# subcommands

def _at_least(flag, value, low):
    """Refuse a setting below `low`, naming its flag."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def cmd_preprocess(args):
    faults = _minor_faults()
    scales = infer.ScaleConfig.parse(args.scales)
    _at_least("--augment", args.augment, 0)
    _at_least("--seed", args.seed, 0)
    t0 = time.perf_counter()
    columns = args.columns.split(",") if args.columns else None
    cloud = pio.load_points(args.points, columns=columns)
    image = pio.read_ppm_image(args.image)
    dtm = None if args.no_dtm else pio.read_ascii_grid(args.dtm)
    t1 = time.perf_counter()
    counts = {"dtm_dropped_nodata": 0, "dtm_dropped_outside": 0}
    cloud = blk.attribute_spectral(cloud, image, counts=counts)
    inputs = [args.points, args.image]
    if dtm is not None:
        cloud = blk.normalize_height(cloud, dtm, counts=counts)
        inputs.append(args.dtm)
    t2 = time.perf_counter()
    # every pair is tiled first: the store's header needs the block count.
    # Blocks are then sampled a group at a time as the store takes them
    tilings = blk.tile_scene(cloud, scales, args.seed,
                             augment_copies=args.augment)
    counts.update(blk.tiling_counts(tilings))
    n_blocks = sum(len(t.footprints) for t in tilings)
    write_block_store(args.out, cloud, blk.sample_scene(tilings, args.seed),
                      scales, n_blocks)
    t3 = time.perf_counter()
    rows = sum(counts[f"scale{i}.rows"] for i in range(len(scales)))
    write_manifest(Path(args.out) / "run_manifest.txt", "preprocess",
                   {"seed": args.seed, "scales": args.scales,
                    "augment": args.augment, "no_dtm": args.no_dtm,
                    "points": len(cloud), "blocks": n_blocks, "rows": rows,
                    "store_bytes": (Path(args.out) / "blocks.bin").stat().st_size,
                    "peak_rss_mb": f"{_peak_rss_mb():.1f}",
                    "minor_faults": _minor_faults() - faults, **counts},
                   inputs, {"load": t1 - t0, "attribution": t2 - t1,
                            "blocking": t3 - t2})
    print(f"preprocess: {len(cloud)} points -> {n_blocks} blocks "
          f"in {args.out}")
    return 0


def cmd_train(args):
    faults = _minor_faults()
    _at_least("--seed", args.seed, 0)
    _at_least("--classes", args.classes, 1)
    config = training.TrainConfig(
        lr_initial=args.lr, batch_size=args.batch, epoch_total=args.epochs,
        patience=args.patience, val_fraction=args.val_fraction, seed=args.seed)
    wanted = infer.ScaleConfig.parse(args.scales) if args.scales else None
    t0 = time.perf_counter()
    all_blocks, store_scales = read_block_store(args.blocks)
    for i, b in enumerate(all_blocks):
        if b.labels is None:
            raise ValueError("training blocks must carry labels")
        over = b.labels >= args.classes
        if over.any():
            r = int(over.argmax())
            raise ValueError(f"block {i}: row {r} has label {b.labels[r]}, "
                             f"not below --classes {args.classes}")
    if wanted is not None:
        missing = [s for s in wanted if s not in store_scales]
        if missing:
            raise ValueError(f"--scales: {missing[0]} is not a stored scale "
                             f"(stored: {','.join(map(str, store_scales))})")
        keep_ids = {i for i, s in enumerate(store_scales) if s in wanted}
        all_blocks = [b for b in all_blocks if b.scale_id in keep_ids]
    cols = blk.FEATURE_SETS[args.features]
    if len(cols) < blk.FEATURE_DIM:
        for b in all_blocks:
            b.features = b.features[:, cols]
    originals = [b for b in all_blocks if b.replica == 0]
    replicas = [b for b in all_blocks if b.replica != 0]
    train_set, val_set = training.stratified_split(
        originals, config.val_fraction, config.seed)
    train_set = training.balance_classes(train_set + replicas)
    t1 = time.perf_counter()
    result = training.fit(train_set, val_set, config, n_classes=args.classes)
    t2 = time.perf_counter()
    # training rows of the completed epochs over those epochs' wall time
    epoch_s = sum(result.epoch_seconds)
    rows = sum(len(b.features) for b in train_set) * len(result.epoch_seconds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    network.save_checkpoint(out / "model.ckpt", result.params)
    (out / "history.csv").write_text(result.history_csv(), encoding="utf-8")
    write_manifest(out / "run_manifest.txt", "train",
                   {"seed": args.seed, "features": args.features,
                    "epochs": args.epochs, "lr": args.lr, "batch": args.batch,
                    "patience": args.patience, "val_fraction": args.val_fraction,
                    "classes": args.classes, "scales": args.scales or "all",
                    "train_blocks": len(train_set), "val_blocks": len(val_set),
                    "best_epoch": result.best_epoch,
                    "parameters": network.param_count(result.params),
                    "diverged": result.diverged,
                    "peak_rss_mb": f"{_peak_rss_mb():.1f}",
                    "minor_faults": _minor_faults() - faults,
                    "step_rows_max": result.step_rows_max,
                    "rows_per_s": f"{rows / epoch_s if epoch_s else 0.0:.1f}",
                    # float32 training bits can depend on BLAS threads
                    **{f"env.{v}": os.environ.get(v, "unset") for v in (
                        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}},
                   [Path(args.blocks) / name for name in STORE_FILES],
                   {"load": t1 - t0, "fit": t2 - t1,
                    "validation": result.validation_seconds,
                    **{f"epoch{i}": s for i, s in enumerate(result.epoch_seconds)}})
    last = result.history[-1] if result.history else None
    print(f"train: best epoch {result.best_epoch}, "
          f"val_loss {last.val_loss:.4f}, val_acc {last.val_acc:.4f}"
          if last else "train: no epochs completed")
    return 0


def cmd_predict(args):
    faults = _minor_faults()
    scales = infer.ScaleConfig.parse(args.scales)
    _at_least("--threads", args.threads, 1)
    _at_least("--seed", args.seed, 0)
    t0 = time.perf_counter()
    cloud = pio.load_points(args.points)
    # prepared in place, each float32 W freed as it is widened: 15.7 MB
    # traced at most for the default network, 20.4 MB if both were kept
    params = network.fold_batch_norm(network.load_checkpoint(args.model))
    t1 = time.perf_counter()
    counts = {}
    labels, probs = infer.predict(cloud, params, scales, seed=args.seed,
                                  threads=args.threads, counts=counts)
    t2 = time.perf_counter()
    pio.save_points(args.out, cloud, labels=labels)
    if args.probs:
        pio.save_values(args.probs, probs)
    write_manifest(str(args.out) + ".manifest", "predict",
                   {"seed": args.seed, "scales": args.scales,
                    "threads": args.threads,
                    "peak_rss_mb": f"{_peak_rss_mb():.1f}",
                    "minor_faults": _minor_faults() - faults,
                    "features": blk.feature_set(params.encoder_specs[0].in_width),
                    "points": len(cloud), **counts},
                   [args.points, args.model],
                   {"load": t1 - t0, "predict": t2 - t1})
    print(f"predict: labeled {len(cloud)} points -> {args.out}")
    return 0


def cmd_evaluate(args):
    _at_least("--classes", args.classes, 1)
    pred = pio.load_points(args.pred)
    truth = pio.load_points(args.truth)
    if not pred.has_labels or not truth.has_labels:
        raise ValueError("both point files must carry labels")
    if len(pred) != len(truth):
        raise ValueError(f"point counts differ: {len(pred)} vs {len(truth)}")
    report = infer.evaluate(pred.labels, truth.labels, n_classes=args.classes)
    Path(args.out).write_text(report.to_csv(), encoding="utf-8")
    print(report.render(), end="")
    return 0


def cmd_raster2points(args):
    dsm = pio.read_ascii_grid(args.dsm)
    image = pio.read_ppm_image(args.image)
    cloud = blk.raster_to_points(dsm, image)
    pio.save_points(args.out, cloud)
    write_manifest(str(args.out) + ".manifest", "raster2points",
                   {"points": len(cloud)}, [args.dsm, args.image], {})
    print(f"raster2points: {len(cloud)} points -> {args.out}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="pointlabel",
        description="semantic labeling of 3D point clouds with a 1D "
                    "fully-convolutional network")
    p.add_argument("--version", action="version", version=__version__)
    default_scales = ",".join(map(str, infer.DEFAULT_SCALES))
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("preprocess", help="attribute, normalize and tile a scene")
    sp.add_argument("--points", required=True)
    sp.add_argument("--image", required=True, help="P3 PPM with .wld sidecar")
    sp.add_argument("--dtm", help="ESRI ASCII grid of terrain heights")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--no-dtm", action="store_true",
                    help="keep absolute heights (skip terrain normalization)")
    sp.add_argument("--scales", default=default_scales)
    sp.add_argument("--augment", type=int, default=0,
                    help="rotated+jittered scene replicas to add")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--columns",
                    help="raw column layout, e.g. x,y,z,-,-,label to skip "
                         "intensity and return-count columns")
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser("train", help="fit the network on preprocessed blocks")
    sp.add_argument("--blocks", required=True, help="preprocess output directory")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--features", choices=sorted(blk.FEATURE_SETS), default="both")
    sp.add_argument("--epochs", type=int, default=30)
    sp.add_argument("--lr", type=float, default=0.001)
    sp.add_argument("--batch", type=int, default=32)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--scales", default="",
                    help="train on this subset of the stored scales")
    sp.add_argument("--patience", type=int, default=3)
    sp.add_argument("--val-fraction", type=float, default=0.25)
    sp.add_argument("--classes", type=int, default=9)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("predict", help="label a preprocessed point file")
    sp.add_argument("--points", required=True,
                    help="point file (spectral columns required unless the "
                         "model is coordinates-only)")
    sp.add_argument("--model", required=True, help="checkpoint file")
    sp.add_argument("--out", required=True, help="labeled output point file")
    sp.add_argument("--scales", default=default_scales)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--probs", help="also write per-class probabilities here")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("evaluate", help="score predicted labels against truth")
    sp.add_argument("--pred", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--out", required=True, help="CSV report path")
    sp.add_argument("--classes", type=int, default=9)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("raster2points",
                        help="restructure DSM+image rasters as a point array")
    sp.add_argument("--dsm", required=True, help="ESRI ASCII grid")
    sp.add_argument("--image", required=True, help="P3 PPM with .wld sidecar")
    sp.add_argument("--out", required=True, help="output point file")
    sp.set_defaults(func=cmd_raster2points)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "preprocess" and not args.no_dtm and not args.dtm:
        parser.error("preprocess needs --dtm unless --no-dtm is given")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
