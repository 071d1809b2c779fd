"""Command-line surface: fuse, eval, label, overlay, augment, report.

Exit codes: 0 on success; 2 on usage errors, which argparse reports (an
unknown or missing required flag, a bad flag value), and on I/O errors
(existing files that cannot be read, corrupt PPT1/PNM/PLY containers, a
worker process that died); 3 on validation errors (a missing input file,
which errors.open_input reports, malformed JSON inputs, no taxonomy or
output directory, bad taxonomy, settings or dimensions, unknown
strategy).  Handlers raise; ``main`` alone maps an error to its code.
Messages go to standard error; verbosity is controlled by the
PARTFUSE_LOG environment variable (error, warn, info, debug).

All commands are deterministic: rerunning with the same inputs and seed
produces byte-identical outputs, and --jobs only changes wall time and
memory.  Batch commands run their items through ``_run_items``: at
--jobs 1 in the calling thread, at --jobs N in forked worker processes.

Each handler imports the modules it runs, so ``--help`` and ``report``
start without numpy and ``fuse`` without the labelling pipelines; it
imports them before ``_run_items`` forks, so a worker imports nothing.
``main`` sets OPENBLAS_NUM_THREADS to 1 unless the caller has set it.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import logging
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import PartfuseError, ValidationError
from .jsonio import decode, read_json, write_json
from .params import STRATEGIES, FusionParams
from .taxonomy import load_taxonomy

if TYPE_CHECKING:
    from .metrics import MetricReport

log = logging.getLogger("partfuse")

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3


@dataclass(frozen=True)
class RunConfig:
    """Settings that a flag or the --config file can give.  A flag beats
    the file and the file beats the default; a subcommand without the flag
    takes the file's value.  The file's values have the JSON types of
    these fields and of FusionParams' fields.  A subcommand with the
    --taxonomy or --out flag requires that setting."""

    taxonomy: Path | None = None
    out: Path | None = None
    strategy: str = "partpanoptic"
    seed: int = 0
    jobs: int = 1
    fusion: FusionParams = FusionParams()
    file: dict = field(default_factory=dict)  # the --config file's JSON object

    def __post_init__(self):
        if self.jobs < 1:
            raise ValidationError(f"jobs must be >= 1, got {self.jobs}")


_SETTINGS = ("taxonomy", "out", "strategy", "seed", "jobs",
             *(f.name for f in fields(FusionParams)))


def _merge_run_config(args) -> RunConfig:
    file = read_json(args.config, dict) if getattr(args, "config", None) else {}
    given = {key: file[key] for key in _SETTINGS if key in file}
    given.update((key, value) for key in _SETTINGS
                 if (value := getattr(args, key, None)) is not None)
    config = decode(RunConfig, given, "run config")
    config = replace(config, fusion=decode(FusionParams, given, "run config"), file=file)
    for key, what in (("taxonomy", "a taxonomy file"), ("out", "an output directory")):
        if hasattr(args, key) and getattr(config, key) is None:
            raise ValidationError(f"{what} is required (--{key})")
    return config


def _directory(raw, what: str) -> Path:
    path = Path(raw)
    if not path.is_dir():
        raise ValidationError(f"{what} not found: {path}")
    return path


def _run_items(
    items, worker, jobs: int, keep_going: bool = False, out_dir: Path | None = None
):
    """Run worker(item, stage) for every item: in the calling thread, or in
    ``min(jobs, len(items))`` worker processes when that is more than one.

    Worker processes are forked once the handler has imported what its
    items run, so a worker pays no import.  Each runs whole items (read,
    compute and staged write) and sends back only worker's result, which
    must pickle.  A ``PartfuseError`` or ``OSError`` reaches the caller
    with its class and message, and a worker that dies raises
    PartfuseError.  Where ``fork`` is not available, the items run in the
    calling thread.

    With ``out_dir``, created here, each item writes its files into its
    own new staging directory ``stage`` under it.  The calling thread then
    moves them into ``out_dir`` with ``os.replace``, item by item in input
    order, so no file there is ever half-written and, where two items
    write the same name, the later item wins.  An item's ``.sem.pgm``
    files go in last, after their destinations are removed, so a commit
    that stops part way leaves each label triple old, new or without its
    ``.sem.pgm``, never mixed.  Without ``out_dir``, ``stage`` is None.

    The first failure in input order stops the run and is raised: later
    items are cancelled or their staged files discarded, so what reaches
    ``out_dir`` does not depend on ``jobs``.  With ``keep_going``, a failed
    item is logged and skipped instead.  Returns ``(results, errors)``:
    the committed items' results and the failed items' errors, in input
    order; each error is a copy, as a worker sends it, with no traceback."""
    items = list(items)
    started = time.perf_counter()
    results: list = []
    errors: list[PartfuseError | OSError] = []
    stage_root = None
    if out_dir is not None:
        from .formats import TRIPLE_SUFFIXES
        out_dir.mkdir(parents=True, exist_ok=True)
        stage_root = Path(tempfile.mkdtemp(prefix=".partfuse-stage-", dir=out_dir))

    def run(index: int):
        stage = Path(tempfile.mkdtemp(dir=stage_root)) if stage_root else None
        return worker(items[index], stage), stage

    try:  # the workers end, with the with block, before the staging root goes
        with _outcomes(run, len(items), min(jobs, len(items))) as outcomes:
            for outcome in outcomes:
                try:
                    result, stage = outcome()
                except (PartfuseError, OSError) as exc:
                    errors.append(copy.copy(exc))
                    if not keep_going:
                        raise
                    log.warning("item failed: %s", exc)
                    continue
                if stage is not None:
                    last = sorted(stage.glob(f"*{TRIPLE_SUFFIXES[0]}"))
                    for path in last:
                        (out_dir / path.name).unlink(missing_ok=True)
                    for path in sorted(set(stage.iterdir()) - set(last)) + last:
                        os.replace(path, out_dir / path.name)
                results.append(result)
    finally:
        if stage_root is not None:
            shutil.rmtree(stage_root, ignore_errors=True)
        skipped = len(items) - len(results) - len(errors)
        log.info("%d ok, %d failed, %d skipped in %.2f s", len(results), len(errors),
                 skipped, time.perf_counter() - started)
    return results, errors


@contextlib.contextmanager
def _outcomes(run, count: int, workers: int):
    """One call per index, in order, that returns ``run(index)`` or raises
    its error: ``run`` itself in the calling thread, or, with more than one
    worker, the outcome of ``run`` in a forked worker process.  On exit
    the workers finish their current items and end."""
    context = None
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
    if context is None:
        yield [functools.partial(run, index) for index in range(count)]
        return
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # run is handed over by fork, not pickled; the workers start at the
    # first submit, before the pool starts a thread of its own
    pool = ProcessPoolExecutor(workers, context, initializer=_adopt, initargs=(run,))
    try:
        yield [pool.submit(_run_adopted, index).result for index in range(count)]
    except BrokenProcessPool as exc:
        raise PartfuseError(f"a worker process died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


_adopted = None  # run(index) of the batch a worker process serves; set in workers only


def _adopt(run) -> None:
    global _adopted
    _adopted = run


def _run_adopted(index: int):
    return _adopted(index)


# ---------------------------------------------------------------- fuse


def cmd_fuse(args, cfg: RunConfig) -> None:
    from . import formats
    from .fusion import check_strategy, fuse

    taxonomy = load_taxonomy(cfg.taxonomy)
    check_strategy(cfg.strategy, taxonomy)
    stems = formats.find_stems(args.inputs, formats.SAMPLE_SUFFIXES)
    if not stems:
        raise ValidationError("no inputs found")

    def work(stem: Path, stage: Path):
        triple = fuse(formats.read_sample(stem, taxonomy), taxonomy, cfg.fusion, cfg.strategy)
        formats.write_label_triple(triple, stage / stem.name)
        log.info("fused %s", stem.name)
        return stem.name

    _run_items(stems, work, cfg.jobs, args.keep_going, cfg.out)


# ---------------------------------------------------------------- eval


def cmd_eval(args, cfg: RunConfig) -> None:
    from . import formats
    from .containers import derive_segments
    from .metrics import aggregate_dataset, match_segments, render_table, report_to_tsv

    taxonomy = load_taxonomy(cfg.taxonomy)
    gt_dir = _directory(args.gt, "ground truth directory")
    stems = [s.name for s in formats.find_stems([gt_dir], formats.TRIPLE_SUFFIXES)]
    if not stems:
        raise ValidationError(f"no label triples in {gt_dir}")

    # every directory is checked, in argument order, before any stem is scored
    pred_dirs = [Path(p) for p in args.pred_dirs]
    for pred_dir in pred_dirs:
        if not pred_dir.is_dir():
            raise ValidationError(f"prediction directory not found: {pred_dir}")
        missing = [s for s in stems if not formats.triple_paths(pred_dir / s)[0].exists()]
        if missing:
            raise ValidationError(f"{pred_dir} is missing predictions for {missing[:5]}")

    def work(stem: str, _stage) -> list:
        """Match every prediction against one ground-truth triple, read
        and validated once.  Each entry is a MatchResult or a copy of the
        error that scoring this directory on its own would have raised first."""
        try:
            gt = formats.read_label_triple(gt_dir / stem)
        except (PartfuseError, OSError) as exc:
            return [copy.copy(exc)] * len(pred_dirs)
        try:
            gt_segments = derive_segments(gt, taxonomy)
            gt_error = None
        except ValidationError as exc:
            gt_error = copy.copy(exc)

        def score(pred_dir: Path):
            # read once, in row tiles, by match_segments, which checks it;
            # its files are closed on return, before the next one is opened
            pred = formats.open_label_triple(pred_dir / stem)
            if gt_error is not None:
                return gt_error
            return match_segments(pred, gt, taxonomy, gt_segments)

        outcomes: list = []
        for pred_dir in pred_dirs:
            try:
                outcomes.append(score(pred_dir))
            except (PartfuseError, OSError) as exc:
                outcomes.append(copy.copy(exc))
        return outcomes

    per_stem, _ = _run_items(stems, work, cfg.jobs)
    rows: list[tuple[str, MetricReport]] = []
    for column, pred_dir in enumerate(pred_dirs):
        matches = [outcomes[column] for outcomes in per_stem]
        error = next((m for m in matches if isinstance(m, BaseException)), None)
        if error is not None:
            raise error
        rows.append((pred_dir.name, aggregate_dataset(matches, taxonomy)))

    tables = [render_table(rows, taxonomy, percent=args.percent, metric=metric)
              for metric in ("pq", "part_pq")]
    sys.stdout.write("\n".join(tables))
    if args.tsv:
        tsv_path = Path(args.tsv)

        def write(row, stage: Path):
            label, report = row
            name = f"{tsv_path.stem}_{label}{tsv_path.suffix}" if len(rows) > 1 else tsv_path.name
            (stage / name).write_text(report_to_tsv(report, taxonomy), encoding="utf-8")

        _run_items(rows, write, 1, out_dir=tsv_path.parent)


# ---------------------------------------------------------------- label


def cmd_label_rgbd(args, cfg: RunConfig) -> None:
    from . import formats
    from .autolabel_rgbd import (check_class_ids, generate_rgbd_sample, load_rgbd_config,
                                 provenance_record)
    from .pointcloud import load_camera, read_ply

    # what the stages import lazily, loaded before --jobs forks its workers
    import scipy.sparse.csgraph  # noqa: F401
    import scipy.spatial  # noqa: F401

    taxonomy = load_taxonomy(cfg.taxonomy)
    label_cfg = replace(load_rgbd_config(cfg.file), seed=cfg.seed)
    check_class_ids(label_cfg, taxonomy)

    scenes = [_directory(s, "scene directory") for s in args.scenes]

    def work(scene: Path, stage: Path):
        rgb = formats.read_pnm(scene / "rgb.ppm")
        cloud = read_ply(scene / "cloud.ply")
        camera = load_camera(scene / "camera.json")
        image, triple = generate_rgbd_sample(rgb, cloud, camera, taxonomy, label_cfg)
        formats.write_pnm(image, stage / f"{scene.name}.ppm")
        formats.write_label_triple(triple, stage / scene.name)
        record = provenance_record(scene.name, cloud, triple, label_cfg)
        write_json(stage / f"{scene.name}.provenance.json", record)
        log.info("labelled scene %s", scene.name)
        return scene.name

    _run_items(scenes, work, cfg.jobs, args.keep_going, cfg.out)


def cmd_label_monitor(args, cfg: RunConfig) -> None:
    from . import formats
    from .autolabel_monitor import (composite_synthetic, extract_part_masks,
                                    extract_reference_mask, load_monitor_config,
                                    provenance_record, transfer_labels)
    from .autolabel_rgbd import check_class_ids
    from .rng import SplitMix64, splitmix64_nth

    # what the stages import lazily, loaded before --jobs forks its workers
    import scipy.ndimage  # noqa: F401

    taxonomy = load_taxonomy(cfg.taxonomy)
    label_cfg = load_monitor_config(cfg.file)
    check_class_ids(label_cfg, taxonomy)
    if args.composites < 0:
        raise ValidationError(f"--composites must be >= 0, got {args.composites}")

    root = _directory(args.dataset_root, "dataset root")
    scenes = sorted(p for p in root.iterdir() if p.is_dir())
    if not scenes:
        raise ValidationError(f"no scene directories under {root}")

    backgrounds: list[Path] = []
    if args.backgrounds:
        bg_dir = _directory(args.backgrounds, "backgrounds directory")
        backgrounds = sorted(bg_dir.glob("*.ppm"))
        if args.composites > 0 and not backgrounds:
            raise ValidationError(f"no PPM backgrounds in {bg_dir}")
    if args.composites > 0 and not backgrounds:
        raise ValidationError("--composites requires --backgrounds")

    def work(item, stage: Path):
        ordinal, scene = item
        img_blue = formats.read_pnm(scene / "blue.ppm")
        img_black = formats.read_pnm(scene / "black.ppm")
        mask = extract_reference_mask(img_blue, img_black, label_cfg)
        reference = extract_part_masks(img_black, mask, label_cfg)

        emitted = []

        def emit(name: str, image, triple) -> None:
            formats.write_pnm(image, stage / f"{name}.ppm")
            formats.write_label_triple(triple, stage / name)
            emitted.append(name)

        for target_path in sorted(scene.glob("target_*.ppm")):
            target = formats.read_pnm(target_path)
            emit(f"{scene.name}_{target_path.stem}", *transfer_labels(reference, target))

        # composites draw backgrounds from a per-scene splitmix64 stream
        rng = SplitMix64(splitmix64_nth(cfg.seed, ordinal + 1))
        for i in range(args.composites):
            bg = formats.read_pnm(backgrounds[rng.below(len(backgrounds))])
            emit(f"{scene.name}_synth_{i:03d}", *composite_synthetic(img_black, reference, bg))

        record = provenance_record(scene.name, cfg.seed, reference, emitted, label_cfg)
        write_json(stage / f"{scene.name}.provenance.json", record)
        log.info("labelled scene %s (%d samples)", scene.name, len(emitted))
        return scene.name

    _run_items(list(enumerate(scenes)), work, cfg.jobs, args.keep_going, cfg.out)


# ---------------------------------------------------------------- overlay


def cmd_overlay(args, cfg: RunConfig) -> None:
    from . import formats
    from .overlay import default_overlay_spec, load_colors, render_overlay

    taxonomy = load_taxonomy(cfg.taxonomy)
    image = formats.read_pnm(args.image)
    triple = formats.read_label_triple(args.triple_stem)
    spec = default_overlay_spec(taxonomy, alpha=args.alpha, draw_boxes=not args.no_boxes)
    if args.colors:
        spec = load_colors(args.colors, spec)
    rendered = render_overlay(image, triple, spec)
    output = Path(args.output)
    _run_items([output], lambda path, stage: formats.write_pnm(rendered, stage / path.name), 1,
               out_dir=output.parent)


# ---------------------------------------------------------------- augment


def cmd_augment(args, cfg: RunConfig) -> None:
    from . import formats
    from .autolabel_monitor import augment_flips

    dataset = _directory(args.dataset, "dataset directory")
    stems = sorted(p.stem for p in dataset.glob("*.ppm"))
    if not stems:
        raise ValidationError(f"no samples in {dataset}")

    def work(stem: str, stage: Path):
        image = formats.read_pnm(dataset / f"{stem}.ppm")
        triple = formats.read_label_triple(dataset / stem)
        for suffix, img, trip in augment_flips(image, triple):
            formats.write_pnm(img, stage / f"{stem}{suffix}.ppm")
            formats.write_label_triple(trip, stage / f"{stem}{suffix}")
        return stem

    _run_items(stems, work, cfg.jobs, args.keep_going, cfg.out)


# ---------------------------------------------------------------- report


def cmd_report(args, cfg: RunConfig) -> None:
    from .metrics import render_table, report_from_tsv

    taxonomy = load_taxonomy(cfg.taxonomy)
    rows = [(Path(p).stem, report_from_tsv(p, taxonomy)) for p in args.tsv_files]
    sys.stdout.write(
        render_table(rows, taxonomy, percent=args.percent, metric="part_pq"))


# ---------------------------------------------------------------- parser


_FLAGS = {
    "taxonomy": {"help": "taxonomy JSON file"},
    "config": {"help": "JSON config file (flags win)"},
    "out": {"help": "output directory"},
    "seed": {"type": int, "help": "PRNG seed"},
    "jobs": {"type": int, "help": "parallel workers"},
    "keep_going": {"action": "store_true", "help": "skip failed items and exit 0"},
    "percent": {"action": "store_true", "help": "display scores as percentages"},
    "strategy": {"choices": STRATEGIES, "help": "fusion strategy (default partpanoptic)"},
    **{f.name: {"type": type(f.default)} for f in fields(FusionParams)},
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Register the shared flags a subcommand reads, and no others."""
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partfuse",
        description="Part-panoptic fusion, PQ/PartPQ evaluation and "
        "unsupervised label generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuse = sub.add_parser("fuse", help="fuse logit tensors into label triples")
    _add_flags(p_fuse, "taxonomy", "config", "out", "jobs", "keep_going", "strategy",
               *(f.name for f in fields(FusionParams)))
    p_fuse.add_argument("inputs", nargs="+", help="sample stems or directories")
    p_fuse.set_defaults(handler=cmd_fuse)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    _add_flags(p_eval, "taxonomy", "config", "jobs", "percent")
    p_eval.add_argument("--gt", required=True, help="ground-truth triple directory")
    p_eval.add_argument("--tsv", help="write a TSV report to this path")
    p_eval.add_argument(
        "pred_dirs", nargs="+", help="prediction directories (one row each)"
    )
    p_eval.set_defaults(handler=cmd_eval)

    p_label = sub.add_parser("label", help="generate training labels")
    label_sub = p_label.add_subparsers(dest="variant", required=True)

    p_rgbd = label_sub.add_parser("rgbd", help="label RGB + point-cloud scenes")
    p_mon = label_sub.add_parser("monitor", help="label monitor-background scenes")
    for p_variant in (p_rgbd, p_mon):  # a labelling run needs its config file
        _add_flags(p_variant, "taxonomy", "out", "seed", "jobs", "keep_going")
        p_variant.add_argument("--config", required=True, **_FLAGS["config"])
    p_rgbd.add_argument("scenes", nargs="+", help="scene directories")
    p_rgbd.set_defaults(handler=cmd_label_rgbd)

    p_mon.add_argument("--backgrounds", help="directory of background PPMs")
    p_mon.add_argument(
        "--composites", type=int, default=0, help="synthetic composites per scene"
    )
    p_mon.add_argument("dataset_root", help="directory of scene_<n> folders")
    p_mon.set_defaults(handler=cmd_label_monitor)

    p_overlay = sub.add_parser("overlay", help="render a colour overlay")
    _add_flags(p_overlay, "taxonomy", "config")
    p_overlay.add_argument("--colors", help="JSON colour table override")
    p_overlay.add_argument("--alpha", type=float, default=0.5)
    p_overlay.add_argument("--no-boxes", action="store_true")
    p_overlay.add_argument("image", help="PPM image")
    p_overlay.add_argument("triple_stem", help="label triple stem")
    p_overlay.add_argument("output", help="output PPM path")
    p_overlay.set_defaults(handler=cmd_overlay)

    p_aug = sub.add_parser("augment", help="write the four flip variants")
    _add_flags(p_aug, "config", "out", "jobs", "keep_going")
    p_aug.add_argument("dataset", help="directory of image + triple samples")
    p_aug.set_defaults(handler=cmd_augment)

    p_report = sub.add_parser("report", help="render TSV reports as a table")
    _add_flags(p_report, "taxonomy", "config", "percent")
    p_report.add_argument("tsv_files", nargs="+", help="TSV reports from eval")
    p_report.set_defaults(handler=cmd_report)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("PARTFUSE_LOG", "warn").lower()
    levels = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    logging.basicConfig(
        stream=sys.stderr,
        level=levels.get(level_name, logging.WARNING),
        format="partfuse: %(levelname)s: %(message)s",
    )


def main(argv=None) -> int:
    # the handlers' numpy and scipy each load an OpenBLAS whose threads
    # would spin idle: nothing here runs multi-threaded BLAS
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args, _merge_run_config(args))
    except ValidationError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except (PartfuseError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
