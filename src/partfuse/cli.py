"""Command-line surface: fuse, eval, label, overlay, augment, report.

Exit codes: 0 on success, 2 on I/O errors (unreadable files, corrupt
PPT1/PNM/PLY containers), 3 on validation errors (malformed JSON inputs,
missing required inputs, bad taxonomy or dimensions, unknown strategy).
Handlers raise; ``main`` alone maps an error to its code.  Messages go to
standard error; verbosity is controlled by the PARTFUSE_LOG environment
variable (error, warn, info, debug).

All commands are deterministic: rerunning with the same inputs and seed
produces byte-identical outputs, and --jobs only changes wall time.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import formats
from .autolabel_monitor import (
    augment_flips,
    composite_synthetic,
    extract_part_masks,
    extract_reference_mask,
    load_monitor_config,
    transfer_labels,
)
from .autolabel_rgbd import generate_rgbd_sample, load_rgbd_config
from .containers import LogitStack
from .errors import PartfuseError, ValidationError
from .fusion import STRATEGIES, FusionParams, fuse
from .imaging import read_pnm, write_pnm
from .jsonio import decode, read_json
from .metrics import (
    ClassReport,
    MetricReport,
    aggregate_dataset,
    match_segments,
    render_table,
    report_to_tsv,
)
from .overlay import OverlaySpec, default_overlay_spec, render_overlay
from .pointcloud import load_camera, read_ply
from .rng import SplitMix64, splitmix64_nth
from .taxonomy import ClassTaxonomy, load_taxonomy

log = logging.getLogger("partfuse")

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3


@dataclass(frozen=True)
class RunConfig:
    """Settings that a flag or the --config file can give.  A flag beats
    the file and the file beats the default; a subcommand without the flag
    takes the file's value.  The file's values have the JSON types of
    these fields and of FusionParams' fields."""

    taxonomy: Path | None = None
    out: Path | None = None
    strategy: str = "partpanoptic"
    seed: int = 0
    jobs: int = 1
    fusion: FusionParams = FusionParams()
    file: dict = field(default_factory=dict)  # the --config file's JSON object


_SETTINGS = ("taxonomy", "out", "strategy", "seed", "jobs",
             *(f.name for f in fields(FusionParams)))


def _merge_run_config(args) -> RunConfig:
    file = read_json(args.config, dict) if getattr(args, "config", None) else {}
    given = {key: file[key] for key in _SETTINGS if key in file}
    given.update((key, value) for key in _SETTINGS
                 if (value := getattr(args, key, None)) is not None)
    config = decode(RunConfig, given, "run config")
    return replace(config, fusion=decode(FusionParams, given, "run config"), file=file)


def _load_taxonomy_checked(path: Path | None) -> ClassTaxonomy:
    if path is None:
        raise ValidationError("a taxonomy file is required (--taxonomy)")
    return load_taxonomy(path)


def _ensure_out(out: Path | None) -> Path:
    if out is None:
        raise ValidationError("an output directory is required (--out)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_items(
    items, worker, jobs: int, keep_going: bool = False, out_dir: Path | None = None
):
    """Run worker(item, stage) for every item on a pool of ``jobs`` threads.

    With ``out_dir``, each item writes its files into its own new staging
    directory ``stage`` under ``out_dir``.  The calling thread then moves
    them into ``out_dir`` with ``os.replace``, item by item in input order,
    so no file there is ever half-written and, where two items write the
    same name, the later item wins.  Without ``out_dir``, ``stage`` is None.

    The first failure in input order stops the run and is raised: later
    items are cancelled or their staged files discarded, so what reaches
    ``out_dir`` does not depend on ``jobs``.  With ``keep_going``, a failed
    item is logged and skipped instead.  Returns ``(results, errors)``:
    the committed items' results and the skipped items' errors, each in
    input order."""
    items = list(items)
    started = time.perf_counter()
    results: list = []
    errors: list[PartfuseError | OSError] = []
    stage_root = None
    if out_dir is not None:
        stage_root = Path(tempfile.mkdtemp(prefix=".partfuse-stage-", dir=out_dir))

    def run(item):
        stage = Path(tempfile.mkdtemp(dir=stage_root)) if stage_root else None
        return worker(item, stage), stage

    pool = ThreadPoolExecutor(max_workers=max(jobs, 1))
    try:
        for future in [pool.submit(run, item) for item in items]:
            try:
                result, stage = future.result()
            except (PartfuseError, OSError) as exc:
                errors.append(exc)
                if not keep_going:
                    raise
                log.warning("item failed: %s", exc)
                continue
            if stage is not None:
                for path in sorted(stage.iterdir()):
                    os.replace(path, out_dir / path.name)
            results.append(result)
    finally:
        pool.shutdown(cancel_futures=True)
        if stage_root is not None:
            shutil.rmtree(stage_root, ignore_errors=True)
        skipped = len(items) - len(results) - len(errors)
        log.info("%d ok, %d failed, %d skipped in %.2f s", len(results), len(errors),
                 skipped, time.perf_counter() - started)
    return results, errors


# ---------------------------------------------------------------- fuse


def _discover_stems(inputs: list[str], suffix: str) -> list[Path]:
    stems: list[Path] = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.glob(f"*{suffix}"))
            stems.extend(Path(str(p)[: -len(suffix)]) for p in found)
        elif str(path).endswith(suffix):
            stems.append(Path(str(path)[: -len(suffix)]))
        else:
            stems.append(path)
    return stems


def cmd_fuse(args) -> None:
    cfg = _merge_run_config(args)
    if cfg.strategy not in STRATEGIES:
        raise ValidationError(
            f"unknown strategy {cfg.strategy!r}; expected one of {STRATEGIES}"
        )
    taxonomy = _load_taxonomy_checked(cfg.taxonomy)
    out_dir = _ensure_out(cfg.out)
    stems = _discover_stems(args.inputs, ".sem.ppt1")
    if not stems:
        raise ValidationError("no inputs found")
    for stem in stems:
        for suffix in (".sem.ppt1", ".part.ppt1", ".proposals.json"):
            if not Path(str(stem) + suffix).exists():
                raise ValidationError(f"missing input file {stem}{suffix}")

    def work(stem: Path, stage: Path):
        sem = formats.read_tensor(str(stem) + ".sem.ppt1")
        part = formats.read_tensor(str(stem) + ".part.ppt1")
        proposals = formats.read_proposals(str(stem) + ".proposals.json")
        if sem.ndim != 3 or part.ndim != 3:
            raise ValidationError(f"{stem}: logit tensors must be rank 3")
        stack = LogitStack(
            semantic_logits=sem,
            part_logits=part,
            semantic_channel_ids=taxonomy.semantic_ids,
            part_channel_ids=taxonomy.part_ids,
            instance_proposals=proposals,
        )
        triple = fuse(stack, taxonomy, cfg.fusion, cfg.strategy)
        formats.write_label_triple(triple, stage / stem.name)
        log.info("fused %s", stem.name)
        return stem.name

    _run_items(stems, work, cfg.jobs, args.keep_going, out_dir)


# ---------------------------------------------------------------- eval


def _triple_stems(directory: Path) -> list[str]:
    return sorted(p.name[: -len(".sem.pgm")] for p in directory.glob("*.sem.pgm"))


def cmd_eval(args) -> None:
    cfg = _merge_run_config(args)
    taxonomy = _load_taxonomy_checked(cfg.taxonomy)
    gt_dir = Path(args.gt)
    if not gt_dir.is_dir():
        raise ValidationError(f"ground truth directory not found: {gt_dir}")
    stems = _triple_stems(gt_dir)
    if not stems:
        raise ValidationError(f"no label triples in {gt_dir}")

    # Directories are checked in argument order; the first bad one is
    # reported only after the directories before it have been scored.
    pred_dirs: list[Path] = []
    dir_error: ValidationError | None = None
    for pred_raw in args.pred_dirs:
        pred_dir = Path(pred_raw)
        if not pred_dir.is_dir():
            dir_error = ValidationError(f"prediction directory not found: {pred_dir}")
            break
        missing = [s for s in stems if not (pred_dir / f"{s}.sem.pgm").exists()]
        if missing:
            dir_error = ValidationError(
                f"{pred_dir} is missing predictions for {missing[:5]}"
            )
            break
        pred_dirs.append(pred_dir)

    def work(stem: str, _stage) -> list:
        """Match every prediction against one ground-truth triple, read
        and validated once.  Each entry is a MatchResult or the error that
        scoring this directory on its own would have raised first."""
        try:
            gt = formats.read_label_triple(gt_dir / stem)
        except (PartfuseError, OSError) as exc:
            return [exc] * len(pred_dirs)
        try:
            gt.validate(taxonomy)
            gt_error = None
        except ValidationError as exc:
            gt_error = exc
        outcomes: list = []
        for pred_dir in pred_dirs:
            try:
                pred = formats.read_label_triple(pred_dir / stem)
                if gt_error is None:
                    pred.validate(taxonomy)
                    outcomes.append(match_segments(pred, gt, taxonomy))
                else:
                    outcomes.append(gt_error)
            except (PartfuseError, OSError) as exc:
                outcomes.append(exc)
        return outcomes

    per_stem, _ = _run_items(stems if pred_dirs else [], work, cfg.jobs)
    rows: list[tuple[str, MetricReport]] = []
    for column, pred_dir in enumerate(pred_dirs):
        matches = [outcomes[column] for outcomes in per_stem]
        error = next((m for m in matches if isinstance(m, BaseException)), None)
        if error is not None:
            raise error
        rows.append((pred_dir.name, aggregate_dataset(matches, taxonomy)))
    if dir_error is not None:
        raise dir_error

    sys.stdout.write(
        render_table(rows, taxonomy, percent=args.percent, metric="pq", corner="PQ")
    )
    sys.stdout.write("\n")
    sys.stdout.write(
        render_table(
            rows, taxonomy, percent=args.percent, metric="part_pq", corner="PartPQ"
        )
    )
    if args.tsv:
        tsv_path = Path(args.tsv)

        def write(row, stage: Path):
            label, report = row
            name = f"{tsv_path.stem}_{label}{tsv_path.suffix}" if len(rows) > 1 else tsv_path.name
            (stage / name).write_text(report_to_tsv(report, taxonomy), encoding="utf-8")

        _run_items(rows, write, 1, out_dir=tsv_path.parent)


# ---------------------------------------------------------------- label


def _write_provenance(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_label_rgbd(args) -> None:
    cfg = _merge_run_config(args)
    taxonomy = _load_taxonomy_checked(cfg.taxonomy)
    out_dir = _ensure_out(cfg.out)
    if not getattr(args, "config", None):
        raise ValidationError("label rgbd requires --config")
    label_cfg = replace(load_rgbd_config(cfg.file), seed=cfg.seed)

    scenes = [Path(s) for s in args.scenes]
    for scene in scenes:
        if not scene.is_dir():
            raise ValidationError(f"scene directory not found: {scene}")

    def work(scene: Path, stage: Path):
        for name in ("rgb.ppm", "cloud.ply", "camera.json"):
            if not (scene / name).exists():
                raise ValidationError(f"{scene} is missing {name}")
        rgb = read_pnm(scene / "rgb.ppm")
        cloud = read_ply(scene / "cloud.ply")
        camera = load_camera(scene / "camera.json")
        image, triple = generate_rgbd_sample(rgb, cloud, camera, taxonomy, label_cfg)
        stem = stage / scene.name
        write_pnm(image, stem.with_suffix(".ppm"))
        formats.write_label_triple(triple, stem)
        _write_provenance(
            stem.with_suffix(".provenance.json"),
            {
                "variant": "rgbd",
                "scene": scene.name,
                "seed": label_cfg.seed,
                "points": len(cloud),
                "instances": int(triple.instance_map.max()),
                "non_void_pixels": int((triple.semantic_map != 0).sum()),
                "params": {
                    "ransac_iterations": label_cfg.ransac_iterations,
                    "ransac_threshold": label_cfg.ransac_threshold,
                    "cluster_radius": label_cfg.cluster_radius,
                    "cluster_min_points": label_cfg.cluster_min_points,
                    "knn_k": label_cfg.knn_k,
                    "max_pixel_radius": label_cfg.max_pixel_radius,
                },
            },
        )
        log.info("labelled scene %s", scene.name)
        return scene.name

    _run_items(scenes, work, cfg.jobs, args.keep_going, out_dir)


def cmd_label_monitor(args) -> None:
    cfg = _merge_run_config(args)
    taxonomy = _load_taxonomy_checked(cfg.taxonomy)
    out_dir = _ensure_out(cfg.out)
    if not getattr(args, "config", None):
        raise ValidationError("label monitor requires --config")
    label_cfg = load_monitor_config(cfg.file)

    root = Path(args.dataset_root)
    if not root.is_dir():
        raise ValidationError(f"dataset root not found: {root}")
    scenes = sorted(p for p in root.iterdir() if p.is_dir())
    if not scenes:
        raise ValidationError(f"no scene directories under {root}")

    backgrounds: list[Path] = []
    if args.backgrounds:
        bg_dir = Path(args.backgrounds)
        if not bg_dir.is_dir():
            raise ValidationError(f"backgrounds directory not found: {bg_dir}")
        backgrounds = sorted(bg_dir.glob("*.ppm"))
        if args.composites > 0 and not backgrounds:
            raise ValidationError(f"no PPM backgrounds in {bg_dir}")
    if args.composites > 0 and not backgrounds:
        raise ValidationError("--composites requires --backgrounds")

    indexed = list(enumerate(scenes))

    def work(item, stage: Path):
        ordinal, scene = item
        for name in ("blue.ppm", "black.ppm"):
            if not (scene / name).exists():
                raise ValidationError(f"{scene} is missing {name}")
        img_blue = read_pnm(scene / "blue.ppm")
        img_black = read_pnm(scene / "black.ppm")
        mask = extract_reference_mask(img_blue, img_black, label_cfg)
        reference = extract_part_masks(img_blue, img_black, mask, label_cfg, taxonomy)

        emitted = []
        for target_path in sorted(scene.glob("target_*.ppm")):
            target = read_pnm(target_path)
            image, triple = transfer_labels(reference, target, taxonomy)
            stem = stage / f"{scene.name}_{target_path.stem}"
            write_pnm(image, stem.with_suffix(".ppm"))
            formats.write_label_triple(triple, stem)
            emitted.append(stem.name)

        # composites draw backgrounds from a per-scene splitmix64 stream
        rng = SplitMix64(splitmix64_nth(cfg.seed, ordinal + 1))
        for i in range(args.composites):
            bg = read_pnm(backgrounds[rng.below(len(backgrounds))])
            image, triple = composite_synthetic(img_black, reference, bg)
            stem = stage / f"{scene.name}_synth_{i:03d}"
            write_pnm(image, stem.with_suffix(".ppm"))
            formats.write_label_triple(triple, stem)
            emitted.append(stem.name)

        _write_provenance(
            stage / f"{scene.name}.provenance.json",
            {
                "variant": "monitor",
                "scene": scene.name,
                "seed": cfg.seed,
                "instances": int(reference.instance_grid.max()),
                "object_pixels": reference.object_mask.count(),
                "samples": emitted,
                "params": {
                    "closing_window": label_cfg.closing_window,
                    "quantize_levels": label_cfg.quantize_levels,
                    "min_component_area": label_cfg.min_component_area,
                },
            },
        )
        log.info("labelled scene %s (%d samples)", scene.name, len(emitted))
        return scene.name

    _run_items(indexed, work, cfg.jobs, args.keep_going, out_dir)


# ---------------------------------------------------------------- overlay


def _overlay_spec_from_args(args, taxonomy) -> OverlaySpec:
    alpha = args.alpha if args.alpha is not None else 0.5
    spec = default_overlay_spec(taxonomy, alpha=alpha, draw_boxes=not args.no_boxes)
    if args.colors:
        path = Path(args.colors)
        raw = read_json(path, dict)
        spec = OverlaySpec(
            class_colors={**spec.class_colors, **_color_table(raw, "class_colors", path)},
            part_colors={**spec.part_colors, **_color_table(raw, "part_colors", path)},
            draw_boxes=spec.draw_boxes,
            alpha=spec.alpha,
        )
    return spec


def _color_table(raw: dict, name: str, path: Path) -> dict[int, tuple[int, int, int]]:
    """``raw[name]`` as {id: (r, g, b)}: integer ids, integer samples in 0..255."""
    table = raw.get(name, {})
    try:
        colors = {int(key): tuple(value) for key, value in table.items()}
    except (AttributeError, TypeError, ValueError):
        raise ValidationError(f"{path}: {name} must map integer ids to colours") from None
    for ident, color in colors.items():
        if len(color) != 3 or not all(type(c) is int and 0 <= c <= 255 for c in color):
            raise ValidationError(f"{path}: {name}[{ident}] must be 3 integers in 0..255")
    return colors


def cmd_overlay(args) -> None:
    cfg = _merge_run_config(args)
    taxonomy = _load_taxonomy_checked(cfg.taxonomy)
    image_path = Path(args.image)
    if not image_path.exists():
        raise ValidationError(f"image not found: {image_path}")
    image = read_pnm(image_path)
    triple = formats.read_label_triple(args.triple_stem)
    spec = _overlay_spec_from_args(args, taxonomy)
    rendered = render_overlay(image, triple, spec)
    output = Path(args.output)
    _run_items([output], lambda path, stage: write_pnm(rendered, stage / path.name), 1,
               out_dir=output.parent)


# ---------------------------------------------------------------- augment


def cmd_augment(args) -> None:
    cfg = _merge_run_config(args)
    out_dir = _ensure_out(cfg.out)
    dataset = Path(args.dataset)
    if not dataset.is_dir():
        raise ValidationError(f"dataset directory not found: {dataset}")
    stems = sorted(p.stem for p in dataset.glob("*.ppm"))
    if not stems:
        raise ValidationError(f"no samples in {dataset}")

    def work(stem: str, stage: Path):
        image = read_pnm(dataset / f"{stem}.ppm")
        triple = formats.read_label_triple(dataset / stem)
        for suffix, img, trip in augment_flips(image, triple):
            out_stem = stage / f"{stem}{suffix}"
            write_pnm(img, out_stem.with_suffix(".ppm"))
            formats.write_label_triple(trip, out_stem)
        return stem

    _run_items(stems, work, cfg.jobs, args.keep_going, out_dir)


# ---------------------------------------------------------------- report


def cmd_report(args) -> None:
    cfg = _merge_run_config(args)
    taxonomy = _load_taxonomy_checked(cfg.taxonomy)
    rows: list[tuple[str, MetricReport]] = []
    for tsv_raw in args.tsv_files:
        path = Path(tsv_raw)
        if not path.exists():
            raise ValidationError(f"TSV file not found: {path}")
        rows.append((path.stem, _report_from_tsv(path, taxonomy)))
    sys.stdout.write(
        render_table(
            rows, taxonomy, percent=args.percent, metric="part_pq", corner="PartPQ"
        )
    )


def _report_from_tsv(path: Path, taxonomy: ClassTaxonomy) -> MetricReport:
    name_to_id = {taxonomy.semantic_class(c).name: c for c in taxonomy.semantic_ids}
    per_class: dict[int, ClassReport] = {}
    mean_pq = mean_ppq = None
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or lines[0].split("\t") != ["class", "pq", "part_pq", "tp", "fp", "fn"]:
        raise ValidationError(f"{path}: not a partfuse metrics TSV")
    for number, line in enumerate(lines[1:], start=2):
        try:  # six cells: a name, two ratios or '-', three counts
            name, pq_cell, ppq_cell, tp, fp, fn = line.split("\t")
            pq_val, ppq_val = (None if c == "-" else float(c) for c in (pq_cell, ppq_cell))
            tp, fp, fn = int(tp), int(fp), int(fn)
        except ValueError as exc:
            raise ValidationError(f"{path}: line {number}: {exc}") from None
        if name == "total":
            mean_pq, mean_ppq = pq_val, ppq_val
            continue
        if name not in name_to_id:
            raise ValidationError(f"{path}: unknown class name {name!r}")
        per_class[name_to_id[name]] = ClassReport(
            pq=pq_val,
            part_pq=ppq_val,
            tp=tp,
            fp=fp,
            fn=fn,
            present_in_gt=pq_val is not None,
        )
    for cid in taxonomy.semantic_ids:
        if cid not in per_class:
            raise ValidationError(f"{path}: missing row for class id {cid}")
    return MetricReport(per_class=per_class, mean_pq=mean_pq, mean_part_pq=mean_ppq)


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
    _add_flags(p_rgbd, "taxonomy", "config", "out", "seed", "jobs", "keep_going")
    p_rgbd.add_argument("scenes", nargs="+", help="scene directories")
    p_rgbd.set_defaults(handler=cmd_label_rgbd)

    p_mon = label_sub.add_parser("monitor", help="label monitor-background scenes")
    _add_flags(p_mon, "taxonomy", "config", "out", "seed", "jobs", "keep_going")
    p_mon.add_argument("--backgrounds", help="directory of background PPMs")
    p_mon.add_argument(
        "--composites", type=int, default=0, help="synthetic composites per scene"
    )
    p_mon.add_argument("dataset_root", help="directory of scene_<n> folders")
    p_mon.set_defaults(handler=cmd_label_monitor)

    p_overlay = sub.add_parser("overlay", help="render a colour overlay")
    _add_flags(p_overlay, "taxonomy", "config")
    p_overlay.add_argument("--colors", help="JSON colour table override")
    p_overlay.add_argument("--alpha", type=float, default=None)
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


def _raise_open_file_limit() -> None:
    """Lift the soft open-file limit towards the hard one, best-effort:
    every mapped PPT1 tensor holds a descriptor while it lives."""
    try:
        import resource
    except ImportError:  # not POSIX
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    for target in (hard, 10240):  # macOS refuses a soft limit above OPEN_MAX
        if soft < target <= hard:
            try:
                resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
                return
            except (ValueError, OSError):
                pass


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    _raise_open_file_limit()
    try:
        args.handler(args)
    except ValidationError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except (PartfuseError, OSError) as exc:
        log.error("%s", exc)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
