"""Command-line surface: fuse, eval, label, overlay, augment, report.

Exit codes: 0 on success, 2 on I/O errors (unreadable or corrupt files),
3 on validation errors (missing required inputs, bad taxonomy or
dimensions, unknown strategy).  Messages go to standard error; verbosity
is controlled by the PARTFUSE_LOG environment variable (error, warn,
info, debug).

All commands are deterministic: rerunning with the same inputs and seed
produces byte-identical outputs, and --jobs only changes wall time.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
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
from .errors import FormatError, PartfuseError, ValidationError
from .fusion import STRATEGIES, FusionParams, fuse
from .imaging import read_pnm, write_pnm
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


@dataclass
class RunConfig:
    """Merged settings: defaults, then config file values, then flags."""

    taxonomy: Path | None = None
    out: Path | None = None
    strategy: str = "partpanoptic"
    seed: int = 0
    jobs: int = 1
    keep_going: bool = False
    percent: bool = False
    fusion: FusionParams = FusionParams()


def _merge_run_config(args) -> RunConfig:
    file_cfg: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ValidationError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, default)

    fusion = FusionParams(
        confidence_min=float(
            pick(getattr(args, "confidence_min", None), "confidence_min", 0.5)
        ),
        overlap_discard_ratio=float(
            pick(
                getattr(args, "overlap_discard_ratio", None),
                "overlap_discard_ratio",
                0.5,
            )
        ),
        min_instance_area=int(
            pick(getattr(args, "min_instance_area", None), "min_instance_area", 64)
        ),
        mask_logit_threshold=float(
            pick(
                getattr(args, "mask_logit_threshold", None),
                "mask_logit_threshold",
                0.0,
            )
        ),
    )
    taxonomy = pick(getattr(args, "taxonomy", None), "taxonomy", None)
    out = pick(getattr(args, "out", None), "out", None)
    return RunConfig(
        taxonomy=Path(taxonomy) if taxonomy else None,
        out=Path(out) if out else None,
        strategy=pick(getattr(args, "strategy", None), "strategy", "partpanoptic"),
        seed=int(pick(getattr(args, "seed", None), "seed", 0)),
        jobs=int(pick(getattr(args, "jobs", None), "jobs", 1)),
        keep_going=bool(getattr(args, "keep_going", False)),
        percent=bool(getattr(args, "percent", False)),
        fusion=fusion,
    )


def _load_taxonomy_checked(path: Path | None) -> ClassTaxonomy:
    if path is None:
        raise ValidationError("a taxonomy file is required (--taxonomy)")
    if not path.exists():
        raise ValidationError(f"taxonomy file not found: {path}")
    return load_taxonomy(path)


def _ensure_out(out: Path | None) -> Path:
    if out is None:
        raise ValidationError("an output directory is required (--out)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_items(items, worker, jobs: int, keep_going: bool):
    """Run worker(item) for every item, jobs at a time.

    Results are collected in input order.  Errors stop the run unless
    keep_going is set, in which case failed items are skipped with a
    warning.  Returns (results, first_error)."""
    errors: list[PartfuseError | OSError] = []
    results = []
    if jobs <= 1:
        outcomes = []
        for item in items:
            try:
                outcomes.append((worker(item), None))
            except (PartfuseError, OSError) as exc:
                outcomes.append((None, exc))
                if not keep_going:
                    break
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(worker, item) for item in items]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append((future.result(), None))
                except (PartfuseError, OSError) as exc:
                    outcomes.append((None, exc))
    for value, exc in outcomes:
        if exc is None:
            results.append(value)
        else:
            errors.append(exc)
            log.warning("item failed: %s", exc)
    return results, (errors[0] if errors else None)


def _exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ValidationError):
        return EXIT_VALIDATION
    return EXIT_IO


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


def cmd_fuse(args) -> int:
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

    def work(stem: Path):
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
        formats.write_label_triple(triple, out_dir / stem.name)
        log.info("fused %s", stem.name)
        return stem.name

    _, error = _run_items(stems, work, cfg.jobs, cfg.keep_going)
    if error is not None:
        return _exit_code_for(error)
    return EXIT_OK


# ---------------------------------------------------------------- eval


def _triple_stems(directory: Path) -> list[str]:
    return sorted(p.name[: -len(".sem.pgm")] for p in directory.glob("*.sem.pgm"))


def cmd_eval(args) -> int:
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

    def work(stem: str) -> list:
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

    per_stem, _ = _run_items(stems if pred_dirs else [], work, cfg.jobs, keep_going=False)
    rows: list[tuple[str, MetricReport]] = []
    for column, pred_dir in enumerate(pred_dirs):
        matches = [outcomes[column] for outcomes in per_stem]
        error = next((m for m in matches if isinstance(m, BaseException)), None)
        if error is not None:
            log.warning("item failed: %s", error)
            return _exit_code_for(error)
        rows.append((pred_dir.name, aggregate_dataset(matches, taxonomy)))
    if dir_error is not None:
        raise dir_error

    sys.stdout.write(
        render_table(rows, taxonomy, percent=cfg.percent, metric="pq", corner="PQ")
    )
    sys.stdout.write("\n")
    sys.stdout.write(
        render_table(
            rows, taxonomy, percent=cfg.percent, metric="part_pq", corner="PartPQ"
        )
    )
    if args.tsv:
        tsv_path = Path(args.tsv)
        if len(rows) == 1:
            tsv_path.write_text(report_to_tsv(rows[0][1], taxonomy), encoding="utf-8")
        else:
            for label, report in rows:
                target = tsv_path.with_name(f"{tsv_path.stem}_{label}{tsv_path.suffix}")
                target.write_text(report_to_tsv(report, taxonomy), encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------- label


def _write_provenance(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_label_rgbd(args) -> int:
    cfg = _merge_run_config(args)
    taxonomy = _load_taxonomy_checked(cfg.taxonomy)
    out_dir = _ensure_out(cfg.out)
    if not getattr(args, "config", None):
        raise ValidationError("label rgbd requires --config")
    label_cfg = load_rgbd_config(args.config)
    if args.seed is not None:
        label_cfg = replace(label_cfg, seed=int(args.seed))

    scenes = [Path(s) for s in args.scenes]
    for scene in scenes:
        if not scene.is_dir():
            raise ValidationError(f"scene directory not found: {scene}")

    def work(scene: Path):
        for name in ("rgb.ppm", "cloud.ply", "camera.json"):
            if not (scene / name).exists():
                raise ValidationError(f"{scene} is missing {name}")
        rgb = read_pnm(scene / "rgb.ppm")
        cloud = read_ply(scene / "cloud.ply")
        camera = load_camera(scene / "camera.json")
        image, triple = generate_rgbd_sample(rgb, cloud, camera, taxonomy, label_cfg)
        stem = out_dir / scene.name
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

    _, error = _run_items(scenes, work, cfg.jobs, cfg.keep_going)
    if error is not None and not cfg.keep_going:
        return _exit_code_for(error)
    return EXIT_OK


def cmd_label_monitor(args) -> int:
    cfg = _merge_run_config(args)
    taxonomy = _load_taxonomy_checked(cfg.taxonomy)
    out_dir = _ensure_out(cfg.out)
    if not getattr(args, "config", None):
        raise ValidationError("label monitor requires --config")
    label_cfg = load_monitor_config(args.config)

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

    def work(item):
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
            stem = out_dir / f"{scene.name}_{target_path.stem}"
            write_pnm(image, stem.with_suffix(".ppm"))
            formats.write_label_triple(triple, stem)
            emitted.append(stem.name)

        # composites draw backgrounds from a per-scene splitmix64 stream
        rng = SplitMix64(splitmix64_nth(cfg.seed, ordinal + 1))
        for i in range(args.composites):
            bg = read_pnm(backgrounds[rng.below(len(backgrounds))])
            image, triple = composite_synthetic(img_black, reference, bg)
            stem = out_dir / f"{scene.name}_synth_{i:03d}"
            write_pnm(image, stem.with_suffix(".ppm"))
            formats.write_label_triple(triple, stem)
            emitted.append(stem.name)

        _write_provenance(
            out_dir / f"{scene.name}.provenance.json",
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

    _, error = _run_items(indexed, work, cfg.jobs, cfg.keep_going)
    if error is not None and not cfg.keep_going:
        return _exit_code_for(error)
    return EXIT_OK


# ---------------------------------------------------------------- overlay


def _overlay_spec_from_args(args, taxonomy) -> OverlaySpec:
    alpha = args.alpha if args.alpha is not None else 0.5
    spec = default_overlay_spec(taxonomy, alpha=alpha, draw_boxes=not args.no_boxes)
    if args.colors:
        path = Path(args.colors)
        if not path.exists():
            raise ValidationError(f"colour table not found: {path}")
        raw = json.loads(path.read_text(encoding="utf-8"))
        class_colors = dict(spec.class_colors)
        part_colors = dict(spec.part_colors)
        for key, value in raw.get("class_colors", {}).items():
            class_colors[int(key)] = tuple(int(c) for c in value)
        for key, value in raw.get("part_colors", {}).items():
            part_colors[int(key)] = tuple(int(c) for c in value)
        spec = OverlaySpec(
            class_colors=class_colors,
            part_colors=part_colors,
            draw_boxes=spec.draw_boxes,
            alpha=spec.alpha,
        )
    return spec


def cmd_overlay(args) -> int:
    cfg = _merge_run_config(args)
    taxonomy = _load_taxonomy_checked(cfg.taxonomy)
    image_path = Path(args.image)
    if not image_path.exists():
        raise ValidationError(f"image not found: {image_path}")
    image = read_pnm(image_path)
    triple = formats.read_label_triple(args.triple_stem)
    spec = _overlay_spec_from_args(args, taxonomy)
    rendered = render_overlay(image, triple, spec)
    write_pnm(rendered, args.output)
    return EXIT_OK


# ---------------------------------------------------------------- augment


def cmd_augment(args) -> int:
    cfg = _merge_run_config(args)
    out_dir = _ensure_out(cfg.out)
    dataset = Path(args.dataset)
    if not dataset.is_dir():
        raise ValidationError(f"dataset directory not found: {dataset}")
    stems = sorted(p.stem for p in dataset.glob("*.ppm"))
    if not stems:
        raise ValidationError(f"no samples in {dataset}")

    def work(stem: str):
        image = read_pnm(dataset / f"{stem}.ppm")
        triple = formats.read_label_triple(dataset / stem)
        for suffix, img, trip in augment_flips(image, triple):
            out_stem = out_dir / f"{stem}{suffix}"
            write_pnm(img, out_stem.with_suffix(".ppm"))
            formats.write_label_triple(trip, out_stem)
        return stem

    _, error = _run_items(stems, work, cfg.jobs, cfg.keep_going)
    if error is not None and not cfg.keep_going:
        # per-sample failures in augmentation are input problems
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------- report


def cmd_report(args) -> int:
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
            rows, taxonomy, percent=cfg.percent, metric="part_pq", corner="PartPQ"
        )
    )
    return EXIT_OK


def _report_from_tsv(path: Path, taxonomy: ClassTaxonomy) -> MetricReport:
    name_to_id = {taxonomy.semantic_class(c).name: c for c in taxonomy.semantic_ids}
    per_class: dict[int, ClassReport] = {}
    mean_pq = mean_ppq = None
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split("\t") != ["class", "pq", "part_pq", "tp", "fp", "fn"]:
        raise ValidationError(f"{path}: not a partfuse metrics TSV")
    for line in lines[1:]:
        name, pq_cell, ppq_cell, tp, fp, fn = line.split("\t")
        pq_val = None if pq_cell == "-" else float(pq_cell)
        ppq_val = None if ppq_cell == "-" else float(ppq_cell)
        if name == "total":
            mean_pq, mean_ppq = pq_val, ppq_val
            continue
        if name not in name_to_id:
            raise ValidationError(f"{path}: unknown class name {name!r}")
        per_class[name_to_id[name]] = ClassReport(
            pq=pq_val,
            part_pq=ppq_val,
            tp=int(tp),
            fp=int(fp),
            fn=int(fn),
            present_in_gt=pq_val is not None,
        )
    for cid in taxonomy.semantic_ids:
        if cid not in per_class:
            raise ValidationError(f"{path}: missing row for class id {cid}")
    return MetricReport(per_class=per_class, mean_pq=mean_pq, mean_part_pq=mean_ppq)


# ---------------------------------------------------------------- parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--taxonomy", help="taxonomy JSON file")
    parser.add_argument("--config", help="JSON config file (flags win)")
    parser.add_argument("--seed", type=int, default=None, help="PRNG seed")
    parser.add_argument("--jobs", type=int, default=None, help="parallel workers")
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="continue past per-item failures",
    )
    parser.add_argument(
        "--percent", action="store_true", help="display scores as percentages"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partfuse",
        description="Part-panoptic fusion, PQ/PartPQ evaluation and "
        "unsupervised label generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuse = sub.add_parser("fuse", help="fuse logit tensors into label triples")
    _add_common(p_fuse)
    p_fuse.add_argument("--out", help="output directory")
    p_fuse.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,
        help="fusion strategy (default partpanoptic)",
    )
    p_fuse.add_argument("--confidence-min", dest="confidence_min", type=float)
    p_fuse.add_argument(
        "--overlap-discard-ratio", dest="overlap_discard_ratio", type=float
    )
    p_fuse.add_argument("--min-instance-area", dest="min_instance_area", type=int)
    p_fuse.add_argument(
        "--mask-logit-threshold", dest="mask_logit_threshold", type=float
    )
    p_fuse.add_argument("inputs", nargs="+", help="sample stems or directories")
    p_fuse.set_defaults(handler=cmd_fuse)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    _add_common(p_eval)
    p_eval.add_argument("--gt", required=True, help="ground-truth triple directory")
    p_eval.add_argument("--tsv", help="write a TSV report to this path")
    p_eval.add_argument(
        "pred_dirs", nargs="+", help="prediction directories (one row each)"
    )
    p_eval.set_defaults(handler=cmd_eval)

    p_label = sub.add_parser("label", help="generate training labels")
    label_sub = p_label.add_subparsers(dest="variant", required=True)

    p_rgbd = label_sub.add_parser("rgbd", help="label RGB + point-cloud scenes")
    _add_common(p_rgbd)
    p_rgbd.add_argument("--out", help="output directory")
    p_rgbd.add_argument("scenes", nargs="+", help="scene directories")
    p_rgbd.set_defaults(handler=cmd_label_rgbd)

    p_mon = label_sub.add_parser("monitor", help="label monitor-background scenes")
    _add_common(p_mon)
    p_mon.add_argument("--out", help="output directory")
    p_mon.add_argument("--backgrounds", help="directory of background PPMs")
    p_mon.add_argument(
        "--composites",
        type=int,
        default=0,
        help="synthetic composites per scene",
    )
    p_mon.add_argument("dataset_root", help="directory of scene_<n> folders")
    p_mon.set_defaults(handler=cmd_label_monitor)

    p_overlay = sub.add_parser("overlay", help="render a colour overlay")
    _add_common(p_overlay)
    p_overlay.add_argument("--colors", help="JSON colour table override")
    p_overlay.add_argument("--alpha", type=float, default=None)
    p_overlay.add_argument("--no-boxes", action="store_true")
    p_overlay.add_argument("image", help="PPM image")
    p_overlay.add_argument("triple_stem", help="label triple stem")
    p_overlay.add_argument("output", help="output PPM path")
    p_overlay.set_defaults(handler=cmd_overlay)

    p_aug = sub.add_parser("augment", help="write the four flip variants")
    _add_common(p_aug)
    p_aug.add_argument("--out", help="output directory")
    p_aug.add_argument("dataset", help="directory of image + triple samples")
    p_aug.set_defaults(handler=cmd_augment)

    p_report = sub.add_parser("report", help="render TSV reports as a table")
    _add_common(p_report)
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
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except FormatError as exc:
        log.error("%s", exc)
        return EXIT_IO
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
