"""Spans and counts recorded from outside partfuse.

The benchmark wraps public functions of the partfuse modules with
spans (name, start, end, parent span, run id) and counts work at the
same boundaries.  partfuse modules import each other's names with
``from .x import y``, so a function is wrapped at every binding that
refers to it, not only in the module that defines it.  Spans stay in
memory and are written as JSONL when the run ends; a layer's self time
is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path


def _triple_bytes(stem) -> int:
    stem = Path(stem)
    return sum(os.path.getsize(stem.with_name(f"{stem.name}.{k}.pgm")) for k in ("sem", "inst", "part"))


def _panoptic_counts(a, result):
    from partfuse.fusion import FusionParams

    floor = (a["params"] or FusionParams()).confidence_min
    proposals = a["proposals"]
    return {
        "fusion.proposals_in": len(proposals),
        "fusion.proposals_confident": sum(p.confidence >= floor for p in proposals),
        "fusion.instances_out": int(result[1].max(initial=0)),
    }


def _match_counts(a, result):
    per = result.per_class.values()
    return {
        "metrics.tp": sum(len(c.tp) for c in per),
        "metrics.fp": sum(len(c.fp) for c in per),
        "metrics.fn": sum(len(c.fn) for c in per),
    }


# wrapped function -> counts it records from its arguments ``a`` and result
TARGETS = {
    "cli.main": None,
    "cli._run_items": lambda a, r: {
        "cli.items_ok": len(r[0]),
        "cli.items_failed": len(a["items"]) - len(r[0]),
    },
    "formats.read_tensor": lambda a, r: {"formats.bytes_read": os.path.getsize(a["path"])},
    "formats.read_proposals": lambda a, r: {"formats.bytes_read": os.path.getsize(a["path"])},
    "formats.read_label_triple": lambda a, r: {"formats.bytes_read": _triple_bytes(a["stem"])},
    "formats.write_label_triple": lambda a, r: {"io.bytes_written": _triple_bytes(a["stem"])},
    "imaging.read_pnm": lambda a, r: {"formats.bytes_read": os.path.getsize(a["path"])},
    "imaging.write_pnm": lambda a, r: {"io.bytes_written": os.path.getsize(a["path"])},
    "containers.LogitStack": None,
    "containers.LabelTriple.validate": None,
    "containers.derive_segments": None,
    "fusion.fuse": None,
    "fusion.semantic_wise_fuse": None,
    "fusion.part_wise_fuse": None,
    "fusion.panoptic_fuse": _panoptic_counts,
    "metrics.match_segments": _match_counts,
    "metrics.part_iou": None,
    "metrics.aggregate_dataset": None,
    "metrics.report_to_tsv": None,
    "metrics.render_table": None,
    "pointcloud.read_ply": lambda a, r: {"pointcloud.points": len(r)},
    "pointcloud.progressive_morphological_filter": lambda a, r: {"pointcloud.ground_points": int(r.sum())},
    "pointcloud.ransac_plane": None,
    "pointcloud.euclidean_clusters": lambda a, r: {"pointcloud.clusters": int(r.max(initial=0))},
    "pointcloud.project": None,
    "autolabel_rgbd.generate_rgbd_sample": None,
    "autolabel_rgbd.segment_objects": None,
    "autolabel_rgbd.label_parts": None,
    "autolabel_rgbd.project_labels": lambda a, r: {
        "autolabel_rgbd.pixels_labelled": int((r.semantic_map != 0).sum()),
        "autolabel_rgbd.pixels_total": int(r.semantic_map.size),
    },
    "imaging.morphological_close": None,
    "imaging.quantize_colors": None,
    "imaging.threshold_hsv": None,
    "imaging.fill_holes": None,
    "imaging.connected_components": None,
    "autolabel_monitor.extract_reference_mask": None,
    "autolabel_monitor.extract_part_masks": None,
    "autolabel_monitor.transfer_labels": lambda a, r: {"autolabel_monitor.samples_emitted": 1},
    "autolabel_monitor.composite_synthetic": lambda a, r: {"autolabel_monitor.samples_emitted": 1},
    "autolabel_monitor.augment_flips": lambda a, r: {"autolabel_monitor.samples_emitted": len(r)},
}

# spans whose tracemalloc peak is recorded; they must have no wrapped children
ALLOC_TARGETS = ("fusion.panoptic_fuse",)

COUNTS = (
    "fusion.proposals_in", "fusion.proposals_confident", "fusion.instances_out",
    "formats.bytes_read", "io.bytes_written", "metrics.tp", "metrics.fp", "metrics.fn",
    "pointcloud.points", "pointcloud.ground_points", "pointcloud.clusters",
    "autolabel_rgbd.pixels_labelled", "autolabel_rgbd.pixels_total",
    "autolabel_monitor.samples_emitted", "cli.items_ok", "cli.items_failed",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for target in TARGETS:
        units[f"{target}.self_s"] = "s"
        units[f"{target}.calls"] = "count"
    units["cli.self_s"] = "s"
    for target in ALLOC_TARGETS:
        units[f"{target}.peak_alloc_mb"] = "MB"
    for name in COUNTS:
        units[name] = "bytes" if name.endswith(("bytes_read", "bytes_written")) else "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Installs the wrappers, records spans and counts, and restores the
    original bindings on exit.  Single-threaded: run the CLI with --jobs 1."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: Counter = Counter()
        self.peak_alloc: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for target, counter in TARGETS.items():
            self._wrap(target, counter, target in ALLOC_TARGETS)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, target: str, counter, alloc: bool) -> None:
        module_name, *owners, func_name = target.split(".")
        owner = importlib.import_module(f"partfuse.{module_name}")
        for name in owners:  # a method: wrapped on its class
            owner = getattr(owner, name)
        original = getattr(owner, func_name)
        signature = inspect.signature(original)
        spans, stack, counts, peaks = self.spans, self._stack, self.counts, self.peak_alloc

        @functools.wraps(original, updated=())
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, target, 0.0, 0.0]
            spans.append(record)
            stack.append(record[0])
            if alloc:
                tracemalloc.start()
            record[3] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
                if alloc:
                    peaks[target] = max(peaks.get(target, 0), tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(counter(bound.arguments, result))
            return result

        if owners:
            bindings = [(owner, func_name)]
        else:
            modules = [m for n, m in sys.modules.items() if n == "partfuse" or n.startswith("partfuse.")]
            bindings = [(m, attr) for m in modules for attr, val in vars(m).items() if val is original]
        for holder, attr in bindings:
            setattr(holder, attr, wrapper)
            self._restore.append((holder, attr, original))

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for sid, _, _, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def metrics(self, overhead_s: float) -> dict[str, float]:
        values: dict[str, float] = {name: 0 for name in metric_units()}
        for (_, _, name, _, _), self_s in zip(self.spans, self.self_times()):
            values[f"{name}.self_s"] += self_s
            values[f"{name}.calls"] += 1
            if name.startswith("cli."):
                values["cli.self_s"] += self_s
        for name, peak in self.peak_alloc.items():
            values[f"{name}.peak_alloc_mb"] = peak / 2**20
        for name in COUNTS:
            values[name] = int(self.counts[name])
        values["trace.overhead_s"] = overhead_s
        return values

    def write_jsonl(self, path: Path) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent, "name": name,
                                     "start": start - t0, "end": end - t0}) + "\n")
