"""Tests of the benchmark itself, on small versions of its workloads.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _functions(*names: str) -> list[str]:
    return [f"{n}.{m}" for n in names for m in ("calls", "self_s")]


# per-layer metrics that must be non-zero on the workload that should move
# them; a function wrapped at a stale binding would report zero calls
FIRES = {
    "fuse_eval": _functions(
        "fusion.semantic_wise_fuse", "fusion.part_wise_fuse", "fusion.panoptic_fuse",
        "formats.read_tensor", "formats.read_proposals", "containers.LogitStack", "fusion.fuse",
        "metrics.match_segments", "metrics.part_iou", "metrics.aggregate_dataset", "metrics.render_table",
        "containers.derive_segments", "formats.read_label_triple", "containers.LabelTriple.validate",
        "metrics.report_to_tsv",
    ) + ["fusion.panoptic_fuse.peak_alloc_mb", "fusion.proposals_in", "fusion.proposals_confident",
         "fusion.instances_out", "formats.bytes_read", "metrics.tp", "metrics.fp", "metrics.fn"],
    "autolabel": _functions(
        "pointcloud.read_ply", "pointcloud.progressive_morphological_filter", "pointcloud.ransac_plane",
        "pointcloud.euclidean_clusters", "pointcloud.project", "autolabel_rgbd.segment_objects",
        "autolabel_rgbd.label_parts", "autolabel_rgbd.project_labels", "autolabel_rgbd.generate_rgbd_sample",
        "imaging.morphological_close", "imaging.quantize_colors", "imaging.threshold_hsv",
        "imaging.fill_holes", "imaging.connected_components", "autolabel_monitor.extract_reference_mask",
        "autolabel_monitor.extract_part_masks", "autolabel_monitor.composite_synthetic",
        "autolabel_monitor.augment_flips", "formats.write_label_triple", "imaging.write_pnm",
        "imaging.read_pnm", "autolabel_monitor.transfer_labels", "cli.main", "cli._run_items",
    ) + ["pointcloud.points", "pointcloud.ground_points", "pointcloud.clusters",
         "autolabel_rgbd.pixels_labelled", "autolabel_rgbd.pixels_total",
         "autolabel_monitor.samples_emitted", "io.bytes_written", "cli.self_s", "cli.items_ok"],
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced small run per workload: (tracer, metrics, check problems)."""
    cache: dict = {}

    def get(name: str):
        if name not in cache:
            workload = workloads.WORKLOADS[name]
            root = tmp_path_factory.mktemp(name)
            inputs, meta = workloads.prepare(workload, 5, root / "inputs", small=True)
            out = root / "out"
            out.mkdir()
            with spans.Tracer(run_id=f"test-{name}") as tracer:
                codes = run.run_in_process(workload.commands(inputs, out, meta, 1), out)
            assert codes == [0] * len(codes)
            problems, _ = workload.check(inputs, out, meta)
            cache[name] = (tracer, tracer.metrics(overhead_s=0.0), problems, root)
        return cache[name]

    return get


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generation_is_byte_deterministic_per_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    digests = {}
    for cache, seed in (("a", 3), ("b", 3), ("c", 4)):
        inputs, _ = workloads.prepare(workload, seed, tmp_path / cache, small=True)
        digests[cache] = workloads.tree_digest(inputs)
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_metrics_fire_on_their_workload(traced, name):
    _, metrics, problems, _ = traced(name)
    assert problems == []
    assert set(metrics) == set(spans.metric_units())
    silent = [m for m in FIRES[name] if not metrics[m] > 0]
    assert silent == []


def test_every_per_layer_metric_fires_somewhere():
    # overhead is a difference of two timings; a clean run fails no items
    quiet = {"trace.overhead_s", "cli.items_failed"}
    assert set(spans.metric_units()) - quiet == {m for names in FIRES.values() for m in names}


def test_names_and_units_match_the_benchmark_file():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.metric_units()
    for entry in bench["workloads"] + bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]


def test_span_jsonl_schema(traced, tmp_path):
    tracer, _, _, _ = traced("fuse_eval")
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(records) == len(tracer.spans) > 0
    by_id = {}
    for i, rec in enumerate(records):
        assert set(rec) == {"run", "id", "parent", "name", "start", "end"}
        assert rec["run"] == "test-fuse_eval" and rec["id"] == i
        assert rec["name"] in spans.TARGETS
        assert isinstance(rec["start"], float) and rec["start"] <= rec["end"]
        if rec["parent"] is not None:
            parent = by_id[rec["parent"]]
            assert parent["start"] <= rec["start"] and rec["end"] <= parent["end"]
        by_id[rec["id"]] = rec
    assert records[0]["name"] == "cli.main" and records[0]["parent"] is None


def test_self_time_excludes_children():
    tracer = spans.Tracer(run_id="t")
    tracer.spans = [[0, None, "cli.main", 0.0, 10.0], [1, 0, "fusion.fuse", 1.0, 4.0],
                    [2, 1, "fusion.panoptic_fuse", 2.0, 3.0], [3, 0, "formats.read_tensor", 5.0, 6.0]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
