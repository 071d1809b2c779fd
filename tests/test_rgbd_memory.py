"""Peak memory of ``label rgbd`` in a fresh interpreter: the PLY body is
parsed, the radius pairs are clustered and the points are projected in
blocks of a few thousand points, and the k-NN vote runs over blocks of
about 16,000 (pixel, neighbour) pairs, so the peak grows with the cloud's
own arrays, not with its text or its pair count, and not with ``knn_k``."""

import json
from pathlib import Path

import pytest

from scenes import peak_kb
from test_cli import write_rgbd_config, write_rgbd_scene_dir

PROC = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")


def label_rgbd_peak_kb(tmp_path, taxonomy_json, config, scene, out) -> int:
    return peak_kb(["label", "rgbd", "--taxonomy", str(taxonomy_json), "--config", str(config),
                    "--out", str(tmp_path / out), str(scene)])


@PROC
def test_label_rgbd_peak_does_not_grow_with_knn_k(tmp_path, taxonomy_json):
    scene = write_rgbd_scene_dir(tmp_path)
    config = write_rgbd_config(tmp_path)
    raw = json.loads(config.read_text())
    peaks = {}
    for knn_k in (5, 300):
        config.write_text(json.dumps({**raw, "knn_k": knn_k}))
        peaks[knn_k] = label_rgbd_peak_kb(tmp_path, taxonomy_json, config, scene, f"k{knn_k}")
    growth = peaks[300] - peaks[5]
    assert growth < 2048, f"{growth / 1024:.1f} MB more at knn_k 300 than at 5"


@PROC
def test_label_rgbd_peak_on_a_dense_scene(tmp_path, taxonomy_json):
    """The same scene at 4 times the point density (82,067 points against
    5,257, and about 80 radius neighbours a box point against 5)."""
    config = write_rgbd_config(tmp_path)
    peaks = {density: label_rgbd_peak_kb(
        tmp_path, taxonomy_json, config,
        write_rgbd_scene_dir(tmp_path, f"scene_{density}", density=density), f"out_{density}")
        for density in (1, 4)}
    # measured 8.4-8.6 MB on x86-64 Linux with blocked reading, clustering
    # and projection (16.2-18.4 MB while the body was one table and every
    # radius pair was found at once); 12 MB leaves 3.4 MB
    growth = peaks[4] - peaks[1]
    assert growth < 12 * 1024, f"{growth / 1024:.1f} MB more on the dense scene"
