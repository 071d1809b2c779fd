"""Peak memory of ``label rgbd`` in a fresh interpreter: the k-NN vote runs
over blocks of about 16,000 (pixel, neighbour) pairs, so the peak does not
grow with ``knn_k`` below that."""

import json
from pathlib import Path

import pytest

from scenes import peak_kb
from test_cli import write_rgbd_config, write_rgbd_scene_dir


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_label_rgbd_peak_does_not_grow_with_knn_k(tmp_path, taxonomy_json):
    scene = write_rgbd_scene_dir(tmp_path)
    config = write_rgbd_config(tmp_path)
    raw = json.loads(config.read_text())
    peaks = {}
    for knn_k in (5, 300):
        config.write_text(json.dumps({**raw, "knn_k": knn_k}))
        peaks[knn_k] = peak_kb(["label", "rgbd", "--taxonomy", str(taxonomy_json), "--config",
                                str(config), "--out", str(tmp_path / f"k{knn_k}"), str(scene)])
    growth = peaks[300] - peaks[5]
    assert growth < 2048, f"{growth / 1024:.1f} MB more at knn_k 300 than at 5"
