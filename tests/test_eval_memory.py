"""Peak memory of ``eval`` in a fresh interpreter: scoring a stem holds its
ground-truth triple, tiles of one prediction and tile-sized temporaries,
not frame-sized key arrays."""

from pathlib import Path

import numpy as np
import pytest

from partfuse.formats import write_label_triple

from conftest import BAG, BOTTLE, CENTER, MEDICAL_BAG, OTHER, SEAL, TABLE, make_triple
from scenes import peak_kb

THINGS = (BAG, BOTTLE, MEDICAL_BAG)


def write_scene(root: Path, height: int, width: int, stems: int) -> list[Path]:
    """Ground truth and two prediction directories of ``stems`` frames: a
    table with a void band and a grid of thing boxes, bags with parts;
    each prediction shifts the boxes and redraws some of their parts.
    Returns the ground truth directory, then the prediction directories."""
    rng = np.random.default_rng(height)
    dirs = [root / name for name in ("gt", "near", "far")]
    for directory in dirs:
        directory.mkdir(parents=True)
    for k in range(stems):
        for shift, directory in enumerate(dirs):
            sem = np.full((height, width), TABLE, dtype=np.uint16)
            inst = np.zeros_like(sem)
            sem[: height // 10] = 0  # void
            box = max(height // 8, 1)
            n = 0
            for top in range(0, height, box):
                for left in range(0, width - 48, 64):
                    n += 1
                    rows = slice(top, top + max(box - 2, 1))
                    cols = slice(left + 4 * shift, left + 40 + 4 * shift)
                    sem[rows, cols] = THINGS[(n + k) % 3]
                    inst[rows, cols] = n
            part = rng.choice(np.array([SEAL, CENTER, OTHER], dtype=np.uint16), size=sem.shape)
            part[sem != BAG] = 0
            write_label_triple(make_triple(sem, inst, part), directory / f"frame_{k}")
    return dirs


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_eval_peak_grows_by_a_few_triples(tmp_path, taxonomy_json):
    peaks = {}
    for name, height in (("row", 1), ("frame", 512)):
        gt, *preds = write_scene(tmp_path / name, height, 1024, 2)
        args = ["eval", "--taxonomy", str(taxonomy_json), "--gt", str(gt), *map(str, preds)]
        peaks[name] = peak_kb(args) * 1024
    triple = 3 * 512 * 1024 * np.dtype(np.uint16).itemsize
    # measured 3.2-3.3 MB on x86-64 Linux since predictions are read in row
    # tiles (6.4-6.5 MB while each was read whole, 7.5-8.1 MB while label maps
    # were read through a bytes copy); 1.6 triples, 4.8 MB, leave 1.5 MB
    growth = peaks["frame"] - peaks["row"]
    assert growth < 1.6 * triple, f"{growth / 2**20:.1f} MB above one row, {triple >> 20} MB triples"
