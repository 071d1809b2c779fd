"""Peak memory of ``fuse`` in a fresh interpreter: the resident input stays
about one tile of the logits, one mask and the accepted footprints, not
the whole frame."""

from pathlib import Path

import numpy as np
import pytest

from partfuse.containers import InstanceProposal

from conftest import BAG, BOTTLE
from scenes import peak_kb, write_proposals, write_tensor


def write_frame(directory: Path, name: str, height: int, width: int, proposals: int) -> int:
    """A frame over the test taxonomy: table everywhere, a bag box per
    proposal, each proposal a full-frame mask; returns its PPT1 bytes."""
    rows = np.arange(height, dtype=np.float32)[:, None]
    cols = np.arange(width, dtype=np.float32)[None, :]
    sem = np.zeros((4, height, width), dtype=np.float32)
    sem[0] = np.sin(rows / 7) * np.cos(cols / 11)  # bag
    sem[1] = -2.0  # bottle
    sem[2] = -2.0  # medical bag
    sem[3] = 0.5  # table
    part = np.stack([np.sin((rows + k) / 5) + np.cos(cols / 3) for k in range(3)])
    write_tensor(sem, directory / f"{name}.sem.ppt1")
    write_tensor(part, directory / f"{name}.part.ppt1")
    masks = []
    for k in range(proposals):
        mask = np.full((height, width), -4.0, dtype=np.float32)
        top, left = (k * height) // proposals, (k * 37) % width
        mask[top : top + max(height // 8, 1), left : left + width // 4] = 3.0
        masks.append(InstanceProposal(BAG if k % 2 else BOTTLE, 0.4 + 0.5 * (k % 2), mask))
    write_proposals(masks, directory / f"{name}.proposals.json", f"{name}_p{{:02d}}.ppt1")
    return sum(p.stat().st_size for p in directory.glob(f"{name}*.ppt1"))


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_fuse_peak_grows_by_a_small_share_of_its_input(tmp_path, taxonomy_json):
    peaks = {}
    for name, height in (("row", 1), ("frame", 512)):
        inputs = tmp_path / name
        inputs.mkdir()
        size = write_frame(inputs, name, height, 1024, 32)
        args = ["fuse", "--taxonomy", str(taxonomy_json), "--out", str(tmp_path / f"out_{name}"),
                str(inputs)]
        peaks[name] = peak_kb(args) * 1024
        assert (tmp_path / f"out_{name}" / f"{name}.inst.pgm").exists()
    assert size >= 32 << 20
    growth = peaks["frame"] - peaks["row"]
    assert growth < size / 4, f"{growth >> 20} MB above one row for {size >> 20} MB of input"
