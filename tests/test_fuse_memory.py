"""Peak memory of ``fuse``: the resident input stays one tile of the
logits or one mask, and the accepted footprints' mask logits, not the
whole frame."""

import weakref
from pathlib import Path

import numpy as np
import pytest

from partfuse import formats
from partfuse.containers import InstanceProposal, tile_rows
from partfuse.fusion import STRATEGIES, fuse

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
    # measured 4.9-5.0 MB on x86-64 Linux (6.9-7.3 MB before fuse held one tile
    # and one mask and kept footprints in the instance map); 6.5 MB leaves 1.5 MB
    growth = peaks["frame"] - peaks["row"]
    assert growth < size / 12, f"{growth / 2**20:.1f} MB above one row for {size >> 20} MB of input"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fuse_holds_one_tile_and_one_mask(tmp_path, taxonomy, monkeypatch, strategy):
    """No array read for an earlier tile of the logits is alive when the
    next tile's read starts, nor one read for an earlier mask when the
    next mask's read starts."""
    write_frame(tmp_path, "f", 3 * tile_rows(1024), 1024, 4)
    read = formats.TensorFile.read
    reads = []  # (kind, tile row or mask file, weak reference to the memory read)

    def tracked_read(self, rows=slice(None)):
        kind = "tile" if self.path.name.endswith((".sem.ppt1", ".part.ppt1")) else "mask"
        key = rows.start if kind == "tile" else self.path.name
        alive = sorted(k for c, k, ref in reads if c == kind and k != key and ref() is not None)
        assert not alive, f"{kind}s {alive} alive when {kind} {key} is read"
        out = read(self, rows)
        reads.append((kind, key, weakref.ref(out if out.base is None else out.base)))
        return out

    monkeypatch.setattr(formats.TensorFile, "read", tracked_read)
    fuse(formats.read_sample(tmp_path / "f", taxonomy), taxonomy, strategy=strategy)
    tiles = [key for kind, key, _ in reads if kind == "tile"]
    assert sorted(set(tiles)) == [0, tile_rows(1024), 2 * tile_rows(1024)]
    assert len(tiles) == 6 and len(reads) == 6 + 4
