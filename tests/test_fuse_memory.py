"""Peak memory of ``fuse``: the resident input stays a few channel rows
of one tile of the logits or one mask, and the accepted footprints' mask
logits, not the whole frame."""

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
    # measured 4.4-4.6 MB on x86-64 Linux since fuse reads a tile channel by
    # channel (4.8 MB while it held a tile of all channels, 6.9-7.3 MB before it
    # held one tile and one mask); size / 12.8, 6.1 MB, leaves 1.5 MB
    growth = peaks["frame"] - peaks["row"]
    assert growth < size / 12.8, f"{growth / 2**20:.1f} MB above one row for {size >> 20} MB of input"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fuse_holds_one_tile_and_one_mask(tmp_path, taxonomy, monkeypatch, strategy):
    """Each channel of each tile is read once, on its own.  When a read
    starts, no array read for an earlier tile or an earlier mask is alive,
    and of the tile's own rows at most the semantic rows that part-wise
    fusion keeps (the parents', until their class is scored) and two part
    rows: the last one read, and a class's first, which is its running
    maximum until the next one comes."""
    write_frame(tmp_path, "f", 3 * tile_rows(1024), 1024, 4)
    read = formats.TensorFile.read
    reads = []  # (kind, tile row or mask file, channel, weak reference to the memory read)
    parent = taxonomy.semantic_ids.index(BAG)
    kept = {("sem", parent)} if strategy == "partpanoptic" else set()

    def alive(kind, key):
        return sorted(k for c, k, _, ref in reads if c == kind and k != key and ref() is not None)

    def tracked_read(self, rows=slice(None), channel=None):
        kind = "tile" if self.path.name.endswith((".sem.ppt1", ".part.ppt1")) else "mask"
        key = self.path.name if kind == "mask" else rows.start
        assert not alive(kind, key), f"{kind}s {alive(kind, key)} alive when {kind} {key} is read"
        if kind == "tile":
            own = [(tensor, c) for _, k, (tensor, c), ref in reads
                   if k == key and ref() is not None]
            parts = [c for tensor, c in own if tensor == "part"]
            assert set(own) - {("part", c) for c in parts} <= kept, (key, own)
            assert len(parts) <= 2, (key, own)
        out = read(self, rows, channel)
        tensor = self.path.name.split(".")[1]
        reads.append((kind, key, (tensor, channel), weakref.ref(out if out.base is None else out.base)))
        return out

    monkeypatch.setattr(formats.TensorFile, "read", tracked_read)
    fuse(formats.read_sample(tmp_path / "f", taxonomy), taxonomy, strategy=strategy)
    tiles = [(key, channel) for kind, key, channel, _ in reads if kind == "tile"]
    channels = [("sem", c) for c in range(4)] + [("part", c) for c in range(3)]
    assert sorted(tiles) == sorted((t * tile_rows(1024), c) for t in range(3) for c in channels)
    assert len(reads) == len(tiles) + 4


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_fuse_peak_does_not_grow_with_failed_frames(tmp_path, taxonomy_json):
    """A frame that fails in its last row tile, after its maps are fused,
    holds none of them once it is logged: at --jobs 1, ten such frames
    peak where one does."""
    frame = tmp_path / "frame"
    frame.mkdir()
    write_frame(frame, "f", 512, 1024, 8)
    with open(frame / "f.sem.ppt1", "r+b") as sem:  # a NaN at the last table logit
        sem.seek(-4, 2)
        sem.write(np.float32(np.nan).tobytes())
    peaks = {}
    for count in (1, 10):
        inputs = tmp_path / f"in_{count}"
        inputs.mkdir()
        for k in range(count):  # each frame links the one frame's files
            for suffix in formats.SAMPLE_SUFFIXES:
                (inputs / f"f{k}{suffix}").symlink_to(frame / f"f{suffix}")
        for mask in frame.glob("f_p*.ppt1"):
            (inputs / mask.name).symlink_to(mask)
        args = ["fuse", "--taxonomy", str(taxonomy_json), "--out", str(tmp_path / f"out_{count}"),
                "--keep-going", str(inputs)]
        peaks[count] = peak_kb(args) * 1024
        assert list((tmp_path / f"out_{count}").iterdir()) == []
    # measured 37 MB for one frame and 85 MB for ten while each failure
    # kept its traceback; 3 MB is one frame's three fused label maps
    growth = peaks[10] - peaks[1]
    assert growth < 3 << 20, f"{growth / 2**20:.1f} MB above one failed frame"
