"""Fuzzed readers: truncated or byte-corrupted files of every stored
format, and JSON inputs holding arbitrary values under their real field
names, raise FormatError or ValidationError, never another exception."""

import ast
import json
from argparse import Namespace
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import partfuse
from partfuse import formats
from partfuse.autolabel_monitor import MonitorLabelConfig, load_monitor_config
from partfuse.autolabel_rgbd import PartColorRule, RgbdLabelConfig, load_rgbd_config
from partfuse.cli import _SETTINGS, _merge_run_config, _overlay_spec_from_args
from partfuse.containers import InstanceProposal
from partfuse.errors import FormatError, ValidationError
from partfuse.imaging import HsvRange, Image, read_pnm, write_pnm
from partfuse.jsonio import read_json
from partfuse.pointcloud import (
    CameraModel,
    PmfParams,
    PointCloud,
    load_camera,
    read_ply,
)
from partfuse.taxonomy import (
    ClassTaxonomy,
    PartClass,
    SemanticClass,
    load_taxonomy,
    validate_taxonomy,
)

from conftest import HOSPITAL_TAXONOMY, SEAL, make_triple
from scenes import write_ply

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def damaged(data: bytes):
    """A truncation of data, or data with up to eight bytes overwritten."""
    truncated = st.integers(0, len(data) - 1).map(lambda n: data[:n])
    edits = st.lists(
        st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)),
        min_size=1,
        max_size=8,
    )

    def overwrite(changes):
        out = bytearray(data)
        for index, value in changes:
            out[index] = value
        return bytes(out)

    return truncated | edits.map(overwrite)


def valid_bytes(tmp_path, write, name):
    path = tmp_path / name
    write(path)
    return path, path.read_bytes()


def read_or_reject(read, path, allowed=()):
    try:
        read(path)
    except (FormatError, ValidationError, *allowed):
        pass


TENSORS = pytest.mark.parametrize(
    "tensor",
    [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.arange(6, dtype=np.uint16).reshape(1, 2, 3),
        np.arange(5, dtype=np.uint8),
        np.float32(2.5),
    ],
    ids=["float32", "uint16", "uint8", "scalar"],
)


@TENSORS
@FUZZ
@given(data=st.data())
def test_read_tensor_rejects_damage(tmp_path, tensor, data):
    path, raw = valid_bytes(tmp_path, lambda p: formats.write_tensor(tensor, p), "t.ppt1")
    path.write_bytes(data.draw(damaged(raw)))
    read_or_reject(formats.read_tensor, path)


@TENSORS
def test_read_tensor_rejects_wrong_lengths(tmp_path, tensor):
    """The reader maps the file, and mmap refuses an empty file with
    ValueError; every wrong length must still be a FormatError."""
    path, raw = valid_bytes(tmp_path, lambda p: formats.write_tensor(tensor, p), "t.ppt1")
    header_only = "truncated payload" if tensor.ndim == 0 else "truncated dimension list"
    cases = [(raw[:n], "shorter than the fixed header") for n in range(8)]
    cases += [(raw[:8], header_only), (raw[:-1], "truncated payload"),
              (raw + b"\0", "trailing bytes after payload")]
    for data, message in cases:
        path.write_bytes(data)
        with pytest.raises(FormatError, match=message):
            formats.read_tensor(path)


@pytest.mark.parametrize("shape", [(3, 4), (3, 4, 3)], ids=["pgm", "ppm"])
@FUZZ
@given(data=st.data())
def test_read_pnm_rejects_damage(tmp_path, shape, data):
    pixels = np.arange(np.prod(shape), dtype=np.uint8).reshape(shape)
    path, raw = valid_bytes(tmp_path, lambda p: write_pnm(Image(pixels), p), "i.pnm")
    path.write_bytes(data.draw(damaged(raw)))
    read_or_reject(read_pnm, path)


@pytest.mark.parametrize("kind", ["sem", "inst", "part"])
@FUZZ
@given(data=st.data())
def test_read_label_triple_rejects_damage(tmp_path, kind, data):
    sem = np.array([[1, 1, 4], [0, 2, 4]], dtype=np.uint16)
    triple = make_triple(sem, sem % 3, sem * 300)
    stem = tmp_path / "s"
    formats.write_label_triple(triple, stem)
    path = tmp_path / f"s.{kind}.pgm"
    path.write_bytes(data.draw(damaged(path.read_bytes())))
    read_or_reject(formats.read_label_triple, stem)


@FUZZ
@given(data=st.data())
def test_read_ply_rejects_damage(tmp_path, data):
    cloud = PointCloud(
        np.array([[0.0, 1.5, -2.25], [3.0, 0.125, 1e-3]]),
        np.array([[0, 128, 255], [7, 8, 9]], dtype=np.uint8),
    )
    path, raw = valid_bytes(tmp_path, lambda p: write_ply(cloud, p), "c.ply")
    path.write_bytes(data.draw(damaged(raw)))
    read_or_reject(read_ply, path)


def field_names(*classes):
    return sorted({f.name for cls in classes for f in fields(cls)})


def json_values(keys, texts):
    """Any JSON value; objects are keyed by the given names."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(-2, 20)
        | st.integers(-(2**70), 2**70)
        | st.floats(allow_nan=False, allow_infinity=False)
        | texts
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(keys), inner, max_size=4),
        max_leaves=8,
    )


DROP = object()


def node_paths(doc, prefix=()):
    """The key path of every value inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from node_paths(value, prefix + (key,))


def mutated(doc, values):
    """doc with one to three values replaced by drawn ones or dropped."""
    edits = st.tuples(st.sampled_from(list(node_paths(doc))), values | st.just(DROP))

    def apply(changes):
        out = json.loads(json.dumps(doc))
        for path, value in changes:
            try:
                node = out
                for key in path[:-1]:
                    node = node[key]
                if value is DROP:
                    del node[path[-1]]
                else:
                    node[path[-1]] = value
            except (KeyError, IndexError, TypeError):
                pass  # an earlier edit removed or replaced the path
        return out

    return st.lists(edits, min_size=1, max_size=3).map(apply)


TAXONOMY = validate_taxonomy(HOSPITAL_TAXONOMY)
RULE = {"part_id": SEAL, "priority": 1, "hsv_range": {"h_min": 345.0, "h_max": 15.0}}

# name -> (a valid document, its reader, the field names it may hold)
JSON_INPUTS = {
    "run-config": (
        {"taxonomy": "t.json", "seed": 3, "jobs": 2, "min_instance_area": 4},
        lambda path: _merge_run_config(Namespace(config=str(path))),
        list(_SETTINGS),
    ),
    "taxonomy": (
        HOSPITAL_TAXONOMY,
        load_taxonomy,
        field_names(ClassTaxonomy, SemanticClass, PartClass),
    ),
    "colour-table": (
        {"class_colors": {"1": [1, 2, 3]}, "part_colors": {"11": [4, 5, 6]}},
        lambda path: _overlay_spec_from_args(
            Namespace(alpha=None, no_boxes=False, colors=str(path)), TAXONOMY
        ),
        ["class_colors", "part_colors", "1", "11", "-2", "x"],
    ),
    "camera": (
        {"width": 8, "height": 6, "fx": 5.0, "fy": 5.0, "cx": 4.0, "cy": 3.0,
         "extrinsic": np.eye(4).ravel().tolist()},
        load_camera,
        field_names(CameraModel),
    ),
    "proposals": (
        [{"class_id": 1, "confidence": 0.9, "mask_tensor_path": "m.ppt1"}],
        formats.read_proposals,
        field_names(InstanceProposal) + ["mask_tensor_path"],
    ),
    "rgbd-config": (
        {"object_class_id": 1, "pmf": {"max_window": 8}, "part_rules": [RULE]},
        lambda path: load_rgbd_config(read_json(path, dict)),
        field_names(RgbdLabelConfig, PmfParams, PartColorRule, HsvRange),
    ),
    "monitor-config": (
        {"object_class_id": 1, "black_range": {"v_max": 0.2}, "part_rules": [RULE]},
        lambda path: load_monitor_config(read_json(path, dict)),
        field_names(MonitorLabelConfig, PartColorRule, HsvRange),
    ),
}


def json_input(tmp_path, name, doc=None):
    """The path of input ``name`` holding doc (default: its valid document)."""
    valid, read, _ = JSON_INPUTS[name]
    formats.write_tensor(np.zeros((2, 3), dtype=np.float32), tmp_path / "m.ppt1")
    path = tmp_path / "input.json"
    path.write_text(json.dumps(valid if doc is None else doc), encoding="utf-8")
    return path, read


@pytest.mark.parametrize("name", sorted(JSON_INPUTS))
@FUZZ
@given(data=st.data())
def test_json_input_rejects_damage(tmp_path, name, data):
    path, read = json_input(tmp_path, name)
    read(path)
    path.write_bytes(data.draw(damaged(path.read_bytes())))
    # a damaged mask file name names another file, unreadable like any (exit 2)
    read_or_reject(read, path, (OSError,) if name == "proposals" else ())


@pytest.mark.parametrize("name", sorted(JSON_INPUTS))
@settings(FUZZ, max_examples=100)  # nested values are slow to draw
@given(data=st.data())
def test_json_input_rejects_wrong_values(tmp_path, name, data):
    valid, _, keys = JSON_INPUTS[name]
    # proposals may only name their one mask file, or a file name never valid
    texts = st.sampled_from(["m.ppt1", "", "\0"]) if name == "proposals" else st.text(max_size=4)
    values = json_values(keys, texts)
    objects = st.dictionaries(st.sampled_from(keys), values, max_size=6)
    fresh = objects if isinstance(valid, dict) else st.lists(objects, max_size=3)
    path, read = json_input(tmp_path, name, data.draw(fresh | mutated(valid, values)))
    read_or_reject(read, path)


def test_only_the_json_reader_parses_json():
    """Every JSON input goes through jsonio.read_json, which holds the one
    error contract; no other module may call json.load or json.loads."""
    offenders = []
    for module in sorted(Path(partfuse.__file__).parent.glob("*.py")):
        if module.name == "jsonio.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            named = isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
            if named and isinstance(node.value, ast.Name) and node.value.id == "json":
                offenders.append(f"{module.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                offenders.append(f"{module.name}:{node.lineno}")
    assert offenders == []
