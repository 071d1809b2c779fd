from __future__ import annotations

import os

# --jobs N forks its workers, and Python 3.12+ warns (an error here, see
# pyproject.toml) when fork() runs beside a live thread: keep OpenBLAS from
# starting threads when numpy loads, as partfuse's main does
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest

from partfuse.taxonomy import ClassTaxonomy, validate_taxonomy

# ids used throughout the tests
BAG = 1
BOTTLE = 2
MEDICAL_BAG = 3
TABLE = 4
SEAL = 11
CENTER = 12
OTHER = 13

HOSPITAL_TAXONOMY = {
    "semantic_classes": [
        {"id": BAG, "name": "transfusion_bag", "is_thing": True},
        {"id": BOTTLE, "name": "bottle", "is_thing": True},
        {"id": MEDICAL_BAG, "name": "medical_bag", "is_thing": True},
        {"id": TABLE, "name": "table", "is_thing": False},
    ],
    "part_classes": [
        {"id": SEAL, "name": "transfusion_bag_seal", "parent_semantic_id": BAG},
        {"id": CENTER, "name": "transfusion_bag_center", "parent_semantic_id": BAG},
        {"id": OTHER, "name": "transfusion_bag_other", "parent_semantic_id": BAG},
    ],
}


@pytest.fixture
def taxonomy() -> ClassTaxonomy:
    return validate_taxonomy(HOSPITAL_TAXONOMY)


@pytest.fixture
def taxonomy_json(tmp_path):
    import json

    path = tmp_path / "taxonomy.json"
    path.write_text(json.dumps(HOSPITAL_TAXONOMY, indent=2), encoding="utf-8")
    return path


def make_triple(sem, inst=None, part=None):
    from partfuse.containers import LabelTriple

    sem = np.asarray(sem, dtype=np.uint16)
    if inst is None:
        inst = np.zeros_like(sem)
    if part is None:
        part = np.zeros_like(sem)
    return LabelTriple.from_arrays(sem, inst, part)
