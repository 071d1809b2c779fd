import json
import re

import pytest

from partfuse.errors import ValidationError
from partfuse.taxonomy import load_taxonomy, validate_taxonomy

from conftest import BAG, HOSPITAL_TAXONOMY, SEAL, CENTER, OTHER


def test_hospital_taxonomy_valid(taxonomy):
    assert len(taxonomy.semantic_classes) == 4
    parts = taxonomy.parts_of(BAG)
    assert [p.id for p in parts] == [SEAL, CENTER, OTHER]


def test_single_class_no_parts():
    tax = validate_taxonomy(
        {"semantic_classes": [{"id": 5, "name": "box", "is_thing": True}]}
    )
    assert tax.parts_of(5) == ()
    assert tax.part_ids == ()


def test_unknown_parent_rejected():
    raw = {
        "semantic_classes": [{"id": 1, "name": "a", "is_thing": True}],
        "part_classes": [{"id": 2, "name": "p", "parent_semantic_id": 99}],
    }
    with pytest.raises(ValidationError, match="parent"):
        validate_taxonomy(raw)


def test_duplicate_semantic_id_rejected():
    raw = {
        "semantic_classes": [
            {"id": 1, "name": "a", "is_thing": True},
            {"id": 1, "name": "b", "is_thing": False},
        ]
    }
    with pytest.raises(ValidationError, match="duplicate"):
        validate_taxonomy(raw)


def test_duplicate_part_id_rejected():
    raw = {
        "semantic_classes": [{"id": 1, "name": "a", "is_thing": True}],
        "part_classes": [
            {"id": 7, "name": "p", "parent_semantic_id": 1},
            {"id": 7, "name": "q", "parent_semantic_id": 1},
        ],
    }
    with pytest.raises(ValidationError, match="duplicate"):
        validate_taxonomy(raw)


def test_id_zero_rejected():
    raw = {"semantic_classes": [{"id": 0, "name": "void", "is_thing": False}]}
    with pytest.raises(ValidationError, match="reserved"):
        validate_taxonomy(raw)


def test_empty_semantic_list_rejected():
    with pytest.raises(ValidationError, match="empty"):
        validate_taxonomy({"semantic_classes": []})


def test_part_ordering_follows_file_order():
    raw = {
        "semantic_classes": [{"id": 1, "name": "a", "is_thing": True}],
        "part_classes": [
            {"id": 9, "name": "late", "parent_semantic_id": 1},
            {"id": 3, "name": "early", "parent_semantic_id": 1},
        ],
    }
    tax = validate_taxonomy(raw)
    assert [p.id for p in tax.parts_of(1)] == [9, 3]


def test_load_is_deterministic(tmp_path):
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(HOSPITAL_TAXONOMY), encoding="utf-8")
    first = load_taxonomy(path)
    second = load_taxonomy(path)
    assert first == second
    assert first.parts_of(BAG) == second.parts_of(BAG)


def test_things_and_stuff_split(taxonomy):
    assert taxonomy.is_thing(1)
    assert not taxonomy.is_thing(4)


def _drop(key):
    return lambda entry: entry.pop(key)


@pytest.mark.parametrize(
    "where, edit, message",
    [
        ("semantic_classes", _drop("name"), "semantic_classes[0].name is missing"),
        ("semantic_classes", _drop("is_thing"), "semantic_classes[0].is_thing is missing"),
        ("semantic_classes", lambda e: e.update(is_thing=1), "is_thing must be true or false"),
        ("semantic_classes", lambda e: e.update(name=7), "name must be a string"),
        ("semantic_classes", lambda e: e.update(colour="red"), "unknown key 'colour'"),
        ("part_classes", lambda e: e.update(parent_semantic_id=[1]),
         "part_classes[0].parent_semantic_id must be an integer"),
        ("part_classes", lambda e: e.update(id=11.0), "part_classes[0].id must be an integer"),
        ("part_classes", _drop("name"), "part_classes[0].name is missing"),
    ],
    ids=["no-name", "no-is-thing", "int-is-thing", "int-name", "unknown-key",
         "list-parent", "float-id", "no-part-name"],
)
def test_malformed_entry_rejected(where, edit, message):
    raw = json.loads(json.dumps(HOSPITAL_TAXONOMY))
    edit(raw[where][0])
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_taxonomy(raw)


@pytest.mark.parametrize("part_classes", [5, "parts", {"id": 11}, None])
def test_part_classes_must_be_an_array(part_classes):
    with pytest.raises(ValidationError, match="part_classes must be an array"):
        validate_taxonomy({**HOSPITAL_TAXONOMY, "part_classes": part_classes})


@pytest.mark.parametrize(
    "names, message",
    [
        (["bag", "bag"], "duplicate semantic class name 'bag'"),
        (["bag", "total"], "semantic class name 'total'"),
        (["a\tb"], "semantic class name 'a\\tb'"),
        (["a\rb"], "semantic class name 'a\\rb'"),
        (["bag\n"], "semantic class name 'bag\\n'"),
    ],
    ids=["duplicate-name", "total", "tab", "carriage-return", "newline"],
)
def test_semantic_class_names_a_tsv_cannot_carry_rejected(names, message):
    """A report TSV has one row per semantic class, keyed by its name and
    ended by a 'total' row; these names would make it unreadable."""
    raw = {"semantic_classes": [
        {"id": i + 1, "name": name, "is_thing": True} for i, name in enumerate(names)]}
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_taxonomy(raw)


def test_part_class_names_are_not_tsv_rows():
    """Only semantic class names head TSV rows, so a part may be 'total'."""
    tax = validate_taxonomy({
        "semantic_classes": [{"id": 1, "name": "a", "is_thing": True}],
        "part_classes": [{"id": 2, "name": "total", "parent_semantic_id": 1}],
    })
    assert tax.part_class(2).name == "total"
