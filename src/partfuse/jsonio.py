"""One reader and one decoder for every JSON input, and one writer.

``read_json`` parses a file strictly: UTF-8, standard JSON whose numbers
are finite and whose integers fit in 64 bits, and the expected top-level
type.  ``decode`` builds a dataclass from the parsed value, checking each
value against its field's type.  A missing file and every fault in the
bytes raise ValidationError (exit 3); a file that cannot be read stays
an OSError (exit 2).  ``write_json`` writes every JSON output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from pathlib import Path

from .errors import ValidationError, open_input

# a field type -> a test of the JSON value it takes, and its name in messages
_SCALARS = {
    bool: (lambda v: type(v) is bool, "true or false"),
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in (int, float), "a number"),
    str: (lambda v: type(v) is str, "a string"),
    Path: (lambda v: type(v) is str and v != "" and "\0" not in v, "a file name"),
}


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _int(text: str) -> int:
    value = int(text)
    if abs(value) >= 1 << 64:
        raise ValueError(f"integer {text} is out of range")
    return value


def _constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path: str | Path, top: type):
    """The JSON value in ``path``, which must be a ``top`` (dict or list)."""
    with open_input(path) as fh:
        data = fh.read()
    try:
        value = json.loads(
            data.decode("utf-8"),
            parse_float=_float,
            parse_int=_int,
            parse_constant=_constant,
        )
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(value, top):
        kind = "an object" if top is dict else "an array"
        raise ValidationError(f"{path}: the top level must be {kind}")
    return value


def write_json(path: str | Path, value) -> None:
    """Write ``value`` as UTF-8 JSON, indented by 2 with sorted keys and
    a final newline."""
    text = json.dumps(value, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def decode(hint, raw, what: str):
    """``raw``, a parsed JSON value, as a value of type ``hint``.

    A dataclass takes an object, whose keys name its fields; a missing
    field takes its default.  An int field takes an integer, a float
    field any number, a bool field true or false, a str field a string, a
    Path field a non-empty string without NUL, an ``X | None`` field also
    null, and a ``tuple[X, ...]`` field an array.  A field of any other
    type takes the value as it is, for its class to check.  Unknown keys
    are ignored in the top-level object, which one file may share between
    readers, and rejected in nested ones.  Faults raise
    ValidationError("malformed <what>: ...").
    """
    try:
        return _decode(hint, raw, "", top=True)
    except ValidationError as exc:
        raise ValidationError(f"malformed {what}: {exc}") from None


def _decode(hint, value, where: str, top: bool = False):
    if dataclasses.is_dataclass(hint):
        return _object(hint, value, where, top)
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _decode(args[0], value, where)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        if type(value) is not list:
            raise ValidationError(f"{where} must be an array, got {value!r:.60}")
        return tuple(_decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if hint in _SCALARS:
        takes, name = _SCALARS[hint]
        if not takes(value):
            raise ValidationError(f"{where} must be {name}, got {value!r:.60}")
        return hint(value)
    return value


def _object(cls, raw, where: str, top: bool):
    if type(raw) is not dict:
        noun = getattr(cls, "noun", cls.__name__)
        raise ValidationError(f"{where or 'top level'}: {noun} must be a JSON object, "
                              f"got {raw!r:.60}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = f"{where}.{f.name}" if where else f.name
        if f.name in raw:
            kwargs[f.name] = _decode(hints[f.name], raw[f.name], key)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValidationError(f"{key} is missing")
    unknown = raw.keys() - kwargs.keys()
    if unknown and not top:
        raise ValidationError(f"{where}: unknown key {min(unknown)!r}")
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}" if where else str(exc)) from None
