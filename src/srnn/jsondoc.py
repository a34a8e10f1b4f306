"""Read and write the package's JSON files, and read them into dataclasses.

`load` is the one way the package decodes a JSON file (configs,
architecture files, model files, dataset manifests), so a file that is
not JSON fails the same way everywhere; `dump` is the one way it writes
one (model files, dataset manifests).

`read` serves every JSON document the package takes in: CLI configs,
the specs in model files, architecture files, surrogate records and
dataset manifests. It walks a dataclass's fields and checks each value
against the annotation: an int must be a JSON integer (not a bool, not
1.0), a float a finite number (so NaN, Infinity and 1e400 fail), bool and
str exactly that type, Literal one of its values, tuple[X, Y] a list of
that length, list[X] a list, Optional[X] null or X. Unknown keys fail, and so do missing fields
without a default. A Union of dataclasses is an object whose "kind" key
names the member by the member's `kind` class attribute.

Values are kept as decoded (an integer given for a float stays one), so a
document read and written back with dataclasses.asdict keeps its bytes.
A ValueError from __post_init__ is reported at the object's path.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np


class SchemaError(ValueError):
    """A JSON document that does not fit the dataclass it describes."""

    def __init__(self, path: str, why: str):
        super().__init__(f"schema violation at {path or '(top level)'}: {why}")


def load(path):
    """Decode the JSON file at `path`; raise ValueError if it is not JSON.

    Bad syntax, bytes that do not decode, an integer too long to parse and
    nesting deeper than the decoder's recursion limit all end here as a
    ValueError "invalid JSON: ...".
    """
    try:
        with open(path) as f:
            return json.load(f)
    except (ValueError, RecursionError) as e:
        raise ValueError(f"invalid JSON: {e}") from None


def dump(doc, path) -> None:
    """Write `doc` to `path` as json.dump(doc, f, indent=1, sort_keys=True)
    would, and a final newline."""
    with open(path, "w") as f:
        _write_json(f, doc)
        f.write("\n")


def _write_json(f, v, level: int = 0) -> None:
    """Write `v` to `f` as json.dump(v, f, indent=1, sort_keys=True) would.

    `v` is a document of dicts, lists and scalars whose arrays may also be
    numpy arrays. The text goes out piece by piece: each 1-d array, an
    innermost row, is formed by json's C encoder in one call (json.dump
    with an indent runs its pure-Python encoder over every float), with an
    item separator that carries the row's newline and padding, so its
    floats get json's own text (float.__repr__, NaN) and nothing larger
    than one row's text is held at a time.
    """
    pad, end = "\n" + " " * (level + 1), "\n" + " " * level
    if isinstance(v, np.ndarray) and v.ndim == 1 and len(v):
        row = json.dumps(v.tolist(), separators=("," + pad, ": "))
        f.write("[" + pad + row[1:-1] + end + "]")
    elif isinstance(v, dict) and v:
        for k, key in enumerate(sorted(v)):
            f.write(("," if k else "{") + pad + json.dumps(key) + ": ")
            _write_json(f, v[key], level + 1)
        f.write(end + "}")
    elif isinstance(v, (list, tuple, np.ndarray)) and len(v):
        for k, x in enumerate(v):
            f.write(("," if k else "[") + pad)
            _write_json(f, x, level + 1)
        f.write(end + "]")
    else:  # a scalar or an empty container
        f.write(json.dumps(v.tolist() if isinstance(v, np.ndarray) else v))


def read(tp, doc, path: str = "", complete: bool = False):
    """Build a `tp` (a dataclass or a tagged union of them) from decoded JSON.

    `path` names where `doc` sits in a larger document. With `complete`,
    fields with defaults must be given too, as in files the package wrote.
    """
    return _read(tp, doc, path, "", complete)


# a dataclass's resolved annotations; resolving them costs more than
# reading a small document
_type_hints = functools.cache(get_type_hints)

_SCALARS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: math.isfinite(v) if type(v) is float
            else type(v) is int and abs(v) <= sys.float_info.max),
    bool: ("true or false", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
}


def _read(tp, v, path: str, name: str, complete: bool):
    """Read `v` as a `tp`; `name` is the field it belongs to."""
    at = lambda key: f"{path}/{key}" if path else str(key)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:
        members = [m for m in args if m is not type(None)]
        if v is None and len(members) < len(args):
            return None
        if len(members) == 1:
            return _read(members[0], v, path, name, complete)
        kinds = {m.kind: m for m in members}
        if type(v) is not dict:
            raise SchemaError(path, f"expected an object, got {type(v).__name__}")
        if v.get("kind") not in tuple(kinds):
            raise SchemaError(at("kind"), f"kind must be one of {tuple(kinds)}, "
                                          f"got {v.get('kind')!r}")
        rest = {k: x for k, x in v.items() if k != "kind"}
        return _read(kinds[v["kind"]], rest, path, name, complete)
    if origin is Literal:
        if v not in args:
            raise SchemaError(path, f"{name} must be one of {args}, got {v!r}")
        return v
    if origin in (list, tuple):
        if type(v) is not list or (origin is tuple and len(v) != len(args)):
            what = f"a list of {len(args)}" if origin is tuple else "a list"
            raise SchemaError(path, f"expected {what}, got {v!r}")
        items = [_read(args[i] if origin is tuple else args[0], x, at(i), name, complete)
                 for i, x in enumerate(v)]
        return tuple(items) if origin is tuple else items
    if not dataclasses.is_dataclass(tp):
        what, ok = _SCALARS[tp]
        if not ok(v):
            raise SchemaError(path, f"expected {what}, got {v!r}")
        return v
    if type(v) is not dict:
        raise SchemaError(path, f"expected an object, got {type(v).__name__}")
    fields = {f.name: f for f in dataclasses.fields(tp)}
    for key in v:
        if key not in fields:
            raise SchemaError(path, f"unknown key {key!r}")
    hints = _type_hints(tp)
    kwargs = {}
    for key, f in fields.items():
        if key in v:
            kwargs[key] = _read(hints[key], v[key], at(key), key, complete)
        elif complete or (f.default is dataclasses.MISSING
                          and f.default_factory is dataclasses.MISSING):
            raise SchemaError(path, f"missing key {key!r}")
    try:
        return tp(**kwargs)
    except ValueError as e:
        raise SchemaError(path, str(e)) from None
