"""JSON body descriptions: parsing, canonical serialization, and hashing.

Accepted forms::

    {"type": "polygon",   "vertices": [[x, y], ...]}
    {"type": "support2d", "a0": s, "cos": [...], "sin": [...]}
    {"type": "reuleaux",  "sides": k, "width": w}
    {"type": "disk",      "radius": r}
    {"type": "polytope3", "vertices": [[x, y, z], ...], "facets": [[i, ...], ...]}
    {"type": "standard3", "name": "cube", ...constructor keywords}

Numbers are decimal, angles radians.  Canonical serialization fixes float
formatting at 17 significant digits, which read back as the same double,
so hashes and golden files are stable.
"""

from __future__ import annotations

import hashlib
import json
import os
from numbers import Integral, Real

import numpy as np

from .bodies2d import build_polygon, build_reuleaux, disk, SmoothBody2
from .bodies3d import build_polytope, standard_polytope
from .errors import SpecError


def format_float(x: float) -> str:
    """Fixed scientific notation with 17 significant digits: enough that
    ``float(format_float(x)) == x`` for every double."""
    return f"{float(x):.16e}"


def _require(obj: dict, key: str, kind=None):
    if key not in obj:
        raise SpecError(f"body description is missing field {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise SpecError(f"field {key!r} has the wrong type "
                        f"({type(val).__name__})")
    return val


def _rows(obj: dict, key: str) -> np.ndarray:
    """The list field ``key`` as one array; SpecError if its rows are ragged."""
    try:
        return np.asarray(_require(obj, key, list), dtype=float)
    except ValueError as exc:
        raise SpecError(f"field {key!r} must hold rows of one length") from exc


def _numeric(val, kind) -> bool:
    """Is val a kind of number, or a list or tuple of them nested to any depth?"""
    return isinstance(val, kind) or (isinstance(val, (list, tuple))
                                     and all(_numeric(v, kind) for v in val))


def _load(source):
    """The description that a dict, a JSON string or a path to a JSON file
    holds; SpecError names the place of invalid JSON."""
    if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
        with open(source) as fh:
            try:
                return json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecError(f"{source}: invalid JSON at line {exc.lineno}, "
                                f"column {exc.colno}: {exc.msg}") from exc
    if isinstance(source, str):
        try:
            return json.loads(source)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    return source


def parse_body(source):
    """Build a body from a dict, a JSON string, or a path to a JSON file."""
    obj = _load(source)
    if not isinstance(obj, dict):
        raise SpecError("body description must be a JSON object")
    kind = _require(obj, "type", str)
    for key, val in obj.items():
        number = Integral if key == "facets" else Real
        if key not in ("type", "name") and not _numeric(val, number):
            raise SpecError(f"field {key!r} must hold {number.__name__.lower()} numbers only")
    if kind == "polygon":
        return build_polygon(_rows(obj, "vertices"))
    if kind == "support2d":
        a0 = _require(obj, "a0")
        return SmoothBody2(float(a0), obj.get("cos", []), obj.get("sin", []))
    if kind == "reuleaux":
        return build_reuleaux(int(_require(obj, "sides", int)),
                              float(_require(obj, "width")))
    if kind == "disk":
        return disk(float(_require(obj, "radius")))
    if kind == "polytope3":
        return build_polytope(_rows(obj, "vertices"),
                              _require(obj, "facets", list))
    if kind == "standard3":
        name = _require(obj, "name", str)
        kwargs = {k: v for k, v in obj.items() if k not in ("type", "name")}
        return standard_polytope(name, **kwargs)
    raise SpecError(f"unknown body type {kind!r}")


def _canonical(value):
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def body_hash(source) -> str:
    """Stable short hash of a body description (order- and format-insensitive)."""
    blob = json.dumps(_canonical(_load(source)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
