"""Canonical machine-readable reports.

Emission is byte-deterministic: keys sorted, floats at 17 significant
digits, two-space indentation, strings as ``json.dumps`` writes them.
``dumps_report`` writes the text in one pass over the report objects,
with no intermediate tree of plain values.  Extended reals use the
reserved sentinel strings "+inf", "-inf" and "nan", which the loader
converts back, so infinite curvature values round-trip.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from ._version import __version__

_INF = float("inf")
_SENTINELS = {"+inf": _INF, "-inf": -_INF}


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The field names of a dataclass type, sorted, and their quoted keys."""
    names = tuple(sorted(f.name for f in dataclasses.fields(cls)))
    return names, tuple(_quote(name) for name in names)


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == _INF:
        return '"+inf"'
    if x == -_INF:
        return '"-inf"'
    return format(x, ".17g")


def _write_block(values, keys, brackets: str, pad: str, out: list[str]) -> None:
    """Append values, one per line nested at indentation pad, as a JSON
    array (keys None) or as an object with the quoted keys."""
    if not values:
        out.append(brackets)
        return
    inner = pad + "  "
    out.append(brackets[0] + "\n" + inner)
    for i, v in enumerate(values):
        if i:
            out.append(",\n" + inner)
        if keys is not None:
            out.append(keys[i] + ": ")
        _write(v, inner, out)
    out.append("\n" + pad + brackets[1])


def _write_dict(obj: dict, pad: str, out: list[str]) -> None:
    if not all(type(k) is str for k in obj):
        obj = {str(k): v for k, v in obj.items()}
    keys = sorted(obj)
    _write_block([obj[k] for k in keys], [_quote(k) for k in keys], "{}", pad, out)


def _write(obj, pad: str, out: list[str]) -> None:
    """Append the canonical text of a report value, nested at indentation
    pad: a dataclass is an object of its fields, a tuple or an array a
    list, and numpy scalars their Python values."""
    t = type(obj)
    if t is float:
        out.append(_fmt_float(obj))
    elif t is str:
        out.append(_quote(obj))
    elif t is bool:
        out.append("true" if obj else "false")
    elif t is int:
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif t is list or t is tuple:
        _write_block(obj, None, "[]", pad, out)
    elif t is dict:
        _write_dict(obj, pad, out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names, keys = _fields(t)
        _write_block([getattr(obj, name) for name in names], keys, "{}", pad, out)
    elif isinstance(obj, dict):
        _write_dict(obj, pad, out)
    elif isinstance(obj, (list, tuple)):
        _write_block(obj, None, "[]", pad, out)
    elif isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            raise TypeError("cannot serialize a 0-d array canonically")
        _write_block(obj.tolist(), None, "[]", pad, out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (np.floating, float)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, (np.integer, int)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    else:
        raise TypeError(f"cannot serialize {t.__name__} canonically")


def dumps_report(payload, kind: str, seed: int | None = None,
                 tolerances: dict | None = None) -> str:
    """The canonical text of a report, written in one pass over it."""
    doc = {
        "tool": "kktstab",
        "version": __version__,
        "kind": kind,
        "seed": seed,
        "tolerances": tolerances or {},
        "payload": payload,
    }
    out: list[str] = []
    _write_dict(doc, "", out)
    out.append("\n")
    return "".join(out)


def emit_report(payload, path, kind: str, seed: int | None = None,
                tolerances: dict | None = None) -> None:
    text = dumps_report(payload, kind, seed, tolerances)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def _decode(obj):
    if isinstance(obj, str):
        if obj in _SENTINELS:
            return _SENTINELS[obj]
        if obj == "nan":
            return float("nan")
        return obj
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _decode(v) for k, v in obj.items()}
    return obj


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return _decode(json.load(fh))
