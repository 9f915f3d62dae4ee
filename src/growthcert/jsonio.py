"""Deterministic JSON emission, and the one reader for input documents.

``json.dumps`` renders floats with ``repr``, whose digit count varies by
value.  Reports and model files here must be byte-stable and round-trip
exactly, so this module provides a small emitter with a fixed layout: object
keys on separate lines in insertion order, arrays inline, and every float
rendered with 17 significant digits (enough to reconstruct an IEEE-754
double exactly).

NaN is rejected outright -- nothing in this package is allowed to produce
one -- and infinities are emitted as the JSON strings ``"inf"`` / ``"-inf"``
since JSON has no number literal for them.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError

_INDENT = "  "


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (exact round-trip)."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("NaN is not representable in emitted documents")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _emit(value, depth: int) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = _INDENT * (depth + 1)
        items = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {_emit(v, depth + 1)}" for k, v in value.items()
        )
        return "{\n" + items + "\n" + _INDENT * depth + "}"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_emit(v, depth) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Serialize ``value`` deterministically; trailing newline included."""
    return _emit(value, 0) + "\n"


def dump(value, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(value))


def load(path, what: str):
    """Parse the JSON document at ``path``; read and syntax failures are :class:`ParseError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column "
                         f"{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: cannot read {what}: {exc}") from exc
