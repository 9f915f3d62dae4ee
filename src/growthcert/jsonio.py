"""Deterministic JSON emission, and the reader for input documents.

``json.dumps`` renders floats with ``repr``, whose digit count varies by
value.  Reports and model files here must be byte-stable and round-trip
exactly, so this module provides a small emitter with a fixed layout: object
keys on separate lines in insertion order, arrays inline, and every float
rendered with 17 significant digits (enough to reconstruct an IEEE-754
double exactly).

NaN is rejected outright -- nothing in this package is allowed to produce
one -- and infinities are emitted as the JSON strings ``"inf"`` / ``"-inf"``
since JSON has no number literal for them.

A non-empty finite float ndarray is rendered in one step: a printf template
built from its shape (a ``"%.17g"`` cell per entry, nested in ``"[...]"``
axis by axis) is applied with ``%`` to its flattened elements.  ``%.17g``
and ``format(x, ".17g")`` use the same double formatter, so the bytes equal
those of the per-element path, which every other array (empty, non-finite,
integer, boolean) and every list still takes.  An entry that is exactly
``+0.0`` is written into the template as the literal ``0``, the bytes
``%.17g`` gives it, and is not formatted: most of a deterministic
certificate's occupation measure is zeros.  ``-0.0`` still goes through
``%.17g``, as ``-0``.

Model files are read through :class:`RowDecoder`, which turns each numeric
row of a tensor into an ndarray as soon as it is parsed, so a load peaks at
about twice the file size: the bytes read and their text.  The time is
json's, about 230 ns to parse each 17-digit float.
"""

from __future__ import annotations

import json
import json.decoder
import math

import numpy as np

from .errors import ParseError

_INDENT = "  "
_CELLS = np.array(["%.17g", "0"], dtype=object)  # a template cell by whether its entry is +0.0


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
        if value.dtype.kind == "f" and value.size and np.isfinite(value).all():
            flat = value.ravel()
            zero = (flat == 0) & ~np.signbit(flat)
            # the template is one join over shared strings: each entry's cell,
            # and before it the separator that closes and opens the rows
            # ending and starting there (per-row strings would be left as
            # holes in the heap that the next model load cannot reuse)
            ends = np.zeros(flat.size, dtype=np.intp)
            stride = 1
            for size in reversed(value.shape[1:]):
                stride *= size
                ends[::stride] += 1
            ends[0] = -1  # the opening brackets
            seps = np.array([", "] + ["]" * k + ", " + "[" * k for k in range(1, value.ndim)]
                            + ["[" * value.ndim], dtype=object)
            parts = np.empty(2 * flat.size + 1, dtype=object)
            parts[:-1:2] = seps[ends]
            parts[1::2] = _CELLS[zero.view(np.int8)]
            parts[-1] = "]" * value.ndim
            return "".join(parts.tolist()) % tuple(flat[~zero].tolist())
        return _emit(value.tolist(), depth)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_emit(v, depth) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Serialize ``value`` deterministically; trailing newline included."""
    return _emit(value, 0) + "\n"


def dump(value, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(value))


class RowDecoder(json.JSONDecoder):
    """A JSON decoder that reads the document's arrays one element at a time.

    An array that is the document, or a value of its top-level object, is
    read by ``json.decoder.JSONArray``; json's C scanner parses each of its
    elements, and an element that ``np.asarray`` reads as a boolean or
    numeric array becomes that ndarray at once, so a tensor's entries are
    never all held as Python floats.  Any other element (ragged, or holding
    a string, ``null``, an object or an integer beyond 64 bits) stays as
    json gave it, so ``np.asarray`` of the outer list gives the same array,
    or raises the same error, as of ``json.loads``'s lists.  Everything
    else, nested objects included, goes through the C scanner, so the
    grammar, the error messages, duplicate keys and the nesting limit are
    json's own.
    """

    def __init__(self):
        super().__init__()
        values = self.scan_once  # json's C scanner, built by the line above

        def element(s, idx):
            value, end = values(s, idx)
            if isinstance(value, list):
                try:
                    arr = np.asarray(value)
                except (TypeError, ValueError):
                    return value, end
                if arr.dtype.kind in "biuf":
                    value = arr
            return value, end

        def member(s, idx):
            if s.startswith("[", idx):
                return json.decoder.JSONArray((s, idx + 1), element)
            return values(s, idx)

        def document(s, idx):
            if s.startswith("{", idx):
                return json.decoder.JSONObject((s, idx + 1), self.strict, member, None, None)
            return member(s, idx)

        self.scan_once = document


def load(path, what: str, cls=None):
    """Parse ``path`` with decoder class ``cls`` (json's own when None).

    Every read, decode, nesting and syntax failure is a :class:`ParseError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, cls=cls)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column "
                         f"{exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: cannot read {what}: {exc}") from exc
