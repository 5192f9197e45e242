"""Lossless text formats for simulated paths.

CSV values are written with 17 significant digits, which pins every
binary64 number exactly, so parsing a written file recovers the original
floats bit for bit.  JSON documents rely on the shortest exact decimal
representation for the same guarantee.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from . import _EXPORTS
from .distributions import _check_key
from .law import MaxARParams
from .maxar import DiscretePath

# continuous is imported only by the two functions that evaluate or build
# a continuous path, so discrete paths never load it.

__all__ = list(_EXPORTS["serialize"])

DISCRETE_CSV_HEADER = "t,value"
CONTINUOUS_CSV_HEADER = "time,value,is_event"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _seed_field(seed):
    return None if seed is None else [int(seed[0]), int(seed[1])]


def _parse_seed(field):
    """A seed field as a (seed, stream) pair, refusing any field that is
    not null or two unsigned 64-bit integers."""
    if field is None:
        return None
    if not isinstance(field, list) or len(field) != 2:
        raise ValueError("field 'seed': expected null or [seed, stream]")
    return _check_key(field[0]), _check_key(field[1])


def _fields(text: str, kind: str, names: tuple) -> tuple[dict, list]:
    """The JSON document of the given kind and its named fields, refusing
    another document, or a missing field, with ValueError naming it."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValueError(f"field 'kind': expected {kind!r}")
    for name in names:
        if name not in doc:
            raise ValueError(f"{name!r}: missing field")
    return doc, [doc[name] for name in names]


def _named(name: str, build, *args):
    """build(*args), whose TypeError, a field that holds no number where
    one is due, is raised as ValueError naming the field."""
    try:
        return build(*args)
    except TypeError as exc:
        raise ValueError(f"{exc}, in field {name!r}") from exc


def discrete_csv_text(path: DiscretePath) -> str:
    """The header and a row t,value per value, the value as format_float
    writes it, all formatted at once."""
    start = path.start_index
    rows = zip(range(start, start + len(path)), path.values.tolist())
    return f"{DISCRETE_CSV_HEADER}\n" + "%d,%.17g\n" * len(path) \
        % tuple(chain.from_iterable(rows))


def _data_rows(text: str, header: str) -> tuple[list[int], list[str]]:
    """The file line numbers (from 1) of the nonblank rows after the
    header, which must match exactly, and those rows."""
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1)
                if ln.strip()]
    if not numbered or numbered[0][1].strip() != header:
        raise ValueError(f"line 1: expected header {header!r}")
    return [i for i, _ in numbered[1:]], [ln for _, ln in numbered[1:]]


def _scan_rows(numbers: list[int], rows: list[str], converters) -> list[list]:
    """The columns of the data rows, converted one row at a time; raises
    ValueError naming the file line of the first malformed row."""
    columns = [[] for _ in converters]
    for i, ln in zip(numbers, rows):
        parts = ln.split(",")
        if len(parts) != len(converters):
            raise ValueError(f"line {i}: expected {len(converters)} "
                             "comma-separated fields")
        try:
            for column, convert, part in zip(columns, converters, parts):
                column.append(convert(part))
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from exc
    return columns


def _require(ok: np.ndarray, column: np.ndarray, rule: str,
             numbers: list[int]) -> None:
    """Raise naming the file line of the first data row where ok fails."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValueError(f"line {numbers[bad[0]]}: {rule}, got "
                         f"{float(column[bad[0]])!r}")


_POSITIVE = "value must be finite and positive"


def parse_discrete_csv(text: str):
    """Parse the discrete CSV format into (start_index, values).

    The header must match exactly, the indices must be consecutive
    integers and the values finite and positive; malformed input raises
    ValueError naming the offending line.  Each column is converted by
    numpy at once, with the same int and float rules; only when that fails
    are the rows scanned one at a time.
    """
    numbers, rows = _data_rows(text, DISCRETE_CSV_HEADER)
    if not rows:
        raise ValueError("no data rows")
    # a row without its one comma leaves a tail no float accepts
    heads, _, tails = zip(*(ln.partition(",") for ln in rows))
    try:
        indices = np.array(heads, dtype=np.int64).tolist()
        values = np.array(tails, dtype=np.float64)
    except (ValueError, OverflowError):
        # the scan raises at the bad line; indices beyond int64 pass it
        indices, values = _scan_rows(numbers, rows, (int, float))
    start = indices[0]
    if indices != list(range(start, start + len(indices))):
        raise ValueError("indices must be consecutive integers")
    values = np.asarray(values, dtype=np.float64)
    _require(np.isfinite(values) & (values > 0), values, _POSITIVE, numbers)
    return start, values


def discrete_json_text(path: DiscretePath) -> str:
    doc = {
        "kind": "discrete-path",
        "a": float(path.params.a),
        "direction": path.params.direction.value,
        "start_index": int(path.start_index),
        "seed": _seed_field(path.seed),
        "values": [float(v) for v in path.values],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_discrete_json(text: str) -> DiscretePath:
    """The discrete path of a JSON document; a malformed document raises
    ValueError naming the field."""
    doc, (start, values, a, direction) = _fields(
        text, "discrete-path", ("start_index", "values", "a", "direction"))
    # each TypeError has one source: a in MaxARParams, the values in
    # DiscretePath
    params = _named("a", MaxARParams, a, direction)
    return _named("values", DiscretePath, start, values, params,
                  _parse_seed(doc.get("seed")))


def continuous_csv_text(path: CadlagPath) -> str:
    """Rows time,value,is_event: the anchor row, one row per event, and a
    closing row with the left-limit value at the window end."""
    from .continuous import path_value

    t0, t1 = path.window
    lines = [CONTINUOUS_CSV_HEADER,
             f"{format_float(t0)},{format_float(path.anchor_value)},0"]
    for tt, vv in path.events.tolist():
        lines.append(f"{format_float(tt)},{format_float(vv)},1")
    lines.append(f"{format_float(t1)},{format_float(path_value(path, t1))},0")
    return "\n".join(lines) + "\n"


def parse_continuous_csv(text: str):
    """Parse the continuous CSV format into (times, values, is_event)
    arrays; the decay rate is not stored in CSV, so rebuilding a full path
    object requires the JSON format instead."""
    numbers, rows = _data_rows(text, CONTINUOUS_CSV_HEADER)
    if len(rows) < 2:
        raise ValueError("need at least the anchor and closing rows")
    times, values, flags = map(np.array, _scan_rows(
        numbers, rows, (float, float, _event_flag)))
    _require(np.isfinite(times), times, "time must be finite", numbers)
    _require(np.isfinite(values) & (values > 0), values, _POSITIVE, numbers)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if flags[0] != 0 or flags[-1] != 0:
        raise ValueError("first and last rows must be the anchor and close "
                         "markers (is_event=0)")
    return times, values, flags


def _event_flag(text: str) -> int:
    flag = int(text)
    if flag not in (0, 1):
        raise ValueError("is_event must be 0 or 1")
    return flag


def continuous_json_text(path: CadlagPath) -> str:
    doc = {
        "kind": "continuous-path",
        "a": float(path.a),
        "direction": path.direction.value,
        "window": [float(path.window[0]), float(path.window[1])],
        "anchor_value": float(path.anchor_value),
        "seed": _seed_field(path.seed),
        "events": path.events.tolist(),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_continuous_json(text: str) -> CadlagPath:
    """The continuous path of a JSON document; a malformed document
    raises ValueError naming the field."""
    from .continuous import CadlagPath

    doc, (a, direction, window, anchor, events) = _fields(
        text, "continuous-path",
        ("a", "direction", "window", "anchor_value", "events"))
    seed = _parse_seed(doc.get("seed"))
    try:
        return CadlagPath(a, direction, window, anchor, events, seed)
    except TypeError as exc:
        # CadlagPath reads a, the window's two ends and the anchor value
        # with float(), in turn, and then the events: name the first field
        # in which it found no number
        _named("a", float, a)
        for end in window:  # a pair, once a is read
            _named("window", float, end)
        _named("anchor_value", float, anchor)
        raise ValueError(f"{exc}, in field 'events'") from exc
