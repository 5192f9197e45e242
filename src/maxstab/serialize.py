"""Lossless text formats for simulated paths.

CSV values are written with 17 significant digits, which pins every
binary64 number exactly, so parsing a written file recovers the original
floats bit for bit.  JSON documents rely on the shortest exact decimal
representation for the same guarantee.
"""

from __future__ import annotations

import json

import numpy as np

from .continuous import CadlagPath, path_value
from .maxar import Direction, DiscretePath, MaxARParams

__all__ = [
    "format_float",
    "discrete_csv_text",
    "parse_discrete_csv",
    "discrete_json_text",
    "parse_discrete_json",
    "continuous_csv_text",
    "parse_continuous_csv",
    "continuous_json_text",
    "parse_continuous_json",
]

DISCRETE_CSV_HEADER = "t,value"
CONTINUOUS_CSV_HEADER = "time,value,is_event"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _seed_field(seed):
    return None if seed is None else [int(seed[0]), int(seed[1])]


def _parse_seed(field):
    if field is None:
        return None
    return (int(field[0]), int(field[1]))


def discrete_csv_text(path: DiscretePath) -> str:
    lines = [DISCRETE_CSV_HEADER]
    for t, v in zip(path.times, path.values):
        lines.append(f"{int(t)},{format_float(v)}")
    return "\n".join(lines) + "\n"


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
    doc = json.loads(text)
    if doc.get("kind") != "discrete-path":
        raise ValueError("field 'kind': expected 'discrete-path'")
    params = MaxARParams(float(doc["a"]), Direction(doc["direction"]))
    return DiscretePath(int(doc["start_index"]),
                        np.asarray(doc["values"], dtype=np.float64),
                        params, _parse_seed(doc.get("seed")))


def continuous_csv_text(path: CadlagPath) -> str:
    """Rows time,value,is_event: the anchor row, one row per event, and a
    closing row with the left-limit value at the window end."""
    t0, t1 = path.window
    lines = [CONTINUOUS_CSV_HEADER,
             f"{format_float(t0)},{format_float(path.anchor_value)},0"]
    for tt, vv in path.events:
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
        "events": [[float(t), float(v)] for t, v in path.events],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_continuous_json(text: str) -> CadlagPath:
    doc = json.loads(text)
    if doc.get("kind") != "continuous-path":
        raise ValueError("field 'kind': expected 'continuous-path'")
    return CadlagPath(
        float(doc["a"]), Direction(doc["direction"]),
        (float(doc["window"][0]), float(doc["window"][1])),
        float(doc["anchor_value"]),
        tuple((float(t), float(v)) for t, v in doc["events"]),
        _parse_seed(doc.get("seed")))
