"""Report emission: JSON run reports and CSV plot data.

CSV files carry a header row, LF line endings, '.' decimal separator and 17
significant digits, so reruns with identical inputs are byte-identical.
Each value prints as fmt prints it.  A row whose values are all exactly
float, np.float64 or int is printed by one %-format, '%.17g' or '%d' per
value, built once per sequence of value types: the same text as fmt,
whose f-string and str print these types alike, at one call per row.
Any other row, one with a bool, np.bool_, np.int64 or str say, goes
through fmt value by value.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    kind = type(x)  # the common exact types first, as the chain below would
    if kind is float or kind is np.float64:
        return f"{float(x):.17g}"
    if kind is int:
        return str(x)
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


# the %-format of a value of exactly this type, where one prints as fmt
_ROW_SPECS = {float: "%.17g", np.float64: "%.17g", int: "%d"}


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    formats = {}  # value types of a row -> its %-format, "" to use fmt
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        form = formats.get(kinds)
        if form is None:
            specs = [_ROW_SPECS.get(kind) for kind in kinds]
            form = formats[kinds] = "" if None in specs else ",".join(specs)
        lines.append(form % row if form else ",".join(map(fmt, row)))
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def to_jsonable(obj):
    """obj as JSON values; a numpy bool becomes a JSON boolean, and a
    non-finite float None (JSON null), as RFC 8259 has no NaN or Infinity."""
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    return repr(obj)


def write_json(path, payload) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_jsonable(payload), indent=2,
                               sort_keys=False, allow_nan=False) + "\n",
                    newline="\n")
    return path
