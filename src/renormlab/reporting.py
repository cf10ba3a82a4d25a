"""Report emission: JSON run reports and CSV plot data.

CSV files carry a header row, LF line endings, '.' decimal separator and 17
significant digits, so reruns with identical inputs are byte-identical.
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


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(fmt, row)))
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
