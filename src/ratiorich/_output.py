"""The one writer of every CSV and JSON report the package emits.

CSV cells follow fixed rules: None and NaN are empty; floats carry
`precision` decimals (every digit, via repr, when precision is None), except
the echoed inputs in EXACT_COLUMNS, which are never rounded; the text cells in
TEXT_COLUMNS are double-quoted, a list joined by "; "; anything else is str.
JSON is indented by two, NaN becomes null, and the text ends in a newline.
"""

from __future__ import annotations

import json
import math

EXACT_COLUMNS = frozenset({"prob", "fraction"})
TEXT_COLUMNS = frozenset({"warnings", "error"})


def _cell(column: str, value, precision: int | None) -> str:
    if column in TEXT_COLUMNS:
        text = "; ".join(value) if isinstance(value, list) else value or ""
        return f'"{text}"'
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, float):
        if precision is None or column in EXACT_COLUMNS:
            return repr(float(value))
        return f"{value:.{precision}f}"
    return str(value)


def to_csv(columns, rows, precision: int | None) -> str:
    """A header of `columns`, then one line per row dict keyed by column."""
    lines = [",".join(columns)]
    lines += [",".join(_cell(c, row[c], precision) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _nan_to_null(obj):
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _nan_to_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nan_to_null(v) for v in obj]
    return obj


def to_json(payload) -> str:
    return json.dumps(_nan_to_null(payload), indent=2) + "\n"
