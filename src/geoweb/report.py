"""Deterministic report assembly: CSV and JSON writers.

Reports carry a metadata preamble (tool version, input digest, sampling
parameters) followed by per-point rows sorted by point index.  Numbers
are printed with 17 significant digits so reports are lossless and
byte-identical across runs with the same inputs.
"""

from __future__ import annotations

import io
import json
from typing import List, Optional


def format_number(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


_FLOAT = frozenset((float,))


def _csv_quote(s: str) -> str:
    if "," in s or '"' in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


class Report:
    """Tabular result of one CLI command."""

    def __init__(self, command: str, meta: dict, columns: List[str],
                 rows: List[list], verdict: Optional[str] = None,
                 notes: Optional[List[str]] = None):
        self.command = command
        self.meta = meta            # ordered key -> scalar metadata
        self.columns = columns
        self.rows = rows            # cells: str, int or float
        self.verdict = verdict
        self.notes = [] if notes is None else notes

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("# command=%s\n" % self.command)
        for key, value in self.meta.items():
            out.write("# %s=%s\n" % (key, format_number(value)))
        if self.verdict is not None:
            out.write("# verdict=%s\n" % self.verdict)
        for note in self.notes:
            out.write("# note=%s\n" % note)
        out.write(",".join(_csv_quote(c) for c in self.columns) + "\n")
        # a row of floats takes one format, whose fields `format_number`
        # gives and none of which needs quoting; other rows go cell by cell
        formats = {}
        for row in self.rows:
            if _FLOAT.issuperset(map(type, row)):
                width = len(row)
                if width not in formats:
                    formats[width] = ",".join(("%.17g",) * width) + "\n"
                out.write(formats[width] % tuple(row))
            else:
                out.write(",".join(_csv_quote(format_number(cell))
                                   for cell in row) + "\n")
        return out.getvalue()

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "meta": self.meta,
            "verdict": self.verdict,
            "notes": self.notes,
            "columns": self.columns,
            "rows": self.rows,
        }
        # strict JSON: a nan or inf raises ValueError instead of writing
        # the bare NaN/Infinity tokens no JSON parser has to accept
        return json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError("unknown report format %r" % fmt)
