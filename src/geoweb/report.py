"""Deterministic report assembly: CSV and JSON writers.

Reports carry a metadata preamble (tool version, input digest, sampling
parameters) followed by per-point rows sorted by point index.  Numbers
are printed with 17 significant digits so reports are lossless and
byte-identical across runs with the same inputs.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import List, Optional


def format_number(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _csv_quote(s: str) -> str:
    if "," in s or '"' in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


@dataclass
class Report:
    """Tabular result of one CLI command."""

    command: str
    meta: dict                      # ordered key -> scalar metadata
    columns: List[str]
    rows: List[list]                # cells: str, int or float
    verdict: Optional[str] = None
    notes: List[str] = field(default_factory=list)

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
        for row in self.rows:
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


def write_report(report: Report, fmt: str, out_path=None) -> str:
    """Render and optionally write the report; returns the text."""
    text = report.render(fmt)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
