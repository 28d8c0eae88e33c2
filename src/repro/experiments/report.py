"""Rendering of experiment results as plain-text and markdown tables.

:class:`ExperimentReport` is the presentation-layer contract between the
execution pipeline and every consumer (CLI tables, ``EXPERIMENTS.md``, JSON
artifacts): an ordered list of row dicts plus column metadata, with no
simulation state attached.  Renderers here are pure functions of the report
— the same report object always formats to the same bytes, which is what
lets CI diff regenerated markdown against the committed file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class ExperimentReport:
    """The outcome of one registered experiment.

    Attributes
    ----------
    experiment_id:
        The registry id (``"E1"`` … ``"E10"``).
    title:
        Human-readable title.
    paper_reference:
        The theorem/corollary/section of the paper being reproduced.
    columns:
        Ordered column names of the result rows.
    rows:
        One dict per sweep point (keys are the column names).
    notes:
        Free-form remarks: scaling exponents, who-wins verdicts, caveats.
    """

    experiment_id: str
    title: str
    paper_reference: str
    columns: Sequence[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        """Append a result row (missing columns are rendered blank)."""
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        """Append a free-form remark."""
        self.notes.append(note)

    def column_values(self, column: str) -> list:
        """All values of one column, in row order (missing entries skipped)."""
        return [row[column] for row in self.rows if column in row]

    def as_dict(self) -> dict:
        """Machine-readable form (what the CLI's ``--json`` flag emits)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_reference": self.paper_reference,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
        }


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(report: ExperimentReport) -> str:
    """Render a report as an aligned plain-text table."""
    columns = list(report.columns)
    header = [str(c) for c in columns]
    body = [[_format_value(row.get(c, "")) for c in columns] for row in report.rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(columns))
    ]
    lines = [
        f"{report.experiment_id}: {report.title}",
        f"reproduces: {report.paper_reference}",
        "",
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if report.notes:
        lines.append("")
        lines.extend(f"note: {note}" for note in report.notes)
    return "\n".join(lines)


def format_markdown(report: ExperimentReport) -> str:
    """Render a report as a GitHub-flavoured markdown table."""
    columns = list(report.columns)
    lines = [
        f"### {report.experiment_id}: {report.title}",
        "",
        f"*Reproduces:* {report.paper_reference}",
        "",
        "| " + " | ".join(str(c) for c in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in report.rows:
        lines.append(
            "| " + " | ".join(_format_value(row.get(c, "")) for c in columns) + " |"
        )
    if report.notes:
        lines.append("")
        lines.extend(f"- {note}" for note in report.notes)
    return "\n".join(lines)
