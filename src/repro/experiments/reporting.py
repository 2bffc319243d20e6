"""Experiment result containers and plain-text reporting.

Every experiment returns an :class:`ExperimentResult`: a named collection of
rows (dictionaries) plus notes about what the paper reports for the same
artefact, so ``print(result.render())`` gives a table directly comparable to
the paper's figure or table.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None) -> str:
    """Render rows of dictionaries as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_format_value(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = " | ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(value.ljust(width) for value, width in zip(line, widths))
        for line in rendered
    )
    return f"{header}\n{separator}\n{body}"


@dataclass
class ExperimentResult:
    """The output of one experiment run.

    Attributes
    ----------
    experiment_id:
        Identifier matching the paper artefact (e.g. ``"figure-3"``).
    title:
        Human-readable description.
    rows:
        The measured data, one dictionary per output row/series point.
    paper_claim:
        A short statement of what the paper reports for this artefact.
    parameters:
        The experiment parameters used for this run (scale, budgets, ...).
    """

    experiment_id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    paper_claim: str = ""
    parameters: dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        """Append one measurement row."""
        self.rows.append(dict(values))

    def columns(self) -> list[str]:
        """Column names, in first-appearance order across all rows."""
        seen: dict[str, None] = {}
        for row in self.rows:
            for key in row:
                seen.setdefault(key, None)
        return list(seen)

    def filter_rows(self, **criteria: Any) -> list[dict[str, Any]]:
        """Rows matching all equality criteria."""
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]

    def column(self, name: str) -> list[Any]:
        """All values of one column (rows missing the column are skipped)."""
        return [row[name] for row in self.rows if name in row]

    def render(self) -> str:
        """A printable report: title, paper claim, and the measured table."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.paper_claim:
            lines.append(f"Paper: {self.paper_claim}")
        if self.parameters:
            parameters = ", ".join(f"{key}={value}" for key, value in self.parameters.items())
            lines.append(f"Parameters: {parameters}")
        lines.append(format_table(self.rows, self.columns()))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

