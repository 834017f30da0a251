"""Result containers and table formatting for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import BenchmarkError


@dataclass
class ExperimentResult:
    """Outcome of one paper artifact reproduction (a table or figure).

    ``rows`` is a list of dicts with homogeneous keys; ``notes`` records
    deviations from the paper and the context a reader of the table needs.
    """

    experiment_id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **fields: Any) -> None:
        self.rows.append(fields)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, key: str) -> list[Any]:
        """All values of one column, in row order."""
        try:
            return [row[key] for row in self.rows]
        except KeyError:
            raise BenchmarkError(
                f"column {key!r} missing from experiment {self.experiment_id}"
            ) from None

    def row_for(self, **match: Any) -> dict[str, Any]:
        """The first row whose fields match ``match`` exactly."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise BenchmarkError(
            f"no row matching {match} in experiment {self.experiment_id}"
        )

    def to_table(self) -> str:
        """Render as an aligned text table (for bench output and docs)."""
        if not self.rows:
            return f"[{self.experiment_id}] {self.title}\n  (no rows)"
        keys = list(self.rows[0].keys())
        formatted: list[list[str]] = [[_format_cell(k) for k in keys]]
        for row in self.rows:
            formatted.append([_format_cell(row.get(k)) for k in keys])
        widths = [max(len(line[i]) for line in formatted) for i in range(len(keys))]
        lines = [f"[{self.experiment_id}] {self.title}"]
        header = "  " + " | ".join(cell.ljust(w) for cell, w in zip(formatted[0], widths))
        lines.append(header)
        lines.append("  " + "-+-".join("-" * w for w in widths))
        for line in formatted[1:]:
            lines.append("  " + " | ".join(cell.ljust(w) for cell, w in zip(line, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def speedup(new: float, old: float) -> float:
    """Throughput ratio with division-by-zero protection."""
    if old <= 0:
        raise BenchmarkError(f"cannot compute speedup over non-positive baseline {old}")
    return new / old


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise BenchmarkError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise BenchmarkError("geometric mean requires positive values")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))

