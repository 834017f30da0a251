"""Result containers and table formatting for the experiment harness."""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path
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


def host_metadata() -> dict:
    """Identity of the machine a BENCH record was taken on.

    Absolute hops/sec numbers are meaningless without knowing what ran
    them: a 2-core CI runner and a 32-core workstation differ by an
    order of magnitude on the same code.  Every committed record carries
    this block so a regression-looking diff can be told apart from a
    host change — and so advisory runs (too few cores) are interpretable
    after the fact.
    """
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def write_bench_json(path, payload: dict) -> None:
    """Write one engine benchmark's machine-readable record.

    The throughput benchmarks drop ``BENCH_<engine>.json`` files (hops/sec,
    workload, host core count) that are committed alongside code changes,
    so the perf trajectory across PRs lives in version control rather than
    in prose.  Keys are sorted and floats rounded by the caller, keeping
    diffs reviewable.  A ``host`` block (:func:`host_metadata`) is
    stamped into every record here, so no benchmark can forget it.
    """
    payload = dict(payload)
    payload.setdefault("host", host_metadata())
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def resolve_bench_json_path(json_arg, smoke: bool, script_file, filename: str) -> str:
    """Where an engine benchmark should write its BENCH record.

    One place encodes the convention both engine benchmarks share: an
    explicit ``--json`` always wins (``''`` disables), smokes default to
    off (CI smokes must not overwrite the acceptance record), and full
    runs default to ``filename`` next to the benchmark script — not the
    cwd, so a run launched from anywhere lands in ``benchmarks/``.
    """
    if json_arg is not None:
        return json_arg
    if smoke:
        return ""
    return str(Path(script_file).resolve().parent / filename)
