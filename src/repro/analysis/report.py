"""Text and JSON reporters for ``repro lint``.

Both render the same :class:`~repro.analysis.core.LintReport`, findings
already sorted by ``(path, line, col, rule id)``; nothing here may
introduce ordering of its own (dict iteration over sorted inputs only),
so output is byte-stable across runs and machines.
"""

from __future__ import annotations

import json

from repro.analysis.core import Finding, LintReport


def render_text(report: LintReport, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary.

    ``verbose`` additionally lists suppressed findings with their
    recorded reasons — the audit view of every active waiver.
    """
    lines = []
    for finding in report.active:
        lines.append(
            f"{finding.location()}: {finding.rule_id} {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if verbose:
        for finding in report.suppressed:
            lines.append(
                f"{finding.location()}: {finding.rule_id} suppressed "
                f"({finding.suppression_reason})"
            )
    lines.append(
        f"{len(report.active)} finding(s) "
        f"({len(report.suppressed)} suppressed) in "
        f"{report.files_scanned} file(s) "
        f"[{report.elapsed_seconds * 1e3:.0f} ms]"
    )
    return "\n".join(lines)


def _finding_payload(finding: Finding) -> dict:
    payload = {
        "rule": finding.rule_id,
        "message": finding.message,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col + 1,
        "snippet": finding.snippet,
        "status": "suppressed" if finding.suppressed else "active",
    }
    if finding.suppressed:
        payload["reason"] = finding.suppression_reason
    return payload


def render_json(report: LintReport) -> str:
    """Machine-readable report (stable key order, trailing newline)."""
    payload = {
        "version": 1,
        "tool": "repro lint",
        "rules": list(report.rule_ids),
        "files_scanned": report.files_scanned,
        "elapsed_seconds": round(report.elapsed_seconds, 6),
        "counts": {
            "active": len(report.active),
            "suppressed": len(report.suppressed),
        },
        "findings": [_finding_payload(f) for f in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
