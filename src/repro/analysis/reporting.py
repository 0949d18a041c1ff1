"""Text and JSON reporters for analyzer runs."""

from __future__ import annotations

import json

from repro.analysis.core import LintReport

#: Schema version of the JSON report (bump on breaking changes).
JSON_SCHEMA_VERSION = 1


def render_text(report: LintReport) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [
        f"{finding.location()}: {finding.rule_id}: {finding.message}"
        for finding in report.findings
    ]
    if report.findings:
        by_rule = ", ".join(
            f"{rule_id}={count}" for rule_id, count in sorted(report.counts.items())
        )
        lines.append(
            f"{len(report.findings)} finding(s) in "
            f"{report.files_scanned} file(s) scanned ({by_rule})"
        )
    else:
        lines.append(
            f"clean: 0 findings in {report.files_scanned} file(s) scanned"
        )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (stable schema, consumed by tooling)."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_scanned": report.files_scanned,
        "counts": report.counts,
        "findings": [
            {
                "rule": finding.rule_id,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
            }
            for finding in report.findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
