"""The two-phase lint driver: one sequential, in-process pass.

**Phase 1** visits every requested Python file once: read, parse, run
the file-local rules, record the suppression map, and summarize the
module for the project model (:func:`repro.analysis.project.
summarize_module`).

**Phase 2** assembles the :class:`~repro.analysis.project.ProjectModel`
from the phase-1 summaries and runs every selected
:class:`~repro.analysis.project_rules.ProjectRule`. Project findings
pass through the same per-line suppressions as file-local ones.

Rules that must reason about the *whole* project (``dead-symbol``) are
told whether this run actually covers every configured lint path; on a
partial run (one file, one subtree) they stay silent rather than report
"never referenced" about references they never looked for.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.analysis.config import LintConfig
from repro.analysis.core import (
    PARSE_ERROR,
    FileContext,
    Finding,
    LintReport,
    Rule,
    _is_suppressed,
    _relativize,
    _resolve_rules,
    iter_python_files,
    suppressed_lines,
)
from repro.analysis.project import (
    ModuleSummary,
    build_project_model,
    summarize_module,
)
from repro.analysis.project_rules import ProjectRule

_FINDING_ORDER = lambda f: (f.path, f.line, f.col, f.rule_id)  # noqa: E731


@dataclass
class FileResult:
    """Everything phase 1 learned about one file."""

    rel_path: str
    findings: List[Finding] = field(default_factory=list)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    summary: Optional[ModuleSummary] = None


def _error_result(rel_path: str, line: int, col: int, message: str) -> FileResult:
    return FileResult(
        rel_path=rel_path,
        findings=[Finding(PARSE_ERROR, rel_path, line, col, message)],
    )


def _analyze_file(
    path: Path, rules: Sequence[Rule], config: LintConfig
) -> FileResult:
    """Phase 1 for one file: parse + file-local rules + summary."""
    rel_path = _relativize(path, config.root)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return _error_result(rel_path, 1, 0, f"unreadable file: {error}")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return _error_result(
            rel_path,
            error.lineno or 1,
            (error.offset or 1) - 1,
            f"syntax error: {error.msg}",
        )
    ctx = FileContext(path=path, rel_path=rel_path, source=source, tree=tree)
    suppressions = suppressed_lines(source)
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if _is_suppressed(finding, suppressions):
                continue
            findings.append(finding)
    return FileResult(
        rel_path=rel_path,
        findings=findings,
        suppressions=suppressions,
        summary=summarize_module(ctx),
    )


def _contains(parent: Path, child: Path) -> bool:
    try:
        child.relative_to(parent)
    except ValueError:
        return False
    return True


def _is_full_run(requested: Sequence[Path], config: LintConfig) -> bool:
    """Whether ``requested`` covers every *existing* configured path.

    Configured paths that do not exist are vacuously covered — a config
    naming ``src``/``tests`` does not make a run over a temp directory
    "partial" when those directories are not there at all.
    """
    base = config.root if config.root is not None else Path.cwd()
    resolved = [Path(path).resolve() for path in requested]
    for configured in config.paths:
        target = Path(configured)
        if not target.is_absolute():
            target = base / target
        if not target.exists():
            continue
        target = target.resolve()
        if not any(
            target == candidate or _contains(candidate, target)
            for candidate in resolved
        ):
            return False
    return True


def run_lint(
    paths: Iterable[Union[str, Path]],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` with the selected rules.

    ``select`` narrows the run to the named rule ids and ``ignore``
    drops rule ids from it (default: every registered rule); unknown
    rule ids raise ``ValueError`` so typos fail loudly.
    """
    config = config if config is not None else LintConfig()
    rules = _resolve_rules(select, ignore)
    local_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    requested = [Path(path) for path in paths]
    files = list(iter_python_files(requested))
    results = [_analyze_file(path, local_rules, config) for path in files]

    findings: List[Finding] = []
    for result in results:
        findings.extend(result.findings)

    if project_rules:
        summaries = [r.summary for r in results if r.summary is not None]
        model = build_project_model(
            summaries, full_project=_is_full_run(requested, config)
        )
        suppressions_by_path = {r.rel_path: r.suppressions for r in results}
        for rule in project_rules:
            for finding in rule.check_project(model, config):
                if _is_suppressed(
                    finding, suppressions_by_path.get(finding.path, {})
                ):
                    continue
                findings.append(finding)

    findings.sort(key=_FINDING_ORDER)
    return LintReport(findings=findings, files_scanned=len(files))
