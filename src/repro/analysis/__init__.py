"""Project-specific static analysis (``repro lint``).

A two-phase analysis pass over Python ``ast`` that encodes the bug
classes this repo has actually been bitten by. Phase 1 runs file-local
rules (falsy-zero ``or`` defaults, uncounted encoder calls,
un-normalized cosine matmuls, …) and summarizes each module; phase 2
runs project-wide rules (lock discipline, lock-order cycles, import
layering, dead symbols) over the assembled project model. Phase 1 is
incremental (per-file result cache under ``.repro-lint-cache/``) and
parallel (``repro lint --jobs N``), with reports byte-identical to a
sequential cold run. The tier-1 gate (``tests/test_lint_clean.py``)
keeps the tree clean on every PR; the rule catalog lives in
:mod:`repro.analysis.rules`, :mod:`repro.analysis.project_rules` and
``DESIGN.md``.

No third-party linters are available in this environment, so the pass is
built on the stdlib ``ast`` / ``tokenize`` modules only.
"""

from repro.analysis.config import LintConfig, load_config
from repro.analysis.core import (
    RULESET_VERSION,
    FileContext,
    Finding,
    LintReport,
    Rule,
    all_rule_ids,
    register,
)
from repro.analysis.engine import run_lint
from repro.analysis.project import ModuleSummary, ProjectModel
from repro.analysis.project_rules import ProjectRule
from repro.analysis.reporting import render_json, render_text

# importing the rule modules populates the registry
from repro.analysis import rules as _rules  # noqa: F401  (side-effect import)

__all__ = [
    "FileContext",
    "Finding",
    "LintConfig",
    "LintReport",
    "ModuleSummary",
    "ProjectModel",
    "ProjectRule",
    "RULESET_VERSION",
    "Rule",
    "all_rule_ids",
    "load_config",
    "register",
    "render_json",
    "render_text",
    "run_lint",
]
