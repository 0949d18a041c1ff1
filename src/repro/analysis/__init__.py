"""Project-specific static analysis (``repro lint``).

A two-phase analysis pass over Python ``ast`` that encodes the bug
classes this repo has actually been bitten by, run sequentially in the
calling process. Phase 1 runs file-local rules (falsy-zero ``or``
defaults, hardcoded dtypes, wall-clock timing, …) and summarizes each
module; phase 2 runs project-wide rules (lock discipline, import
layering, dead symbols) over the assembled project model. The tier-1
gate (``tests/test_lint_clean.py``) keeps the tree clean on every PR;
the rule catalog lives in :mod:`repro.analysis.rules`,
:mod:`repro.analysis.project_rules` and ``DESIGN.md``. A rule earns its
place by evidence: a fix on record, or a line in the tree whose revert
only it catches (``DESIGN.md`` §8).

No third-party linters are available in this environment, so the pass is
built on the stdlib ``ast`` / ``tokenize`` modules only.
"""

from repro.analysis.config import LintConfig, load_config
from repro.analysis.core import (
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
    "Rule",
    "all_rule_ids",
    "load_config",
    "register",
    "render_json",
    "render_text",
    "run_lint",
]
