"""Tier-1 gate: the repository's own tree lints clean.

Runs the full rule catalog (as configured by ``[tool.repro.lint]`` in
``pyproject.toml``) over ``src``, ``tests``, ``benchmarks`` and
``examples``. A failure here means a rule caught a real regression of one
of our recorded bug classes — fix the code (or, with a written
justification, add a ``# lint: ignore[rule-id]`` on the offending line);
never weaken the rule.
"""

from pathlib import Path

import pytest

from repro.analysis import all_rule_ids, load_config, render_text, run_lint

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[1]

# the whole catalog: adding or retiring a rule must edit this (and
# DESIGN.md §8, which records the evidence each rule stays on)
FILE_RULES = {
    "bare-except",
    "blocking-in-async",
    "except-pass",
    "falsy-zero-default",
    "hardcoded-dtype",
    "mutable-default-arg",
    "nonatomic-artifact-write",
    "wall-clock-timing",
}
PROJECT_RULES = {
    "unlocked-shared-state",
    "layering-violation",
    "dead-symbol",
}


def test_project_passes_are_registered():
    """The gate below is only meaningful if both phases actually run."""
    assert set(all_rule_ids()) == FILE_RULES | PROJECT_RULES


def test_layer_dag_is_configured():
    config = load_config(REPO_ROOT)
    assert config.layers_order, "layering rule disabled: no layer order"
    assert set(config.layers) == set(config.layers_order)
    # a layer entry that outlives its package polices nothing
    for prefixes in config.layers.values():
        for prefix in prefixes:
            path = REPO_ROOT / "src" / prefix.replace(".", "/")
            assert path.is_dir() or path.with_suffix(".py").is_file(), prefix


def test_repository_lints_clean():
    config = load_config(REPO_ROOT)
    paths = [REPO_ROOT / p for p in config.paths]
    existing = [p for p in paths if p.exists()]
    assert existing, f"configured lint paths missing: {config.paths}"
    report = run_lint(existing, config=config)
    assert not report.findings, "\n" + render_text(report)
    # sanity: the walk actually covered the tree (not an empty glob)
    assert report.files_scanned > 50
