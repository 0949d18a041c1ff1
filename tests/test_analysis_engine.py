"""Engine-level tests: the two-phase pipeline, run in process.

``run_lint`` is one sequential pass in the calling process: phase 1
(file-local rules + module summaries) then phase 2 (project rules over
the assembled model). It reads the tree and writes nothing.
"""

import os
import textwrap

from repro.analysis import LintConfig, run_lint
from repro.cli import main

CLEAN = 'GREETING = "hello"\n\nUSED = len(GREETING)\n'

BARE_EXCEPT = textwrap.dedent(
    """
    def guard(fn):
        try:
            return fn()
        except:
            return None


    VALUE = guard(list)
    """
).strip("\n") + "\n"

UNLOCKED_TRACKER = textwrap.dedent(
    """
    import threading


    class Tracker:
        def __init__(self):
            self._lock = threading.Lock()
            self._hits = 0

        def record(self):
            with self._lock:
                self._hits += 1

        def snapshot(self):
            return self._hits


    TRACKER = Tracker()
    """
).strip("\n") + "\n"


def _mini_project(tmp_path):
    """A small multi-directory project with one file-local and one
    project-wide violation seeded."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "alpha.py").write_text(CLEAN, encoding="utf-8")
    (pkg / "beta.py").write_text(BARE_EXCEPT, encoding="utf-8")
    (pkg / "gamma.py").write_text(
        "import pkg.alpha\n\nTOTAL = pkg.alpha.USED + 1\n", encoding="utf-8"
    )
    serve = tmp_path / "serve"
    serve.mkdir()
    (serve / "svc.py").write_text(UNLOCKED_TRACKER, encoding="utf-8")
    (serve / "other.py").write_text(CLEAN, encoding="utf-8")
    config = LintConfig(paths=("pkg", "serve"), root=tmp_path)
    return [pkg, serve], config


class TestDeterminism:
    def test_both_phases_fire_on_the_mini_project(self, tmp_path):
        paths, config = _mini_project(tmp_path)
        report = run_lint(paths, config=config)
        rules = {f.rule_id for f in report.findings}
        assert "bare-except" in rules  # phase 1 (file-local)
        assert "unlocked-shared-state" in rules  # phase 2 (project)


class TestCliIntegration:
    def test_lint_leaves_the_project_directory_untouched(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro.lint]\npaths = ["."]\n', encoding="utf-8"
        )
        target = tmp_path / "mod.py"
        target.write_text(CLEAN, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        assert main(["lint", str(target)]) == 0
        assert sorted(os.listdir(tmp_path)) == before
