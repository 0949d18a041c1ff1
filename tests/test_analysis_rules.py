"""Fixture-driven tests for the ``repro.analysis`` rule catalog.

Every rule is exercised three ways: a seeded violation fires, a
``# lint: ignore[rule-id]`` comment on the offending line suppresses it,
and a compliant rewrite produces no finding at all. Framework behaviour
(suppression semantics, config parsing, reporters, parse errors) gets
its own targeted tests below.
"""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    LintConfig,
    all_rule_ids,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.config import _fallback_parse, parse_config
from repro.analysis.core import PARSE_ERROR, REGISTRY, _resolve_rules

MARKER = "##HERE##"

# rule id -> (relative path, source with MARKER on the offending line).
# Scoped rules (hardcoded-dtype, blocking-in-async, unlocked-shared-state)
# need their directory in the fixture path and a non-test filename.
VIOLATIONS = {
    "falsy-zero-default": (
        "mod.py",
        """
        def pick(k=None):
            k = k or 10  ##HERE##
            return k
        """,
    ),
    "mutable-default-arg": (
        "mod.py",
        """
        def add(item, bucket=[]):  ##HERE##
            bucket.append(item)
            return bucket
        """,
    ),
    "bare-except": (
        "mod.py",
        """
        def guard(fn):
            try:
                return fn()
            except:  ##HERE##
                return None
        """,
    ),
    "except-pass": (
        "mod.py",
        """
        def guard(fn):
            try:
                return fn()
            except ValueError:
                pass  ##HERE##
        """,
    ),
    "wall-clock-timing": (
        "serve/timing.py",
        """
        import time


        def stamp():
            return time.time()  ##HERE##
        """,
    ),
    "nonatomic-artifact-write": (
        "pipeline/save.py",
        """
        import json


        def persist(report, out_dir):
            (out_dir / "report.json").write_text(json.dumps(report))  ##HERE##
        """,
    ),
    "unlocked-shared-state": (
        "serve/state.py",
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
                return self._hits  ##HERE##
        """,
    ),
    "layering-violation": (
        "src/repro/nn/hotpath.py",
        """
        from repro.serve.service import RetrievalService  ##HERE##


        def warm(service):
            return service.running
        """,
    ),
    "dead-symbol": (
        "pkg/leftover.py",
        """
        class Kept:
            def orphan_method(self):  ##HERE##
                return 1


        KEPT = Kept()
        """,
    ),
    "hardcoded-dtype": (
        "shard/quant.py",
        """
        import numpy as np


        def pack(matrix):
            return matrix.astype(np.float32)  ##HERE##
        """,
    ),
    "blocking-in-async": (
        "net/flow.py",
        """
        import time


        async def pause():
            time.sleep(0.1)  ##HERE##
        """,
    ),
}

# rule id -> extra LintConfig kwargs a fixture needs (e.g. the layer DAG
# for layering-violation); merged into the per-test config.
RULE_CONFIGS = {
    "layering-violation": dict(
        layers_order=("foundation", "serving"),
        layers={"foundation": ("repro.nn",), "serving": ("repro.serve",)},
    ),
}

# rule id -> compliant rewrite of the same logic; must produce no finding.
COMPLIANT = {
    "falsy-zero-default": (
        "mod.py",
        """
        def pick(k=None):
            k = k if k is not None else 10
            return k
        """,
    ),
    "mutable-default-arg": (
        "mod.py",
        """
        def add(item, bucket=None):
            bucket = bucket if bucket is not None else []
            bucket.append(item)
            return bucket
        """,
    ),
    "bare-except": (
        "mod.py",
        """
        def guard(fn):
            try:
                return fn()
            except ValueError:
                return None
        """,
    ),
    "except-pass": (
        "mod.py",
        """
        def guard(fn, log):
            try:
                return fn()
            except ValueError as error:
                log(error)
                return None
        """,
    ),
    "wall-clock-timing": (
        "serve/timing.py",
        """
        import time


        def stamp():
            return time.perf_counter()
        """,
    ),
    "nonatomic-artifact-write": (
        "pipeline/save.py",
        """
        from repro.storage.atomic import atomic_write_json


        def persist(report, out_dir):
            atomic_write_json(out_dir / "report.json", report)
        """,
    ),
    "unlocked-shared-state": (
        "serve/state.py",
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
                with self._lock:
                    return self._hits
        """,
    ),
    "layering-violation": (
        "src/repro/serve/front.py",
        """
        from repro.nn.layers import Linear


        def build():
            return Linear()
        """,
    ),
    "dead-symbol": (
        "pkg/used.py",
        """
        def helper():
            return 1


        RESULT = helper()
        """,
    ),
    "hardcoded-dtype": (
        "shard/quant.py",
        """
        from repro.precision import ACCUM_DTYPE


        def pack(matrix):
            return matrix.astype(ACCUM_DTYPE)
        """,
    ),
    "blocking-in-async": (
        "net/flow.py",
        """
        import asyncio


        async def pause():
            await asyncio.sleep(0.1)
        """,
    ),
}


def _render(source, suppression):
    """(source text, 1-based line of MARKER) with MARKER replaced."""
    lines = []
    marker_line = None
    for index, line in enumerate(textwrap.dedent(source).strip("\n").splitlines()):
        if MARKER in line:
            marker_line = index + 1
            line = line.replace(MARKER, suppression).rstrip()
        lines.append(line)
    return "\n".join(lines) + "\n", marker_line


def _lint(tmp_path, rel, source, select=None, config=None):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    cfg = config if config is not None else LintConfig(root=tmp_path)
    return run_lint([path], select=select, config=cfg)


def _config_for(rule_id, tmp_path):
    return LintConfig(root=tmp_path, **RULE_CONFIGS.get(rule_id, {}))


class TestEachRule:
    @pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
    def test_violation_fires(self, tmp_path, rule_id):
        rel, raw = VIOLATIONS[rule_id]
        source, marker_line = _render(raw, "")
        report = _lint(
            tmp_path, rel, source, select=[rule_id],
            config=_config_for(rule_id, tmp_path),
        )
        assert [f.rule_id for f in report.findings] == [rule_id]
        assert report.findings[0].line == marker_line
        assert report.findings[0].message

    @pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
    def test_suppression_suppresses(self, tmp_path, rule_id):
        rel, raw = VIOLATIONS[rule_id]
        source, _ = _render(raw, f"# lint: ignore[{rule_id}]")
        report = _lint(
            tmp_path, rel, source, select=[rule_id],
            config=_config_for(rule_id, tmp_path),
        )
        assert report.findings == []

    @pytest.mark.parametrize("rule_id", sorted(COMPLIANT))
    def test_compliant_rewrite_is_clean(self, tmp_path, rule_id):
        rel, source = COMPLIANT[rule_id]
        report = _lint(
            tmp_path, rel, textwrap.dedent(source).strip("\n") + "\n",
            select=[rule_id],
            config=_config_for(rule_id, tmp_path),
        )
        assert report.findings == []

    def test_catalog_has_at_least_eight_rules(self):
        assert set(VIOLATIONS) == set(COMPLIANT) == set(all_rule_ids())


class TestExceptPassVariants:
    """Satellite shapes of except-pass: Ellipsis body, bare continue."""

    def test_ellipsis_body_fires(self, tmp_path):
        source = textwrap.dedent(
            """
            def guard(fn):
                try:
                    return fn()
                except ValueError:
                    ...
            """
        ).strip("\n") + "\n"
        report = _lint(tmp_path, "mod.py", source, select=["except-pass"])
        assert [f.rule_id for f in report.findings] == ["except-pass"]
        assert report.findings[0].line == 5

    def test_ellipsis_body_suppressible(self, tmp_path):
        source = textwrap.dedent(
            """
            def guard(fn):
                try:
                    return fn()
                except ValueError:
                    ...  # lint: ignore[except-pass]
            """
        ).strip("\n") + "\n"
        report = _lint(tmp_path, "mod.py", source, select=["except-pass"])
        assert report.findings == []

    def test_bare_except_continue_in_loop_fires(self, tmp_path):
        source = textwrap.dedent(
            """
            def drain(items, fn):
                for item in items:
                    try:
                        fn(item)
                    except:
                        continue
            """
        ).strip("\n") + "\n"
        report = _lint(tmp_path, "mod.py", source, select=["except-pass"])
        assert [f.rule_id for f in report.findings] == ["except-pass"]
        assert report.findings[0].line == 6

    def test_bare_except_continue_suppressible(self, tmp_path):
        source = textwrap.dedent(
            """
            def drain(items, fn):
                for item in items:
                    try:
                        fn(item)
                    except:
                        continue  # lint: ignore[except-pass]
            """
        ).strip("\n") + "\n"
        report = _lint(tmp_path, "mod.py", source, select=["except-pass"])
        assert report.findings == []

    def test_typed_except_continue_is_allowed(self, tmp_path):
        # skipping bad items with a *named* exception type is the
        # sanctioned idiom (e.g. _relativize's ValueError skip)
        source = textwrap.dedent(
            """
            def drain(items, fn):
                out = []
                for item in items:
                    try:
                        out.append(fn(item))
                    except ValueError:
                        continue
                return out
            """
        ).strip("\n") + "\n"
        report = _lint(tmp_path, "mod.py", source, select=["except-pass"])
        assert report.findings == []


class TestProjectRuleSemantics:
    """Cross-file behaviour the single-file fixtures cannot express."""

    def _dead_symbols(self, root, files):
        """Names ``dead-symbol`` flags in a project of {rel path: source}."""
        for rel, source in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                textwrap.dedent(source).strip("\n") + "\n", encoding="utf-8"
            )
        report = run_lint(
            [root], select=["dead-symbol"], config=LintConfig(root=root)
        )
        return [f.message.split("'")[1] for f in report.findings]

    def test_dead_symbol_sees_references_from_other_files(self, tmp_path):
        lib = "def helper():\n    return 1\n"
        use = "from pkg.lib import helper\n\nVALUE = helper()\n"
        reexport = 'from pkg.lib import helper\n\n__all__ = ["helper"]\n'
        cases = (
            ("pkg/app.py", use, []),
            # named like a test, but the paper's tables are real callers
            ("benchmarks/test_table1.py", use, []),
            ("examples/demo.py", use, []),
            # a unit test keeps nothing alive, whatever its file is called
            ("tests/test_lib.py", use, ["helper"]),
            ("tests/reference.py", use, ["helper"]),
            # a package import + __all__ entry re-exports, it does not use
            ("pkg/__init__.py", reexport, ["helper"]),
            ("pkg/app.py", reexport, []),  # an ordinary module's import does
        )
        for index, (caller, source, flagged) in enumerate(cases):
            files = {"pkg/lib.py": lib, caller: source}
            found = self._dead_symbols(tmp_path / str(index), files)
            assert found == flagged, caller

    def test_dead_symbol_silent_on_partial_runs(self, tmp_path):
        # config declares a second path that exists but is not scanned:
        # the rule cannot prove the symbol is unreferenced
        (tmp_path / "pkg").mkdir()
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "mod.py").write_text("X = 1\n", encoding="utf-8")
        (tmp_path / "pkg" / "lib.py").write_text(
            "def orphan():\n    return 1\n", encoding="utf-8"
        )
        config = LintConfig(paths=("pkg", "other"), root=tmp_path)
        partial = run_lint(
            [tmp_path / "pkg"], select=["dead-symbol"], config=config
        )
        assert partial.findings == []
        full = run_lint(
            [tmp_path / "pkg", tmp_path / "other"],
            select=["dead-symbol"], config=config,
        )
        assert [f.rule_id for f in full.findings] == ["dead-symbol"]

    def test_dead_symbol_keeps_decorated_and_dunder_defs(self, tmp_path):
        source = """
            import ast
            import atexit


            @atexit.register
            def cleanup():
                return None


            def __getattr__(name):
                raise AttributeError(name)


            class Walker(ast.NodeVisitor):
                def visit_Name(self, node):  # dispatched by name
                    return node

                def __len__(self):
                    return 0

                @atexit.register
                def flush(self):
                    return None

                @property
                def unread(self):  # a property is read by name: no reader
                    return 1

                def uncalled(self):
                    return 2


            WALKER = Walker()
        """
        assert self._dead_symbols(tmp_path, {"pkg/lib.py": source}) == [
            "Walker.unread", "Walker.uncalled",
        ]

    def test_dead_symbol_field_needs_a_read_outside_tests(self, tmp_path):
        record = """
            from dataclasses import dataclass
            from typing import NamedTuple


            @dataclass
            class Record:
                kept: int
                seeded: int = 0


            class Pair(NamedTuple):  # read by unpacking
                left: int
                right: int


            class Counter:
                def __init__(self):
                    self.total = 0

                def bump(self):
                    self.total += 1


            RECORD = Record(kept=1, seeded=2)
            PAIR = Pair(1, 2)
            COUNTER = Counter()
            COUNTER.bump()
            print(RECORD.kept)
        """
        reader = "from pkg.record import RECORD\n\nprint(RECORD.seeded)\n"
        cases = (
            # written by src/ and read only by a unit test: no reader
            ("tests/test_record.py", reader, ["Record.seeded", "Counter.total"]),
            ("benchmarks/e2e/report.py", reader, ["Counter.total"]),
            # a getattr name or a snapshot key is a read
            ("examples/show.py", 'print(getattr(object(), "total"))\n',
             ["Record.seeded"]),
            # a keyword argument writes, it does not read
            ("examples/make.py", "RECORD = dict(seeded=1, total=2)\n",
             ["Record.seeded", "Counter.total"]),
        )
        for index, (caller, source, flagged) in enumerate(cases):
            files = {"src/pkg/record.py": record, caller: source}
            found = self._dead_symbols(tmp_path / str(index), files)
            assert found == flagged, caller
        # outside src/ a class's fields are not checked
        files = {"examples/record.py": record}
        assert self._dead_symbols(tmp_path / "examples", files) == []

    def test_import_cycle_across_files(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "alpha.py").write_text(
            "import pkg.beta\n\nA = 1\n", encoding="utf-8"
        )
        (tmp_path / "pkg" / "beta.py").write_text(
            "import pkg.alpha\n\nB = 2\n", encoding="utf-8"
        )
        report = run_lint(
            [tmp_path / "pkg"], select=["layering-violation"],
            config=LintConfig(root=tmp_path),
        )
        assert [f.rule_id for f in report.findings] == ["layering-violation"]
        assert "import cycle" in report.findings[0].message

    def test_deferred_import_breaks_cycle(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "alpha.py").write_text(
            "import pkg.beta\n\nA = 1\n", encoding="utf-8"
        )
        (tmp_path / "pkg" / "beta.py").write_text(
            "def late():\n    import pkg.alpha\n    return pkg.alpha.A\n",
            encoding="utf-8",
        )
        report = run_lint(
            [tmp_path / "pkg"], select=["layering-violation"],
            config=LintConfig(root=tmp_path),
        )
        assert report.findings == []

    def test_unlocked_shared_state_ignores_immutable_config(self, tmp_path):
        # attributes only ever assigned in __init__ are read-only
        # configuration; reading them unlocked is fine
        source = textwrap.dedent(
            """
            import threading


            class Sized:
                def __init__(self, capacity):
                    self._lock = threading.Lock()
                    self.capacity = capacity
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items.append(item)

                def limit(self):
                    return self.capacity
            """
        ).strip("\n") + "\n"
        report = _lint(
            tmp_path, "serve/sized.py", source,
            select=["unlocked-shared-state"],
        )
        assert report.findings == []

    def test_unlocked_shared_state_flags_container_mutation(self, tmp_path):
        source = textwrap.dedent(
            """
            import threading


            class Bag:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    self._items.append(item)
            """
        ).strip("\n") + "\n"
        report = _lint(
            tmp_path, "ingest/bag.py", source,
            select=["unlocked-shared-state"],
        )
        assert [f.rule_id for f in report.findings] == [
            "unlocked-shared-state"
        ]

    def test_unlocked_shared_state_scoped_to_concurrent_dirs(self, tmp_path):
        _, raw = VIOLATIONS["unlocked-shared-state"]
        source, _ = _render(raw, "")
        report = _lint(
            tmp_path, "retriever/state.py", source,
            select=["unlocked-shared-state"],
        )
        assert report.findings == []


class TestSuppressionSemantics:
    def test_bare_ignore_suppresses_every_rule(self, tmp_path):
        rel, raw = VIOLATIONS["mutable-default-arg"]
        source, _ = _render(raw, "# lint: ignore")
        # reference the fixture's def so the (unsuppressed, line-1)
        # dead-symbol pass has nothing to say either
        source += "\nUSE = add\n"
        report = _lint(tmp_path, rel, source)
        assert report.findings == []

    def test_ignoring_a_different_rule_does_not_suppress(self, tmp_path):
        rel, raw = VIOLATIONS["mutable-default-arg"]
        source, _ = _render(raw, "# lint: ignore[bare-except]")
        report = _lint(tmp_path, rel, source, select=["mutable-default-arg"])
        assert [f.rule_id for f in report.findings] == ["mutable-default-arg"]

    def test_suppression_on_other_line_does_not_suppress(self, tmp_path):
        source = (
            "# lint: ignore[mutable-default-arg]\n"
            "def add(item, bucket=[]):\n"
            "    bucket.append(item)\n"
            "    return bucket\n"
        )
        report = _lint(tmp_path, "mod.py", source, select=["mutable-default-arg"])
        assert len(report.findings) == 1


class TestScoping:
    @pytest.mark.parametrize("name", ["test_hot.py", "conftest.py"])
    def test_scoped_rules_exempt_test_files(self, tmp_path, name):
        _, raw = VIOLATIONS["hardcoded-dtype"]
        source, _ = _render(raw, "")
        report = _lint(
            tmp_path, f"shard/{name}", source, select=["hardcoded-dtype"]
        )
        assert report.findings == []

    def test_wall_clock_timing_covers_every_directory(self, tmp_path):
        # the deadline code lives in net/ and ingest/, not only serve/
        source = textwrap.dedent(
            """
            import time


            def deadline():
                return time.time() + 1
            """
        ).strip("\n") + "\n"
        report = _lint(
            tmp_path, "net/mod.py", source, select=["wall-clock-timing"]
        )
        assert [f.rule_id for f in report.findings] == ["wall-clock-timing"]

    def test_wall_clock_timing_flags_an_uncalled_reference(self, tmp_path):
        # an injectable clock's default is where the wall clock gets in
        source = textwrap.dedent(
            """
            import time


            def f(clock=time.time):
                return clock()
            """
        ).strip("\n") + "\n"
        report = _lint(
            tmp_path, "serve/mod.py", source, select=["wall-clock-timing"]
        )
        assert [f.rule_id for f in report.findings] == ["wall-clock-timing"]

    def test_wall_clock_timing_covers_benchmark_test_files(self, tmp_path):
        # unlike the scoped rules, no test-file exemption: the
        # benchmark test modules are the heaviest timing users
        _, raw = VIOLATIONS["wall-clock-timing"]
        source, _ = _render(raw, "")
        report = _lint(
            tmp_path, "benchmarks/test_bench.py", source,
            select=["wall-clock-timing"],
        )
        assert [f.rule_id for f in report.findings] == ["wall-clock-timing"]

    def test_wall_clock_timing_catches_from_import_alias(self, tmp_path):
        source = textwrap.dedent(
            """
            from time import time as now


            def stamp():
                return now()
            """
        ).strip("\n") + "\n"
        report = _lint(
            tmp_path, "perf/clock.py", source, select=["wall-clock-timing"]
        )
        assert [f.rule_id for f in report.findings] == ["wall-clock-timing"]

    def test_wall_clock_timing_ignores_other_time_attrs(self, tmp_path):
        source = textwrap.dedent(
            """
            import time
            import datetime


            def ok():
                t = time.monotonic() + time.perf_counter()
                moment = datetime.time()
                return t, moment
            """
        ).strip("\n") + "\n"
        report = _lint(
            tmp_path, "serve/clock.py", source, select=["wall-clock-timing"]
        )
        assert report.findings == []

    def test_hardcoded_dtype_scoped_to_matrix_dirs(self, tmp_path):
        _, raw = VIOLATIONS["hardcoded-dtype"]
        source, _ = _render(raw, "")
        for rel in ("ingest/pack.py", "nn/tensor.py", "serve/keys.py"):
            report = _lint(tmp_path, rel, source, select=["hardcoded-dtype"])
            assert [f.rule_id for f in report.findings] == ["hardcoded-dtype"]
        # outside the embedding layers, in test files, and in the policy
        # module itself the literal is legitimate
        for rel in (
            "pipeline/pack.py",
            "shard/test_quant.py",
            "encoder/precision.py",
        ):
            report = _lint(tmp_path, rel, source, select=["hardcoded-dtype"])
            assert report.findings == []

    def test_hardcoded_dtype_catches_string_literals(self, tmp_path):
        source = textwrap.dedent(
            """
            import numpy as np


            def pack(matrix):
                low = matrix.astype("float32")
                return np.zeros(3, dtype="float64"), low
            """
        ).strip("\n") + "\n"
        report = _lint(
            tmp_path, "retriever/pack.py", source, select=["hardcoded-dtype"]
        )
        assert [f.rule_id for f in report.findings] == ["hardcoded-dtype"] * 2

    def test_hardcoded_dtype_catches_from_import_alias(self, tmp_path):
        source = textwrap.dedent(
            """
            from numpy import float64 as f8


            def pack(matrix):
                return matrix.astype(f8)
            """
        ).strip("\n") + "\n"
        report = _lint(
            tmp_path, "encoder/pack.py", source, select=["hardcoded-dtype"]
        )
        assert [f.rule_id for f in report.findings] == ["hardcoded-dtype"]

    def test_hardcoded_dtype_ignores_category_checks(self, tmp_path):
        source = textwrap.dedent(
            """
            import numpy as np

            from repro.precision import ACCUM_DTYPE


            def widen(matrix):
                if np.issubdtype(matrix.dtype, np.floating):
                    return matrix
                return matrix.astype(ACCUM_DTYPE)
            """
        ).strip("\n") + "\n"
        report = _lint(
            tmp_path, "retriever/widen.py", source, select=["hardcoded-dtype"]
        )
        assert report.findings == []

    def test_nonatomic_write_exempts_ordinary_test_files(self, tmp_path):
        _, raw = VIOLATIONS["nonatomic-artifact-write"]
        source, _ = _render(raw, "")
        report = _lint(
            tmp_path, "tests/test_save.py", source,
            select=["nonatomic-artifact-write"],
        )
        assert report.findings == []

    def test_nonatomic_write_covers_benchmark_test_files(self, tmp_path):
        # benchmark test modules are exactly the BENCH_*.json writers
        _, raw = VIOLATIONS["nonatomic-artifact-write"]
        source, _ = _render(raw, "")
        report = _lint(
            tmp_path, "benchmarks/test_bench.py", source,
            select=["nonatomic-artifact-write"],
        )
        assert [f.rule_id for f in report.findings] == [
            "nonatomic-artifact-write"
        ]

    def test_nonatomic_write_exempts_the_atomic_helper(self, tmp_path):
        _, raw = VIOLATIONS["nonatomic-artifact-write"]
        source, _ = _render(raw, "")
        report = _lint(
            tmp_path, "storage/atomic.py", source,
            select=["nonatomic-artifact-write"],
        )
        assert report.findings == []

    def test_nonatomic_write_traces_module_level_path_constant(self, tmp_path):
        source = textwrap.dedent(
            """
            from pathlib import Path

            OUT_PATH = Path("reports") / "BENCH_x.json"


            def persist(payload):
                OUT_PATH.write_bytes(payload)
            """
        ).strip("\n") + "\n"
        report = _lint(
            tmp_path, "perf/report.py", source,
            select=["nonatomic-artifact-write"],
        )
        assert [f.rule_id for f in report.findings] == [
            "nonatomic-artifact-write"
        ]

    def test_nonatomic_write_allows_buffer_np_save(self, tmp_path):
        source = textwrap.dedent(
            """
            import io

            import numpy as np


            def serialize(array):
                buffer = io.BytesIO()
                np.save(buffer, array)
                return buffer.getvalue()
            """
        ).strip("\n") + "\n"
        report = _lint(
            tmp_path, "encoder/weights.py", source,
            select=["nonatomic-artifact-write"],
        )
        assert report.findings == []

    def test_falsy_zero_exempts_container_annotations(self, tmp_path):
        source = textwrap.dedent(
            """
            from typing import Optional, Set


            def subset(values, exclude: Optional[Set[int]] = None):
                excluded = set(exclude or ())
                return [v for v in values if v not in excluded]
            """
        ).strip("\n") + "\n"
        report = _lint(tmp_path, "mod.py", source, select=["falsy-zero-default"])
        assert report.findings == []


class TestFramework:
    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            _resolve_rules(["no-such-rule"], None)

    def test_ignore_removes_rule(self, tmp_path):
        rel, raw = VIOLATIONS["bare-except"]
        source, _ = _render(raw, "")
        path = tmp_path / rel
        path.write_text(source, encoding="utf-8")
        config = LintConfig(root=tmp_path)
        everything = run_lint([path], config=config)
        assert "bare-except" in {f.rule_id for f in everything.findings}
        report = run_lint([path], ignore=["bare-except"], config=config)
        assert "bare-except" not in {f.rule_id for f in report.findings}

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n", encoding="utf-8")
        report = run_lint([path], config=LintConfig(root=tmp_path))
        assert [f.rule_id for f in report.findings] == [PARSE_ERROR]

    def test_registry_descriptions_populated(self):
        for rule_id, rule_cls in REGISTRY.items():
            assert rule_cls.id == rule_id
            assert rule_cls.description

    def test_report_counts(self, tmp_path):
        rel, raw = VIOLATIONS["bare-except"]
        source, _ = _render(raw, "")
        report = _lint(tmp_path, rel, source, select=["bare-except"])
        assert report.counts == {"bare-except": 1}
        assert report.files_scanned == 1


class TestReporters:
    def _report(self, tmp_path):
        rel, raw = VIOLATIONS["falsy-zero-default"]
        source, _ = _render(raw, "")
        return _lint(tmp_path, rel, source, select=["falsy-zero-default"])

    def test_text_lists_location_and_summary(self, tmp_path):
        report = self._report(tmp_path)
        text = render_text(report)
        finding = report.findings[0]
        assert finding.location() in text
        assert "1 finding(s)" in text

    def test_text_clean_summary(self):
        from repro.analysis.core import LintReport

        text = render_text(LintReport(findings=[], files_scanned=3))
        assert text == "clean: 0 findings in 3 file(s) scanned"

    def test_json_schema(self, tmp_path):
        report = self._report(tmp_path)
        payload = json.loads(render_json(report))
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {"falsy-zero-default": 1}
        entry = payload["findings"][0]
        assert set(entry) == {"rule", "path", "line", "col", "message"}


class TestConfig:
    SAMPLE = textwrap.dedent(
        """
        [tool.other]
        noise = ["x"]

        [tool.repro.lint]
        paths = ["src", "tests"]

        [tool.repro.lint.layers]
        order = ["foundation", "serving"]
        foundation = [
            "repro.storage",
            "repro.nn",
        ]
        serving = ["repro.serve"]
        """
    ).strip("\n")

    def test_parse_config(self, tmp_path):
        config = parse_config(self.SAMPLE, root=tmp_path)
        assert config.paths == ("src", "tests")
        assert config.layers_order == ("foundation", "serving")
        assert config.layers == {
            "foundation": ("repro.storage", "repro.nn"),
            "serving": ("repro.serve",),
        }
        assert config.root == tmp_path

    def test_fallback_parser_matches_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        data = tomllib.loads(self.SAMPLE)
        tables = _fallback_parse(self.SAMPLE)
        lint_table = data["tool"]["repro"]["lint"]
        assert tables["tool.repro.lint"]["paths"] == tuple(lint_table["paths"])
        assert tables["tool.repro.lint.layers"] == {
            key: tuple(value) for key, value in lint_table["layers"].items()
        }

    def test_repo_pyproject_parses_with_fallback(self):
        repo_root = Path(__file__).resolve().parents[1]
        text = (repo_root / "pyproject.toml").read_text(encoding="utf-8")
        tables = _fallback_parse(text)
        assert "tool.repro.lint" in tables
        assert "tool.repro.lint.layers" in tables

    def test_fixture_sources_parse(self):
        # guard the fixtures themselves: a typo here would silently test
        # nothing (a parse-error finding instead of the rule's own)
        for table in (VIOLATIONS, COMPLIANT):
            for rule_id, (_, raw) in table.items():
                source, _ = _render(raw, "")
                ast.parse(source, filename=rule_id)
