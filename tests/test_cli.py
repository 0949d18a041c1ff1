"""Tests for the command-line interface."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        (subparsers,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        # the whole command set: adding or removing one must edit this
        assert list(subparsers.choices) == [
            "build", "ingest", "query", "eval", "demo", "lint", "serve"
        ]
        for argv in (
            ["build", "--out", "x"],
            ["ingest", "--out", "x"],
            ["query", "--model", "m", "question?"],
            ["eval", "--model", "m"],
            ["demo", "some text"],
            ["lint", "src"],
            ["serve", "--synthetic"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_defaults(self):
        # one helper declares the world flags of both commands
        for command in ("build", "ingest"):
            args = build_parser().parse_args([command, "--out", "x"])
            assert (args.persons, args.clubs, args.bands, args.cities) == (
                70, 20, 20, 25
            )
            assert args.seed == 13 and args.dim == 96

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--model", "m", "--n", "-5"],
            ["eval", "--model", "m", "--n", "0"],
            ["query", "--model", "m", "--k", "-1", "q ?"],
            ["query", "--model", "m", "--k", "0", "q ?"],
        ],
    )
    def test_non_positive_counts_are_usage_errors(self, argv, capsys):
        # --n -5 used to evaluate "all but the last five" questions and
        # --k -1 / 0 a truncated or empty path list
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err


REPO_ROOT = Path(__file__).resolve().parents[1]
_DOC_COMMAND = re.compile(r"^\s*(?:\w+=\S+\s+)*python3? -m repro\.cli\s+(.*)$")


def _documented_commands(relative_path):
    """argv lists of every ``python -m repro.cli …`` line in a doc file."""
    text = (REPO_ROOT / relative_path).read_text(encoding="utf-8")
    # a trailing backslash continues the command on the next line
    joined = re.sub(r"\\\n\s*", " ", text)
    commands = []
    for line in joined.splitlines():
        match = _DOC_COMMAND.match(line)
        if match:
            commands.append(shlex.split(match.group(1), comments=True))
    return commands


class TestDocumentedCommands:
    """Every CLI line the docs show must still parse (nothing is run), so
    removing a flag can never leave a documented command that exits 2."""

    @pytest.mark.parametrize(
        "doc", ["README.md", ".claude/skills/verify/SKILL.md"]
    )
    def test_documented_commands_parse(self, doc):
        commands = _documented_commands(doc)
        assert commands, f"no repro.cli command found in {doc}"
        parser = build_parser()
        for argv in commands:
            try:
                args = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{doc}: `repro.cli {' '.join(argv)}` no longer parses")
            assert callable(args.func)


class TestDemo:
    def test_demo_runs(self, capsys):
        exit_code = main(
            ["demo", "Walter Davis was a footballer. He played for Millwall."]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "union extraction" in out
        assert "constructed T_d" in out
        assert "Walter Davis" in out


CLEAN_SOURCE = 'GREETING = "hello"\n'

# one seeded falsy-zero-default violation (the PR-1 bug class)
VIOLATING_SOURCE = "def pick(k=None):\n    k = k or 10\n    return k\n"


class TestLint:
    def _write(self, tmp_path, source):
        path = tmp_path / "mod.py"
        path.write_text(source, encoding="utf-8")
        return path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, CLEAN_SOURCE)
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "clean: 0 findings" in out

    def test_seeded_violation_exits_one(self, tmp_path, capsys):
        path = self._write(tmp_path, VIOLATING_SOURCE)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "falsy-zero-default" in out
        assert "1 finding(s)" in out

    def test_json_format_schema(self, tmp_path, capsys):
        path = self._write(tmp_path, VIOLATING_SOURCE)
        assert main(["lint", "--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {"falsy-zero-default": 1}
        entry = payload["findings"][0]
        assert set(entry) == {"rule", "path", "line", "col", "message"}
        assert entry["rule"] == "falsy-zero-default"
        assert entry["line"] == 2

    def test_select_runs_only_named_rules(self, tmp_path, capsys):
        path = self._write(tmp_path, VIOLATING_SOURCE)
        assert main(["lint", "--select", "bare-except", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_ignore_drops_named_rules(self, tmp_path, capsys):
        path = self._write(tmp_path, VIOLATING_SOURCE)
        exit_code = main(
            ["lint", "--ignore", "falsy-zero-default", str(path)]
        )
        assert exit_code == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, CLEAN_SOURCE)
        assert main(["lint", "--select", "no-such-rule", str(path)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) >= 8
        assert any(line.startswith("falsy-zero-default:") for line in out)

    def test_lint_parser_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == [] and args.format == "text"
        # the whole option set: adding or removing one must edit this
        assert set(vars(args)) - {"command", "func"} == {
            "paths", "format", "select", "ignore", "list_rules"
        }


class _FakePath:
    def __init__(self, text):
        self.text = text

    def explain(self):
        return f"path[{self.text}]"


class _StubSystem:
    """Duck-typed TripleFactRetrieval standing in for a trained model."""

    def __init__(self):
        self.batch_calls = []

    def retrieve_paths_many(self, questions, k=8):
        self.batch_calls.append((list(questions), k))
        return [[_FakePath(question)] for question in questions]


@pytest.fixture()
def stub_system(monkeypatch):
    system = _StubSystem()
    monkeypatch.setattr(
        repro.cli,
        "load_model_dir",
        lambda model_dir: (system, None, None, None),
    )
    return system


class TestQueryBatch:
    def _query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            "who founded the club ?\n\n  where was he born ?  \n",
            encoding="utf-8",
        )
        return path

    def test_batch_routes_through_bulk_path(
        self, tmp_path, capsys, stub_system
    ):
        queries = self._query_file(tmp_path)
        exit_code = main(
            ["query", "--model", "m", "--batch", str(queries), "--k", "2"]
        )
        assert exit_code == 0
        # blank/whitespace lines dropped, one bulk call with both questions
        assert stub_system.batch_calls == [
            (["who founded the club ?", "where was he born ?"], 2)
        ]
        out = capsys.readouterr().out
        assert "=== who founded the club ?" in out
        assert "path[where was he born ?]" in out

    def test_single_question_still_works(self, capsys, stub_system):
        assert main(["query", "--model", "m", "why ?"]) == 0
        # the same one call, with a batch of one and no "===" header
        assert stub_system.batch_calls == [(["why ?"], 3)]
        out = capsys.readouterr().out
        assert "path[why ?]" in out and "===" not in out

    def test_question_and_batch_together_rejected(
        self, tmp_path, capsys, stub_system
    ):
        queries = self._query_file(tmp_path)
        exit_code = main(
            ["query", "--model", "m", "--batch", str(queries), "also this ?"]
        )
        assert exit_code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_question_nor_batch_rejected(self, capsys, stub_system):
        assert main(["query", "--model", "m"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_empty_batch_file_rejected(self, tmp_path, capsys, stub_system):
        queries = tmp_path / "empty.txt"
        queries.write_text("\n  \n", encoding="utf-8")
        assert main(["query", "--model", "m", "--batch", str(queries)]) == 2
        assert "no queries" in capsys.readouterr().err


class TestNetCommands:
    def test_parse_listen(self):
        from repro.cli import _parse_listen

        assert _parse_listen("0.0.0.0:7371") == ("0.0.0.0", 7371)
        with pytest.raises(Exception):
            _parse_listen("no-port")
        with pytest.raises(Exception):
            _parse_listen(":8000")

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--synthetic"])
        assert args.listen == ("127.0.0.1", 7371)
        assert args.workers == 2
        assert args.synthetic

    def test_serve_requires_a_bundle_source(self, capsys):
        assert main(["serve"]) == 2
        assert "--model DIR or --synthetic" in capsys.readouterr().err
