"""Analyzer framework: findings, rule registry, suppressions, driver.

The moving parts:

* :class:`Finding` — one (rule, path, line, message) diagnostic.
* :class:`Rule` — base class; subclasses declare ``id``/``description``,
  optionally narrow their scope with :meth:`Rule.applies_to`, and yield
  findings from :meth:`Rule.check`. Registration via :func:`register`.
* suppression comments — ``# lint: ignore[rule-a, rule-b]`` silences the
  named rules on that line; bare ``# lint: ignore`` silences every rule.

The driver itself — :func:`repro.analysis.engine.run_lint` — lives in
:mod:`repro.analysis.engine`: it runs phase 1 (per-file parsing,
file-local rules, module summaries) and phase 2 (project rules over the
assembled model) in one in-process pass.

A file that fails to parse produces a single ``parse-error`` finding
instead of crashing the run, so the gate also catches syntax rot.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Type

PARSE_ERROR = "parse-error"

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([^\]]*)\])?")


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class FileContext:
    """Everything a rule needs to know about one file."""

    path: Path
    rel_path: str  # posix, relative to the lint root when resolvable
    source: str
    tree: ast.AST

    @property
    def dir_parts(self) -> Set[str]:
        """Directory names along the (relative) path, for scoped rules."""
        return set(Path(self.rel_path).parts[:-1])

    @property
    def is_test_file(self) -> bool:
        name = Path(self.rel_path).name
        return name.startswith("test_") or name == "conftest.py"


class Rule:
    """Base class for one analysis rule."""

    id: str = ""
    description: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (default: every file)."""
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.id,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: rule-id -> rule class, populated by :func:`register`.
REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id!r}")
    REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rule_ids() -> List[str]:
    return sorted(REGISTRY)


def _resolve_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> List[Rule]:
    """Instantiate the rules a run should execute."""
    known = set(REGISTRY)
    for name, ids in (("--select", select), ("--ignore", ignore)):
        unknown = set(ids or ()) - known - {PARSE_ERROR}
        if unknown:
            raise ValueError(
                f"unknown rule id(s) for {name}: {', '.join(sorted(unknown))}"
                f" (known: {', '.join(sorted(known))})"
            )
    chosen = set(select) if select else known
    chosen -= set(ignore or ())
    return [REGISTRY[rule_id]() for rule_id in sorted(chosen)]


def suppressed_lines(source: str) -> Dict[int, Set[str]]:
    """line -> rule ids suppressed there (``{"*"}`` means all rules)."""
    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            ids = match.group(1)
            if ids is None:
                out.setdefault(token.start[0], set()).add("*")
            else:
                out.setdefault(token.start[0], set()).update(
                    part.strip() for part in ids.split(",") if part.strip()
                )
    except tokenize.TokenError:
        pass  # lint: ignore[except-pass] -- ast.parse reports the real error
    return out


def _is_suppressed(finding: Finding, suppressions: Dict[int, Set[str]]) -> bool:
    ids = suppressions.get(finding.line)
    return bool(ids) and ("*" in ids or finding.rule_id in ids)


def _relativize(path: Path, root: Optional[Path]) -> str:
    resolved = path.resolve()
    for base in (root, Path.cwd()):
        if base is None:
            continue
        try:
            return resolved.relative_to(Path(base).resolve()).as_posix()
        except ValueError:
            continue
    return path.as_posix()


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through)."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" in candidate.parts:
                    continue
                yield candidate
        elif path.suffix == ".py":
            yield path


@dataclass
class LintReport:
    """The outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule_id] = out.get(finding.rule_id, 0) + 1
        return out
