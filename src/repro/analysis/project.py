"""Phase 1 of the two-phase analyzer: the per-file project model.

The file-local rules see one AST at a time; the project rules
(:mod:`repro.analysis.project_rules`) need facts that only exist *across*
files — who imports whom, which class owns which lock, which module-level
symbol is ever referenced. This module extracts exactly those facts from
one parsed file into a :class:`ModuleSummary`, and assembles the
summaries of a whole run into a :class:`ProjectModel`.

Summaries are plain data (nested dataclasses of strings and ints): once
a file is summarized its AST is dropped, and phase 2 reads nothing else.

What gets extracted:

* **module identity** — the dotted module name derived from the path
  (``src/repro/serve/cache.py`` → ``repro.serve.cache``).
* **imports** — every ``import``/``from`` target, resolved to absolute
  dotted names (relative imports are expanded against the module
  package), with the line of first occurrence and whether the import is
  module-level or deferred into a function body. Deferred imports are
  the sanctioned cycle-breaking idiom, so the cycle check ignores them
  while the layering check does not.
* **references** — the set of identifiers the file *uses* (names,
  attribute accessors, keyword names, names it imports), feeding
  ``dead-symbol``. A package ``__init__``'s import aliases and any
  ``__all__`` strings are re-exports, not uses, and are left out.
* **definitions** — module-level ``def``/``class`` and the methods of
  module-level classes, with their decoration status.
* **class concurrency facts** — lock-attribute inventory
  (``self._x = threading.Lock()/RLock()/Condition()``), the attributes
  ``__init__`` establishes, which of them are mutated outside init
  and, per method, every access to an init-established attribute (with
  the locks held at that point). ``unlocked-shared-state`` runs
  entirely off these facts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import FileContext

#: Constructor names that create a lock-like object worth tracking.
LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "Condition"})

#: Methods that mutate a container in place; calling one on an
#: init-established attribute marks that attribute as shared mutable
#: state even though the attribute itself is never rebound.
MUTATING_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "insert", "add", "update",
        "setdefault", "pop", "popleft", "popitem", "remove", "discard",
        "clear", "move_to_end", "sort", "reverse",
    }
)

#: Methods treated as establishing state like ``__init__`` does
#: (dataclasses assign their lock in ``__post_init__``).
INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: Decorators that only change how a name binds: they register the def
#: nowhere, so it still needs a caller (a property is read by name).
BINDING_DECORATORS = frozenset({"property", "staticmethod", "classmethod"})

#: Base classes whose ``visit_*`` methods are called by name dispatch.
AST_VISITOR_BASES = frozenset({"NodeVisitor", "NodeTransformer"})


@dataclass
class AttrAccess:
    """One touch of an init-established attribute inside a method."""

    attr: str
    line: int
    col: int
    is_write: bool  # rebind, subscript/member store, or mutating call
    held: Tuple[str, ...]  # lock attrs held at this point (lexical)


@dataclass
class MethodSummary:
    """Concurrency-relevant facts about one method."""

    name: str
    line: int
    is_public: bool
    is_init: bool
    accesses: List[AttrAccess] = field(default_factory=list)


@dataclass
class ClassSummary:
    """One class: its lock inventory, shared attributes, and methods."""

    name: str
    line: int
    lock_attrs: List[str] = field(default_factory=list)
    init_attrs: Dict[str, int] = field(default_factory=dict)  # attr -> line
    mutated_attrs: List[str] = field(default_factory=list)
    methods: List[MethodSummary] = field(default_factory=list)


@dataclass
class ImportEdge:
    """One imported module: absolute dotted name + where and how."""

    target: str
    line: int
    col: int
    deferred: bool  # inside a function body (lazy import)


@dataclass
class SymbolDef:
    """One module-level ``def``/``class``, or a method of such a class."""

    name: str
    line: int
    col: int
    kind: str  # "def" | "class" | "method"
    decorated: bool  # by something that may register or dispatch it
    owner: str = ""  # the class a method belongs to


@dataclass
class ModuleSummary:
    """Everything the project rules need to know about one file."""

    module: str
    rel_path: str
    is_test: bool
    imports: List[ImportEdge] = field(default_factory=list)
    defs: List[SymbolDef] = field(default_factory=list)
    references: List[str] = field(default_factory=list)  # sorted, unique
    classes: List[ClassSummary] = field(default_factory=list)

    @property
    def dir_parts(self) -> Set[str]:
        return set(Path(self.rel_path).parts[:-1])

    @property
    def in_tests_dir(self) -> bool:
        """Under ``tests/`` — by directory, not by file name: the
        ``benchmarks/test_table*.py`` modules are real callers."""
        return "tests" in self.dir_parts


def module_name_of(rel_path: str) -> str:
    """Dotted module name of a repo-relative posix path.

    The ``src/`` layout prefix is dropped so names match import
    statements (``src/repro/cli.py`` → ``repro.cli``); ``__init__.py``
    maps to its package.
    """
    parts = list(Path(rel_path).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts = parts[:-1] + [leaf]
    return ".".join(parts)


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Absolute dotted name of a ``from ...x import y`` target."""
    base = module.split(".")
    # level 1 = the current package; the module's own leaf never counts
    if len(base) >= level:
        base = base[: len(base) - level]
    else:
        base = []
    if target:
        base = base + target.split(".")
    return ".".join(base)


class _ModuleVisitor(ast.NodeVisitor):
    """Single pass collecting imports, defs, references and classes."""

    def __init__(self, module: str, is_package: bool):
        self.module = module
        self.is_package = is_package  # an __init__.py: imports re-export
        self.imports: Dict[Tuple[str, bool], ImportEdge] = {}
        self.defs: List[SymbolDef] = []
        self.references: Set[str] = set()
        self.classes: List[ClassSummary] = []
        self._depth = 0  # function nesting depth (imports inside = deferred)

    # -- imports ---------------------------------------------------------
    def _add_import(self, target: str, node: ast.AST) -> None:
        if not target:
            return
        deferred = self._depth > 0
        key = (target, deferred)
        if key not in self.imports:
            self.imports[key] = ImportEdge(
                target=target,
                line=node.lineno,
                col=node.col_offset,
                deferred=deferred,
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add_import(alias.name, node)
            if not self.is_package:
                self.references.add((alias.asname or alias.name).split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = (
            _resolve_relative(self.module, node.level, node.module)
            if node.level
            else (node.module or "")
        )
        for alias in node.names:
            # ``from pkg import sub`` may name a submodule: record the
            # dotted child, not the bare package — resolution walks up
            # the dotted prefix anyway, and an unconditional edge to the
            # package __init__ would invent cycles that ``from pkg
            # import submodule`` does not create at runtime
            self._add_import(
                f"{base}.{alias.name}" if base else alias.name, node
            )
            if not self.is_package:
                self.references.add(alias.asname or alias.name)

    # -- references ------------------------------------------------------
    def visit_Name(self, node: ast.Name) -> None:
        self.references.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.references.add(node.attr)
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg:
            self.references.add(node.arg)
        self.generic_visit(node)

    # -- definitions and classes -----------------------------------------
    def _define(self, node, kind: str, owner: str = "") -> None:
        self.defs.append(
            SymbolDef(
                name=node.name,
                line=node.lineno,
                col=node.col_offset,
                kind=kind,
                decorated=any(
                    _dotted_leaf(decorator) not in BINDING_DECORATORS
                    for decorator in node.decorator_list
                ),
                owner=owner,
            )
        )

    def _visit_def(self, node) -> None:
        if self._depth == 0:
            self._define(node, "def")
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_def

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._depth == 0:
            self._define(node, "class")
            # ast.NodeVisitor dispatches visit_<NodeType> by name
            is_visitor = any(
                _dotted_leaf(base) in AST_VISITOR_BASES for base in node.bases
            )
            for child in node.body:
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not (is_visitor and child.name.startswith("visit_")):
                    self._define(child, "method", owner=node.name)
            self.classes.append(_summarize_class(node))
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1


def _dotted_leaf(node: ast.expr) -> str:
    """``b`` of ``a.b`` / ``b``; empty for any other expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_constructor(value: ast.expr) -> bool:
    """Whether ``value`` is a ``Lock()``/``RLock()``/``Condition()`` call."""
    return (
        isinstance(value, ast.Call)
        and _dotted_leaf(value.func) in LOCK_CONSTRUCTORS
    )


class _MethodWalker:
    """Walk one method body tracking the lexically held lock set."""

    def __init__(self, lock_attrs: Set[str], tracked: Set[str]):
        self.lock_attrs = lock_attrs
        self.tracked = tracked  # init-established attrs worth recording
        self.accesses: List[AttrAccess] = []
        self._held: List[str] = []

    def held(self) -> Tuple[str, ...]:
        return tuple(self._held)

    def _record_access(self, attr: str, node: ast.AST, write: bool) -> None:
        if attr in self.tracked and attr not in self.lock_attrs:
            self.accesses.append(
                AttrAccess(
                    attr=attr,
                    line=node.lineno,
                    col=node.col_offset,
                    is_write=write,
                    held=self.held(),
                )
            )

    def walk(self, statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            self._walk_stmt(statement)

    def _walk_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in self.lock_attrs:
                    self._held.append(attr)
                    acquired.append(attr)
                else:
                    self._walk_expr(item.context_expr)
            self.walk(node.body)
            for _ in acquired:
                self._held.pop()
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes: lock context does not carry lexically
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                self._walk_target(target)
            if node.value is not None:
                self._walk_expr(node.value)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._walk_target(target)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._walk_stmt(child)
            elif isinstance(child, ast.expr):
                self._walk_expr(child)

    def _walk_target(self, target: ast.expr) -> None:
        """A store/delete target: classify which attribute it mutates."""
        attr = _self_attr(target)
        if attr is not None:
            self._record_access(attr, target, write=True)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute, ast.Starred)):
            # self.attr[k] = v / self.attr.field = v / del self.attr[k]
            inner = _self_attr(target.value)
            if inner is not None:
                self._record_access(inner, target, write=True)
                return
            self._walk_expr(target.value)
            if isinstance(target, ast.Subscript):
                self._walk_expr(target.slice)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._walk_target(element)
            return
        self._walk_expr(target)

    def _walk_expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            recorded = False
            if isinstance(func, ast.Attribute):
                receiver = func.value
                attr = _self_attr(receiver)
                if attr is not None:
                    # self.<attr>.method(...)
                    if func.attr in MUTATING_METHODS:
                        self._record_access(attr, func, write=True)
                    else:
                        self._record_access(attr, func, write=False)
                    recorded = True
                elif (
                    isinstance(receiver, ast.Name) and receiver.id == "self"
                ):
                    # self.method(...): a call, not an attribute access
                    recorded = True
            if not recorded:
                self._walk_expr_children(func)
            for arg in node.args:
                self._walk_expr(arg)
            for keyword in node.keywords:
                self._walk_expr(keyword.value)
            return
        attr = _self_attr(node)
        if attr is not None:
            self._record_access(attr, node, write=False)
            return
        if isinstance(node, (ast.Lambda,)):
            return  # separate scope
        self._walk_expr_children(node)

    def _walk_expr_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._walk_expr(child)
            elif isinstance(child, ast.stmt):  # pragma: no cover - defensive
                self._walk_stmt(child)


def _summarize_class(node: ast.ClassDef) -> ClassSummary:
    """Concurrency facts of one class definition."""
    summary = ClassSummary(name=node.name, line=node.lineno)
    methods = [
        child
        for child in node.body
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # pass 1: the attribute inventory from the init-style methods, plus
    # dataclass-style class-body annotations
    for child in node.body:
        if isinstance(child, ast.AnnAssign) and isinstance(
            child.target, ast.Name
        ):
            summary.init_attrs.setdefault(child.target.id, child.lineno)
    for method in methods:
        if method.name not in INIT_METHODS:
            continue
        for sub in ast.walk(method):
            if isinstance(sub, ast.Assign):
                value = sub.value
                for target in sub.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    summary.init_attrs.setdefault(attr, target.lineno)
                    if _lock_constructor(value):
                        if attr not in summary.lock_attrs:
                            summary.lock_attrs.append(attr)
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                attr = _self_attr(sub.target)
                if attr is not None:
                    summary.init_attrs.setdefault(attr, sub.target.lineno)
                    if _lock_constructor(sub.value):
                        if attr not in summary.lock_attrs:
                            summary.lock_attrs.append(attr)
    lock_attrs = set(summary.lock_attrs)
    tracked = set(summary.init_attrs)
    # pass 2: per-method facts
    mutated: Set[str] = set()
    for method in methods:
        walker = _MethodWalker(lock_attrs, tracked)
        walker.walk(method.body)
        name = method.name
        is_init = name in INIT_METHODS
        is_public = not name.startswith("_") or (
            name.startswith("__") and name.endswith("__") and not is_init
        )
        summary.methods.append(
            MethodSummary(
                name=name,
                line=method.lineno,
                is_public=is_public,
                is_init=is_init,
                accesses=walker.accesses,
            )
        )
        if not is_init:
            mutated.update(
                access.attr for access in walker.accesses if access.is_write
            )
    summary.mutated_attrs = sorted(mutated)
    return summary


def summarize_module(ctx: FileContext) -> ModuleSummary:
    """Phase-1 extraction: one :class:`ModuleSummary` per parsed file."""
    module = module_name_of(ctx.rel_path)
    visitor = _ModuleVisitor(
        module, is_package=Path(ctx.rel_path).name == "__init__.py"
    )
    visitor.visit(ctx.tree)
    return ModuleSummary(
        module=module,
        rel_path=ctx.rel_path,
        is_test=ctx.is_test_file,
        imports=sorted(
            visitor.imports.values(),
            key=lambda e: (e.target, e.deferred, e.line),
        ),
        defs=visitor.defs,
        references=sorted(visitor.references),
        classes=visitor.classes,
    )


@dataclass
class ProjectModel:
    """Phase 2's input: every module summary plus derived indexes."""

    modules: Dict[str, ModuleSummary] = field(default_factory=dict)
    #: whether the run covered every configured lint path (rules that
    #: reason about "the whole project", e.g. dead-symbol, stay silent
    #: on partial runs — a reference could live in an unscanned file)
    full_project: bool = True

    def resolve_import(self, target: str) -> Optional[str]:
        """The most specific project module matching an import target."""
        name = target
        while name:
            if name in self.modules:
                return name
            if "." not in name:
                return None
            name = name.rsplit(".", 1)[0]
        return None


def build_project_model(
    summaries: Sequence[ModuleSummary], full_project: bool = True
) -> ProjectModel:
    """Assemble phase-1 summaries into the phase-2 model."""
    model = ProjectModel(full_project=full_project)
    for summary in summaries:
        model.modules[summary.module] = summary
    return model
