"""Phase 2: rules that reason over the whole-project model.

File-local rules (:mod:`repro.analysis.rules`) see one AST at a time;
the rules here consume the :class:`~repro.analysis.project.ProjectModel`
that phase 1 of the engine assembles from every scanned file. Each one
encodes a cross-file bug class this repo has actually hit:

* ``unlocked-shared-state`` — the ResultCache/EmbeddingStore bug class:
  a class owns a lock, establishes mutable state in ``__init__``, then a
  public method touches that state without holding any lock.
* ``layering-violation`` — an import contradicts the layer DAG declared
  in ``[tool.repro.lint.layers]``, or a module-level import cycle exists.
* ``dead-symbol`` — a def, class or method that nothing outside
  ``tests/`` uses; a package ``__init__`` re-export is not a use.

Project rules subclass :class:`ProjectRule`: they opt out of the
per-file phase (``applies_to`` is ``False``) and implement
:meth:`ProjectRule.check_project` instead. The engine still applies
per-line ``# lint: ignore[...]`` suppressions to their findings, so the
escape hatch is uniform across both phases.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.config import LintConfig
from repro.analysis.core import FileContext, Finding, Rule, register
from repro.analysis.project import ClassSummary, ModuleSummary, ProjectModel

#: Directories whose shared-state discipline the lock rule polices. The
#: concurrency lives in serving, ingestion, sharding and storage; hot
#: math paths (retriever/nn) are lock-free by design and stay exempt.
SHARED_STATE_DIRS = frozenset({"serve", "ingest", "shard", "storage"})


class ProjectRule(Rule):
    """A rule that runs once over the project model, not per file."""

    def applies_to(self, ctx: FileContext) -> bool:
        return False  # phase 1 never runs project rules

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(
        self, model: ProjectModel, config: LintConfig
    ) -> Iterator[Finding]:
        raise NotImplementedError


def _tarjan_sccs(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components, iteratively (no recursion limit).

    ``graph`` maps every node to its successor set; successors absent
    from the key set are ignored. Deterministic: nodes are visited in
    sorted order, so SCC discovery order is stable across runs.
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0
    for start in sorted(graph):
        if start in index:
            continue
        index[start] = lowlink[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        work: List[Tuple[str, Iterator[str]]] = [
            (start, iter(sorted(graph[start])))
        ]
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


@register
class UnlockedSharedState(ProjectRule):
    id = "unlocked-shared-state"
    description = (
        "attribute established in __init__ of a lock-owning class is "
        "accessed in a public method without holding any lock"
    )

    def check_project(
        self, model: ProjectModel, config: LintConfig
    ) -> Iterator[Finding]:
        for module in sorted(model.modules):
            summary = model.modules[module]
            if summary.is_test:
                continue
            if not (summary.dir_parts & SHARED_STATE_DIRS):
                continue
            for cls in summary.classes:
                yield from self._check_class(summary, cls)

    def _check_class(
        self, summary: ModuleSummary, cls: ClassSummary
    ) -> Iterator[Finding]:
        if not cls.lock_attrs:
            return
        # shared mutable state: established in __init__, mutated after
        # it. Attributes only ever assigned at construction are
        # immutable configuration and safe to read unlocked.
        shared = (
            set(cls.mutated_attrs) & set(cls.init_attrs)
        ) - set(cls.lock_attrs)
        if not shared:
            return
        locks = ", ".join(f"self.{attr}" for attr in cls.lock_attrs)
        for method in cls.methods:
            if method.is_init or not method.is_public:
                # private methods are presumed called with a lock held
                # by their public callers; the public surface is the gate
                continue
            for access in method.accesses:
                if access.attr not in shared or access.held:
                    continue
                verb = "written" if access.is_write else "read"
                yield Finding(
                    rule_id=self.id,
                    path=summary.rel_path,
                    line=access.line,
                    col=access.col,
                    message=(
                        f"'{access.attr}' is shared mutable state of "
                        f"lock-owning class '{cls.name}' but is {verb} in "
                        f"public method '{method.name}' without holding "
                        f"any of its locks ({locks})"
                    ),
                )


@register
class LayeringViolation(ProjectRule):
    id = "layering-violation"
    description = (
        "import contradicts the declared layer DAG, or a module-level "
        "import cycle exists"
    )

    def check_project(
        self, model: ProjectModel, config: LintConfig
    ) -> Iterator[Finding]:
        yield from self._check_layers(model, config)
        yield from self._check_cycles(model)

    def _check_layers(
        self, model: ProjectModel, config: LintConfig
    ) -> Iterator[Finding]:
        prefixes: List[Tuple[str, int, str]] = []
        for rank, layer in enumerate(config.layers_order):
            for prefix in config.layers.get(layer, ()):
                prefixes.append((prefix, rank, layer))

        def layer_of(name: str) -> Optional[Tuple[str, int, str]]:
            best: Optional[Tuple[str, int, str]] = None
            for entry in prefixes:
                prefix = entry[0]
                if name == prefix or name.startswith(prefix + "."):
                    if best is None or len(prefix) > len(best[0]):
                        best = entry
            return best

        # NB: layer matching works on the *dotted import target*, not on
        # resolved project modules, so a foundation module importing
        # repro.serve is flagged even when serve/ was not scanned
        for module in sorted(model.modules):
            summary = model.modules[module]
            if summary.is_test:
                continue
            own = layer_of(module)
            if own is None:
                continue
            for edge in summary.imports:
                target = layer_of(edge.target)
                if target is None or target[1] <= own[1]:
                    continue
                yield Finding(
                    rule_id=self.id,
                    path=summary.rel_path,
                    line=edge.line,
                    col=edge.col,
                    message=(
                        f"module '{module}' (layer '{own[2]}') imports "
                        f"'{edge.target}' (layer '{target[2]}'): lower "
                        f"layers must not depend on higher layers"
                    ),
                )

    def _check_cycles(self, model: ProjectModel) -> Iterator[Finding]:
        # only module-level imports participate: a deferred import
        # inside a function body is the sanctioned way to break a cycle,
        # because it runs after both modules finished initializing
        graph: Dict[str, Set[str]] = {}
        edges: Dict[Tuple[str, str], Tuple[str, int, int]] = {}
        for module, summary in model.modules.items():
            graph.setdefault(module, set())
            for edge in summary.imports:
                if edge.deferred:
                    continue
                resolved = model.resolve_import(edge.target)
                if resolved is None or resolved == module:
                    continue
                graph[module].add(resolved)
                graph.setdefault(resolved, set())
                key = (module, resolved)
                anchor = (summary.rel_path, edge.line, edge.col)
                if key not in edges or anchor < edges[key]:
                    edges[key] = anchor
        for component in _tarjan_sccs(graph):
            if len(component) < 2:
                continue
            members = sorted(component)
            member_set = set(members)
            anchor = min(
                anchor
                for (src, dst), anchor in edges.items()
                if src in member_set and dst in member_set
            )
            yield Finding(
                rule_id=self.id,
                path=anchor[0],
                line=anchor[1],
                col=anchor[2],
                message=(
                    "module-level import cycle: "
                    + " <-> ".join(members)
                    + "; defer one import into the function that needs it"
                ),
            )


@register
class DeadSymbol(ProjectRule):
    id = "dead-symbol"
    description = (
        "def/class/method is used by no file outside tests/ (a package "
        "__init__ import or __all__ entry is a re-export, not a use)"
    )

    def check_project(
        self, model: ProjectModel, config: LintConfig
    ) -> Iterator[Finding]:
        if not model.full_project:
            # a partial run cannot prove absence of references: the use
            # could live in any unscanned configured path
            return
        # a unit test keeps nothing alive: only src/, benchmarks/ and
        # examples/ are callers
        referenced: Set[str] = set()
        for summary in model.modules.values():
            if not summary.in_tests_dir:
                referenced.update(summary.references)
        for module in sorted(model.modules):
            summary = model.modules[module]
            if summary.is_test or summary.in_tests_dir:
                continue  # test code answers to pytest, not to us
            for symbol in summary.defs:
                name = symbol.name
                if symbol.decorated:
                    continue  # registered/dispatched via the decorator
                if name.startswith("__") and name.endswith("__"):
                    continue
                if name in referenced:
                    continue
                shown = f"{symbol.owner}.{name}" if symbol.owner else name
                yield Finding(
                    rule_id=self.id,
                    path=summary.rel_path,
                    line=symbol.line,
                    col=symbol.col,
                    message=(
                        f"{symbol.kind} '{shown}' is used by no file "
                        f"outside tests/; delete it"
                    ),
                )
