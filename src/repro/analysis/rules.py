"""The rule catalog: this repo's bug classes as enforced AST checks.

Every rule here encodes a failure mode this codebase has actually hit (or
is one refactor away from hitting) — see the "Static analysis" section of
``DESIGN.md`` for the catalog with rationale. Rules are registered by id;
``# lint: ignore[rule-id]`` on the offending line suppresses one finding.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from pathlib import Path

from repro.analysis.core import FileContext, Finding, Rule, register

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function/class defs."""
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)


def _all_args(args: ast.arguments) -> List[ast.arg]:
    return [*args.posonlyargs, *args.args, *args.kwonlyargs]


# ---------------------------------------------------------------------------
# falsy-zero-default
# ---------------------------------------------------------------------------

_NUMERIC_NAME = re.compile(
    r"^(k|n|top_k|num\w*|count|limit|size|length|depth|width|beam\w*|"
    r"epochs?|seed|threshold|cutoff|k_\w+|n_\w+|max_\w+|min_\w+|batch_size)$"
)
# exactly a numeric scalar type, optionally Optional — NOT containers of
# ints (Sequence[int] params legitimately use `x or ()` for emptiness)
_NUMERIC_ANNOTATION = re.compile(
    r"^(?:typing\.)?(?:Optional\[\s*(?:int|float)\s*\]|int|float|"
    r"(?:int|float)\s*\|\s*None|None\s*\|\s*(?:int|float))$"
)


@register
class FalsyZeroDefault(Rule):
    """``param or default`` silently replaces a legitimate 0 / 0.0.

    The PR-1 bug class: ``k_paths or cfg.k_paths`` turned an explicit
    ``k_paths=0`` into the config default. Numeric parameters must use
    ``param if param is not None else default``.
    """

    id = "falsy-zero-default"
    description = (
        "'x or default' on a numeric parameter treats 0 as unset; "
        "use 'x if x is not None else default'"
    )

    def _numeric_params(self, node) -> Set[str]:
        names: Set[str] = set()
        args = _all_args(node.args)
        defaults: Dict[str, ast.expr] = {}
        positional = [*node.args.posonlyargs, *node.args.args]
        for arg, default in zip(
            reversed(positional), reversed(node.args.defaults)
        ):
            defaults[arg.arg] = default
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                defaults[arg.arg] = default
        for arg in args:
            if _NUMERIC_NAME.match(arg.arg):
                names.add(arg.arg)
                continue
            annotation = arg.annotation
            if annotation is not None and _NUMERIC_ANNOTATION.match(
                ast.unparse(annotation).strip()
            ):
                names.add(arg.arg)
                continue
            default = defaults.get(arg.arg)
            if (
                isinstance(default, ast.Constant)
                and isinstance(default.value, (int, float))
                and not isinstance(default.value, bool)
            ):
                names.add(arg.arg)
        return names

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            numeric = self._numeric_params(node)
            if not numeric:
                continue
            for sub in _walk_shallow(node):
                if (
                    isinstance(sub, ast.BoolOp)
                    and isinstance(sub.op, ast.Or)
                    and isinstance(sub.values[0], ast.Name)
                    and sub.values[0].id in numeric
                ):
                    name = sub.values[0].id
                    yield self.finding(
                        ctx,
                        sub,
                        f"numeric parameter {name!r} uses a falsy-zero 'or' "
                        f"default (0 silently becomes the fallback); use "
                        f"'{name} if {name} is not None else ...'",
                    )


# ---------------------------------------------------------------------------
# mutable-default-arg
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict"})


@register
class MutableDefaultArg(Rule):
    """A mutable default is shared across calls and mutates in place."""

    id = "mutable-default-arg"
    description = "mutable default argument (shared across calls); use None"

    def _is_mutable(self, node: Optional[ast.expr]) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            return name in _MUTABLE_CALLS
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and construct inside the function",
                    )


# ---------------------------------------------------------------------------
# bare-except / except-pass
# ---------------------------------------------------------------------------


@register
class BareExcept(Rule):
    """``except:`` also swallows KeyboardInterrupt/SystemExit and typos."""

    id = "bare-except"
    description = "bare 'except:' hides every error; name the exception type"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare 'except:' catches everything (including "
                    "KeyboardInterrupt); catch a specific exception type",
                )


@register
class ExceptPass(Rule):
    """An except body that only discards the failure, in any spelling.

    Three shapes fire: ``except ...: pass`` (any handler type), the
    ``except ...: ...`` Ellipsis body that reads like a stub but runs
    like a swallow, and bare ``except: continue`` — which not only eats
    the error but also hides *which* loop iterations silently failed.
    A typed ``except SomeError: continue`` is the legitimate
    skip-bad-items idiom and stays allowed.
    """

    id = "except-pass"
    description = (
        "'except ...: pass' / 'except ...: ...' / bare 'except: continue' "
        "silently swallows the error"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if len(node.body) != 1:
                continue
            body = node.body[0]
            swallows = isinstance(body, ast.Pass) or (
                isinstance(body, ast.Expr)
                and isinstance(body.value, ast.Constant)
                and body.value.value is Ellipsis
            )
            # bare 'except: continue' in a loop swallows *and* skips;
            # a typed handler with continue is deliberate item-skipping
            if (
                isinstance(body, ast.Continue)
                and node.type is None
            ):
                swallows = True
            if swallows:
                yield self.finding(
                    ctx,
                    body,
                    "exception handler silently swallows the error; handle "
                    "it, log it, or narrow the type and say why in a comment",
                )


# ---------------------------------------------------------------------------
# wall-clock-timing
# ---------------------------------------------------------------------------


@register
class WallClockTiming(Rule):
    """Timing/deadline code must not read the wall clock.

    ``time.time()`` jumps with NTP slews and DST; a duration measured
    across a step can come out negative, and a deadline computed from it
    can fire early or never. Everything here measures with
    ``time.perf_counter()`` (durations) or ``time.monotonic()``
    (deadlines, injectable clocks). Every file is in scope, and any
    *reference* to ``time.time`` fires, called or not — a
    ``clock=time.time`` default is how the wall clock gets injected.
    """

    id = "wall-clock-timing"
    description = "time.time is wall-clock; use perf_counter/monotonic"
    _MESSAGE = (
        "time.time is wall-clock (jumps with NTP/DST); measure "
        "durations with time.perf_counter() and deadlines with "
        "time.monotonic()"
    )

    def _aliases(self, tree: ast.AST) -> Tuple[Set[str], Set[str]]:
        """(names bound to the time module, names bound to time.time)."""
        modules: Set[str] = set()
        functions: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        modules.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "time":
                        functions.add(alias.asname or "time")
        return modules, functions

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        modules, functions = self._aliases(ctx.tree)
        if not modules and not functions:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "time"
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                yield self.finding(ctx, node, self._MESSAGE)
            elif isinstance(node, ast.Name) and node.id in functions:
                yield self.finding(ctx, node, self._MESSAGE)


# ---------------------------------------------------------------------------
# nonatomic-artifact-write
# ---------------------------------------------------------------------------

_ARTIFACT_SUFFIX = re.compile(r"\.(json|npz|npy)$", re.IGNORECASE)
_FILE_WRITE_METHODS = frozenset({"write_text", "write_bytes"})
_NP_SAVERS = frozenset({"save", "savez", "savez_compressed"})
_PATHISH_CALLS = frozenset({"str", "Path", "PurePath", "fspath"})
_WRITING_MODE = re.compile(r"[wax]")


@register
class NonatomicArtifactWrite(Rule):
    """On-disk artifacts must go through the ``repro.storage.atomic`` helpers.

    A plain ``write_text`` / ``open(..., "w")`` / ``np.savez`` on a
    ``.json`` / ``.npz`` / ``.npy`` artifact path truncates the
    destination before the new bytes land, so a crash mid-write leaves a
    corrupt artifact the next load chokes on. ``repro.storage.atomic``
    writes a same-directory temp file and ``os.replace``s it over the
    destination instead. Path evidence is traced through simple
    assignments (``OUT_PATH = ... / "BENCH_x.json"``), one level deep.
    """

    id = "nonatomic-artifact-write"
    description = (
        "direct write to a .json/.npz/.npy artifact path; use the "
        "repro.storage.atomic helpers (temp file + os.replace)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if Path(ctx.rel_path).name == "atomic.py":
            return False  # the helper implementation itself
        # benchmark test modules ARE artifact writers (BENCH_*.json);
        # ordinary test files exercise raw writes deliberately
        if ctx.is_test_file and "benchmarks" not in ctx.dir_parts:
            return False
        return True

    def _collect_assignments(self, tree: ast.AST) -> Dict[str, ast.expr]:
        table: Dict[str, ast.expr] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        table[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    table[node.target.id] = node.value
        return table

    def _artifact_name(
        self, expr: ast.expr, table: Dict[str, ast.expr], depth: int = 0
    ) -> Optional[str]:
        """A string constant with an artifact suffix inside ``expr``."""
        for sub in ast.walk(expr):
            if (
                isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)
                and _ARTIFACT_SUFFIX.search(sub.value)
            ):
                return sub.value
            if isinstance(sub, ast.Name) and depth < 2:
                value = table.get(sub.id)
                if value is not None:
                    found = self._artifact_name(value, table, depth + 1)
                    if found:
                        return found
        return None

    def _is_json_dumps(self, expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "dumps"
            and isinstance(expr.func.value, ast.Name)
            and expr.func.value.id == "json"
        )

    def _writing_mode(self, call: ast.Call, position: int) -> bool:
        mode: Optional[ast.expr] = None
        if len(call.args) > position:
            mode = call.args[position]
        else:
            for keyword in call.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
        return (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and bool(_WRITING_MODE.search(mode.value))
        )

    def _flag(self, ctx, node, path_hint: Optional[str]) -> Finding:
        where = f" ({path_hint!r})" if path_hint else ""
        return self.finding(
            ctx,
            node,
            f"non-atomic write to an artifact path{where}: a crash "
            "mid-write corrupts the previous artifact; use "
            "repro.storage.atomic (atomic_write_json/_text/_bytes/_npz)",
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        table = self._collect_assignments(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # pathlib writes: X.write_text(...) / X.write_bytes(...)
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _FILE_WRITE_METHODS
            ):
                name = self._artifact_name(func.value, table)
                if name is None and not (
                    func.attr == "write_text"
                    and node.args
                    and self._is_json_dumps(node.args[0])
                ):
                    continue
                yield self._flag(ctx, node, name)
            # numpy savers: np.save / np.savez / np.savez_compressed
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _NP_SAVERS
                and isinstance(func.value, ast.Name)
                and func.value.id in {"np", "numpy"}
                and node.args
            ):
                target = node.args[0]
                name = self._artifact_name(target, table)
                pathish = (
                    isinstance(target, ast.Call)
                    and isinstance(target.func, ast.Name)
                    and target.func.id in _PATHISH_CALLS
                )
                if name is None and not pathish:
                    continue  # e.g. an io.BytesIO handle
                yield self._flag(ctx, node, name)
            # builtin open(X, "w"/"wb") on an artifact path
            elif isinstance(func, ast.Name) and func.id == "open":
                if not node.args or not self._writing_mode(node, 1):
                    continue
                name = self._artifact_name(node.args[0], table)
                if name is not None:
                    yield self._flag(ctx, node, name)
            # pathlib opens: X.open("w") on an artifact path
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                if not self._writing_mode(node, 0):
                    continue
                name = self._artifact_name(func.value, table)
                if name is not None:
                    yield self._flag(ctx, node, name)


# ---------------------------------------------------------------------------
# hardcoded-dtype
# ---------------------------------------------------------------------------

# layers that hold or move embedding matrices: dtype there is policy,
# owned by repro.precision; spelling it inline silently forks the policy
DTYPE_DIRS = frozenset(
    {"retriever", "shard", "ingest", "encoder", "nn", "serve"}
)
_POLICY_DTYPES = frozenset({"float64", "float32"})


@register
class HardcodedDtype(Rule):
    """Embedding-layer code must take its dtype from ``repro.precision``.

    The matrix dtype is one end-to-end policy: the encoder, the stores,
    the shard plans and the serving layer all read it from
    ``repro.precision`` (``Precision.dtype``, ``TRAINING_DTYPE``,
    ``ACCUM_DTYPE``, ``STORE_DTYPES``). A literal ``np.float64`` /
    ``np.float32`` / ``astype("float64")`` in those layers re-forks the
    policy per call site — exactly the drift that made the float32
    migration a fifteen-file hunt. ``repro/precision.py`` itself is the
    one place the names may be spelled.
    """

    id = "hardcoded-dtype"
    description = (
        "literal float64/float32 dtype in an embedding layer; take the "
        "dtype from repro.precision"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if Path(ctx.rel_path).name == "precision.py":
            return False  # the policy definition itself
        return bool(ctx.dir_parts & DTYPE_DIRS) and not ctx.is_test_file

    def _numpy_aliases(self, tree: ast.AST) -> Tuple[Set[str], Set[str]]:
        """(names bound to numpy, names bound to numpy.float64/float32)."""
        modules: Set[str] = set()
        members: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        modules.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                for alias in node.names:
                    if alias.name in _POLICY_DTYPES:
                        members.add(alias.asname or alias.name)
        return modules, members

    def _flag(self, ctx: FileContext, node: ast.AST, spelled: str) -> Finding:
        return self.finding(
            ctx,
            node,
            f"hardcoded dtype {spelled}: embedding-layer dtypes are "
            "policy — take them from repro.precision (Precision.dtype, "
            "TRAINING_DTYPE, ACCUM_DTYPE, STORE_DTYPES)",
        )

    def _string_dtype_args(self, node: ast.Call) -> Iterator[ast.expr]:
        """String dtype literals in astype(...) args or dtype= keywords."""
        func = node.func
        candidates: List[ast.expr] = []
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            candidates.extend(node.args[:1])
        candidates.extend(
            keyword.value
            for keyword in node.keywords
            if keyword.arg == "dtype"
        )
        for expr in candidates:
            if (
                isinstance(expr, ast.Constant)
                and isinstance(expr.value, str)
                and expr.value in _POLICY_DTYPES
            ):
                yield expr

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        modules, members = self._numpy_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            # np.float64 / np.float32 attribute literals
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _POLICY_DTYPES
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                yield self._flag(
                    ctx, node, f"{node.value.id}.{node.attr}"
                )
            # from numpy import float64 [as f8] — any later use
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in members
            ):
                yield self._flag(ctx, node, node.id)
            # astype("float64") / dtype="float32" string literals
            elif isinstance(node, ast.Call):
                for expr in self._string_dtype_args(node):
                    yield self._flag(ctx, expr, repr(expr.value))


# ---------------------------------------------------------------------------
# blocking-in-async
# ---------------------------------------------------------------------------

_BLOCKING_SOCKET_METHODS = frozenset(
    {"recv", "recv_into", "recvfrom", "sendall", "accept", "makefile"}
)
_BLOCKING_PATH_METHODS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"}
)


@register
class BlockingInAsync(Rule):
    """Coroutine bodies in the net layer must not block the event loop.

    One ``time.sleep`` or sync socket read inside the front door's
    ``async def`` handlers stalls *every* connection multiplexed on that
    loop — the failure is invisible under light test load and
    catastrophic under fan-out. Blocking work belongs in the worker
    processes or behind ``run_in_executor``/``asyncio.to_thread``
    (passing the blocking function *uncalled* is fine and does not
    fire). Nested synchronous ``def``s inside a coroutine are exempt:
    they only block if called, and the call site is what gets flagged.
    """

    id = "blocking-in-async"
    description = (
        "blocking call (sleep/socket/file IO) inside async def in net/"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return "net" in ctx.dir_parts

    def _aliases(self, tree: ast.AST) -> Tuple[Set[str], Set[str], Set[str]]:
        """(time-module aliases, socket-module aliases, blocking fn aliases).

        Function aliases cover ``from time import sleep`` and
        ``from socket import create_connection/socket/socketpair`` — the
        from-imported names that block when called bare.
        """
        time_modules: Set[str] = set()
        socket_modules: Set[str] = set()
        functions: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_modules.add(alias.asname or "time")
                    elif alias.name == "socket":
                        socket_modules.add(alias.asname or "socket")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name == "sleep":
                            functions.add(alias.asname or "sleep")
                elif node.module == "socket":
                    for alias in node.names:
                        if alias.name in (
                            "create_connection",
                            "socket",
                            "socketpair",
                        ):
                            functions.add(alias.asname or alias.name)
        return time_modules, socket_modules, functions

    def _flag_call(
        self,
        ctx: FileContext,
        node: ast.Call,
        time_modules: Set[str],
        socket_modules: Set[str],
        functions: Set[str],
    ) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                yield self.finding(
                    ctx,
                    node,
                    "open() blocks the event loop; read the file before "
                    "entering async code or use run_in_executor",
                )
            elif func.id in functions:
                yield self.finding(
                    ctx,
                    node,
                    f"{func.id}() is blocking inside async def; use the "
                    "asyncio equivalent or run_in_executor",
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        if isinstance(func.value, ast.Name):
            owner = func.value.id
            if owner in time_modules and func.attr == "sleep":
                yield self.finding(
                    ctx,
                    node,
                    "time.sleep() stalls the event loop; use "
                    "await asyncio.sleep()",
                )
                return
            if owner in socket_modules:
                yield self.finding(
                    ctx,
                    node,
                    f"socket.{func.attr}() is synchronous; use "
                    "asyncio.open_connection/start_server",
                )
                return
        if func.attr in _BLOCKING_SOCKET_METHODS:
            yield self.finding(
                ctx,
                node,
                f".{func.attr}() is a blocking socket call; use the "
                "asyncio stream API",
            )
        elif func.attr in _BLOCKING_PATH_METHODS:
            yield self.finding(
                ctx,
                node,
                f".{func.attr}() does synchronous file IO inside async "
                "def; move it off the loop (run_in_executor)",
            )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        time_modules, socket_modules, functions = self._aliases(ctx.tree)
        for scope in ast.walk(ctx.tree):
            if not isinstance(scope, ast.AsyncFunctionDef):
                continue
            for node in _walk_shallow(scope):
                if isinstance(node, ast.Call):
                    yield from self._flag_call(
                        ctx, node, time_modules, socket_modules, functions
                    )
