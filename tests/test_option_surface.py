"""Every option has a caller: an audit derived from ``src/repro``.

An option is a defaulted parameter of a public callable in ``src/repro``
or a defaulted init field of a public dataclass. It exists only if a call
in ``src/``, ``benchmarks/`` or ``examples/`` passes it, or ``NO_CALLER``
gives the reason it is kept without one (DESIGN §5c). Calls in ``tests/``
do not count: an option only a test sets is a configuration nobody runs,
so it becomes a constant next to its use. ``SURFACE`` pins the reviewed
surface of the serving, offline, training, comparison and construction
stacks exactly; an entry only ever shrinks.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.baselines.dense_base import DenseConfig, DenseRetriever
from repro.baselines.hop_retriever import HopRetrieverBaseline
from repro.baselines.lexical import LexicalRetriever
from repro.baselines.mdr import MDRRetriever
from repro.baselines.path_retriever import PathRetrieverBaseline, PathRetrieverConfig
from repro.baselines.tprr import TPRRRetriever
from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.index.inverted import InvertedIndex
from repro.ingest import EmbeddingStore, IngestPipeline, extract_corpus_triples
from repro.net import Fleet, FrontDoor, Supervisor, WorkerSpec
from repro.nn.optim import train_epochs
from repro.nn.transformer import TransformerEncoder
from repro.oie.union import extract_document
from repro.pipeline.framework import FrameworkConfig, TripleFactRetrieval
from repro.pipeline.multihop import MultiHopConfig, MultiHopRetriever
from repro.pipeline.path_ranker import PathRankerConfig, PathRankerTrainer
from repro.retriever.negatives import mine_training_examples
from repro.retriever.single import SingleRetriever
from repro.retriever.store import build_triple_store
from repro.retriever.trainer import TrainerConfig
from repro.serve import Query, ResultCache, ServiceConfig, ServiceStats
from repro.text.coref import resolve_coreferences
from repro.text.tokenize import tokenize
from repro.text.vocab import Vocab
from repro.triples.canopy import build_canopies
from repro.triples.construct import ConstructionConfig, TripleSetConstructor
from repro.triples.hac import hac_construct
from repro.triples.relatedness import prune_noise
from repro.triples.sibling import fuse_siblings
from repro.updater.updater import UpdaterConfig, UpdaterTrainer

pytestmark = pytest.mark.lint

ROOT = Path(__file__).resolve().parents[1]

SURFACE = {
    Query: "text mode k nprobe precision deadline_s",
    ServiceConfig: "max_batch_size max_wait_ms max_pending cache_size default_k",
    ResultCache: "capacity",
    ServiceStats: "",
    FrontDoor: "supervisor host port",
    Supervisor: "spec workers health_interval_s watch_store",
    Fleet: "spec workers host port watch_store health_interval_s",
    Fleet.client: "",
    WorkerSpec: "target kwargs store_dir multihop shards shard_mode service",
    IngestPipeline: "corpus workers incremental",
    extract_corpus_triples: "corpus linker config workers doc_ids",
    SingleRetriever: "encoder store",
    SingleRetriever.retrieve_many: "questions k nprobe precision",
    SingleRetriever.refresh_embeddings: "",
    MultiHopRetriever.retrieve_paths_batch: "questions k_paths nprobe precision",
    FrameworkConfig: "encoder retriever updater ranker multihop "
    "max_ranker_questions verbose",
    TripleFactRetrieval.load: "directory corpus",
    EncoderConfig: "dim n_layers n_heads max_len seed",
    MiniBertEncoder.load: "directory config",
    TransformerEncoder: "vocab_size dim n_layers n_heads max_len pad_id seed",
    ConstructionConfig: "threshold_size",
    TrainerConfig: "epochs lr",
    UpdaterConfig: "epochs",
    UpdaterTrainer: "updater",
    PathRankerConfig: "epochs",
    PathRankerTrainer: "ranker",
    DenseConfig: "epochs lr",
    PathRetrieverConfig: "epochs",
    train_epochs: "optimizer n_examples example_loss epochs rng name verbose",
    EmbeddingStore: "matrix doc_ids offsets row_hashes encoder_fingerprint "
    "generation",
    LexicalRetriever: "corpus store extra_fields",
    InvertedIndex: "",
    InvertedIndex.search: "query field k",
    mine_training_examples: "questions corpus store",
    DenseRetriever: "encoder corpus config",
    TPRRRetriever: "encoder corpus config",
    MDRRetriever: "encoder corpus config",
    HopRetrieverBaseline: "encoder corpus linker config",
    PathRetrieverBaseline: "encoder corpus config",
    TripleSetConstructor: "config linker",
    TripleSetConstructor.construct: "union_triples doc_entities",
    TripleSetConstructor.construct_from_text: "text title entity_kind doc_entities",
    build_canopies: "triples",
    fuse_siblings: "triples alpha",
    prune_noise: "triples doc_entities linker min_relatedness",
    hac_construct: "triples threshold_size",
    extract_document: "text title entity_kind",
    resolve_coreferences: "text title entity_kind",
    tokenize: "text",
    Vocab.from_texts: "texts tokenizer",
    Vocab.from_tokens: "tokens",
    build_triple_store: "corpus linker config",
}


def _names(target):
    if dataclasses.is_dataclass(target):
        return [f.name for f in dataclasses.fields(target) if f.init]
    parameters = list(inspect.signature(target).parameters)
    return parameters[1:] if parameters[:1] == ["self"] else parameters


@pytest.mark.parametrize("target", SURFACE, ids=lambda t: t.__qualname__)
def test_option_surface_is_exactly_the_audited_one(target):
    assert _names(target) == SURFACE[target].split()


#: options kept without a caller, each with its DESIGN §5c reason: a
#: deployment setting, the seam a test stages time, a fault or a fake
#: through, a field benchmarks/e2e reads, or a field a saved model records
NO_CALLER = {
    "Fleet.health_interval_s": "the seam a test stages time through: "
    "fast health ticks make a kill, a respawn or a watched publish show "
    "in milliseconds",
    "MultiHopConfig.clue_weight": "benchmarks/e2e/oracle.py reads it to "
    "rebuild the hop-2 query, and a saved model records it in model.json",
    "RetrievalService.clock": "the seam a test stages time through: a "
    "fake monotonic clock lapses a deadline without sleeping",
    "main.argv": "the seam a test stages a fake command line through; "
    "`python -m repro.cli` reads sys.argv",
}

#: the trees whose calls count as callers
CALLER_ROOTS = ("src", "benchmarks", "examples")
#: calls that fill a field in place (a record, not an option)
MUTATORS = {"append", "extend", "add", "update", "insert", "setdefault"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _parse(root):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


@dataclasses.dataclass
class _Target:
    """One public callable: the names its calls go by, its positional
    parameters in order and its defaulted ones."""

    qualname: str
    callers: set
    positional: list
    defaulted: list
    fields: bool = False


def _signature(qualname, func, method):
    args = func.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted = defaulted if args.defaults else []
    defaulted += [
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    decorators = {_name(d) for d in func.decorator_list}
    if method and "staticmethod" not in decorators:
        positional = positional[1:]
    return _Target(qualname, {qualname.split(".")[-1]}, positional, defaulted)


def _is_dataclass(node):
    return any(
        _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def _fields(node):
    """The init fields of a dataclass body, in order, and the defaulted."""
    positional, defaulted = [], []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign) or not isinstance(
            statement.target, ast.Name
        ):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        value = statement.value
        has_default = value is not None
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            options = {k.arg: k.value for k in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = "default" in options or "default_factory" in options
        positional.append(statement.target.id)
        if has_default:
            defaulted.append(statement.target.id)
    return positional, defaulted


def _targets(src):
    """Every public callable under ``src/repro``: module functions, class
    constructors (a dataclass's init fields, or ``__init__``, or the
    constructor a class inherits) and public methods."""
    targets, constructors, bases = [], {}, {}
    for path, tree in _parse(src / "repro"):
        if any(part.startswith("_") for part in path.with_suffix("").parts
               if part != "__init__"):
            continue
        for node in tree.body:
            if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                targets.append(_signature(node.name, node, method=False))
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, FUNCTIONS)
            }
            if "__init__" in methods:
                constructor = _signature(node.name, methods["__init__"], True)
                constructor.callers = {node.name}
            elif _is_dataclass(node):
                constructor = _Target(
                    node.name, {node.name}, *_fields(node), fields=True
                )
            else:
                constructor = None
                bases[node.name] = [_name(base) for base in node.bases]
            if constructor is not None:
                constructors[node.name] = constructor
                targets.append(constructor)
            for name, method in methods.items():
                if not name.startswith("_"):
                    targets.append(
                        _signature(f"{node.name}.{name}", method, method=True)
                    )
    # a class without a constructor of its own is called through its base's
    for name in bases:
        base = name
        while base in bases and bases[base]:
            base = bases[base][0]
        if base in constructors:
            constructors[base].callers.add(name)
    return targets


def _dicts(trees):
    """{name: [value]} of every value a dict could be known by: what is
    assigned to the name, or returned by a function of that name."""
    dicts = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    dicts.setdefault(_name(target), []).append(node.value)
            elif isinstance(node, ast.FunctionDef):
                dicts.setdefault(node.name, []).extend(
                    child.value
                    for child in ast.walk(node)
                    if isinstance(child, ast.Return) and child.value
                )
    return dicts


def _forwarded(value, dicts, seen=()):
    """The string keys a ``**value`` argument (or a ``kwargs=`` dict)
    carries: a dict display's keys (its own ``**`` entries followed), or
    those of every dict its name (or its function's) is known by."""
    if isinstance(value, ast.Dict):
        keys = set()
        for key, item in zip(value.keys, value.values):
            if key is None:
                keys |= _forwarded(item, dicts, seen)
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
        return keys
    name = _name(value.func if isinstance(value, ast.Call) else value)
    if name is None or name in seen:
        return set()
    keys = set()
    for known in dicts.get(name, ()):
        keys |= _forwarded(known, dicts, (*seen, name))
    return keys


def _target_functions(value, tree):
    """The functions a ``target="module:function"`` string names. A
    formatted target resolves ``{f.__name__}`` to whatever ``f`` is
    assigned in the file (or to ``f`` itself)."""
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return {value.value.rpartition(":")[2]}
    if not isinstance(value, ast.JoinedStr):
        return set()
    names = set()
    for part in value.values:
        if isinstance(part, ast.FormattedValue) and _name(part.value) == "__name__":
            variable = _name(part.value.value)
            assigned = {
                _name(node.value)
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(_name(t) == variable for t in node.targets)
            }
            names |= assigned or {variable}
    return names


class _Calls(ast.NodeVisitor):
    """Every call of one file: (callee name, positional count, keywords)."""

    def __init__(self, tree, dicts):
        self.dicts = dicts
        self.tree = tree
        self.classes = []
        self.calls = []

    def visit_ClassDef(self, node):
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def _callee(self, func):
        """The called name; ``cls`` inside a class is that class."""
        if self.classes and isinstance(func, ast.Name) and func.id == "cls":
            return self.classes[-1].name
        return _name(func)

    def visit_Call(self, node):
        positional = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                break
            positional += 1
        keywords = set()
        for keyword in node.keywords:
            if keyword.arg is None:
                keywords |= _forwarded(keyword.value, self.dicts)
            else:
                keywords.add(keyword.arg)
        self.calls.append((self._callee(node.func), positional, keywords))
        options = {k.arg: k.value for k in node.keywords if k.arg}
        if "target" in options and "kwargs" in options:
            forwarded = _forwarded(options["kwargs"], self.dicts)
            for function in _target_functions(options["target"], self.tree):
                self.calls.append((function, 0, forwarded))
        self.generic_visit(node)


def _keywords_passed(roots):
    """{callee name: [(positional count, keywords)]} over every call in
    ``roots``' files."""
    trees = [tree for root in roots for _, tree in _parse(root)]
    dicts = _dicts(trees)
    passed = {}
    for tree in trees:
        visitor = _Calls(tree, dicts)
        visitor.visit(tree)
        for name, positional, keywords in visitor.calls:
            passed.setdefault(name, []).append((positional, keywords))
    return passed


def _records(src):
    """(class, attribute) of every field ``src`` writes or fills after
    construction: a store, augmented store or mutating call on an
    attribute, except a constructor's own ``self.x = ...``. The object's
    class is known for ``self`` and for a name bound to ``Class(...)`` or
    ``cls(...)`` in the same function; otherwise it is ``None`` (any)."""
    written = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, FUNCTIONS):
                function(child, owner)
                visit(child, owner)
            else:
                visit(child, owner)

    def function(func, owner):
        bound = {"self": owner}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = _name(node.value.func) or ""
                callee = owner if callee == "cls" else callee
                if callee[:1].isupper():
                    for target in node.targets:
                        bound[_name(target)] = callee
        constructing = func.name in ("__init__", "__post_init__")

        def write(target):
            if isinstance(target, ast.Subscript):
                target = target.value
            if not isinstance(target, ast.Attribute):
                return
            obj = _name(target.value)
            if constructing and obj == "self":
                return
            written.add((bound.get(obj) if obj else None, target.attr))

        for node in ast.walk(func):
            stores = []
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                stores = getattr(node, "targets", None) or [node.target]
            for target in stores:
                for store in getattr(target, "elts", [target]):
                    write(store)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
            ):
                write(node.func.value)

    for _, tree in _parse(src):
        visit(tree, None)
    return written


def _orphans(root):
    """``Owner.parameter`` of every option under ``root/src/repro`` that no
    call in ``root``'s ``CALLER_ROOTS`` passes, by keyword, by position or
    through a forwarded dict. A dataclass field the code writes after
    construction is a record, not an option. Calls are matched by the
    name they call, so ``x.get(key, default)`` counts for every public
    ``get``: an option of a method named like a builtin's shares its
    callers."""
    src = root / "src"
    passed = _keywords_passed([root / r for r in CALLER_ROOTS])
    records = _records(src)
    orphans = []
    for target in _targets(src):
        for name in target.defaulted:
            if target.fields and {(target.qualname, name), (None, name)} & records:
                continue
            if not _is_passed(target, name, passed):
                orphans.append(f"{target.qualname}.{name}")
    return sorted(orphans)


def _is_passed(target, name, passed):
    """Whether a call of ``target`` passes ``name``, by keyword or by
    position (a keyword-only parameter has no position)."""
    index = (
        target.positional.index(name)
        if name in target.positional
        else float("inf")
    )
    return any(
        name in keywords or index < positional
        for caller in target.callers
        for positional, keywords in passed.get(caller, ())
    )


def _stack_orphans(stack):
    """``Owner.parameter`` of every parameter, defaulted or not, of the
    callables in ``stack`` that no call in ``CALLER_ROOTS`` passes. A class
    that inherits its constructor is audited through its base's."""
    qualnames = {target.__qualname__ for target in stack}
    targets = [
        t
        for t in _targets(ROOT / "src")
        if t.qualname in qualnames
        or ("." not in t.qualname and t.callers & qualnames)
    ]
    covered = set().union(*({t.qualname} | t.callers for t in targets))
    assert qualnames <= covered
    passed = _keywords_passed([ROOT / r for r in CALLER_ROOTS])
    return sorted(
        f"{target.qualname}.{name}"
        for target in targets
        for name in dict.fromkeys(target.positional + target.defaulted)
        if not _is_passed(target, name, passed)
    )


def test_every_option_has_a_caller():
    """DESIGN §5c's "every option has a caller", derived from the code."""
    assert _orphans(ROOT) == sorted(NO_CALLER)


#: the model configs: every field, defaulted or not, must have a caller
MODEL_CONFIGS = (
    TrainerConfig,
    UpdaterConfig,
    PathRankerConfig,
    DenseConfig,
    PathRetrieverConfig,
    FrameworkConfig,
    ConstructionConfig,
    EncoderConfig,
    MultiHopConfig,
)


def test_every_model_config_field_has_a_caller():
    """The same rule for every field of the model configs, required ones
    included; ``NO_CALLER`` holds the only exception."""
    owners = {config.__qualname__ for config in MODEL_CONFIGS}
    kept = [name for name in NO_CALLER if name.split(".")[0] in owners]
    assert _stack_orphans(MODEL_CONFIGS) == sorted(kept)


#: the comparison stack of Tables II–V: every parameter must have a caller
COMPARISON_STACK = (
    LexicalRetriever,
    InvertedIndex,
    InvertedIndex.search,
    mine_training_examples,
    DenseRetriever,
    TPRRRetriever,
    MDRRetriever,
    HopRetrieverBaseline,
    PathRetrieverBaseline,
)


def test_every_comparison_stack_parameter_has_a_caller():
    """The same rule, with an empty allow-list, for every parameter of the
    baselines and the BM25 index (``eval.harness`` builds TPRR and MDR
    through ``DenseRetriever.__init__``)."""
    assert _stack_orphans(COMPARISON_STACK) == []


#: the construction stack (text -> OIE -> Algorithm 1 -> triple store)
CONSTRUCTION_STACK = (
    TripleSetConstructor,
    TripleSetConstructor.construct,
    TripleSetConstructor.construct_from_text,
    build_canopies,
    fuse_siblings,
    prune_noise,
    hac_construct,
    extract_document,
    resolve_coreferences,
    tokenize,
    Vocab.from_texts,
    Vocab.from_tokens,
    build_triple_store,
)


def test_every_construction_stack_parameter_has_a_caller():
    """The same rule, with an empty allow-list, for every parameter on the
    path from raw text to the triple store."""
    assert _stack_orphans(CONSTRUCTION_STACK) == []


#: (case, src/repro/mod.py, caller file, its source, the options flagged):
#: each case fails when the walk loses the clause it names
WALK_CASES = [
    ("an uncalled option", "def f(a, b=1):\n    return a + b\n",
     "examples/use.py", "f(1)\n", ["f.b"]),
    ("a call in tests/ does not count", "def f(a, b=1):\n    return a + b\n",
     "tests/test_use.py", "f(1, b=2)\n", ["f.b"]),
    ("by keyword", "def f(a, b=1):\n    return a + b\n",
     "examples/use.py", "f(1, b=2)\n", []),
    ("by position", "def f(a, b=1):\n    return a + b\n",
     "examples/use.py", "f(1, 2)\n", []),
    ("a keyword-only option has no position",
     "def f(a, *, b=1):\n    return a + b\n",
     "examples/use.py", "f(1, 2)\n", ["f.b"]),
    ("a ** dict display", "def f(a, b=1):\n    return a + b\n",
     "examples/use.py", "f(1, **{'b': 2})\n", []),
    ("a ** name", "def f(a, b=1):\n    return a + b\n",
     "examples/use.py", "options = {'b': 2}\nf(1, **options)\n", []),
    ("a ** of what a function returns", "def f(a, b=1):\n    return a + b\n",
     "examples/use.py",
     "def options():\n    return {'b': 2}\n\n\nf(1, **options())\n", []),
    ("a ** inside a dict display", "def f(a, b=1):\n    return a + b\n",
     "examples/use.py", "BASE = {'b': 2}\nf(1, **{**BASE})\n", []),
    ("WorkerSpec(target=, kwargs=)", "def factory(seed=1):\n    return seed\n",
     "src/serve.py",
     "WorkerSpec(target='repro.mod:factory', kwargs={'seed': 2})\n", []),
    ("a formatted WorkerSpec target", "def factory(seed=1):\n    return seed\n",
     "src/serve.py",
     "chosen = factory\nWorkerSpec(\n"
     "    target=f'{chosen.__module__}:{chosen.__name__}',\n"
     "    kwargs={'seed': 2},\n)\n", []),
    ("an inherited constructor",
     "class Base:\n    def __init__(self, config=None):\n"
     "        self.config = config\n\n\nclass Sub(Base):\n    pass\n",
     "examples/use.py", "Sub(object())\n", []),
    ("cls(...) in a classmethod",
     "class Vocab:\n    def __init__(self, tokens=()):\n"
     "        self.tokens = list(tokens)\n\n    @classmethod\n"
     "    def of(cls, text):\n        return cls(text.split())\n",
     "examples/use.py", "Vocab.of('a b')\n", []),
    ("a record field stored after construction",
     "@dataclass\nclass Stats:\n    hits: int = 0\n\n\n"
     "def count(stats):\n    stats.hits += 1\n",
     "examples/use.py", "Stats()\n", []),
    ("a record field filled in place",
     "@dataclass\nclass Stats:\n    seen: list = field(default_factory=list)\n"
     "\n\ndef count(stats):\n    stats.seen.append(1)\n",
     "examples/use.py", "Stats()\n", []),
    ("a record field stored under a key",
     "@dataclass\nclass Stats:\n    by_kind: dict = field(default_factory=dict)\n"
     "\n\ndef count(stats):\n    stats.by_kind['a'] = 1\n",
     "examples/use.py", "Stats()\n", []),
    ("record fields stored as a tuple",
     "@dataclass\nclass Shard:\n    low: int = 0\n    high: int = 0\n\n\n"
     "def fill(shard):\n    shard.low, shard.high = 1, 2\n",
     "examples/use.py", "Shard()\n", []),
    ("a store while constructing is no record write",
     "@dataclass\nclass Config:\n    size: int = 1\n\n"
     "    def __post_init__(self):\n        self.size = max(self.size, 1)\n",
     "examples/use.py", "Config()\n", ["Config.size"]),
    ("another class's self is not the field's owner",
     "@dataclass\nclass Config:\n    size: int = 1\n\n\nclass Cache:\n"
     "    def resize(self):\n        self.size = 2\n",
     "examples/use.py", "Config()\n", ["Config.size"]),
    ("another class's instance is not the field's owner",
     "@dataclass\nclass Config:\n    size: int = 1\n\n\nclass Cache:\n"
     "    pass\n\n\ndef resized():\n    cache = Cache()\n"
     "    cache.size = 2\n    return cache\n",
     "examples/use.py", "Config()\n", ["Config.size"]),
]


@pytest.mark.parametrize(
    "module, caller, source, flagged",
    [case[1:] for case in WALK_CASES],
    ids=[case[0] for case in WALK_CASES],
)
def test_the_walk(tmp_path, module, caller, source, flagged):
    files = {
        "src/repro/mod.py": "from dataclasses import dataclass, field\n\n\n"
        + module,
        caller: source,
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert _orphans(tmp_path) == flagged
