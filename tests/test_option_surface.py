"""The audited option surface of the serving, offline, training,
comparison and construction stacks, pinned exactly.

Every name below is set by a caller outside ``tests/``, is a deployment
setting, is the seam a test stages time or a fault through, or is a
training hyper-parameter number that selects no code path (DESIGN §5c
names the caller). Adding one is a reviewed edit of this table.
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

ROOT = Path(__file__).resolve().parents[1]

SURFACE = {
    Query: "text mode k nprobe precision deadline_s",
    ServiceConfig: "max_batch_size max_wait_ms max_pending cache_size default_k",
    ResultCache: "capacity",
    ServiceStats: "",
    FrontDoor: "supervisor host port",
    Supervisor: "spec workers health_interval_s watch_store on_change",
    Fleet: "spec workers host port watch_store health_interval_s",
    Fleet.client: "",
    WorkerSpec: "target kwargs store_dir multihop shards shard_mode service",
    IngestPipeline: "corpus construction workers incremental",
    extract_corpus_triples: "corpus linker config workers doc_ids",
    SingleRetriever: "encoder store precision",
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
    "construction_fingerprint generation",
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


#: the model configs whose every field must have a caller
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
#: fields kept without a keyword caller, each with its reason
NO_CALLER = {
    "MultiHopConfig.clue_weight": "benchmarks/e2e/oracle.py reads it to "
    "rebuild the hop-2 query, and a saved model records it in model.json",
}


def _keywords_passed(roots, parameters=None):
    """{callee name: argument names} over every call in ``roots``' files.

    A call to a name in ``parameters`` also binds its positional arguments
    to that parameter list, in order.
    """
    parameters = parameters or {}
    passed = {}
    for root in roots:
        for path in sorted((ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                names = passed.setdefault(name, set())
                names.update(
                    keyword.arg for keyword in node.keywords if keyword.arg
                )
                for param, arg in zip(parameters.get(name, ()), node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    names.add(param)
    return passed


def test_every_model_config_field_has_a_caller():
    """DESIGN §5c's "every option has a caller", automated: a field only
    tests set is a configuration nobody runs — it becomes a constant."""
    passed = _keywords_passed(("src", "benchmarks", "examples"))
    orphans = [
        f"{config.__name__}.{name}"
        for config in MODEL_CONFIGS
        for name in _names(config)
        if name not in passed.get(config.__name__, ())
    ]
    assert sorted(orphans) == sorted(NO_CALLER)


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


def _orphans(stack):
    """``Owner.parameter`` of every parameter in ``stack`` that no call in
    ``src/``, ``benchmarks/`` or ``examples/`` passes, by keyword or by
    position. A class's constructor counts the calls of every audited
    class that shares it."""
    parameters = {target.__name__: _names(target) for target in stack}
    passed = _keywords_passed(("src", "benchmarks", "examples"), parameters)

    def callers(target):
        if not inspect.isclass(target):
            return [target.__name__]
        return [
            other.__name__
            for other in stack
            if inspect.isclass(other) and other.__init__ is target.__init__
        ]

    return [
        f"{target.__qualname__}.{name}"
        for target in stack
        for name in _names(target)
        if not any(name in passed.get(caller, ()) for caller in callers(target))
    ]


def test_every_comparison_stack_parameter_has_a_caller():
    """The same rule for the baselines and the BM25 index, with an empty
    allow-list (``eval.harness`` builds TPRR and MDR through
    ``DenseRetriever.__init__``, and passes ``DenseConfig`` positionally)."""
    assert _orphans(COMPARISON_STACK) == []


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
    """The same rule, with an empty allow-list, for the path from raw text
    to the triple store: coreference, the two OIE tools' one document
    pass, Algorithm 1 and its HAC baseline, and the vocabulary."""
    assert _orphans(CONSTRUCTION_STACK) == []
