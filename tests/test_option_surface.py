"""The audited option surface of the serving/offline stack, pinned exactly.

Every name below is set by a caller outside ``tests/``, is a deployment
setting, or is the seam a test stages time or a fault through (DESIGN
§5c names the caller). Adding one is a reviewed edit of this table.
"""

import dataclasses
import inspect

import pytest

from repro.ingest import EmbeddingStore, IngestPipeline, extract_corpus_triples
from repro.net import Fleet, FrontDoor, Supervisor, WorkerSpec
from repro.retriever.single import SingleRetriever
from repro.serve import Query, ResultCache, ServiceConfig, ServiceStats

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
    SingleRetriever.refresh_embeddings: "",
    EmbeddingStore: "matrix doc_ids offsets row_hashes encoder_fingerprint "
    "construction_fingerprint generation",
}


def _names(target):
    if dataclasses.is_dataclass(target):
        return [f.name for f in dataclasses.fields(target) if f.init]
    parameters = list(inspect.signature(target).parameters)
    return parameters[1:] if parameters[:1] == ["self"] else parameters


@pytest.mark.parametrize("target", SURFACE, ids=lambda t: t.__qualname__)
def test_option_surface_is_exactly_the_audited_one(target):
    assert _names(target) == SURFACE[target].split()
