"""Parallel, incremental corpus ingestion with persistent embeddings."""

from repro.ingest.embedding_store import (
    EMBEDDINGS_DIR,
    STORE_NAME,
    STORE_VERSION,
    EmbeddingStore,
    EmbeddingStoreError,
    store_generation,
)
from repro.ingest.fingerprint import (
    config_fingerprint,
    construction_fingerprint,
    document_fingerprint,
    encoder_fingerprint,
    triples_fingerprint,
)
from repro.ingest.pipeline import (
    IngestPipeline,
    IngestResult,
    IngestStats,
    extract_corpus_triples,
)

__all__ = [
    "EMBEDDINGS_DIR",
    "EmbeddingStore",
    "EmbeddingStoreError",
    "IngestPipeline",
    "IngestResult",
    "IngestStats",
    "STORE_NAME",
    "STORE_VERSION",
    "config_fingerprint",
    "construction_fingerprint",
    "document_fingerprint",
    "encoder_fingerprint",
    "extract_corpus_triples",
    "store_generation",
    "triples_fingerprint",
]
