"""Concurrent retrieval serving: micro-batching, caching, backpressure.

The production-facing layer over the vectorized retrievers::

    from repro.serve import RetrievalService, ServiceConfig

    with RetrievalService(retriever, multihop=multihop) as service:
        docs = service.retrieve("who founded Millwall ?", k=5)
        paths = service.retrieve_paths("where was the founder born ?")
        print(service.stats_snapshot())

``repro serve`` puts this service behind a TCP front door
(:mod:`repro.net`); ``benchmarks/e2e/run.py`` is the one load generator
that measures it (``serve.*`` metrics on ``search_large`` and
``paths_inproc``).
"""

from repro.serve.batching import BatchQueue, PendingRequest
from repro.serve.cache import MISS, CacheStats, ResultCache, query_cache_key
from repro.serve.errors import (
    DeadlineExceeded,
    Overloaded,
    ServeError,
    ServiceStopped,
)
from repro.serve.service import MODES, RetrievalService, ServiceConfig
from repro.serve.stats import ServiceStats, merge_snapshots

__all__ = [
    "BatchQueue",
    "CacheStats",
    "DeadlineExceeded",
    "MISS",
    "MODES",
    "Overloaded",
    "PendingRequest",
    "ResultCache",
    "RetrievalService",
    "ServeError",
    "ServiceConfig",
    "ServiceStats",
    "ServiceStopped",
    "merge_snapshots",
    "query_cache_key",
]
