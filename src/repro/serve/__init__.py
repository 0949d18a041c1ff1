"""Concurrent retrieval serving: micro-batching, caching, backpressure.

The production-facing layer over the vectorized retrievers::

    from repro.serve import Query, RetrievalService

    with RetrievalService(retriever, multihop=multihop) as service:
        docs = service.submit("who founded Millwall ?", k=5).result()
        paths = service.submit(Query("who was born ?", "paths")).result()
        print(service.stats_snapshot())

A :class:`Query` is validated where it is built; its ``shape`` is the
batch key and its ``key()`` the cache key.

``repro serve`` puts this service behind a TCP front door
(:mod:`repro.net`); ``benchmarks/e2e/run.py`` is the one load generator
that measures it (``serve.*`` metrics on ``search_large`` and
``paths_inproc``).
"""

from repro.serve.batching import BatchQueue, PendingRequest
from repro.serve.cache import MISS, CacheStats, ResultCache
from repro.serve.errors import (
    DeadlineExceeded,
    Overloaded,
    ServeError,
    ServiceStopped,
)
from repro.serve.query import Query
from repro.serve.service import RetrievalService, ServiceConfig
from repro.serve.stats import ServiceStats, merge_snapshots

__all__ = [
    "BatchQueue",
    "CacheStats",
    "DeadlineExceeded",
    "MISS",
    "Overloaded",
    "PendingRequest",
    "Query",
    "ResultCache",
    "RetrievalService",
    "ServeError",
    "ServiceConfig",
    "ServiceStats",
    "ServiceStopped",
    "merge_snapshots",
]
