"""Typed failures of the retrieval service.

Backpressure is explicit: an overloaded service rejects *now* with
:class:`Overloaded` instead of queueing into unbounded latency, and a
request that cannot make its deadline fails with
:class:`DeadlineExceeded` instead of returning stale-late results.
Clients can catch :class:`ServeError` to handle all of them uniformly.
"""

from __future__ import annotations


class ServeError(RuntimeError):
    """Base class for every service-side rejection or failure."""


class Overloaded(ServeError):
    """Admission control rejected the request: the pending queue is full.

    Raised synchronously by ``submit`` — the caller should
    back off and retry, shed the request, or raise its own 503.
    """


class DeadlineExceeded(ServeError):
    """The request's deadline passed before a worker could serve it."""


class ServiceStopped(ServeError):
    """The service is stopped (or stopping) and accepts no new work."""
