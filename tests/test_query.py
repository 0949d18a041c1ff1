"""``repro.serve.query.Query``: one request value, validated once.

Every malformed field is rejected with the same error type whether it
arrives through an in-process ``submit`` or as a wire frame a worker
decodes — and in-process before the request takes a queue slot.
"""

import math
import socket
import threading

import pytest

from repro.net import WorkerSpec, synthetic_bundle
from repro.net.protocol import recv_frame, send_frame
from repro.net.worker import WorkerRuntime
from repro.serve import Query, RetrievalService, ServiceConfig

BUNDLE_KWARGS = dict(
    seed=11, n_docs=24, triples_per_doc=3, dim=24, encoder="dyadic",
    n_questions=4,
)

#: (field overrides of a valid query, the error type both paths raise)
MALFORMED = [
    ({"k": 0}, "ValueError"),
    ({"k": -3}, "ValueError"),
    ({"k": True}, "TypeError"),
    ({"k": 2.9}, "TypeError"),
    ({"k": "many"}, "TypeError"),
    ({"nprobe": 0}, "ValueError"),
    ({"nprobe": -1}, "ValueError"),
    ({"nprobe": True}, "TypeError"),
    ({"deadline_s": math.nan}, "ValueError"),
    ({"deadline_s": math.inf}, "ValueError"),
    ({"deadline_s": -math.inf}, "ValueError"),
    ({"deadline_s": "soon"}, "ValueError"),
    ({"precision": "bogus"}, "PrecisionError"),
    ({"mode": "bogus"}, "ValueError"),
    ({"question": 123}, "TypeError"),
    ({"question": None}, "TypeError"),
]


@pytest.fixture(scope="module")
def bundle():
    return synthetic_bundle(**BUNDLE_KWARGS)


@pytest.fixture
def service(bundle):
    retriever = bundle.make_retriever()
    with RetrievalService(
        retriever, multihop=bundle.make_multihop(retriever)
    ) as service:
        yield service


@pytest.fixture(scope="module")
def ask_worker(bundle):
    """Send one query frame down a worker connection; return the reply."""
    runtime = WorkerRuntime(
        bundle,
        WorkerSpec(
            target="repro.net.bootstrap:synthetic_bundle",
            kwargs=dict(BUNDLE_KWARGS),
        ),
    )
    ours, theirs = socket.socketpair()
    ours.settimeout(30.0)
    server = threading.Thread(
        target=runtime._serve_connection, args=(theirs,), daemon=True
    )
    server.start()

    def ask(frame):
        send_frame(ours, {"op": "query", "id": 1, **frame})
        return recv_frame(ours)

    try:
        yield ask
    finally:
        ours.close()
        server.join(timeout=30.0)
        runtime.close()


@pytest.mark.parametrize(
    "fields, error", MALFORMED, ids=[repr(f) for f, _ in MALFORMED]
)
def test_a_malformed_field_is_the_same_typed_error_on_both_paths(
    bundle, service, ask_worker, fields, error
):
    frame = {"question": bundle.questions[0], **fields}
    keywords = dict(frame)
    with pytest.raises(Exception) as raised:
        service.submit(keywords.pop("question"), **keywords)
    assert type(raised.value).__name__ == error
    # rejected at the door: no queue slot used, nothing counted as failed
    snap = service.stats_snapshot()
    assert snap["submitted"] == snap["failed"] == 0

    reply = ask_worker(frame)
    assert reply["ok"] is False
    assert reply["error"]["type"] == error


def test_a_frame_without_a_question_is_a_typed_error(ask_worker):
    """It is not served as the empty question."""
    reply = ask_worker({"k": 3})
    assert reply["ok"] is False
    assert reply["error"]["type"] == "TypeError"


def test_wire_round_trip_keeps_field_names_and_types():
    query = Query(
        "Who  founded ?", "paths", 3, nprobe=2, precision="int8-rescore",
        deadline_s=1,
    )
    frame = query.to_wire()
    assert frame == {
        "op": "query",
        "question": "Who  founded ?",
        "mode": "paths",
        "k": 3,
        "nprobe": 2,
        "precision": "int8-rescore:64",
        "deadline_s": 1.0,
    }
    assert Query.from_wire(frame) == query
    assert Query.from_wire(frame).key() == query.key()
    # optional fields a frame omits stay None, and to_wire omits them
    bare = Query.from_wire({"question": "q ?"})
    assert (bare.mode, bare.k, bare.nprobe, bare.precision) == (
        "single", None, None, None,
    )
    assert bare.to_wire() == {"op": "query", "question": "q ?", "mode": "single"}


def test_precision_is_held_resolved():
    query = Query("q ?", precision="float32")
    assert query.precision.key() == "float32"
    assert query == Query("q ?", precision=query.precision)


def test_query_is_frozen():
    query = Query("q ?", k=3)
    with pytest.raises(AttributeError):
        query.k = 4


def test_submit_takes_a_query_and_the_default_k_shares_its_cache_entry(
    bundle, service
):
    question = bundle.questions[1]
    default_k = ServiceConfig().default_k
    first = service.submit(Query(question)).result(10)
    again = service.submit(question, k=default_k).result(10)
    assert len(first) == default_k
    assert again is first
    assert service.stats_snapshot()["cache_hits"] == 1
