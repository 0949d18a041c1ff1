"""End-to-end tests for the networked serving subsystem (``repro.net``).

The acceptance properties under test:

* a worker fleet answers byte-identically to the in-process
  :class:`~repro.serve.service.RetrievalService` on the same published
  store (the :class:`~repro.net.bootstrap.DyadicEncoder` makes scores
  exact dyadic rationals, so "identical" means identical *bytes*);
* a client stream spanning a hot store-generation swap sees zero
  dropped/errored requests and no response mixes generations — every
  response's bytes match the expected output of exactly the generation
  it is tagged with;
* killing a worker mid-traffic loses nothing: the supervisor restarts
  it and every request still returns byte-identical results.

Worlds are deliberately tiny (24 docs, dim 24) — this file runs in
tier-1.
"""

import json
import socket
import threading
import time

import pytest

from repro.ingest import EMBEDDINGS_DIR, STORE_NAME
from repro.ingest.embedding_store import EmbeddingStore, store_generation
from repro.net import (
    Fleet,
    NetClient,
    NetRequestError,
    WorkerSpec,
    canonical_json,
    publish_store,
    results_to_wire,
    synthetic_bundle,
    wire_to_results,
)
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.net.worker import WorkerRuntime
from repro.oie.triple import Triple
from repro.retriever.store import TripleStore
from repro.serve import RetrievalService, ServiceConfig, merge_snapshots

pytestmark = pytest.mark.net

# one deterministic bundle recipe shared by the test process and every
# worker process — identical kwargs produce bit-identical bundles
BUNDLE_KWARGS = dict(
    seed=11,
    n_docs=24,
    triples_per_doc=3,
    dim=24,
    encoder="dyadic",
    n_questions=12,
)


def _spec(store_dir, **overrides) -> WorkerSpec:
    return WorkerSpec(
        target="repro.net.bootstrap:synthetic_bundle",
        kwargs=dict(BUNDLE_KWARGS),
        store_dir=str(store_dir),
        **overrides,
    )


def _expected_wire(bundle, store_dir, questions, k=3):
    """Per-(mode, question) canonical bytes from an in-process service.

    Replicates the worker's build path (load published triples, memmap
    the published matrix) so the comparison pins the whole stack, not
    just the scorer.
    """
    triples = TripleStore.load(store_dir / STORE_NAME, bundle.corpus)
    embeddings = EmbeddingStore.open(store_dir / EMBEDDINGS_DIR, mmap=True)
    retriever = bundle.make_retriever(triples)
    assert retriever.attach_embeddings(embeddings) > 0
    service = RetrievalService(
        retriever,
        multihop=bundle.make_multihop(retriever),
        config=ServiceConfig(),
    )
    service.start()
    try:
        expected = {}
        for question in questions:
            expected[("single", question)] = canonical_json(
                results_to_wire("single", service.retrieve(question, k=k))
            )
            expected[("paths", question)] = canonical_json(
                results_to_wire(
                    "paths", service.retrieve_paths(question, k=k)
                )
            )
        return expected
    finally:
        service.stop(drain=True)


def _alternate_store(bundle) -> TripleStore:
    """A second triple-store generation over the same corpus."""
    store = TripleStore(bundle.corpus)
    for doc in bundle.corpus:
        store.put(
            doc.doc_id,
            [
                Triple(
                    subject=doc.title,
                    predicate="altpred",
                    object=f"altobj{doc.doc_id} alttail{doc.doc_id % 7}",
                )
            ],
        )
    return store


# -- protocol unit tests ---------------------------------------------------


def test_frame_round_trip_and_clean_eof():
    left, right = socket.socketpair()
    try:
        payload = {"op": "query", "question": "who ?", "k": 3, "id": 7}
        send_frame(left, payload)
        send_frame(left, ["second", {"nested": [1.5, None]}])
        assert recv_frame(right) == payload
        assert recv_frame(right) == ["second", {"nested": [1.5, None]}]
        left.close()
        assert recv_frame(right) is None  # clean EOF at a frame boundary
    finally:
        right.close()


def test_oversized_frame_rejected():
    left, right = socket.socketpair()
    try:
        # a forged header claiming an over-cap body must be rejected
        # before any allocation happens
        left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_canonical_json_is_key_order_invariant():
    a = canonical_json({"b": 1, "a": [2.5, {"y": 0, "x": 1}]})
    b = canonical_json({"a": [2.5, {"x": 1, "y": 0}], "b": 1})
    assert a == b


def test_result_codec_round_trips_dataclasses():
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    retriever = bundle.make_retriever()
    retriever.refresh_embeddings()
    docs = retriever.retrieve(bundle.questions[0], k=3)
    assert docs
    wire = results_to_wire("single", docs)
    assert wire_to_results("single", wire) == list(docs)
    multihop = bundle.make_multihop(retriever)
    paths = multihop.retrieve_paths(bundle.questions[0], k_paths=2)
    round_tripped = wire_to_results(
        "paths", results_to_wire("paths", paths)
    )
    assert round_tripped == list(paths)


# -- store generations -----------------------------------------------------


def test_publish_store_bumps_generation(tmp_path):
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    out = tmp_path / "store"
    assert store_generation(out) is None  # nothing published yet
    assert publish_store(bundle, out) == 1
    assert store_generation(out) == 1
    # identical content republished is still a new publish event
    assert publish_store(bundle, out) == 2
    assert store_generation(out) == 2


def test_publish_store_writes_the_embeddings_manifest_last(
    tmp_path, monkeypatch
):
    """Whoever reads the new generation finds its triples in store.json."""
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    out = tmp_path / "store"
    publish_store(bundle, out)
    alt = _alternate_store(bundle)
    triples_already_new = []
    save_embeddings = EmbeddingStore.save

    def checked_save(self, directory):
        on_disk = TripleStore.load(out / STORE_NAME, bundle.corpus)
        triples_already_new.append(on_disk.triples(0) == alt.triples(0))
        return save_embeddings(self, directory)

    monkeypatch.setattr(EmbeddingStore, "save", checked_save)
    assert publish_store(bundle, out, store=alt) == 2
    assert triples_already_new == [True]


def test_poll_and_worker_agree_when_both_manifests_exist(tmp_path):
    """The supervisor's poll and a worker's attach resolve one store.

    With a stray bare-store manifest next to the published
    ``embeddings/`` one, the poll used to read the bare generation while
    workers attached the nested store — a publish never rolled out.
    """
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    out = tmp_path / "store"
    publish_store(bundle, out)
    assert publish_store(bundle, out) == 2  # nested (ingest layout): gen 2
    EmbeddingStore.open(out / EMBEDDINGS_DIR, mmap=False).save(out)
    assert store_generation(out / EMBEDDINGS_DIR) == 2
    assert json.loads((out / "manifest.json").read_text())["generation"] == 1
    runtime = WorkerRuntime(bundle, _spec(out))
    try:
        assert store_generation(out) == runtime.generation == 2
    finally:
        runtime.close()


def test_merge_snapshots_sums_counters():
    merged = merge_snapshots(
        [
            {
                "submitted": 3,
                "completed": 2,
                "batches": 2,
                "batched_requests": 2,
                "batch_size_histogram": {"1": 2},
                "latency_ms": {"p50": 1.0, "p99": 4.0},
                "qps": 10.0,
            },
            {
                "submitted": 5,
                "completed": 5,
                "batches": 2,
                "batched_requests": 4,
                "batch_size_histogram": {"1": 0, "2": 2},
                "latency_ms": {"p50": 2.0, "p99": 3.0},
                "qps": 4.0,
            },
        ]
    )
    assert merged["submitted"] == 8
    assert merged["completed"] == 7
    assert merged["workers"] == 2
    assert merged["batch_size_histogram"] == {1: 2, 2: 2}
    # percentiles cannot be merged exactly: element-wise max is the
    # conservative fleet-wide bound
    assert merged["latency_ms"] == {"p50": 2.0, "p99": 4.0}
    assert merged["qps"] == 14.0


# -- fleet end-to-end ------------------------------------------------------


def test_fleet_matches_in_process_service_byte_for_byte(tmp_path):
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    questions = bundle.questions[:6]
    expected = _expected_wire(bundle, store_dir, questions)
    with Fleet(_spec(store_dir), workers=2) as fleet:
        with fleet.client() as client:
            assert client.ping()["ok"]
            for question in questions:
                for mode in ("single", "paths"):
                    response = client.query_raw(question, mode=mode, k=3)
                    assert response["generation"] == 1
                    assert (
                        canonical_json(response["results"])
                        == expected[(mode, question)]
                    )


def test_fleet_stats_aggregate_across_workers(tmp_path):
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    with Fleet(_spec(store_dir), workers=2) as fleet:
        with fleet.client() as client:
            for question in bundle.questions[:4]:
                client.retrieve(question, k=3)
            stats = client.stats()
    assert stats["ok"]
    workers = stats["workers"]
    assert len(workers) == 2
    assert {w["generation"] for w in workers} == {1}
    for worker in workers:
        assert "pending" in worker
        assert "latency_ms" in worker["stats"]
    aggregate = stats["aggregate"]
    assert aggregate["workers"] == 2
    assert aggregate["submitted"] == sum(
        w["stats"]["submitted"] for w in workers
    )
    assert aggregate["submitted"] >= 4
    front = stats["frontdoor"]
    assert front["completed"] >= 4
    assert front["failed"] == 0
    assert {"p50", "p95", "p99"} <= set(front["latency_ms"])


class _Stream:
    """Background client threads hammering the fleet until stopped."""

    def __init__(self, fleet, questions, k=3, threads=3, pause_s=0.002):
        self.fleet = fleet
        self.questions = questions
        self.k = k
        self.pause_s = pause_s
        self.stop_event = threading.Event()
        self.lock = threading.Lock()
        self.responses = []  # (mode, question, generation, bytes)
        self.errors = []
        self.threads = [
            threading.Thread(target=self._run, args=(i,), daemon=True)
            for i in range(threads)
        ]

    def _run(self, offset):
        with self.fleet.client() as client:
            i = offset
            while not self.stop_event.is_set():
                question = self.questions[i % len(self.questions)]
                mode = "paths" if i % 4 == 3 else "single"
                try:
                    response = client.query_raw(
                        question, mode=mode, k=self.k
                    )
                    record = (
                        mode,
                        question,
                        response["generation"],
                        canonical_json(response["results"]),
                    )
                    with self.lock:
                        self.responses.append(record)
                except Exception as error:  # noqa: BLE001 - recorded
                    with self.lock:
                        self.errors.append(repr(error))
                i += 1
                time.sleep(self.pause_s)

    def __enter__(self):
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop_event.set()
        for thread in self.threads:
            thread.join(timeout=30.0)


def test_hot_swap_mid_traffic_drops_nothing_and_never_mixes(tmp_path):
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    questions = bundle.questions[:8]
    expected_gen1 = _expected_wire(bundle, store_dir, questions)
    # generation 2: different triples over the same corpus. Published
    # while generation-1 workers are memmap-attached — the grace window
    # keeps the old data file alive under them.
    alt = _alternate_store(bundle)
    with Fleet(_spec(store_dir), workers=2) as fleet:
        with _Stream(fleet, questions) as stream:
            time.sleep(0.1)  # stream is flowing on generation 1
            assert publish_store(bundle, store_dir, store=alt) == 2
            with fleet.client() as client:
                reload_response = client.reload()
            assert reload_response["generations"] == [2, 2]
            time.sleep(0.1)  # stream keeps flowing on generation 2
        with fleet.client() as client:
            final = client.query_raw(questions[0], mode="single", k=3)
    expected_gen2 = _expected_wire(bundle, store_dir, questions)
    assert not stream.errors  # zero dropped or errored requests
    assert len(stream.responses) > 20
    generations = {generation for _, _, generation, _ in stream.responses}
    assert generations <= {1, 2}
    assert 2 in generations  # the stream really spanned the swap
    expected = {1: expected_gen1, 2: expected_gen2}
    for mode, question, generation, payload in stream.responses:
        # byte-equality against exactly the tagged generation's output:
        # a response mixing generations could match neither
        assert payload == expected[generation][(mode, question)]
    # after the rollout the fleet answers wholly from generation 2
    assert final["generation"] == 2
    assert (
        canonical_json(final["results"])
        == expected_gen2[("single", questions[0])]
    )
    assert fleet.supervisor.rollouts == 1


def test_worker_kill_mid_traffic_recovers_byte_identically(tmp_path):
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    questions = bundle.questions[:8]
    expected = _expected_wire(bundle, store_dir, questions)
    with Fleet(
        _spec(store_dir), workers=2, health_interval_s=0.05
    ) as fleet:
        victim = fleet.supervisor.handles()[0]
        with _Stream(fleet, questions) as stream:
            time.sleep(0.05)  # let requests take flight first
            victim.process.kill()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if fleet.supervisor.restarts >= 1 and len(
                    fleet.supervisor.handles()
                ) == 2:
                    break
                time.sleep(0.02)
            time.sleep(0.15)  # keep streaming across the restart
        handles = fleet.supervisor.handles()
    assert fleet.supervisor.restarts >= 1
    assert len(handles) == 2
    assert victim.process.pid not in {h.pid for h in handles}
    assert not stream.errors  # every request completed, none dropped
    assert len(stream.responses) > 10
    for mode, question, generation, payload in stream.responses:
        assert generation == 1
        assert payload == expected[(mode, question)]


def test_front_door_wait_is_charged_to_the_request_deadline(tmp_path):
    """``deadline_s`` is one budget from arrival at the front door.

    With the only worker dead, a request waits in ``_dispatch`` for the
    respawn; that wait used to be handed back (the worker restarted the
    relative clock on arrival), so a 0.2 s request succeeded a whole
    health tick late.
    """
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    question = bundle.questions[0]
    health_interval_s = 1.0
    with Fleet(
        _spec(store_dir), workers=1, health_interval_s=health_interval_s
    ) as fleet:
        with fleet.client() as client:
            malformed = client.request(
                {"op": "query", "question": question, "deadline_s": "soon"}
            )
            assert malformed["error"]["type"] == "ValueError"
            # killed right after start(): the first health tick (and so
            # the respawn) is a full interval away, well past the budget
            fleet.supervisor.handles()[0].process.kill()
            started = time.monotonic()
            with pytest.raises(NetRequestError) as failure:
                client.retrieve(question, k=3, deadline_s=0.2)
            elapsed = time.monotonic() - started
            assert failure.value.kind == "DeadlineExceeded"
            assert elapsed < 0.2 + health_interval_s
            # the fleet itself recovers: no deadline, so this one waits
            # out the respawn and is answered
            assert client.retrieve(question, k=3)
        assert fleet.supervisor.restarts == 1


def test_watch_store_rolls_the_fleet_without_a_reload_op(tmp_path):
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    question = bundle.questions[0]
    with Fleet(
        _spec(store_dir), workers=2, watch_store=True,
        health_interval_s=0.05,
    ) as fleet:
        # changed content: the embeddings manifest is publish_store's last
        # write, so a poll that reads generation 2 from it finds
        # generation 2's triples already in store.json
        alt = _alternate_store(bundle)
        assert publish_store(bundle, store_dir, store=alt) == 2
        generations = []
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and generations != [2, 2]:
            time.sleep(0.02)
            with fleet.client() as client:
                generations = [
                    w["generation"] for w in client.stats()["workers"]
                ]
        assert generations == [2, 2]
        time.sleep(0.2)  # further polls see nothing newer: no second roll
        assert fleet.supervisor.rollouts == 1
        answers = []
        for handle in fleet.supervisor.handles():  # each worker, directly
            with NetClient(handle.address) as client:
                answers.append(client.query_raw(question, mode="single", k=3))
    assert len(answers) == 2
    expected = _expected_wire(bundle, store_dir, [question])
    for answer in answers:
        # new rows scored against new triples, never against old ones
        assert answer["generation"] == 2
        assert (
            canonical_json(answer["results"])
            == expected[("single", question)]
        )
