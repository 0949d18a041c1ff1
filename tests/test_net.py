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
  it and every request still returns byte-identical results;
* the front door relays a worker's reply bytes untouched, which rests on
  a worker answering a connection in submission order and on error
  replies being recognisable by their first key — both pinned here.

Worlds are deliberately tiny (24 docs, dim 32) — this file runs in
tier-1.
"""

import dataclasses
import json
import logging
import multiprocessing
import os
import socket
import threading
import time
from collections import Counter

import pytest
from reference import unreadable_triple_files

from repro.ingest import EMBEDDINGS_DIR, STORE_NAME
from repro.ingest.embedding_store import EmbeddingStore, store_generation
from repro.net import (
    DyadicEncoder,
    Fleet,
    FrontDoor,
    NetClient,
    NetRequestError,
    SupervisorError,
    WorkerHandle,
    WorkerSpec,
    canonical_json,
    publish_store,
    results_to_wire,
    synthetic_bundle,
    wire_to_results,
)
from repro.net.blas import blas_threads, retire_blas_pool
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_body,
    encode_frame,
    is_error_body,
    recv_frame,
    send_frame,
)
from repro.net.worker import WorkerRuntime
from repro.oie.triple import Triple
from repro.retriever.store import TripleStore, TripleStoreError
from repro.serve import Query, RetrievalService, ServiceConfig, merge_snapshots

pytestmark = pytest.mark.net

# one deterministic bundle recipe shared by the test process and every
# worker process — identical kwargs produce bit-identical bundles
BUNDLE_KWARGS = dict(seed=11, n_docs=24, encoder="dyadic")


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
            for mode in ("single", "paths"):
                results = service.submit(question, k=k, mode=mode).result()
                expected[(mode, question)] = canonical_json(
                    results_to_wire(mode, results)
                )
        return expected
    finally:
        service.stop(drain=True)


def _alternate(bundle):
    """``bundle`` over a second triple-store generation of its corpus."""
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
    return dataclasses.replace(bundle, store=store)


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
    docs = retriever.retrieve_many([bundle.questions[0]], k=3)[0]
    assert docs
    wire = results_to_wire("single", docs)
    assert wire_to_results("single", wire) == list(docs)
    multihop = bundle.make_multihop(retriever)
    paths = multihop.retrieve_paths_batch([bundle.questions[0]], k_paths=2)[0]
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
    alt = _alternate(bundle)
    triples_already_new = []
    save_embeddings = EmbeddingStore.save

    def checked_save(self, directory):
        on_disk = TripleStore.load(out / STORE_NAME, bundle.corpus)
        triples_already_new.append(on_disk.triples(0) == alt.store.triples(0))
        return save_embeddings(self, directory)

    monkeypatch.setattr(EmbeddingStore, "save", checked_save)
    assert publish_store(alt, out) == 2
    assert triples_already_new == [True]


def test_an_empty_store_is_a_store_not_a_missing_one(tmp_path):
    """A store that holds no document is falsy (``len`` 0), yet it is the
    store asked for: the retriever holds it, and its publish is a
    generation of 0 documents, not of the bundle's own triples."""
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    empty = TripleStore(bundle.corpus)
    assert bundle.make_retriever(empty).store is empty
    out = tmp_path / "store"
    assert publish_store(dataclasses.replace(bundle, store=empty), out) == 1
    assert len(TripleStore.load(out / STORE_NAME, bundle.corpus)) == 0


def test_unreadable_triple_file_stops_a_start_and_refuses_a_reload(tmp_path):
    """No body ``TripleStore.load`` refuses ever reaches a service: a worker
    does not start on it, and a running one keeps its generation."""
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    good, bad = tmp_path / "good", tmp_path / "bad"
    publish_store(bundle, good)
    publish_store(bundle, bad)
    publish_store(bundle, bad)  # generation 2: a reload would show
    bodies = unreadable_triple_files((bad / STORE_NAME).read_bytes())
    question = bundle.questions[0]
    runtime = WorkerRuntime(bundle, _spec(good))
    try:
        for name, body in bodies.items():
            (bad / STORE_NAME).write_bytes(body)
            with pytest.raises(TripleStoreError):
                WorkerRuntime(bundle, _spec(bad))
            reply = runtime._handle(
                {"op": "reload", "id": name, "store_dir": str(bad)}
            )()
            assert not reply["ok"] and "TripleStoreError" in str(reply), name
            assert runtime.generation == 1
            answer = runtime._handle(
                {"op": "query", "id": name, "question": question, "k": 3}
            )()
            assert answer["ok"] and answer["generation"] == 1, name
    finally:
        runtime.close()


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
                "windows_held": 0,
                "batch_size_histogram": {"1": 2},
                "latency_ms": {"p50": 1.0, "p99": 4.0},
                "qps": 10.0,
            },
            {
                "submitted": 5,
                "completed": 5,
                "batches": 2,
                "batched_requests": 4,
                "windows_held": 2,
                "batch_size_histogram": {"1": 0, "2": 2},
                "latency_ms": {"p50": 2.0, "p99": 3.0},
                "qps": 4.0,
            },
        ]
    )
    assert merged["submitted"] == 8
    assert merged["completed"] == 7
    assert merged["workers"] == 2
    assert merged["windows_held"] == 2
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
            assert client.request({"op": "ping"})["ok"]
            for question in questions:
                for mode in ("single", "paths"):
                    response = client.query_raw(Query(question, mode, k=3))
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
                        Query(question, mode, k=self.k)
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
    alt = _alternate(bundle)
    with Fleet(_spec(store_dir), workers=2) as fleet:
        with _Stream(fleet, questions) as stream:
            time.sleep(0.1)  # stream is flowing on generation 1
            assert publish_store(alt, store_dir) == 2
            with fleet.client() as client:
                reload_response = client.reload()
            assert reload_response["generations"] == [2, 2]
            time.sleep(0.1)  # stream keeps flowing on generation 2
        with fleet.client() as client:
            final = client.query_raw(Query(questions[0], k=3))
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
        assert publish_store(_alternate(bundle), store_dir) == 2
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
                answers.append(client.query_raw(Query(question, k=3)))
    assert len(answers) == 2
    expected = _expected_wire(bundle, store_dir, [question])
    for answer in answers:
        # new rows scored against new triples, never against old ones
        assert answer["generation"] == 2
        assert (
            canonical_json(answer["results"])
            == expected[("single", question)]
        )


def test_rejected_publish_costs_no_worker_and_no_health_thread(tmp_path):
    """Workers that *answer* a reload with a rejection keep serving; the
    watcher survives it, offers it once, and rolls the next good publish."""
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    question = bundle.questions[0]
    expected = _expected_wire(bundle, store_dir, [question])["single", question]
    foreign = dataclasses.replace(bundle, encoder=DyadicEncoder(dim=16))
    with Fleet(
        _spec(store_dir), workers=2, watch_store=True,
        health_interval_s=0.05,
    ) as fleet:
        supervisor = fleet.supervisor
        pids = [handle.pid for handle in supervisor.handles()]
        assert publish_store(foreign, store_dir) == 2  # dim 16 != 32
        with pytest.raises(SupervisorError) as refusal:
            fleet.rollout()
        assert [handle.pid for handle in supervisor.handles()] == pids
        assert "slot(s) [0, 1]" in str(refusal.value)
        time.sleep(0.15)  # three ticks of the watcher reading generation 2
        assert supervisor._health_thread.is_alive()
        assert (supervisor.restarts, supervisor.rollouts) == (0, 0)
        for handle in supervisor.handles():
            with NetClient(handle.address) as client:
                answer = client.query_raw(Query(question, k=3))
            assert answer["generation"] == 1
            assert canonical_json(answer["results"]) == expected
        assert publish_store(bundle, store_dir) == 3
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and supervisor.rollouts == 0:
            time.sleep(0.02)
        handles = supervisor.handles()
    assert [(h.pid, h.generation) for h in handles] == [(p, 3) for p in pids]
    assert supervisor.restarts == 0


def test_worker_spec_is_checked_where_it_is_built(tmp_path):
    """In the parent, before ``Fleet.start()`` has spawned anything."""
    with pytest.raises(TypeError, match="max_wait"):
        _spec(tmp_path, service={"max_wait": 1.0})  # misspelt max_wait_ms
    with pytest.raises(ValueError, match="shard mode"):
        _spec(tmp_path, shard_mode="hash")
    with pytest.raises(ValueError, match="shards"):
        _spec(tmp_path, shards=-1)


# -- what the byte relay rests on -------------------------------------------


def _read_body(sock) -> bytes:
    """One frame's body exactly as it came off the wire."""
    def exactly(n: int) -> bytes:
        data = b""
        while len(data) < n:
            chunk = sock.recv(n - len(data))
            assert chunk, "connection closed mid-frame"
            data += chunk
        return data

    return exactly(int.from_bytes(exactly(4), "big"))


def _raw_reply(address, payload) -> bytes:
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(encode_frame(payload))
        return _read_body(sock)


def test_error_replies_are_the_ones_that_start_with_the_error_key(tmp_path):
    """``is_error_body`` agrees with ``ok`` on every reply a worker makes."""
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    question = bundle.questions[0]
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / STORE_NAME).write_text("{")
    runtime = WorkerRuntime(bundle, _spec(store_dir))
    frames = [
        {"op": "query", "id": 1, "question": question, "k": 3},
        {"op": "query", "id": "p", "question": question, "mode": "paths"},
        {"op": "query", "id": 2, "question": question, "precision": "bogus"},
        {"op": "query", "id": 3, "question": question, "k": "many"},
        {"op": "query", "id": 4, "question": question, "deadline_s": -1.0},
        {"op": "ping", "id": 5},
        {"op": "stats", "id": 6},
        {"op": "reload", "id": 7},
        {"op": "reload", "id": 8, "store_dir": str(broken)},
        {"op": "frobnicate", "id": 9},
        ["not", "an", "object"],
        {"op": "shutdown", "id": 10},
    ]
    try:
        replies = [runtime._handle(frame)() for frame in frames]
    finally:
        runtime.close()
    assert [reply["ok"] for reply in replies] == [
        True, True, False, False, False, True, True, True, False, False,
        False, True,
    ]
    for reply in replies:
        assert is_error_body(canonical_json(reply)) == (not reply["ok"])


def _pin_worker(runtime):
    """Hold ``runtime``'s batch worker inside its next single-hop batch
    until the returned ``release`` is set. A request submitted while it
    is held arrives crowded, so its own batch waits out the window."""
    retriever = runtime._service.retriever
    entered, release = threading.Event(), threading.Event()
    serve = retriever.retrieve_many

    def held(*args, **kwargs):
        entered.set()
        assert release.wait(30.0), "worker never released"
        return serve(*args, **kwargs)

    retriever.retrieve_many = held
    return entered, release


def test_worker_answers_a_connection_in_submission_order(tmp_path):
    """A cache hit waits behind an earlier request still in the batch
    window — the front door matches replies to requests by position."""
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    cached, fresh, lead = bundle.questions[:3]
    runtime = WorkerRuntime(
        bundle, _spec(store_dir, service={"max_wait_ms": 150.0})
    )
    ours, theirs = socket.socketpair()
    server = threading.Thread(
        target=runtime._serve_connection, args=(theirs,), daemon=True
    )
    server.start()
    try:
        ours.settimeout(30.0)
        send_frame(ours, {"op": "query", "id": "warm", "question": cached})
        assert recv_frame(ours)["id"] == "warm"
        entered, release = _pin_worker(runtime)
        send_frame(ours, {"op": "query", "id": "lead", "question": lead})
        assert entered.wait(30.0)
        # `lead`'s batch is out, so `fresh` arrives crowded and sits out
        # the 150 ms window; `cached` is settled at submit
        send_frame(ours, {"op": "query", "id": "slow", "question": fresh})
        send_frame(ours, {"op": "query", "id": "hit", "question": cached})
        send_frame(ours, {"op": "stats", "id": "stats"})
        release.set()
        assert recv_frame(ours)["id"] == "lead"
        order = [recv_frame(ours) for _ in range(3)]
    finally:
        ours.close()
        server.join(timeout=30.0)
        runtime.close()
    assert not server.is_alive()
    assert [reply["id"] for reply in order] == ["slow", "hit", "stats"]
    assert order[2]["stats"]["cache_hits"] == 1


def test_timeout_zero_means_do_not_wait(tmp_path):
    """An explicit ``timeout_s: 0`` is a zero wait, not the 300 s default."""
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    impatient, patient, lead = bundle.questions[:3]
    expected = _expected_wire(bundle, store_dir, [patient])
    runtime = WorkerRuntime(
        bundle, _spec(store_dir, service={"max_wait_ms": 150.0})
    )
    entered, release = _pin_worker(runtime)
    try:
        runtime._handle({"op": "query", "id": 0, "question": lead, "k": 3})
        assert entered.wait(30.0)
        # `lead`'s batch is out, so a first-time question arrives crowded
        # and sits out the 150 ms window: not done yet
        refused = runtime._handle(
            {"op": "query", "id": 1, "question": impatient, "k": 3,
             "timeout_s": 0}
        )()
        release.set()
        default = runtime._handle(
            {"op": "query", "id": 2, "question": patient, "k": 3}
        )()
    finally:
        release.set()
        runtime.close()
    assert refused["ok"] is False
    assert refused["error"]["type"] == "TimeoutError"
    assert default["ok"] is True
    assert canonical_json(default["results"]) == expected[("single", patient)]


def test_pipelined_frames_each_get_their_own_id_back(tmp_path):
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    questions = bundle.questions[:8]
    expected = _expected_wire(bundle, store_dir, questions)
    ids = [7, 7, "seven", "seven", None, None, 0, "", 1.5, "id with spaces"]
    frames = [
        (ids[i % len(ids)], questions[(i * 3) % len(questions)])
        for i in range(32)
    ]
    with Fleet(_spec(store_dir), workers=2) as fleet:
        with socket.create_connection(fleet.address, timeout=30.0) as sock:
            sock.sendall(
                b"".join(
                    encode_frame(
                        {"op": "query", "id": i, "question": q, "k": 3}
                    )
                    for i, q in frames
                )
            )
            replies = [decode_body(_read_body(sock)) for _ in frames]
    assert all(reply["ok"] for reply in replies)
    # an id (duplicates included) comes back on the results of the
    # question it was sent with, whichever worker and order answered
    assert Counter(
        (canonical_json(r["id"]), canonical_json(r["results"]))
        for r in replies
    ) == Counter(
        (canonical_json(i), expected[("single", q)]) for i, q in frames
    )


def test_front_door_relays_the_workers_bytes(tmp_path):
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    question = bundle.questions[0]
    requests = [
        {"op": "query", "id": "s", "question": question, "k": 3},
        {"op": "query", "id": 2, "question": question, "mode": "paths",
         "k": 3},
        {"op": "query", "id": None, "question": question,
         "precision": "bogus"},
    ]
    with Fleet(_spec(store_dir), workers=1) as fleet:
        worker = fleet.supervisor.handles()[0].address
        direct = [_raw_reply(worker, request) for request in requests]
        relayed = [_raw_reply(fleet.address, request) for request in requests]
        front = fleet.frontdoor.stats_snapshot()
    assert relayed == direct
    assert [is_error_body(body) for body in relayed] == [False, False, True]
    assert decode_body(relayed[2])["error"]["type"] == "PrecisionError"
    assert (front["submitted"], front["completed"], front["failed"]) == (
        3, 2, 1,
    )


def test_a_link_lost_to_a_live_worker_is_opened_again(tmp_path):
    """A worker whose connection dropped while its process lives is
    linked again at once — not at the next respawn or rollout, which a
    long health interval puts out of reach here — and serves."""
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    questions = bundle.questions
    with Fleet(
        _spec(store_dir), workers=2, health_interval_s=3600.0
    ) as fleet:
        frontdoor = fleet.frontdoor
        pids = sorted(handle.pid for handle in fleet.supervisor.handles())
        deadline = time.monotonic() + 30.0
        while (
            frontdoor.stats_snapshot()["workers_linked"] < 2
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        with fleet.client() as client:
            before = {
                w["pid"]: w["stats"]["submitted"]
                for w in client.stats()["workers"]
            }
        lost = next(iter(frontdoor._links.values()))
        frontdoor._loop.call_soon_threadsafe(lost._writer.transport.close)
        deadline = time.monotonic() + 30.0
        while (
            frontdoor._links.get(lost.key) in (None, lost)
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert frontdoor.stats_snapshot()["workers_linked"] == 2
        assert frontdoor._links[lost.key] is not lost
        # pipelined, so least-pending routing spreads them over both links
        with socket.create_connection(fleet.address, timeout=30.0) as sock:
            sock.sendall(
                b"".join(
                    encode_frame({
                        "op": "query", "id": i, "k": 3,
                        "question": questions[i % len(questions)],
                    })
                    for i in range(32)
                )
            )
            replies = [decode_body(_read_body(sock)) for _ in range(32)]
        with fleet.client() as client:
            after = {
                w["pid"]: w["stats"]["submitted"]
                for w in client.stats()["workers"]
            }
        assert fleet.supervisor.restarts == 0
        assert sorted(h.pid for h in fleet.supervisor.handles()) == pids
    assert all(reply["ok"] for reply in replies)
    assert sorted(before) == sorted(after) == pids
    assert all(after[pid] > before[pid] for pid in pids)


class _StaticSupervisor:
    """What a front door needs of a supervisor, over fixed handles."""

    def __init__(self, handles=()):
        self._handles = list(handles)
        self.on_change = None

    def handles(self):
        return list(self._handles)


def test_unsolicited_reply_closes_the_link(tmp_path):
    """A worker that answers more than it was asked has lost the FIFO's
    count: the link goes, and requests fail typed instead of hanging."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answers_twice():
        conn, _ = listener.accept()
        with conn:
            request = recv_frame(conn)
            reply = encode_frame({"id": request["id"], "ok": True})
            conn.sendall(reply + reply)
            recv_frame(conn)  # until the front door hangs up

    worker = threading.Thread(target=answers_twice, daemon=True)
    worker.start()
    handle = WorkerHandle(
        slot=0, incarnation=1, process=None,
        port=listener.getsockname()[1], generation=1, pid=0,
    )
    try:
        with FrontDoor(_StaticSupervisor([handle])) as frontdoor:
            with NetClient(frontdoor.address) as client:
                assert client.request({"op": "query", "question": "q"})["ok"]
                deadline = time.monotonic() + 30.0
                while (
                    frontdoor.stats_snapshot()["workers_linked"]
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert frontdoor.stats_snapshot()["workers_linked"] == 0
                with pytest.raises(NetRequestError) as failure:
                    client.retrieve("q", deadline_s=0.1)
                assert failure.value.kind == "DeadlineExceeded"
        worker.join(timeout=30.0)
        assert not worker.is_alive()
    finally:
        listener.close()


def test_stats_request_on_a_lost_link_is_not_asked_elsewhere():
    """A ``stats`` request outstanding on a link that dies asked about
    that one worker: it is not re-dispatched, so the survivor is listed
    and counted once, and nothing counts as retried."""
    snapshot = {"submitted": 5, "completed": 5, "batches": 2,
                "batched_requests": 5}
    hangs_up, survivor = [
        socket.create_server(("127.0.0.1", 0)) for _ in range(2)
    ]

    def read_one_frame_and_hang_up():
        conn, _ = hangs_up.accept()
        with conn:
            recv_frame(conn)

    def answer_every_frame():
        conn, _ = survivor.accept()
        with conn:
            while (request := recv_frame(conn)) is not None:
                send_frame(conn, {"id": request.get("id"), "ok": True,
                                  "pid": 4242, "stats": snapshot})

    workers = [
        threading.Thread(target=target, daemon=True)
        for target in (read_one_frame_and_hang_up, answer_every_frame)
    ]
    for worker in workers:
        worker.start()
    handles = [
        WorkerHandle(slot=slot, incarnation=1, process=None,
                     port=listener.getsockname()[1], generation=1, pid=slot)
        for slot, listener in enumerate((hangs_up, survivor))
    ]
    try:
        with FrontDoor(_StaticSupervisor(handles)) as frontdoor:
            deadline = time.monotonic() + 30.0
            while (
                frontdoor.stats_snapshot()["workers_linked"] < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            with NetClient(frontdoor.address) as client:
                reply = client.stats()
            retried = frontdoor.stats_snapshot()["retried"]
        for worker in workers:
            worker.join(timeout=30.0)
            assert not worker.is_alive()
    finally:
        hangs_up.close()
        survivor.close()
    assert [(w["slot"], w["pid"]) for w in reply["workers"]] == [(1, 4242)]
    assert reply["aggregate"] == merge_snapshots([snapshot])
    assert retried == 0


# -- lifecycle ---------------------------------------------------------------


def _second_process_fails(marker, how, **kwargs):
    """Bundle factory: the first process to get here builds, the next
    one raises (``how="raise"``) or dies outright (``how="exit"``)."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        if how == "exit":
            os._exit(3)
        raise RuntimeError("this one does not come up") from None
    return synthetic_bundle(**kwargs)


@pytest.mark.parametrize("how", ["raise", "exit"])
def test_failed_start_leaves_no_worker_behind(tmp_path, how):
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    spec = WorkerSpec(
        target=f"{__name__}:{_second_process_fails.__name__}",
        kwargs=dict(
            BUNDLE_KWARGS, marker=str(tmp_path / "first-one-in"), how=how
        ),
        store_dir=str(store_dir),
    )
    fleet = Fleet(spec, workers=2)
    with pytest.raises(SupervisorError):
        fleet.start()
    assert fleet.supervisor.handles() == []
    assert multiprocessing.active_children() == []


def test_stop_with_a_client_still_connected_logs_no_error(caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    frontdoor = FrontDoor(_StaticSupervisor()).start()
    with NetClient(frontdoor.address) as client:
        assert client.request({"op": "ping"})["ok"]
        frontdoor.stop()
    assert [r.getMessage() for r in caplog.records] == []


def test_blas_helper_is_a_silent_no_op_without_a_library(monkeypatch):
    import ctypes

    def refuse(path):
        raise OSError(f"cannot load {path}")

    before = blas_threads()
    monkeypatch.setattr(ctypes, "CDLL", refuse)
    assert blas_threads() is None
    retire_blas_pool()
    monkeypatch.undo()
    assert blas_threads() == before  # nothing was set on the way


def test_workers_run_one_blas_thread_and_the_parent_keeps_its_own(tmp_path):
    before = blas_threads()
    if before is None:
        pytest.skip("no controllable BLAS loaded in this process")
    bundle = synthetic_bundle(**BUNDLE_KWARGS)
    store_dir = tmp_path / "store"
    publish_store(bundle, store_dir)
    question = bundle.questions[0]
    with Fleet(
        _spec(store_dir), workers=1, health_interval_s=0.05
    ) as fleet:
        with fleet.client() as client:
            first = fleet.supervisor.handles()[0]
            assert client.retrieve(question, k=3)
            (worker,) = client.stats()["workers"]
            assert (worker["pid"], worker["blas_threads"]) == (first.pid, 1)
            with NetClient(first.address) as direct:
                assert direct.request({"op": "ping"})["blas_threads"] == 1
            first.process.kill()
            assert client.retrieve(question, k=3)  # waits out the respawn
            (worker,) = client.stats()["workers"]
            assert worker["pid"] != first.pid
            assert worker["blas_threads"] == 1
        assert blas_threads() == before
    assert blas_threads() == before
