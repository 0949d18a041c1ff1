"""The four workloads: their worlds, set-up, timed phases and checks.

Each workload exists because it makes a different set of layers carry
the time (see ``README.md`` for the measured shares):

* ``ingest_refresh`` — the operator's write path: cold ingests and
  incremental refresh cycles; ``repro.oie``/``repro.triples`` extraction
  and row encoding dominate, and the refresh cycles show what the
  store/fingerprint layers cost per corpus rather than per change.
* ``serve_fleet`` — the network path: search and encode are tiny, so the
  JSON codec, front-door dispatch and worker batch size are the time.
* ``search_large`` — the scale path: ``ShardPlan.search`` /
  ``search_quantized``, segment aggregation and ranking are the time; the
  wire is bypassed; exact, pruned and quantised requests share a service.
* ``paths_inproc`` — the paper's multi-hop path: ``QuestionUpdater.
  select_clue`` and the encoder calls it issues are the time.

Only the plain (untraced) runs live here; they produce the end-to-end
metrics. ``layers.py`` produces the per-layer metrics of the traced run.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from loadgen import (
    CLIENTS,
    HOT_SIZE,
    ROUNDS,
    HostSpeed,
    InprocChannel,
    Kept,
    RoundStats,
    Traffic,
    Variant,
    WireChannel,
    at_quiet_speed,
    closed_loop,
    cpu_seconds,
    q_ms,
    round_stats,
)
from oracle import CheckReport, Oracle, same_results
from worlds import (
    World,
    WorldSpec,
    build_world,
    documents,
    make_bundle,
    mix_hot,
    rewrite_bodies,
    serving_bundle,
    touched_ids,
    unique_questions,
)

from repro.data.corpus import Corpus
from repro.index.entity_index import EntityIndex
from repro.ingest import (
    EMBEDDINGS_DIR,
    EmbeddingStore,
    STORE_NAME,
    IngestPipeline,
    extract_corpus_triples,
)
from repro.net import Fleet, ServingBundle, WorkerSpec, publish_store
from repro.pipeline.multihop import MultiHopConfig, MultiHopRetriever
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore
from repro.serve import RetrievalService, ServiceConfig

#: discarded traffic before the first timed phase (BLAS threads, caches,
#: the lazily baked inference session, worker-side JIT of nothing — just
#: everything that is slower the first time)
WARMUP_S = 1.5
#: share of ``--seconds`` the solo rounds take; the loaded rounds take the rest
SOLO_SHARE = 0.4
#: set-up is repeated at least this often, and cheap set-ups until they
#: add up to ``SETUP_BUDGET_S`` (at most ``SETUP_MAX_REPEATS`` times);
#: ``setup_s`` is the median of the repeats
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 12
SETUP_BUDGET_S = 4.0
#: cold ingests per ingest run (``throughput_ops_s`` is their median)
COLD_INGESTS = 3
N_SHARDS = 16
NPROBE = 8
#: share of documents one refresh cycle rewrites
REFRESH_SHARE = 0.01

SERVICE = {
    "max_batch_size": 16,
    "max_wait_ms": 2.0,
    "max_pending": 4096,
    "default_k": 10,
}


@dataclass(frozen=True)
class Workload:
    """One workload: world size, encoder shape, serving target, traffic."""

    name: str
    n_docs: int
    target: str  # "ingest", "fleet" or "inproc"
    traffic: Traffic = Traffic()
    dim: int = 32
    n_layers: int = 1
    n_heads: int = 2
    shards: int = 0
    cache_size: int = 0
    keep_first: int = 256  # replies per client always checked (recall set)
    keep_every: int = 16  # ... and every n-th one after them
    replay: int = 256  # requests replayed span by span in the traced run
    #: upper bound on ops/s per client, used to size question lists
    max_rate: float = 4000.0

    def spec(self, seed: int, scale: float = 1.0) -> WorldSpec:
        return WorldSpec(
            # below 256 documents the space of distinct questions (2 n^2)
            # is too small for a 2 k ops/s phase
            n_docs=max(256, int(self.n_docs * scale)),
            seed=seed,
            dim=self.dim,
            n_layers=self.n_layers,
            n_heads=self.n_heads,
        )


_ROTATION = (
    Variant(),
    Variant(nprobe=NPROBE),
    Variant(nprobe=NPROBE, precision="int8-rescore"),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ingest_refresh",
            n_docs=2000,
            target="ingest",
            traffic=Traffic(paced_rate=600.0),
            dim=64,
            n_layers=2,
            n_heads=4,
            replay=8,
        ),
        Workload(
            name="serve_fleet",
            n_docs=1024,
            target="fleet",
            traffic=Traffic(hot_share=0.25, window=8, paced_rate=400.0),
            cache_size=1024,
        ),
        Workload(
            name="search_large",
            n_docs=6000,
            target="inproc",
            traffic=Traffic(variants=_ROTATION, window=8, paced_rate=300.0),
            shards=N_SHARDS,
            keep_first=384,
            keep_every=4,
            max_rate=1500.0,
        ),
        Workload(
            name="paths_inproc",
            n_docs=1024,
            target="inproc",
            traffic=Traffic(mode="paths", k=8, window=4, paced_rate=50.0),
            keep_first=64,
            keep_every=1,
            replay=64,
            max_rate=400.0,
        ),
    )
}


# -- set-up ------------------------------------------------------------------


@dataclass
class Stack:
    """One set-up system: published store plus whatever serves it."""

    world: World
    bundle: ServingBundle
    store_dir: Path
    retriever: Optional[SingleRetriever] = None
    multihop: Optional[MultiHopRetriever] = None
    service: Optional[RetrievalService] = None
    fleet: Optional[Fleet] = None

    def channels(self, traffic: Traffic, count: int = CLIENTS) -> List[Any]:
        if self.fleet is not None:
            return [
                WireChannel(self.fleet.address, traffic) for _ in range(count)
            ]
        return [InprocChannel(self.service, traffic) for _ in range(count)]

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None


def service_config(workload: Workload, cache_size: Optional[int] = None) -> dict:
    size = workload.cache_size if cache_size is None else cache_size
    return {**SERVICE, "cache_size": size, "default_k": workload.traffic.k}


def attach_retriever(
    bundle: ServingBundle, store_dir: Path, shards: int
) -> SingleRetriever:
    """A fresh retriever memmap-attached to the published generation."""
    retriever = bundle.make_retriever()
    adopted = retriever.attach_embeddings(
        EmbeddingStore.open(store_dir / EMBEDDINGS_DIR, mmap=True)
    )
    if adopted == 0:
        raise RuntimeError(f"store at {store_dir} was rejected by attach")
    retriever.ensure_ready()
    if shards:
        retriever.build_shards(shards, "centroid", quantize=True)
    return retriever


def start_inproc(
    workload: Workload,
    bundle: ServingBundle,
    store_dir: Path,
    cache_size: Optional[int] = None,
) -> Tuple[SingleRetriever, Optional[MultiHopRetriever], RetrievalService]:
    retriever = attach_retriever(bundle, store_dir, workload.shards)
    multihop = (
        bundle.make_multihop(retriever)
        if workload.traffic.mode == "paths"
        else None
    )
    service = RetrievalService(
        retriever,
        multihop=multihop,
        config=ServiceConfig(**service_config(workload, cache_size)),
    ).start()
    return retriever, multihop, service


def start_fleet(
    workload: Workload, spec: WorldSpec, store_dir: Path
) -> Fleet:
    return Fleet(
        WorkerSpec(
            # by name, so workers import the factory: "worlds:serving_bundle"
            target=f"{serving_bundle.__module__}:{serving_bundle.__name__}",
            kwargs=spec.kwargs(),
            store_dir=str(store_dir),
            multihop=workload.traffic.mode == "paths",
            shards=workload.shards,
            shard_mode="centroid",
            service=service_config(workload),
        ),
        workers=2,
    ).start()


def first_request(stack: Stack, traffic: Traffic, question: str) -> None:
    """Set-up ends when one request has been answered."""
    channel = stack.channels(traffic, 1)[0]
    try:
        channel.send(0, question, Variant())
        reply = channel.poll(None)
    finally:
        channel.close()
    if reply is None or not reply.ok:
        raise RuntimeError(f"first request failed: {reply and reply.results}")


def setup_serving(
    workload: Workload, spec: WorldSpec, store_dir: Path
) -> Stack:
    """Inputs in memory -> first request servable (what ``setup_s`` times).

    Vocabulary, encoder and store fill (``build_world``, memo cleared so
    it really runs), encode + publish, then memmap attach, shard build and
    service start — in the worker processes when the target is a fleet.
    """
    build_world.cache_clear()
    world = build_world(spec)
    bundle = make_bundle(world)
    publish_store(bundle, str(store_dir))
    stack = Stack(world=world, bundle=bundle, store_dir=store_dir)
    if workload.target == "fleet":
        stack.fleet = start_fleet(workload, spec, store_dir)
    else:
        stack.retriever, stack.multihop, stack.service = start_inproc(
            workload, bundle, store_dir
        )
    try:
        first_request(stack, workload.traffic, "who was born first ?")
    except BaseException:
        stack.close()  # no worker process outlives a failed set-up
        raise
    return stack


def timed_setups(
    build: Callable[[int], Any], close: Callable[[Any], None], host: HostSpeed
) -> Tuple[Any, float, List[float]]:
    """Run set-up several times; keep the last one standing.

    Returns (what the last set-up built, ``setup_s`` — the median repeat
    at quiet-host speed —, every repeat as timed).
    """
    seconds: List[float] = []
    built = None
    while len(seconds) < SETUP_MIN_REPEATS or (
        sum(seconds) < SETUP_BUDGET_S and len(seconds) < SETUP_MAX_REPEATS
    ):
        if built is not None:
            close(built)
        host.sample()
        begin = time.perf_counter()
        built = build(len(seconds))
        seconds.append(time.perf_counter() - begin)
    host.sample()
    return (
        built,
        at_quiet_speed(statistics.median(seconds), host.slowdown()),
        seconds,
    )


# -- questions ---------------------------------------------------------------


def phase_questions(
    world: World,
    workload: Workload,
    clients: int,
    duration: float,
    stream: int,
    hot: Sequence[str] = (),
) -> List[List[str]]:
    """One question list per client, long enough to outlast the phase."""
    per_client = int(workload.max_rate * duration) + 64
    # unique_questions vouches for n^2 distinct ones
    per_client = min(per_client, int(0.9 * len(world.corpus) ** 2 / clients))
    everything = unique_questions(world, per_client * clients, stream)
    lists = [
        everything[i * per_client : (i + 1) * per_client]
        for i in range(clients)
    ]
    if hot:
        lists = [
            mix_hot(
                questions,
                hot,
                workload.traffic.hot_share,
                world.spec.seed * 31 + stream * 7 + i,
            )
            for i, questions in enumerate(lists)
        ]
    return lists


# -- checks ------------------------------------------------------------------


def check_replies(
    oracle: Oracle,
    traffic: Traffic,
    kept: Sequence[Kept],
    bundle: Optional[ServingBundle] = None,
) -> CheckReport:
    """Hold the kept replies of one phase against the oracle.

    Path replies get the cheap checks, or with ``bundle`` (whose updater
    and triples the oracle then uses) the brute-force path ranking, which
    costs as much as the requests did and so is kept for the recall set.
    """
    questions = [item.question for item in kept]
    responses = [item.results for item in kept]
    if traffic.mode == "paths" and bundle is not None:
        return oracle.check_path_ranking(
            questions, responses, bundle, traffic.k
        )
    if traffic.mode == "paths":
        return oracle.check_paths(
            questions, responses, MultiHopConfig().k_hop1
        )
    return oracle.check_single(
        questions, responses, [item.variant.exact for item in kept], traffic.k
    )


def check_against_inproc(
    retriever: SingleRetriever,
    traffic: Traffic,
    kept: Sequence[Kept],
    tol: float,
) -> int:
    """Fleet replies that differ from in-process results (single-hop)."""
    mismatched = 0
    for start in range(0, len(kept), 16):
        batch = kept[start : start + 16]
        expected = retriever.retrieve_many(
            [item.question for item in batch], k=traffic.k
        )
        for item, reference in zip(batch, expected):
            if not same_results(reference, item.results, tol):
                mismatched += 1
    return mismatched


def peak_rss_mb() -> float:
    """Max RSS of this process plus the largest waited-for child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


@dataclass
class Outcome:
    """What a run hands back to ``run.py``."""

    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    notes: List[str]
    #: per-round / per-repeat values behind the metrics (history only)
    detail: Dict[str, List[float]] = field(default_factory=dict)


# -- the serving workloads (plain run) --------------------------------------


@dataclass
class Rounds:
    """Solo and loaded rounds of one serving run, plus what they kept."""

    solo: List[RoundStats]
    #: per solo round, CPU seconds (this process and its workers) per
    #: second of the round: the share of a solo latency that is CPU work
    solo_busy: List[float]
    loaded: List[RoundStats]
    solo_kept: List[Kept]
    #: each client's first replies of every loaded round: a set that does
    #: not depend on how fast the system is, so recall is taken over it
    recall_kept: List[Kept]
    loaded_kept: List[Kept]  # the loaded replies kept after those
    attempted: int
    failed: int
    problems: List[str]


def measure_rounds(
    stack: Stack,
    workload: Workload,
    seconds: float,
    stream: int = 0,
    host: Optional[HostSpeed] = None,
) -> Rounds:
    """Warm up, then alternate ``ROUNDS`` solo and loaded rounds.

    Alternating spreads each phase's rounds over the whole run, so a slow
    spell of the host hits both phases alike instead of swallowing one.
    """
    traffic = workload.traffic
    world = stack.world
    solo_s = seconds * SOLO_SHARE / ROUNDS
    loaded_s = seconds * (1.0 - SOLO_SHARE) / ROUNDS
    hot = unique_questions(world, HOT_SIZE, stream=stream + 1)
    keep_first = max(1, workload.keep_first // ROUNDS)
    out = Rounds([], [], [], [], [], [], 0, 0, [])
    channels = stack.channels(traffic)
    try:
        closed_loop(
            channels,
            phase_questions(world, workload, CLIENTS, WARMUP_S, stream + 2, hot),
            traffic.variants,
            traffic.window,
            WARMUP_S,
        )
        for index in range(ROUNDS):
            if host is not None:
                host.sample()
            solo_questions = phase_questions(
                world, workload, 1, solo_s, stream + 10 + index
            )
            cpu, wall = cpu_seconds(), time.perf_counter()
            solo = closed_loop(
                channels[:1],
                solo_questions,
                (Variant(),),  # a median over three modes does not repeat
                1,
                solo_s,
                keep_every=1,
            )
            out.solo_busy.append(
                (cpu_seconds() - cpu) / (time.perf_counter() - wall)
            )
            if host is not None:
                host.sample()
            loaded = closed_loop(
                channels,
                phase_questions(
                    world, workload, CLIENTS, loaded_s, stream + 40 + index,
                    hot,
                ),
                traffic.variants,
                traffic.window,
                loaded_s,
                keep_first=keep_first,
                keep_every=workload.keep_every,
            )
            out.solo.append(round_stats(solo))
            out.loaded.append(round_stats(loaded))
            out.solo_kept.extend(solo.kept)
            for item in loaded.kept:
                (
                    out.recall_kept
                    if item.index < keep_first
                    else out.loaded_kept
                ).append(item)
            out.attempted += solo.attempted + loaded.attempted
            out.failed += solo.failed + loaded.failed
            out.problems.extend(solo.problems[:1] + loaded.problems[:1])
        if host is not None:
            host.sample()
    finally:
        for channel in channels:
            channel.close()
    return out


def over_rounds(rounds: Sequence[RoundStats], pick: str) -> float:
    """The median round's value of one per-round quantity."""
    return statistics.median(getattr(r, pick) for r in rounds)


def pooled_ms(rounds: Sequence[RoundStats], q: float) -> Tuple[float, int]:
    """(percentile in ms over the replies of all rounds, how many replies)."""
    pooled = [latency for r in rounds for latency in r.latencies]
    return q_ms(pooled, q), len(pooled)


def run_serving(
    workload: Workload, seed: int, seconds: float, scale: float, tmp: Path
) -> Outcome:
    spec = workload.spec(seed, scale)
    traffic = workload.traffic
    documents(spec.n_docs, spec.seed)  # input generation, outside set-up

    def build(attempt: int) -> Stack:
        return setup_serving(workload, spec, tmp / f"store-{attempt}")

    host = HostSpeed()
    stack, setup_s, setup_seconds = timed_setups(build, Stack.close, host)
    try:
        mark = host.mark()
        rounds = measure_rounds(stack, workload, seconds, host=host)
        slow = host.slowdown(mark)
        slow_typical = host.slowdown(mark, typical=True)
        notes = rounds.problems[:3]
        oracle = Oracle(
            EmbeddingStore.open(stack.store_dir / EMBEDDINGS_DIR, mmap=False),
            stack.world.encoder,
        )
        reports = [
            check_replies(oracle, traffic, rounds.solo_kept),
            check_replies(oracle, traffic, rounds.loaded_kept),
            check_replies(oracle, traffic, rounds.recall_kept, stack.bundle),
        ]
        mismatched = sum(report.mismatched for report in reports)
        notes.extend(r.first_problem for r in reports if r.first_problem)
        if stack.fleet is not None and traffic.mode == "single":
            reference = attach_retriever(stack.bundle, stack.store_dir, 0)
            mismatched += check_against_inproc(
                reference,
                traffic,
                rounds.solo_kept[::8] + rounds.loaded_kept[::4],
                oracle.tol,
            )
    finally:
        stack.close()
    p95_ms, replies = pooled_ms(rounds.loaded, 95)
    notes.append(
        f"loaded p95 {p95_ms:.4g} ms over the {replies} replies of "
        f"{len(rounds.loaded)} rounds (not a listed metric); replies per solo "
        f"round {[len(r.latencies) for r in rounds.solo]}; checked "
        f"{sum(r.checked for r in reports)} replies, recall over "
        f"{reports[2].checked}"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        # the loaded phase keeps every core busy, so all of it stretches
        # with the host; of a solo latency only the share that is CPU work
        "throughput_ops_s": (
            over_rounds(rounds.loaded, "throughput") * slow, "ops/s",
        ),
        "solo_p50_ms": (
            at_quiet_speed(
                over_rounds(rounds.solo, "p50_ms"), slow_typical,
                statistics.median(rounds.solo_busy),
            ),
            "ms",
        ),
        "loaded_p50_ms": (
            at_quiet_speed(over_rounds(rounds.loaded, "p50_ms"), slow), "ms",
        ),
        "recall_at_10": (reports[2].mean_recall, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return Outcome(
        metrics=metrics,
        attempted=rounds.attempted,
        failed=rounds.failed + mismatched,
        notes=notes,
        detail={
            # whole run, rounds, rounds (median sample)
            "host_slowdown": [host.slowdown(0), slow, slow_typical],
            "setup_s": setup_seconds,
            "loaded_throughput": [r.throughput for r in rounds.loaded],
            "loaded_p50_ms": [r.p50_ms for r in rounds.loaded],
            "loaded_p95_ms": [q_ms(r.latencies, 95) for r in rounds.loaded],
            "loaded_p95_pooled_ms": [p95_ms],
            "solo_p50_ms": [r.p50_ms for r in rounds.solo],
            "solo_busy": rounds.solo_busy,
        },
    )


# -- the ingest workload (plain run) -----------------------------------------


@dataclass
class Cycle:
    """One ingest (cold, or a refresh cycle): cost and whether it was right."""

    seconds: float
    stats: Any  # IngestStats
    problem: Optional[str]


class IngestRunner:
    """Cold ingests and refresh cycles over one changing corpus."""

    def __init__(
        self, world: World, tmp: Path, docs: Optional[Sequence[Any]] = None
    ):
        self.world = world
        self.tmp = tmp
        #: the corpus being ingested: the whole world unless a probe ingest
        #: passes a slice of it
        self.docs = list(world.corpus if docs is None else docs)
        self.cycle = 0
        self.colds = 0
        self.dir: Optional[Path] = None
        self.result: Any = None
        self.touched_ever: set = set()

    def cold(self) -> Cycle:
        """One cold ingest into a fresh directory."""
        target = self.tmp / f"ingest-{self.colds}"
        self.colds += 1
        begin = time.perf_counter()
        result = IngestPipeline(Corpus(self.docs), workers=2).run(
            target, self.world.encoder
        )
        elapsed = time.perf_counter() - begin
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
        self.dir, self.result = target, result
        return Cycle(elapsed, result.stats, None)

    def refresh(self) -> Cycle:
        """Rewrite 1 % of the bodies, re-ingest, open the new generation."""
        touched = touched_ids(
            len(self.docs), self.world.spec.seed, self.cycle, REFRESH_SHARE
        )
        self.docs = rewrite_bodies(self.docs, touched, self.cycle)
        self.cycle += 1
        self.touched_ever.update(touched)
        before = self.result
        generation = before.embeddings.generation
        begin = time.perf_counter()
        result = IngestPipeline(Corpus(self.docs), workers=2).run(
            self.dir, self.world.encoder
        )
        opened = EmbeddingStore.open(self.dir / EMBEDDINGS_DIR, mmap=True)
        elapsed = time.perf_counter() - begin
        self.result = result
        expected_rows = sum(
            len(result.store.triples(doc_id))
            for doc_id in touched
            if result.store.flattened(doc_id)
            != before.store.flattened(doc_id)
        )
        problem = None
        if result.stats.docs_extracted != len(touched):
            problem = (
                f"cycle {self.cycle}: extracted "
                f"{result.stats.docs_extracted} docs, touched {len(touched)}"
            )
        elif result.stats.rows_encoded != expected_rows:
            problem = (
                f"cycle {self.cycle}: encoded {result.stats.rows_encoded} "
                f"rows, the touched documents have {expected_rows}"
            )
        elif opened.generation != generation + 1:
            problem = (
                f"cycle {self.cycle}: generation {opened.generation}, "
                f"expected {generation + 1}"
            )
        return Cycle(elapsed, result.stats, problem)

    def final_check(
        self, sample: int = 64
    ) -> Tuple[int, int, List[str], float]:
        """(checked, mismatched, notes, recall@10) of the final generation.

        Every document a cycle touched plus a spread of untouched ones is
        re-extracted sequentially and re-encoded from scratch; the final
        generation must hold exactly those triples and rows, and must
        answer exact queries like the brute-force oracle over it.
        """
        corpus = Corpus(self.docs)
        n_docs = len(corpus)
        chosen = sorted(
            self.touched_ever
            | set(range(0, n_docs, max(1, n_docs // sample)))
        )
        linker = EntityIndex(corpus.titles())
        for document in corpus:
            linker.add_document(document.doc_id, document.text)
        fresh = extract_corpus_triples(
            corpus, linker=linker, workers=1, doc_ids=chosen
        )
        opened = EmbeddingStore.open(self.dir / EMBEDDINGS_DIR, mmap=True)
        position = {int(d): i for i, d in enumerate(opened.doc_ids)}
        notes: List[str] = []
        mismatched = 0
        tol = 64.0 * float(np.finfo(opened.matrix.dtype).eps)
        for doc_id in chosen:
            triples = fresh[doc_id]
            stored = self.result.store.triples(doc_id)
            rows = np.asarray(opened.segment(position[doc_id]))
            texts = [t.flatten() for t in triples]
            expected = (
                self.world.encoder.encode_numpy(texts)
                if texts
                else rows[:0]
            )
            if [t.flatten() for t in stored] != texts:
                mismatched += 1
                notes.append(f"doc {doc_id}: stored triples differ from a re-extract")
            elif rows.shape != expected.shape or not np.allclose(
                rows, expected, atol=tol * 16, rtol=0.0
            ):
                mismatched += 1
                notes.append(f"doc {doc_id}: stored rows differ from a re-encode")
        bundle = replace(make_bundle(self.world), store=self.result.store)
        retriever = attach_retriever(bundle, self.dir, 0)
        traffic = Traffic()
        questions = unique_questions(self.world, 128, stream=9)
        kept = [
            Kept(i, question, Variant(), results, None)
            for i, (question, results) in enumerate(
                zip(questions, retriever.retrieve_many(questions, k=traffic.k))
            )
        ]
        report = check_replies(
            Oracle(
                EmbeddingStore.open(self.dir / EMBEDDINGS_DIR, mmap=False),
                self.world.encoder,
            ),
            traffic,
            kept,
        )
        if report.first_problem:
            notes.append(report.first_problem)
        return (
            len(chosen) + report.checked,
            mismatched + report.mismatched,
            notes[:4],
            report.mean_recall,
        )


def reader_main(spec_json: str, directory: str, stop_file: str) -> None:
    """A reader beside the writer: follow the generations and query them.

    Runs in its own process, started from scratch. A reader thread inside
    the writer's process is not an option: ``IngestPipeline`` forks its
    extraction pool, and a fork taken while another thread is inside an
    OpenBLAS matmul never returns (seen twice in six runs while this file
    was written). Says ``ready`` on its standard output once it is set up,
    reads until ``stop_file`` appears, then says how many queries it
    answered.
    """
    world = build_world(WorldSpec(**json.loads(spec_json)))
    bundle = make_bundle(world)
    questions = unique_questions(world, 64, stream=8)
    stop = Path(stop_file)
    print("ready", flush=True)
    served = 0
    while not stop.exists():
        store = TripleStore.load(Path(directory) / STORE_NAME, world.corpus)
        retriever = attach_retriever(
            replace(bundle, store=store), Path(directory), 0
        )
        for start in range(0, len(questions), 16):
            if stop.exists():
                break
            retriever.retrieve_many(questions[start : start + 16], k=10)
            served += 16
    print(served, flush=True)


#: the reader runs this with ``python -c``: a plain child process, started
#: and waited for like any other (a ``multiprocessing`` *spawn* child would
#: bring a resource-tracker process with it that outlives the benchmark)
_READER = (
    f"import sys, {reader_main.__module__} as module; "
    f"module.{reader_main.__name__}(*sys.argv[1:])"
)


def run_ingest(
    workload: Workload, seed: int, seconds: float, scale: float, tmp: Path
) -> Outcome:
    """Cold ingests, solo refresh cycles, refresh cycles beside a reader.

    ``throughput_ops_s`` is documents per second of the median cold
    ingest; the latency metrics are whole refresh cycles (rewrite 1 % of
    the bodies -> ``EmbeddingStore.open`` reads the new generation), their
    median: ``solo_p50_ms`` with nothing else running, ``loaded_p50_ms``
    while one reader process keeps attaching the latest generation and
    querying it. A run holds a handful of cycles of each kind (the counts
    are printed), enough for a median and for no higher percentile.
    """
    spec = workload.spec(seed, scale)
    documents(spec.n_docs, spec.seed)

    def build(_attempt: int) -> World:
        build_world.cache_clear()
        return build_world(spec)

    host = HostSpeed()
    world, setup_s, setup_seconds = timed_setups(
        build, lambda _world: None, host
    )
    runner = IngestRunner(world, tmp)
    notes: List[str] = []
    cold_mark = host.mark()
    cold: List[Cycle] = []
    for _ in range(COLD_INGESTS):
        host.sample()
        cold.append(runner.cold())
    host.sample()
    solo_mark = host.mark()
    solo: List[Cycle] = []
    begin = time.perf_counter()
    while len(solo) < 3 or time.perf_counter() - begin < 0.3 * seconds:
        host.sample()
        solo.append(runner.refresh())
    host.sample()
    slow_cold = host.slowdown(cold_mark)
    slow_solo = host.slowdown(solo_mark)
    stop_file = tmp / "reader-stop"
    reader = subprocess.Popen(
        [sys.executable, "-c", _READER, json.dumps(spec.kwargs()),
         str(runner.dir), str(stop_file)],
        stdout=subprocess.PIPE,
        text=True,
    )
    loaded: List[Cycle] = []
    served = ""
    try:
        if reader.stdout.readline().strip() != "ready":
            raise RuntimeError("the reader process did not come up")
        loaded_mark = host.mark()
        begin = time.perf_counter()
        while len(loaded) < 3 or time.perf_counter() - begin < 0.4 * seconds:
            host.sample()
            loaded.append(runner.refresh())
        host.sample()
        slow_loaded = host.slowdown(loaded_mark)
        stop_file.touch()
        served = reader.communicate(timeout=60.0)[0].strip()
    finally:
        # every way out of here leaves no reader behind
        reader.kill()
        reader.wait()
    cycles = solo + loaded
    failed = sum(1 for cycle in cycles if cycle.problem)
    notes.extend(cycle.problem for cycle in cycles if cycle.problem)
    if reader.returncode != 0:
        failed += 1
        notes.append(f"the reader process ended with code {reader.returncode}")
    checked, mismatched, check_notes, recall = runner.final_check()
    notes.extend(check_notes)
    notes.append(
        f"{len(cold)} cold ingests of {spec.n_docs} docs, {len(solo)} solo and "
        f"{len(loaded)} loaded refresh cycles (reader answered "
        f"{served} queries), final check over {checked} items"
    )

    def median_s(cycles_: Sequence[Cycle]) -> float:
        return statistics.median(c.seconds for c in cycles_)

    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (
            spec.n_docs / median_s(cold) * slow_cold, "ops/s",
        ),
        "solo_p50_ms": (
            at_quiet_speed(median_s(solo), slow_solo) * 1e3, "ms",
        ),
        "loaded_p50_ms": (
            at_quiet_speed(median_s(loaded), slow_loaded) * 1e3, "ms",
        ),
        "recall_at_10": (recall, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return Outcome(
        metrics=metrics,
        attempted=len(cold) + len(cycles) + checked,
        failed=failed + mismatched,
        notes=notes,
        detail={
            # whole run, cold ingests, solo cycles, loaded cycles
            "host_slowdown": [
                host.slowdown(0), slow_cold, slow_solo, slow_loaded,
            ],
            "setup_s": setup_seconds,
            "cold_s": [c.seconds for c in cold],
            "solo_cycle_s": [c.seconds for c in solo],
            "loaded_cycle_s": [c.seconds for c in loaded],
        },
    )


def run_plain(
    workload: Workload, seed: int, seconds: float, scale: float, tmp: Path
) -> Outcome:
    """The untraced run of one workload: the end-to-end metrics."""
    if workload.target == "ingest":
        return run_ingest(workload, seed, seconds, scale, tmp)
    return run_serving(workload, seed, seconds, scale, tmp)

