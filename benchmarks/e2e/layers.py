"""The traced run: per-layer metrics of one workload's world.

End-to-end metrics come from the plain run only. This module answers the
other question — where do they come from? — by calling every layer
through its public functions on the workload's *own* world (documents,
encoder shape, store, traffic mix) and timing it from outside:

* ``text`` / ``encoder`` / ``store`` / ``shard`` / ``retriever`` /
  ``updater`` / ``multihop``: direct timed calls (medians of repeats);
* ``serve``: an in-process :class:`~repro.serve.RetrievalService` under
  the workload's traffic, read through ``stats_snapshot``;
* ``net``: a 2-worker fleet over the same published store — codec cost
  on real responses, worker-direct vs front-door latency, fleet vs
  in-process throughput, a hot rollout in the middle of traffic;
* ``ingest``: the ingest workload's own cold ingests and refresh cycles;
  on the serving worlds a small probe ingest of the first documents;
* ``client``: an open-loop phase at a fixed rate through the workload's
  own target;
* ``trace``: a span-by-span replay of sampled requests (``trace.json``),
  whose stage self times are summed and held against the whole request.

Every traced run reports every per-layer metric, so one table can be
read across the four worlds; which of them should move which end-to-end
metric on which workload is written down in ``README.md``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from loadgen import (
    CLIENTS,
    Kept,
    PhaseResult,
    Variant,
    WireChannel,
    closed_loop,
    paced_loop,
    q_ms,
    round_stats,
)
from oracle import Oracle
from tracing import Tracer, breakdowns, instrument
from workloads import (
    N_SHARDS,
    NPROBE,
    Cycle,
    IngestRunner,
    Outcome,
    Stack,
    Workload,
    attach_retriever,
    check_replies,
    measure_rounds,
    over_rounds,
    phase_questions,
    start_fleet,
    start_inproc,
)
from worlds import (
    World,
    WorldSpec,
    build_world,
    documents,
    make_bundle,
    unique_questions,
)

from repro.data.corpus import Corpus
from repro.ingest import EMBEDDINGS_DIR, EmbeddingStore, IngestPipeline
from repro.net import (
    NetClient,
    ServingBundle,
    encode_frame,
    publish_store,
    results_to_wire,
    wire_to_results,
)
from repro.net.protocol import decode_body
from repro.perf import COUNTERS
from repro.precision import resolve
from repro.retriever.single import SingleRetriever
from repro.retriever.strategies import ScoreStrategy, l2_normalize_rows
from repro.shard import ShardPlan
from repro.text.tokenize import tokenize

Metrics = Dict[str, Tuple[float, str]]

#: documents in the probe ingest of a serving world
PROBE_INGEST_DOCS = 128
#: documents in the 1-worker vs 2-worker extraction comparison
EXTRACT_RATE_DOCS = 256


def seconds_of(call: Callable[[], Any]) -> float:
    """Wall time of one ``call()``."""
    begin = time.perf_counter()
    call()
    return time.perf_counter() - begin


def median_s(call: Callable[[], Any], repeats: int) -> float:
    """Median wall time of ``call()`` over ``repeats`` runs (seconds)."""
    return statistics.median(seconds_of(call) for _ in range(repeats))


class Tally:
    """Attempts and failures of the traced run's own checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def add(self, attempted: int, failed: int, note: Optional[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


# -- text / encoder -----------------------------------------------------------


def probe_text_encoder(world: World, questions: Sequence[str]) -> Metrics:
    encoder = world.encoder
    sample = list(questions[:256])
    per_pass = median_s(lambda: [tokenize(q) for q in sample], 5)
    singles = [
        seconds_of(lambda q=q: encoder.encode_numpy([q])) for q in sample[:64]
    ]
    batches = [
        seconds_of(lambda s=s: encoder.encode_numpy(sample[s : s + 16]))
        for s in range(0, 256, 16)
    ]
    rows = [
        text
        for doc_id in world.store.doc_ids()[:512]
        for text in world.store.flattened(doc_id)
    ]
    tokens_before = COUNTERS.encoder_throughput()["tokens"]
    begin = time.perf_counter()
    encoder.encode_numpy(rows, batch_size=128)
    elapsed = time.perf_counter() - begin
    tokens = COUNTERS.encoder_throughput()["tokens"] - tokens_before
    return {
        "text.tokenize_us": (per_pass / len(sample) * 1e6, "us"),
        "encoder.question_ms_b1": (statistics.median(singles) * 1e3, "ms"),
        "encoder.question_ms_b16": (statistics.median(batches) * 1e3, "ms"),
        "encoder.row_tokens_per_s": (tokens / elapsed, "tokens/s"),
    }


# -- store ---------------------------------------------------------------------


def probe_store(bundle: ServingBundle, store_dir: Path, tmp: Path) -> Metrics:
    held = EmbeddingStore.open(store_dir / EMBEDDINGS_DIR, mmap=False)
    target = tmp / "probe-store"
    save = median_s(lambda: held.save(target), 3)
    opened = median_s(lambda: EmbeddingStore.open(target, mmap=True), 5)

    def attach() -> None:
        retriever = bundle.make_retriever()
        retriever.attach_embeddings(EmbeddingStore.open(target, mmap=True))
        retriever.ensure_ready()

    attached = median_s(attach, 3)
    manifest = target / "manifest.json"
    data_file = target / json.loads(manifest.read_text())["data_file"]
    on_disk = manifest.stat().st_size + data_file.stat().st_size
    rows = max(1, int(held.matrix.shape[0]))
    return {
        "store.save_ms": (save * 1e3, "ms"),
        "store.open_mmap_ms": (opened * 1e3, "ms"),
        "store.attach_ms": (attached * 1e3, "ms"),
        "store.bytes_per_row": (on_disk / rows, "bytes"),
    }


# -- shard ----------------------------------------------------------------------

_SHARD_VARIANTS = (
    ("exact", Variant()),
    ("nprobe", Variant(nprobe=NPROBE)),
    ("int8", Variant(nprobe=NPROBE, precision="int8-rescore")),
)


def probe_shard(
    bundle: ServingBundle,
    store_dir: Path,
    sharded: SingleRetriever,
    oracle: Oracle,
    questions: Sequence[str],
    tally: Tally,
) -> Metrics:
    """``ShardPlan`` built over this world's rows, timed call by call."""
    held = EmbeddingStore.open(store_dir / EMBEDDINGS_DIR, mmap=True)
    normed = l2_normalize_rows(np.asarray(held.matrix))
    plans: List[ShardPlan] = []
    build = median_s(
        lambda: plans.append(
            ShardPlan.build(
                normed, held.doc_ids, held.offsets, N_SHARDS, mode="centroid"
            )
        ),
        3,
    )
    quantize = statistics.median(
        seconds_of(plan.quantize) for plan in plans
    )
    plan = plans[0]
    strategy = ScoreStrategy()
    queries = l2_normalize_rows(
        np.asarray(bundle.encoder.encode_numpy(list(questions[:128])))
    )
    probe = statistics.median(
        seconds_of(lambda i=i: plan.probe(queries[i : i + 1], NPROBE))
        for i in range(len(queries))
    )
    width = resolve("int8-rescore").rescore_width
    search = {
        "exact": lambda block: plan.search(block, strategy, None),
        "nprobe": lambda block: plan.search(block, strategy, NPROBE),
        "int8": lambda block: plan.search_quantized(
            block, strategy, width, NPROBE
        ),
    }
    out: Metrics = {
        "shard.build_ms": (build * 1e3, "ms"),
        "shard.quantize_ms": (quantize * 1e3, "ms"),
        "shard.probe_us": (probe * 1e6, "us"),
    }
    for name, call in search.items():
        took = statistics.median(
            seconds_of(lambda s=s: call(queries[s : s + 16]))
            for s in range(0, len(queries), 16)
        )
        out[f"shard.search_{name}_ms_b16"] = (took * 1e3, "ms")
    total_rows = max(1, plan.total_rows)
    out["shard.rows_scored_share"] = (
        statistics.mean(
            sum(plan.shards[int(s)].n_rows for s in chosen) / total_rows
            for chosen in plan.probe(queries, NPROBE)
        ),
        "ratio",
    )
    # whole requests through a retriever that uses the plan
    solo_questions = list(questions[128:176])
    for name, variant in _SHARD_VARIANTS:
        latencies = []
        kept: List[Kept] = []
        for index, question in enumerate(solo_questions):
            begin = time.perf_counter()
            results = sharded.retrieve_many(
                [question],
                k=10,
                nprobe=variant.nprobe,
                precision=variant.precision,
            )[0]
            latencies.append(time.perf_counter() - begin)
            kept.append(Kept(index, question, variant, results, None))
        report = oracle.check_single(
            [item.question for item in kept],
            [item.results for item in kept],
            [variant.exact] * len(kept),
            10,
        )
        tally.add(report.checked, report.mismatched, report.first_problem)
        out[f"shard.solo_{name}_p50_ms"] = (q_ms(latencies, 50), "ms")
        if name == "nprobe":
            out["shard.recall_nprobe_mean"] = (report.mean_recall, "ratio")
            out["shard.recall_nprobe_min"] = (
                min(report.recalls, default=1.0), "ratio",
            )
        elif name == "int8":
            out["shard.recall_int8_mean"] = (report.mean_recall, "ratio")
    return out


# -- retriever ----------------------------------------------------------------


def probe_retriever(
    own: SingleRetriever, sharded: SingleRetriever, questions: Sequence[str]
) -> Metrics:
    """``retrieve_batch`` on the workload's retriever; rank = self time.

    The self time needs a child span to subtract, and the only search
    call that is public is ``ShardPlan.search`` — so it is taken from the
    16-shard, probe-everything retriever, whose results the repository's
    parity tests pin byte-identical to the unsharded path.
    """
    blocks = [
        own.encode_questions(list(questions[s : s + 16]))
        for s in range(0, 128, 16)
    ]
    scored_before = COUNTERS.snapshot()["triples_scored"]
    batch = statistics.median(
        seconds_of(lambda b=b: own.retrieve_batch(b, k=10)) for b in blocks
    )
    scored = COUNTERS.snapshot()["triples_scored"] - scored_before
    tracer = Tracer()
    restore = instrument(tracer, sharded.shard_plan, "search", "shard.search")
    try:
        for index, block in enumerate(blocks):
            with tracer.span("retriever.retrieve_batch", request=index):
                sharded.retrieve_batch(block, k=10)
    finally:
        restore()
    rank = statistics.median(
        item.root_self_s
        for item in breakdowns(tracer, "retriever.retrieve_batch")
    )
    return {
        "retriever.retrieve_batch_ms_b16": (batch * 1e3, "ms"),
        "retriever.rank_self_ms_b16": (rank * 1e3, "ms"),
        "retriever.triples_scored_per_request": (
            scored / (16.0 * len(blocks)), "count",
        ),
    }


# -- updater / multihop -------------------------------------------------------


def probe_multihop(
    bundle: ServingBundle, own: SingleRetriever, questions: Sequence[str]
) -> Metrics:
    multihop = bundle.make_multihop(own)
    tracer = Tracer()
    restores = [
        instrument(tracer, multihop.updater, "select_clue", "updater.select_clue"),
        instrument(tracer, own, "retrieve_batch", "retriever.retrieve_batch"),
        instrument(tracer, bundle.encoder, "encode_numpy", "encoder.encode_numpy"),
    ]
    try:
        for index, question in enumerate(questions[:16]):
            with tracer.span("multihop.request", request=index):
                multihop.retrieve_paths_batch([question])
        for index in range(4):
            block = list(questions[16 + 4 * index : 20 + 4 * index])
            with tracer.span("multihop.batch4", request=100 + index):
                multihop.retrieve_paths_batch(block)
    finally:
        for restore in restores:
            restore()
    singles = breakdowns(tracer, "multihop.request")
    fours = breakdowns(tracer, "multihop.batch4")
    clue_spans = [
        span.end - span.start
        for span in tracer.spans
        if span.name == "updater.select_clue"
    ]
    hop2 = [
        item.stage_rows["retriever.retrieve_batch"][1]
        for item in singles
        if len(item.stage_rows.get("retriever.retrieve_batch", [])) > 1
    ]
    return {
        "updater.select_clue_ms": (
            statistics.median(clue_spans) * 1e3 if clue_spans else 0.0, "ms",
        ),
        "updater.calls_per_request": (
            statistics.mean(
                item.stage_calls.get("updater.select_clue", 0)
                for item in singles
            ),
            "count",
        ),
        "multihop.paths_batch_ms_b4": (
            statistics.median(item.total_s for item in fours) * 1e3, "ms",
        ),
        "multihop.self_ms_b4": (
            statistics.median(item.root_self_s for item in fours) * 1e3, "ms",
        ),
        "multihop.hop2_queries_per_request": (
            statistics.mean(hop2) if hop2 else 0.0, "count",
        ),
    }


# -- serve (in-process service) and trace overhead -----------------------------


def direct_call(
    stack: Stack, workload: Workload, question: str, variant: Variant
) -> Any:
    """One request straight into the retriever, no service in between."""
    traffic = workload.traffic
    if traffic.mode == "paths":
        return stack.multihop.retrieve_paths_batch([question], k_paths=traffic.k)[0]
    return stack.retriever.retrieve_many(
        [question], k=traffic.k, nprobe=variant.nprobe,
        precision=variant.precision,
    )[0]


def instrument_stack(tracer: Tracer, stack: Stack) -> Callable[[], None]:
    """Spans around every layer boundary the in-process stack crosses."""
    encoder = stack.bundle.encoder
    restores = [
        instrument(tracer, encoder, "text_to_ids", "text.tokenize"),
        instrument(tracer, encoder, "encode_numpy", "encoder.encode_numpy"),
        instrument(
            tracer, stack.retriever, "retrieve_batch", "retriever.retrieve_batch"
        ),
    ]
    plan = stack.retriever.shard_plan
    if plan is not None:
        restores += [
            instrument(tracer, plan, "probe", "shard.probe"),
            instrument(tracer, plan, "search", "shard.search"),
            instrument(
                tracer, plan, "search_quantized", "shard.search_quantized"
            ),
        ]
    if stack.multihop is not None:
        restores += [
            instrument(
                tracer, stack.multihop.updater, "select_clue",
                "updater.select_clue",
            ),
            instrument(
                tracer, stack.multihop, "retrieve_paths_batch",
                "multihop.retrieve_paths_batch",
            ),
        ]

    def restore_all() -> None:
        for restore in restores:
            restore()

    return restore_all


def loaded_throughput(
    stack: Stack, workload: Workload, seconds: float, stream: int
) -> float:
    """One loaded round's rate (ops/s) through ``stack``."""
    traffic = workload.traffic
    channels = stack.channels(traffic)
    try:
        phase = closed_loop(
            channels,
            phase_questions(
                stack.world, workload, CLIENTS, seconds, stream
            ),
            traffic.variants,
            traffic.window,
            seconds,
        )
    finally:
        for channel in channels:
            channel.close()
    return round_stats(phase).throughput


def probe_serve(
    workload: Workload,
    stack: Stack,
    oracle: Oracle,
    seconds: float,
    tally: Tally,
    tracer: Tracer,
) -> Tuple[Metrics, float]:
    """(``serve.*`` + ``trace.overhead_share``, in-process throughput)."""
    traffic = workload.traffic
    rounds = measure_rounds(stack, workload, seconds, stream=200)
    report = check_replies(
        oracle,
        traffic,
        rounds.solo_kept + rounds.recall_kept + rounds.loaded_kept,
    )
    tally.add(
        rounds.attempted,
        rounds.failed + report.mismatched,
        report.first_problem or "; ".join(rounds.problems[:2]),
    )
    snapshot = stack.service.stats_snapshot()
    solo_p50 = over_rounds(rounds.solo, "p50_ms")
    throughput = over_rounds(rounds.loaded, "throughput")
    questions = unique_questions(stack.world, 48, stream=260)
    direct = statistics.median(
        seconds_of(lambda q=q: direct_call(stack, workload, q, Variant()))
        for q in questions
    )
    # tracing overhead: the same loaded round without and with spans around
    # every layer boundary, in pairs so host drift hits both sides alike
    ratios: List[float] = []
    for index in range(4):
        plain = loaded_throughput(stack, workload, seconds / 6, 300 + index)
        restore = instrument_stack(tracer, stack)
        try:
            traced = loaded_throughput(
                stack, workload, seconds / 6, 320 + index
            )
        finally:
            restore()
        if plain > 0:
            ratios.append(traced / plain)
    overhead = 1.0 - statistics.median(ratios) if ratios else 0.0
    submitted = max(1, int(snapshot["submitted"]))
    metrics: Metrics = {
        "serve.mean_batch_size": (float(snapshot["mean_batch_size"]), "count"),
        "serve.cache_hit_share": (snapshot["cache_hits"] / submitted, "ratio"),
        "serve.service_p50_ms": (float(snapshot["latency_ms"]["p50"]), "ms"),
        "serve.overhead_solo_ms": (solo_p50 - direct * 1e3, "ms"),
        "serve.rejected": (float(snapshot["rejected_overload"]), "count"),
        "serve.deadline_dropped": (
            float(snapshot["rejected_deadline"]), "count",
        ),
        "trace.overhead_share": (overhead, "ratio"),
    }
    return metrics, throughput


# -- client (open loop through the workload's own target) ---------------------


def probe_client(
    workload: Workload, stack: Stack, seconds: float, tally: Tally
) -> Metrics:
    """Open loop at the workload's fixed rate, plus closed-loop tails."""
    traffic = workload.traffic
    duration = seconds / 6
    channel = stack.channels(traffic, 1)[0]
    try:
        paced = paced_loop(
            channel,
            phase_questions(stack.world, workload, 1, duration, 400)[0],
            traffic.variants,
            traffic.paced_rate,
            duration,
        )
    finally:
        channel.close()
    tally.add(paced.attempted, paced.failed, "; ".join(paced.problems[:2]))
    # long enough for a p95 with ten replies beyond it on the slowest
    # workload (paths_inproc, 80-100 ops/s)
    loaded_s = seconds / 3
    channels = stack.channels(traffic)
    try:
        loaded = closed_loop(
            channels,
            phase_questions(stack.world, workload, CLIENTS, loaded_s, 410),
            traffic.variants,
            traffic.window,
            loaded_s,
        )
    finally:
        for item in channels:
            item.close()
    tally.add(loaded.attempted, loaded.failed, "; ".join(loaded.problems[:2]))
    achieved = paced.attempted / duration if duration > 0 else 0.0
    return {
        "client.paced_rate": (achieved, "ops/s"),
        "client.paced_p50_ms": (q_ms(paced.latency, 50), "ms"),
        "client.paced_p95_ms": (q_ms(paced.latency, 95), "ms"),
        "client.paced_late_p99_ms": (q_ms(paced.late, 99), "ms"),
        "client.loaded_p95_ms": (q_ms(loaded.latency, 95), "ms"),
        "client.loaded_p99_ms": (q_ms(loaded.latency, 99), "ms"),
        "client.samples": (float(len(loaded.latency)), "count"),
    }


# -- net (fleet over the same published store) --------------------------------


def probe_codec(workload: Workload, results: Sequence[Any]) -> Metrics:
    """Wire codec cost on real responses (both directions, per response)."""
    mode = workload.traffic.mode
    frames: List[bytes] = []

    def encode_all() -> None:
        frames.clear()
        for index, result in enumerate(results):
            frames.append(
                encode_frame(
                    {
                        "id": index,
                        "ok": True,
                        "mode": mode,
                        "generation": 1,
                        "results": results_to_wire(mode, result),
                    }
                )
            )

    def decode_all() -> None:
        for frame in frames:
            wire_to_results(mode, decode_body(frame[4:])["results"])

    encode = median_s(encode_all, 5)
    decode = median_s(decode_all, 5)
    count = max(1, len(results))
    return {
        "net.encode_us": (encode / count * 1e6, "us"),
        "net.decode_us": (decode / count * 1e6, "us"),
        "net.response_bytes": (
            statistics.mean(len(frame) for frame in frames), "bytes",
        ),
    }


def solo_p50_ms(
    address: Tuple[str, int], stack: Stack, workload: Workload,
    seconds: float, stream: int, tally: Tally,
) -> float:
    traffic = workload.traffic
    channel = WireChannel(address, traffic)
    try:
        phase = closed_loop(
            [channel],
            phase_questions(stack.world, workload, 1, seconds, stream),
            (Variant(),),
            1,
            seconds,
        )
    finally:
        channel.close()
    tally.add(phase.attempted, phase.failed, "; ".join(phase.problems[:2]))
    return round_stats(phase).p50_ms


def next_generation(store_dir: Path, target: Path) -> int:
    """Copy the published store and publish it once more (generation + 1)."""
    shutil.copytree(store_dir, target)
    held = EmbeddingStore.open(target / EMBEDDINGS_DIR, mmap=False)
    held.save(target / EMBEDDINGS_DIR)
    return held.generation


def probe_rollout(
    stack: Stack, workload: Workload, oracle: Oracle, new_dir: Path,
    old_generation: int, new_generation: int, seconds: float, tally: Tally,
) -> Metrics:
    """Roll the fleet onto a new generation in the middle of loaded traffic."""
    traffic = workload.traffic
    channels = stack.channels(traffic)
    holder: List[PhaseResult] = []
    questions = phase_questions(stack.world, workload, CLIENTS, seconds, 500)

    def drive() -> None:
        holder.append(
            closed_loop(
                channels, questions, traffic.variants, traffic.window, seconds,
                keep_every=8,
            )
        )

    driver = threading.Thread(target=drive, name="e2e-rollout-traffic")
    driver.start()
    try:
        time.sleep(seconds / 3)
        with NetClient(stack.fleet.address) as client:
            begin = time.perf_counter()
            answer = client.reload(str(new_dir))
            rollout = time.perf_counter() - begin
    finally:
        driver.join()
        for channel in channels:
            channel.close()
    phase = holder[0]
    mixed = sum(
        1
        for item in phase.kept
        if item.generation not in (old_generation, new_generation)
    )
    unrolled = sum(
        1 for g in answer.get("generations", []) if g != new_generation
    )
    report = check_replies(oracle, traffic, phase.kept)
    failed = phase.failed + mixed + unrolled + report.mismatched
    tally.add(
        phase.attempted,
        failed,
        f"rollout: {phase.failed} failed, {mixed} untagged, {unrolled} "
        f"workers not rolled, {report.mismatched} mismatched",
    )
    return {
        "net.rollout_s": (rollout, "s"),
        "net.rollout_p95_ms": (q_ms(phase.latency, 95), "ms"),
        "net.rollout_failed": (float(failed), "count"),
    }


def probe_net(
    workload: Workload,
    spec: WorldSpec,
    inproc: Stack,
    oracle: Oracle,
    inproc_throughput: float,
    seconds: float,
    tmp: Path,
    tally: Tally,
) -> Tuple[Metrics, Stack]:
    """(``net.*``, the running fleet stack — the caller closes it)."""
    questions = unique_questions(inproc.world, 64, stream=600)
    real = [
        direct_call(
            inproc, workload, q,
            workload.traffic.variants[i % len(workload.traffic.variants)],
        )
        for i, q in enumerate(questions)
    ]
    metrics = probe_codec(workload, real)
    new_dir = tmp / "next-generation"
    new_generation = next_generation(inproc.store_dir, new_dir)
    stack = Stack(
        world=inproc.world,
        bundle=inproc.bundle,
        store_dir=inproc.store_dir,
        fleet=start_fleet(workload, spec, inproc.store_dir),
    )
    try:
        handle = stack.fleet.supervisor.handles()[0]
        # worker-direct and front-door solo phases alternate: the hop is a
        # difference of two latencies and host drift must not pose as it
        direct_ms: List[float] = []
        through_ms: List[float] = []
        for index in range(3):
            direct_ms.append(
                solo_p50_ms(
                    handle.address, stack, workload, seconds / 24,
                    610 + index, tally,
                )
            )
            through_ms.append(
                solo_p50_ms(
                    stack.fleet.address, stack, workload, seconds / 24,
                    620 + index, tally,
                )
            )
        direct = statistics.median(direct_ms)
        through = statistics.median(through_ms)
        rounds = measure_rounds(stack, workload, seconds / 3, stream=640)
        report = check_replies(
            oracle,
            workload.traffic,
            rounds.solo_kept + rounds.recall_kept + rounds.loaded_kept,
        )
        tally.add(
            rounds.attempted,
            rounds.failed + report.mismatched,
            report.first_problem or "; ".join(rounds.problems[:2]),
        )
        fleet_throughput = over_rounds(rounds.loaded, "throughput")
        with NetClient(stack.fleet.address) as client:
            stats = client.stats()
        metrics.update(
            {
                "net.worker_direct_solo_ms": (direct, "ms"),
                "net.frontdoor_hop_ms": (through - direct, "ms"),
                "net.worker_mean_batch_size": (
                    float(stats["aggregate"]["mean_batch_size"]), "count",
                ),
                "net.retried": (float(stats["frontdoor"]["retried"]), "count"),
                "net.inproc_throughput_ops_s": (inproc_throughput, "ops/s"),
                "net.wire_efficiency": (
                    fleet_throughput / inproc_throughput
                    if inproc_throughput > 0
                    else 0.0,
                    "ratio",
                ),
            }
        )
        metrics.update(
            probe_rollout(
                stack, workload, oracle, new_dir, new_generation - 1,
                new_generation, seconds / 4, tally,
            )
        )
    except BaseException:
        stack.close()
        raise
    return metrics, stack


# -- ingest -----------------------------------------------------------------------


def extraction_rates(world: World, docs: Sequence[Any], tmp: Path) -> Metrics:
    """Documents per second of extraction alone with 1 and with 2 workers."""
    corpus = Corpus(list(docs))
    rates = {}
    for workers in (1, 2):
        result = IngestPipeline(
            corpus, workers=workers, incremental=False
        ).extract(tmp / f"extract-w{workers}")
        rates[workers] = result.stats.docs_extracted / max(
            result.stats.extract_seconds, 1e-9
        )
    return {
        "ingest.extract_docs_per_s_w1": (rates[1], "docs/s"),
        "ingest.extract_docs_per_s_w2": (rates[2], "docs/s"),
        "ingest.extract_parallel_efficiency": (
            rates[2] / (2.0 * rates[1]), "ratio",
        ),
    }


def ingest_metrics(cold_stats: Any, cycles: Sequence[Cycle]) -> Metrics:
    """``ingest.*`` from one cold ingest's stats and some refresh cycles."""

    def mid(pick: Callable[[Cycle], float]) -> float:
        return statistics.median(pick(cycle) for cycle in cycles)

    other = mid(
        lambda c: c.seconds
        - c.stats.link_seconds
        - c.stats.extract_seconds
        - c.stats.encode_seconds
        - c.stats.save_seconds
    )
    return {
        "ingest.link_s": (cold_stats.link_seconds, "s"),
        "ingest.extract_s": (cold_stats.extract_seconds, "s"),
        "ingest.encode_s": (cold_stats.encode_seconds, "s"),
        "ingest.save_s": (cold_stats.save_seconds, "s"),
        "ingest.refresh_link_ms": (
            mid(lambda c: c.stats.link_seconds) * 1e3, "ms",
        ),
        "ingest.refresh_extract_ms": (
            mid(lambda c: c.stats.extract_seconds) * 1e3, "ms",
        ),
        "ingest.refresh_encode_ms": (
            mid(lambda c: c.stats.encode_seconds) * 1e3, "ms",
        ),
        "ingest.refresh_save_ms": (
            mid(lambda c: c.stats.save_seconds) * 1e3, "ms",
        ),
        "ingest.refresh_other_ms": (other * 1e3, "ms"),
        "ingest.rows_reused_share": (
            mid(
                lambda c: c.stats.rows_reused / max(1, c.stats.rows_total)
            ),
            "ratio",
        ),
    }


def trace_cycles(
    runner: IngestRunner, count: int, tracer: Tracer, tally: Tally
) -> List[Cycle]:
    """``count`` refresh cycles, each recorded as a request with its stages.

    The stage spans are laid end to end from the cycle's ``IngestStats``
    (the pipeline reports durations, not instants); what the cycle took
    beyond them — manifest hashing, store assembly, opening the new
    generation — stays in the root span's self time.
    """
    cycles: List[Cycle] = []
    for index in range(count):
        with tracer.span("request", request=index):
            root = len(tracer.spans) - 1
            cycle = runner.refresh()
        cursor = tracer.spans[root].start
        for name, seconds in (
            ("ingest.link", cycle.stats.link_seconds),
            ("ingest.extract", cycle.stats.extract_seconds),
            ("ingest.encode", cycle.stats.encode_seconds),
            ("ingest.save", cycle.stats.save_seconds),
        ):
            tracer.add(name, cursor, cursor + seconds, root, index)
            cursor += seconds
        tally.add(1, 1 if cycle.problem else 0, cycle.problem)
        cycles.append(cycle)
    return cycles


# -- replay (trace.json) ------------------------------------------------------


def replay_requests(
    workload: Workload, stack: Stack, tracer: Tracer, count: int
) -> None:
    """Replay sampled requests with a span around every layer boundary."""
    traffic = workload.traffic
    questions = unique_questions(stack.world, count, stream=700)
    restore = instrument_stack(tracer, stack)
    try:
        for index, question in enumerate(questions):
            variant = traffic.variants[index % len(traffic.variants)]
            with tracer.span("request", request=index):
                results = direct_call(stack, workload, question, variant)
                if workload.target != "fleet":
                    continue
                with tracer.span("net.results_to_wire"):
                    wire = results_to_wire(traffic.mode, results)
                with tracer.span("net.encode_frame"):
                    frame = encode_frame(
                        {"id": index, "ok": True, "mode": traffic.mode,
                         "generation": 1, "results": wire}
                    )
                with tracer.span("net.decode_body"):
                    body = decode_body(frame[4:])
                with tracer.span("net.wire_to_results"):
                    wire_to_results(traffic.mode, body["results"])
    finally:
        restore()


def trace_metrics(tracer: Tracer, encode_calls: Optional[float]) -> Metrics:
    """Stage sum against the whole request, over the replayed requests."""
    items = breakdowns(tracer, "request")
    if encode_calls is None:
        encode_calls = statistics.mean(
            item.stage_calls.get("encoder.encode_numpy", 0) for item in items
        )
    return {
        "encoder.calls_per_request": (float(encode_calls), "count"),
        "trace.stage_sum_ms": (
            statistics.median(
                sum(item.stage_self_s.values()) for item in items
            ) * 1e3,
            "ms",
        ),
        "trace.unattributed_share": (
            statistics.median(
                item.root_self_s / item.total_s for item in items
            ),
            "ratio",
        ),
    }


def stage_shares(tracer: Tracer) -> str:
    """One line: each stage's share of the replayed requests' time."""
    items = breakdowns(tracer, "request")
    total = sum(item.total_s for item in items) or 1.0
    sums: Dict[str, float] = {}
    for item in items:
        for name, seconds in item.stage_self_s.items():
            sums[name] = sums.get(name, 0.0) + seconds
    ranked = sorted(sums.items(), key=lambda pair: -pair[1])
    return "stage shares of a replayed request: " + ", ".join(
        f"{name} {seconds / total:.0%}" for name, seconds in ranked
    )


# -- the traced run -------------------------------------------------------------


def run_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    scale: float,
    tmp: Path,
    trace_path: Path,
) -> Outcome:
    """Every per-layer metric of ``workload``'s world; writes ``trace.json``."""
    spec = workload.spec(seed, scale)
    begin = time.perf_counter()
    docs = documents(spec.n_docs, spec.seed)
    metrics: Metrics = {"data.gen_s": (time.perf_counter() - begin, "s")}
    tally = Tally()
    tracer = Tracer()  # the replayed requests: what trace.json holds
    world = build_world(spec)
    bundle = make_bundle(world)
    encode_calls: Optional[float] = None

    if workload.target == "ingest":
        runner = IngestRunner(world, tmp)
        cold_stats = runner.cold().stats
        calls_before = COUNTERS.snapshot()["encode_calls"]
        cycles = trace_cycles(runner, workload.replay, tracer, tally)
        encode_calls = (
            COUNTERS.snapshot()["encode_calls"] - calls_before
        ) / max(1, len(cycles))
        checked, mismatched, notes, _recall = runner.final_check()
        tally.add(checked, mismatched, "; ".join(notes))
        metrics.update(ingest_metrics(cold_stats, cycles))
        metrics.update(
            extraction_rates(world, runner.docs[:EXTRACT_RATE_DOCS], tmp)
        )
        store_dir = runner.dir
        bundle = replace(bundle, store=runner.result.store)
    else:
        store_dir = tmp / "store"
        publish_store(bundle, str(store_dir))
        probe = IngestRunner(world, tmp, docs[:PROBE_INGEST_DOCS])
        cold_stats = probe.cold().stats
        cycles = []
        for _ in range(3):
            cycle = probe.refresh()
            tally.add(1, 1 if cycle.problem else 0, cycle.problem)
            cycles.append(cycle)
        metrics.update(ingest_metrics(cold_stats, cycles))
        metrics.update(extraction_rates(world, probe.docs, tmp))

    questions = unique_questions(world, 256, stream=100)
    oracle = Oracle(
        EmbeddingStore.open(store_dir / EMBEDDINGS_DIR, mmap=False),
        world.encoder,
    )
    metrics.update(probe_text_encoder(world, questions))
    metrics.update(probe_store(bundle, store_dir, tmp))
    sharded = attach_retriever(bundle, store_dir, N_SHARDS)
    metrics.update(
        probe_shard(bundle, store_dir, sharded, oracle, questions, tally)
    )

    retriever, multihop, service = start_inproc(workload, bundle, store_dir)
    inproc = Stack(
        world=world, bundle=bundle, store_dir=store_dir,
        retriever=retriever, multihop=multihop, service=service,
    )
    fleet: Optional[Stack] = None
    loaded_tracer = Tracer()  # spans of the traced loaded rounds
    try:
        metrics.update(probe_retriever(retriever, sharded, questions))
        metrics.update(probe_multihop(bundle, retriever, questions))
        serve_metrics, inproc_throughput = probe_serve(
            workload, inproc, oracle, seconds / 3, tally, loaded_tracer
        )
        metrics.update(serve_metrics)
        if workload.target != "ingest":
            replay_requests(workload, inproc, tracer, workload.replay)
        net_metrics, fleet = probe_net(
            workload, spec, inproc, oracle, inproc_throughput, seconds, tmp,
            tally,
        )
        metrics.update(net_metrics)
        metrics.update(
            probe_client(
                workload,
                fleet if workload.target == "fleet" else inproc,
                seconds,
                tally,
            )
        )
    finally:
        inproc.close()
        if fleet is not None:
            fleet.close()
    metrics.update(trace_metrics(tracer, encode_calls))
    tracer.write(trace_path, loaded=loaded_tracer.spans[:20000])
    notes = tally.notes[:6] + [stage_shares(tracer)]
    return Outcome(
        metrics=metrics,
        attempted=tally.attempted,
        failed=tally.failed,
        notes=notes,
    )
