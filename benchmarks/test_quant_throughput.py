"""Micro-benchmark: int8-quantized coarse scoring + exact rescore at 100k.

Builds the same clustered 100k-document embedding world as the sharded
benchmark and runs one query set through two 16-shard plans probed in
full (no centroid pruning, so the comparison isolates the precision
policy):

* **exact** — float64 shard matrices, full float scoring per query (the
  ``Precision(mode="float64")`` cost model), and
* **quantized** — float32 matrices with the derived int8 copy: per query
  a chunked int8 coarse pass (~1 byte of DRAM traffic per matrix
  element), top-``RESCORE_WIDTH`` documents under the deterministic
  total order, then one exact float matmul over the survivors.

The size leg compares the bytes of the plan's int8 copy (rows + per-row
scales) to the float64-equivalent matrix bytes.

Gates (the acceptance bars from the precision-policy issue):

* int8 copy bytes <= 0.3x the float64 matrix bytes,
* quantized recall@10 >= 0.99x exact,
* quantized+rescore p50 latency strictly below the float64 exact p50.

Writes ``BENCH_quant.json`` next to this file. Marked ``perf`` +
``quant``; tier-1 (``testpaths = tests``) never collects it.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.precision import F32, F64
from repro.retriever.strategies import ScoreStrategy, l2_normalize_rows
from repro.shard import (
    ShardPlan,
    recall_at_k,
    topk_doc_order,
)
from repro.storage.atomic import atomic_write_json

pytestmark = [pytest.mark.perf, pytest.mark.quant]

N_DOCS = 100_000
DIM = 32
N_CENTERS = 64
N_SHARDS = 16
RESCORE_WIDTH = 128
N_QUERIES = 64
K = 10
SEED = 47
OUT_PATH = Path(__file__).parent / "BENCH_quant.json"

MAX_SIDECAR_RATIO = 0.3
MIN_RECALL_RATIO = 0.99


@pytest.fixture(scope="module")
def bench_setup():
    """(normalized doc matrix, normalized query matrix), clustered."""
    rng = np.random.RandomState(SEED)
    centers = l2_normalize_rows(rng.randn(N_CENTERS, DIM))
    labels = rng.randint(N_CENTERS, size=N_DOCS)
    docs = l2_normalize_rows(
        centers[labels] + 0.18 * rng.randn(N_DOCS, DIM)
    )
    anchors = rng.randint(N_DOCS, size=N_QUERIES)
    queries = l2_normalize_rows(
        docs[anchors] + 0.08 * rng.randn(N_QUERIES, DIM)
    )
    return docs, queries


def _run_exact(plan, queries, strategy):
    top_ids = []
    latencies = []
    for query in queries:
        start = time.perf_counter()
        result = plan.search(query[None, :], strategy)[0]
        order = topk_doc_order(result.scores, result.doc_ids, K)
        latencies.append(time.perf_counter() - start)
        top_ids.append(result.doc_ids[order])
    return top_ids, np.asarray(latencies)


def _run_quantized(plan, queries, strategy):
    top_ids = []
    latencies = []
    for query in queries:
        start = time.perf_counter()
        result = plan.search_quantized(
            query[None, :], strategy, RESCORE_WIDTH
        )[0]
        order = topk_doc_order(result.scores, result.doc_ids, K)
        latencies.append(time.perf_counter() - start)
        top_ids.append(result.doc_ids[order])
    return top_ids, np.asarray(latencies)


def test_quantized_rescore_speedup_recall_and_size(bench_setup):
    docs, queries = bench_setup
    doc_ids = np.arange(N_DOCS, dtype=np.int64)
    offsets = np.arange(N_DOCS, dtype=np.int64)  # one triple row per doc
    strategy = ScoreStrategy()

    exact_plan = ShardPlan.build(
        docs.astype(F64), doc_ids, offsets, N_SHARDS, mode="centroid"
    )
    quant_plan = ShardPlan.build(
        docs.astype(F32),
        doc_ids,
        offsets,
        N_SHARDS,
        mode="centroid",
        quantize=True,
    )
    assert quant_plan.quantized

    # warm both paths (first-touch page faults, BLAS thread spin-up)
    _run_exact(exact_plan, queries[:2], strategy)
    _run_quantized(quant_plan, queries[:2], strategy)

    exact_ids, exact_lat = _run_exact(exact_plan, queries, strategy)
    quant_ids, quant_lat = _run_quantized(quant_plan, queries, strategy)

    recalls = [
        recall_at_k(approx, exact)
        for approx, exact in zip(quant_ids, exact_ids)
    ]
    mean_recall = float(np.mean(recalls))
    exact_p50 = float(np.percentile(exact_lat, 50))
    quant_p50 = float(np.percentile(quant_lat, 50))

    # footprint of the int8 copy the plan derived (rows + row scales);
    # the JSON keys keep their historical "sidecar" name
    sidecar_bytes = sum(
        shard.q_matrix.nbytes + shard.q_scales.nbytes
        for shard in quant_plan.shards
    )
    float64_bytes = N_DOCS * DIM * F64.itemsize
    sidecar_ratio = sidecar_bytes / float64_bytes

    payload = {
        "n_docs": N_DOCS,
        "dim": DIM,
        "n_shards": N_SHARDS,
        "rescore_width": RESCORE_WIDTH,
        "n_queries": N_QUERIES,
        "k": K,
        "mean_recall_at_k": mean_recall,
        "min_recall_at_k": float(np.min(recalls)),
        "exact_p50_ms": exact_p50 * 1e3,
        "quant_p50_ms": quant_p50 * 1e3,
        "speedup_p50": exact_p50 / quant_p50 if quant_p50 else 0.0,
        "sidecar_bytes": int(sidecar_bytes),
        "float64_bytes": int(float64_bytes),
        "sidecar_ratio": sidecar_ratio,
    }
    atomic_write_json(OUT_PATH, payload, indent=2)
    print(
        f"\nquantized retrieval @ {N_DOCS} docs: float64 exact p50 "
        f"{exact_p50 * 1e3:.2f} ms, int8+rescore(R={RESCORE_WIDTH}) p50 "
        f"{quant_p50 * 1e3:.2f} ms ({payload['speedup_p50']:.1f}x), "
        f"recall@{K} {mean_recall:.3f}, sidecar "
        f"{sidecar_ratio:.2f}x float64 bytes"
    )
    # acceptance bars from the precision-policy issue
    assert sidecar_ratio <= MAX_SIDECAR_RATIO, payload
    assert mean_recall >= MIN_RECALL_RATIO * 1.0, payload
    assert quant_p50 < exact_p50, payload
