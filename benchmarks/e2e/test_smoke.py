"""Smoke test of the end-to-end benchmark (marker ``perf``; not tier-1).

Runs every workload through ``run.py`` at a tenth of its size (at least 256
documents) with ``--seconds 3`` (rounds of 0.24 and 0.36 seconds), plain
and traced, and asserts that every metric ``BENCHMARK.json`` lists for that
mode is emitted with a finite value and that nothing failed. Two more tests
corrupt real single-hop and path responses and require the oracle to notice
each corruption.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -m perf
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from oracle import Oracle  # noqa: E402
from workloads import WORKLOADS, attach_retriever  # noqa: E402
from worlds import WorldSpec, build_world, make_bundle, unique_questions  # noqa: E402

from repro.ingest import EMBEDDINGS_DIR, EmbeddingStore  # noqa: E402
from repro.net import publish_store  # noqa: E402

pytestmark = pytest.mark.perf

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_listed_metric_is_emitted(workload, trace):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "5", "--seconds", "3",
            "--trace", str(trace), "--scale", "0.1",
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in listed}
    for entry in listed:
        measured = result["metrics"][entry["name"]]
        assert measured["unit"] == entry["unit"], entry["name"]
        assert math.isfinite(measured["value"]), entry["name"]


def test_workloads_match_the_contract():
    assert set(WORKLOADS) == {w["name"] for w in CONTRACT["workloads"]}


def test_a_corrupted_response_trips_the_oracle(tmp_path):
    world = build_world(WorldSpec(n_docs=96, seed=5))
    bundle = make_bundle(world)
    publish_store(bundle, str(tmp_path))
    retriever = attach_retriever(bundle, tmp_path, 0)
    oracle = Oracle(
        EmbeddingStore.open(tmp_path / EMBEDDINGS_DIR, mmap=False),
        world.encoder,
    )
    questions = unique_questions(world, 4, stream=1)
    honest = retriever.retrieve_many(questions, k=10)
    assert oracle.check_single(questions, honest, [True] * 4, 10).mismatched == 0

    swapped = [list(r) for r in honest]
    swapped[0][0], swapped[0][5] = swapped[0][5], swapped[0][0]
    rescored = [list(r) for r in honest]
    rescored[1][2] = dataclasses.replace(
        rescored[1][2], score=rescored[1][2].score + 1e-3
    )
    truncated = [list(r) for r in honest]
    truncated[2] = truncated[2][:9]
    intruder = [list(r) for r in honest]
    outside = next(
        d for d in range(96) if d not in {doc.doc_id for doc in honest[3]}
    )
    intruder[3][9] = dataclasses.replace(
        intruder[3][9], doc_id=outside, title=world.corpus[outside].title
    )
    for corrupted in (swapped, rescored, truncated, intruder):
        report = oracle.check_single(questions, corrupted, [True] * 4, 10)
        assert report.mismatched == 1, report.first_problem


def test_a_corrupted_path_response_trips_the_oracle(tmp_path):
    world = build_world(WorldSpec(n_docs=96, seed=5))
    bundle = make_bundle(world)
    publish_store(bundle, str(tmp_path))
    multihop = bundle.make_multihop(attach_retriever(bundle, tmp_path, 0))
    oracle = Oracle(
        EmbeddingStore.open(tmp_path / EMBEDDINGS_DIR, mmap=False),
        world.encoder,
    )
    questions = unique_questions(world, 3, stream=2)
    honest = multihop.retrieve_paths_batch(questions, k_paths=8)
    report = oracle.check_path_ranking(questions, honest, bundle, 8)
    assert report.mismatched == 0, report.first_problem
    assert report.mean_recall == 1.0

    def replaced(index, position, **changes):
        out = [list(paths) for paths in honest]
        out[index][position] = dataclasses.replace(
            out[index][position], **changes
        )
        return out

    best = honest[0][0]
    stranger = next(
        d for d in range(96)
        if all(d not in path.doc_ids for path in honest[0])
    )
    wrong_second_hop = replaced(0, 0, doc_ids=(best.doc_ids[0], stranger))
    wrong_hop_score = replaced(
        1, 3, hop_scores=(honest[1][3].hop_scores[0], 0.5)
    )
    best_path_missing = [list(paths) for paths in honest]
    del best_path_missing[2][0]
    for corrupted in (wrong_second_hop, wrong_hop_score, best_path_missing):
        report = oracle.check_path_ranking(questions, corrupted, bundle, 8)
        assert report.mismatched == 1, report.first_problem
