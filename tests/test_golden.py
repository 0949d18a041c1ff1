"""The tables golden: its diff, its canonical form and the committed file.

None of these train anything; ``benchmarks/test_tables_golden.py``
(marker ``tables``) is the test that regenerates the tables.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.hotpot import BRIDGE, COMPARISON, HotpotQuestion
from repro.eval import golden
from repro.eval.experiments import _add_paths
from repro.eval.golden import _artefact_digests, first_difference, render
from repro.eval.metrics import RetrievalScorecard
from repro.storage import atomic_write_json, atomic_write_npz

COMMITTED = Path(__file__).resolve().parents[1] / "benchmarks" / "TABLES.json"


def _small_golden():
    return {
        "artefacts": {"heads.npz": {"bias": "aaaaaaaaaaaa"}, "model.json": "bb"},
        "header": {"blas": "OpenBLAS x", "blas_core": "SkylakeX",
                   "machine": "x86_64", "numpy": "2.0", "scale": "small"},
        "questions": {"test": [7, 3, 9], "train": [1, 2]},
        "rows": {
            "Table IV TPR": {"bits": "101", "lists": ["a1", "b2", "c3"],
                             "split": "test"},
            "Table II train Text hop-1 PR@10": {"bits": "01", "split": "train"},
        },
        "stores": {"store": {"docs": ["d0", "d1", "d2"], "triples": 12}},
        "table1": {"test": {"bridge": 2, "comparison": 1, "total": 3}},
    }


class TestFirstDifference:
    def test_equal_goldens_have_none(self):
        assert first_difference(_small_golden(), _small_golden()) is None

    def test_a_question_bit_names_the_row_index_and_qid(self):
        moved = _small_golden()
        moved["rows"]["Table IV TPR"]["bits"] = "111"
        assert first_difference(_small_golden(), moved) == (
            "rows/Table IV TPR/bits: question 1 (qid 3): "
            "expected '0', got '1'"
        )

    def test_a_ranked_list_digest_names_its_question(self):
        moved = _small_golden()
        moved["rows"]["Table IV TPR"]["lists"][2] = "zz"
        message = first_difference(_small_golden(), moved)
        assert message.startswith(
            "rows/Table IV TPR/lists: question 2 (qid 9):"
        )

    def test_a_train_row_reads_the_train_qids(self):
        moved = _small_golden()
        moved["rows"]["Table II train Text hop-1 PR@10"]["bits"] = "00"
        assert "question 1 (qid 2)" in first_difference(_small_golden(), moved)

    def test_a_document_digest_names_the_store_and_doc_id(self):
        moved = _small_golden()
        moved["stores"]["store"]["docs"][2] = "dX"
        assert first_difference(_small_golden(), moved) == (
            "stores/store/docs: doc id 2: expected 'd2', got 'dX'"
        )

    def test_a_header_field_is_named(self):
        moved = _small_golden()
        moved["header"]["blas"] = "OpenBLAS y"
        assert first_difference(_small_golden(), moved) == (
            "header/blas: expected 'OpenBLAS x', got 'OpenBLAS y'"
        )

    def test_a_different_kernel_is_named_before_what_it_moved(self):
        moved = _small_golden()
        moved["header"]["blas_core"] = "Haswell"
        moved["rows"]["Table IV TPR"]["lists"][2] = "zz"
        moved["artefacts"]["heads.npz"]["bias"] = "cccccccccccc"
        assert first_difference(_small_golden(), moved) == (
            "header/blas_core: expected 'SkylakeX', got 'Haswell'"
        )

    def test_an_artefact_array_is_named(self):
        moved = _small_golden()
        moved["artefacts"]["heads.npz"]["bias"] = "cccccccccccc"
        assert first_difference(_small_golden(), moved).startswith(
            "artefacts/heads.npz/bias:"
        )

    def test_a_missing_row_is_named(self):
        moved = _small_golden()
        del moved["rows"]["Table IV TPR"]
        assert first_difference(_small_golden(), moved) == (
            "rows/Table IV TPR: expected {'bits': '101', 'lists': "
            "['a1', 'b2', 'c3'], 'split': 'test'}, got <missing>"
        )

    def test_a_shorter_row_names_its_first_missing_question(self):
        moved = _small_golden()
        moved["rows"]["Table IV TPR"]["bits"] = "10"
        assert first_difference(_small_golden(), moved) == (
            "rows/Table IV TPR/bits: question 2 (qid 9): "
            "expected '1', got <missing>"
        )


class TestRender:
    def test_sorted_keys_one_value_per_line(self):
        text = render({"b": [1, 2], "a": {"y": "s", "x": 0}})
        assert text == (
            '{\n "a": {\n  "x": 0,\n  "y": "s"\n },\n'
            ' "b": [\n  1,\n  2\n ]\n}\n'
        )

    @pytest.mark.parametrize("value", [0.5, True, None])
    def test_only_ints_and_strings(self, value):
        with pytest.raises(TypeError, match="^/rows/x/1: "):
            render({"rows": {"x": [1, value]}})


class TestCommittedGolden:
    @pytest.fixture(scope="class")
    def committed(self):
        return COMMITTED.read_text(encoding="utf-8")

    def test_canonical_ints_and_strings_only(self, committed):
        assert render(json.loads(committed)) == committed

    def test_every_row_scores_its_whole_question_list(self, committed):
        record = json.loads(committed)
        for name, row in record["rows"].items():
            n = len(record["questions"][row["split"]])
            assert len(row["bits"]) == n, name
            assert set(row["bits"]) <= {"0", "1"}, name
            for per_question in ("lists", "stages"):
                assert len(row.get(per_question, row["bits"])) == n, name

    def test_table5_stages_account_for_every_miss(self, committed):
        rows = json.loads(committed)["rows"]
        table5 = {k: v for k, v in rows.items() if k.startswith("Table V ")}
        assert len(table5) == 6
        for name, row in table5.items():
            stages = row.get("stages", [""] * len(row["bits"]))
            for bit, stage in zip(row["bits"], stages):
                assert (bit == "1") == (stage == ""), name
                kind = stage.partition(":")[0]
                assert kind in ("", "hop1", "clue", "hop2", "rank"), name
                if kind == "clue":
                    assert name.startswith("Table V Triple-fact"), name
                    assert int(stage.partition(":")[2]) >= 1, name

    def test_every_store_digests_every_document(self, committed):
        record = json.loads(committed)
        sizes = {len(store["docs"]) for store in record["stores"].values()}
        assert len(sizes) == 1


def _question(qtype, gold):
    return HotpotQuestion(qid=0, text="q", qtype=qtype, gold_titles=gold,
                          answer="")


class TestTable5Stages:
    @pytest.mark.parametrize(
        "candidates, top, clue, stage",
        [
            ([("A", "B")], [("A", "B")], "clue:2", ""),  # a hit
            ([("X", "A"), ("Y", "B")], [("X", "A")], "", "hop1"),
            ([("A", "X")], [("A", "X")], "clue:3", "clue:3"),
            ([("A", "X"), ("B", "Y")], [("A", "X")], "", "hop2"),
            ([("A", "X"), ("B", "A")], [("A", "X")], "", "rank"),
        ],
    )
    def test_first_stage_that_lost_the_question(self, candidates, top,
                                                 clue, stage):
        card = RetrievalScorecard()
        _add_paths(card, _question(BRIDGE, ["A", "B"]), top, candidates,
                   clue)
        (outcome,) = card.outcomes
        assert outcome.stage == stage
        assert outcome.hit == (stage == "")
        assert outcome.ranked == tuple(top)

    def test_a_comparison_question_may_open_with_either_document(self):
        card = RetrievalScorecard()
        candidates = [("X", "Y"), ("B", "A")]
        _add_paths(card, _question(COMPARISON, ["A", "B"]), candidates[:1],
                   candidates)
        assert card.outcomes[0].stage == "rank"


class _SavesTwoFiles:
    """Writes one JSON file and one ``.npz`` archive, like ``save``."""

    def save(self, directory):
        atomic_write_json(Path(directory) / "model.json", {"format": 1})
        atomic_write_npz(Path(directory) / "heads.npz",
                         {"w": np.arange(3.0), "b": np.zeros(1)})


class TestBlasCore:
    def test_names_the_kernel_in_use(self):
        core = golden._blas_core()
        assert core and core.isprintable()

    def test_unknown_without_the_library(self, monkeypatch):
        def no_library(path):
            raise OSError(path)

        monkeypatch.setattr(golden.ctypes, "CDLL", no_library)
        assert golden._blas_core() == "unknown"


def test_artefacts_are_digested_per_file_and_per_array():
    digests = _artefact_digests(_SavesTwoFiles())
    assert sorted(digests) == ["heads.npz", "model.json"]
    assert sorted(digests["heads.npz"]) == ["b", "w"]
    assert _artefact_digests(_SavesTwoFiles()) == digests
