"""Unit tests for the experiment harness, table runners and formatting."""

import numpy as np
import pytest

from repro.data.world import WorldConfig
from repro.encoder.minibert import EncoderConfig
from repro.eval.experiments import (
    loglog_slope,
    run_ablation_hac,
    run_ablation_threshold,
    run_table1,
    run_table2,
    run_table3,
)
from repro.eval.harness import ExperimentContext, ExperimentScale, current_scale
from repro.eval.tables import format_cell, format_table, row_from_scorecard
from repro.eval.metrics import RetrievalScorecard

TINY_SCALE = ExperimentScale(
    name="tiny",
    world=WorldConfig(
        n_persons=14,
        n_clubs=5,
        n_bands=5,
        n_cities=6,
        n_countries=2,
        n_companies=3,
        n_films=3,
        n_universities=2,
        n_awards=2,
        seed=3,
    ),
    comparison_per_kind=3,
    n_eval=25,
    encoder=EncoderConfig(dim=16, n_layers=1, n_heads=2, max_len=24),
)


@pytest.fixture(scope="module")
def tiny_ctx():
    return ExperimentContext(TINY_SCALE)


class TestContext:
    def test_lazy_components_cached(self, tiny_ctx):
        assert tiny_ctx.corpus is tiny_ctx.corpus
        assert tiny_ctx.store is tiny_ctx.store
        assert tiny_ctx.linker is tiny_ctx.linker

    def test_extractor_stores(self, tiny_ctx):
        minie = tiny_ctx.extractor_store("minie")
        stanford = tiny_ctx.extractor_store("stanford")
        assert len(minie) == len(tiny_ctx.corpus)
        assert minie is not stanford

    def test_lexical_has_all_fields(self, tiny_ctx):
        index = tiny_ctx.lexical.index
        for name in ("text", "triples", "minie_triples", "stanford_triples"):
            index.search("club", field=name, k=1)  # KeyError if never indexed

    def test_unknown_baseline_rejected(self, tiny_ctx):
        with pytest.raises(ValueError):
            tiny_ctx.baseline("nope")

    def test_current_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert current_scale().name == "full"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        assert current_scale().name == "small"


class TestTableRunners:
    def test_table1(self, tiny_ctx):
        stats = run_table1(tiny_ctx)
        assert stats["train"]["total"] > 0

    def test_table2_structure(self, tiny_ctx):
        result = run_table2(tiny_ctx)
        for split in ("train", "test"):
            for field in ("text", "triples"):
                cards = result[split][field]
                assert 0.0 <= cards["hop1_pr"].total <= 1.0
                assert 0.0 <= cards["hop2_pem"].total <= 1.0

    def test_table3_structure(self, tiny_ctx):
        result = run_table3(tiny_ctx)
        assert set(result["train"]) == {
            "triples",
            "minie_triples",
            "stanford_triples",
        }

    def test_ablation_threshold_monotone_sizes(self, tiny_ctx):
        sweep = run_ablation_threshold(tiny_ctx, l_values=(2, 6, 12), k=8)
        sizes = [size for _, size, _ in sweep]
        assert sizes == sorted(sizes)

    def test_ablation_hac_timings(self):
        timings = run_ablation_hac(sizes=(8, 16), threshold=4)
        assert len(timings["hac"]) == 2
        assert all(t >= 0 for _, t in timings["hac"])

    def test_loglog_slope_on_known_data(self):
        points = [(10, 10.0**2), (100, 100.0**2), (1000, 1000.0**2)]
        assert loglog_slope(points) == pytest.approx(2.0, abs=1e-6)


class TestTableFormatting:
    def test_format_cell_percentage(self):
        assert format_cell(0.5) == "50.0%"

    def test_format_cell_large_float(self):
        assert format_cell(12.345) == "12.35"

    def test_format_cell_string(self):
        assert format_cell("abc") == "abc"

    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 0.5], ["bb", 1.0]])
        lines = table.split("\n")
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_table_title(self):
        table = format_table(["x"], [[1]], title="My Table")
        assert table.startswith("My Table")

    def test_row_from_scorecard(self):
        card = RetrievalScorecard()
        card.add("bridge", True)
        card.add("comparison", False)
        row = row_from_scorecard("model", card)
        assert row == ["model", 1.0, 0.0, 0.5]
