"""Table V — document-path PEM@8 for the full systems.

Paper shape:
* Triple-fact Retrieval (reranked) >= Triple-fact Retrieval-base,
* both competitive with / above the dense and graph baselines on total,
* MDR collapses on bridge questions (full-text concatenation update) while
  staying strong on comparison,
* PathRetriever is relatively strong on comparison questions.
"""

import pytest

from repro.eval.experiments import run_table5
from repro.eval.tables import format_table, row_from_scorecard


@pytest.fixture(scope="module")
def table5(ctx, trained_system):
    return run_table5(ctx)


def test_table5_path_retrieval(ctx, table5, benchmark):
    question = ctx.eval_questions[0].text
    system = ctx.system
    benchmark.pedantic(
        lambda: system.retrieve_paths_many([question], k=8)[0],
        rounds=3,
        iterations=1,
    )
    rows = [row_from_scorecard(name, card) for name, card in table5.items()]
    print()
    print(
        format_table(
            ["model", "bridge", "comparison", "total"],
            rows,
            title="Table V — document-path PEM@8",
        )
    )
    full = table5["Triple-fact Retrieval"]
    base = table5["Triple-fact Retrieval-base"]
    mdr = table5["MDR"]
    # reranking helps (or at least does not hurt)
    assert full.total >= base.total - 0.03
    # MDR's bridge collapse: far below its own comparison score
    assert mdr.rate("bridge") < mdr.rate("comparison")
    # our full system beats MDR on bridge questions by a wide margin
    assert full.rate("bridge") > mdr.rate("bridge")


def test_table5_triple_fact_beats_dense_family(table5):
    """Triple-fact Retrieval beats every full-text dense/recursive system.

    PathRetriever is excluded from this comparison: on the synthetic
    corpus every gold bridge pair is hyperlinked by construction (links
    are generated from the same facts the questions query), so the
    hyperlink constraint acts as an oracle — whereas on real Wikipedia
    the missing-link failure mode the paper describes (Sec. V) caps it
    below the triple-fact model. See EXPERIMENTS.md.
    """
    full = table5["Triple-fact Retrieval"]
    for name in ("TPRR", "HopRetriever", "MDR"):
        other = table5[name]
        print(f"\nTriple-fact total {full.total:.3f} vs {name} {other.total:.3f}")
        assert full.total >= other.total - 0.02
