"""Table IV — one-hop PR@8 of learned retrievers.

Paper shape: Triple-Retriever (one-fact) is the best triple strategy —
one-fact > top2 > top5 — and beats the full-text dense baseline (TPR) on
total PR. The Sec. IV-D note (retrieval over raw T_o is worse than over
the constructed T_d) is asserted here too.
"""

import pytest

from repro.eval.experiments import run_table4, run_table4_union_ablation
from repro.eval.tables import format_table, row_from_scorecard


@pytest.fixture(scope="module")
def table4(ctx, trained_system):
    return run_table4(ctx)


def test_table4_one_hop_retrieval(ctx, table4, benchmark):
    question = ctx.eval_questions[0].text
    retriever = ctx.system.retriever
    benchmark(lambda: retriever.retrieve_many([question], k=8)[0])
    rows = [row_from_scorecard(name, card) for name, card in table4.items()]
    print()
    print(
        format_table(
            ["model", "bridge", "comparison", "total"],
            rows,
            title="Table IV — one-hop PR@8",
        )
    )
    one_fact = table4["Triple-Retriever"]
    top2 = table4["Triple-Retriever-top2"]
    top5 = table4["Triple-Retriever-top5"]
    tpr = table4["TPR"]
    # strategy ordering: one-fact >= top2 >= top5 (with noise tolerance)
    assert one_fact.total >= top2.total - 0.02
    assert top2.total >= top5.total - 0.05
    # the triple-level retriever beats the full-text dense encoder
    assert one_fact.total >= tpr.total - 0.02


def test_table4_union_set_ablation(ctx, trained_system, table4):
    """Sec. IV-D: one-fact over raw T_o loses to the constructed T_d."""
    union_card = run_table4_union_ablation(ctx)
    constructed = table4["Triple-Retriever"]
    print(
        f"\nT_o (raw union) PR@8 total: {union_card.total:.3f} vs "
        f"T_d (constructed): {constructed.total:.3f}"
    )
    # the 5 % bound in whole questions: as rates, 0.69 - 0.05 is
    # 0.6399..., and a 64-vs-69 row passed on that rounding alone
    n = len(constructed.outcomes)
    assert len(union_card.outcomes) == n
    union_hits = sum(o.hit for o in union_card.outcomes)
    constructed_hits = sum(o.hit for o in constructed.outcomes)
    assert 20 * (union_hits - constructed_hits) <= n
