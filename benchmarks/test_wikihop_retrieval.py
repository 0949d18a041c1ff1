"""Wikihop — the paper's second dataset (Sec. IV-A).

The paper evaluates Wikihop with the same retriever setting it uses for
HotpotQA (after adding gold-document supervision). We measure the trained
system's hop-1 PR@8 and path PEM@8 over (subject, relation, ?) queries.
Shape: hop-1 recall is high (the query names the subject entity); path
PEM sits well below hop-1 (the relation word must bridge to the value
document) but far above chance.
"""

from repro.eval.experiments import run_wikihop


def test_wikihop_retrieval(ctx, trained_system, benchmark):
    cards = benchmark.pedantic(
        lambda: run_wikihop(ctx), rounds=1, iterations=1
    )
    n = len(cards["hop1_pr"].outcomes)
    hop1_pr, path_pem = cards["hop1_pr"].total, cards["path_pem"].total
    print(
        f"\nWikihop: n={n} "
        f"hop-1 PR@8={hop1_pr:.3f} "
        f"path PEM@8={path_pem:.3f}"
    )
    assert n > 0
    # the subject entity is named in the query: hop-1 must be strong
    assert hop1_pr >= 0.6
    # paths above the random-pair baseline (~2/N^2), far below hop-1
    assert path_pem > 0.02
    assert path_pem <= hop1_pr
