"""Ablation A — threshold size l of Algorithm 1 (paper Sec. IV-B).

The paper picked l=40 from an ablation over the trade-off between triple
set size and retrieval quality. Shape: retrieval quality is monotone
non-decreasing in l (more facts kept) while the set size grows, and the
marginal gain flattens well before the paper's l=40.
"""

from repro.eval.experiments import run_ablation_threshold
from repro.eval.tables import format_table


def test_ablation_threshold_l(ctx, benchmark):
    sweep = benchmark.pedantic(
        lambda: run_ablation_threshold(ctx, l_values=(3, 5, 10, 20, 40)),
        rounds=1,
        iterations=1,
    )
    rows = [
        (l, store.total_triples() / len(store), card.total)
        for l, store, card in sweep
    ]
    print()
    print(
        format_table(
            ["l", "mean |T_d|", "PR@10"],
            [[l, f"{size:.1f}", pr] for l, size, pr in rows],
            title="Ablation — Algorithm 1 threshold size l",
        )
    )
    sizes = [size for _, size, _ in rows]
    prs = [pr for _, _, pr in rows]
    # set size grows (weakly) with l
    assert all(a <= b + 1e-9 for a, b in zip(sizes, sizes[1:]))
    # quality at the largest budget >= tightest budget
    assert prs[-1] >= prs[0] - 0.02
    # the flattening: last step adds little over the mid-range
    assert prs[-1] - prs[2] <= 0.15
