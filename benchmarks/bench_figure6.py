"""Figure 6 — scalability: convergence effort vs system size.

Regenerates the ring-vs-random-tree comparison.  Expected shape (paper,
n=100..240): the ring's messages/link grows roughly linearly with n
(information traverses ~n/2 hops), while random trees stay nearly flat.
"""


from repro.experiments.registry import resolve_experiment


def test_figure6_scalability(benchmark, record, scale):
    table = benchmark.pedantic(
        lambda: resolve_experiment("figure6").run(
            scale=scale, params={"trials": 2}
        ),
        rounds=1,
        iterations=1,
    )
    record(
        "Figure 6",
        "messages/link until convergence vs number of processes",
        table,
        notes="ring grows with n; random tree stays nearly constant",
    )
    ring = table.column("ring")
    tree = table.column("tree")
    # ring effort grows from the smallest to the largest system
    assert ring[-1] > ring[0]
    # at the largest size, the ring costs more than the tree
    assert ring[-1] > tree[-1]
    # the tree curve grows much slower than the ring curve
    ring_growth = ring[-1] / ring[0]
    tree_growth = tree[-1] / max(tree[0], 1e-9)
    assert tree_growth < ring_growth
