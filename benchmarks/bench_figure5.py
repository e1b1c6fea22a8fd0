"""Figure 5 — convergence effort of the adaptive protocol.

Regenerates both panels: 5(a) varies P with L=0; 5(b) varies L with P=0.
y = heartbeat messages per link until every process has learned the
reliability probabilities (see DESIGN.md §3 notes 3/5 for the criterion).

Expected shape (paper, n=100): a few hundred messages/link; the
zero-probability curves converge fastest (topology + trivial inference),
larger probabilities take longer, and in 5(b) the L=0.05 curve is the
slowest (links are numerous and lossy links are harder to pin down).
"""


from repro.experiments.registry import resolve_experiment

#: Trimmed value sets keep default runs in minutes; full scale uses the
#: paper's four curves per panel.
BENCH_CRASH_VALUES = {"quick": (0.0, 0.03), "default": (0.0, 0.01, 0.03)}
BENCH_LOSS_VALUES = {"quick": (0.0, 0.03), "default": (0.0, 0.01, 0.03)}


def _run(name, scale, variant, values):
    """Two trials per point; trimmed grid and curves at non-full scales."""
    params = {"trials": 2}
    if scale.name != "full":
        params["connectivity"] = [k for k in scale.connectivities if k <= 12]
        params[variant] = values[scale.name]
    return resolve_experiment(name).run(scale=scale, params=params)


def test_figure5a_crash_variant(benchmark, record, scale):
    table = benchmark.pedantic(
        lambda: _run("figure5a", scale, "crash", BENCH_CRASH_VALUES),
        rounds=1,
        iterations=1,
    )
    record(
        "Figure 5a",
        "messages/link until convergence (L=0, P varies)",
        table,
        notes="P=0 converges fastest; effort grows with P",
    )
    for name in table.columns[1:]:
        assert all(y is not None and y > 0 for y in table.column(name))
    zero = table.column("P=0")
    worst = table.column(table.columns[-1])
    assert min(zero) <= min(worst)


def test_figure5b_loss_variant(benchmark, record, scale):
    table = benchmark.pedantic(
        lambda: _run("figure5b", scale, "loss", BENCH_LOSS_VALUES),
        rounds=1,
        iterations=1,
    )
    record(
        "Figure 5b",
        "messages/link until convergence (P=0, L varies)",
        table,
        notes="paper: ~400 msgs/link at connectivity 6, L=0.05 (n=100)",
    )
    zero = table.column("L=0")
    worst = table.column(table.columns[-1])
    assert min(zero) <= min(worst)
