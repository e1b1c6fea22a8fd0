"""Figure 1 — adaptive vs traditional gossip message ratio (analytic).

Regenerates the ``k1/k0`` curves for L in {1e-2, 1e-3, 1e-4} over
alpha in [1, 10] and benchmarks the closed-form computation.
"""

import pytest

from repro.analysis.two_paths import simulate_two_paths
from repro.experiments.registry import resolve_experiment
from repro.util.rng import RandomSource


def test_figure1_regeneration(benchmark, record):
    table = benchmark(resolve_experiment("figure1").run)
    record(
        "Figure 1",
        "two-path adaptive/gossip message ratio k1/k0 vs alpha",
        table,
        notes=(
            "closed form k1/k0 = 0.5*log_L(alpha) + 1 (Appendix A); "
            "paper anchors: ratio 1.0 at alpha=1, ~0.875 at alpha=10/L=1e-4"
        ),
    )
    l4 = dict(zip(table.column("alpha"), table.column("L=0.0001")))
    assert l4[10.0] == pytest.approx(0.875, abs=1e-3)


def test_figure1_monte_carlo_crosscheck(benchmark):
    """The analytic curve is validated by simulation at one point."""

    def simulate():
        return simulate_two_paths(
            0.01, 4.0, 6, "gossip", RandomSource("bench-fig1"), trials=5000
        )

    simulated = benchmark(simulate)
    from repro.analysis.two_paths import gossip_reach

    assert simulated == pytest.approx(gossip_reach(0.01, 4.0, 6), abs=0.01)
