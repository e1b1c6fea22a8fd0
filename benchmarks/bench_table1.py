"""Table 1 — Bayesian belief adaptation after a failure suspicion."""

import pytest

from repro.core.bayesian import BeliefEstimator
from repro.experiments.registry import resolve_experiment
from repro.experiments.table1 import PAPER_AFTER_SUSPICION


def test_table1_regeneration(benchmark, record):
    table = benchmark(resolve_experiment("table1").run)
    record(
        "Table 1",
        "Bayesian failure-belief adaptation (Algorithm 5)",
        table,
        notes="paper values after suspicion: 0.04/0.12/0.20/0.28/0.36 — exact match",
    )
    after = table.column("P_B after suspicion")
    assert [round(b, 2) for b in after] == list(PAPER_AFTER_SUSPICION)


def test_belief_update_throughput(benchmark):
    """Micro: one Bayes update on the paper's U=100 estimator."""
    est = BeliefEstimator(100)

    def update():
        est.decrease_reliability(1)
        est.increase_reliability(1)

    benchmark(update)
    assert est.belief_sum() == pytest.approx(1.0)
