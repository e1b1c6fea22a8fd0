"""Extension benches: Section 7's future-work directions, implemented.

1. **Heterogeneous environments** — the paper predicts larger adaptive
   gains once failure probabilities differ across the system (Section 5
   used uniform probabilities "against" the adaptive algorithm).
2. **Dynamic belief resolution** — adaptive interval refinement vs the
   fixed U=100 estimator (precision per interval spent).
3. **Knowledge piggybacking** — Section 4.1's bandwidth optimisation:
   convergence with application traffic carrying snapshots.
"""


from repro.core.bayesian import BeliefEstimator
from repro.core.refinement import AdaptiveResolutionEstimator
from repro.experiments.registry import resolve_experiment
from repro.experiments.runner import QUICK, scaled
from repro.util.rng import RandomSource
from repro.util.tables import Series, SeriesTable

SCALE = scaled(QUICK, n=20, trials=10, calibration_trials=30, k_target=0.95)


def test_heterogeneous_environments(benchmark, record):
    table = benchmark.pedantic(
        lambda: resolve_experiment("heterogeneous").run(
            scale=SCALE, params={"loss": 0.05}
        ),
        rounds=1,
        iterations=1,
    )
    record(
        "Extension heterogeneity",
        "reference/optimal ratio: uniform vs heterogeneous loss, equal mean",
        table,
        notes="Section 7 prediction: the heterogeneous ratio should exceed "
        "the uniform one at matching connectivity",
    )
    connectivity = table.column(table.columns[0])
    uniform = dict(zip(connectivity, table.column("ratio (uniform L)")))
    hetero = dict(zip(connectivity, table.column("ratio (heterogeneous L)")))
    # at the densest measured connectivity the adaptive gain should be at
    # least as large in the heterogeneous environment
    densest = max(uniform)
    assert hetero[densest] >= uniform[densest] * 0.9


def test_dynamic_resolution(benchmark, record):
    """Refined estimator precision vs fixed estimators, same data."""

    def run():
        true_p = 0.03
        rng = RandomSource("bench-refine")
        observations = rng.bernoulli_array(true_p, 3000)
        estimators = {
            "fixed U=10": BeliefEstimator(10),
            "fixed U=100": BeliefEstimator(100),
            "refined (8->64)": AdaptiveResolutionEstimator(
                initial_intervals=8, max_intervals=64
            ),
        }
        for failed in observations:
            for est in estimators.values():
                if failed:
                    est.decrease_reliability(1)
                else:
                    est.increase_reliability(1)
        return {
            name: (abs(est.point_estimate() - true_p), est.intervals)
            for name, est in estimators.items()
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    table = SeriesTable(
        title="Extension - dynamic belief resolution (true p=0.03, 3000 obs)",
        x_label="estimator (0=U10, 1=U100, 2=refined)",
    )
    err = Series("abs error")
    size = Series("intervals used")
    for i, (name, (error, intervals)) in enumerate(results.items()):
        err.add(i, error)
        size.add(i, intervals)
    table.add_series(err)
    table.add_series(size)
    record("Extension resolution", "dynamic interval refinement accuracy", table)
    # refinement beats the coarse estimator and stays small
    assert results["refined (8->64)"][0] <= results["fixed U=10"][0] + 1e-9
    assert results["refined (8->64)"][1] <= 64


def test_piggybacking_convergence(benchmark, record):
    """Heartbeats+piggyback vs heartbeats alone, same horizon."""
    from repro.analysis.convergence import estimate_errors
    from repro.core.adaptive import AdaptiveBroadcast, AdaptiveParameters
    from repro.core.knowledge import KnowledgeParameters
    from repro.experiments.runner import make_network
    from repro.sim.monitors import BroadcastMonitor
    from repro.topology.configuration import Configuration
    from repro.topology.generators import k_regular

    graph = k_regular(16, 4)
    config = Configuration.uniform(graph, loss=0.03)

    def run_with(piggyback):
        network = make_network(config, ("piggy", piggyback))
        monitor = BroadcastMonitor(graph.n)
        params = AdaptiveParameters(
            knowledge=KnowledgeParameters(delta=1.0, intervals=100),
            piggyback_knowledge=piggyback,
        )
        nodes = [
            AdaptiveBroadcast(p, network, monitor, 0.95, params)
            for p in graph.processes
        ]
        network.start()
        # periodic application traffic exercises the piggyback path
        def publish():
            nodes[0].broadcast("tick")

        for t in range(20, 220, 20):
            network.sim.schedule(float(t), publish)
        network.sim.run(until=250.0)
        errors = estimate_errors(nodes[4].view, config)
        return errors["link_mae"]

    def run():
        return run_with(False), run_with(True)

    plain, piggy = benchmark.pedantic(run, rounds=1, iterations=1)
    table = SeriesTable(
        title="Extension - knowledge piggybacking (k=4, L=0.03, 250 ticks)",
        x_label="mode (0=heartbeats only, 1=+piggyback)",
    )
    series = Series("link estimate MAE at t=250")
    series.add(0, plain)
    series.add(1, piggy)
    table.add_series(series)
    record("Extension piggyback", "estimate error with piggybacked knowledge", table)
    # piggybacking adds information; it must not hurt convergence
    assert piggy <= plain * 1.25
