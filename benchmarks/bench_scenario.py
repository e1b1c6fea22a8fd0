"""Scenario engine — dynamic-environment protocol comparison benches.

Benchmarks the scenario subsystem end to end: the partition-heal
scenario across three protocols through a multi-worker campaign (the
table is asserted bit-identical to the serial run), and the cheap
non-adaptive protocol matrix to track raw trial throughput.  Trial
counts feed ``results/BENCH_scenarios.json`` via ``track_trials``, so
trials-per-second is comparable across commits.
"""

import os

from repro.experiments.campaign import Campaign
from repro.scenario.run import scenario_report


def test_scenario_partition_heal_parallel(benchmark, scale, track_trials):
    workers = max(2, min(4, os.cpu_count() or 1))
    protocols = ("adaptive", "optimal", "gossip")
    campaigns = []

    def run():
        campaign = Campaign(backend=f"process:{workers}")
        campaigns.append(campaign)
        return scenario_report(
            "partition-heal",
            protocols=protocols,
            scale=scale,
            trials=2,
            campaign=campaign,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    track_trials(campaigns[-1].executed)
    print()
    print(report.render())
    serial = scenario_report(
        "partition-heal", protocols=protocols, scale=scale, trials=2,
        campaign=Campaign(),
    )
    assert report.render() == serial.render()


def test_scenario_trial_throughput(benchmark, scale, track_trials):
    """Raw scenario-trial throughput on the cheap protocol stacks."""
    campaigns = []

    def run():
        campaign = Campaign()
        campaigns.append(campaign)
        return scenario_report(
            "churn-mill",
            protocols=("optimal", "gossip", "flooding"),
            scale=scale,
            trials=3,
            campaign=campaign,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    track_trials(campaigns[-1].executed)
    print()
    print(report.render())
    assert campaigns[-1].executed == 9


def test_scenario_cache_hit(benchmark, scale, tmp_path, track_trials):
    backend = f"serial+cache={tmp_path}"
    protocols = ("optimal", "flooding")
    warm = Campaign(backend=backend)
    scenario_report(
        "flash-crowd", protocols=protocols, scale=scale, trials=2,
        campaign=warm,
    )
    assert warm.executed > 0

    campaigns = []

    def rerun():
        campaign = Campaign(backend=backend)
        campaigns.append(campaign)
        return scenario_report(
            "flash-crowd", protocols=protocols, scale=scale, trials=2,
            campaign=campaign,
        )

    report = benchmark.pedantic(rerun, rounds=1, iterations=1)
    track_trials(campaigns[-1].cached)
    print()
    print(report.render())
    assert campaigns[-1].executed == 0
