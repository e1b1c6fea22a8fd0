"""Campaign runner — parallel fan-out and cache-hit fast path.

Benchmarks the campaign subsystem on the Figure 4(b) workload: a
multi-worker campaign must produce the exact table the serial backend
does (asserted, not assumed), and a warm cache must make regeneration
nearly free.  At ``full`` scale the parallel run is where the paper-
sized sweep (n=100, 10 connectivities, 200 calibration trials per
point) stops being an overnight job.
"""

import os

from repro.experiments.campaign import Campaign
from repro.experiments.registry import resolve_experiment


def _figure4b(scale, campaign):
    """Figure 4(b) at L=0.05, trimmed at non-full scales to stay brisk."""
    params = {"loss": [0.05]}
    if scale.name != "full":
        params["connectivity"] = [k for k in scale.connectivities if k <= 8]
    return resolve_experiment("figure4b").run(
        scale=scale, params=params, campaign=campaign
    )


def test_campaign_parallel_figure4(benchmark, record, scale):
    workers = max(2, min(4, os.cpu_count() or 1))
    campaigns = []

    def run():
        campaign = Campaign(backend=f"process:{workers}")
        campaigns.append(campaign)
        return _figure4b(scale, campaign)

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "Campaign parallel Figure 4b",
        f"figure4b L=0.05 via {workers}-worker campaign",
        table,
        notes=f"{campaigns[-1].executed} trials executed across {workers} workers",
    )
    # parallel execution must be bit-identical to the serial backend
    serial = _figure4b(scale, Campaign(backend="serial"))
    assert table.render() == serial.render()


def test_campaign_cache_hit(benchmark, record, scale, tmp_path):
    backend = f"serial+cache={tmp_path}"
    warm = Campaign(backend=backend)
    _figure4b(scale, warm)
    assert warm.executed > 0

    campaigns = []

    def rerun():
        campaign = Campaign(backend=backend)
        campaigns.append(campaign)
        return _figure4b(scale, campaign)

    table = benchmark.pedantic(rerun, rounds=1, iterations=1)
    record(
        "Campaign cache hit Figure 4b",
        "figure4b L=0.05 rebuilt entirely from the on-disk trial cache",
        table,
        notes=f"{campaigns[-1].cached} cache hits, {campaigns[-1].executed} executed",
    )
    assert campaigns[-1].executed == 0
