"""The ``repro bench`` runner: hot-path benchmarks + the regression gate.

Three layers of the system are measured, smallest to largest:

* **engine** — the discrete-event kernel alone (``bench_engine_events``):
  interleaved timer chains with cancellations, no network, no RNG.  The
  metric is raw ``events_per_s``.
* **network** — the per-message delivery path (``bench_network_delivery``):
  a relay workload pushing messages through ``Network.send`` with crash
  and loss draws enabled, measuring the full send→deliver event cost.
* **scenario / figure** — end-to-end trial throughput
  (``bench_scenario_trials``, ``bench_figure4a_cell``): seeded scenario
  and experiment-registry runs, measured in ``trials_per_s``.

:func:`run_benches` executes a selection at a chosen scale and returns a
machine-readable summary (schema below); :func:`write_summary` persists
it — by convention to the repo-root ``BENCH_core.json``, which is the
committed baseline the CI ``perf`` job compares fresh runs against via
:func:`compare_summaries` (relative-tolerance regression gate).

Summary schema (``SCHEMA_VERSION`` guards future shape changes)::

    {
      "schema": 1,
      "repro_version": "1.0.0",
      "scale": "quick",
      "python": "3.11.7",
      "platform": "Linux-...-x86_64",
      "repeats": 3,
      "benchmarks": {
        "<name>": {
          "wall_s": 0.42,          # best of `repeats` timed runs
          "events": 200000,        # simulation events executed (if any)
          "events_per_s": 476190.5,
          "trials": 8,             # seeded trials executed (if any)
          "trials_per_s": 19.05,
          "scale": "quick"
        }, ...
      }
    }

Every bench is a pure function of (scale, pinned seed): repeated runs
execute the identical event schedule, so wall-clock differences measure
the implementation, not the workload.
"""

from __future__ import annotations

import json
import math
import platform
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError

#: Bump when the summary shape changes incompatibly.
SCHEMA_VERSION = 1

#: Default committed-baseline filename (repo root by convention).
DEFAULT_SUMMARY = "BENCH_core.json"

#: Workload sizes per scale preset: (engine events, relay hops,
#: scenario trials, figure trials-per-point).
_SIZES: Dict[str, Tuple[int, int, int, int]] = {
    "quick": (200_000, 25_000, 2, 2),
    "default": (600_000, 80_000, 4, 4),
    "full": (2_000_000, 250_000, 8, 8),
}


def _sizes(scale_name: str) -> Tuple[int, int, int, int]:
    try:
        return _SIZES[scale_name]
    except KeyError:
        raise ValidationError(
            f"unknown bench scale {scale_name!r}; choose from {sorted(_SIZES)}"
        ) from None


# -- individual benches -------------------------------------------------------------


def bench_engine_events(scale_name: str) -> Dict[str, float]:
    """Pure kernel throughput: timer chains + cancellations, no network.

    Four interleaved self-rescheduling chains with co-prime periods plus
    a cancel-heavy chain that arms and cancels a decoy per firing — so
    the pop-skip-cancelled path is part of the measured loop.
    """
    from repro.sim.engine import Simulator

    total = _sizes(scale_name)[0]
    sim = Simulator()
    per_chain = total // 5
    state = {"fired": 0}

    def make_chain(period: float):
        remaining = [per_chain]

        def tick() -> None:
            state["fired"] += 1
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(period, tick)

        return tick

    def make_cancelling_chain(period: float):
        remaining = [per_chain]

        def tick() -> None:
            state["fired"] += 1
            remaining[0] -= 1
            decoy = sim.schedule(period * 0.5, lambda: None)
            decoy.cancel()
            if remaining[0] > 0:
                sim.schedule(period, tick)

        return tick

    for period, maker in (
        (1.0, make_chain),
        (1.7, make_chain),
        (2.3, make_chain),
        (3.1, make_chain),
        (1.3, make_cancelling_chain),
    ):
        sim.schedule(period, maker(period))

    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    events = sim.executed_events
    return {"wall_s": wall, "events": float(events)}


def bench_network_delivery(scale_name: str) -> Dict[str, float]:
    """Per-message path: Network.send with crash + loss draws enabled.

    A relay workload on a 24-node connectivity-6 graph: every delivered
    message is re-sent to all neighbours until its hop budget runs out,
    repeatedly re-seeded until the hop target is reached.  Exercises the
    crash-model, link-loss and latency draws plus delivery scheduling —
    the entire per-message hot path.
    """
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.process import SimProcess
    from repro.topology.configuration import Configuration
    from repro.topology.generators import k_regular
    from repro.util.rng import RandomSource

    hop_target = _sizes(scale_name)[1]
    graph = k_regular(24, 6)
    config = Configuration.uniform(graph, crash=0.02, loss=0.05)

    class Relay(SimProcess):
        def on_message(self, sender, payload) -> None:
            hops = payload
            if hops > 0:
                self.network.broadcast_to_neighbors(self.pid, hops - 1)

    sim = Simulator()
    network = Network(sim, config, RandomSource("bench-delivery"))
    relays = [Relay(p, network) for p in graph.processes]
    network.start()

    wave = [0]

    def seed_wave() -> None:
        origin = relays[wave[0] % len(relays)]
        wave[0] += 1
        origin.network.broadcast_to_neighbors(origin.pid, 4)
        if network.stats.sent() < hop_target:
            sim.schedule(5.0, seed_wave)

    sim.schedule(0.1, seed_wave)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "events": float(sim.executed_events),
        "messages": float(network.stats.sent()),
    }


def bench_scenario_trials(scale_name: str) -> Dict[str, float]:
    """End-to-end scenario trial throughput (partition-heal, adaptive+gossip)."""
    from repro.experiments.runner import current_scale
    from repro.scenario.registry import build_scenario
    from repro.scenario.trial import run_scenario_trial

    trials = _sizes(scale_name)[2]
    spec = build_scenario("partition-heal", current_scale(scale_name))
    start = time.perf_counter()
    executed = 0
    for protocol in ("adaptive", "gossip"):
        for trial in range(trials):
            run_scenario_trial(spec, protocol, trial)
            executed += 1
    wall = time.perf_counter() - start
    return {"wall_s": wall, "trials": float(executed)}


def bench_figure4a_cell(scale_name: str) -> Dict[str, float]:
    """One figure4a cell through the experiment registry (serial, uncached)."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.registry import resolve_experiment
    from repro.experiments.runner import current_scale

    trials = _sizes(scale_name)[3]
    spec = resolve_experiment("figure4a")
    campaign = Campaign()
    start = time.perf_counter()
    spec.run(
        scale=current_scale(scale_name),
        params={"crash": [0.03], "connectivity": [2, 4], "trials": [trials]},
        campaign=campaign,
    )
    wall = time.perf_counter() - start
    return {"wall_s": wall, "trials": float(campaign.executed)}


def bench_scenario_generate(scale_name: str) -> Dict[str, float]:
    """Scenario-generation throughput (specs sampled + validated)."""
    from repro.experiments.runner import current_scale
    from repro.scenario.generate import ScenarioGenerator

    counts = {"quick": 200, "default": 600, "full": 1500}
    count = counts.get(scale_name, 600)
    generator = ScenarioGenerator("bench", current_scale(scale_name))
    start = time.perf_counter()
    for index in range(count):
        generator.generate(index)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "trials": float(count)}


def bench_scenario_hunt(scale_name: str) -> Dict[str, float]:
    """Adversarial search throughput (tiny budget, serial, with shrink)."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.runner import current_scale
    from repro.scenario.adversarial import hunt

    budgets = {"quick": 3, "default": 6, "full": 12}
    budget = budgets.get(scale_name, 6)
    campaign = Campaign()
    start = time.perf_counter()
    hunt(
        "bench",
        budget,
        scale=current_scale(scale_name),
        top=2,
        trials=1,
        campaign=campaign,
    )
    wall = time.perf_counter() - start
    return {"wall_s": wall, "trials": float(campaign.executed)}


def bench_membership_exchange(scale_name: str) -> Dict[str, float]:
    """Peer-sampling exchange throughput: a standalone membership overlay.

    ``PeerSamplingService`` on every node of a connectivity-6 graph with
    crash + loss draws enabled, gossiping views for a fixed simulated
    horizon — the pure cost of the membership layer (exchange timers,
    view merges, CONTROL traffic) with no broadcast protocol on top.
    """
    from repro.membership.sampler import MembershipParams
    from repro.membership.service import PeerSamplingService
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.topology.configuration import Configuration
    from repro.topology.generators import k_regular
    from repro.util.rng import RandomSource

    sizes = {"quick": (64, 600.0), "default": (128, 1200.0), "full": (256, 2400.0)}
    n, horizon = sizes.get(scale_name, sizes["default"])
    graph = k_regular(n, 6)
    config = Configuration.uniform(graph, crash=0.02, loss=0.05)
    sim = Simulator()
    root = RandomSource("bench-membership")
    network = Network(sim, config, root)
    params = MembershipParams(view_size=8, exchange_period=5.0)
    services = [
        PeerSamplingService(p, network, params, rng=root)
        for p in graph.processes
    ]
    assert services
    network.start()
    start = time.perf_counter()
    sim.run(until=horizon)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "events": float(sim.executed_events)}


def bench_kv_replication(scale_name: str) -> Dict[str, float]:
    """Causal KV replication throughput on the hot-key-storm scenario.

    Full application-layer trials — gossip replication, vector-clock
    stamping, causal buffering, the KV metrics monitor — so the bench
    times the whole "what does the user see" path, not just the
    transport.
    """
    from repro.experiments.runner import current_scale
    from repro.kvstore.trial import run_kv_trial
    from repro.scenario.registry import build_scenario

    counts = {"quick": 2, "default": 4, "full": 8}
    trials = counts.get(scale_name, 4)
    spec = build_scenario("hot-key-storm", current_scale(scale_name))
    start = time.perf_counter()
    for trial in range(trials):
        run_kv_trial(spec, "gossip", trial)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "trials": float(trials)}


def bench_campaign_throughput(scale_name: str) -> Dict[str, float]:
    """Campaign engine + shard-queue overhead on a scenario trial grid.

    Streams the partition-heal protocols-x-trials grid through a
    Campaign on an in-process :class:`~repro.exec.ShardQueueBackend` —
    content-keyed sharding, steal scheduling and the incremental
    submission-order reorder buffer all included — so the bench times
    the execution layer exactly the way ``repro scenario run`` drives
    it, without multiprocessing spin-up noise.
    """
    from repro.exec import ShardQueueBackend
    from repro.experiments.campaign import Campaign
    from repro.scenario.run import compile_specs

    trials = _sizes(scale_name)[2]
    specs = compile_specs(
        "partition-heal", ("adaptive", "gossip"), scale_name, trials
    )
    campaign = Campaign(backend=ShardQueueBackend(workers=1, shards=4))
    start = time.perf_counter()
    results = campaign.run(specs)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "trials": float(len(results))}


#: Registered benches in execution order.
BENCHES: Dict[str, Callable[[str], Dict[str, float]]] = {
    "engine-events": bench_engine_events,
    "network-delivery": bench_network_delivery,
    "scenario-trials": bench_scenario_trials,
    "figure4a-cell": bench_figure4a_cell,
    "scenario-generate": bench_scenario_generate,
    "scenario-hunt": bench_scenario_hunt,
    "membership-exchange": bench_membership_exchange,
    "kv-replication": bench_kv_replication,
    "campaign-throughput": bench_campaign_throughput,
}


# -- the runner ---------------------------------------------------------------------


def _finish_record(raw: Dict[str, float], scale_name: str) -> Dict[str, object]:
    """Derive throughput metrics from a bench's raw measurements."""
    wall = raw["wall_s"]
    record: Dict[str, object] = {"wall_s": round(wall, 4), "scale": scale_name}
    events = raw.get("events")
    if events:
        record["events"] = int(events)
        record["events_per_s"] = round(events / wall, 1) if wall > 0 else None
    trials = raw.get("trials")
    if trials:
        record["trials"] = int(trials)
        record["trials_per_s"] = round(trials / wall, 3) if wall > 0 else None
    messages = raw.get("messages")
    if messages:
        record["messages"] = int(messages)
    return record


def run_benches(
    scale_name: str = "quick",
    repeats: int = 3,
    names: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run the selected benches; returns the machine-readable summary.

    Each bench runs ``repeats`` times and keeps the *fastest* run — the
    workload is deterministic, so the minimum is the cleanest estimate
    of the implementation's cost (slower repeats measure machine noise).
    """
    _sizes(scale_name)  # validate the scale before any work
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    selected = list(names) if names else list(BENCHES)
    unknown = [n for n in selected if n not in BENCHES]
    if unknown:
        raise ValidationError(
            f"unknown bench(es) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(BENCHES)}"
        )
    from repro import __version__

    benchmarks: Dict[str, object] = {}
    for name in BENCHES:
        if name not in selected:
            continue
        fn = BENCHES[name]
        best: Optional[Dict[str, float]] = None
        for _ in range(repeats):
            raw = fn(scale_name)
            if best is None or raw["wall_s"] < best["wall_s"]:
                best = raw
        assert best is not None
        benchmarks[name] = _finish_record(best, scale_name)
    return {
        "schema": SCHEMA_VERSION,
        "repro_version": __version__,
        "scale": scale_name,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "benchmarks": benchmarks,
    }


def write_summary(summary: Dict[str, object], path: str) -> None:
    """Persist a summary, merging over an existing file's other benches.

    A selective run (``--bench engine-events``) must not clobber the
    remaining entries of a full baseline; per-entry ``scale`` stamps keep
    merged mixed-scale files interpretable.  Top-level fields the new
    summary does not set (e.g. ``platform`` when the pytest-bench
    conftest merges in) survive from the previous file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        if not isinstance(previous, dict):
            previous = {}
    except (OSError, ValueError):
        previous = {}
    benchmarks = dict(previous.get("benchmarks", {}))
    benchmarks.update(summary["benchmarks"])
    merged = {**previous, **summary}
    merged["benchmarks"] = dict(sorted(benchmarks.items()))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_summary(summary: Dict[str, object]) -> str:
    """Human-readable table of one summary."""
    from repro.util.tables import render_table

    rows: List[List[object]] = []
    for name, record in sorted(summary["benchmarks"].items()):
        rows.append(
            [
                name,
                record.get("scale", "?"),
                record.get("wall_s"),
                record.get("events_per_s") or "-",
                record.get("trials_per_s") or "-",
            ]
        )
    title = (
        f"repro bench (scale {summary.get('scale', '?')}, "
        f"python {summary.get('python', '?')}, "
        f"best of {summary.get('repeats', '?')})"
    )
    return render_table(
        ["bench", "scale", "wall_s", "events/s", "trials/s"], rows, title=title
    )


# -- the regression gate ------------------------------------------------------------


def _throughput(record: Dict[str, object]) -> Tuple[str, float]:
    """The (metric name, value) a bench is gated on — higher is better."""
    for metric in ("events_per_s", "trials_per_s"):
        value = record.get(metric)
        if value:
            return metric, float(value)
    wall = record.get("wall_s")
    if wall:
        return "1/wall_s", 1.0 / float(wall)
    return "1/wall_s", math.nan


def load_summary(path: str) -> Dict[str, object]:
    """Read one summary file, validating the schema version."""
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    if not isinstance(summary, dict) or "benchmarks" not in summary:
        raise ValidationError(f"{path} is not a bench summary")
    schema = summary.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValidationError(
            f"{path} has bench-summary schema {schema!r}; "
            f"this build reads schema {SCHEMA_VERSION}"
        )
    return summary


def compare_summaries(
    baseline: Dict[str, object],
    current: Dict[str, object],
    max_regression: float = 0.25,
) -> Tuple[str, List[str]]:
    """Diff two summaries; returns (report text, regressed bench names).

    A bench regresses when its throughput falls below
    ``baseline * (1 - max_regression)``.  Only benches present in both
    summaries *at the same scale* gate; mismatched or missing entries are
    reported but never fail the comparison (a renamed bench must not
    brick the gate — refresh the baseline instead).
    """
    if not 0.0 <= max_regression < 1.0:
        raise ValidationError(
            f"max-regression must be in [0, 1), got {max_regression}"
        )
    from repro.util.tables import render_table

    base_benches: Dict[str, Dict[str, object]] = baseline["benchmarks"]
    cur_benches: Dict[str, Dict[str, object]] = current["benchmarks"]
    rows: List[List[object]] = []
    regressions: List[str] = []
    notes: List[str] = []
    for name in sorted(set(base_benches) | set(cur_benches)):
        base = base_benches.get(name)
        cur = cur_benches.get(name)
        if base is None or cur is None:
            notes.append(
                f"  note: {name} only in "
                f"{'current' if base is None else 'baseline'} — not gated"
            )
            continue
        if base.get("scale") != cur.get("scale"):
            notes.append(
                f"  note: {name} measured at different scales "
                f"({base.get('scale')} vs {cur.get('scale')}) — not gated"
            )
            continue
        metric, base_value = _throughput(base)
        cur_metric, cur_value = _throughput(cur)
        if cur_metric != metric or math.isnan(base_value) or math.isnan(cur_value):
            notes.append(f"  note: {name} has incomparable metrics — not gated")
            continue
        ratio = cur_value / base_value if base_value else math.inf
        regressed = ratio < (1.0 - max_regression)
        if regressed:
            regressions.append(name)
        rows.append(
            [
                name,
                metric,
                round(base_value, 1),
                round(cur_value, 1),
                f"{ratio:.2f}x",
                "REGRESSED" if regressed else "ok",
            ]
        )
    title = (
        f"bench compare (max regression {max_regression:.0%}: "
        f"fail below {1.0 - max_regression:.2f}x baseline throughput)"
    )
    report = render_table(
        ["bench", "metric", "baseline", "current", "ratio", "status"],
        rows,
        title=title,
    )
    if notes:
        report += "\n" + "\n".join(notes)
    verdict = (
        f"{len(regressions)} regression(s): {', '.join(regressions)}"
        if regressions
        else "no regressions"
    )
    return f"{report}\n\n{verdict}", regressions
