#!/usr/bin/env python3
"""The repository benchmark: one workload, end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload converge --seed 0 --seconds 30 --trace 0

``--workload`` is one of ``converge``, ``disseminate`` and ``scenarios``
(see ``workloads.py`` and ``README.md``).  One process drives a serial
:class:`~repro.experiments.campaign.Campaign` in a closed loop: set-up,
then at least ``workloads.MIN_ROUNDS`` whole rounds of trials, ending
at the round boundary nearest to ``--seconds``, then the output check.

``--trace 0`` reports the end-to-end metrics, every time at
reference-host speed (``speed.py`` times a fixed reference slice all
through set-up and the loop).  ``--trace 1`` runs
``TRACE_ROUNDS`` rounds with the per-layer wrappers of ``tracer.py``
installed, removes them, replays the same rounds untraced and requires
identical results; it reports the per-layer metrics.  Every run prints
a readable summary, writes its full record (environment stamp included)
under ``.perfbench/`` and ends with one JSON line::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

The benchmark imports ``repro`` only from ``src/`` of the checkout it
runs in, and exits with status 2 when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")

#: The seed whose trial results are pinned in ``pins.json``.
DEFAULT_SEED = 0

#: Rounds of a traced run: fixed, so its counts repeat exactly from run
#: to run (two traced rounds take about ``run_seconds`` on the reference
#: host; see README.md).
TRACE_ROUNDS = 2

#: Set-up (spec and graph construction plus warm-up) repeats per run;
#: ``setup_s`` adds the import time to their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit, in report order.
PER_LAYER_UNITS = {
    "core.viewtable.merges": "count",
    "core.viewtable.merge_s": "s",
    "core.viewtable.merge_us": "us",
    "core.viewtable.snapshots": "count",
    "core.viewtable.snapshot_s": "s",
    "core.viewtable.snapshot_bytes": "bytes",
    "core.viewtable.sweep_s": "s",
    "core.viewtable.rows_scanned": "count",
    "core.viewtable.rows_changed": "count",
    "core.viewtable.merge_useful_ratio": "ratio",
    "core.adaptive.callback_s": "s",
    "analysis.convergence.polls": "count",
    "analysis.convergence.poll_s": "s",
    "sim.engine.events": "count",
    "sim.engine.schedules": "count",
    "sim.engine.self_s": "s",
    "sim.engine.timer_s": "s",
    "sim.engine.ns_per_event": "ns",
    "sim.network.sends": "count",
    "sim.network.send_s": "s",
    "sim.network.deliveries": "count",
    "sim.network.deliver_s": "s",
    "sim.network.build_s": "s",
    "sim.network.start_s": "s",
    "sim.trace.records": "count",
    "sim.trace.record_s": "s",
    "util.rng.streams": "count",
    "util.rng.stream_s": "s",
    "protocols.callbacks": "count",
    "protocols.callback_s": "s",
    "topology.build_s": "s",
    "protocols.registry.deploy_s": "s",
    "core.mrt.calls": "count",
    "core.mrt.s": "s",
    "core.optimize.calls": "count",
    "core.optimize.s": "s",
    "membership.exchanges": "count",
    "membership.exchange_s": "s",
    "sim.dynamics.events": "count",
    "sim.dynamics.apply_s": "s",
    "kvstore.ops": "count",
    "kvstore.holdback_peak": "count",
    "kvstore.s": "s",
    "experiments.campaign.trials": "count",
    "experiments.campaign.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


# -- environment --------------------------------------------------------------------------


def git_commit(root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    """SHA-256 over the package's ``.py`` files (path and content)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def current_rss_bytes() -> Optional[int]:
    """Resident set size now (Linux ``/proc/self/statm``), or None."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


def peak_rss_bytes() -> int:
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


def import_program() -> Optional[str]:
    """Make ``repro`` (from ``src/`` only) and the benchmark importable.

    Returns an error message when the checkout has no sources.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return f"no repro package under {SRC}"
    sys.path[:0] = [SRC, BENCH_DIR]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        return f"repro imported from {repro.__file__}, not {SRC}"
    return None


# -- output check -------------------------------------------------------------------------


def spec_id(spec) -> str:
    """Identity of a trial: its function and parameters (code-version free)."""
    payload = json.dumps({"fn": spec.fn, "params": dict(spec.params)}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def result_digest(result: Dict[str, float]) -> str:
    """Exact digest of a result dict (``repr`` of every float)."""
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()[:24]


def invariant_problem(result: Optional[Dict[str, float]]) -> Optional[str]:
    """The first invariant a trial result breaks, or None."""
    if result is None:
        return "raised"
    for name, value in result.items():
        if value != value:
            return f"{name} is NaN"
    ratio = result.get("delivery_ratio")
    if ratio is not None and not 0.0 <= ratio <= 1.0:
        return f"delivery_ratio {ratio} outside [0, 1]"
    if "data_messages" in result and "total_messages" in result:
        if result["data_messages"] > result["total_messages"]:
            return "data_messages > total_messages"
    effort = result.get("messages_per_link")
    if effort is not None and not (math.isfinite(effort) and effort > 0.0):
        return f"messages_per_link {effort} not finite and positive"
    rounds = result.get("rounds")
    if rounds is not None and not (rounds >= 1.0 and rounds == int(rounds)):
        return f"calibrated rounds {rounds} not a positive integer"
    if result.get("messages", 0.0) < 0.0:
        return "negative message count"
    return None


def load_pins() -> Dict[str, str]:
    try:
        with open(PINS_PATH) as fh:
            return json.load(fh)["digests"]
    except FileNotFoundError:
        return {}


# -- measurement --------------------------------------------------------------------------


def make_backend():
    """A serial backend that times every trial and survives failures."""
    from repro.exec import SerialBackend
    from repro.experiments import campaign as campaign_module

    class TimedSerialBackend(SerialBackend):
        """Serial execution, one trial after another, each one timed.

        ``log`` collects ``(spec, (start, end), result)`` with perf-counter
        times; a trial that raises is logged with result None and yields
        an empty dict, so the closed loop keeps running and the failure is
        counted.
        """

        def __init__(self) -> None:
            super().__init__()
            self.log: List[
                Tuple[object, Tuple[float, float], Optional[Dict[str, float]]]
            ] = []

        def submit(self, specs):
            for spec in specs:
                start = perf_counter()
                try:
                    # looked up per call, so a traced run times the wrapper
                    result = campaign_module.execute_spec(spec)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    result = None
                self.log.append((spec, (start, perf_counter()), result))
                yield spec, ({} if result is None else result)

    return TimedSerialBackend()


def run_rounds(workload, campaign, seed: int, seconds: float, min_rounds: int):
    """Closed loop of whole rounds.

    After ``min_rounds``, another round starts only while the run would
    end nearer to ``seconds`` with it than without it, so a run measures
    about ``seconds`` and always whole rounds.

    Each round ends with a full garbage collection, timed as part of the
    round.  Left to the collector's thresholds, the oldest generation is
    collected about once in three rounds, and the resident peak after a
    fixed number of rounds read either 2.3 MB or 5 MB (``scenarios``)
    depending on whether that collection had happened yet.

    Returns the rounds' perf-counter intervals, the aggregation problems
    and the peak resident bytes after the first ``min_rounds`` rounds (the
    same work in every run, however many rounds follow).
    """
    from workloads import trial_index

    problems: List[str] = []
    spans: List[Tuple[float, float]] = []
    peak = 0
    start = perf_counter()
    while len(spans) < min_rounds or (
        perf_counter() - start + statistics.mean(t1 - t0 for t0, t1 in spans) / 2
        < seconds
    ):
        round_start = perf_counter()
        problems += workload.run_round(campaign, trial_index(seed, len(spans)))
        gc.collect()
        spans.append((round_start, perf_counter()))
        if len(spans) == min_rounds:
            peak = peak_rss_bytes()
    return spans, problems, peak


def percentile(values: Sequence[float], pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), pct))


def tail_mean(values: Sequence[float], pct: float) -> float:
    """Mean of the slowest ``100 - pct`` percent of ``values``.

    The last sample counts with the fraction that falls inside the
    share, so every round of a workload weighs the same however many
    rounds a run completes.
    """
    ordered = sorted(values, reverse=True)
    share = (100.0 - pct) / 100.0 * len(ordered)
    whole = int(math.floor(share))
    total = sum(ordered[:whole])
    if whole < len(ordered):
        total += (share - whole) * ordered[whole]
    return total / share


def layer_metrics(
    spans: Dict[str, Tuple[int, float]],
    counters: Dict[str, float],
    traced_wall: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run, from its span breakdown."""
    from tracer import EVENT_NAMES, INSTRUMENT, LAYER_OF

    def calls(*names: str) -> int:
        return sum(spans.get(name, (0, 0.0))[0] for name in names)

    def own(*names: str) -> float:
        return sum(spans.get(name, (0, 0.0))[1] for name in names)

    def per(total: float, count: int, scale: float) -> float:
        return total / count * scale if count else 0.0

    merges = calls("core.viewtable.merge")
    events = calls(*EVENT_NAMES)
    engine_s = own("sim.engine.run")
    scanned = counters["core.viewtable.rows_scanned"]
    changed = counters["core.viewtable.rows_changed"]
    layered = sum(s for name, (_, s) in spans.items() if name in LAYER_OF)
    program_wall = traced_wall - own(INSTRUMENT)
    return {
        "core.viewtable.merges": merges,
        "core.viewtable.merge_s": own("core.viewtable.merge"),
        "core.viewtable.merge_us": per(own("core.viewtable.merge"), merges, 1e6),
        "core.viewtable.snapshots": calls("core.viewtable.snapshot"),
        "core.viewtable.snapshot_s": own("core.viewtable.snapshot"),
        "core.viewtable.snapshot_bytes": counters["core.viewtable.snapshot_bytes"],
        "core.viewtable.sweep_s": own("core.viewtable.sweep"),
        "core.viewtable.rows_scanned": scanned,
        "core.viewtable.rows_changed": changed,
        "core.viewtable.merge_useful_ratio": changed / scanned if scanned else 0.0,
        "core.adaptive.callback_s": own("core.adaptive.callback", "core.adaptive.event"),
        "analysis.convergence.polls": calls("analysis.convergence.poll"),
        "analysis.convergence.poll_s": own(
            "analysis.convergence.poll", "analysis.convergence.check"
        ),
        "sim.engine.events": events,
        "sim.engine.schedules": counters["sim.engine.schedules"],
        "sim.engine.self_s": engine_s,
        "sim.engine.timer_s": own("sim.engine.timer"),
        "sim.engine.ns_per_event": per(engine_s, events, 1e9),
        "sim.network.sends": calls("sim.network.send"),
        "sim.network.send_s": own("sim.network.send"),
        "sim.network.deliveries": calls("sim.network.deliver"),
        "sim.network.deliver_s": own("sim.network.deliver"),
        "sim.network.build_s": own("sim.network.build"),
        "sim.network.start_s": own("sim.network.start"),
        "sim.trace.records": calls("sim.trace.record"),
        "sim.trace.record_s": own("sim.trace.record"),
        "util.rng.streams": calls("util.rng.stream"),
        "util.rng.stream_s": own("util.rng.stream"),
        "protocols.callbacks": calls("protocols.callback"),
        "protocols.callback_s": own("protocols.callback", "protocols.event"),
        "topology.build_s": own("topology.build"),
        "protocols.registry.deploy_s": own("protocols.registry.deploy"),
        "core.mrt.calls": calls("core.mrt"),
        "core.mrt.s": own("core.mrt"),
        "core.optimize.calls": calls("core.optimize"),
        "core.optimize.s": own("core.optimize"),
        "membership.exchanges": calls("membership.exchange"),
        "membership.exchange_s": own(
            "membership.exchange", "membership.handle", "membership.event"
        ),
        "sim.dynamics.events": calls("sim.dynamics.apply"),
        "sim.dynamics.apply_s": own("sim.dynamics.apply"),
        "kvstore.ops": calls("kvstore.op"),
        "kvstore.holdback_peak": counters["kvstore.holdback_peak"],
        "kvstore.s": own("kvstore.op", "kvstore.deliver", "kvstore.event"),
        "experiments.campaign.trials": calls("experiments.trial"),
        "experiments.campaign.overhead_s": own("experiments.campaign.run"),
        "trace.coverage": layered / program_wall if program_wall > 0 else 0.0,
        "trace.overhead": traced_wall / untraced_wall if untraced_wall > 0 else 0.0,
    }


def layer_shares(spans: Dict[str, Tuple[int, float]]) -> Dict[str, float]:
    """Share of all layered self time per layer (the breakdown table)."""
    from tracer import LAYER_OF, LAYERS

    totals = dict.fromkeys(LAYERS, 0.0)
    for name, (_, seconds) in spans.items():
        if name in LAYER_OF:
            totals[LAYER_OF[name]] += seconds
    grand = sum(totals.values()) or 1.0
    return {layer: seconds / grand for layer, seconds in totals.items()}


# -- main ---------------------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("converge", "disseminate", "scenarios"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    import_start = perf_counter()
    error = import_program()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import numpy
    from repro.experiments.campaign import Campaign
    from repro.experiments import campaign as campaign_module
    import speed
    import tracer as tracer_module
    import workloads

    import_span = (import_start, perf_counter())
    # the interpreter, NumPy and the program's modules; peak_rss_mb counts
    # what the workload adds on top: its set-up and the rounds' peak
    rss_import = current_rss_bytes()
    if rss_import is None:
        rss_import = peak_rss_bytes()

    workload = workloads.WORKLOADS[args.workload]()
    backend = make_backend()
    campaign = Campaign(backend=backend)
    problems: List[str] = []
    # the untraced run times host speed from here to the end of its loop
    probe = None if args.trace else speed.SpeedProbe()

    with probe if probe is not None else contextlib.nullcontext():
        # -- set-up: specs, graphs and warm-up, repeated for a steady median
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.build(args.seed)
            problems += workload.warmup(campaign, args.seed)
            setup_spans.append((start, perf_counter()))
        warmup_log = list(backend.log)
        backend.log.clear()
        # start the measured phase from a collected heap, so warm-up garbage
        # costs no collection later
        gc.collect()
        rss_setup = current_rss_bytes()

        # -- the timed closed loop (traced or not)
        tracer = None
        if args.trace:
            tracer = tracer_module.Tracer()
            with tracer:
                round_spans, loop_problems, peak_rss = run_rounds(
                    workload, campaign, args.seed, 0.0, TRACE_ROUNDS
                )
        else:
            round_spans, loop_problems, peak_rss = run_rounds(
                workload, campaign, args.seed, args.seconds, workloads.MIN_ROUNDS
            )
    problems += loop_problems
    if probe is not None and probe.failed:
        problems.append("speed probe: a reference slice returned another checksum")
    rounds = len(round_spans)
    wall = sum(t1 - t0 for t0, t1 in round_spans)
    log = list(backend.log)

    # -- output check
    failed_ids = set()
    pins = load_pins() if args.seed == DEFAULT_SEED else {}
    pinned = 0
    for position, (spec, _, result) in enumerate(log):
        problem = invariant_problem(result)
        expected = pins.get(spec_id(spec))
        if problem is None and expected is not None:
            pinned += 1
            if result_digest(result) != expected:
                problem = "result differs from its pinned digest"
        if problem is not None:
            failed_ids.add(position)
            problems.append(f"{spec.describe()}: {problem}")
    for spec, _, result in warmup_log:
        problem = invariant_problem(result)
        if problem is not None:
            problems.append(f"warm-up {spec.describe()}: {problem}")

    untraced_wall = 0.0
    if tracer is not None:
        # passivity: the same rounds untraced must return identical results
        backend.log.clear()
        replay_start = perf_counter()
        for round_no in range(rounds):
            problems += workload.run_round(
                campaign, workloads.trial_index(args.seed, round_no)
            )
        untraced_wall = perf_counter() - replay_start
        replay = list(backend.log)
        if len(replay) != len(log):
            problems.append(f"replay ran {len(replay)} trials, traced run {len(log)}")
        for position, ((spec, _, traced), (again, _, plain)) in enumerate(zip(log, replay)):
            if spec_id(spec) != spec_id(again) or traced != plain:
                failed_ids.add(position)
                problems.append(f"{spec.describe()}: traced result differs from untraced")
    elif log:
        # one sampled trial, re-run untimed, must return the same result
        position = random.Random(args.seed).randrange(len(log))
        spec, _, result = log[position]
        try:
            again = campaign_module.execute_spec(spec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            again = None
        if again != result:
            failed_ids.add(position)
            problems.append(f"{spec.describe()}: re-run returned a different result")

    attempted = len(log)
    failed = len(failed_ids)
    correct = not problems and failed == 0

    # -- metrics
    raw_times = [t1 - t0 for _, (t0, t1), _ in log]
    times = raw_times
    # a workload is a fixed mix of cells, and the order statistic at
    # tail_pct moves from one cell to the next as the number of rounds
    # changes; the mean beyond it does not (see README.md)
    tail_pct = workload.tail_percentile()
    if tracer is None:
        raw = {
            "trials_per_s": attempted / wall,
            "trial_s_p50": percentile(raw_times, 50.0),
            "trial_s_tail": tail_mean(raw_times, tail_pct),
            "setup_s": (import_span[1] - import_span[0])
            + statistics.median(t1 - t0 for t0, t1 in setup_spans),
        }
        # every time at reference-host speed (see speed.py)
        times = [probe.reference_seconds(*span) for _, span, _ in log]
        metrics = {
            "trials_per_s": attempted
            / sum(probe.reference_seconds(*span) for span in round_spans),
            "trial_s_p50": percentile(times, 50.0),
            "trial_s_tail": tail_mean(times, tail_pct),
            "setup_s": probe.reference_seconds(*import_span)
            + statistics.median(probe.reference_seconds(*span) for span in setup_spans),
            "peak_rss_mb": max(0, peak_rss - rss_import) / 2.0**20,
        }
        units = END_TO_END_UNITS
    else:
        spans = tracer.breakdown()
        metrics = layer_metrics(spans, tracer.counters, wall, untraced_wall)
        units = PER_LAYER_UNITS

    environment = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
        "seed": args.seed,
        "scale": workload.scale,
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "varies": workload.varies,
        "trace": args.trace,
        "environment": environment,
        "run_seconds": args.seconds,
        "rounds": rounds,
        "wall_s": wall,
        "round_walls_s": [t1 - t0 for t0, t1 in round_spans],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "tail_percentile": tail_pct,
        "rss_import_mb": rss_import / 2.0**20,
        "rss_setup_mb": None if rss_setup is None else rss_setup / 2.0**20,
        "tail_samples": len(log),
        "trial_s_at_tail_percentile": percentile(times, tail_pct),
        "pinned_trials_checked": pinned,
        "trial_times": [
            [spec.describe(), seconds, reference]
            for (spec, _, _), seconds, reference in zip(log, raw_times, times)
        ],
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if probe is not None:
        record["host_slowdown"] = probe.mean_slowdown()
        record["speed_slices"] = len(probe.durations)
        record["unnormalised"] = raw
        record["import_s"] = probe.reference_seconds(*import_span)
        record["setup_repeats_s"] = [probe.reference_seconds(*span) for span in setup_spans]
    if tracer is not None:
        record["untraced_replay_s"] = untraced_wall
        record["spans"] = tracer.span_count()
        record["layer_share"] = layer_shares(spans)
        record["missing_targets"] = tracer.missing

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if tracer is not None:
        tracer.save(stem + "-spans.npz")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{rounds} rounds, {attempted} trials in {wall:.2f} s")
    print("environment " + json.dumps(environment, sort_keys=True))
    for name in units:
        print(f"  {name:<36} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'error_rate':<36} {record['error_rate']:>14.6g} ratio "
          f"({failed} failed of {attempted})")
    if tracer is None:
        print(f"  trial_s_tail is the mean beyond p{tail_pct} of {len(log)} trial times; "
              f"p{tail_pct} itself {record['trial_s_at_tail_percentile']:.6g} s")
        print(f"  times at reference-host speed; mean host slowdown "
              f"{record['host_slowdown']:.3f} over {record['speed_slices']} slices; "
              "unnormalised: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    else:
        for layer, share in record["layer_share"].items():
            print(f"  share {layer:<30} {share:>8.1%}")
        if tracer.missing:
            print("  wrappers not installed: " + ", ".join(tracer.missing))
    for problem in problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
