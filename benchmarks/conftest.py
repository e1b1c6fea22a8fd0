"""Shared fixtures for the benchmark suite.

Every bench regenerates one of the paper's tables/figures and prints
the resulting table (so ``pytest benchmarks/ -s`` output contains the
figures).  The experiment benches run through the registry
(``resolve_experiment(name).run(...)``), the one way to run an
experiment; ``repro experiments run`` persists results when they are
worth keeping.

The session emits ``results/BENCH_scenarios.json`` — a
machine-readable summary of every benchmark that ran (wall time per
bench, plus trial throughput for benches that report their trial count
through the ``track_trials`` fixture and event throughput via
``track_events``) — so the performance trajectory is comparable across
commits.  Selective runs merge into the existing file (per-entry, this
session winning per nodeid) instead of clobbering it; every entry
records the scale it was measured at, so mixed-scale summaries stay
interpretable.  Delete the file for a from-scratch summary (stale
entries of renamed benches persist until then).

The same per-bench records are *also* merged into the repo-root
``BENCH_core.json`` (the ``repro bench`` summary format, nodeid-keyed
entries alongside the named runner benches), so the cross-commit
performance trajectory lives in one committed file.  The CI perf gate
only compares entries present in both baseline and fresh summary, so
pytest-bench entries ride along informationally.

Scale control: set ``REPRO_BENCH_SCALE`` to ``quick`` / ``default`` /
``full`` (paper-sized: n=100, K=0.9999) before running.
"""

from __future__ import annotations

import json
import os
import platform

import pytest

from repro import __version__
from repro.experiments.runner import SCALE_ENV, current_scale

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SUMMARY_PATH = os.path.join(RESULTS_DIR, "BENCH_scenarios.json")

#: The repo-root cross-commit summary (``repro bench`` format).
CORE_SUMMARY_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_core.json",
)

#: nodeid -> {"wall_s": float, "trials": Optional[int]} for this session.
_BENCH_RECORDS: dict = {}


@pytest.fixture(scope="session")
def scale():
    return current_scale()


@pytest.fixture(scope="session")
def record(scale):
    """Print one regenerated table (a ResultSet or SeriesTable)."""

    def _record(experiment_id, description, table, notes=""):
        print()
        print(f"=== {experiment_id} — {description} (scale: {scale.name}) ===")
        print(table.render())
        if notes:
            print(f"notes: {notes}")

    return _record


@pytest.fixture
def track_trials(request):
    """Report how many simulation trials a bench executed.

    Calling ``track_trials(count)`` attaches the count to the test item;
    the session summary then derives trials-per-second throughput for
    this bench.
    """

    def _track(count: int) -> None:
        request.node.user_properties.append(("trials", int(count)))

    return _track


@pytest.fixture
def track_events(request):
    """Report a bench's simulation-event count and measured wall time.

    ``track_events(events, wall_s)`` records the bench's own timed run
    (not the pytest ``call`` duration, which includes pytest-benchmark's
    calibration repeats), so the summary's ``events_per_s`` matches what
    one workload execution actually sustained.
    """

    def _track(events: int, wall_s: float) -> None:
        request.node.user_properties.append(("events", int(events)))
        request.node.user_properties.append(("events_wall_s", float(wall_s)))

    return _track


def pytest_runtest_logreport(report):
    """Collect per-bench wall time (call phase only) for the summary."""
    if report.when != "call" or not report.passed:
        return
    properties = dict(report.user_properties)
    trials = properties.get("trials")
    events = properties.get("events")
    events_wall = properties.get("events_wall_s") or report.duration
    record = {
        "wall_s": round(report.duration, 4),
        # scale is per entry, not per file: merged summaries may mix
        # sessions run at different scales, and a wall time is only
        # comparable to another at the same scale
        "scale": os.environ.get(SCALE_ENV, "default"),
        "trials": trials,
        "trials_per_s": (
            round(trials / report.duration, 3)
            if trials and report.duration > 0
            else None
        ),
    }
    if events:
        record["events"] = events
        record["events_per_s"] = (
            round(events / events_wall, 1) if events_wall > 0 else None
        )
    _BENCH_RECORDS[report.nodeid] = record


def pytest_sessionfinish(session, exitstatus):
    """Persist the machine-readable benchmark summary."""
    if not _BENCH_RECORDS:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    benchmarks: dict = {}
    try:
        with open(SUMMARY_PATH, encoding="utf-8") as fh:
            # a selective run (pytest benchmarks/bench_x.py -k one) must
            # not clobber the other benches' entries: merge over the last
            # summary, letting this session's results win per nodeid
            benchmarks.update(json.load(fh).get("benchmarks", {}))
    except (OSError, ValueError):
        pass
    benchmarks.update(_BENCH_RECORDS)
    summary = {
        # version/scale/python describe the session that last wrote the
        # file; each merged entry carries its own scale, and
        # session_wall_s sums only this session's benches (a merged
        # total would add quick and full wall times together)
        "version": __version__,
        "scale": os.environ.get(SCALE_ENV, "default"),
        "python": platform.python_version(),
        "session_wall_s": round(
            sum(r["wall_s"] for r in _BENCH_RECORDS.values()), 4
        ),
        "benchmarks": dict(sorted(benchmarks.items())),
    }
    with open(SUMMARY_PATH, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _merge_into_core_summary()


def _merge_into_core_summary():
    """Fold this session's records into the repo-root ``BENCH_core.json``.

    The root file is the cross-commit performance trajectory: the named
    ``repro bench`` runner entries plus these nodeid-keyed pytest-bench
    entries, merged per key so selective sessions never clobber the
    rest.  Entries drop the ``None``-valued fields (the runner format
    omits absent metrics rather than nulling them).
    """
    from repro.benchrunner import SCHEMA_VERSION, write_summary

    benchmarks = {}
    for nodeid, record in _BENCH_RECORDS.items():
        benchmarks[nodeid] = {
            k: v for k, v in record.items() if v is not None
        }
    summary = {
        "schema": SCHEMA_VERSION,
        "repro_version": __version__,
        "scale": os.environ.get(SCALE_ENV, "default"),
        "python": platform.python_version(),
        "benchmarks": benchmarks,
    }
    try:
        write_summary(summary, CORE_SUMMARY_PATH)
    except OSError as exc:  # pragma: no cover - read-only checkout
        print(f"warning: could not update {CORE_SUMMARY_PATH}: {exc}")
