#!/usr/bin/env python3
"""Regenerate ``pins.json``: the result digest of every seed-0 trial.

The benchmark's output check compares each seed-0 trial against these
digests.  Re-pin only for a change that is meant to alter trial results,
from the repository root::

    python3 perfbench/pin.py

It runs ``PIN_ROUNDS`` rounds of every workload under seed 0 (more
rounds than one benchmark run measures) and fails if any trial raises
or breaks an invariant.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

PIN_ROUNDS = 8


def main() -> int:
    error = run.import_program()
    if error is not None:
        print(f"pin: {error}", file=sys.stderr)
        return 2
    from repro.experiments.campaign import Campaign
    from workloads import WORKLOADS, trial_index

    digests = {}
    for name, factory in WORKLOADS.items():
        workload = factory()
        workload.build(run.DEFAULT_SEED)
        backend = run.make_backend()
        campaign = Campaign(backend=backend)
        for round_no in range(PIN_ROUNDS):
            problems = workload.run_round(
                campaign, trial_index(run.DEFAULT_SEED, round_no)
            )
            if problems:
                print(f"pin: {name}: {problems}", file=sys.stderr)
                return 1
        for spec, _, result in backend.log:
            problem = run.invariant_problem(result)
            if problem is not None:
                print(f"pin: {spec.describe()}: {problem}", file=sys.stderr)
                return 1
            digests[run.spec_id(spec)] = run.result_digest(result)
        print(f"{name}: {len(backend.log)} trials pinned")
    with open(run.PINS_PATH, "w") as fh:
        json.dump(
            {
                "seed": run.DEFAULT_SEED,
                "rounds": PIN_ROUNDS,
                "source_sha256": run.source_digest(run.SRC),
                "digests": digests,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
