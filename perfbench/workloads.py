"""The benchmark's three workloads, as rounds of campaign trials.

A workload is a fixed list of cells.  One *round* runs every cell once,
through a :class:`~repro.experiments.campaign.Campaign`, at one trial
index; the run repeats rounds until its time is up, so every run
measures whole rounds and thus the same mix of cells.  The workload
seed selects the trial indices (round ``r`` runs index ``r`` under seed
0 and ``seed * 1000 + r`` otherwise); every random tree, ``RandomSource``
stream and workload origin of a trial derives from its index.  Seed 0,
round 0 runs exactly the trials of the registry's own figure and
scenario runs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

from repro.experiments.campaign import Campaign, TrialSpec
from repro.experiments.figure4 import CALIBRATION_FN, MEASUREMENT_FN
from repro.experiments.figure5 import CONVERGENCE_FN
from repro.experiments.figure6 import DEFAULT_LOSS, SCALABILITY_FN
from repro.experiments.registry import ExperimentContext, resolve_experiment
from repro.experiments.runner import DEFAULT, QUICK
from repro.kvstore.trial import KV_TRIAL_FN
from repro.kvstore.workload import KVWorkloadParams
from repro.scenario.registry import build_scenario
from repro.scenario.trial import TRIAL_FN
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular, random_tree, ring
from repro.util.rng import RandomSource

#: Every run completes at least this many rounds, so the tail
#: percentile of each workload is fixed by its round size.
MIN_ROUNDS = 3


def trial_index(seed: int, round_no: int) -> int:
    """The trial index round ``round_no`` runs under workload ``seed``."""
    return round_no if seed == 0 else seed * 1000 + round_no


def warmup_index(seed: int) -> int:
    """A trial index no measured round uses (set-up warm-up trials)."""
    return -(seed + 1)


class Workload:
    """One named workload: its cells, set-up and rounds.

    Attributes:
        name / why / varies / scale: the record in ``BENCHMARK.json``
            and in every result.
        trials_per_round: campaign trials one round runs.
    """

    name = ""
    why = ""
    varies = ""
    scale = ""
    trials_per_round = 0

    def build(self, seed: int) -> None:
        """Construct the workload's specs and graphs, checking every cell.

        Part of set-up: the trials build their own copies when they run.
        """
        raise NotImplementedError

    def warmup(self, campaign: Campaign, seed: int) -> List[str]:
        """Run the set-up warm-up trials; returns aggregation problems."""
        raise NotImplementedError

    def run_round(self, campaign: Campaign, index: int) -> List[str]:
        """Run one round at trial ``index``; returns aggregation problems."""
        raise NotImplementedError

    def tail_percentile(self) -> int:
        """Highest whole percentile with >= 10 samples beyond it at the
        minimum sample count (``MIN_ROUNDS`` rounds)."""
        samples = MIN_ROUNDS * self.trials_per_round
        return int(math.floor(100.0 * (1.0 - 10.0 / samples)))


# -- converge ---------------------------------------------------------------------------

#: (trial function, parameters) per cell.  Ten cells are lossless
#: (Figure 5(a)'s P=0, L=0 point; Figure 6 swept to L=0): their
#: convergence time depends on n and link density, not on luck in the
#: loss draws, so every seed does the same work on them.  Two cells keep
#: Figure 6's lossy links (L=0.01).  A Figure 5 cell with crashes
#: (P=0.01, k=2) was dropped: its mean time over a run varied by 25%
#: from seed to seed, and at about 1 s it sat among the slowest trials,
#: where it set the tail.  Sizes run from the quick preset's n=16 past
#: the default preset's n=30; one lossy n=96 ring trial takes ~20 s, too
#: long for a run of 30 s.
CONVERGE_CELLS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    (CONVERGENCE_FN, {"n": 16, "connectivity": 2, "crash": 0.0, "loss": 0.0}),
    (CONVERGENCE_FN, {"n": 16, "connectivity": 4, "crash": 0.0, "loss": 0.0}),
    (CONVERGENCE_FN, {"n": 16, "connectivity": 6, "crash": 0.0, "loss": 0.0}),
    (CONVERGENCE_FN, {"n": 30, "connectivity": 4, "crash": 0.0, "loss": 0.0}),
    (SCALABILITY_FN, {"topology": "ring", "n": 16, "loss": 0.0}),
    (SCALABILITY_FN, {"topology": "ring", "n": 32, "loss": 0.0}),
    (SCALABILITY_FN, {"topology": "ring", "n": 48, "loss": 0.0}),
    (SCALABILITY_FN, {"topology": "ring", "n": 16, "loss": DEFAULT_LOSS}),
    (SCALABILITY_FN, {"topology": "tree", "n": 16, "loss": 0.0}),
    (SCALABILITY_FN, {"topology": "tree", "n": 32, "loss": 0.0}),
    (SCALABILITY_FN, {"topology": "tree", "n": 48, "loss": 0.0}),
    (SCALABILITY_FN, {"topology": "tree", "n": 16, "loss": DEFAULT_LOSS}),
)


def _convergence_spec(fn: str, params: Dict[str, object], index: int) -> TrialSpec:
    return TrialSpec.make(
        fn, deadline=float(DEFAULT.convergence_deadline), trial=index, **params
    )


class Converge(Workload):
    name = "converge"
    why = (
        "the cold-start heartbeat path: adaptive views learn (G, C) from "
        "nothing until views_converged, so core.viewtable dominates"
    )
    varies = "n 16..48 (ring, random tree, k-regular); link density 2..6; lossless vs lossy"
    scale = "figure 5/6 trials, default-preset deadline"
    trials_per_round = len(CONVERGE_CELLS)

    def build(self, seed: int) -> None:
        index = trial_index(seed, 0)
        for fn, params in CONVERGE_CELLS:
            _convergence_spec(fn, params, index)
            n = int(params["n"])
            if fn == CONVERGENCE_FN:
                graph = k_regular(n, int(params["connectivity"]))
            elif params["topology"] == "ring":
                graph = ring(n)
            else:
                graph = random_tree(n, RandomSource("fig6-tree", n, index))
            Configuration.uniform(
                graph, crash=float(params.get("crash", 0.0)), loss=float(params["loss"])
            )

    def warmup(self, campaign: Campaign, seed: int) -> List[str]:
        fn, params = CONVERGE_CELLS[4]
        campaign.run([_convergence_spec(fn, params, warmup_index(seed))])
        return []

    def run_round(self, campaign: Campaign, index: int) -> List[str]:
        campaign.run(
            [_convergence_spec(fn, params, index) for fn, params in CONVERGE_CELLS]
        )
        return []


# -- disseminate ------------------------------------------------------------------------

#: (Figure 4 variant, connectivity, probability) per cell, at the
#: default preset (n=30, K=0.99, 60 calibration and 20 measurement trials).
DISSEMINATE_CELLS: Tuple[Tuple[str, int, float], ...] = (
    ("crash", 2, 0.01),
    ("crash", 8, 0.07),
    ("crash", 12, 0.03),
    ("loss", 4, 0.03),
    ("loss", 16, 0.07),
)


def _probs(variant: str, value: float) -> Tuple[float, float]:
    return (float(value), 0.0) if variant == "crash" else (0.0, float(value))


def _seed_tag(connectivity: int, crash: float, loss: float, index: int) -> str:
    # index 0 keeps the registry's own tag, so seed 0 reruns its trials
    tag = f"k{connectivity}-P{crash}-L{loss}-n{DEFAULT.n}"
    return tag if index == 0 else f"{tag}-i{index}"


def _calibration_spec(
    variant: str, connectivity: int, value: float, index: int, trials: int
) -> TrialSpec:
    crash, loss = _probs(variant, value)
    return TrialSpec.make(
        CALIBRATION_FN,
        n=DEFAULT.n,
        connectivity=connectivity,
        crash=crash,
        loss=loss,
        k_target=DEFAULT.k_target,
        trials=trials,
        seed_tag=_seed_tag(connectivity, crash, loss, index),
    )


def run_figure4_cell(
    campaign: Campaign,
    variant: str,
    connectivity: int,
    value: float,
    index: int,
    calibration_trials: int = DEFAULT.calibration_trials,
    trials: int = DEFAULT.trials,
) -> List[str]:
    """One Figure 4 cell: calibrate, measure, aggregate through the registry.

    Returns the aggregation problems (a ratio that is not finite and
    positive); trial failures are recorded by the campaign's backend.
    """
    crash, loss = _probs(variant, value)
    tag = _seed_tag(connectivity, crash, loss, index)
    calibration = campaign.run(
        [_calibration_spec(variant, connectivity, value, index, calibration_trials)]
    )[0]
    if "rounds" not in calibration:
        return []
    measurements = campaign.run(
        [
            TrialSpec.make(
                MEASUREMENT_FN,
                n=DEFAULT.n,
                connectivity=connectivity,
                crash=crash,
                loss=loss,
                k_target=DEFAULT.k_target,
                rounds=int(calibration["rounds"]),
                trial=index * trials + t,
                seed_tag=tag,
                count_acks=False,
            )
            for t in range(trials)
        ]
    )
    if any("messages" not in m for m in measurements):
        return []
    experiment = resolve_experiment("figure4a" if variant == "crash" else "figure4b")
    ctx = ExperimentContext(
        scale=DEFAULT,
        campaign=campaign,
        params=experiment.make_params(
            {"connectivity": [connectivity], variant: [value], "trials": trials}
        ),
    )
    table = experiment.aggregate(ctx, measurements)
    ratio = table.column(table.columns[1])[0]
    if not (isinstance(ratio, float) and math.isfinite(ratio) and ratio > 0.0):
        return [f"figure4 {variant} k={connectivity} {value}: ratio {ratio!r}"]
    return []


class Disseminate(Workload):
    name = "disseminate"
    why = (
        "Figure 4 gossip-vs-optimal cells: hundreds of short gossip trials, "
        "no VectorView, so the kernel, delivery path and per-trial set-up dominate"
    )
    varies = "k-regular link density 2..16 at n=30; crash vs loss probability 0.01..0.07"
    scale = "default"
    trials_per_round = len(DISSEMINATE_CELLS) * (1 + DEFAULT.trials)

    def build(self, seed: int) -> None:
        index = trial_index(seed, 0)
        for variant, connectivity, value in DISSEMINATE_CELLS:
            _calibration_spec(
                variant, connectivity, value, index, DEFAULT.calibration_trials
            )
            crash, loss = _probs(variant, value)
            Configuration.uniform(
                k_regular(DEFAULT.n, connectivity), crash=crash, loss=loss
            )

    def warmup(self, campaign: Campaign, seed: int) -> List[str]:
        variant, connectivity, value = DISSEMINATE_CELLS[1]
        return run_figure4_cell(
            campaign,
            variant,
            connectivity,
            value,
            warmup_index(seed),
            calibration_trials=2,
            trials=1,
        )

    def run_round(self, campaign: Campaign, index: int) -> List[str]:
        problems: List[str] = []
        for variant, connectivity, value in DISSEMINATE_CELLS:
            problems += run_figure4_cell(campaign, variant, connectivity, value, index)
        return problems


# -- scenarios --------------------------------------------------------------------------

SCENARIOS: Tuple[str, ...] = ("partition-heal", "burst-storm", "churn-mill", "wan-brownout")
PROTOCOLS: Tuple[str, ...] = ("adaptive", "optimal", "gossip", "flooding", "two-phase", "gossip-pv")
KV_SCENARIO = "hot-key-storm"
#: Each scenario adds three trials no slower than its gossip trial
#: (optimal, flooding, gossip itself) and three slower ones, so the
#: median of the scenario trials alone sits on the gap between the two
#: groups and jumps with the seed.  Both kvstore cells are fast ones,
#: which moves the median inside the group of gossip trials.
KV_PROTOCOLS: Tuple[str, ...] = ("optimal", "flooding")


class Scenarios(Workload):
    name = "scenarios"
    why = (
        "dynamic scenarios across protocol families: warm adaptive tables in "
        "steady state and relearning after heals, plus MRT planning, "
        "dynamics, membership and kvstore"
    )
    varies = (
        "scenario dynamics (partition, burst crashes, churn, WAN brownout, "
        "hot-key storm); protocol family"
    )
    scale = "quick"
    trials_per_round = len(SCENARIOS) * len(PROTOCOLS) + len(KV_PROTOCOLS)

    def __init__(self) -> None:
        self._sizes: Dict[str, int] = {}
        self._kv_payload = KVWorkloadParams().to_payload()

    def build(self, seed: int) -> None:
        self._sizes = {
            name: build_scenario(name, QUICK).topology.n for name in SCENARIOS
        }
        build_scenario(KV_SCENARIO, QUICK)
        self.specs(trial_index(seed, 0))

    def specs(self, index: int, protocols: Sequence[str] = PROTOCOLS,
              kv_protocols: Sequence[str] = KV_PROTOCOLS) -> List[TrialSpec]:
        # the same spec shape `repro scenario run` and the kvstore
        # experiment compile, so seed 0 reruns their trials
        out = [
            TrialSpec.make(
                TRIAL_FN,
                scenario=scenario,
                protocol=protocol,
                scale=QUICK.name,
                trial=index,
                n=self._sizes[scenario],
            )
            for scenario in SCENARIOS
            for protocol in protocols
        ]
        out += [
            TrialSpec.make(
                KV_TRIAL_FN,
                scenario=KV_SCENARIO,
                protocol=protocol,
                scale=QUICK.name,
                trial=index,
                workload=self._kv_payload,
            )
            for protocol in kv_protocols
        ]
        return out

    def warmup(self, campaign: Campaign, seed: int) -> List[str]:
        specs = self.specs(
            warmup_index(seed), protocols=PROTOCOLS[1:], kv_protocols=KV_PROTOCOLS[1:2]
        )
        # one scenario's cheap protocols plus one kvstore trial
        campaign.run(specs[: len(PROTOCOLS) - 1] + specs[-1:])
        return []

    def run_round(self, campaign: Campaign, index: int) -> List[str]:
        campaign.run(self.specs(index))
        return []


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "converge": Converge,
    "disseminate": Disseminate,
    "scenarios": Scenarios,
}
