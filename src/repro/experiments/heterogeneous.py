"""Heterogeneous-environment extension (Section 7, future work).

The paper's Section 5 deliberately evaluates with *uniform* failure
probabilities and notes this "counts against" the adaptive algorithm;
Section 7 expects larger gains once probabilities differ across the
system.  This experiment quantifies that: it compares the
reference/optimal message ratio on

* a **uniform** configuration (every link loses with ``mean_loss``), and
* a **heterogeneous** one with the same *mean* loss but per-link values
  spread over ``[0, 2 * mean_loss]``,

so any ratio difference is attributable purely to the spread the
adaptive/optimal side can exploit (picking the reliable links) and the
oblivious baseline cannot.

Both configurations rebuild deterministically from scalars (the
heterogeneous one from its own ``("hetero", connectivity, seed)``
stream), so the calibration and measurement trials are campaign specs
like the Figure 4 ones and ``repro experiments run heterogeneous``
parallelises the comparison.  Protocol stacks deploy through the protocol registry
(via the shared gossip trial runner), never by direct construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.campaign import Campaign, TrialSpec, chunked
from repro.experiments.figure4 import (
    calibrate_reference,
    measure_reference_once,
    optimal_messages,
)
from repro.experiments.runner import ExperimentScale
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from repro.topology.graph import Graph
from repro.util.rng import RandomSource
from repro.util.tables import Series, SeriesTable

MODES = ("uniform", "hetero")


def _build_config(
    mode: str,
    n: int,
    connectivity: int,
    mean_loss: float,
    spread: float,
    seed: int,
) -> Tuple[Graph, Configuration]:
    """Rebuild the compared configurations from their defining scalars."""
    graph = k_regular(n, connectivity)
    if mode == "uniform":
        return graph, Configuration.uniform(graph, loss=mean_loss)
    if mode == "hetero":
        lo = max(0.0, mean_loss * (1.0 - spread))
        hi = min(1.0, mean_loss * (1.0 + spread))
        return graph, Configuration.random_uniform(
            graph,
            RandomSource("hetero", connectivity, seed),
            crash_range=(0.0, 0.0),
            loss_range=(lo, hi),
        )
    raise ValueError(f"mode must be 'uniform' or 'hetero', got {mode!r}")


def _seed_tag(mode: str, connectivity: int, mean_loss: float, seed: int) -> str:
    return f"het-{mode}-{connectivity}-{mean_loss}-{seed}"


def hetero_calibration_task(
    *,
    mode: str,
    n: int,
    connectivity: int,
    mean_loss: float,
    spread: float,
    seed: int,
    k_target: float,
    trials: int,
) -> Dict[str, float]:
    """Campaign task: calibrate gossip rounds for one compared config."""
    connectivity, seed = int(connectivity), int(seed)
    mean_loss = float(mean_loss)
    _, config = _build_config(
        mode, int(n), connectivity, mean_loss, float(spread), seed
    )
    rounds = calibrate_reference(
        config, _seed_tag(mode, connectivity, mean_loss, seed), k_target, trials
    )
    return {"rounds": float(rounds)}


def hetero_measurement_task(
    *,
    mode: str,
    n: int,
    connectivity: int,
    mean_loss: float,
    spread: float,
    seed: int,
    k_target: float,
    rounds: int,
    trial: int,
) -> Dict[str, float]:
    """Campaign task: one gossip measurement trial on a compared config."""
    connectivity, seed = int(connectivity), int(seed)
    mean_loss = float(mean_loss)
    _, config = _build_config(
        mode, int(n), connectivity, mean_loss, float(spread), seed
    )
    messages = measure_reference_once(
        config,
        _seed_tag(mode, connectivity, mean_loss, seed),
        int(trial),
        int(rounds),
        k_target,
    )
    return {"messages": messages}


CALIBRATION_FN = "repro.experiments.heterogeneous:hetero_calibration_task"
MEASUREMENT_FN = "repro.experiments.heterogeneous:hetero_measurement_task"


def _cal_spec(
    mode: str,
    connectivity: int,
    mean_loss: float,
    scale: ExperimentScale,
    spread: float,
    seed: int,
) -> TrialSpec:
    return TrialSpec.make(
        CALIBRATION_FN,
        mode=mode,
        n=scale.n,
        connectivity=int(connectivity),
        mean_loss=float(mean_loss),
        spread=float(spread),
        seed=int(seed),
        k_target=scale.k_target,
        trials=scale.calibration_trials,
    )


def _meas_specs(
    mode: str,
    connectivity: int,
    mean_loss: float,
    scale: ExperimentScale,
    spread: float,
    seed: int,
    rounds: int,
) -> List[TrialSpec]:
    return [
        TrialSpec.make(
            MEASUREMENT_FN,
            mode=mode,
            n=scale.n,
            connectivity=int(connectivity),
            mean_loss=float(mean_loss),
            spread=float(spread),
            seed=int(seed),
            k_target=scale.k_target,
            rounds=int(rounds),
            trial=trial,
        )
        for trial in range(scale.trials)
    ]


def _aggregate_point(
    connectivity: int,
    mean_loss: float,
    scale: ExperimentScale,
    spread: float,
    seed: int,
    measurements: Dict[str, Sequence[Dict[str, float]]],
) -> Dict[str, float]:
    out: Dict[str, float] = {"connectivity": float(connectivity)}
    for mode in MODES:
        graph, config = _build_config(
            mode, scale.n, connectivity, mean_loss, spread, seed
        )
        optimal = optimal_messages(graph, config, scale.k_target)
        reference = Campaign.aggregate(measurements[mode], "messages").mean
        out[f"{mode}_optimal"] = float(optimal)
        out[f"{mode}_reference"] = reference
        out[f"{mode}_ratio"] = reference / optimal
    out["gain_delta"] = out["hetero_ratio"] - out["uniform_ratio"]
    return out


def heterogeneity_point(
    connectivity: int,
    mean_loss: float,
    scale: ExperimentScale,
    spread: float = 1.0,
    seed: int = 0,
    campaign: Optional[Campaign] = None,
) -> Dict[str, float]:
    """Ratios for a uniform vs an equal-mean heterogeneous configuration.

    Args:
        spread: half-width of the loss distribution relative to the mean
            (1.0 means per-link losses uniform over [0, 2*mean]).
    """
    campaign = campaign or Campaign()
    cal = campaign.run(
        [
            _cal_spec(mode, connectivity, mean_loss, scale, spread, seed)
            for mode in MODES
        ]
    )
    rounds = {mode: int(c["rounds"]) for mode, c in zip(MODES, cal)}
    measurements: Dict[str, Sequence[Dict[str, float]]] = {}
    for mode in MODES:
        measurements[mode] = campaign.run(
            _meas_specs(
                mode, connectivity, mean_loss, scale, spread, seed, rounds[mode]
            )
        )
    return _aggregate_point(
        connectivity, mean_loss, scale, spread, seed, measurements
    )


def _points(
    scale: ExperimentScale, connectivities: Optional[Sequence[int]]
) -> List[int]:
    connectivities = tuple(
        connectivities or [k for k in scale.connectivities if k <= 12]
    )
    return [k for k in connectivities if k < scale.n]


def heterogeneity_build(
    scale: ExperimentScale,
    campaign: Campaign,
    mean_loss: float = 0.05,
    connectivities: Optional[Sequence[int]] = None,
    spread: float = 1.0,
    seed: int = 0,
) -> List[TrialSpec]:
    """Calibration phase + the measurement specs of the comparison.

    As with Figure 4, the calibration fits run through ``campaign``
    eagerly; the returned measurement specs are what the caller (or the
    experiment registry) executes and aggregates.
    """
    points = _points(scale, connectivities)
    cal_specs = [
        _cal_spec(mode, k, mean_loss, scale, spread, seed)
        for k in points
        for mode in MODES
    ]
    calibrations = campaign.run(cal_specs)
    meas_specs: List[TrialSpec] = []
    for (k, mode), calibration in zip(
        [(k, mode) for k in points for mode in MODES], calibrations
    ):
        meas_specs.extend(
            _meas_specs(
                mode, k, mean_loss, scale, spread, seed, int(calibration["rounds"])
            )
        )
    return meas_specs


def heterogeneity_aggregate(
    scale: ExperimentScale,
    measurements: Sequence[Dict[str, float]],
    mean_loss: float = 0.05,
    connectivities: Optional[Sequence[int]] = None,
    spread: float = 1.0,
    seed: int = 0,
) -> SeriesTable:
    """Fold ordered measurement results into the comparison table."""
    points = _points(scale, connectivities)
    table = SeriesTable(
        title=(
            "Extension - heterogeneous environments "
            f"(mean L={mean_loss}, equal-mean comparison)"
        ),
        x_label="connectivity (links/process)",
    )
    uniform = Series("ratio (uniform L)")
    hetero = Series("ratio (heterogeneous L)")
    mode_chunks = chunked(measurements, scale.trials)
    for k in points:
        chunks: Dict[str, Sequence[Dict[str, float]]] = {
            mode: next(mode_chunks) for mode in MODES
        }
        point = _aggregate_point(k, mean_loss, scale, spread, seed, chunks)
        uniform.add(k, point["uniform_ratio"])
        hetero.add(k, point["hetero_ratio"])
    table.add_series(uniform)
    table.add_series(hetero)
    return table
