"""Figure 1 — adaptive vs traditional gossip on the two-path model.

Pure closed-form regeneration (Appendix A); the property tests separately
validate the formulas against Monte-Carlo simulation.

Although every point is analytic, the experiment runs through the same
campaign machinery as the simulated figures: each ``(L, alpha)`` point is
a seed-free :class:`~repro.experiments.campaign.TrialSpec`, so parallel
execution, on-disk caching and the experiment registry treat Figure 1
exactly like Figures 4/5/6.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.two_paths import message_ratio
from repro.experiments.campaign import TrialSpec
from repro.util.tables import Series, SeriesTable

#: The loss probabilities plotted in the paper's Figure 1.
PAPER_LOSSES = (1e-2, 1e-3, 1e-4)

#: The alpha range of the paper's x-axis.
PAPER_ALPHAS = tuple(range(1, 11))


def two_path_ratio_task(*, loss: float, alpha: float) -> Dict[str, float]:
    """Campaign task: one analytic ``k1/k0`` point of Figure 1."""
    return {"ratio": message_ratio(float(loss), float(alpha))}


RATIO_FN = "repro.experiments.figure1:two_path_ratio_task"


def _grid(
    losses: Sequence[float], alphas: Iterable[float]
) -> List[Tuple[float, float]]:
    return [(loss, alpha) for loss in losses for alpha in alphas]


def figure1_build(
    losses: Sequence[float] = PAPER_LOSSES,
    alphas: Iterable[float] = PAPER_ALPHAS,
) -> List[TrialSpec]:
    """One spec per (L, alpha) point, in the serial plotting order."""
    return [
        TrialSpec.make(RATIO_FN, loss=float(loss), alpha=float(alpha))
        for loss, alpha in _grid(losses, list(alphas))
    ]


def figure1_aggregate(
    results: Sequence[Dict[str, float]],
    losses: Sequence[float] = PAPER_LOSSES,
    alphas: Iterable[float] = PAPER_ALPHAS,
) -> SeriesTable:
    """Fold the point results back into the Figure 1 series table."""
    table = SeriesTable(
        title="Figure 1 - adaptive vs traditional gossip (k1/k0)",
        x_label="alpha",
    )
    by_loss: Dict[float, Series] = {}
    for (loss, alpha), result in zip(_grid(losses, list(alphas)), results):
        if loss not in by_loss:
            by_loss[loss] = Series(name=f"L={loss:g}")
            table.add_series(by_loss[loss])
        by_loss[loss].add(alpha, result["ratio"])
    return table


def expected_anchor_points() -> dict:
    """Anchor values stated in the paper's introduction, for verification.

    *"When alpha = 10 ... L = 0.0001, an adaptive algorithm only needs
    about 87% of the messages sent by a traditional gossip algorithm"*,
    and at ``alpha = 1`` the ratio is exactly 1.
    """
    return {
        ("alpha=1", "any L"): 1.0,
        ("alpha=10", "L=1e-4"): 0.875,
    }
