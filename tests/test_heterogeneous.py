"""Tests for the heterogeneous-environment extension experiment."""

import pytest

from repro.experiments.heterogeneous import heterogeneity_point
from repro.experiments.registry import resolve_experiment
from repro.experiments.runner import QUICK, scaled

TINY = scaled(
    QUICK, n=12, connectivities=(4,), trials=5, calibration_trials=10, k_target=0.9
)


class TestHeterogeneityPoint:
    def test_fields(self):
        point = heterogeneity_point(4, mean_loss=0.05, scale=TINY)
        for key in (
            "uniform_optimal",
            "uniform_reference",
            "uniform_ratio",
            "hetero_optimal",
            "hetero_reference",
            "hetero_ratio",
            "gain_delta",
        ):
            assert key in point
        assert point["uniform_ratio"] > 0
        assert point["hetero_ratio"] > 0

    def test_gain_delta_consistent(self):
        point = heterogeneity_point(4, mean_loss=0.05, scale=TINY)
        assert point["gain_delta"] == pytest.approx(
            point["hetero_ratio"] - point["uniform_ratio"]
        )

    def test_spread_zero_equals_uniform_mean(self):
        """With zero spread the heterogeneous config degenerates to uniform."""
        point = heterogeneity_point(4, mean_loss=0.05, scale=TINY, spread=0.0)
        # same optimal plan size up to tie-breaking noise in the MRT
        assert point["hetero_optimal"] == pytest.approx(
            point["uniform_optimal"], abs=3
        )


class TestHeterogeneityTable:
    def test_table_structure(self):
        result = resolve_experiment("heterogeneous").run(
            scale=TINY, params={"loss": 0.05}
        )
        assert result.columns[1:] == (
            "ratio (uniform L)",
            "ratio (heterogeneous L)",
        )
        assert result.column(result.columns[0]) == [4.0]
