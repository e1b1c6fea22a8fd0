"""Tests for the experiment harness (scales, figure modules, registry runs).

Heavy experiments run at a tiny scale here — the full regeneration lives
in benchmarks/.
"""

import math

import pytest

from repro.errors import ValidationError
from repro.experiments.campaign import Campaign
from repro.experiments.figure1 import expected_anchor_points
from repro.experiments.figure4 import figure4_build, figure4_point, optimal_messages
from repro.experiments.figure5 import convergence_messages_per_link, figure5_point
from repro.experiments.figure6 import figure6_point
from repro.experiments.registry import resolve_experiment
from repro.experiments.runner import (
    DEFAULT,
    FULL,
    QUICK,
    SCALE_ENV,
    current_scale,
    make_network,
    scaled,
)
from repro.experiments.table1 import PAPER_AFTER_SUSPICION
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular, ring

TINY = scaled(
    QUICK,
    n=10,
    connectivities=(2, 4),
    trials=3,
    calibration_trials=10,
    convergence_deadline=1200.0,
    figure6_sizes=(10, 14),
    k_target=0.9,
)


class TestScales:
    def test_presets(self):
        assert QUICK.n < DEFAULT.n < FULL.n
        assert FULL.k_target == 0.9999  # the paper's K

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV, "quick")
        assert current_scale().name == "quick"
        monkeypatch.delenv(SCALE_ENV)
        assert current_scale().name == "default"

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV, "quick")
        assert current_scale("full").name == "full"

    def test_unknown_scale(self):
        with pytest.raises(ValidationError):
            current_scale("galactic")

    def test_scaled_replaces(self):
        derived = scaled(QUICK, n=99)
        assert derived.n == 99
        assert derived.k_target == QUICK.k_target


class TestMakeNetwork:
    def test_deterministic_network(self):
        g = ring(5)
        c = Configuration.uniform(g, loss=0.2)
        n1 = make_network(c, "s", 1)
        n2 = make_network(c, "s", 1)
        n1.send(0, 1, "x")
        n2.send(0, 1, "x")
        assert n1.stats.snapshot() == n2.stats.snapshot()


def _run(name, **kwargs):
    return resolve_experiment(name).run(**kwargs)


class TestFigure1:
    def test_table_shape(self):
        result = _run("figure1")
        assert len(result.columns) == 1 + 3  # alpha + one curve per L
        assert len(result.rows) == 10

    def test_anchor_points(self):
        anchors = expected_anchor_points()
        result = _run("figure1")
        for name in result.columns[1:]:
            assert result.column(name)[0] == pytest.approx(1.0)  # alpha = 1
        alphas = result.column("alpha")
        l4 = dict(zip(alphas, result.column("L=0.0001")))
        assert l4[10.0] == pytest.approx(
            anchors[("alpha=10", "L=1e-4")], abs=1e-3
        )


class TestTable1:
    def test_rows_match_paper(self):
        result = _run("table1")
        after = result.column("P_B after suspicion")
        assert [round(v, 2) for v in after] == list(PAPER_AFTER_SUSPICION)
        assert all(
            v == pytest.approx(0.2) for v in result.column("P_B initial")
        )

    def test_render_contains_intervals(self):
        text = _run("table1").render()
        assert "[0.0, 0.2)" in text
        assert "0.36" in text


class TestFigure4:
    def test_point_fields(self):
        point = figure4_point(2, crash=0.0, loss=0.05, scale=TINY)
        assert point["ratio"] > 0
        assert point["optimal_messages"] >= TINY.n - 1
        assert point["rounds"] >= 1

    def test_optimal_messages_monotone_in_k(self):
        g = k_regular(10, 4)
        c = Configuration.uniform(g, loss=0.1)
        assert optimal_messages(g, c, 0.999) >= optimal_messages(g, c, 0.9)

    def test_table_variants(self):
        result = _run("figure4b", scale=TINY, params={"loss": [0.05]})
        assert result.columns[1:] == ("L=0.05",)
        assert len(result.rows) == 2
        with pytest.raises(ValueError):
            figure4_build("nope", TINY, Campaign())


class TestFigure5:
    def test_convergence_run(self):
        g = ring(8)
        c = Configuration.reliable(g)
        effort = convergence_messages_per_link(
            g, c, seed_tag="t", deadline=2000.0
        )
        assert 0 < effort < 2000

    def test_timeout_strict(self):
        from repro.errors import ConvergenceTimeoutError

        g = ring(8)
        c = Configuration.uniform(g, loss=0.05)
        with pytest.raises(ConvergenceTimeoutError):
            convergence_messages_per_link(g, c, "t", deadline=4.0)

    def test_timeout_lenient(self):
        g = ring(8)
        c = Configuration.uniform(g, loss=0.05)
        effort = convergence_messages_per_link(
            g, c, "t", deadline=4.0, strict=False
        )
        assert math.isinf(effort)

    def test_point(self):
        point = figure5_point(2, crash=0.0, loss=0.0, scale=TINY, trials=2)
        assert point["trials"] == 2.0
        assert point["messages_per_link"] > 0


class TestFigure6:
    def test_points(self):
        ring_point = figure6_point("ring", 10, TINY, trials=2)
        tree_point = figure6_point("tree", 10, TINY, trials=2)
        assert ring_point["messages_per_link"] > 0
        assert tree_point["messages_per_link"] > 0
        with pytest.raises(ValueError):
            figure6_point("torus", 10, TINY, trials=1)
