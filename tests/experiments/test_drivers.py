"""Smoke + shape tests for every paper figure.

Each driver must run in its fast variant and produce the paper's
qualitative shape; the render must be printable text.  Fig. 4 and Fig. 7
are reproduced by bundled specs (the ``fig4``/``fig7`` CLI aliases); their
shape tests run those specs.
"""

import pytest

from repro.cli import FIGURE_ALIASES, main
from repro.core import default_threshold, wave_front
from repro.experiments import EXPERIMENTS, run_experiment
from repro.reports import compile_report, load_bundled_report, run_report
from repro.scenarios import load_bundled_scenario, run_scenario


@pytest.mark.parametrize("name", sorted({*EXPERIMENTS, *FIGURE_ALIASES}))
def test_driver_runs_and_renders(name, capsys):
    if name in ("fig1", "fig2"):
        pytest.skip("covered by the dedicated shape tests below (slow)")
    if name in FIGURE_ALIASES:
        assert main([name]) == 0
        text = capsys.readouterr().out
        assert f"[{name} completed" in text
    else:
        result = run_experiment(name, fast=True)
        text = result.render()
        assert result.name == name
        assert result.tables
    assert isinstance(text, str) and len(text) > 100


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("fig99")


class TestFig3Shape:
    def test_means_and_bimodality(self):
        r = run_experiment("fig3", fast=True)
        hists = r.data["histograms"]
        emmy_on = hists["Emmy (InfiniBand) / SMT on"]
        meggie_on = hists["Meggie (Omni-Path) / SMT on"]
        meggie_off = hists["Meggie (Omni-Path) / SMT off"]
        assert emmy_on.mean == pytest.approx(2.4e-6, rel=0.1)
        assert meggie_on.mean == pytest.approx(2.8e-6, rel=0.1)
        assert meggie_off.is_bimodal(min_separation=100e-6)
        second = meggie_off.modes(min_separation=100e-6)[1]
        assert second == pytest.approx(660e-6, rel=0.1)


class TestFig4Shape:
    def test_speed_matches_model(self):
        run = run_scenario(load_bundled_scenario("fig4_single_delay"))
        wave = run.data["wave_speed"]
        assert wave["measured_speed"] == \
            pytest.approx(wave["predicted_speed"], rel=0.01)
        down = wave_front(run.timing, source=5, direction=-1,
                          threshold=default_threshold(run.timing))
        assert down.reach == 0


class TestFig5Shape:
    def test_all_eight_panels_present(self):
        r = run_experiment("fig5", fast=True)
        assert len(r.data) == 8

    def test_rendezvous_bidirectional_doubles(self):
        r = run_experiment("fig5", fast=True)
        v_uni = r.data["(e) rdv uni open"]["speed_up"]
        v_bi = r.data["(g) rdv bi open"]["speed_up"]
        assert v_bi / v_uni == pytest.approx(2.0, rel=0.02)

    def test_cancellation_rank_matches_paper(self):
        r = run_experiment("fig5", fast=True)
        assert r.data["(d) eager bi periodic"]["meeting_ranks"] == [14]


class TestFig6Shape:
    def test_resync_ordering(self):
        r = run_experiment("fig6", fast=True)
        equal = r.data["equal"]["resync_step"]
        half = r.data["half"]["resync_step"]
        rand = r.data["random"]["resync_step"]
        assert equal is not None and half is not None
        assert equal < half
        assert rand is None

    def test_all_defects_negative(self):
        r = run_experiment("fig6", fast=True)
        for scenario in ("equal", "half", "random"):
            assert r.data[scenario]["superposition_defect"] < 0


class TestFig7Shape:
    def test_ratio_two(self):
        report = run_report(compile_report(load_bundled_report("fig7_speed")))
        speed = {row.group["comm.direction"]:
                 row.values["wave_speed.measured_speed.mean"]
                 for row in report.rows}
        ratio = speed["bidirectional"] / speed["unidirectional"]
        assert ratio == pytest.approx(2.0, rel=0.01)


class TestEq2Shape:
    def test_max_error_below_one_percent(self):
        r = run_experiment("eq2", fast=True)
        assert r.data["max_error_pct"] < 1.0


class TestFig8Shape:
    def test_positive_correlation_everywhere(self):
        r = run_experiment("fig8", fast=True)
        for system, series in r.data["series"].items():
            medians = [pt["stats"].median for pt in series]
            assert medians[-1] > medians[0] > 0, system


class TestFig9Shape:
    def test_elimination_trend(self):
        r = run_experiment("fig9", fast=True)
        points = r.data["points"]
        assert points[0].excess == pytest.approx(r.data["delay"], rel=0.01)
        assert points[-1].excess < points[0].excess
