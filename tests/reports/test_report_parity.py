"""Acceptance parity: the bundled specs reproduce the paper-figure
quantities to 1e-9.

Fig. 4 and Fig. 7 have no experiment driver any more; their numbers are
pinned as the float literals the retired drivers produced
(``fig4`` at ``fast=False``, ``fig7`` at ``seed=0``), so the
``scenario run fig4_single_delay`` and ``report run fig7_speed`` paths
behind ``repro-experiment fig4|fig7`` cannot drift.  Fig. 8 is still
compared live against its driver: the experiment path is per-seed, the
report path batched, and the two must stay below 1e-9 relative.
"""

import pytest

from repro.core import default_threshold, wave_front
from repro.experiments.fig8_decay_rate import run as fig8_run
from repro.reports import compile_report, load_bundled_report, run_report
from repro.scenarios import load_bundled_scenario, run_scenario

RTOL = 1e-9

#: The Fig. 4 driver's numbers (18 ranks x 20 steps, delay at rank 5).
FIG4_SPEED = 332.7552890017792
FIG4_MODEL_SPEED = 332.7531597130869
FIG4_FRONT_RANKS = [6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17]
FIG4_ARRIVALS = [
    0.0030004999999999997, 0.006005730666666667, 0.009010961333333333,
    0.012016192000000002, 0.01502142266666667, 0.018026653333333337,
    0.021031884000000004, 0.02403711466666667, 0.02704234533333334,
    0.030047576000000006, 0.03305280666666668, 0.03605753733333335,
]
FIG4_AMPLITUDES = [
    0.01350473066666667, 0.01350473066666667, 0.013504730666666671,
    0.01350473066666667, 0.01350473066666667, 0.013504730666666673,
    0.013504730666666676, 0.01350473066666668, 0.013504730666666683,
    0.013504730666666687, 0.013504730666666687, 0.013505230666666687,
]
#: The Fig. 7 driver's numbers: panel -> (measured speed, Eq. 2 speed).
FIG7 = {
    "(a) unidirectional": (648.1553471513223, 648.2183718050937),
    "(b) bidirectional": (1296.016681357156, 1296.4367436101875),
}


class TestFig4Parity:
    @pytest.fixture(scope="class")
    def run(self):
        return run_scenario(load_bundled_scenario("fig4_single_delay"))

    @pytest.fixture(scope="class")
    def fronts(self, run):
        threshold = default_threshold(run.timing)
        return tuple(wave_front(run.timing, source=5, direction=direction,
                                threshold=threshold)
                     for direction in (+1, -1))

    def test_speed_and_eq2_prediction(self, run):
        wave = run.data["wave_speed"]
        assert wave["measured_speed"] == pytest.approx(FIG4_SPEED, rel=RTOL)
        assert wave["predicted_speed"] == \
            pytest.approx(FIG4_MODEL_SPEED, rel=RTOL)

    def test_front_arrivals_and_amplitudes(self, fronts):
        up, _ = fronts
        assert list(up.ranks) == FIG4_FRONT_RANKS
        assert list(up.arrival_times) == pytest.approx(FIG4_ARRIVALS, rel=RTOL)
        assert list(up.amplitudes) == pytest.approx(FIG4_AMPLITUDES, rel=RTOL)

    def test_no_downward_reach(self, fronts):
        _, down = fronts
        assert down.reach == 0


class TestFig7Parity:
    @pytest.fixture(scope="class")
    def pair(self):
        report = run_report(compile_report(load_bundled_report("fig7_speed")))
        rows = {row.group["comm.direction"]: row for row in report.rows}
        return FIG7, rows

    @pytest.mark.parametrize("panel,direction", [
        ("(a) unidirectional", "unidirectional"),
        ("(b) bidirectional", "bidirectional"),
    ])
    def test_measured_speed(self, pair, panel, direction):
        recorded, rows = pair
        assert rows[direction].values["wave_speed.measured_speed.mean"] == \
            pytest.approx(recorded[panel][0], rel=RTOL)

    @pytest.mark.parametrize("panel,direction", [
        ("(a) unidirectional", "unidirectional"),
        ("(b) bidirectional", "bidirectional"),
    ])
    def test_eq2_prediction(self, pair, panel, direction):
        recorded, rows = pair
        assert rows[direction].values["wave_speed.predicted_speed.mean"] == \
            pytest.approx(recorded[panel][1], rel=RTOL)

    def test_sigma_ratio(self, pair):
        _, rows = pair
        ratio = (rows["bidirectional"].values["wave_speed.measured_speed.mean"]
                 / rows["unidirectional"].values["wave_speed.measured_speed.mean"])
        assert ratio == pytest.approx(2.0, rel=0.01)


class TestFig8Parity:
    @pytest.fixture(scope="class")
    def pair(self):
        experiment = fig8_run(fast=True, seed=0)
        report = run_report(compile_report(load_bundled_report("fig8_decay")))
        rows = {row.group["noise.level"]: row for row in report.rows}
        return experiment.data["series"]["Simulated"], rows

    def test_levels_match_fast_mode(self, pair):
        series, rows = pair
        assert sorted(rows) == [pt["E"] for pt in series]

    @pytest.mark.parametrize("stat,attr", [
        ("median", "median"), ("min", "minimum"), ("max", "maximum"),
    ])
    def test_decay_statistics(self, pair, stat, attr):
        series, rows = pair
        for point in series:
            row = rows[point["E"]]
            assert row.n_draws == 5
            assert row.values[f"decay_rate.beta.{stat}"] == \
                pytest.approx(getattr(point["stats"], attr), rel=RTOL)
