"""Benchmark: regenerate Fig. 7 — d=2 rendezvous speed comparison.

Runs the bundled ``fig7_speed`` report (what ``repro-experiment fig7``
runs), prints the uni-vs-bi speed table and asserts the 2x ratio and Eq. 2
agreement.
"""

import pytest

from repro.reports import compile_report, load_bundled_report, run_report


def test_bench_fig7_speed_d2(once):
    result = once(run_report, compile_report(load_bundled_report("fig7_speed")))
    print()
    print(result.render())

    rows = {row.group["comm.direction"]: row.values for row in result.rows}
    ratio = (rows["bidirectional"]["wave_speed.measured_speed.mean"]
             / rows["unidirectional"]["wave_speed.measured_speed.mean"])
    assert ratio == pytest.approx(2.0, rel=0.01)
    for values in rows.values():
        assert values["wave_speed.measured_speed.mean"] == \
            pytest.approx(values["wave_speed.predicted_speed.mean"], rel=0.01)
