"""Benchmark: regenerate Fig. 4 — basic delay propagation.

Runs the bundled ``fig4_single_delay`` scenario (what ``repro-experiment
fig4`` runs) and prints its rank/time diagram and wave speed; asserts the
measured speed against Eq. 2 and the absence of backward propagation.
"""

import pytest

from repro.core import default_threshold, wave_front
from repro.scenarios import load_bundled_scenario, run_scenario


def test_bench_fig4_basic_propagation(once):
    run = once(run_scenario, load_bundled_scenario("fig4_single_delay"))
    print()
    print(run.render())

    wave = run.data["wave_speed"]
    assert wave["measured_speed"] == \
        pytest.approx(wave["predicted_speed"], rel=0.01)
    down = wave_front(run.timing, source=5, direction=-1,
                      threshold=default_threshold(run.timing))
    assert down.reach == 0
