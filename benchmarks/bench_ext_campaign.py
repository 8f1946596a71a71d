"""Benchmark: the random-delay-campaign extension experiment.

Regenerates the injection-rate scan and asserts the sublinear cost law:
the marginal runtime cost per injected delay-second falls monotonically
with the rate (wave cancellation at the system level).
"""

from repro.experiments import run_experiment


def test_bench_ext_campaign(once):
    result = once(run_experiment, "ext_campaign", fast=True)
    print()
    print(result.render())

    rates = sorted(result.data)
    ratios = [result.data[r]["cost_ratio"] for r in rates]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] > 0.8  # sparse campaign: nearly full cost
    assert ratios[-1] < 0.5  # dense campaign: heavily absorbed
