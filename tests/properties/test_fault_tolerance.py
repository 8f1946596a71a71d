"""Property-based contract: faults never change campaign bytes.

The fault-tolerance layer promises that retries, worker crashes, and
resume are *invisible in the data*: a chaotic parallel campaign must
persist byte-identical store records to a fault-free serial run of the
same sweep, and a resumed campaign must replay cached values bit-exactly.
Any divergence would mean injected faults leak into results — the one
failure mode a reproducibility harness can never have.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from store_helpers import entry_bytes, keep_only

from repro.runtime import (
    ChaosSpec,
    ResultStore,
    RetryPolicy,
    SweepSpec,
    chaos,
    run_campaign,
)

PROBE = "repro.runtime.tasks:rng_probe_task"


def _sweep(n_tasks, base_seed):
    return SweepSpec(
        fn=PROBE,
        base={"n": 3},
        axes=(("replicate", tuple(range(n_tasks))),),
        base_seed=base_seed,
    )


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chaos_seed=st.integers(min_value=0, max_value=2**32 - 1),
       base_seed=st.integers(min_value=0, max_value=2**16),
       n_tasks=st.integers(min_value=4, max_value=10))
def test_chaotic_parallel_run_is_byte_identical_to_clean_serial(
        tmp_path_factory, chaos_seed, base_seed, n_tasks):
    tmp_path = tmp_path_factory.mktemp("chaos-parity")
    tasks = _sweep(n_tasks, base_seed).tasks()

    clean_store = ResultStore(tmp_path / "clean")
    clean = run_campaign(tasks, jobs=1, store=clean_store)
    assert not clean.failures

    chaos.install(ChaosSpec(seed=chaos_seed, crash_rate=0.4,
                            max_faults_per_task=2))
    try:
        chaotic_store = ResultStore(tmp_path / "chaotic")
        chaotic = run_campaign(tasks, jobs=2, store=chaotic_store,
                               retry=RetryPolicy(retries=2, backoff_s=0.001))
    finally:
        chaos.uninstall()

    assert not chaotic.failures
    assert chaotic.values() == clean.values()
    clean_bytes = entry_bytes(tmp_path / "clean")
    assert len(clean_bytes) == n_tasks
    assert entry_bytes(tmp_path / "chaotic") == clean_bytes


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base_seed=st.integers(min_value=0, max_value=2**16),
       n_tasks=st.integers(min_value=4, max_value=10),
       n_keep=st.integers(min_value=1, max_value=3))
def test_resumed_campaign_replays_cached_values_bit_exactly(
        tmp_path_factory, base_seed, n_tasks, n_keep):
    """Golden replay: rebuild a finished campaign's store with only
    ``n_keep`` of its records, rerun, and the completed campaign must be
    value-identical to the original — with the kept records served from
    cache, untouched on disk."""
    tmp_path = tmp_path_factory.mktemp("resume-replay")
    tasks = _sweep(n_tasks, base_seed).tasks()

    store = ResultStore(tmp_path / "cache")
    first = run_campaign(tasks, jobs=1, store=store)
    assert not first.failures

    keys = sorted(store.keys())
    assert len(keys) == n_tasks
    partial = keep_only(tmp_path / "cache", keys[:n_keep])
    kept = entry_bytes(tmp_path / "cache")
    assert len(kept) == n_keep

    resumed = run_campaign(tasks, jobs=1, store=partial)
    assert not resumed.failures
    assert resumed.n_cached == n_keep
    assert resumed.values() == first.values()
    after = entry_bytes(tmp_path / "cache")
    assert len(after) == n_tasks
    for key, payload in kept.items():
        assert after[key] == payload
