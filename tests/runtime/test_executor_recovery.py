"""Fault-tolerant execution: retries, pool recovery, quarantine, ^C."""

import warnings

import pytest
from store_helpers import entry_bytes

from repro.obs import events
from repro.runtime import (
    ChaosSpec,
    ResultStore,
    RetryPolicy,
    RunSpec,
    SweepSpec,
    run_campaign,
)
from repro.runtime import chaos

PROBE = "repro.runtime.tasks:rng_probe_task"
HARD_EXIT = "repro.runtime.tasks:hard_exit_task"
FLAKY_EXIT = "repro.runtime.tasks:flaky_exit_task"


def probe_sweep(n_tasks=6, base_seed=3):
    return SweepSpec(
        fn=PROBE,
        base={"n": 4},
        axes=(("replicate", tuple(range(n_tasks))),),
        base_seed=base_seed,
    )


@pytest.fixture(autouse=True)
def clean_chaos(monkeypatch):
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.uninstall()
    yield
    chaos.uninstall()


class TestSoftRetries:
    def test_injected_crashes_heal_and_results_match_fault_free(self):
        tasks = probe_sweep(n_tasks=8).tasks()
        clean = run_campaign(tasks, jobs=1)
        chaos.install(ChaosSpec(seed=3, crash_rate=0.5))
        healed = run_campaign(tasks, jobs=1,
                              retry=RetryPolicy(retries=2, backoff_s=0.001))
        chaos.uninstall()
        assert not healed.failures
        assert healed.n_retried > 0
        assert healed.retry_wasted_s > 0
        assert healed.values() == clean.values()

    def test_retry_budget_exhaustion_still_fails(self):
        chaos.install(ChaosSpec(seed=0, crash_rate=1.0,
                                max_faults_per_task=10))
        campaign = run_campaign(probe_sweep(n_tasks=2).tasks(), jobs=1,
                                retry=RetryPolicy(retries=1,
                                                  backoff_s=0.001))
        assert len(campaign.failures) == 2
        assert all("ChaosError" in r.error for r in campaign.failures)
        # Every failed task burned its full retry budget.
        assert all(r.retries == 1 for r in campaign.failures)

    def test_retried_store_records_byte_identical(self, tmp_path):
        tasks = probe_sweep(n_tasks=8).tasks()
        clean_store = ResultStore(tmp_path / "clean")
        run_campaign(tasks, jobs=1, store=clean_store)
        chaos.install(ChaosSpec(seed=3, crash_rate=0.5))
        chaotic_store = ResultStore(tmp_path / "chaotic")
        run_campaign(tasks, jobs=1, store=chaotic_store,
                     retry=RetryPolicy(retries=2, backoff_s=0.001))
        chaos.uninstall()
        clean_bytes = entry_bytes(tmp_path / "clean")
        assert len(clean_bytes) == 8
        assert entry_bytes(tmp_path / "chaotic") == clean_bytes

    def test_retry_events_are_emitted(self):
        chaos.install(ChaosSpec(seed=0, crash_rate=1.0))
        bus = events.enable(fresh=True)
        try:
            run_campaign(probe_sweep(n_tasks=2).tasks(), jobs=1,
                         retry=RetryPolicy(retries=1, backoff_s=0.0))
        finally:
            chaos.uninstall()
            retries = [e for e in bus.identity()
                       if e[1] == "task.retry"]
            events.disable()
        assert len(retries) == 2
        assert all(e[2]["attempt"] == 1 for e in retries)


class TestPoolRecovery:
    def test_transient_worker_death_recovers(self, tmp_path):
        """A worker OOM-kill on the first attempt must not cost the task."""
        specs = list(probe_sweep(n_tasks=5).tasks())
        specs.append(RunSpec(
            fn=FLAKY_EXIT,
            params=(("sentinel", str(tmp_path / "marks")),
                    ("fail_times", 1), ("replicate", 0)),
            seed=1, index=len(specs)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            campaign = run_campaign(specs, jobs=2)
        assert not campaign.failures
        assert campaign.n_pool_respawns >= 1
        assert campaign.n_redispatched >= 1
        assert campaign.results[-1].value["attempts"] == 1

    def test_poison_task_is_quarantined_not_retried_forever(self):
        specs = list(probe_sweep(n_tasks=5).tasks())
        specs.append(RunSpec(fn=HARD_EXIT, params=(("code", 11),),
                             seed=1, index=len(specs)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            campaign = run_campaign(specs, jobs=2, quarantine_after=2)
        assert campaign.n_quarantined == 1
        assert campaign.n_pool_respawns == 2
        bad = campaign.results[-1]
        assert bad.quarantined
        assert "quarantined" in bad.error
        # The innocent majority all completed.
        assert sum(1 for r in campaign.results if r.error is None) == 5

    def test_quarantine_events_and_result_flags_agree(self):
        # The poison needs company: a one-unit campaign runs serially,
        # where hard_exit_task would kill the test process itself.
        specs = list(probe_sweep(n_tasks=3).tasks())
        specs.append(RunSpec(fn=HARD_EXIT, params=(("code", 9),),
                             seed=0, index=len(specs)))
        bus = events.enable(fresh=True)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                campaign = run_campaign(specs, jobs=2, quarantine_after=2)
            names = [e[1] for e in bus.identity()]
        finally:
            events.disable()
        assert campaign.n_quarantined == 1
        assert "task.quarantined" in names
        assert "pool.respawn" in names
        # The quarantined task still terminates its lifecycle.
        assert names.count("task.failed") == 1

    def test_quarantine_after_validated(self):
        with pytest.raises(ValueError, match="quarantine_after"):
            run_campaign(probe_sweep(n_tasks=1).tasks(), jobs=2,
                         quarantine_after=0)


class TestStallRetry:
    def test_stall_action_validated(self):
        with pytest.raises(ValueError, match="stall_action"):
            run_campaign(probe_sweep(n_tasks=1).tasks(), jobs=1,
                         stall_action="panic")

    def test_stalled_task_is_redispatched_and_completes(self):
        """With stall_action='retry' an injected stall trips the watchdog,
        the flagged block is abandoned, and its re-dispatch completes the
        campaign with correct results."""
        from repro.obs.health import StallWatchdog

        tasks = list(probe_sweep(n_tasks=4).tasks())
        clean = run_campaign(tasks, jobs=1)
        chaos.install(ChaosSpec(seed=0, stall_rate=1.0, stall_s=1.5,
                                max_faults_per_task=1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            campaign = run_campaign(
                tasks, jobs=2, stall_action="retry",
                watchdog=StallWatchdog(min_stall_s=0.3, poll_s=0.05))
        chaos.uninstall()
        assert not campaign.failures
        assert campaign.values() == clean.values()


class TestInterrupt:
    def test_keyboard_interrupt_shuts_the_pool_down(self, tmp_path):
        """^C mid-campaign cancels cleanly and leaves no torn records."""
        store = ResultStore(tmp_path / "cache")
        calls = {"n": 0}

        def boom(result):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(probe_sweep(n_tasks=12).tasks(), jobs=2,
                         store=store, on_result=boom)
        # Whatever was persisted before the interrupt is fully readable:
        # no torn shard entries, and a fresh campaign completes from it.
        reread = ResultStore(tmp_path / "cache")
        for key in reread.keys():
            assert reread.get(key) is not None
        campaign = run_campaign(probe_sweep(n_tasks=12).tasks(), jobs=1,
                                store=reread)
        assert not campaign.failures
        assert campaign.n_cached >= 1
