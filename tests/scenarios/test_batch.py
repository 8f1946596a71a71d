"""The scenario task batcher: planning, execution, and bit-identity.

The batching contract: grouping replicate tasks into one batched engine
call is *invisible* — per-task values, cache records, failure isolation,
and sharding semantics are exactly those of unbatched execution.
"""

import numpy as np
import pytest
from store_helpers import entry_bytes

from repro.runtime import ResultStore, RunSpec, run_campaign
from repro.runtime.executor import contiguous_blocks
from repro.scenarios import (
    ScenarioTaskBatcher,
    load_bundled_scenario,
    run_scenario,
    run_scenario_batch,
    run_scenario_sweep,
    scenario_sweep_spec,
)
from repro.scenarios.batch import SCENARIO_TASK_FN

N_SWEEP = 12  # campaign_rate_sweep: 3 rates x 4 replicates

def assert_records_byte_identical(root_a, root_b, n_records):
    """Both stores hold the same ``n_records`` keys with identical
    packed entry bytes (header, JSON and array segment)."""
    a, b = entry_bytes(root_a), entry_bytes(root_b)
    assert len(a) == n_records
    assert a == b


def sweep_tasks(name="campaign_rate_sweep", **kw):
    return scenario_sweep_spec(load_bundled_scenario(name), **kw).tasks()


def per_task(tasks, **kw):
    """The reference side: every task through its own function call."""
    return run_campaign(tasks, batcher=None, **kw)


class UnreturnableResultBatcher(ScenarioTaskBatcher):
    """Computes correct values but poisons them so the worker cannot ship
    them back (unpicklable) — simulates a block whose future dies."""

    def execute(self, specs):
        values = [dict(v) for v in super().execute(specs)]
        for v in values:
            v["poison"] = lambda: None  # not picklable
        return values


class TestPlanner:
    def test_replicate_blocks_are_grouped(self):
        tasks = sweep_tasks()  # 3 rates x 4 replicates, replicate fastest
        blocks = ScenarioTaskBatcher().plan(tasks)
        assert [len(b) for b in blocks] == [4, 4, 4]
        flat = [i for b in blocks for i in b]
        assert flat == list(range(len(tasks)))

    def test_max_block_caps_group_size(self):
        tasks = sweep_tasks()
        sigs = [ScenarioTaskBatcher._signature(t) for t in tasks]
        blocks = contiguous_blocks(sigs, 3)
        assert max(len(b) for b in blocks) == 3
        assert sum(len(b) for b in blocks) == len(tasks)

    def test_foreign_tasks_are_never_grouped(self):
        foreign = tuple(
            RunSpec(fn="repro.runtime.tasks:lockstep_delay_task",
                    params=(("n_ranks", 8),), seed=i, index=i)
            for i in range(3)
        )
        blocks = ScenarioTaskBatcher().plan(foreign)
        assert blocks == [[0], [1], [2]]

    def test_seedless_scenario_tasks_are_never_grouped(self):
        specs = tuple(
            RunSpec(fn=SCENARIO_TASK_FN, params=(("replicate", i),),
                    seed=None, index=i)
            for i in range(3)
        )
        assert ScenarioTaskBatcher().plan(specs) == [[0], [1], [2]]

    def test_seedless_scenario_tasks_group_on_their_seed_param(self):
        """Without a derived seed a task's seed is its ``seed`` parameter:
        such tasks group like replicates and keep their per-task values."""
        specs = tuple(
            RunSpec(fn=SCENARIO_TASK_FN,
                    params=(*t.params, ("seed", t.seed)), index=t.index)
            for t in sweep_tasks()
        )
        blocks = ScenarioTaskBatcher().plan(specs)
        assert [len(b) for b in blocks] == [4, 4, 4]
        block = specs[:4]
        values = ScenarioTaskBatcher().execute(block)
        assert values == [t.call() for t in block]

    def test_different_grid_points_split_blocks(self):
        tasks = sweep_tasks()
        sigs = [ScenarioTaskBatcher._signature(t) for t in tasks]
        # 3 distinct grid points, each repeated for its replicates
        assert len(set(sigs)) == 3


class TestBatchedCampaignBitIdentity:
    def test_batched_store_records_equal_serial_byte_for_byte(self, tmp_path):
        spec = load_bundled_scenario("campaign_rate_sweep")
        serial = per_task(sweep_tasks(), jobs=1,
                          store=ResultStore(tmp_path / "serial"))
        batched = run_scenario_sweep(spec, jobs=1,
                                     store=ResultStore(tmp_path / "batched"))
        assert serial.values() == batched.campaign.values()
        assert_records_byte_identical(tmp_path / "serial",
                                      tmp_path / "batched", N_SWEEP)

    def test_forced_dag_sweep_records_byte_identical(self, tmp_path):
        """Forced-DAG campaigns cache the same bytes batched or not.

        The DAG engine's batched ``StaticDag`` propagation must leave no
        trace in the store: record names (spec keys) and payload bytes of
        a batched forced-DAG sweep equal those of serial unbatched
        execution.
        """
        spec = load_bundled_scenario("campaign_rate_sweep")
        serial = per_task(sweep_tasks(engine="dag"), jobs=1,
                          store=ResultStore(tmp_path / "serial"))
        batched = run_scenario_sweep(spec, engine="dag", jobs=1,
                                     store=ResultStore(tmp_path / "batched"))
        assert all(v["engine"] == "dag" for v in batched.campaign.values())
        assert serial.values() == batched.campaign.values()
        assert_records_byte_identical(tmp_path / "serial",
                                      tmp_path / "batched", N_SWEEP)

    def test_batched_results_warm_an_unbatched_rerun(self, tmp_path):
        spec = load_bundled_scenario("campaign_rate_sweep")
        store = ResultStore(tmp_path / "store")
        cold = run_scenario_sweep(spec, store=store)
        assert cold.campaign.n_executed == len(cold.campaign)
        warm = per_task(sweep_tasks(), store=store)
        assert warm.n_cached == len(warm)
        assert warm.values() == cold.campaign.values()

    def test_sharded_batched_sweep_is_bit_identical(self):
        spec = load_bundled_scenario("campaign_rate_sweep")
        serial = per_task(sweep_tasks(), jobs=1)
        sharded = run_scenario_sweep(spec, jobs=2)
        assert serial.values() == sharded.campaign.values()

    def test_hierarchical_sweep_batches_on_lockstep(self, tmp_path):
        """A ppn scenario (previously DAG-only) batches and caches cleanly."""
        spec = load_bundled_scenario("emmy_mapped_dag")
        store = ResultStore(tmp_path / "store")
        result = run_scenario_sweep(spec, store=store)
        assert all(v["engine"] == "lockstep"
                   for v in result.campaign.values())
        direct = run_scenario(spec.without_sweep())
        runtime = result.campaign.values()[0]["outputs"]["runtime"]
        assert runtime["total_runtime"] == direct.data["runtime"]["total_runtime"]


class TestTelemetryDeterminism:
    """Profiling is pure observation: enabling telemetry never changes
    engine outputs or the bytes the store persists."""

    @pytest.fixture
    def profiled(self):
        from repro import telemetry

        telemetry.enable()
        yield telemetry
        telemetry.disable()

    def test_profiled_sweep_store_records_byte_identical(
            self, tmp_path, profiled):
        spec = load_bundled_scenario("campaign_rate_sweep")
        plain_store = ResultStore(tmp_path / "plain")
        plain = run_scenario_sweep(spec, engine="dag", store=plain_store)
        prof_store = ResultStore(tmp_path / "profiled")
        assert profiled.enabled()
        prof = run_scenario_sweep(spec, engine="dag", store=prof_store)
        assert prof.campaign.values() == plain.campaign.values()
        assert prof.points == plain.points
        assert_records_byte_identical(tmp_path / "plain",
                                      tmp_path / "profiled", N_SWEEP)

    def test_profiled_parallel_sweep_matches_plain_serial(self, profiled):
        spec = load_bundled_scenario("campaign_rate_sweep")
        prof = run_scenario_sweep(spec, jobs=2)
        profiled.disable()
        plain = per_task(sweep_tasks(), jobs=1)
        assert prof.campaign.values() == plain.values()

    def test_profiled_engine_outputs_bitwise_equal(self, profiled):
        spec = load_bundled_scenario(
            "meggie_bimodal_rendezvous_campaign").without_sweep()
        prof = run_scenario(spec, seed=7)
        profiled.disable()
        plain = run_scenario(spec, seed=7)
        assert np.array_equal(prof.timing.completion, plain.timing.completion)
        assert prof.data == plain.data

    def test_profiled_warm_read_hits_are_pure(self, tmp_path, profiled):
        """Counting store hits must not perturb the cached values."""
        spec = load_bundled_scenario("campaign_rate_sweep")
        store = ResultStore(tmp_path / "store")
        profiled.disable()
        cold = run_scenario_sweep(spec, store=store)
        profiled.enable()
        warm = run_scenario_sweep(spec, store=store)
        rec = profiled.current_recorder()
        assert rec.counters["store.get.hits"] == len(warm.campaign)
        assert warm.campaign.n_cached == len(warm.campaign)
        assert warm.campaign.values() == cold.campaign.values()


class TestObservabilityDeterminism:
    """Recording lifecycle events is pure observation, like telemetry:
    enabling it never changes engine outputs or the bytes the store
    persists."""

    @pytest.fixture
    def observed(self):
        from repro import telemetry

        telemetry.enable()
        yield telemetry
        telemetry.disable()

    def test_observed_sweep_store_records_byte_identical(
            self, tmp_path, observed):
        spec = load_bundled_scenario("campaign_rate_sweep")
        plain_store = ResultStore(tmp_path / "plain")
        observed.disable()
        plain = run_scenario_sweep(spec, engine="dag", store=plain_store)
        observed.enable()
        obs_store = ResultStore(tmp_path / "observed")
        obs = run_scenario_sweep(spec, engine="dag", store=obs_store)
        assert obs.campaign.values() == plain.campaign.values()
        assert obs.points == plain.points
        assert_records_byte_identical(tmp_path / "plain",
                                      tmp_path / "observed", N_SWEEP)

    def test_observed_parallel_sweep_matches_plain_serial(self, observed):
        spec = load_bundled_scenario("campaign_rate_sweep")
        obs = run_scenario_sweep(spec, jobs=2)
        observed.disable()
        plain = per_task(sweep_tasks(), jobs=1)
        assert obs.campaign.values() == plain.values()

    def test_observed_and_profiled_together_stay_pure(
            self, tmp_path, observed):
        """Spans and events share the worker result channel; running
        ``profiled`` inside an observed run must still leave the store
        untouched byte-wise."""
        spec = load_bundled_scenario("campaign_rate_sweep")
        observed.disable()
        plain_store = ResultStore(tmp_path / "plain")
        plain = run_scenario_sweep(spec, engine="dag", store=plain_store)
        rec = observed.enable()
        with observed.profiled("scenario.sweep", echo=None):
            both_store = ResultStore(tmp_path / "both")
            both = run_scenario_sweep(spec, engine="dag", jobs=2,
                                      store=both_store)
        assert rec.counts()["task.done"] == N_SWEEP
        assert both.campaign.values() == plain.campaign.values()
        assert_records_byte_identical(tmp_path / "plain",
                                      tmp_path / "both", N_SWEEP)

    def test_observed_warm_read_values_are_pure(self, tmp_path, observed):
        """cache_hit events must not perturb cached values."""
        spec = load_bundled_scenario("campaign_rate_sweep")
        store = ResultStore(tmp_path / "store")
        observed.disable()
        cold = run_scenario_sweep(spec, store=store)
        observed.enable()
        warm = run_scenario_sweep(spec, store=store)
        rec = observed.current_recorder()
        assert rec.counts()["task.cache_hit"] == len(warm.campaign)
        assert warm.campaign.values() == cold.campaign.values()


class TestBatchExecution:
    def test_execute_matches_scenario_task_values(self):
        tasks = sweep_tasks()
        batcher = ScenarioTaskBatcher()
        block = tasks[:4]
        batched_values = batcher.execute(block)
        serial_values = [t.call() for t in block]
        assert batched_values == serial_values

    def test_dag_forced_blocks_still_produce_identical_values(self):
        tasks = sweep_tasks(engine="dag")
        block = tasks[:4]
        batched_values = ScenarioTaskBatcher().execute(block)
        assert batched_values == [t.call() for t in block]
        assert all(v["engine"] == "dag" for v in batched_values)

    def test_run_scenario_batch_empty_seed_list(self):
        assert run_scenario_batch(
            load_bundled_scenario("fig4_single_delay"), []) == []

    def test_run_scenario_batch_matches_run_scenario(self):
        spec = load_bundled_scenario("meggie_bimodal_rendezvous_campaign") \
            .without_sweep()
        seeds = [11, 22, 33]
        batched = run_scenario_batch(spec, seeds)
        for seed, run in zip(seeds, batched):
            serial = run_scenario(spec, seed=seed)
            assert np.array_equal(run.timing.completion,
                                  serial.timing.completion)
            assert run.data == serial.data
            assert run.n_campaign_delays == serial.n_campaign_delays
            assert run.seed == serial.seed


class TestBatcherFailureIsolation:
    def test_broken_batcher_falls_back_to_per_task_execution(self):
        class ExplodingBatcher(ScenarioTaskBatcher):
            def execute(self, specs):
                raise RuntimeError("batch infrastructure down")

        tasks = sweep_tasks()
        with pytest.warns(RuntimeWarning, match="batch infrastructure down"):
            campaign = run_campaign(tasks, jobs=1, batcher=ExplodingBatcher())
        assert not campaign.failures
        reference = run_campaign(tasks, jobs=1)
        assert campaign.values() == reference.values()

    def test_wrong_value_count_falls_back_with_warning(self):
        class ShortBatcher(ScenarioTaskBatcher):
            def execute(self, specs):
                return [super().execute(specs)[0]]

        tasks = sweep_tasks()
        with pytest.warns(RuntimeWarning, match="contract violation"):
            campaign = run_campaign(tasks, jobs=1, batcher=ShortBatcher())
        assert not campaign.failures
        assert campaign.values() == run_campaign(tasks, jobs=1).values()

    def test_died_block_future_is_retried_per_task_in_the_pool(self):
        """A block whose result can't come back from the worker must not
        fail all its tasks: they are re-enqueued as singletons (which
        bypass the batcher) and succeed individually."""
        tasks = sweep_tasks()
        with pytest.warns(RuntimeWarning, match="retrying per task"):
            campaign = run_campaign(tasks, jobs=2,
                                    batcher=UnreturnableResultBatcher())
        assert not campaign.failures
        assert campaign.values() == run_campaign(tasks, jobs=1).values()

    def test_invalid_plan_is_rejected(self):
        class OverlappingPlan(ScenarioTaskBatcher):
            def plan(self, specs):
                return [[0, 0], list(range(1, len(specs)))]

        with pytest.raises(ValueError, match="partition"):
            run_campaign(sweep_tasks(), jobs=1, batcher=OverlappingPlan())
