"""The build-once/propagate-many StaticDag engine core.

Covers the structure cache (hits across draws, invalidation on any
structural or config change), the batched propagate contract, the typed
:class:`~repro.sim.engine.EngineError`, and columnar trace
materialization.
"""

import numpy as np
import pytest

from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    EngineError,
    ExponentialNoise,
    LockstepConfig,
    Protocol,
    SimConfig,
    UniformNetwork,
    build_dag,
    build_exec_times,
    build_lockstep_program,
    clear_dag_cache,
    dag_cache_info,
    simulate,
    simulate_dag,
    simulate_dag_batch,
)
from repro.sim.program import Op, OpKind, Program

T = 3e-3


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_dag_cache()
    yield
    clear_dag_cache()


def make_cfg(**kw):
    kw.setdefault("n_ranks", 8)
    kw.setdefault("n_steps", 6)
    kw.setdefault("t_exec", T)
    kw.setdefault("noise", ExponentialNoise(2e-4))
    return LockstepConfig(**kw)


def deadlock_program():
    """Two ranks that each wait for their send before posting the recv —
    a rendezvous cycle (classic head-to-head deadlock)."""
    ops = [
        [Op(kind=OpKind.COMP, duration=T, step=0),
         Op(kind=OpKind.ISEND, peer=1, size=10_000_000, tag=0, step=0),
         Op(kind=OpKind.WAITALL, step=0),
         Op(kind=OpKind.IRECV, peer=1, size=10_000_000, tag=1, step=0),
         Op(kind=OpKind.WAITALL, step=0)],
        [Op(kind=OpKind.COMP, duration=T, step=0),
         Op(kind=OpKind.ISEND, peer=0, size=10_000_000, tag=1, step=0),
         Op(kind=OpKind.WAITALL, step=0),
         Op(kind=OpKind.IRECV, peer=0, size=10_000_000, tag=0, step=0),
         Op(kind=OpKind.WAITALL, step=0)],
    ]
    return Program(ops=ops, n_steps=1)


class TestStructure:
    def test_csr_shape_and_levels(self):
        cfg = make_cfg()
        dag = build_dag(build_lockstep_program(cfg, build_exec_times(cfg)))
        assert dag.succ_indptr.shape == (dag.n_nodes + 1,)
        assert dag.succ_index.shape == (dag.n_edges,)
        assert dag.edge_delay.shape == (dag.n_edges,)
        assert int(dag.succ_indptr[-1]) == dag.n_edges
        # the level order is a permutation, and every edge points to a
        # strictly later level
        assert sorted(dag.level_order.tolist()) == list(range(dag.n_nodes))
        level_of = np.empty(dag.n_nodes, dtype=int)
        for lv in range(dag.n_levels):
            level_of[dag.level_order[dag.level_ptr[lv]:dag.level_ptr[lv + 1]]] = lv
        assert np.all(level_of[dag.edge_src_lv] < level_of[dag.edge_dst_lv])

    def test_propagate_default_durations_zero_comp(self):
        cfg = make_cfg(noise=ExponentialNoise(0.0))
        dag = build_dag(build_lockstep_program(cfg, build_exec_times(cfg)))
        end = dag.propagate()
        assert end.shape == (dag.n_nodes,)
        assert np.all(np.isfinite(end))

    def test_propagate_rejects_bad_shapes(self):
        cfg = make_cfg()
        dag = build_dag(build_lockstep_program(cfg, build_exec_times(cfg)))
        with pytest.raises(ValueError, match="n_nodes"):
            dag.propagate(np.zeros(3))
        with pytest.raises(ValueError, match="edge_delays"):
            dag.propagate(edge_delays=np.zeros(3))
        with pytest.raises(ValueError, match="exec_times"):
            dag.durations_from_exec(np.zeros((2, 3)))

    def test_direct_construction_from_public_fields(self):
        """StaticDag is public API: an instance rebuilt from another's
        declared fields must be fully functional (derived state is
        computed in __post_init__, not patched on by the builder)."""
        import dataclasses

        cfg = make_cfg()
        program = build_lockstep_program(cfg, build_exec_times(cfg))
        built = build_dag(program)
        init_fields = {f.name: getattr(built, f.name)
                       for f in dataclasses.fields(built) if f.init}
        from repro.sim import StaticDag

        clone = StaticDag(**init_fields)
        assert np.array_equal(clone.propagate(built.durations_for(program)),
                              built.propagate(built.durations_for(program)))
        assert clone.lockstep_shaped == built.lockstep_shaped

    def test_multi_comp_cell_rejects_dense_exec_times(self):
        """Two COMP phases in one cell cannot be addressed by a (P, S)
        matrix; the scatter must refuse instead of double-counting."""
        ops = [
            [Op(kind=OpKind.COMP, duration=T, step=0),
             Op(kind=OpKind.COMP, duration=2 * T, step=0),
             Op(kind=OpKind.ISEND, peer=1, size=8, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0)],
            [Op(kind=OpKind.COMP, duration=T, step=0),
             Op(kind=OpKind.IRECV, peer=0, size=8, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0)],
        ]
        program = Program(ops=ops, n_steps=1)
        dag = build_dag(program)
        with pytest.raises(ValueError, match="several COMP phases"):
            dag.durations_from_exec(np.full((2, 1), T))
        # the per-op gather remains exact
        end = dag.propagate(dag.durations_for(program))
        assert np.isfinite(end).all()

    def test_edge_delay_override_shifts_eager_arrivals(self):
        cfg = make_cfg(noise=ExponentialNoise(0.0))
        program = build_lockstep_program(cfg, build_exec_times(cfg))
        dag = build_dag(program, SimConfig(protocol=Protocol.EAGER))
        base_end = dag.propagate(dag.durations_for(program))
        slower = dag.propagate(dag.durations_for(program),
                               edge_delays=dag.edge_delay * 10)
        assert slower.max() > base_end.max()


class TestBatchedPropagate:
    def test_batch_slices_bitwise_equal_scalar(self):
        cfg = make_cfg(pattern=CommPattern(direction=Direction.BIDIRECTIONAL),
                       delays=(DelaySpec(rank=2, step=1, duration=5 * T),))
        stacked = np.stack([
            build_exec_times(cfg, np.random.default_rng(s)) for s in range(6)
        ])
        batch = simulate_dag_batch(cfg, stacked,
                                   SimConfig(protocol=Protocol.RENDEZVOUS))
        assert len(batch) == 6
        for b in range(6):
            single = simulate_dag(
                build_lockstep_program(cfg, stacked[b]),
                SimConfig(protocol=Protocol.RENDEZVOUS),
            )
            assert np.array_equal(batch[b].completion, single.completion)
            assert np.array_equal(batch[b].exec_end, single.exec_end)
            assert np.array_equal(batch[b].idle, single.idle)
            assert np.array_equal(batch[b].exec_start, single.exec_start)

    def test_batch_shape_validation(self):
        cfg = make_cfg()
        with pytest.raises(ValueError, match="exec_times shape"):
            simulate_dag_batch(cfg, np.zeros((cfg.n_ranks, cfg.n_steps)))
        with pytest.raises(ValueError, match="at least one run"):
            simulate_dag_batch(cfg, np.zeros((0, cfg.n_ranks, cfg.n_steps)))

    def test_negative_exec_times_rejected_in_every_draw(self):
        cfg = make_cfg()
        for bad in range(3):
            stacked = np.full((3, cfg.n_ranks, cfg.n_steps), T)
            stacked[bad, 1, 2] = -1.0
            with pytest.raises(ValueError, match="must be non-negative"):
                simulate_dag_batch(cfg, stacked)

    def test_total_runtimes_match_slices(self):
        cfg = make_cfg()
        stacked = np.stack([
            build_exec_times(cfg, np.random.default_rng(s)) for s in range(4)
        ])
        batch = simulate_dag_batch(cfg, stacked)
        per_run = [batch[b].total_runtime() for b in range(4)]
        assert np.allclose(batch.total_runtimes(), per_run)


class TestColumnarTrace:
    def test_dag_result_matches_full_trace_matrices(self):
        cfg = make_cfg(delays=(DelaySpec(rank=1, step=2, duration=4 * T),))
        et = build_exec_times(cfg)
        program = build_lockstep_program(cfg, et)
        trace = simulate(program)
        result = simulate_dag(program)
        assert np.array_equal(result.exec_end, trace.exec_end_matrix())
        assert np.array_equal(result.exec_start, trace.exec_start_matrix())
        assert np.array_equal(result.completion, trace.completion_matrix())
        assert np.array_equal(result.idle, trace.idle_matrix())
        assert result.meta == trace.meta

    def test_lazy_trace_is_valid_and_matches(self):
        cfg = make_cfg()
        program = build_lockstep_program(cfg, build_exec_times(cfg))
        result = simulate_dag(program)
        assert result.exact_trace
        lazy = result.to_trace()
        lazy.validate()
        assert np.array_equal(lazy.completion_matrix(), result.completion)
        assert np.array_equal(lazy.exec_end_matrix(), result.exec_end)

    def test_irregular_program_refuses_lazy_trace(self):
        """Two Waitalls per step: matrices stay exact (idle accumulates,
        matching the full trace), but record reconstruction must refuse."""
        ops = [
            [Op(kind=OpKind.COMP, duration=T, step=0),
             Op(kind=OpKind.ISEND, peer=1, size=8, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0),
             Op(kind=OpKind.ISEND, peer=1, size=8, tag=1, step=0),
             Op(kind=OpKind.WAITALL, step=0)],
            [Op(kind=OpKind.COMP, duration=3 * T, step=0),
             Op(kind=OpKind.IRECV, peer=0, size=8, tag=0, step=0),
             Op(kind=OpKind.WAITALL, step=0),
             Op(kind=OpKind.IRECV, peer=0, size=8, tag=1, step=0),
             Op(kind=OpKind.WAITALL, step=0)],
        ]
        program = Program(ops=ops, n_steps=1)
        result = simulate_dag(program)
        trace = simulate(program)
        assert np.array_equal(result.idle, trace.idle_matrix())
        assert np.array_equal(result.completion, trace.completion_matrix())
        assert not result.exact_trace
        with pytest.raises(ValueError, match="not lockstep-shaped"):
            result.to_trace()


class TestStructureCache:
    def test_draws_share_one_structure(self):
        cfg = make_cfg()
        for seed in range(5):
            et = build_exec_times(cfg, np.random.default_rng(seed))
            simulate_dag(build_lockstep_program(cfg, et))
        info = dag_cache_info()
        assert info["misses"] == 1 and info["hits"] == 4 and info["size"] == 1

    def test_structure_change_misses(self):
        cfg = make_cfg()
        simulate_dag(build_lockstep_program(cfg, build_exec_times(cfg)))
        other = make_cfg(pattern=CommPattern(direction=Direction.BIDIRECTIONAL))
        simulate_dag(build_lockstep_program(other, build_exec_times(other)))
        assert dag_cache_info()["misses"] == 2

    def test_config_change_misses(self):
        cfg = make_cfg()
        program = build_lockstep_program(cfg, build_exec_times(cfg))
        simulate_dag(program, SimConfig(protocol=Protocol.EAGER))
        simulate_dag(program, SimConfig(protocol=Protocol.RENDEZVOUS))
        simulate_dag(program, SimConfig(network=UniformNetwork(latency=9e-6)))
        assert dag_cache_info()["misses"] == 3

    def test_cache_opt_out_and_clear(self):
        cfg = make_cfg()
        program = build_lockstep_program(cfg, build_exec_times(cfg))
        build_dag(program, cache=False)
        assert dag_cache_info()["size"] == 0
        build_dag(program)
        assert dag_cache_info()["size"] == 1
        clear_dag_cache()
        assert dag_cache_info() == {"size": 0, "max_size": 16,
                                    "hits": 0, "misses": 0, "evictions": 0}

    def test_lru_eviction_is_counted(self):
        clear_dag_cache()
        for n_steps in range(2, 2 + 18):  # 18 shapes vs max_size 16
            cfg = make_cfg(n_ranks=4, n_steps=n_steps)
            build_dag(build_lockstep_program(cfg, build_exec_times(cfg)))
        info = dag_cache_info()
        assert info["size"] == info["max_size"] == 16
        assert info["evictions"] == 2
        assert info["misses"] == 18

    def test_cached_structure_is_duration_independent(self):
        """A cache hit must not leak the first draw's COMP durations."""
        cfg = make_cfg(noise=ExponentialNoise(0.0))
        et0 = build_exec_times(cfg)
        et1 = et0 * 3.0
        r0 = simulate_dag(build_lockstep_program(cfg, et0))
        r1 = simulate_dag(build_lockstep_program(cfg, et1))
        assert dag_cache_info()["hits"] == 1
        assert r1.completion.max() > 2.5 * r0.completion.max()


class TestLockstepStructureCache:
    """``build_dag(cfg, config)`` keys on the config's structural fields."""

    def test_duration_only_changes_share_one_entry(self):
        cfg = make_cfg()
        build_dag(cfg)
        for other in (
            make_cfg(noise=ExponentialNoise(5e-3)),
            make_cfg(delays=(DelaySpec(rank=1, step=2, duration=4 * T),)),
            make_cfg(seed=7),
            make_cfg(t_exec=2 * T),
        ):
            assert build_dag(other) is build_dag(cfg)
        info = dag_cache_info()
        assert info["misses"] == 1 and info["size"] == 1

    def test_structure_or_config_change_misses(self):
        build_dag(make_cfg())
        build_dag(make_cfg(msg_size=16))
        build_dag(make_cfg(pattern=CommPattern(direction=Direction.BIDIRECTIONAL)))
        build_dag(make_cfg(), SimConfig(protocol=Protocol.RENDEZVOUS))
        build_dag(make_cfg(), SimConfig(network=UniformNetwork(latency=9e-6)))
        info = dag_cache_info()
        assert info["misses"] == 5 and info["hits"] == 0 and info["size"] == 5

    def test_cache_opt_out_leaves_cache_empty(self):
        build_dag(make_cfg(), cache=False)
        assert dag_cache_info()["size"] == 0
        assert dag_cache_info()["misses"] == 0

    def test_lru_eviction_is_counted(self):
        for n_steps in range(2, 2 + 18):  # 18 shapes vs max_size 16
            build_dag(make_cfg(n_ranks=4, n_steps=n_steps))
        info = dag_cache_info()
        assert info["size"] == info["max_size"] == 16
        assert info["evictions"] == 2
        assert info["misses"] == 18
        build_dag(make_cfg(n_ranks=4, n_steps=2))  # evicted: misses again
        assert dag_cache_info()["misses"] == 19


class TestEngineError:
    def test_deadlock_raises_typed_error(self):
        with pytest.raises(EngineError, match="dependency cycle") as exc_info:
            simulate(deadlock_program(), SimConfig(protocol=Protocol.RENDEZVOUS))
        err = exc_info.value
        assert err.n_unprocessed > 0
        assert err.first_blocked_rank == 0
        assert isinstance(err, RuntimeError)  # backwards-compatible

    def test_deadlock_detected_at_build_time(self):
        with pytest.raises(EngineError):
            build_dag(deadlock_program(),
                      SimConfig(protocol=Protocol.RENDEZVOUS), cache=False)

    def test_eager_variant_does_not_deadlock(self):
        trace = simulate(deadlock_program(), SimConfig(protocol=Protocol.EAGER))
        trace.validate()
