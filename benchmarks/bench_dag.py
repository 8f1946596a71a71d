"""Benchmark: build-once/propagate-many DAG engine.

The tentpole claims of the StaticDag rewrite, measured:

- **batched propagation speedup** — a 64-draw bimodal delay campaign
  forced onto the DAG reference engine, simulated as one
  ``(n_nodes, 64)`` level sweep versus 64 per-draw ``simulate()``
  invocations (full trace materialization, as before the rewrite).
  Asserted >= 3x; the batch amortizes graph construction, the per-level
  Python loop, *and* skips OpRecord materialization entirely.
- **structure-cache hit latency** — ``build_dag`` on a warm cache versus
  a cold graph construction.  Campaign draws vary only delays/noise, so
  every draw after the first should pay near-zero build cost.
- **lockstep cold build** — ``build_dag(cfg, config)`` straight from a
  :class:`~repro.sim.program.LockstepConfig` versus building the
  program and walking it op by op, at 64 ranks x 50 steps bidirectional
  rendezvous.  Asserted >= 4x, with the two structures field-for-field
  identical.

Correctness is asserted alongside speed: every batch slice must be
bitwise identical to the scalar trace path.
"""

import time
from dataclasses import fields

import numpy as np

from repro.scenarios import compile_scenario, load_bundled_scenario
from repro.scenarios.runner import prepare_scenario_run
from repro.scenarios.spec import apply_overrides
from repro.sim import (
    CommPattern,
    Direction,
    LockstepConfig,
    Protocol,
    SimConfig,
    StaticDag,
    build_dag,
    build_lockstep_program,
    clear_dag_cache,
    dag_cache_info,
    simulate,
    simulate_dag_batch,
)

N_DRAWS = 64


def _forced_dag_campaign():
    """The bimodal rendezvous campaign (shrunk), compiled for the DAG engine."""
    doc = load_bundled_scenario(
        "meggie_bimodal_rendezvous_campaign").without_sweep().to_dict()
    doc = apply_overrides(doc, {"n_ranks": 32, "n_steps": 25})
    from repro.scenarios.spec import ScenarioSpec

    return compile_scenario(ScenarioSpec.from_dict(doc), engine="dag")


def test_bench_dag_batched_speedup_64_draw_campaign(once, bench_record):
    """One batched StaticDag propagation vs 64 per-draw simulate(), >= 3x."""
    compiled = _forced_dag_campaign()
    assert compiled.engine == "dag"
    config = compiled.sim_config()
    prepared = [prepare_scenario_run(compiled, seed) for seed in range(N_DRAWS)]
    stacked = np.stack([p.exec_times for p in prepared])

    def per_draw():
        return [
            simulate(build_lockstep_program(p.cfg, p.exec_times), config)
            for p in prepared
        ]

    def batched():
        return simulate_dag_batch(compiled.cfg, stacked, config)

    # Warm both paths (and the structure cache), then time repetitions.
    serial_traces = per_draw()
    batch_result = batched()

    reps = 3
    t0 = time.perf_counter()
    for _ in range(reps):
        per_draw()
    t_serial = (time.perf_counter() - t0) / reps

    t0 = time.perf_counter()
    for _ in range(reps):
        batched()
    t_batched = (time.perf_counter() - t0) / reps

    once(batched)  # record the batched path in the benchmark table

    speedup = t_serial / t_batched
    print(f"\n{N_DRAWS}-draw forced-DAG campaign: per-draw "
          f"{t_serial * 1e3:.1f} ms, batched {t_batched * 1e3:.1f} ms "
          f"({speedup:.1f}x)")
    info = dag_cache_info()
    hit_rate = info["hits"] / max(info["hits"] + info["misses"], 1)
    bench_record(n_draws=N_DRAWS, t_per_draw_s=t_serial,
                 t_batched_s=t_batched, speedup=speedup,
                 cache_hit_rate=hit_rate)

    # Correctness alongside speed: slices are bitwise equal to the traces.
    for b, trace in enumerate(serial_traces):
        assert np.array_equal(batch_result[b].completion,
                              trace.completion_matrix())
        assert np.array_equal(batch_result[b].idle, trace.idle_matrix())
    assert speedup >= 3.0, f"batched DAG speedup {speedup:.2f}x < 3x"


def test_bench_dag_structure_cache_hit(once, bench_record):
    """A warm build_dag is a dictionary lookup, not a graph construction."""
    compiled = _forced_dag_campaign()
    config = compiled.sim_config()
    prepared = prepare_scenario_run(compiled, 0)
    program = build_lockstep_program(prepared.cfg, prepared.exec_times)

    reps = 10
    t0 = time.perf_counter()
    for _ in range(reps):
        clear_dag_cache()
        build_dag(program, config)
    t_cold = (time.perf_counter() - t0) / reps

    clear_dag_cache()
    build_dag(program, config)  # populate
    t0 = time.perf_counter()
    for _ in range(reps):
        build_dag(program, config)
    t_warm = (time.perf_counter() - t0) / reps
    assert dag_cache_info()["hits"] >= reps

    once(build_dag, program, config)

    speedup = t_cold / max(t_warm, 1e-12)
    print(f"\nstructure cache: cold build {t_cold * 1e3:.2f} ms, warm hit "
          f"{t_warm * 1e3:.3f} ms ({speedup:.0f}x)")
    info = dag_cache_info()
    hit_rate = info["hits"] / max(info["hits"] + info["misses"], 1)
    bench_record(t_cold_build_s=t_cold, t_warm_hit_s=t_warm, speedup=speedup,
                 cache_hit_rate=hit_rate)
    assert t_warm < t_cold, "cache hit slower than a cold build"


def test_bench_dag_lockstep_cold_build(bench_record):
    """Cold build_dag(cfg) vs program build + walk at 64 x 50, >= 4x."""
    cfg = LockstepConfig(
        n_ranks=64, n_steps=50,
        pattern=CommPattern(direction=Direction.BIDIRECTIONAL, periodic=True))
    config = SimConfig(protocol=Protocol.RENDEZVOUS)

    def best_of(fn, reps=5):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
        return best, out

    t_walk, walked = best_of(
        lambda: build_dag(build_lockstep_program(cfg), config, cache=False))
    t_direct, direct = best_of(lambda: build_dag(cfg, config, cache=False))

    for f in fields(StaticDag):
        a, b = getattr(direct, f.name), getattr(walked, f.name)
        if f.name == "rank_node_ids":
            assert all(x.dtype == y.dtype and np.array_equal(x, y)
                       for x, y in zip(a, b, strict=True))
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name

    speedup = t_walk / t_direct
    print(f"\nlockstep cold build at 64x50: program build + walk "
          f"{t_walk * 1e3:.1f} ms, direct {t_direct * 1e3:.1f} ms "
          f"({speedup:.1f}x)")
    bench_record(t_walk_build_s=t_walk, t_direct_build_s=t_direct,
                 speedup=speedup)
    assert speedup >= 4.0, f"lockstep cold build speedup {speedup:.2f}x < 4x"
