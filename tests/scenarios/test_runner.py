"""Scenario execution: determinism, outputs, hybrid reduction."""

import numpy as np
import pytest

from repro.scenarios import ScenarioSpec, bundled_scenario_names, run_scenario


def spec(**extra) -> ScenarioSpec:
    doc = {"name": "t", "n_ranks": 10, "n_steps": 8}
    doc.update(extra)
    return ScenarioSpec.from_dict(doc)


class TestDeterminism:
    def test_same_seed_same_result(self):
        s = spec(noise={"model": "exponential", "level": 0.1},
                 campaign={"rate": 0.05, "phases_low": 1.0, "phases_high": 4.0})
        a = run_scenario(s, seed=3)
        b = run_scenario(s, seed=3)
        np.testing.assert_array_equal(a.timing.completion, b.timing.completion)
        assert a.data == b.data

    def test_different_seed_different_noise(self):
        s = spec(noise={"model": "exponential", "level": 0.1})
        a = run_scenario(s, seed=1)
        b = run_scenario(s, seed=2)
        assert a.data["runtime"]["total_runtime"] != \
            b.data["runtime"]["total_runtime"]

    def test_spec_seed_is_default(self):
        s = spec(seed=42, noise={"model": "exponential", "level": 0.1})
        assert run_scenario(s).seed == 42


class TestOutputs:
    def test_requested_outputs_present(self):
        s = spec(delays=[{"rank": 4, "phases": 4.0}],
                 outputs=["runtime", "timeline", "desync", "histogram",
                          "wave_speed"])
        run = run_scenario(s)
        assert set(run.data) == {"runtime", "timeline", "desync", "histogram",
                                 "wave_speed"}
        assert run.data["runtime"]["total_runtime"] > 0
        assert run.data["wave_speed"]["measured_speed"] == pytest.approx(
            run.data["wave_speed"]["predicted_speed"], rel=0.05)
        assert "timeline" in run.tables

    def test_outputs_are_json_able(self):
        import json

        s = spec(delays=[{"rank": 4, "phases": 4.0}],
                 noise={"model": "exponential", "level": 0.05},
                 outputs=["runtime", "desync", "histogram", "wave_speed"])
        json.dumps(run_scenario(s).data)

    def test_render_mentions_engine_and_name(self):
        text = run_scenario(spec()).render()
        assert "engine=lockstep" in text
        assert "scenario t" in text


class TestCampaignInjection:
    def test_campaign_delays_extend_runtime(self):
        quiet = run_scenario(spec())
        noisy = run_scenario(spec(campaign={"rate": 0.1, "phases_low": 2.0,
                                            "phases_high": 6.0}), seed=5)
        assert noisy.n_campaign_delays > 0
        assert noisy.data["runtime"]["total_runtime"] > \
            quiet.data["runtime"]["total_runtime"]

    def test_explicit_and_campaign_delays_combine(self):
        run = run_scenario(
            spec(delays=[{"rank": 2, "phases": 3.0}],
                 campaign={"rate": 0.05, "phases_low": 1.0, "phases_high": 2.0}),
            seed=4,
        )
        assert len(run.compiled.cfg.delays) == 1  # compiled carries explicit only
        assert run.n_campaign_delays >= 1


class TestHybrid:
    def test_more_threads_fatter_noise(self):
        # Max-reduction over threads makes per-phase noise grow with the
        # thread count (for the same per-thread noise model).
        runs = {
            threads: run_scenario(
                spec(workload={"t_exec": 3e-3, "threads": threads},
                     noise={"model": "exponential", "level": 0.1}),
                seed=0,
            ).data["runtime"]["total_runtime"]
            for threads in (1, 8)
        }
        assert runs[8] > runs[1]

    def test_hybrid_runs_on_dag_engine_too(self):
        s = spec(workload={"t_exec": 3e-3, "threads": 4},
                 noise={"model": "exponential", "level": 0.1})
        fast = run_scenario(s, engine="lockstep")
        slow = run_scenario(s, engine="dag")
        np.testing.assert_allclose(fast.timing.completion,
                                   slow.timing.completion,
                                   rtol=1e-12, atol=1e-12)


class TestSimulatePrepared:
    """The block function against the per-draw engine calls it replaced:
    same matrices and the same run meta (each draw's own delays/seed)."""

    @staticmethod
    def per_draw(compiled, prepared):
        from repro.core.timing import RunTiming
        from repro.sim import simulate_dag_batch, simulate_lockstep

        if compiled.engine == "lockstep":
            return RunTiming.from_lockstep(simulate_lockstep(
                prepared.cfg, exec_times=prepared.exec_times,
                network=compiled.network, domain=compiled.domain,
                protocol=compiled.protocol, eager_limit=compiled.eager_limit,
                mapping=compiled.mapping,
            ))
        result = simulate_dag_batch(prepared.cfg, prepared.exec_times[None],
                                    compiled.sim_config())[0]
        result.meta.pop("n_batch")
        return RunTiming.from_dag(result)

    @pytest.mark.parametrize("engine", ["auto", "dag"])
    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_matches_per_draw_engine_calls(self, name, engine):
        from repro.scenarios import compile_scenario, load_bundled_scenario
        from repro.scenarios.runner import (
            prepare_scenario_run,
            simulate_prepared,
        )

        compiled = compile_scenario(
            load_bundled_scenario(name).without_sweep(), engine=engine)
        prepared = [prepare_scenario_run(compiled, s) for s in (0, 3)]
        blocks = [simulate_prepared(compiled, [p])[0] for p in prepared]
        blocks2 = simulate_prepared(compiled, prepared)
        for p, one, two in zip(prepared, blocks, blocks2):
            ref = self.per_draw(compiled, p)
            for timing in (one, two):
                for field in ("exec_end", "completion", "idle"):
                    np.testing.assert_array_equal(getattr(timing, field),
                                                  getattr(ref, field))
                assert timing.meta == ref.meta
                assert timing.meta["seed"] == p.seed
