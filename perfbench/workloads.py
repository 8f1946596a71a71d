"""The benchmark's workloads: generated specs, CLI calls and output checks.

A workload is built from the checkout's ``src`` tree and a seed.  It
writes the spec files the CLI receives, computes the reference results
once (in-process, no store, untimed) and hands the driver lists of CLI
calls, each with a check of its output against the reference.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.reports.compiler import compile_report
from repro.reports.registry import bundled_report_names, resolve_report
from repro.reports.runner import run_report
from repro.scenarios.registry import (
    bundled_scenario_names,
    load_bundled_scenario,
    resolve_scenario,
)
from repro.scenarios.sweep import expand_scenario_grid, run_scenario_sweep
from repro.sim.engine import clear_dag_cache

#: Paper-scale sizes of the generated Fig. 8 study.
PAPER_RANKS = 256
PAPER_STEPS = 200
PAPER_NOISE_LEVELS = (0.02, 0.05, 0.10)
PAPER_SEEDS_PER_LEVEL = 16
PAPER_METRICS = ("decay_rate", "runtime", "desync", "wave_speed")
DAG_REPLICATES = 16

#: Tolerance between the DAG and lockstep engines, as the repo's
#: scenario equivalence tests apply it (the engines sum in other orders).
CROSS_ENGINE_RTOL = 1e-12
CROSS_ENGINE_ATOL = 1e-12


@dataclass
class Call:
    """One CLI invocation; ``check(stdout_text)`` returns a problem or None."""

    argv: "list[str]"
    check: "Callable[[str], str | None] | None" = None
    rank_steps: int = 0


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _artifact_rows(ref, out_dir: Path) -> "list[tuple[dict, int, dict]]":
    """The report's JSON artifact rows, or its CSV rows when it has no JSON."""
    declared = {a.kind: a for a in ref.report.spec.artifacts}
    if "json" in declared:
        path = out_dir / (declared["json"].path or f"{ref.name}.json")
        doc = json.loads(path.read_text())
        return [(row["group"], row["draws"],
                 {k: float("nan") if v is None else float(v)
                  for k, v in row["values"].items()})
                for row in doc["rows"]]
    path = out_dir / (declared["csv"].path or f"{ref.name}.csv")
    with path.open(newline="") as fh:
        table = list(csv.reader(fh))
    header, body = table[0], table[1:]
    n_group = len(ref.group_columns)
    return [({col: cell for col, cell in zip(header[:n_group], row)},
             int(row[n_group]),
             {col: float(cell) for col, cell in zip(header[n_group + 1:],
                                                     row[n_group + 1:])})
            for row in body]


def report_check(ref, out_dir: Path) -> "Callable[[str], str | None]":
    """Compare a ``report run --out`` artifact with the reference result."""
    def check(_stdout: str) -> "str | None":
        try:
            rows = _artifact_rows(ref, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable artifact of report {ref.name}: {exc}"
        if len(rows) != len(ref.rows):
            return f"report {ref.name}: {len(rows)} rows, expected {len(ref.rows)}"
        for got, want in zip(rows, ref.rows):
            group, draws, values = got
            # CSV cells are text; compare group labels as text either way.
            group = {k: str(v) for k, v in group.items()}
            want_group = {k: str(v) for k, v in want.group.items()}
            if group != want_group or draws != want.n_draws:
                return (f"report {ref.name}: row {group} ({draws} draws), "
                        f"expected {want_group} ({want.n_draws} draws)")
            for col in ref.value_columns:
                if not _same(values.get(col), want.values[col]):
                    return (f"report {ref.name}: {col} = {values.get(col)!r} "
                            f"in row {group}, expected {want.values[col]!r}")
        return None

    return check


def sweep_check(ref) -> "Callable[[str], str | None]":
    """Compare a ``scenario sweep`` summary table with the reference."""
    expected = ref.render().splitlines()
    title = f"=== scenario sweep {ref.spec.name}:"

    def check(stdout: str) -> "str | None":
        lines = stdout.splitlines()
        starts = [i for i, line in enumerate(lines) if line.startswith(title)]
        if not starts:
            return f"sweep {ref.spec.name}: no summary table in the output"
        table = lines[starts[0] + 1:starts[0] + len(expected)]
        if [l.rstrip() for l in table] != [l.rstrip() for l in expected[1:]]:
            return f"sweep {ref.spec.name}: summary differs from the reference"
        return None

    return check


def _cross_engine_problem(dag, lockstep) -> "str | None":
    """Where the DAG sweep's point outputs leave the lockstep ones."""
    for p_dag, p_lock in zip(dag.points, lockstep.points):
        for kind, fields in p_lock.outputs.items():
            for name, want in fields.items():
                got = p_dag.outputs.get(kind, {}).get(name)
                if got is None or not math.isclose(
                        got, want, rel_tol=CROSS_ENGINE_RTOL,
                        abs_tol=CROSS_ENGINE_ATOL):
                    return (f"dag engine gives {kind}.{name} = {got!r}, "
                            f"lockstep {want!r}")
    if len(dag.points) != len(lockstep.points):
        return "dag and lockstep sweeps differ in their grid points"
    return None


# --------------------------------------------------------------------------
# rank-steps: ranks x steps summed over every run simulated or loaded
# --------------------------------------------------------------------------

def _grid_rank_steps(grid, draws: int) -> int:
    return sum(c.cfg.n_ranks * c.cfg.n_steps for c in grid.compiled) * draws


def report_rank_steps(compiled) -> int:
    return sum(_grid_rank_steps(t.grid, t.draws_per_point)
               for t in compiled.targets)


def sweep_rank_steps(spec) -> int:
    grid = expand_scenario_grid(spec)
    return _grid_rank_steps(grid, grid.replicates)


# --------------------------------------------------------------------------
# generated specs
# --------------------------------------------------------------------------

def fig8_scenario(name: str, seed: int, ranks: int, steps: int,
                  replicates: int, levels=PAPER_NOISE_LEVELS) -> dict:
    """The Fig. 8 decay study (bundled ``fig8_decay_rate``) at a given size."""
    doc = {
        "name": name,
        "description": "Fig. 8 idle-wave decay vs. noise level, generated",
        "n_ranks": ranks,
        "n_steps": steps,
        "seed": seed,
        "outputs": ["runtime"],
        "machine": {"preset": "simulated"},
        "workload": {"kind": "synthetic", "t_exec": 3e-3},
        "comm": {"direction": "bidirectional", "distance": 1,
                 "periodic": True, "msg_size": 8192, "protocol": "auto"},
        "noise": {"model": "exponential", "level": levels[0]},
        "delays": [{"rank": 0, "step": 0, "duration": 90e-3}],
        "sweep": {"replicates": replicates},
    }
    if len(levels) > 1:
        doc["sweep"]["axes"] = [{"path": "noise.level", "values": list(levels)}]
    return doc


def fig8_report(name: str, scenario_path: Path) -> dict:
    return {
        "name": name,
        "description": "Fig. 8 decay rate, runtime, desync and wave speed",
        "scenario": str(scenario_path),
        "group_by": ["noise.level"],
        "aggregate": ["median", "min", "max"],
        "metrics": [{"name": m} for m in PAPER_METRICS],
        "artifacts": [{"kind": "csv"}, {"kind": "json"}, {"kind": "ascii"}],
    }


def _write(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Workload:
    """Base: the driver calls these in order; only ``iteration`` is timed.

    ``fresh_cache`` gives every timed iteration an empty cache directory;
    otherwise all iterations share the one ``prefill`` filled.
    """

    name = ""
    fresh_cache = True

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed

    def setup_calls(self) -> "list[list[str]]":
        raise NotImplementedError

    def warmup(self, cache: Path, out: Path) -> "list[Call]":
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def prefill(self, cache: Path, out: Path) -> "list[Call]":
        return []

    def iteration(self, cache: Path, out: Path) -> "list[Call]":
        raise NotImplementedError


class BundledCli(Workload):
    """Every bundled report and every bundled scenario with a sweep block."""

    name = "bundled_cli"

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        self.reports = bundled_report_names()
        self.sweeps = [n for n in bundled_scenario_names()
                       if load_bundled_scenario(n).sweep is not None]

    def setup_calls(self):
        return [["report", "validate", *self.reports],
                ["scenario", "validate", *self.sweeps]]

    def warmup(self, cache, out):
        return [
            Call(["report", "run", self.reports[0], "--cache-dir", str(cache),
                  "--out", str(out), "--no-progress"]),
            Call(["scenario", "sweep", self.sweeps[0], "--seed",
                  str(self.seed), "--cache-dir", str(cache), "--no-progress"]),
        ]

    def reference(self):
        self.report_refs = {}
        for name in self.reports:
            compiled = compile_report(resolve_report(name))
            self.report_refs[name] = (run_report(compiled),
                                      report_rank_steps(compiled))
        self.sweep_refs = {}
        for name in self.sweeps:
            spec = resolve_scenario(name)
            self.sweep_refs[name] = (
                run_scenario_sweep(spec, base_seed=self.seed),
                sweep_rank_steps(spec))

    def iteration(self, cache, out):
        calls = []
        for name in self.reports:
            ref, rank_steps = self.report_refs[name]
            calls.append(Call(
                ["report", "run", name, "--cache-dir", str(cache),
                 "--out", str(out / name), "--no-progress"],
                report_check(ref, out / name), rank_steps))
        for name in self.sweeps:
            ref, rank_steps = self.sweep_refs[name]
            calls.append(Call(
                ["scenario", "sweep", name, "--seed", str(self.seed),
                 "--cache-dir", str(cache), "--no-progress"],
                sweep_check(ref), rank_steps))
        return calls


class _PaperReport(Workload):
    """The generated paper-scale Fig. 8 report (shared by cold and warm)."""

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        specs = work / "specs"
        self.scenario = _write(specs / "paper_fig8.json", fig8_scenario(
            "paper_fig8", seed, PAPER_RANKS, PAPER_STEPS,
            PAPER_SEEDS_PER_LEVEL))
        self.report = _write(specs / "paper_fig8_report.json",
                             fig8_report("paper_fig8_report", self.scenario))
        tiny = _write(specs / "tiny_fig8.json",
                      fig8_scenario("tiny_fig8", seed, 16, 20, 2))
        self.tiny_report = _write(specs / "tiny_fig8_report.json",
                                  fig8_report("tiny_fig8_report", tiny))

    def setup_calls(self):
        # Validating the report compiles its scenario's whole grid too.
        return [["report", "validate", str(self.report)]]

    def warmup(self, cache, out):
        return [Call(["report", "run", str(self.tiny_report), "--jobs", "2",
                      "--cache-dir", str(cache), "--out", str(out),
                      "--no-progress"])]

    def reference(self):
        compiled = compile_report(resolve_report(str(self.report)))
        self.ref = run_report(compiled)
        self.rank_steps = report_rank_steps(compiled)

    def _run(self, jobs: int, cache: Path, out: Path) -> Call:
        return Call(["report", "run", str(self.report), "--jobs", str(jobs),
                     "--cache-dir", str(cache), "--out", str(out),
                     "--no-progress"],
                    report_check(self.ref, out), self.rank_steps)


class ReportColdPaper(_PaperReport):
    name = "report_cold_paper"

    def iteration(self, cache, out):
        return [self._run(2, cache, out)]


class ReportWarmPaper(_PaperReport):
    name = "report_warm_paper"
    fresh_cache = False

    def warmup(self, cache, out):
        # The untimed prefill is a full cold run: it warms everything.
        return []

    def prefill(self, cache, out):
        return [self._run(2, cache, out)]

    def iteration(self, cache, out):
        return [self._run(1, cache, out)]


class DagPaper(Workload):
    """One grid point, forced onto the DAG engine."""

    name = "dag_paper"

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        specs = work / "specs"
        self.scenario = _write(specs / "paper_dag.json", fig8_scenario(
            "paper_dag", seed, PAPER_RANKS, PAPER_STEPS, DAG_REPLICATES,
            levels=PAPER_NOISE_LEVELS[:1]))
        self.tiny = _write(specs / "tiny_dag.json", fig8_scenario(
            "tiny_dag", seed, 16, 20, 2, levels=PAPER_NOISE_LEVELS[:1]))

    def setup_calls(self):
        return [["scenario", "validate", str(self.scenario)]]

    def _sweep(self, path: Path, cache: Path) -> "list[str]":
        return ["scenario", "sweep", str(path), "--engine", "dag",
                "--jobs", "2", "--seed", str(self.seed),
                "--cache-dir", str(cache), "--no-progress"]

    def warmup(self, cache, out):
        return [Call(self._sweep(self.tiny, cache))]

    def reference(self):
        spec = resolve_scenario(str(self.scenario))
        self.ref = run_scenario_sweep(spec, base_seed=self.seed, engine="dag")
        clear_dag_cache()
        lockstep = run_scenario_sweep(spec, base_seed=self.seed,
                                      engine="lockstep")
        self.cross_engine = _cross_engine_problem(self.ref, lockstep)
        self.rank_steps = sweep_rank_steps(spec)

    def iteration(self, cache, out):
        table = sweep_check(self.ref)

        def check(stdout: str) -> "str | None":
            return self.cross_engine or table(stdout)

        return [Call(self._sweep(self.scenario, cache), check,
                     self.rank_steps)]


WORKLOADS = {w.name: w for w in (BundledCli, ReportColdPaper, ReportWarmPaper,
                                 DagPaper)}
