"""End-to-end benchmark of the ``repro-experiment`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the CLI under test is the one in
``src/``, started as fresh ``python3`` processes (as the installed
``repro-experiment`` script would be) with ``PYTHONPATH=src``.  Metric
names, units and workload names come from ``BENCHMARK.json`` next to
``perfbench/``.

One run:

1. writes the workload's spec files from ``--seed``;
2. makes the untimed warm-up calls (``.pyc`` files, page cache), computes
   the reference results in-process, and fills the cache if the workload
   reads a warm one;
3. repeats the workload's CLI calls until ``--seconds`` have passed,
   checking every call's output against the reference, and times the
   workload's ``validate`` calls before each repetition (``setup_s``, at
   least three times);
4. with ``--trace 1``, runs the calls once more under ``traced_cli.py``
   with ``--telemetry-out`` and reports the per-layer breakdown instead of
   the end-to-end metrics.

The last line of standard output is the result object.  Every path the
benchmark writes is below ``.perfbench/`` in the checkout, and removed at
the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import TRACE_DIR_ENV

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
#: What the ``repro-experiment`` console script runs.
ENTRY = "import sys; from repro.cli import main; sys.exit(main())"
SETUP_REPEATS = 3
#: Every call is killed after this many seconds of the run have passed.
DEADLINE_S = 170.0


@dataclass
class Measured:
    """One CLI call as the driver saw it."""

    wall_s: float
    cpu_s: float
    rss_mb: float


class Driver:
    """Starts CLI calls, measures them and counts failed operations."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        tmp = work / "tmp"
        tmp.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
        self.env.pop(TRACE_DIR_ENV, None)

    def call(self, argv, check=None, trace_dir: "Path | None" = None
             ) -> Measured:
        """Run one CLI call to completion; a failure is printed to stderr."""
        self.attempted += 1
        log = self.work / "logs" / f"{self.attempted:04d}"
        log.parent.mkdir(exist_ok=True)
        env = self.env
        if trace_dir is None:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), *argv]
            env = dict(env, **{TRACE_DIR_ENV: str(trace_dir)})
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                    cwd=ROOT, start_new_session=True)
            remaining = DEADLINE_S - (t0 - self.started)
            killer = threading.Timer(max(remaining, 1.0), _kill_group,
                                     (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        problem = None
        if proc.returncode != 0:
            problem = f"exit code {proc.returncode}"
        elif check is not None:
            problem = check(Path(f"{log}.out").read_text(errors="replace"))
        if problem is not None:
            self.failed += 1
            err_tail = Path(f"{log}.err").read_text(errors="replace")[-2000:]
            print(f"FAILED: repro-experiment {' '.join(argv)}: {problem}\n"
                  f"{err_tail}", file=sys.stderr)
        # ru_maxrss covers the call and every descendant it waited for
        # (the pool workers), in KiB on Linux.
        return Measured(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                        rss_mb=usage.ru_maxrss / 1024.0)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _dir_bytes(path: Path, skip=("runs", "telemetry", "perf")) -> int:
    """Bytes of the result store under ``path`` (ledger and logs excluded)."""
    total = 0
    for child in path.iterdir():
        if child.is_dir():
            if child.name not in skip:
                total += _dir_bytes(child, skip=())
        else:
            total += child.stat().st_size
    return total


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(workload, driver: Driver, seconds: float, trace: bool
            ) -> "tuple[dict, list[str]]":
    """Run one workload; returns its metric values and trace problems."""
    work = driver.work

    def setup_once() -> float:
        return sum(driver.call(argv).wall_s for argv in workload.setup_calls())

    for call in workload.warmup(_fresh(work / "warm-cache"),
                                _fresh(work / "warm-out")):
        driver.call(call.argv, call.check)
    workload.reference()
    cache = _fresh(work / "cache")
    for call in workload.prefill(cache, _fresh(work / "out")):
        driver.call(call.argv, call.check)

    # One set-up measurement before each timed iteration, so that both
    # medians sample the same stretch of time on a shared machine.
    setup, walls, cpus, rss, rates = [], [], [], [], []
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        setup.append(setup_once())
        if workload.fresh_cache:
            _fresh(cache)
        calls = workload.iteration(cache, _fresh(work / "out"))
        results = [driver.call(c.argv, c.check) for c in calls]
        wall = sum(r.wall_s for r in results)
        walls.append(wall)
        cpus.append(sum(r.cpu_s for r in results))
        rss.append(max(r.rss_mb for r in results))
        rates.append(sum(c.rank_steps for c in calls) / wall)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once())
    print(f"{workload.name}: {len(walls)} timed iteration(s), wall "
          + ", ".join(f"{w:.3f}" for w in walls) + " s; set-up "
          + ", ".join(f"{w:.3f}" for w in setup) + " s")
    if trace:
        return traced(workload, driver, cache, statistics.median(walls))
    return {
        "wall_s": statistics.median(walls),
        "rank_steps_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }, []


def traced(workload, driver: Driver, cache: Path, untraced_wall: float
           ) -> "tuple[dict, list[str]]":
    """One traced iteration: per-layer metrics plus the completeness check."""
    from breakdown import completeness_problems, layer_metrics, load_spans

    if workload.fresh_cache:
        _fresh(cache)
    calls = workload.iteration(cache, _fresh(driver.work / "out"))
    trace_root = _fresh(driver.work / "trace")
    wall = 0.0
    spans, telemetry = [], []
    for i, call in enumerate(calls):
        call_dir = _fresh(trace_root / f"{i:03d}")
        tel = call_dir / "telemetry.jsonl"
        wall += driver.call([*call.argv, "--telemetry-out", str(tel)],
                            call.check, trace_dir=call_dir).wall_s
        spans.extend(load_spans(call_dir))
        if tel.exists():
            telemetry.append(tel)
    metrics = layer_metrics(spans, wall)
    metrics["store.bytes_written"] = _dir_bytes(cache)
    metrics["bench.trace_overhead_frac"] = wall / untraced_wall - 1.0
    metrics["bench.error_rate"] = driver.failed / driver.attempted
    problems = completeness_problems(spans, telemetry)
    if len(telemetry) != len(calls):
        problems.append(f"{len(calls) - len(telemetry)} call(s) wrote no "
                        "telemetry")
    return metrics, problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    import numpy

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
          f" numpy={numpy.__version__} {platform.machine()}")
    work = _fresh(ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}")
    try:
        driver = Driver(work)
        workload = WORKLOADS[args.workload](work, args.seed)
        values, problems = measure(workload, driver, args.seconds,
                                   bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench").rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"INCOMPLETE TRACE: {problem}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": driver.failed == 0 and not problems,
        "attempted": driver.attempted,
        "failed": driver.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
