"""Span recorder loaded into each traced CLI process.

The benchmark's traced run starts the CLI through ``traced_cli.py``, which
calls :func:`install` before anything from ``repro`` is imported.  From
then every module named in :data:`WRAPS` is patched the moment it
finishes executing, before its importer resumes, so a name bound with
``from module import fn`` — at import time or inside a function — always
resolves to the wrapper.  Pool workers are forked from the traced process
and inherit the patched modules.

Each wrapper records one span: ``(pid, id, parent, name, start, end,
attrs)`` with ``time.perf_counter`` times, which are system-wide monotonic
on Linux and therefore comparable across processes.  A forked worker's
top-level spans name the span its parent was inside when it forked (the
campaign), so the merged records form one tree per CLI call.

Records stay in memory; the main process writes them at exit and a worker
appends its records to its own file each time its span stack empties.  The
output directory comes from the ``PERFBENCH_TRACE_DIR`` environment
variable.  No program file is changed.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class _Recorder:
    """Per-process span state; reset in every forked child."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.records: list = []
        self.stack: list = []  # [(pid, id, name)] of open spans
        self.next_id = 0
        self.root_parent = None  # [pid, id] of the span a child forked in
        self.out_dir = os.environ.get(TRACE_DIR_ENV)
        self.child_file = None

    def after_fork(self) -> None:
        campaign = [entry for entry in self.stack
                    if entry[2] == "runtime.campaign"]
        innermost = (campaign or self.stack or [None])[-1]
        self.root_parent = None if innermost is None else list(innermost[:2])
        self.pid = os.getpid()
        self.records = []
        self.stack = []
        self.child_file = None

    def open(self, name: str):
        self.next_id += 1
        if self.stack:
            parent = list(self.stack[-1][:2])
        else:
            parent = self.root_parent
        entry = (self.pid, self.next_id, name)
        self.stack.append(entry)
        return entry, parent, time.perf_counter()

    def close(self, token, attrs=None) -> None:
        end = time.perf_counter()
        entry, parent, start = token
        self.stack.remove(entry)
        self.records.append([entry[0], entry[1], parent, entry[2], start,
                             end, attrs])
        if not self.stack and self.root_parent is not None:
            self.flush_child()

    def flush_child(self) -> None:
        if self.out_dir is None or not self.records:
            return
        if self.child_file is None:
            path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
            self.child_file = open(path, "a", encoding="utf-8")
        for record in self.records:
            self.child_file.write(json.dumps(record) + "\n")
        self.child_file.flush()
        self.records = []

    def flush_main(self) -> None:
        if self.out_dir is None or os.getpid() != self.pid \
                or self.root_parent is not None:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
        self.records = []


_REC = _Recorder()


class span:
    """Context manager recording one span; ``attrs`` is attached on exit."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attrs: "dict | None" = None

    def __enter__(self) -> "span":
        self._token = _REC.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        _REC.close(self._token, self.attrs)


def wrap(fn, name, measure=None):
    """``fn`` recorded as span ``name`` (a str or ``name(args)``).

    ``measure(args, kwargs, result)`` returns the span's attrs on success.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = _REC.open(name if isinstance(name, str) else name(args))
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                attrs = measure(args, kwargs, result)
            return result
        finally:
            _REC.close(token, attrs)

    return wrapper


def wrap_generator(fn, name):
    """A generator function whose every resumption is span ``name``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            token = _REC.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                _REC.close(token)
            yield item

    return wrapper


class _TimedContext:
    """A context manager whose enter and exit are each span ``name``."""

    def __init__(self, cm, name: str) -> None:
        self._cm = cm
        self._name = name

    def __enter__(self):
        with span(self._name):
            return self._cm.__enter__()

    def __exit__(self, *exc):
        with span(self._name):
            return self._cm.__exit__(*exc)


def wrap_context(fn, name):
    """A context-manager factory timed outside the ``with`` body."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedContext(fn(*args, **kwargs), name)

    return wrapper


# --------------------------------------------------------------------------
# what gets wrapped
# --------------------------------------------------------------------------

def _rank_steps(args, kwargs, result):
    return {"rank_steps": int(result.exec_end.size)}


def _store_get(args, kwargs, result):
    return {"hit": result is not None}


def _campaign(args, kwargs, result):
    busy = sum(r.duration for r in result.results
               if r is not None and not r.cached)
    return {"tasks": len(result.results), "failed": len(result.failures),
            "retried": result.n_retried, "busy_s": busy}


def _kernel_name(args):
    return f"reports.kernel.{args[0].name}"


#: Every wrapped callable: (module, class or None for a module-level
#: function, attribute, span name, wrapper factory).  A module is patched
#: right after its body has run, so ``from module import fn`` anywhere
#: binds the wrapper.
WRAPS = [
    ("repro.scenarios.compiler", None, "compile_scenario",
     "scenarios.compile", wrap),
    ("repro.scenarios.sweep", None, "expand_scenario_grid",
     "scenarios.expand", wrap),
    ("repro.scenarios.runner", None, "prepare_scenario_run",
     "scenarios.prepare", wrap),
    ("repro.scenarios.runner", None, "finish_scenario_run",
     "scenarios.outputs", wrap),
    ("repro.scenarios.batch", "ScenarioTaskBatcher", "execute",
     "runtime.block", wrap),
    ("repro.reports.tasks", "ReportTaskBatcher", "execute",
     "runtime.block", wrap),
    ("repro.sim.lockstep", None, "simulate_lockstep", "sim.lockstep",
     functools.partial(wrap, measure=_rank_steps)),
    ("repro.sim.lockstep", None, "simulate_lockstep_batch", "sim.lockstep",
     functools.partial(wrap, measure=_rank_steps)),
    ("repro.sim.program", None, "build_lockstep_program",
     "sim.program_build", wrap),
    ("repro.sim.engine", None, "simulate_dag", "sim.dag", wrap),
    ("repro.sim.engine", None, "simulate_dag_batch", "sim.dag", wrap),
    ("repro.sim.engine", None, "build_dag", "sim.dag_build", wrap),
    # StaticDag.propagate reshapes and calls _propagate_cols, which the
    # batched and columnar DAG paths call directly: the sweep itself.
    ("repro.sim.engine", "StaticDag", "_propagate_cols",
     "sim.dag_propagate", wrap),
    ("repro.runtime.executor", None, "run_campaign", "runtime.campaign",
     functools.partial(wrap, measure=_campaign)),
    ("repro.runtime.store", "ResultStore", "put", "store.put", wrap),
    ("repro.runtime.store", "ResultStore", "get", "store.get",
     functools.partial(wrap, measure=_store_get)),
    ("repro.runtime.store", "ResultStore", "__contains__", "store.probe",
     wrap),
    ("repro.reports.compiler", None, "compile_report", "reports.compile",
     wrap),
    ("repro.reports.query", None, "stream_campaign", "reports.fetch", wrap),
    ("repro.reports.query", "CampaignStream", "blocks", "reports.fetch",
     wrap_generator),
    ("repro.reports.kernels", "MetricKernel", "compute", _kernel_name, wrap),
    ("repro.reports.runner", None, "aggregate_stat", "reports.aggregate",
     wrap),
    ("repro.reports.artifacts", None, "write_artifacts",
     "reports.artifacts", wrap),
    ("repro.obs.session", None, "observe_run", "obs.session", wrap_context),
]
TARGETS = {module for module, *_ in WRAPS}


def _patch(module) -> None:
    for name, cls, attr, span_name, factory in WRAPS:
        if name == module.__name__:
            owner = module if cls is None else getattr(module, cls)
            setattr(owner, attr, factory(getattr(owner, attr), span_name))


class _PatchingLoader:
    """Delegating loader that patches a module once its body has run."""

    def __init__(self, loader) -> None:
        self._loader = loader

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        self._loader.exec_module(module)
        _patch(module)

    def __getattr__(self, name):
        return getattr(self._loader, name)


class _PatchingFinder:
    """Meta-path finder that hands target modules a patching loader."""

    def find_spec(self, name, path=None, target=None):
        if name not in TARGETS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                spec.loader = _PatchingLoader(spec.loader)
                return spec
        return None


def install() -> None:
    """Start recording: import hook, fork reset and exit flush."""
    if any(m.startswith("repro") for m in sys.modules):
        raise RuntimeError("install the tracer before importing repro")
    sys.meta_path.insert(0, _PatchingFinder())
    os.register_at_fork(after_in_child=_REC.after_fork)
    atexit.register(_REC.flush_main)
