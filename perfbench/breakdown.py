"""Per-layer metrics from the span records of a traced run.

Self time follows one rule across processes.  At every instant the wall
clock is shared equally by the *leaf* spans open at that instant: open
spans none of whose children (in any process) are open.  For a serial
call this is the usual "span time minus the time its children cover".
While pool workers run, the parent's campaign span has open children and
gets nothing; a parent-side ``store.put`` overlapping two busy workers
gets a third.  Self times therefore add up to the time covered by any
span, and ``bench.unattributed_s`` (interpreter start, argument parsing,
glue between layers) closes the gap to the measured wall time.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

from repro.reports.kernels import kernel_names
from tracer import WRAPS

#: Span names whose self times partition the traced wall time; each is
#: reported as ``<name>_s``.
SPANS = ["cli.import", *dict.fromkeys(
    name for *_, name, _ in WRAPS if isinstance(name, str))]
KERNEL_SPANS = [f"reports.kernel.{k}" for k in kernel_names()]


class Span:
    __slots__ = ("key", "parent", "name", "start", "end", "attrs")

    def __init__(self, record: list) -> None:
        pid, sid, parent, self.name, self.start, self.end, attrs = record
        self.key = (pid, sid)
        self.parent = tuple(parent) if parent is not None else None
        self.attrs = attrs or {}


def load_spans(trace_dir: Path) -> "list[Span]":
    spans = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as fh:
            spans.extend(Span(json.loads(line)) for line in fh if line.strip())
    return spans


def self_times(spans: "list[Span]") -> "dict[str, float]":
    """Wall time attributed to each span name (see the module docstring)."""
    by_key = {s.key: s for s in spans}

    def depth(span: Span) -> int:
        d, parent = 0, span.parent
        while parent in by_key:
            d, parent = d + 1, by_key[parent].parent
        return d

    events = []
    for s in spans:
        d = depth(s)
        # At equal times: close before open, children close before
        # parents, parents open before children.
        events.append((s.start, 1, d, s))
        events.append((s.end, 0, -d, s))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    open_children: "dict[tuple, int]" = defaultdict(int)
    is_open: "set[tuple]" = set()
    leaves: "dict[tuple, Span]" = {}
    totals: "dict[str, float]" = defaultdict(float)
    previous = None
    for t, is_start, _, s in events:
        if previous is not None and leaves:
            share = (t - previous) / len(leaves)
            for leaf in leaves.values():
                totals[leaf.name] += share
        previous = t
        parent_open = s.parent in is_open
        if is_start:
            is_open.add(s.key)
            leaves[s.key] = s
            if parent_open:
                open_children[s.parent] += 1
                leaves.pop(s.parent, None)
        else:
            is_open.discard(s.key)
            leaves.pop(s.key, None)
            if parent_open:
                open_children[s.parent] -= 1
                if open_children[s.parent] == 0:
                    leaves[s.parent] = by_key[s.parent]
    return dict(totals)


def layer_metrics(spans: "list[Span]", wall_s: float) -> "dict[str, float]":
    """Every per-layer metric derivable from the spans of one traced run."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    out = {f"{name}_s": own.get(name, 0.0) for name in SPANS + KERNEL_SPANS}
    out["reports.kernels_s"] = sum(own.get(name, 0.0) for name in KERNEL_SPANS)
    partition = sum(own.values())
    out["bench.unattributed_s"] = wall_s - partition
    out["bench.traced_wall_s"] = wall_s

    out["cli.modules_loaded"] = max(
        (s.attrs.get("modules", 0) for s in by_name["cli.import"]), default=0)
    out["scenarios.compile_calls"] = len(by_name["scenarios.compile"])
    out["scenarios.prepare_calls"] = len(by_name["scenarios.prepare"])
    out["sim.lockstep_rank_steps"] = sum(
        s.attrs.get("rank_steps", 0) for s in by_name["sim.lockstep"])

    campaigns = by_name["runtime.campaign"]
    out["runtime.tasks"] = sum(s.attrs.get("tasks", 0) for s in campaigns)
    out["runtime.failed"] = sum(s.attrs.get("failed", 0) for s in campaigns)
    out["runtime.retried"] = sum(s.attrs.get("retried", 0) for s in campaigns)
    out["runtime.blocks"] = len(by_name["runtime.block"])
    out["runtime.task_busy_s"] = sum(
        (s.attrs.get("busy_s", 0.0) for s in campaigns), 0.0)
    by_key = {s.key: s for s in spans}
    out["runtime.overhead_s"] = sum(
        (_campaign_overhead(c, spans, by_key) for c in campaigns), 0.0)

    gets = by_name["store.get"]
    out["store.puts"] = len(by_name["store.put"])
    out["store.gets"] = len(gets)
    hits = sum(1 for s in gets if s.attrs.get("hit"))
    out["store.hit_ratio"] = hits / len(gets) if gets else 0.0
    return out


def _campaign_overhead(campaign: Span, spans: "list[Span]", by_key) -> float:
    """Campaign time minus parent-side store time minus busy time / jobs.

    ``jobs`` is the number of worker processes that actually ran tasks of
    this campaign, or 1 when they all ran in the calling process (a
    single batched block never reaches the pool, whatever ``--jobs`` is).
    """
    pid = campaign.key[0]
    store_s = 0.0
    workers = set()
    for s in spans:
        parent = s.parent
        while parent is not None and parent != campaign.key:
            parent = by_key[parent].parent if parent in by_key else None
        if parent != campaign.key:
            continue
        if s.key[0] != pid:
            workers.add(s.key[0])
        elif s.name.startswith("store."):
            store_s += s.end - s.start
    busy = campaign.attrs.get("busy_s", 0.0)
    return (campaign.end - campaign.start) - store_s - busy / max(len(workers), 1)


# --------------------------------------------------------------------------
# completeness: wrapper counts against the program's own telemetry
# --------------------------------------------------------------------------

def read_telemetry(path: Path) -> "tuple[Counter, Counter, Counter]":
    """``(counters, histogram sample counts, span counts)`` of one JSONL."""
    counters, hists, span_counts = Counter(), Counter(), Counter()
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            kind = record.get("type")
            if kind == "counter":
                counters[record["name"]] += record["value"]
            elif kind == "hist":
                hists[record["name"]] += record["count"]
            elif kind == "span":
                span_counts[record["name"]] += 1
    return counters, hists, span_counts


def completeness_problems(spans: "list[Span]",
                          telemetry: "list[Path]") -> "list[str]":
    """Mismatches between wrapper call counts and the program's counters.

    Each pair counts the same calls from both sides, so a mismatch means a
    call path reached the layer without passing a wrapper (or the program's
    instrumentation moved).
    """
    counters, hists, span_counts = Counter(), Counter(), Counter()
    for path in telemetry:
        c, h, s = read_telemetry(path)
        counters.update(c)
        hists.update(h)
        span_counts.update(s)
    calls = Counter(s.name for s in spans)
    pairs = [
        ("store.put calls", calls["store.put"],
         "counter store.puts", counters["store.puts"]),
        ("store.get calls", calls["store.get"],
         "counters store.get.hits + store.get.misses",
         counters["store.get.hits"] + counters["store.get.misses"]),
        ("runtime.block calls", calls["runtime.block"],
         "histogram executor.block_size samples", hists["executor.block_size"]),
        ("runtime.campaign calls", calls["runtime.campaign"],
         "spans campaign.run", span_counts["campaign.run"]),
        ("scenarios.prepare calls", calls["scenarios.prepare"],
         "spans scenario.prepare", span_counts["scenario.prepare"]),
        ("scenarios.outputs calls", calls["scenarios.outputs"],
         "spans scenario.finish", span_counts["scenario.finish"]),
        ("sim.lockstep calls", calls["sim.lockstep"],
         "spans engine.lockstep.simulate",
         span_counts["engine.lockstep.simulate"]),
        ("sim.dag_build calls", calls["sim.dag_build"],
         "spans engine.build_dag + counter dag.cache.hits",
         span_counts["engine.build_dag"] + counters["dag.cache.hits"]),
        ("sim.dag_propagate calls", calls["sim.dag_propagate"],
         "spans engine.dag.propagate", span_counts["engine.dag.propagate"]),
    ]
    return [f"{mine} = {a} but {theirs} = {b}"
            for mine, a, theirs, b in pairs if a != b]
