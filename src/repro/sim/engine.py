"""The authoritative static-DAG discrete-event engine.

Bulk-synchronous programs with deterministic message matching form a static
dependency DAG: per-rank operations are chained in program order, and each
matched message adds cross-rank edges whose shape depends on the protocol:

- **eager** — the send completes locally (no backward edge); the receive
  request completes at ``max(message arrival, recv posted)``.  Modelled as
  a virtual *completion* node with edges from the ``ISEND`` (weighted by
  the flight time) and the ``IRECV``.
- **rendezvous** — the transfer starts only when *both* the sender and the
  receiver have arrived; both requests complete at the end of the transfer.
  Modelled as a virtual *transfer* node (duration = transfer time) feeding
  both ranks' ``WAITALL``.  This is the mechanism by which delays propagate
  against the message direction (Fig. 5(e,f)).
- **bidirectional rendezvous progress coupling** — the paper measures that
  idle waves travel *twice* as fast under bidirectional rendezvous
  communication (σ = 2 in Eq. 2): "two neighbors of the delayed process are
  blocked in either direction".  We model this as a one-hop coupling rule:
  when a pair of ranks exchanges rendezvous messages in *both* directions
  within a step, the pair's transfers additionally wait for the posting
  times of both endpoints' other same-step rendezvous partners.  The rule
  uses posting (not completion) times, so it reaches exactly one extra hop
  and cannot cascade; it reproduces the measured σ = 2 (and σ·d for d > 1)
  while leaving unidirectional and eager traffic untouched.

The engine separates the **structure** of that DAG from the **weights**
flowing through it.  Message matching is deterministic, so the node/edge
graph depends only on the program's operation schedule and the network
configuration — never on the drawn execution-phase durations.  A campaign
that re-simulates the same program under hundreds of delay/noise draws
therefore builds the graph **once**:

- :func:`build_dag` compiles a program + config into a :class:`StaticDag`
  holding CSR-style NumPy arrays (``succ_indptr``/``succ_index`` successor
  lists, ``edge_delay`` slots) plus a precomputed topological level order.
  Arbitrary programs are walked op by op; a
  :class:`~repro.sim.program.LockstepConfig` is built straight from its
  parameters in NumPy, field-for-field identical to walking its program;
- :meth:`StaticDag.propagate` runs the Kahn sweep as a vectorized
  per-level ``np.maximum.at`` recurrence.  Durations may carry a leading
  batch axis, so B draws flow through one structure as a ``(B, n_nodes)``
  computation — the DAG-engine analogue of
  :func:`repro.sim.lockstep.simulate_lockstep_batch`;
- a keyed structure cache lets sweeps that vary only delays/noise skip
  graph construction entirely.  A program is keyed on its shape (every
  operation field except COMP durations), a lockstep config on
  ``(n_ranks, n_steps, msg_size, pattern)``; both keys add the
  network/mapping/protocol config (see :func:`clear_dag_cache` /
  :func:`dag_cache_info`).

Completion times obey
``end(n) = max over predecessors p of (end(p) + edge_delay) + duration(n)``.
Both ``max`` and the two additions are exact per IEEE-754 value (``max``
selects an argument; the sums are the same two-operand additions the
original scalar sweep performed), so the per-level batched propagation is
**bitwise identical** to a per-draw scalar sweep — the property the
campaign runtime's content-addressed cache relies on.  The result is an
exact event-driven simulation of the program under the given network model
— the same modeling approach as LogGOPSim, which the paper uses as its
simulated comparator.

Trace materialization is columnar: :func:`simulate_dag` /
:func:`simulate_dag_batch` return dense per-(rank, step) timing matrices
(:class:`DagResult` / :class:`BatchedDagResult`) and only build
:class:`~repro.sim.trace.OpRecord` objects lazily when a caller asks for a
full :class:`~repro.sim.trace.Trace`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.sim.mpi import DEFAULT_EAGER_LIMIT, MessageMatcher, Protocol, select_protocol
from repro.sim.network import NetworkModel, UniformNetwork
from repro.sim.program import LockstepConfig, OpKind, Program, lockstep_meta
from repro.sim.topology import CommDomain, ProcessMapping
from repro.sim.trace import OpRecord, Trace

__all__ = [
    "BatchedDagResult",
    "DagResult",
    "EngineError",
    "SimConfig",
    "StaticDag",
    "build_dag",
    "clear_dag_cache",
    "dag_cache_info",
    "simulate",
    "simulate_dag",
    "simulate_dag_batch",
]


class EngineError(RuntimeError):
    """Propagation could not complete: the dependency graph has a cycle.

    A cycle in the program DAG means the communication pattern deadlocks
    (e.g. two ranks that each wait for the other's rendezvous transfer
    before posting their own).  The error carries enough structure for a
    campaign runner to report *where* the program wedged:

    Attributes
    ----------
    n_unprocessed:
        Number of DAG nodes whose dependencies never resolved.
    first_blocked_rank:
        The lowest-program-order rank owning an unprocessed node, or
        ``-1`` when only virtual (transfer/completion) nodes remain.
    """

    def __init__(self, message: str, *, n_unprocessed: int = 0,
                 first_blocked_rank: int = -1) -> None:
        super().__init__(message)
        self.n_unprocessed = int(n_unprocessed)
        self.first_blocked_rank = int(first_blocked_rank)


@dataclass(frozen=True)
class SimConfig:
    """Everything the engine needs besides the program itself.

    Parameters
    ----------
    network:
        Transfer-time model.
    mapping:
        Rank placement, used to classify each message's
        :class:`~repro.sim.topology.CommDomain`.  When omitted, every pair
        of distinct ranks is treated as inter-node (the "one process per
        node" configuration of Figs. 4, 5 and 7).
    eager_limit:
        Protocol switch point in bytes (used when ``protocol`` is AUTO).
    protocol:
        Force eager or rendezvous for *all* messages, or AUTO for the
        size-based rule.
    """

    network: NetworkModel = field(default_factory=UniformNetwork)
    mapping: ProcessMapping | None = None
    eager_limit: int = DEFAULT_EAGER_LIMIT
    protocol: Protocol = Protocol.AUTO

    def domain(self, a: int, b: int) -> CommDomain:
        if self.mapping is not None:
            return self.mapping.domain(a, b)
        return CommDomain.SELF if a == b else CommDomain.INTER_NODE


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + counts[i])`` index ranges."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifts = starts - np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(shifts, counts) + np.arange(total, dtype=np.int64)


@dataclass
class StaticDag:
    """The delay-independent structure of one program's dependency DAG.

    Built once per (program shape, config) by :func:`build_dag`; per-draw
    execution durations are injected at :meth:`propagate` time.  All
    structural state is held in flat NumPy arrays:

    - ``succ_indptr``/``succ_index`` — CSR successor lists: node ``u``'s
      successors are ``succ_index[succ_indptr[u]:succ_indptr[u+1]]``;
    - ``edge_delay`` — per-edge delay slot, aligned with ``succ_index``
      (flight times of eager arrival edges; 0 elsewhere);
    - ``level_order``/``level_ptr`` — a topological level schedule: the
      nodes of level ``L`` are
      ``level_order[level_ptr[L]:level_ptr[L+1]]`` and depend only on
      nodes of earlier levels;
    - ``base_duration`` — structure-derived node durations (send/recv
      overheads, transfer flight times); execution-phase (``COMP``) slots
      hold 0 and are filled per draw.

    The remaining arrays map DAG nodes back to program coordinates for
    columnar timing extraction (which (rank, step) cell a ``COMP`` or
    ``WAITALL`` node belongs to) and for lazy trace materialization.
    """

    n_ranks: int
    n_steps: int
    # -- CSR structure -------------------------------------------------
    succ_indptr: np.ndarray  # [n_nodes + 1] int64
    succ_index: np.ndarray  # [n_edges] int64
    edge_delay: np.ndarray  # [n_edges] float64, CSR order
    base_duration: np.ndarray  # [n_nodes] float64 (COMP slots are 0)
    prog_pred: np.ndarray  # [n_nodes] int64, -1 for chain heads / virtual
    # -- topological level schedule -------------------------------------
    level_order: np.ndarray  # [n_nodes] int64 node permutation
    level_ptr: np.ndarray  # [n_levels + 1] int64
    # level-major edge schedule (a permutation of the CSR edges)
    edge_perm: np.ndarray  # [n_edges] int64 CSR positions, level order
    edge_src_lv: np.ndarray  # [n_edges] int64
    edge_dst_lv: np.ndarray  # [n_edges] int64
    # -- program coordinates --------------------------------------------
    comp_node: np.ndarray  # [n_comp] int64, program order
    comp_rank: np.ndarray  # [n_comp] int64
    comp_step: np.ndarray  # [n_comp] int64 (may be out of matrix range)
    comp_op_idx: np.ndarray  # [n_comp] int64 op position within its rank
    wait_node: np.ndarray  # [n_wait] int64, program order
    wait_rank: np.ndarray  # [n_wait] int64
    wait_step: np.ndarray  # [n_wait] int64
    rank_node_ids: tuple  # per rank: int64 array aligned with program ops

    # -- derived (computed in __post_init__) ----------------------------
    #: exactly one COMP + one WAITALL per (rank, step) cell — the shape
    #: for which lazy trace materialization is exact
    lockstep_shaped: bool = field(init=False, repr=False)
    _edge_delay_lv: np.ndarray = field(init=False, repr=False)
    _comp_in: np.ndarray = field(init=False, repr=False)  # step-in-range mask
    _wait_in: np.ndarray = field(init=False, repr=False)
    _no_comp: np.ndarray = field(init=False, repr=False)  # [P, S] bool
    _no_wait: np.ndarray = field(init=False, repr=False)
    _comp_cells_unique: bool = field(init=False, repr=False)
    _level_edge_ptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._edge_delay_lv = np.ascontiguousarray(
            self.edge_delay[self.edge_perm])[:, None]
        self._comp_in = (0 <= self.comp_step) & (self.comp_step < self.n_steps)
        self._wait_in = (0 <= self.wait_step) & (self.wait_step < self.n_steps)
        self._no_comp = np.ones((self.n_ranks, self.n_steps), dtype=bool)
        self._no_comp[self.comp_rank[self._comp_in],
                      self.comp_step[self._comp_in]] = False
        self._no_wait = np.ones((self.n_ranks, self.n_steps), dtype=bool)
        self._no_wait[self.wait_rank[self._wait_in],
                      self.wait_step[self._wait_in]] = False
        # Exactly one COMP and one WAITALL per (rank, step) cell?  Lazy
        # trace materialization is only exact for that shape (the wait
        # start is then recoverable as completion - idle).
        n_cells = self.n_ranks * self.n_steps
        comp_counts = np.bincount(
            self.comp_rank[self._comp_in] * self.n_steps
            + self.comp_step[self._comp_in], minlength=n_cells)
        wait_counts = np.bincount(
            self.wait_rank[self._wait_in] * self.n_steps
            + self.wait_step[self._wait_in], minlength=n_cells)
        self._comp_cells_unique = bool(np.all(comp_counts <= 1))
        self.lockstep_shaped = bool(
            np.all(self._comp_in) and np.all(self._wait_in)
            and self._comp_cells_unique and np.all(comp_counts == 1)
            and np.all(wait_counts == 1)
        )
        # Per-level edge ranges: level L's outgoing edges are the CSR rows
        # of its nodes, concatenated in level order (== edge_perm ranges).
        row_counts = self.succ_indptr[1:] - self.succ_indptr[:-1]
        level_edge_counts = np.add.reduceat(
            np.concatenate((row_counts[self.level_order], [0])),
            self.level_ptr[:-1],
        ) if self.n_levels else np.empty(0, dtype=np.int64)
        self._level_edge_ptr = np.concatenate(
            ([0], np.cumsum(level_edge_counts))).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.succ_indptr.shape[0] - 1)

    @property
    def n_edges(self) -> int:
        return int(self.succ_index.shape[0])

    @property
    def n_levels(self) -> int:
        return int(self.level_ptr.shape[0] - 1)

    # ------------------------------------------------------------------
    # duration assembly
    # ------------------------------------------------------------------
    def durations_for(self, program: Program) -> np.ndarray:
        """Per-node durations with ``program``'s COMP phases filled in.

        ``program`` must have the same shape as the one this structure
        was built from (same operation schedule; only durations differ).
        """
        dur = self.base_duration.copy()
        if self.comp_node.size:
            ops = program.ops
            dur[self.comp_node] = [
                ops[r][j].duration for r, j in zip(self.comp_rank, self.comp_op_idx)
            ]
        return dur

    def durations_from_exec(self, exec_times: np.ndarray) -> np.ndarray:
        """Per-node durations from a dense ``(..., P, S)`` execution matrix.

        Valid for lockstep-shaped programs (one ``COMP`` per rank and
        step); leading axes become batch axes of the returned
        ``(..., n_nodes)`` array.
        """
        exec_times = np.asarray(exec_times, dtype=float)
        if exec_times.shape[-2:] != (self.n_ranks, self.n_steps):
            raise ValueError(
                f"exec_times shape {exec_times.shape} does not end in "
                f"({self.n_ranks}, {self.n_steps})"
            )
        if not np.all(self._comp_in):
            raise ValueError(
                "program has COMP phases outside the step grid; use "
                "durations_for(program) instead"
            )
        if not self._comp_cells_unique:
            raise ValueError(
                "program has several COMP phases in one (rank, step) cell — "
                "a dense exec-time matrix cannot address them individually; "
                "use durations_for(program) instead"
            )
        lead = exec_times.shape[:-2]
        dur = np.broadcast_to(self.base_duration, (*lead, self.n_nodes)).copy()
        dur[..., self.comp_node] = exec_times[..., self.comp_rank, self.comp_step]
        return dur

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def propagate(self, durations: "np.ndarray | None" = None,
                  edge_delays: "np.ndarray | None" = None) -> np.ndarray:
        """Topological sweep; returns per-node completion times.

        Parameters
        ----------
        durations:
            Per-node durations, shape ``(..., n_nodes)``; leading axes are
            batch axes and every batch slice is bitwise identical to a
            scalar sweep of that slice.  Defaults to ``base_duration``
            (all COMP phases zero-length).
        edge_delays:
            Optional per-edge delay override in CSR order (aligned with
            ``succ_index``); defaults to the structure's ``edge_delay``.
        """
        if durations is None:
            durations = self.base_duration
        d = np.asarray(durations, dtype=float)
        if d.shape[-1] != self.n_nodes:
            raise ValueError(
                f"durations last axis {d.shape[-1]} != n_nodes {self.n_nodes}"
            )
        lead = d.shape[:-1]
        cols = np.ascontiguousarray(d.reshape(-1, self.n_nodes).T)
        _, end = self._propagate_cols(cols, edge_delays)
        return end.T.reshape(*lead, self.n_nodes)

    def _propagate_cols(self, dur_cols: np.ndarray,
                        edge_delays: "np.ndarray | None" = None
                        ) -> "tuple[np.ndarray, np.ndarray]":
        """Core sweep in ``(n_nodes, B)`` layout; returns ``(ready, end)``.

        ``ready[u]`` is the time node ``u``'s dependencies resolved (the
        record *start* time of non-WAITALL operations); ``end[u]`` is
        ``ready[u] + duration[u]``.
        """
        n, b = dur_cols.shape
        if edge_delays is None:
            delay_lv = self._edge_delay_lv
        else:
            edge_delays = np.asarray(edge_delays, dtype=float)
            if edge_delays.shape != (self.n_edges,):
                raise ValueError(
                    f"edge_delays shape {edge_delays.shape} != ({self.n_edges},)"
                )
            delay_lv = edge_delays[self.edge_perm][:, None]
        ready = np.zeros((n, b))
        end = np.empty((n, b))
        level_ptr, edge_ptr = self.level_ptr, self._level_edge_ptr
        order, src_lv, dst_lv = self.level_order, self.edge_src_lv, self.edge_dst_lv
        with telemetry.span("engine.dag.propagate", batch=b,
                            n_levels=self.n_levels, n_nodes=n):
            for lv in range(self.n_levels):
                nodes = order[level_ptr[lv]:level_ptr[lv + 1]]
                end[nodes] = ready[nodes] + dur_cols[nodes]
                e0, e1 = edge_ptr[lv], edge_ptr[lv + 1]
                if e1 > e0:
                    np.maximum.at(
                        ready, dst_lv[e0:e1], end[src_lv[e0:e1]] + delay_lv[e0:e1]
                    )
        return ready, end

    # ------------------------------------------------------------------
    # columnar timing extraction
    # ------------------------------------------------------------------
    def _timing_cols(self, ready: np.ndarray, end: np.ndarray
                     ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Dense ``(B, P, S)`` matrices from per-node ``(n_nodes, B)`` times.

        Returns ``(exec_start, exec_end, completion, idle)`` with exactly
        the semantics of :class:`~repro.sim.trace.Trace`'s matrix methods
        (max/min reduction over same-cell records, NaN where a cell has no
        record, idle summed over a cell's Waitalls in program order).
        """
        p, s, b = self.n_ranks, self.n_steps, end.shape[1]
        cn = self.comp_node[self._comp_in]
        cr = self.comp_rank[self._comp_in]
        cs = self.comp_step[self._comp_in]
        wn = self.wait_node[self._wait_in]
        wr = self.wait_rank[self._wait_in]
        ws = self.wait_step[self._wait_in]

        exec_end = np.full((p, s, b), -np.inf)
        np.maximum.at(exec_end, (cr, cs), end[cn])
        exec_end[self._no_comp] = np.nan

        exec_start = np.full((p, s, b), np.inf)
        np.minimum.at(exec_start, (cr, cs), ready[cn])
        exec_start[self._no_comp] = np.nan

        completion = np.full((p, s, b), -np.inf)
        np.maximum.at(completion, (wr, ws), end[wn])
        completion[self._no_wait] = np.nan

        # A WAITALL's record start is its local-chain readiness: the end of
        # its program predecessor (0 at a chain head), not ``ready`` —
        # cross-rank request edges must not shift the wait's start.
        pred = self.prog_pred[wn]
        wait_start = np.where((pred >= 0)[:, None],
                              end[np.maximum(pred, 0)], 0.0)
        idle = np.zeros((p, s, b))
        np.add.at(idle, (wr, ws), end[wn] - wait_start)

        to_batch = lambda m: np.ascontiguousarray(np.moveaxis(m, -1, 0))
        return (to_batch(exec_start), to_batch(exec_end),
                to_batch(completion), to_batch(idle))


class _DagAccumulator:
    """Collects nodes and edges while the program is walked."""

    __slots__ = ("duration", "succs", "prog_pred", "node_rank")

    def __init__(self) -> None:
        self.duration: list[float] = []
        self.succs: list[list[tuple[int, float]]] = []
        self.prog_pred: list[int] = []
        self.node_rank: list[int] = []

    def add_node(self, duration: float, prog_pred: int = -1, rank: int = -1) -> int:
        node = len(self.duration)
        self.duration.append(duration)
        self.succs.append([])
        self.prog_pred.append(prog_pred)
        self.node_rank.append(rank)
        if prog_pred >= 0:
            self.add_edge(prog_pred, node, 0.0)
        return node

    def add_edge(self, src: int, dst: int, delay: float) -> None:
        self.succs[src].append((dst, delay))


def _levelize(n: int, indptr: np.ndarray, succ: np.ndarray,
              node_rank: np.ndarray
              ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Kahn level schedule over a CSR graph; raises :class:`EngineError`
    on a cycle.  Returns ``(level_order, level_ptr, edge_perm,
    edge_src_lv, edge_dst_lv)``."""
    indeg = np.bincount(succ, minlength=n) if succ.size else np.zeros(n, dtype=np.int64)
    indeg = indeg.astype(np.int64, copy=False).copy()
    frontier = np.flatnonzero(indeg == 0)
    order_parts: list[np.ndarray] = []
    perm_parts: list[np.ndarray] = []
    src_parts: list[np.ndarray] = []
    level_ptr = [0]
    processed = 0
    while frontier.size:
        order_parts.append(frontier)
        processed += int(frontier.size)
        level_ptr.append(processed)
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        epos = _concat_ranges(starts, counts)
        perm_parts.append(epos)
        src_parts.append(np.repeat(frontier, counts))
        dsts = succ[epos]
        np.subtract.at(indeg, dsts, 1)
        cand = np.unique(dsts)
        frontier = cand[indeg[cand] == 0]
    if processed != n:
        unprocessed = np.setdiff1d(np.arange(n), np.concatenate(order_parts)
                                   if order_parts else np.empty(0, np.int64))
        blocked_ranks = node_rank[unprocessed]
        blocked_ranks = blocked_ranks[blocked_ranks >= 0]
        first_blocked = int(blocked_ranks[0]) if blocked_ranks.size else -1
        raise EngineError(
            f"dependency cycle in program DAG: processed {processed} of {n} nodes "
            f"({n - processed} unresolved, first blocked rank {first_blocked}) — "
            "this indicates a deadlocking communication pattern",
            n_unprocessed=n - processed,
            first_blocked_rank=first_blocked,
        )
    empty = np.empty(0, dtype=np.int64)
    perm = np.concatenate(perm_parts) if perm_parts else empty
    return (
        np.concatenate(order_parts) if order_parts else empty,
        np.asarray(level_ptr, dtype=np.int64),
        perm,
        np.concatenate(src_parts) if src_parts else empty,
        succ[perm],  # == edge_dst in level order, the CSR permutation image
    )


def _build_structure(program: Program, config: SimConfig) -> StaticDag:
    """Walk the program once and freeze its dependency DAG (uncached)."""
    acc = _DagAccumulator()
    matcher = MessageMatcher()

    rank_node_ids: list[np.ndarray] = []
    comp_node: list[int] = []
    comp_rank: list[int] = []
    comp_step: list[int] = []
    comp_op_idx: list[int] = []
    wait_node: list[int] = []
    wait_rank: list[int] = []
    wait_step: list[int] = []
    # waitall_of[node] = the WAITALL node this ISEND/IRECV belongs to
    waitall_of: dict[int, int] = {}
    # step_of_send[node] = bulk-synchronous step of an ISEND node
    step_of_send: dict[int, int] = {}
    # prewait[(rank, step)] = node just before the step's WAITALL (the rank's
    # posting-complete time; anchor of the progress-coupling rule)
    prewait: dict[tuple[int, int], int] = {}

    for rank, rank_ops in enumerate(program.ops):
        prev = -1
        ids: list[int] = []
        pending_reqs: list[int] = []
        for op_idx, op in enumerate(rank_ops):
            if op.kind == OpKind.COMP:
                # Duration slot: filled per draw (the delay-dependent part).
                node = acc.add_node(0.0, prev, rank)
                comp_node.append(node)
                comp_rank.append(rank)
                comp_step.append(op.step)
                comp_op_idx.append(op_idx)
            elif op.kind == OpKind.ISEND:
                domain = config.domain(rank, op.peer)
                node = acc.add_node(config.network.send_overhead(domain), prev, rank)
                matcher.add_send(rank, op.peer, op.tag, op.size, node)
                step_of_send[node] = op.step
                pending_reqs.append(node)
            elif op.kind == OpKind.IRECV:
                node = acc.add_node(0.0, prev, rank)
                matcher.add_recv(op.peer, rank, op.tag, node)
                pending_reqs.append(node)
            elif op.kind == OpKind.WAITALL:
                if prev >= 0:
                    prewait[(rank, op.step)] = prev
                node = acc.add_node(0.0, prev, rank)
                for req in pending_reqs:
                    waitall_of[req] = node
                pending_reqs = []
                wait_node.append(node)
                wait_rank.append(rank)
                wait_step.append(op.step)
            else:  # pragma: no cover - OpKind is exhaustive
                raise ValueError(f"unknown op kind {op.kind}")
            ids.append(node)
            prev = node
        if pending_reqs:
            raise ValueError(
                f"rank {rank} ends with {len(pending_reqs)} requests not covered "
                "by a WAITALL"
            )
        rank_node_ids.append(np.asarray(ids, dtype=np.int64))

    # Wire the matched messages.  Rendezvous matches are collected first so
    # the bidirectional progress-coupling rule can be applied afterwards.
    from collections import defaultdict

    rdv_partners: dict[tuple[int, int], set[int]] = defaultdict(set)
    pair_directions: dict[tuple[int, int, int], set[tuple[int, int]]] = defaultdict(set)
    rdv_transfers: list[tuple[object, int, int]] = []  # (match, transfer node, step)

    for m in matcher.finish():
        domain = config.domain(m.src, m.dst)
        proto = select_protocol(m.size, config.eager_limit, config.protocol)
        flight = config.network.transfer_time(m.size, domain)
        o_recv = config.network.recv_overhead(domain)
        send_wait = waitall_of[m.send_node]
        recv_wait = waitall_of[m.recv_node]
        if proto == Protocol.EAGER:
            # Send request is locally complete; ISEND -> its WAITALL.
            acc.add_edge(m.send_node, send_wait, 0.0)
            # Receive request completes at max(arrival, posted) + o_recv.
            completion = acc.add_node(o_recv)
            acc.add_edge(m.send_node, completion, flight)
            acc.add_edge(m.recv_node, completion, 0.0)
            acc.add_edge(completion, recv_wait, 0.0)
        else:  # rendezvous: handshake, then transfer; both requests finish at end
            transfer = acc.add_node(flight + o_recv)
            acc.add_edge(m.send_node, transfer, 0.0)
            acc.add_edge(m.recv_node, transfer, 0.0)
            acc.add_edge(transfer, send_wait, 0.0)
            acc.add_edge(transfer, recv_wait, 0.0)
            step = step_of_send[m.send_node]
            rdv_partners[(m.src, step)].add(m.dst)
            rdv_partners[(m.dst, step)].add(m.src)
            lo, hi = (m.src, m.dst) if m.src < m.dst else (m.dst, m.src)
            pair_directions[(lo, hi, step)].add((m.src, m.dst))
            rdv_transfers.append((m, transfer, step))

    # Bidirectional rendezvous progress coupling (σ = 2 of Eq. 2): when a
    # pair exchanges rendezvous messages both ways in one step, its transfers
    # additionally wait for the posting-complete times of both endpoints'
    # same-step rendezvous partners.  Posting times are primary quantities
    # (execution end + send overheads), so the rule reaches exactly one hop.
    for m, transfer, step in rdv_transfers:
        lo, hi = (m.src, m.dst) if m.src < m.dst else (m.dst, m.src)
        if len(pair_directions[(lo, hi, step)]) < 2:
            continue
        coupled = rdv_partners[(m.src, step)] | rdv_partners[(m.dst, step)]
        for p in coupled:
            anchor = prewait.get((p, step))
            if anchor is not None:
                acc.add_edge(anchor, transfer, 0.0)

    # Freeze into CSR + level schedule.
    n = len(acc.duration)
    counts = np.fromiter((len(s) for s in acc.succs), dtype=np.int64, count=n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    n_edges = int(indptr[-1])
    succ = np.fromiter((dst for s in acc.succs for dst, _ in s),
                       dtype=np.int64, count=n_edges)
    delay = np.fromiter((d for s in acc.succs for _, d in s),
                        dtype=float, count=n_edges)
    node_rank = np.asarray(acc.node_rank, dtype=np.int64)

    level_order, level_ptr, edge_perm, edge_src_lv, edge_dst_lv = _levelize(
        n, indptr, succ, node_rank)

    return StaticDag(
        n_ranks=program.n_ranks,
        n_steps=program.n_steps,
        succ_indptr=indptr,
        succ_index=succ,
        edge_delay=delay,
        base_duration=np.asarray(acc.duration, dtype=float),
        prog_pred=np.asarray(acc.prog_pred, dtype=np.int64),
        level_order=level_order,
        level_ptr=level_ptr,
        edge_perm=edge_perm,
        edge_src_lv=edge_src_lv,
        edge_dst_lv=edge_dst_lv,
        comp_node=np.asarray(comp_node, dtype=np.int64),
        comp_rank=np.asarray(comp_rank, dtype=np.int64),
        comp_step=np.asarray(comp_step, dtype=np.int64),
        comp_op_idx=np.asarray(comp_op_idx, dtype=np.int64),
        wait_node=np.asarray(wait_node, dtype=np.int64),
        wait_rank=np.asarray(wait_rank, dtype=np.int64),
        wait_step=np.asarray(wait_step, dtype=np.int64),
        rank_node_ids=tuple(rank_node_ids),
    )


def _build_lockstep_structure(cfg: LockstepConfig, config: SimConfig) -> StaticDag:
    """Freeze the DAG of ``cfg``'s lockstep program without building it.

    Field-for-field identical to
    ``_build_structure(build_lockstep_program(cfg), config)``: nodes are
    numbered in the walker's order (rank-major ``COMP; IRECV*; ISEND*;
    WAITALL`` blocks, then one virtual node per message in match order)
    and CSR rows keep the walker's edge insertion order.  Every message
    has the same size, so one protocol applies to all of them; domains,
    overheads and flight times are resolved once per rank pair.
    """
    p_, s_ = cfg.n_ranks, cfg.n_steps
    sends = [cfg.pattern.send_targets(r, p_) for r in range(p_)]
    recvs = [cfg.pattern.recv_sources(r, p_) for r in range(p_)]
    n_send = np.array([len(t) for t in sends], dtype=np.int64)
    n_recv = np.array([len(t) for t in recvs], dtype=np.int64)
    block = 2 + n_recv + n_send  # ops per (rank, step)
    first = np.concatenate(([0], np.cumsum(s_ * block)))  # rank r's first node
    n_prog = int(first[-1])
    steps = np.arange(s_, dtype=np.int64)
    cell_rank = np.repeat(np.arange(p_, dtype=np.int64), s_)  # [P*S]
    cell_step = np.tile(steps, p_)
    comp = first[cell_rank] + cell_step * block[cell_rank]
    wait = comp + block[cell_rank] - 1

    # One entry per (src, dst) rank pair, in send-list order; each send
    # has exactly one recv (a missing one fails the recv_slot lookup).
    recv_slot = {(r, src): j for r in range(p_) for j, src in enumerate(recvs[r])}
    pairs = [(src, dst, i) for src in range(p_) for i, dst in enumerate(sends[src])]
    if len(pairs) != len(recv_slot):
        raise ValueError("program has unmatched point-to-point operations")
    proto = select_protocol(cfg.msg_size, config.eager_limit, config.protocol)
    eager = proto == Protocol.EAGER
    pair_src = np.array([s for s, _, _ in pairs], dtype=np.int64)
    pair_dst = np.array([d for _, d, _ in pairs], dtype=np.int64)
    send_off = np.array([1 + n_recv[s] + i for s, _, i in pairs], dtype=np.int64)
    recv_off = np.array([1 + recv_slot[(d, s)] for s, d, _ in pairs], dtype=np.int64)
    o_send, v_dur, flight = [], [], []
    for s, d, _ in pairs:
        domain = config.domain(s, d)
        f = config.network.transfer_time(cfg.msg_size, domain)
        o_recv = config.network.recv_overhead(domain)
        o_send.append(config.network.send_overhead(domain))
        v_dur.append(o_recv if eager else f + o_recv)
        flight.append(f)

    # Messages (pair, step), reordered into the matcher's order: a message
    # matches when the later of its send and recv nodes is walked.
    m_pair = np.repeat(np.arange(len(pairs), dtype=np.int64), s_)
    m_step = np.tile(steps, len(pairs))
    m_src, m_dst = pair_src[m_pair], pair_dst[m_pair]
    send_node = first[m_src] + m_step * block[m_src] + send_off[m_pair]
    recv_node = first[m_dst] + m_step * block[m_dst] + recv_off[m_pair]
    order = np.argsort(np.maximum(send_node, recv_node), kind="stable")
    m_pair, m_step, m_src, m_dst = (m_pair[order], m_step[order],
                                    m_src[order], m_dst[order])
    send_node, recv_node = send_node[order], recv_node[order]
    n_msg = int(order.size)
    virt = np.arange(n_prog, n_prog + n_msg, dtype=np.int64)
    send_wait = first[m_src] + m_step * block[m_src] + block[m_src] - 1
    recv_wait = first[m_dst] + m_step * block[m_dst] + block[m_dst] - 1
    n = n_prog + n_msg

    base_duration = np.zeros(n)
    base_duration[send_node] = np.asarray(o_send, dtype=float)[m_pair]
    base_duration[virt] = np.asarray(v_dur, dtype=float)[m_pair]
    prog_pred = np.arange(-1, n - 1, dtype=np.int64)
    prog_pred[first[:-1]] = -1
    prog_pred[n_prog:] = -1
    node_rank = np.concatenate((np.repeat(np.arange(p_, dtype=np.int64), s_ * block),
                                np.full(n_msg, -1, dtype=np.int64)))

    # Edges in the walker's insertion order: program chains, then four per
    # message in match order, then the progress-coupling edges.
    chain = np.flatnonzero(prog_pred[:n_prog] >= 0)
    zero = np.zeros(n_msg)
    if eager:
        m_from = (send_node, send_node, recv_node, virt)
        m_to = (send_wait, virt, virt, recv_wait)
        m_delay = (zero, np.asarray(flight, dtype=float)[m_pair], zero, zero)
    else:
        m_from = (send_node, recv_node, virt, virt)
        m_to = (virt, virt, send_wait, recv_wait)
        m_delay = (zero,) * 4
    src_parts = [chain - 1, np.stack(m_from, axis=1).ravel()]
    dst_parts = [chain, np.stack(m_to, axis=1).ravel()]
    delay_parts = [np.zeros(chain.size), np.stack(m_delay, axis=1).ravel()]
    if not eager:
        # A pair exchanging messages both ways couples its transfers to the
        # posting-complete node (the one before WAITALL) of every rank
        # either endpoint talks to.  Partner sets are the same every step.
        partners = [set(sends[r]) | set(recvs[r]) for r in range(p_)]
        coupled = [sorted(partners[s] | partners[d]) if s in sends[d] else []
                   for s, d, _ in pairs]
        n_coupled = np.array([len(c) for c in coupled], dtype=np.int64)
        coupled_flat = np.array([q for c in coupled for q in c], dtype=np.int64)
        coupled_ptr = np.concatenate(([0], np.cumsum(n_coupled)))
        counts = n_coupled[m_pair]
        q = coupled_flat[_concat_ranges(coupled_ptr[m_pair], counts)]
        src_parts.append(first[q] + np.repeat(m_step, counts) * block[q]
                         + block[q] - 2)
        dst_parts.append(np.repeat(virt, counts))
        delay_parts.append(np.zeros(q.size))
    e_src = np.concatenate(src_parts)
    by_src = np.argsort(e_src, kind="stable")
    succ = np.concatenate(dst_parts)[by_src]
    delay = np.concatenate(delay_parts)[by_src]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(e_src, minlength=n))))

    level_order, level_ptr, edge_perm, edge_src_lv, edge_dst_lv = _levelize(
        n, indptr, succ, node_rank)

    return StaticDag(
        n_ranks=p_,
        n_steps=s_,
        succ_indptr=indptr,
        succ_index=succ,
        edge_delay=delay,
        base_duration=base_duration,
        prog_pred=prog_pred,
        level_order=level_order,
        level_ptr=level_ptr,
        edge_perm=edge_perm,
        edge_src_lv=edge_src_lv,
        edge_dst_lv=edge_dst_lv,
        comp_node=comp,
        comp_rank=cell_rank,
        comp_step=cell_step,
        comp_op_idx=(steps * block[:, None]).ravel(),
        wait_node=wait,
        wait_rank=cell_rank,
        wait_step=cell_step,
        rank_node_ids=tuple(np.arange(first[r], first[r + 1], dtype=np.int64)
                            for r in range(p_)),
    )


# ----------------------------------------------------------------------
# structure cache
# ----------------------------------------------------------------------

_DAG_CACHE: "OrderedDict[tuple, StaticDag]" = OrderedDict()
_DAG_CACHE_MAX = 16
_DAG_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _program_shape_key(program: Program) -> tuple:
    """Hashable program shape: every structural field, no COMP durations."""
    return (
        program.n_steps,
        tuple(
            tuple((int(op.kind), op.peer, op.size, op.tag, op.step)
                  for op in rank_ops)
            for rank_ops in program.ops
        ),
    )


def _config_key(config: SimConfig) -> tuple:
    # dataclass reprs are deterministic and cover every field that feeds
    # edge construction (per-domain flights/overheads, placement).
    return (config.protocol, config.eager_limit,
            type(config.network).__name__, repr(config.network),
            repr(config.mapping))


def build_dag(source: "Program | LockstepConfig",
              config: "SimConfig | None" = None,
              cache: bool = True) -> StaticDag:
    """Compile a program, or a lockstep config, into a :class:`StaticDag`.

    A :class:`~repro.sim.program.LockstepConfig` is built straight from
    its parameters (no :class:`~repro.sim.program.Program` exists) and is
    keyed on ``(n_ranks, n_steps, msg_size, pattern)``; ``t_exec``, noise,
    delays and seed only feed COMP durations.  A program is keyed on its
    *shape* (operation kinds, peers, sizes, tags, steps — everything
    except COMP durations).  Both keys add the config's
    network/mapping/protocol parameters, so a delay campaign's draws all
    hit one entry.  See CONTRIBUTING.md for when the cache must be
    invalidated (:func:`clear_dag_cache`).
    """
    if config is None:
        config = SimConfig()
    lockstep = isinstance(source, LockstepConfig)
    builder = _build_lockstep_structure if lockstep else _build_structure
    if not cache:
        return _traced_build(builder, source, config, cached=False)
    shape = (("lockstep", source.n_ranks, source.n_steps, source.msg_size,
              source.pattern) if lockstep else _program_shape_key(source))
    key = (shape, _config_key(config))
    dag = _DAG_CACHE.get(key)
    if dag is not None:
        _DAG_CACHE.move_to_end(key)
        _DAG_CACHE_STATS["hits"] += 1
        telemetry.count("dag.cache.hits")
        return dag
    _DAG_CACHE_STATS["misses"] += 1
    telemetry.count("dag.cache.misses")
    dag = _traced_build(builder, source, config, cached=True)
    _DAG_CACHE[key] = dag
    while len(_DAG_CACHE) > _DAG_CACHE_MAX:
        _DAG_CACHE.popitem(last=False)
        _DAG_CACHE_STATS["evictions"] += 1
        telemetry.count("dag.cache.evictions")
    return dag


def _traced_build(builder, source, config: SimConfig, cached: bool) -> StaticDag:
    with telemetry.span("engine.build_dag", cached=cached) as sp:
        dag = builder(source, config)
        sp.set(n_nodes=dag.n_nodes, n_edges=dag.n_edges,
               n_levels=dag.n_levels)
    return dag


def clear_dag_cache() -> None:
    """Drop every cached :class:`StaticDag` and reset the hit statistics."""
    _DAG_CACHE.clear()
    _DAG_CACHE_STATS.update(hits=0, misses=0, evictions=0)


def dag_cache_info() -> dict:
    """Cache observability: size/occupancy plus the always-on hit, miss,
    and eviction counters (mirrored into telemetry as ``dag.cache.*``
    when a recorder is enabled)."""
    return {"size": len(_DAG_CACHE), "max_size": _DAG_CACHE_MAX,
            **_DAG_CACHE_STATS}


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


def _dag_meta(program_meta: dict, config: SimConfig) -> dict:
    return {**program_meta, "engine": "dag", "protocol": config.protocol.value,
            "eager_limit": config.eager_limit}


@dataclass
class DagResult:
    """Dense timing matrices from one DAG-engine run (columnar form).

    All arrays are ``[n_ranks, n_steps]`` wall-clock seconds with exactly
    the semantics of the corresponding :class:`~repro.sim.trace.Trace`
    matrix methods.  No :class:`~repro.sim.trace.OpRecord` objects exist
    until :meth:`to_trace` is called — analysis-layer consumers read the
    dense arrays directly.
    """

    exec_start: np.ndarray
    exec_end: np.ndarray
    completion: np.ndarray
    idle: np.ndarray
    meta: dict = field(default_factory=dict)
    #: whether the source program had exactly one COMP + one WAITALL per
    #: (rank, step) — the only shape :meth:`to_trace` can reconstruct
    exact_trace: bool = True

    @property
    def n_ranks(self) -> int:
        return self.exec_end.shape[0]

    @property
    def n_steps(self) -> int:
        return self.exec_end.shape[1]

    def total_runtime(self) -> float:
        """Wall-clock completion of the last rank."""
        return float(np.nanmax(self.completion)) if self.completion.size else 0.0

    def to_trace(self) -> Trace:
        """Materialize COMP + WAITALL records (lazy trace construction).

        Mirrors :meth:`repro.sim.lockstep.LockstepResult.to_trace`: the
        per-message ISEND/IRECV records are not rebuilt — use
        :func:`simulate` when a complete record stream is needed.

        Raises
        ------
        ValueError
            If the source program was not lockstep-shaped (a cell with
            several Waitalls, or none): the dense matrices stay exact,
            but per-record start times cannot be reconstructed from them.
        """
        if not self.exact_trace:
            raise ValueError(
                "program is not lockstep-shaped (one COMP + one WAITALL per "
                "rank and step); use simulate() for a full record stream"
            )
        return Trace.from_matrices(
            exec_start=self.exec_start,
            exec_end=self.exec_end,
            wait_start=self.completion - self.idle,
            completion=self.completion,
            meta=dict(self.meta),
        )


@dataclass
class BatchedDagResult:
    """Timing matrices of B independent DAG runs propagated together.

    All arrays are ``[n_batch, n_ranks, n_steps]`` wall-clock seconds.
    Indexing (``result[b]``) yields the b-th run as a :class:`DagResult`
    (the slices share memory with the batch); every slice is bitwise
    identical to the corresponding per-draw :func:`simulate_dag` run —
    propagation is elementwise along the batch axis.
    """

    exec_start: np.ndarray
    exec_end: np.ndarray
    completion: np.ndarray
    idle: np.ndarray
    meta: dict = field(default_factory=dict)
    exact_trace: bool = True

    @property
    def n_batch(self) -> int:
        return self.exec_end.shape[0]

    @property
    def n_ranks(self) -> int:
        return self.exec_end.shape[1]

    @property
    def n_steps(self) -> int:
        return self.exec_end.shape[2]

    def __len__(self) -> int:
        return self.n_batch

    def __getitem__(self, b: int) -> DagResult:
        if not -self.n_batch <= b < self.n_batch:
            raise IndexError(f"batch index {b} out of range [0, {self.n_batch})")
        return DagResult(
            exec_start=self.exec_start[b],
            exec_end=self.exec_end[b],
            completion=self.completion[b],
            idle=self.idle[b],
            meta=dict(self.meta),
            exact_trace=self.exact_trace,
        )

    def results(self):
        """Iterate over the B runs as :class:`DagResult` views."""
        return (self[b] for b in range(self.n_batch))

    def total_runtimes(self) -> np.ndarray:
        """Per-run wall-clock completion, shape ``[n_batch]``."""
        return np.nanmax(self.completion, axis=(1, 2))


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def simulate(program: Program, config: SimConfig | None = None) -> Trace:
    """Run one program to completion and return its full trace.

    The simulation is deterministic: all randomness (noise, delays) is baked
    into the program's ``COMP`` durations at construction time.  The DAG
    structure is resolved through the build cache, so repeated calls with
    same-shaped programs (a delay campaign's draws) skip graph
    construction and only re-propagate the weights.

    Raises
    ------
    ValueError
        If the program contains unmatched sends/receives.
    EngineError
        If the communication pattern deadlocks (dependency cycle).
    """
    if config is None:
        config = SimConfig()
    dag = build_dag(program, config)
    ready, end = dag._propagate_cols(dag.durations_for(program)[:, None])
    r_ready, r_end = ready[:, 0], end[:, 0]
    prog_pred = dag.prog_pred

    records: list[OpRecord] = []
    for rank, (rank_ops, node_ids) in enumerate(zip(program.ops, dag.rank_node_ids)):
        for op, node in zip(rank_ops, node_ids):
            if op.kind == OpKind.WAITALL:
                pred = prog_pred[node]
                start = r_end[pred] if pred >= 0 else 0.0
            else:
                start = r_ready[node]
            records.append(
                OpRecord(
                    rank=rank,
                    step=op.step,
                    kind=op.kind,
                    start=float(start),
                    end=float(r_end[node]),
                    peer=op.peer,
                    size=op.size,
                )
            )

    return Trace(
        n_ranks=program.n_ranks,
        n_steps=program.n_steps,
        records=records,
        meta=_dag_meta(program.meta, config),
    )


def simulate_dag(program: Program, config: SimConfig | None = None) -> DagResult:
    """Run one program and return dense timing matrices (no records).

    The columnar fast path of the DAG engine: identical numbers to
    :func:`simulate` (``DagResult.exec_end`` is bitwise equal to
    ``trace.exec_end_matrix()``, and so on) without materializing a
    single :class:`~repro.sim.trace.OpRecord`.
    """
    if config is None:
        config = SimConfig()
    dag = build_dag(program, config)
    ready, end = dag._propagate_cols(dag.durations_for(program)[:, None])
    exec_start, exec_end, completion, idle = dag._timing_cols(ready, end)
    return DagResult(
        exec_start=exec_start[0],
        exec_end=exec_end[0],
        completion=completion[0],
        idle=idle[0],
        meta=_dag_meta(program.meta, config),
        exact_trace=dag.lockstep_shaped,
    )


def simulate_dag_batch(cfg: LockstepConfig, exec_times: np.ndarray,
                       config: SimConfig | None = None) -> BatchedDagResult:
    """Simulate B lockstep-program draws as one batched DAG propagation.

    The DAG-engine analogue of
    :func:`repro.sim.lockstep.simulate_lockstep_batch`: the program
    structure is built from ``cfg`` (or fetched from the structure cache)
    once — no :class:`~repro.sim.program.Program` is constructed — and
    the B duration vectors flow through it as a single ``(n_nodes, B)``
    sweep.

    Parameters
    ----------
    cfg:
        Shared experiment parameters (ranks, steps, pattern, message
        size).  ``cfg.delays``/``cfg.noise``/``cfg.seed`` are *not*
        consulted — all per-run variation must already be baked into
        ``exec_times``.
    exec_times:
        ``[n_batch, n_ranks, n_steps]`` execution durations, one matrix
        per run.
    config:
        Network/placement/protocol configuration shared by all runs.

    Returns
    -------
    BatchedDagResult
        ``[n_batch, n_ranks, n_steps]`` timing matrices whose slices are
        bitwise identical to the corresponding per-draw runs.
    """
    if config is None:
        config = SimConfig()
    exec_times = np.asarray(exec_times, dtype=float)
    if exec_times.ndim != 3 or exec_times.shape[1:] != (cfg.n_ranks, cfg.n_steps):
        raise ValueError(
            f"exec_times shape {exec_times.shape} != "
            f"(n_batch, {cfg.n_ranks}, {cfg.n_steps})"
        )
    if exec_times.shape[0] < 1:
        raise ValueError("batch must contain at least one run")
    if np.any(exec_times < 0):
        raise ValueError("exec_times must be non-negative")

    dag = build_dag(cfg, config)
    durations = dag.durations_from_exec(exec_times)
    ready, end = dag._propagate_cols(
        np.ascontiguousarray(durations.reshape(-1, dag.n_nodes).T))
    exec_start, exec_end, completion, idle = dag._timing_cols(ready, end)
    meta = _dag_meta(lockstep_meta(cfg), config)
    meta["n_batch"] = int(exec_times.shape[0])
    return BatchedDagResult(
        exec_start=exec_start,
        exec_end=exec_end,
        completion=completion,
        idle=idle,
        meta=meta,
        exact_trace=dag.lockstep_shaped,
    )
