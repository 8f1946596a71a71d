"""Batched, hierarchy-aware vectorized engine for the lockstep pattern.

For the bulk-synchronous programs built by
:func:`repro.sim.program.build_lockstep_program`, the per-step completion
times obey a simple recurrence over ranks that can be evaluated with
:mod:`numpy` in O(N·d) per step instead of walking a DAG.  This makes runs
like the 100-rank × 10⁴-step LBM timeline (Fig. 2) tractable.

Two generalizations widen the fast path beyond the original flat-network
engine:

- **hierarchy** — a :class:`~repro.sim.topology.ProcessMapping` plus a
  per-domain :class:`~repro.sim.network.NetworkModel` give every message
  its own flight time and overheads depending on where the two endpoints
  live (intra-socket / inter-socket / inter-node, Sec. II-B).  Because the
  lockstep pattern only ever connects rank ``i`` to ``i ± k``, the
  per-message parameters collapse to one ``[n_ranks]`` array per neighbor
  offset, and the recurrence stays fully vectorized.
- **batching** — :func:`simulate_lockstep_batch` accepts a
  ``[B, n_ranks, n_steps]`` stack of execution-time matrices (e.g. B draws
  of a random delay campaign) and simulates all B runs as one
  ``(B, n_ranks)``-shaped recurrence.  Every operation is elementwise
  along the batch axis, so each slice of the result is **bit-identical**
  to the corresponding unbatched run — the property the campaign runtime's
  content-addressed cache relies on (see ``tests/properties/``).

The recurrence mirrors the DAG engine exactly (see
``tests/properties/test_engine_equivalence.py`` and
``tests/properties/test_hierarchy_equivalence.py`` for the machine-checked
contract):

- ``exec_end[i] = c_prev[i] + exec_time[i, k]``
- sends are posted back-to-back in pattern order, the *p*-th send ending
  after the cumulative send overheads of sends ``1..p``
- eager receive completion: ``max(sender's send end + flight, exec_end[i])
  + o_recv``
- rendezvous transfer completion: ``max(sender's send end, exec_end[i])
  + flight + o_recv`` — and it blocks *both* sides' Waitall
- ``c[i] = max(post_end[i], all request completions)``
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.sim.mpi import Protocol, select_protocol
from repro.sim.network import NetworkModel, UniformNetwork
from repro.sim.program import (
    CommPattern,
    Direction,
    LockstepConfig,
    build_exec_times,
)
from repro.sim.topology import CommDomain, ProcessMapping

__all__ = [
    "BatchedLockstepResult",
    "LockstepResult",
    "simulate_lockstep",
    "simulate_lockstep_batch",
]


@dataclass
class LockstepResult:
    """Dense timing matrices from a lockstep-engine run.

    All arrays are ``[n_ranks, n_steps]`` wall-clock seconds.
    """

    exec_start: np.ndarray
    exec_end: np.ndarray
    post_end: np.ndarray  # all sends posted; rank enters Waitall
    completion: np.ndarray  # Waitall returned
    meta: dict = field(default_factory=dict)

    @property
    def n_ranks(self) -> int:
        return self.exec_end.shape[0]

    @property
    def n_steps(self) -> int:
        return self.exec_end.shape[1]

    def idle_matrix(self) -> np.ndarray:
        """Seconds spent inside each step's Waitall."""
        return self.completion - self.post_end

    def total_runtime(self) -> float:
        """Wall-clock completion of the last rank."""
        return float(self.completion[:, -1].max())

    def to_trace(self) -> "Trace":
        """Convert to a :class:`~repro.sim.trace.Trace` (COMP + WAITALL records).

        The per-message ISEND/IRECV records are not materialized — the
        analysis layer only consumes execution and wait timings.
        """
        from repro.sim.trace import Trace

        return Trace.from_matrices(
            exec_start=self.exec_start,
            exec_end=self.exec_end,
            wait_start=self.post_end,
            completion=self.completion,
            meta={**self.meta, "engine": "lockstep"},
        )


@dataclass
class BatchedLockstepResult:
    """Timing matrices of B independent lockstep runs simulated together.

    All arrays are ``[n_batch, n_ranks, n_steps]`` wall-clock seconds.
    Indexing (``result[b]``) yields the b-th run as an ordinary
    :class:`LockstepResult` (the slices share memory with the batch).
    Each slice is bit-identical to what :func:`simulate_lockstep` would
    produce for the same execution-time matrix: the recurrence is
    elementwise along the batch axis.
    """

    exec_start: np.ndarray
    exec_end: np.ndarray
    post_end: np.ndarray
    completion: np.ndarray
    meta: dict = field(default_factory=dict)

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

    def __getitem__(self, b: int) -> LockstepResult:
        if not -self.n_batch <= b < self.n_batch:
            raise IndexError(f"batch index {b} out of range [0, {self.n_batch})")
        return LockstepResult(
            exec_start=self.exec_start[b],
            exec_end=self.exec_end[b],
            post_end=self.post_end[b],
            completion=self.completion[b],
            meta=dict(self.meta),
        )

    def results(self):
        """Iterate over the B runs as :class:`LockstepResult` views."""
        return (self[b] for b in range(self.n_batch))

    def idle_matrix(self) -> np.ndarray:
        """Per-run seconds spent inside each step's Waitall."""
        return self.completion - self.post_end

    def total_runtimes(self) -> np.ndarray:
        """Per-run wall-clock completion, shape ``[n_batch]``."""
        return self.completion[:, :, -1].max(axis=1)


def _shift(arr: np.ndarray, offset: int, periodic: bool) -> np.ndarray:
    """``out[..., i] = arr[..., i + offset]``; out-of-range entries are -inf.

    Operates along the last (rank) axis so batched ``(B, n_ranks)`` state
    shifts exactly like unbatched ``(n_ranks,)`` state.
    """
    if periodic:
        return np.roll(arr, -offset, axis=-1)
    out = np.full_like(arr, -np.inf)
    n = arr.shape[-1]
    if offset >= 0:
        if offset < n:
            out[..., : n - offset] = arr[..., offset:]
    else:
        if -offset < n:
            out[..., -offset:] = arr[..., : n + offset]
    return out


def _send_positions(pattern: CommPattern, n_ranks: int) -> dict[int, np.ndarray]:
    """Per-offset 1-based send position for every rank (NaN where absent).

    Sends are posted in the order :meth:`CommPattern.send_targets` returns
    them; at open-chain boundaries missing partners shift later positions
    forward, which this mirrors exactly.
    """
    offsets: list[int] = []
    for k in range(1, pattern.distance + 1):
        if pattern.direction == Direction.BIDIRECTIONAL:
            offsets.extend((+k, -k))
        else:
            offsets.append(+k)
    pos: dict[int, np.ndarray] = {o: np.full(n_ranks, np.nan) for o in offsets}
    for rank in range(n_ranks):
        p = 0
        seen: set[int] = set()
        for off in offsets:
            tgt = rank + off
            if pattern.periodic:
                tgt %= n_ranks
            elif not 0 <= tgt < n_ranks:
                continue
            if tgt == rank or tgt in seen:
                continue  # aliased partner on a small periodic ring
            seen.add(tgt)
            p += 1
            pos[off][rank] = p
    return pos


def _offset_domains(
    mapping: ProcessMapping, offset: int, periodic: bool
) -> np.ndarray:
    """``CommDomain`` of the (rank, rank+offset) pair for every rank.

    Ranks whose partner falls off an open chain (or aliases to the rank
    itself) get ``SELF`` — a zero-cost placeholder; those entries are
    masked out of the recurrence anyway.
    """
    n = mapping.n_ranks
    doms = np.full(n, int(CommDomain.SELF), dtype=np.int64)
    for rank in range(n):
        partner = rank + offset
        if periodic:
            partner %= n
        elif not 0 <= partner < n:
            continue
        if partner == rank:
            continue
        doms[rank] = int(mapping.domain(rank, partner))
    return doms


def _link_params(
    network: NetworkModel,
    msg_size: int,
    domain: CommDomain,
    mapping: "ProcessMapping | None",
    offsets: "list[int]",
    periodic: bool,
) -> dict:
    """Per-offset message parameters ``offset -> (flight, o_send, o_recv)``.

    Uniform runs (no mapping) get scalars — bit-identical to the original
    flat-network engine.  Hierarchical runs get ``[n_ranks]`` arrays
    resolved through ``mapping.domain``; communication domains are
    symmetric, so the same array serves rank ``i`` as sender towards
    ``i+offset`` and as receiver from ``i+offset``.
    """
    if mapping is None:
        flight = network.transfer_time(msg_size, domain)
        o_send = network.send_overhead(domain)
        o_recv = network.recv_overhead(domain)
        return {off: (flight, o_send, o_recv) for off in offsets}
    flight_lut = np.array(
        [network.transfer_time(msg_size, d) for d in CommDomain]
    )
    o_send_lut = np.array([network.send_overhead(d) for d in CommDomain])
    o_recv_lut = np.array([network.recv_overhead(d) for d in CommDomain])
    params = {}
    for off in offsets:
        doms = _offset_domains(mapping, off, periodic)
        params[off] = (flight_lut[doms], o_send_lut[doms], o_recv_lut[doms])
    return params


def _simulate_core(
    cfg: LockstepConfig,
    exec_times: np.ndarray,
    network: NetworkModel,
    domain: CommDomain,
    proto: Protocol,
    mapping: "ProcessMapping | None",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Run the lockstep recurrence for ``exec_times`` of shape (..., P, S).

    Returns ``(exec_start, exec_end, post_end, completion)`` with the same
    shape as ``exec_times``.  All per-step state has shape ``(..., P)``;
    every operation is elementwise along leading (batch) axes, which makes
    batched slices bit-identical to unbatched runs.
    """
    if telemetry.enabled():
        batch = int(np.prod(exec_times.shape[:-2], dtype=np.int64))
        with telemetry.span("engine.lockstep.simulate", batch=batch,
                            n_ranks=cfg.n_ranks, n_steps=cfg.n_steps):
            return _simulate_core_inner(cfg, exec_times, network, domain,
                                        proto, mapping)
    return _simulate_core_inner(cfg, exec_times, network, domain,
                                proto, mapping)


def _simulate_core_inner(
    cfg: LockstepConfig,
    exec_times: np.ndarray,
    network: NetworkModel,
    domain: CommDomain,
    proto: Protocol,
    mapping: "ProcessMapping | None",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    n = cfg.n_ranks
    pattern = cfg.pattern

    spos = _send_positions(pattern, n)
    recv_offsets = [-o for o in spos]
    link = _link_params(
        network, cfg.msg_size, domain, mapping,
        sorted(set(spos) | set(recv_offsets)), pattern.periodic,
    )

    # Cumulative send-overhead through each rank's p-th send, per offset,
    # plus the total posting overhead (exec end -> Waitall entry).
    send_cum: dict[int, np.ndarray] = {}
    if mapping is None:
        o_send = link[next(iter(spos))][1] if spos else 0.0
        n_sends = np.zeros(n)
        for off, pos in spos.items():
            n_sends += np.isfinite(pos)
            send_cum[off] = pos * o_send
        total_send_ov = n_sends * o_send
    else:
        running = np.zeros(n)
        for off, pos in spos.items():  # insertion order == posting order
            has = np.isfinite(pos)
            running = running + np.where(has, link[off][1], 0.0)
            send_cum[off] = np.where(has, running, np.nan)
        total_send_ov = running

    lead = exec_times.shape[:-2]
    exec_start = np.zeros_like(exec_times)
    exec_end = np.zeros_like(exec_times)
    post_end = np.zeros_like(exec_times)
    completion = np.zeros_like(exec_times)

    c_prev = np.zeros((*lead, n))
    for k in range(cfg.n_steps):
        e_end = c_prev + exec_times[..., k]
        p_end = e_end + total_send_ov
        cand = p_end.copy()

        for o in recv_offsets:
            sender_off = -o  # the sender's send offset towards us
            sender_cum = _shift(send_cum[sender_off], o, pattern.periodic)
            sender_e_end = _shift(e_end, o, pattern.periodic)
            flight, _, o_recv = link[o]  # message (i+o -> i), indexed at i
            with np.errstate(invalid="ignore"):
                send_end = sender_e_end + sender_cum
                if proto == Protocol.EAGER:
                    c_in = np.maximum(send_end + flight, e_end) + o_recv
                else:
                    c_in = np.maximum(send_end, e_end) + flight + o_recv
            # NaN positions (no such partner) must not contribute.
            c_in = np.where(np.isnan(c_in) | np.isinf(sender_e_end), -np.inf, c_in)
            cand = np.maximum(cand, c_in)

        if proto == Protocol.RENDEZVOUS:
            # Outgoing transfers also block the sender's Waitall.
            for o in spos:
                flight, _, o_recv = link[o]  # message (i -> i+o), indexed at i
                recv_e_end = _shift(e_end, o, pattern.periodic)
                with np.errstate(invalid="ignore"):
                    c_out = (
                        np.maximum(e_end + send_cum[o], recv_e_end)
                        + flight + o_recv
                    )
                c_out = np.where(np.isnan(c_out) | np.isinf(recv_e_end), -np.inf, c_out)
                cand = np.maximum(cand, c_out)

            if pattern.direction == Direction.BIDIRECTIONAL:
                # Progress coupling (σ = 2 of Eq. 2): each pair's transfers
                # also wait for the posting-complete times of both endpoints'
                # rendezvous partners — mirrors the DAG engine's coupling
                # edges.  relief[i] = max over i's partners p of post_end[p].
                relief = np.full((*lead, n), -np.inf)
                for o in spos:
                    partner_post = _shift(p_end, o, pattern.periodic)
                    relief = np.maximum(relief, partner_post)
                for o in spos:
                    flight, _, o_recv = link[o]
                    partner_exists = np.isfinite(_shift(e_end, o, pattern.periodic))
                    partner_relief = _shift(relief, o, pattern.periodic)
                    pair_relief = (
                        np.maximum(relief, partner_relief) + flight + o_recv
                    )
                    cand = np.maximum(
                        cand, np.where(partner_exists, pair_relief, -np.inf)
                    )

        exec_start[..., k] = c_prev
        exec_end[..., k] = e_end
        post_end[..., k] = p_end
        completion[..., k] = cand
        c_prev = cand

    return exec_start, exec_end, post_end, completion


def _result_meta(
    cfg: LockstepConfig,
    proto: Protocol,
    network: NetworkModel,
    domain: CommDomain,
    mapping: "ProcessMapping | None",
) -> dict:
    meta = {
        "t_exec": cfg.t_exec,
        "msg_size": cfg.msg_size,
        "pattern": cfg.pattern,
        "protocol": proto.value,
        "noise_mean": cfg.noise.mean(),
        "delays": cfg.delays,
        "seed": cfg.seed,
    }
    if mapping is None:
        meta["flight"] = network.transfer_time(cfg.msg_size, domain)
        meta["o_send"] = network.send_overhead(domain)
        meta["o_recv"] = network.recv_overhead(domain)
    else:
        meta["hierarchical"] = True
        meta["ppn"] = mapping.ppn
    return meta


def _resolve(
    cfg: LockstepConfig,
    network: "NetworkModel | None",
    eager_limit: "int | None",
    protocol: Protocol,
    mapping: "ProcessMapping | None",
) -> "tuple[NetworkModel, Protocol]":
    if network is None:
        network = UniformNetwork()
    if mapping is not None and mapping.n_ranks != cfg.n_ranks:
        raise ValueError(
            f"mapping places {mapping.n_ranks} ranks, config has {cfg.n_ranks}"
        )
    from repro.sim.mpi import DEFAULT_EAGER_LIMIT

    limit = DEFAULT_EAGER_LIMIT if eager_limit is None else eager_limit
    return network, select_protocol(cfg.msg_size, limit, protocol)


def simulate_lockstep(
    cfg: LockstepConfig,
    exec_times: np.ndarray | None = None,
    network: NetworkModel | None = None,
    domain: CommDomain = CommDomain.INTER_NODE,
    protocol: Protocol = Protocol.AUTO,
    eager_limit: int | None = None,
    rng: np.random.Generator | None = None,
    mapping: ProcessMapping | None = None,
) -> LockstepResult:
    """Simulate a lockstep program, vectorized over ranks.

    Parameters
    ----------
    cfg:
        The experiment parameters (ranks, steps, pattern, noise, delays).
    exec_times:
        Optional pre-built ``[n_ranks, n_steps]`` execution durations; built
        from ``cfg`` (with its seed) when omitted.
    network:
        Transfer-time model.  Defaults to
        :class:`~repro.sim.network.UniformNetwork`.
    domain:
        The single communication domain of every message when no
        ``mapping`` is given (the flat-network contract).  Ignored when
        ``mapping`` is set.
    protocol, eager_limit:
        Protocol forcing / switch point, as in the DAG engine.
    mapping:
        Optional hierarchical rank placement.  When given, each message's
        flight time and overheads are resolved per rank pair through
        ``mapping.domain`` against the (per-domain) ``network`` — the
        same classification the DAG engine applies.
    """
    network, proto = _resolve(cfg, network, eager_limit, protocol, mapping)
    if exec_times is None:
        exec_times = build_exec_times(cfg, rng)
    exec_times = np.asarray(exec_times, dtype=float)
    if exec_times.shape != (cfg.n_ranks, cfg.n_steps):
        raise ValueError(
            f"exec_times shape {exec_times.shape} != ({cfg.n_ranks}, {cfg.n_steps})"
        )

    exec_start, exec_end, post_end, completion = _simulate_core(
        cfg, exec_times, network, domain, proto, mapping
    )
    return LockstepResult(
        exec_start=exec_start,
        exec_end=exec_end,
        post_end=post_end,
        completion=completion,
        meta=_result_meta(cfg, proto, network, domain, mapping),
    )


def simulate_lockstep_batch(
    cfg: LockstepConfig,
    exec_times: np.ndarray,
    network: NetworkModel | None = None,
    domain: CommDomain = CommDomain.INTER_NODE,
    protocol: Protocol = Protocol.AUTO,
    eager_limit: int | None = None,
    mapping: ProcessMapping | None = None,
) -> BatchedLockstepResult:
    """Simulate B independent lockstep runs as one batched recurrence.

    Parameters
    ----------
    cfg:
        Shared experiment parameters (ranks, steps, pattern, message size).
        ``cfg.delays``/``cfg.noise``/``cfg.seed`` are *not* consulted — all
        per-run variation must already be baked into ``exec_times``.
    exec_times:
        ``[n_batch, n_ranks, n_steps]`` execution durations, one matrix per
        run (e.g. one per delay-campaign draw, each built from its own
        derived seed).
    network, domain, protocol, eager_limit, mapping:
        As in :func:`simulate_lockstep`; shared by all runs in the batch.

    Returns
    -------
    BatchedLockstepResult
        ``[n_batch, n_ranks, n_steps]`` timing matrices whose slices are
        bit-identical to the corresponding unbatched runs.
    """
    network, proto = _resolve(cfg, network, eager_limit, protocol, mapping)
    exec_times = np.asarray(exec_times, dtype=float)
    if exec_times.ndim != 3 or exec_times.shape[1:] != (cfg.n_ranks, cfg.n_steps):
        raise ValueError(
            f"exec_times shape {exec_times.shape} != "
            f"(n_batch, {cfg.n_ranks}, {cfg.n_steps})"
        )
    if exec_times.shape[0] < 1:
        raise ValueError("batch must contain at least one run")

    exec_start, exec_end, post_end, completion = _simulate_core(
        cfg, exec_times, network, domain, proto, mapping
    )
    meta = _result_meta(cfg, proto, network, domain, mapping)
    meta["n_batch"] = int(exec_times.shape[0])
    return BatchedLockstepResult(
        exec_start=exec_start,
        exec_end=exec_end,
        post_end=post_end,
        completion=completion,
        meta=meta,
    )
