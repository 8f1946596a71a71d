"""Batched timing container: B runs' dense matrices as one ``(B, P, S)`` stack.

The metric kernels (:mod:`repro.reports.kernels`) are vectorized along a
leading batch axis, exactly like the batched lockstep engine: one kernel
invocation extracts a metric from *all* draws of a campaign at once,
without a per-draw Python loop.  :class:`BatchedTiming` is the substrate
they operate on — the three :class:`~repro.core.timing.RunTiming`
matrices (``exec_end``, ``completion``, ``idle``) stacked over the batch
axis, assembled either from cached store records, from a
:class:`~repro.sim.lockstep.BatchedLockstepResult`, or from individual
run timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.timing import RunTiming
from repro.sim.lockstep import BatchedLockstepResult

__all__ = ["BatchedTiming"]

#: The array fields a timing record must provide, in stacking order.
TIMING_FIELDS = ("exec_end", "completion", "idle")


@dataclass
class BatchedTiming:
    """Dense timing of B independent runs, ``[n_batch, n_ranks, n_steps]``.

    Slicing (``batch[b]``) yields run ``b`` as an ordinary
    :class:`~repro.core.timing.RunTiming` (views into the stack), so every
    scalar analysis in :mod:`repro.core` / :mod:`repro.analysis` remains
    applicable to single draws — the property the kernel parity tests use.
    """

    exec_end: np.ndarray
    completion: np.ndarray
    idle: np.ndarray
    meta: dict = field(default_factory=dict)
    #: Scratch space for kernels that share intermediate results (e.g. the
    #: wave front the speed and decay kernels both need).  Treat the
    #: timing arrays as immutable once kernels have run.
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        shapes = {self.exec_end.shape, self.completion.shape, self.idle.shape}
        if len(shapes) != 1:
            raise ValueError(f"matrix shapes differ: {sorted(shapes)}")
        if self.exec_end.ndim != 3:
            raise ValueError(
                f"expected (n_batch, n_ranks, n_steps) matrices, "
                f"got {self.exec_end.ndim}-D"
            )

    @property
    def n_batch(self) -> int:
        return self.exec_end.shape[0]

    @property
    def n_ranks(self) -> int:
        return self.exec_end.shape[1]

    @property
    def n_steps(self) -> int:
        return self.exec_end.shape[2]

    @property
    def t_exec(self) -> "float | None":
        """Nominal execution-phase length, if recorded."""
        return self.meta.get("t_exec")

    def __len__(self) -> int:
        return self.n_batch

    def __getitem__(self, b: int) -> RunTiming:
        if not -self.n_batch <= b < self.n_batch:
            raise IndexError(f"batch index {b} out of range [0, {self.n_batch})")
        return RunTiming(
            exec_end=self.exec_end[b],
            completion=self.completion[b],
            idle=self.idle[b],
            meta=dict(self.meta),
        )

    def wait_start(self) -> np.ndarray:
        """``[b, rank, step]`` time each rank entered its Waitall."""
        return self.completion - self.idle

    def total_runtimes(self) -> np.ndarray:
        """Per-run wall-clock completion, shape ``[n_batch]``."""
        return np.nanmax(self.completion, axis=(1, 2))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_timings(cls, timings: "Sequence[RunTiming]",
                     meta: "dict | None" = None) -> "BatchedTiming":
        """Stack individual run timings (all the same shape) into a batch."""
        if not timings:
            raise ValueError("need at least one run timing to stack")
        return cls(
            exec_end=np.stack([t.exec_end for t in timings]),
            completion=np.stack([t.completion for t in timings]),
            idle=np.stack([t.idle for t in timings]),
            meta=dict(timings[0].meta) if meta is None else dict(meta),
        )

    @classmethod
    def from_lockstep_batch(cls, result: BatchedLockstepResult) -> "BatchedTiming":
        """Adopt a batched engine result (idle derived as in ``RunTiming``)."""
        return cls(
            exec_end=result.exec_end.copy(),
            completion=result.completion.copy(),
            idle=result.idle_matrix(),
            meta=dict(result.meta),
        )

    @classmethod
    def from_records(cls, records: "Sequence[Mapping]",
                     meta: "dict | None" = None) -> "BatchedTiming":
        """Stack store records (``{"exec_end", "completion", "idle"}`` dicts).

        This is the shape :func:`repro.reports.tasks.scenario_timing_task`
        persists — the form cached campaign results come back in.
        """
        if not records:
            raise ValueError("need at least one timing record to stack")
        arrays = {}
        for name in TIMING_FIELDS:
            try:
                arrays[name] = np.stack(
                    [np.asarray(rec[name], dtype=float) for rec in records]
                )
            except KeyError as exc:
                raise KeyError(
                    f"timing record is missing the {name!r} matrix; got "
                    f"fields {sorted(records[0])}"
                ) from exc
        return cls(**arrays, meta=dict(meta or {}))
