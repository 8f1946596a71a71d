"""Property-based contract: the lockstep DAG builder == the program walker.

``build_dag(cfg, config)`` builds a lockstep program's
:class:`~repro.sim.engine.StaticDag` straight from its
:class:`~repro.sim.program.LockstepConfig` in NumPy; the program walker
(``build_dag(build_lockstep_program(cfg), config)``) stays the oracle.
Every field — each array with its dtype, and ``rank_node_ids`` — must be
identical, so every result computed on either structure is bitwise the
same.  The grid covers small aliasing rings (P = 2, 3 with d up to 3,
where offsets wrap onto one partner or onto the rank itself), open and
periodic chains, both directions, all three protocol choices, and
hierarchical ``ppn`` placements where flights and overheads vary per
rank pair.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    CommPattern,
    Direction,
    HockneyModel,
    LockstepConfig,
    Protocol,
    SimConfig,
    StaticDag,
    UniformNetwork,
    build_dag,
    build_lockstep_program,
)
from repro.sim.topology import single_switch_mapping


def assert_same_dag(got: StaticDag, want: StaticDag) -> None:
    for f in fields(StaticDag):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "rank_node_ids":
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f"{f.name}: {a.dtype} != {b.dtype}"
            assert a.shape == b.shape and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


@st.composite
def lockstep_structures(draw):
    n_ranks = draw(st.one_of(st.sampled_from([2, 3]),
                             st.integers(min_value=2, max_value=12)))
    cfg = LockstepConfig(
        n_ranks=n_ranks,
        n_steps=draw(st.integers(min_value=1, max_value=5)),
        msg_size=draw(st.sampled_from([0, 8192, 200_000])),
        pattern=CommPattern(
            direction=draw(st.sampled_from(list(Direction))),
            distance=draw(st.integers(min_value=1, max_value=3)),
            periodic=draw(st.booleans()),
        ),
    )
    protocol = draw(st.sampled_from(list(Protocol)))
    if draw(st.booleans()):
        config = SimConfig(network=HockneyModel(),
                           mapping=single_switch_mapping(n_ranks, ppn=2),
                           protocol=protocol)
    else:
        config = SimConfig(network=UniformNetwork(), protocol=protocol)
    return cfg, config


@given(lockstep_structures())
@settings(max_examples=200, deadline=None)
def test_lockstep_builder_matches_program_walker(case):
    cfg, config = case
    assert_same_dag(build_dag(cfg, config, cache=False),
                    build_dag(build_lockstep_program(cfg), config, cache=False))
