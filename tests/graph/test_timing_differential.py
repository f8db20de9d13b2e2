"""The flat timing passes against the original Edge-walking passes.

``boundary_labels`` and ``arrival_times`` walk the graph's cached
``(eidx, v)`` fan-out / fan-in lists instead of ``Edge`` objects, in
the order of ``zero_weight_order``: a Kahn sort over the register-free
edges driven by the same cached fan-out.  Every label array must
match the original passes exactly (not approximately), which also pins
the tie rule: on equal contributions the first out-edge wins.  The
second half checks the adjacency cache against graph mutation and the
register-free-cycle error at every timing entry point.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RetimingError
from repro.graph.retiming_graph import RetimingGraph
from repro.graph.timing import (
    TimingAnalysis,
    achieved_period,
    arrival_times,
    boundary_labels,
)
from tests import seed_kernels
from tests.conftest import tiny_random
from tests.graph.test_timing import chain_graph

LABELS = ("L", "R", "lt", "rt", "lsucc", "rsucc")


def random_graph(seed: int, n: int, m: int) -> RetimingGraph:
    """Random graph whose zero-weight edges go forward (acyclic at r=0).

    Delays come from a coarse grid so equal-length paths -- and hence
    label ties -- are common.
    """
    rng = random.Random(seed)
    g = RetimingGraph()
    for i in range(n):
        g.add_vertex(f"g{i}", rng.choice([0.0, 0.5, 1.0, 1.5, 2.0]))
    for _ in range(m):
        u, v = rng.randrange(n + 1), rng.randrange(n + 1)
        w = rng.choice([0, 0, 1, 2])
        if w == 0 and u and v and u >= v:
            w = 1  # a backward register-free edge could close a loop
        g.add_edge(u, v, w)
    for i in range(1, n + 1):
        if not g.out_edges[i]:
            g.add_edge(i, 0, rng.choice([0, 1]))
    return g


def random_valid_retiming(g: RetimingGraph, seed: int,
                          steps: int = 30) -> np.ndarray:
    """A random walk of single-vertex moves that keep ``w_r >= 0``."""
    rng = random.Random(seed)
    r = g.zero_retiming()
    for _ in range(steps):
        v = rng.randrange(1, g.n_vertices)
        trial = r.copy()
        trial[v] += rng.choice([-1, 1])
        if g.is_valid_retiming(trial):
            r = trial
    return r


def assert_same_timing(g, r, phi, hold_at_outputs):
    try:
        want = seed_kernels.boundary_labels(
            g, r, phi, setup=0.25, hold=1.5,
            hold_at_outputs=hold_at_outputs)
    except RetimingError:
        with pytest.raises(RetimingError):
            boundary_labels(g, r, phi, setup=0.25, hold=1.5,
                            hold_at_outputs=hold_at_outputs)
        with pytest.raises(RetimingError):
            arrival_times(g, r)
        return
    assert g.zero_weight_topo(r) == seed_kernels.zero_weight_topo(g, r)
    got = boundary_labels(g, r, phi, setup=0.25, hold=1.5,
                          hold_at_outputs=hold_at_outputs)
    for name in LABELS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    delta = arrival_times(g, r)
    ref = seed_kernels.arrival_times(g, r)
    assert delta.dtype == ref.dtype
    assert delta.tobytes() == ref.tobytes()


class TestFlatPassesMatchOriginal:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 25),
           density=st.floats(1.0, 3.0), hold_at_outputs=st.booleans())
    def test_random_graphs_and_retimings(self, seed, n, density,
                                         hold_at_outputs):
        g = random_graph(seed, n, int(n * density))
        r = random_valid_retiming(g, seed)
        phi = float(arrival_times(g, g.zero_retiming()).max()) + 1.0
        assert_same_timing(g, r, phi, hold_at_outputs)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 500), hold_at_outputs=st.booleans())
    def test_random_circuits(self, seed, hold_at_outputs):
        g = RetimingGraph.from_circuit(tiny_random(seed, n_gates=14,
                                                   n_dffs=5))
        r = random_valid_retiming(g, seed)
        for phi in (2.0, 6.0, 15.0):
            assert_same_timing(g, r, phi, hold_at_outputs)


class TestAdjacencyCache:
    def test_add_edge_after_labels_is_seen(self):
        g = chain_graph([1.0, 2.0, 3.0], [0, 0, 0, 0])
        r = g.zero_retiming()
        before = boundary_labels(g, r, phi=10.0)
        assert before.rsucc[1] == 2
        # A registered side exit from g0 latches right at g0's output:
        # now the shortest path out of g0.
        g.add_edge(1, 3, 1)
        after = boundary_labels(g, r, phi=10.0)
        want = seed_kernels.boundary_labels(g, r, phi=10.0)
        for name in LABELS:
            assert getattr(after, name).tobytes() == \
                getattr(want, name).tobytes(), name
        assert after.rt[1] == 1 and after.rsucc[1] == -1

    def test_add_edge_after_arrival_is_seen(self):
        g = chain_graph([1.0, 2.0, 3.0], [0, 1, 0, 0])
        r = g.zero_retiming()
        assert list(arrival_times(g, r)) == [0, 1, 2, 5]
        g.add_edge(1, 3, 0)   # register-free bypass g0 -> g2
        assert list(arrival_times(g, r)) == [0, 1, 2, 5]
        g.add_edge(1, 2, 0)   # register-free g0 -> g1 beside the register
        assert list(arrival_times(g, r)) == [0, 1, 3, 6]
        assert list(arrival_times(g, r)) == \
            list(seed_kernels.arrival_times(g, r))

    def test_add_edge_after_topo_is_seen(self):
        g = chain_graph([1.0, 2.0], [0, 0, 0])
        r = g.zero_retiming()
        assert g.zero_weight_topo(r) == [1, 2]
        assert list(arrival_times(g, r)) == [0, 1, 3]
        g.add_vertex("g2", 4.0)
        g.add_edge(2, 3, 0)
        g.add_edge(3, 0, 0)
        r = g.zero_retiming()
        assert g.zero_weight_topo(r) == [1, 2, 3]
        assert list(arrival_times(g, r)) == [0, 1, 3, 7]
        labels = boundary_labels(g, r, phi=10.0)
        assert labels.lt[1] == 3
        assert g.delay_array().tolist() == [0.0, 1.0, 2.0, 4.0]

    @pytest.mark.parametrize("loop", [(3, 1), (2, 2)],
                             ids=["three-gate-loop", "self-loop"])
    def test_register_free_cycle_raises_everywhere(self, loop):
        g = chain_graph([1.0, 2.0, 3.0], [0, 0, 0, 0])
        r = g.zero_retiming()
        boundary_labels(g, r, phi=10.0)   # warm the adjacency cache
        arrival_times(g, r)
        g.add_edge(*loop, 0)
        assert g.is_valid_retiming(r)
        calls = [
            lambda: g.zero_weight_topo(r),
            lambda: arrival_times(g, r),
            lambda: achieved_period(g, r),
            lambda: boundary_labels(g, r, phi=10.0),
            lambda: boundary_labels(g, r, phi=10.0, hold_at_outputs=False),
            lambda: TimingAnalysis(g, r, phi=10.0),
        ]
        with pytest.raises(RetimingError) as want:
            seed_kernels.zero_weight_topo(g, r)
        for call in calls:
            with pytest.raises(RetimingError, match="register-free cycle") \
                    as got:
                call()
            assert str(got.value) == str(want.value)
        assert not g.cycles_have_registers()
