"""The cached forest DP against the original full-forest DP.

``RegularForest.positive_delta`` settles singleton trees in one vector
step and caches each multi-vertex tree's selection by root until an
operation dirties it.  Random operation sequences call it between every
step, so a stale selection left behind by any operation shows up as a
mismatch with the reference DP, which recomputes every tree.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.regular_forest import RegularForest
from repro.errors import RetimingError
from tests import seed_kernels

OPS = st.lists(
    st.tuples(st.sampled_from(["add", "add", "add", "pin", "break",
                               "weight", "reset"]),
              st.integers(0, 1000), st.integers(0, 1000),
              st.integers(1, 4)),
    min_size=1, max_size=40)


def apply(forest, op, a, b, w):
    n = forest.n_vertices
    p, q = a % n, b % n
    if op == "add":
        if q == forest.pinned:
            q = (q + 1) % n
        if q != forest.pinned:
            forest.add_constraint(p, q, w)
    elif op == "pin":
        forest.pin_tree(p)
    elif op == "break":
        forest.break_tree(p)
    elif op == "weight":
        try:
            forest.set_weight(p, w)
        except RetimingError:
            pass  # not a singleton, or the host: refused, nothing changed
    else:
        forest.reset()


def assert_same(forest):
    got = forest.positive_delta()
    want = seed_kernels.positive_delta(forest)
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()


class TestCachedDpMatchesFullDp:
    @settings(max_examples=300, deadline=None)
    @given(gains=st.lists(st.integers(-6, 6), min_size=2, max_size=12),
           pinned=st.integers(0, 11), ops=OPS)
    def test_random_operation_sequences(self, gains, pinned, ops):
        forest = RegularForest(np.asarray(gains, dtype=np.int64),
                               pinned=pinned % len(gains))
        assert_same(forest)
        for op in ops:
            apply(forest, *op)
            assert_same(forest)

    @settings(max_examples=100, deadline=None)
    @given(gains=st.lists(st.integers(-6, 6), min_size=3, max_size=12),
           ops=OPS)
    def test_repeated_calls_are_served_from_the_cache(self, gains, ops):
        forest = RegularForest(np.asarray(gains, dtype=np.int64))
        for op in ops:
            apply(forest, *op)
        first = forest.positive_delta()
        evaluated = forest.trees_evaluated
        again = forest.positive_delta()
        assert again.tolist() == first.tolist()
        # A clean forest re-evaluates nothing.
        assert forest.trees_evaluated == evaluated
        assert again.tolist() == seed_kernels.positive_delta(forest).tolist()

    def test_only_the_touched_tree_is_reevaluated(self):
        forest = RegularForest(np.asarray([0, 3, -1, 2, -1, 4, -1]))
        forest.add_constraint(1, 2, 1)
        forest.add_constraint(3, 4, 1)
        forest.add_constraint(5, 6, 1)
        forest.positive_delta()
        assert (forest.trees_evaluated, forest.trees_cached) == (3, 0)
        forest.add_constraint(2, 4, 1)   # merges trees {1,2} and {3,4}
        assert_same(forest)
        assert (forest.trees_evaluated, forest.trees_cached) == (4, 1)
        forest.break_tree(6)             # splits {5,6}: two singletons
        assert_same(forest)
        assert (forest.trees_evaluated, forest.trees_cached) == (4, 2)
