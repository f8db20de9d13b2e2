"""Reference copies of the original solver kernels, for differential tests.

These are the straightforward implementations the optimized kernels in
:mod:`repro.core.regular_forest` and :mod:`repro.graph.timing` replaced:
a full per-tree dynamic program over the whole forest on every call, a
Kahn sort that rebuilds its successor lists on every call, and label
passes that walk ``Edge`` objects in that sort's order.  The bodies are
kept verbatim so the optimized kernels can be held to bit-identical
results; only the ``self`` parameter of ``positive_delta`` and
``zero_weight_topo`` became an explicit ``forest`` / ``graph``, and the
label passes call the copied ``zero_weight_topo``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro._util import topological_order
from repro.core.regular_forest import RegularForest
from repro.errors import RetimingError
from repro.graph.retiming_graph import RetimingGraph
from repro.graph.timing import BoundaryLabels


def positive_delta(forest: RegularForest) -> np.ndarray:
    """Full-forest DP: max-gain closed set per tree (original kernel)."""
    self = forest
    n = self.n_vertices
    delta = np.zeros(n, dtype=np.int64)
    visited = [False] * n
    NEG = -(1 << 62)

    for start in range(n):
        if visited[start] or self.parent[start] >= 0:
            continue
        # Iterative post-order over the tree rooted at `start`.
        order: list[int] = []
        stack = [start]
        while stack:
            v = stack.pop()
            visited[v] = True
            order.append(v)
            stack.extend(self.children[v])
        f_in = [0] * n
        f_out = [0] * n
        for v in reversed(order):
            gain = NEG if v == self.pinned \
                else int(self.b[v]) * self.weight[v]
            acc_in = gain
            acc_out = 0
            for c in self.children[v]:
                if self.drags_parent[c]:
                    # (c, v): c in => v in; v out forces c out.
                    acc_in += max(f_in[c], f_out[c])
                    acc_out += f_out[c]
                else:
                    # (v, c): v in => c in.
                    acc_in += f_in[c]
                    acc_out += max(f_in[c], f_out[c])
            f_in[v] = max(acc_in, NEG)
            f_out[v] = acc_out
        if max(f_in[start], f_out[start]) <= 0:
            continue
        # Backtrack the optimal states.
        choose = [(start, f_in[start] > f_out[start])]
        while choose:
            v, inside = choose.pop()
            if inside:
                delta[v] = self.weight[v]
            for c in self.children[v]:
                if self.drags_parent[c]:
                    child_in = f_in[c] > f_out[c] if inside else False
                else:
                    child_in = True if inside \
                        else f_in[c] > f_out[c]
                choose.append((c, child_in))
    return delta


def zero_weight_topo(graph: RetimingGraph,
                     r: Sequence[int] | np.ndarray) -> list[int]:
    """Topological order of non-host vertices over zero-weight edges.

    Edges touching the host are ignored: combinational paths through
    the environment are not circuit paths.  Raises
    :class:`RetimingError` when the zero-weight subgraph is cyclic
    (i.e. ``r`` leaves a register-free loop, which no clock period can
    accommodate).
    """
    self = graph
    weights = self.retimed_weights(r)
    u, v, _ = self.edge_arrays()
    n = self.n_vertices
    mask = (weights == 0) & (u != 0) & (v != 0)
    us = u[mask].tolist()
    vs = v[mask].tolist()
    indegree = np.bincount(v[mask], minlength=n)
    succ: list[list[int]] = [[] for _ in range(n)]
    for uu, vv in zip(us, vs):
        succ[uu].append(vv)
    stack = [x for x in range(1, n) if indegree[x] == 0]
    order: list[int] = []
    while stack:
        node = stack.pop()
        order.append(node)
        for s in succ[node]:
            indegree[s] -= 1
            if indegree[s] == 0:
                stack.append(s)
    if len(order) != n - 1:
        # Slow path only to produce a helpful cycle message.
        preds: list[list[int]] = [[] for _ in range(n)]
        for uu, vv in zip(us, vs):
            preds[vv].append(uu)
        try:
            topological_order(range(1, n), lambda x: preds[x])
        except Exception as exc:
            raise RetimingError(
                f"retiming leaves a register-free cycle: {exc}"
            ) from exc
        raise RetimingError(
            "retiming leaves a register-free cycle")  # pragma: no cover
    return order


def arrival_times(graph: RetimingGraph,
                  r: Sequence[int] | np.ndarray) -> np.ndarray:
    """Longest register-free path delay ending at each vertex."""
    weights = graph.retimed_weights(r)
    order = zero_weight_topo(graph, r)
    delta = np.zeros(graph.n_vertices, dtype=float)
    for v in order:
        best = 0.0
        for eidx in graph.in_edges[v]:
            e = graph.edges[eidx]
            if weights[eidx] == 0 and e.u != 0:
                if delta[e.u] > best:
                    best = delta[e.u]
        delta[v] = graph.delays[v] + best
    return delta


def boundary_labels(graph: RetimingGraph, r: Sequence[int] | np.ndarray,
                    phi: float, setup: float = 0.0,
                    hold: float = 2.0,
                    hold_at_outputs: bool = True) -> BoundaryLabels:
    """Eq. (6)'s ``L``/``R`` labels under retiming ``r``."""
    weights = graph.retimed_weights(r)
    order = zero_weight_topo(graph, r)
    n = graph.n_vertices
    L = np.full(n, math.inf)
    R = np.full(n, -math.inf)
    lt = np.full(n, -1, dtype=np.int64)
    rt = np.full(n, -1, dtype=np.int64)
    lsucc = np.full(n, -1, dtype=np.int64)
    rsucc = np.full(n, -1, dtype=np.int64)
    window_left = phi - setup
    window_right = phi + hold

    for u in reversed(order):
        for eidx in graph.out_edges[u]:
            e = graph.edges[eidx]
            if e.v == 0 or weights[eidx] > 0:
                if window_left < L[u]:
                    L[u] = window_left
                    lt[u] = u
                    lsucc[u] = -1
                if weights[eidx] > 0 or hold_at_outputs:
                    if window_right > R[u]:
                        R[u] = window_right
                        rt[u] = u
                        rsucc[u] = -1
            else:
                v = e.v
                if not math.isfinite(L[v]):
                    continue  # fanout itself unobservable
                left = L[v] - graph.delays[v]
                right = R[v] - graph.delays[v]
                if left < L[u]:
                    L[u] = left
                    lt[u] = lt[v]
                    lsucc[u] = v
                if right > R[u]:
                    R[u] = right
                    rt[u] = rt[v]
                    rsucc[u] = v
    return BoundaryLabels(L=L, R=R, lt=lt, rt=rt, lsucc=lsucc, rsucc=rsucc,
                          phi=phi, setup=setup, hold=hold)
