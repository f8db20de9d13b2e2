"""The (weighted) regular forest of active constraints (Sec. IV-B/C).

The solvers maintain a set A of *active constraints* ``(p, q)`` -- "a
decrease of ``p`` requires a decrease of ``q``" -- discovered from
constraint violations.  Following Wang-Zhou [20], A is stored as a forest
(at most ``|V| - 1`` constraints, linear storage): tree edges are
constraints, each vertex carries its move amount ``w(v)`` (the *weighted*
extension of Sec. IV-C; ``w == 1`` everywhere reduces to the plain regular
forest of [20] used by the MinObs baseline).

The candidate move set of each iteration is the maximum-gain vertex set
closed under the stored constraints, computed exactly by a per-tree
dynamic program in :meth:`RegularForest.positive_delta`.  Like the
incremental regularity maintenance of [20], the work per iteration is
proportional to what changed: singleton trees (most of the forest) are
settled in one vectorized step, and each multi-vertex tree's selection is
cached by its root and re-evaluated only when the tree is *dirty*.  A
tree becomes dirty when an operation touches it -- ``link``, re-rooting,
``break_tree``, ``set_weight``, ``pin_tree`` or ``reset``; the gains
``b`` never change, so a tree nothing touched keeps its selection.
Constraints dragging the pinned host vertex exclude their movers (the
host cannot move).

Weight updates follow the paper's ``BreakTree`` discipline: a vertex's
weight may only change while it is a tree by itself, so the forest first
re-roots the vertex's tree at the vertex and severs its children
(Fig. 3's positive-tree-to-positive-tree link is the motivating case).
"""

from __future__ import annotations

import numpy as np

from ..errors import RetimingError


class RegularForest:
    """Forest of active constraints over the vertices of a retiming graph.

    Parameters
    ----------
    gains:
        Integer per-vertex gains ``b(v)``.
    pinned:
        Index of the immovable host vertex; any tree containing it is
        excluded from the positive set.
    """

    def __init__(self, gains: np.ndarray, pinned: int = 0):
        self.b = np.asarray(gains, dtype=np.int64)
        self._gain = self.b.tolist()
        n = len(self.b)
        self.pinned = pinned
        # Per-vertex DP scratch, reused by every tree evaluation.
        self._f_in = [0] * n
        self._f_out = [0] * n
        #: Trees evaluated by the DP / served from the per-root cache,
        #: summed over all ``positive_delta`` calls.
        self.trees_evaluated = 0
        self.trees_cached = 0
        self.reset()

    # ------------------------------------------------------------------
    # Tree navigation
    # ------------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices managed by the forest."""
        return len(self.b)

    def root(self, v: int) -> int:
        """Root of the tree containing ``v``."""
        while self.parent[v] >= 0:
            v = self.parent[v]
        return v

    def tree_members(self, v: int) -> list[int]:
        """All vertices of the tree containing ``v`` (root-first BFS)."""
        stack = [self.root(v)]
        members: list[int] = []
        while stack:
            node = stack.pop()
            members.append(node)
            stack.extend(self.children[node])
        return members

    def tree_gain(self, v: int) -> int:
        """``b(T) = sum b(v) w(v)`` of the tree containing ``v``."""
        return int(sum(int(self.b[m]) * self.weight[m]
                       for m in self.tree_members(v)))

    def constraints(self) -> list[tuple[int, int]]:
        """All stored active constraints ``(p, q)``: p drags q."""
        out: list[tuple[int, int]] = []
        for c, p in enumerate(self.parent):
            if p < 0:
                continue
            out.append((c, p) if self.drags_parent[c] else (p, c))
        return out

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------

    def _reroot(self, v: int) -> None:
        """Make ``v`` the root of its tree (reverses parent pointers)."""
        path: list[int] = [v]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        if len(path) > 1:
            # The tree's root changes: its selection is now stale.
            self._selection.pop(path[-1], None)
            self._roots.discard(path[-1])
            self._roots.add(v)
        # path = v .. old_root; reverse each edge along it.
        for child, parent in zip(path, path[1:]):
            # remove child from parent, attach parent under child
            self.children[parent].discard(child)
            self.children[child].add(parent)
        # flags: edge (child, parent) direction is absolute; as parent
        # becomes the child, its flag is the negation of the old one.
        flags = [self.drags_parent[c] for c in path[:-1]]
        for (child, parent), flag in zip(zip(path, path[1:]), flags):
            self.parent[parent] = child
            self.drags_parent[parent] = not flag
        self.parent[v] = -1

    def link(self, p: int, q: int) -> None:
        """Store constraint (p, q): p drags q.  q's tree is merged under p.

        ``p`` and ``q`` must be in different trees.
        """
        if p == q:
            raise RetimingError("cannot link a vertex to itself")
        root_p = self.root(p)
        if root_p == self.root(q):
            raise RetimingError("link requires distinct trees")
        self._reroot(q)
        self.parent[q] = p
        self.children[p].add(q)
        self.drags_parent[q] = False  # constraint (parent, child) = (p, q)
        self.n_constraints += 1
        # q's tree is absorbed; p's tree (same root) changed.
        self._selection.pop(q, None)
        self._roots.discard(q)
        self._selection.pop(root_p, None)
        self._roots.add(root_p)
        self._in_tree[p] = self._in_tree[q] = True

    def break_tree(self, q: int) -> None:
        """The paper's BreakTree: isolate ``q`` as a singleton tree.

        Re-roots ``q``'s tree at ``q`` and deletes the edges from ``q`` to
        its children (those constraints are dropped; if still needed they
        are re-discovered by later violations).
        """
        self._reroot(q)
        self._selection.pop(q, None)
        self._roots.discard(q)
        self._in_tree[q] = False
        for child in self.children[q]:
            self.parent[child] = -1
            self.n_constraints -= 1
            # Each child now roots its own (never evaluated) tree.
            if self.children[child]:
                self._roots.add(child)
            else:
                self._in_tree[child] = False
        self.children[q].clear()

    def is_singleton(self, v: int) -> bool:
        """True when ``v`` is a tree by itself."""
        return self.parent[v] < 0 and not self.children[v]

    def set_weight(self, q: int, w: int) -> None:
        """Update the move amount of ``q`` (must be a singleton tree)."""
        if q == self.pinned:
            raise RetimingError("cannot set a weight on the pinned host")
        if not self.is_singleton(q):
            raise RetimingError(
                "weights may only be updated on singleton trees "
                "(call break_tree first)")
        if w < 1:
            raise RetimingError("move weights must be >= 1")
        self.weight[q] = int(w)
        self._weight[q] = int(w)

    def implies(self, p: int, q: int) -> bool:
        """True when the stored constraints already force q to follow p.

        Checks for a directed drag path ``p -> ... -> q`` along the unique
        tree path between them (False when in different trees).
        """
        if p == q:
            return True
        # Ancestor chains to the roots.
        chain_p: list[int] = [p]
        while self.parent[chain_p[-1]] >= 0:
            chain_p.append(self.parent[chain_p[-1]])
        chain_q: list[int] = [q]
        while self.parent[chain_q[-1]] >= 0:
            chain_q.append(self.parent[chain_q[-1]])
        if chain_p[-1] != chain_q[-1]:
            return False
        set_p = {v: i for i, v in enumerate(chain_p)}
        lca = next(v for v in chain_q if v in set_p)
        up = chain_p[:chain_p.index(lca)]       # p .. just below lca
        down = chain_q[:chain_q.index(lca)]     # q .. just below lca
        # Upward steps c -> parent must drag the parent.
        if any(not self.drags_parent[c] for c in up):
            return False
        # Downward steps parent -> child must drag the child.
        if any(self.drags_parent[c] for c in down):
            return False
        return True

    # ------------------------------------------------------------------
    # Solver-facing API
    # ------------------------------------------------------------------

    def add_constraint(self, p: int, q: int, required_weight: int) -> bool:
        """Record constraint (p, q) with q's total move ``required_weight``.

        Performs the UpdateForest / BreakTree choreography of Algorithm 1
        (lines 18-24).  Returns False when the constraint (with the same
        weight) was already implied -- the caller treats that as lack of
        progress.
        """
        if q == self.pinned:
            raise RetimingError("the host cannot be dragged")
        if p == q:
            return False
        if self.weight[q] != required_weight:
            self.break_tree(q)
            self.set_weight(q, required_weight)
        if self.root(p) == self.root(q):
            if self.implies(p, q):
                return False
            self.break_tree(q)
            if p == q:  # break_tree may have made them identical roots
                return False
        self.link(p, q)
        return True

    def pin_tree(self, v: int) -> None:
        """Record the constraint (v, host): selecting ``v`` is forbidden.

        Used for unfixable violations (registers would cross a primary
        output): ``v in I`` would drag the immovable host into ``I``, so
        the closed-set selection excludes ``v`` permanently for this
        pass.
        """
        if v == self.pinned or self.implies(v, self.pinned):
            return
        if self.root(v) == self.root(self.pinned):
            self.break_tree(v)
        self.link(v, self.pinned)

    def positive_delta(self) -> np.ndarray:
        """Move amounts of the best candidate set ``I`` in the forest.

        Selects, independently per tree, the maximum-gain vertex subset
        closed under the stored active constraints (exact tree dynamic
        program over the two per-vertex states in/out, honoring each tree
        edge's drag direction; the pinned host is forced out).  Trees
        whose best closed subset has non-positive gain contribute
        nothing.  Returns ``delta[v] = w(v)`` for selected vertices, 0
        elsewhere.

        A singleton tree is selected exactly when ``b(v) w(v) > 0`` and
        it is not the host; all singletons are settled in one vectorized
        step.  A multi-vertex tree's selection is cached by its root and
        recomputed only when the tree is dirty: every structural or
        weight operation (``link``, re-rooting, ``break_tree``,
        ``set_weight``, ``pin_tree``, ``reset``) drops the cached
        selection of each tree it touches.  The result is the same as a
        full DP over every tree: the trees are disjoint and a clean tree's
        members, edges and weights are exactly those it was evaluated
        with.
        """
        weight = self._weight
        # The host's weight is 0, so b * w > 0 already leaves it out.
        delta = np.where((self.b * weight > 0) & ~self._in_tree, weight, 0)
        selection = self._selection
        for root in self._roots:
            chosen = selection.get(root)
            if chosen is None:
                chosen = selection[root] = self._select_tree(root)
                self.trees_evaluated += 1
            else:
                self.trees_cached += 1
            if chosen[0].size:
                delta[chosen[0]] = chosen[1]
        return delta

    def _select_tree(self, root: int) -> tuple[np.ndarray, np.ndarray]:
        """DP over the tree at ``root``: ``(vertices, weights)`` chosen."""
        children = self.children
        drags_parent = self.drags_parent
        weight = self.weight
        gain_of = self._gain
        pinned = self.pinned
        f_in = self._f_in
        f_out = self._f_out
        NEG = -(1 << 62)

        # Root-first order; reversed, every child precedes its parent.
        order = [root]
        for v in order:
            order.extend(children[v])
        for v in reversed(order):
            acc_in = NEG if v == pinned else gain_of[v] * weight[v]
            acc_out = 0
            for c in children[v]:
                c_in = f_in[c]
                c_out = f_out[c]
                c_best = c_in if c_in > c_out else c_out
                if drags_parent[c]:
                    # (c, v): c in => v in; v out forces c out.
                    acc_in += c_best
                    acc_out += c_out
                else:
                    # (v, c): v in => c in.
                    acc_in += c_in
                    acc_out += c_best
            f_in[v] = acc_in if acc_in > NEG else NEG
            f_out[v] = acc_out

        chosen: list[int] = []
        if max(f_in[root], f_out[root]) > 0:
            # Backtrack the optimal states.
            stack = [(root, f_in[root] > f_out[root])]
            while stack:
                v, inside = stack.pop()
                if inside:
                    chosen.append(v)
                for c in children[v]:
                    if drags_parent[c]:
                        child_in = f_in[c] > f_out[c] if inside else False
                    else:
                        child_in = True if inside \
                            else f_in[c] > f_out[c]
                    stack.append((c, child_in))
        vertices = np.array(chosen, dtype=np.int64)
        return vertices, self._weight[vertices]

    def reset(self) -> None:
        """Drop all constraints and reset all weights to 1 (new pass)."""
        n = self.n_vertices
        self.parent: list[int] = [-1] * n
        self.children: list[set[int]] = [set() for _ in range(n)]
        # For a child c: True  -> constraint (c, parent): c drags parent
        #                False -> constraint (parent, c): parent drags c
        self.drags_parent: list[bool] = [False] * n
        self.weight: list[int] = [1] * n
        self.weight[self.pinned] = 0
        self.n_constraints = 0
        # ``weight`` as a vector; membership in a multi-vertex tree; the
        # roots of those trees; and their cached selections by root
        # (present only while the tree is clean).
        self._weight = np.array(self.weight, dtype=np.int64)
        self._in_tree = np.zeros(n, dtype=bool)
        self._roots: set[int] = set()
        self._selection: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __repr__(self) -> str:
        return (f"RegularForest(|V|={self.n_vertices}, "
                f"constraints={self.n_constraints})")
