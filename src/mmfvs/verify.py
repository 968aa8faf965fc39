"""Ground-truth predicates for feedback vertex sets and their minimality.

A set S is an fvs when G - S is acyclic, and a *minimal* fvs when no proper
subset is: equivalently, every v in S has a private cycle, a cycle through v
in the graph induced on (V - S) + v.  Minimality is certified here through
private cycles; the test suite checks that against the definitional
drop-one-vertex test.

The forest questions run on the incremental union-find `graph.Forest`.
`greedy_minimal_fvs` grows a single forest as vertices leave the set,
O(m alpha(m)) in all.  Private cycles of the members of a set S are
checked from one union-find over g - S: a member has one iff two of its
neighbors outside S share a tree, so one O(m alpha(m)) sweep serves the
whole set; with the sweep's acyclicity it answers `is_minimal`, the
boolean form of minimality.  `is_minimal_fvs` instead walks g - S once,
rejecting a cycle and labelling every vertex with its tree, parent and
depth (`spanning_forest`, the one BFS forest walk, which the extension
search also branches on); each member's private cycle is then the tree
path between two of its neighbors, found by climbing to their lowest
common ancestor, with no search.

`Prepared` holds the reductions of one input that every solver call reads.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Mapping, TypeVar

from mmfvs.graph import (
    Forest, Graph, chain_kernel, degree_bound, is_acyclic_without, prune_to_minimal, two_core,
)

# Per-vertex private cycles witnessing minimality of a solution.
Certificate = dict[int, tuple[int, ...]]


class VerificationError(Exception):
    """A solution failed re-verification on its graph, or a solver invariant broke."""


def _members_of(g: Graph, s: Iterable[int]) -> frozenset[int]:
    s = frozenset(s)
    unknown = [v for v in s if v not in g]
    if unknown:
        raise KeyError(f"unknown vertices: {sorted(unknown)}")
    return s


def is_fvs(g: Graph, s: Iterable[int]) -> bool:
    """True iff g minus s is a forest."""
    return is_acyclic_without(g, _members_of(g, s))


def private_cycle(g: Graph, v: int, banned: frozenset[int]) -> tuple[int, ...] | None:
    """A simple cycle through v avoiding `banned`, or None.

    Searches g restricted to (V - banned) + v: BFS between pairs of
    neighbors of v, smallest ids first, so the witness is deterministic.
    """
    nbrs = sorted(u for u in g.neighbors(v) if u not in banned)
    if len(nbrs) < 2:
        return None
    nbr_set = frozenset(nbrs)
    for u in nbrs:
        parent: dict[int, int | None] = {u: None}
        queue = [u]
        while queue:
            nxt: list[int] = []
            for x in queue:
                for y in sorted(g.neighbors(x)):
                    if y == v or y in banned or y in parent:
                        continue
                    parent[y] = x
                    if y in nbr_set:
                        path = [y]
                        while path[-1] != u:
                            path.append(parent[path[-1]])  # type: ignore[arg-type]
                        return (v, *reversed(path))
                    nxt.append(y)
            queue = nxt
    return None


def has_private_cycle(g: Graph, v: int, banned: frozenset[int]) -> bool:
    """Boolean-only fast path of :func:`private_cycle`.

    v lies on a cycle avoiding `banned` iff two of its non-banned neighbors
    are connected in g - banned - v; checked with one union-find sweep.
    """
    if len([u for u in g.neighbors(v) if u not in banned]) < 2:
        return False
    return Forest.without(g, banned | {v}).closes_cycle(v)


def spanning_forest(
    g: Graph, s: frozenset[int]
) -> tuple[dict[int, int], dict[int, int], dict[int, int]] | None:
    """Tree, parent and depth of every vertex of g - s, or None on a cycle.

    BFS from each unlabelled vertex in ascending order, which becomes the
    root (its own parent) and names its tree.  An edge to a labelled vertex
    other than the parent is a second path to it, hence a cycle.
    """
    tree: dict[int, int] = {}
    parent: dict[int, int] = {}
    depth: dict[int, int] = {}
    for root in g.sorted_vertices():
        if root in s or root in tree:
            continue
        tree[root] = parent[root] = root
        depth[root] = 0
        queue = [root]
        for x in queue:  # grows while it is walked
            above, below = parent[x], depth[x] + 1
            for y in g.neighbors(x):
                if y in s or y == above:
                    continue
                if y in tree:
                    return None
                tree[y] = root
                parent[y] = x
                depth[y] = below
                queue.append(y)
    return tree, parent, depth


def _tree_path(
    parent: Mapping[int, int], depth: Mapping[int, int], u: int, y: int
) -> tuple[int, ...]:
    """The path from u to y in their common tree, via the lowest common ancestor."""
    up, down = [u], [y]
    du, dy = depth[u], depth[y]
    while du > dy:
        u = parent[u]
        up.append(u)
        du -= 1
    while dy > du:
        y = parent[y]
        down.append(y)
        dy -= 1
    while u != y:
        u, y = parent[u], parent[y]
        up.append(u)
        down.append(y)
    down.pop()
    return (*up, *reversed(down))


def is_minimal_fvs(g: Graph, s: Iterable[int]) -> Certificate | None:
    """Certificate of minimality if s is a minimal fvs of g, else None.

    The certificate maps every v in s to a private cycle; an empty set on a
    forest yields the empty certificate.  One walk over g - s rejects a
    cycle and labels the trees.  Member v's cycle then runs through its
    smallest neighbor u outside s whose tree holds another neighbor y, and
    the tree path from u to the y that minimizes (length, ids in order).
    That is the first neighbor a BFS from u meets in the forest, so the
    cycle equals the one `private_cycle` would return.  Every member is
    checked for such a u before any path is built.
    """
    s = _members_of(g, s)
    labels = spanning_forest(g, s)
    if labels is None:
        return None
    tree, parent, depth = labels
    ends: list[tuple[int, int, list[int]]] = []
    for v in sorted(s):
        outside = sorted(g.neighbors(v) - s)
        first: dict[int, int] = {}  # tree -> smallest neighbor of v in it
        u = None
        for x in outside:
            root = tree[x]
            if root not in first:
                first[root] = x
            elif u is None or first[root] < u:
                u = first[root]
        if u is None:
            return None
        ends.append((v, u, [y for y in outside if y != u and tree[y] == tree[u]]))
    cert: Certificate = {}
    for v, u, ys in ends:
        best = _tree_path(parent, depth, u, ys[0])
        for y in ys[1:]:
            path = _tree_path(parent, depth, u, y)
            if len(path) < len(best) or (len(path) == len(best) and path < best):
                best = path
        cert[v] = (v, *best)
    return cert


def is_minimal(g: Graph, s: Iterable[int]) -> bool:
    """Boolean-only fast path of :func:`is_minimal_fvs`.

    One union-find sweep over g - s answers both halves: g - s is a forest,
    and every member has two neighbors in one of its trees.
    """
    s = _members_of(g, s)
    forest = Forest.without(g, s)
    return forest.acyclic and all(forest.closes_cycle(w) for w in s)


def greedy_minimal_fvs(g: Graph) -> frozenset[int]:
    """A minimal fvs found greedily.

    Starts from S = V and, in descending id order, drops every vertex whose
    removal from S keeps S an fvs.  One pass suffices: once a vertex had to
    be kept, shrinking S further never makes it droppable.
    """
    return prune_to_minimal(g, g.vertices, g.sorted_vertices()[::-1])


def min_vertex_cover(g: Graph) -> frozenset[int]:
    """A minimum-cardinality vertex cover via pick-an-edge branching.

    Branches on the lexicographically smallest uncovered edge, including
    each endpoint in turn, and keeps the first minimum found, so the result
    is deterministic.  The search runs on bitmasks: vertex i of the sorted
    vertex list is bit i, which keeps the id order, each edge is the mask
    of its two ends, and `chosen` and `best` are masks.  `chosen` only
    grows along a branch, so the edges before the one a node branched on
    stay covered and its children resume the scan there.

    Before branching, a node greedily matches the uncovered edges from
    that point on, adding each matched edge's ends to a mask that starts
    as `chosen`.  Every cover below the node holds `chosen` plus a
    distinct endpoint of each matched edge, so when |chosen| plus the
    matching is at least |best|, the node is pruned.  The cover returned
    is the one the plain branching returns: `best` is replaced only by a
    strictly smaller cover, a pruned subtree holds none smaller than
    `best` at the time of pruning, and that `best` is at least every
    later one, so the plain search would not have replaced `best` inside
    it either.
    """
    ordered = g.sorted_vertices()
    bit = {v: 1 << i for i, v in enumerate(ordered)}
    edges = [bit[u] | bit[v] for u, v in sorted(g.edges())]
    if not edges:
        return frozenset()
    best = (1 << len(ordered)) - 1
    best_size = len(ordered)

    def branch(start: int, chosen: int, size: int) -> None:
        nonlocal best, best_size
        # `best` may have shrunk since the parent's matching check
        if size >= best_size:
            return
        i = start
        while i < len(edges) and edges[i] & chosen:
            i += 1
        if i == len(edges):
            best, best_size = chosen, size
            return
        taken, matched = chosen, size
        for edge in edges[i:]:
            if not edge & taken:
                taken |= edge
                matched += 1
                if matched >= best_size:
                    return
        # the lower bit is the smaller id, the end plain branching takes first
        low = edges[i] & -edges[i]
        for w in (low, edges[i] ^ low):
            branch(i + 1, chosen | w, size + 1)

    branch(0, 0, 0)
    return frozenset(v for v in ordered if best & bit[v])


_T = TypeVar("_T")


class _part(Generic[_T]):
    """A part of `Prepared`: taken by the wrapped method on first read,
    then stored in the instance `__dict__`, which later reads find first.

    `functools.cached_property` does the same, but before Python 3.12 it
    takes a lock on every first read, which costs more than taking a cheap
    part; a `Prepared` value belongs to one call, so it needs no lock.
    """

    def __init__(self, take: Callable[[Prepared], _T]) -> None:
        self.take = take
        self.name = take.__name__

    def __get__(self, p: Prepared, owner: type | None = None) -> _T:
        value = p.__dict__[self.name] = self.take(p)
        return value


class Prepared:
    """The reductions of g the solvers start from, each taken on first use.

    A public solver builds one value from its input and hands it to the
    private entries it calls, so no part is taken twice, and none that the
    call does not read (`solve_k` never takes the cover, an exponential
    search).  Nothing is cached on g or across calls.  `core` is
    `graph.two_core(g)`, and `greedy` the greedy minimal fvs of the core,
    which is g's own: the greedy on g drops every vertex off the core,
    which lies on no cycle, and decides each core vertex by cycles that all
    lie in the core.  `kernel` is `graph.chain_kernel` of the core, so a
    call that reads both peels g once, and the kernel's own peel finds
    nothing to delete; its minimal fvs are g's that avoid the dropped chain
    vertices and reach g's optimum, so `bound`, its `graph.degree_bound`,
    is at least g's optimum, and `cover`, its minimum vertex cover, has at
    most vc(g) vertices.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g

    @_part
    def core(self) -> Graph:
        return two_core(self.g)

    @_part
    def greedy(self) -> frozenset[int]:
        return greedy_minimal_fvs(self.core)

    @_part
    def kernel(self) -> Graph:
        return chain_kernel(self.core)

    @_part
    def bound(self) -> int:
        return degree_bound(self.kernel, (), self.kernel.vertices)

    @_part
    def cover(self) -> frozenset[int]:
        return min_vertex_cover(self.kernel)


def partial_minimality_ok(g: Graph, in_set: Iterable[int]) -> bool:
    """True iff every committed-in vertex still has a cycle of its own.

    For each w in `in_set` there must be a cycle through w once the rest of
    `in_set` is removed.
    """
    in_set = frozenset(in_set)
    return members_have_private_cycles(g, in_set, in_set)


def members_have_private_cycles(
    g: Graph, solution: frozenset[int], probed: Iterable[int]
) -> bool:
    """Do all `probed` members of `solution` keep a private cycle?

    Same predicate as full minimality verification but restricted to a
    subset of the solution, which is what partial-solution checks need.
    Members are answered together from one union-find over g - solution;
    a probed vertex outside `solution` is a ValueError.
    """
    probed = sorted(probed)
    if not solution.issuperset(probed):
        raise ValueError(f"probed vertices {sorted(set(probed) - solution)} are not in the solution")
    if not probed:
        return True
    forest = Forest.without(g, solution)
    return all(forest.closes_cycle(w) for w in probed)

