"""Immutable undirected simple graphs over integer vertex ids.

Vertex ids are opaque, totally ordered and stable: operations that shrink a
graph return a new value sharing nothing mutable with the old one, so solver
branches can hold snapshots without copying defensively.  All iteration
orders exposed here are ascending by id, which keeps search trees and
reports reproducible.

Besides the graph itself this module holds the forest primitives every
solver shares: `Forest`, the incremental union-find; `prune_to_minimal`;
and the two reduction rules of the extension search, the cover-guess
solver and the approximation scheme: `peel` (degree <= 1 vertices lie on
no cycle; `two_core` deletes them from a whole graph, and `chain_kernel`
also shortens its chains of degree-2 vertices) and `cycle_closers`
(a vertex with two neighbors in one tree of a committed-out forest must be
in the solution).  `settle` is the one reduction pass of all three
solvers: force, then peel once, on plain mutable vertex sets, which ends
at a fixpoint of both rules.  The extension search follows it with
degree-two contraction, and each greedy step of the approximation scheme
runs the same two rules in the same order.  `degree_bound`
caps, from neighbor counts alone, how many undecided vertices a minimal
fvs can take: the 10^k solver's optimum bound, guess cut and search-node
cut.
"""

from __future__ import annotations

from typing import Iterable, Iterator

# the one neighbourhood every vertex without neighbours shares: sparse
# graphs hold many, and a frozenset of their own would cost each 216 bytes
_NO_NEIGHBORS: frozenset[int] = frozenset()


class Graph:
    """Undirected simple graph: no self-loops, no parallel edges."""

    __slots__ = ("_adj",)

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        adj: dict[int, set[int]] = {v: set() for v in vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in adj or v not in adj:
                raise KeyError(f"edge ({u}, {v}) references an unknown vertex")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(adj[v]) if adj[v] else _NO_NEIGHBORS for v in sorted(adj)}

    @classmethod
    def _from_adj(cls, adj: dict[int, frozenset[int]]) -> Graph:
        g = object.__new__(cls)
        g._adj = {v: adj[v] or _NO_NEIGHBORS for v in sorted(adj)}
        return g

    # -- basic queries ------------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._adj)

    def sorted_vertices(self) -> list[int]:
        return list(self._adj)  # keys inserted in ascending order

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(frozenset((v, nbrs) for v, nbrs in self._adj.items()))

    def __repr__(self) -> str:
        return f"Graph(|V|={len(self._adj)}, |E|={self.edge_count()})"

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in self._adj:
            for u in self._adj[v]:
                if v < u:
                    yield (v, u)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    # -- derived graphs -----------------------------------------------------

    def delete(self, removed: Iterable[int]) -> Graph:
        """Graph with the given vertices (and their edges) removed."""
        gone = set(removed)
        missing = gone - self._adj.keys()
        if missing:
            raise KeyError(f"unknown vertices: {sorted(missing)}")
        return Graph._from_adj(
            {v: nbrs - gone for v, nbrs in self._adj.items() if v not in gone}
        )

    def induced(self, keep: Iterable[int]) -> Graph:
        """Subgraph induced on the given vertex set."""
        kept = set(keep)
        missing = kept - self._adj.keys()
        if missing:
            raise KeyError(f"unknown vertices: {sorted(missing)}")
        return Graph._from_adj({v: self._adj[v] & kept for v in kept})

    def contract(self, u: int, v: int) -> Graph:
        """Contract the edge (u, v); the merged vertex keeps the smaller id.

        Requires disjoint neighborhoods (beyond the edge itself), so the
        result has exactly one edge and one vertex fewer.
        """
        if not self.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge")
        shared = (self._adj[u] & self._adj[v]) - {u, v}
        if shared:
            raise ValueError(f"({u}, {v}) have shared neighbors {sorted(shared)}")
        merged = min(u, v)
        new_nbrs = (self._adj[u] | self._adj[v]) - {u, v}
        adj = {w: nbrs for w, nbrs in self._adj.items() if w not in (u, v)}
        for w in new_nbrs:
            adj[w] = (adj[w] - {u, v}) | {merged}
        adj[merged] = frozenset(new_nbrs)
        return Graph._from_adj(adj)

    # -- structure ----------------------------------------------------------

    def components(self) -> list[frozenset[int]]:
        """Connected components, ordered by their minimum vertex id."""
        seen: set[int] = set()
        out: list[frozenset[int]] = []
        for start in self._adj:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in self._adj[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            out.append(frozenset(comp))
        return out


class Forest:
    """Incremental union-find over a growing vertex subset of g.

    Tarjan's set union: the trees are those of the subgraph induced on the
    vertices inserted so far.  `extend` inserts vertices with their edges
    to the vertices already present, `closes_cycle` asks, without
    inserting, whether a vertex would close a cycle, `join` inserts it only
    when it would not, `acyclic` tells whether the subgraph is still a
    forest, and `roots` counts the subgraph's components, one root each.
    Union by size plus path compression keeps any sequence of m operations
    at O(m alpha(m)).
    """

    __slots__ = ("_adj", "_parent", "_size", "acyclic")

    def __init__(self, g: Graph):
        self._adj = g._adj
        self._parent: dict[int, int] = {}
        self._size: dict[int, int] = {}
        self.acyclic = True

    @classmethod
    def without(cls, g: Graph, removed: Iterable[int]) -> Forest:
        """The union-find over g minus the given vertices."""
        gone = set(removed)
        forest = cls(g)
        forest.extend([v for v in g._adj if v not in gone])
        return forest

    def _find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def extend(self, vertices: Iterable[int], stop_at_cycle: bool = False) -> bool:
        """Insert vertices one at a time, joining the trees of their neighbors.

        Returns False, and clears `acyclic`, when some vertex had two
        neighbors in one tree; with `stop_at_cycle` the insertion ends at
        that vertex.  The find is inlined: this loop runs once per edge.
        """
        adj, parent, size = self._adj, self._parent, self._size
        ok = True
        for v in vertices:
            parent[v] = v
            size[v] = 1
            root = v
            for u in adj[v]:
                if u not in parent:
                    continue
                r = u
                while parent[r] != r:
                    r = parent[r]
                while parent[u] != r:
                    parent[u], u = r, parent[u]
                if r == root:
                    ok = False
                    continue
                if size[r] > size[root]:
                    root, r = r, root
                parent[r] = root
                size[root] += size[r]
            if not ok:
                self.acyclic = False
                if stop_at_cycle:
                    break
        return ok

    def join(self, v: int) -> bool:
        """Insert v unless two of its neighbors share a tree; did it go in?

        One find per neighbor answers `closes_cycle` and gives the roots
        that v then joins.  v must not be present.
        """
        parent, size = self._parent, self._size
        roots: set[int] = set()
        for u in self._adj[v]:
            if u in parent:
                r = self._find(u)
                if r in roots:
                    return False
                roots.add(r)
        parent[v] = v
        size[v] = 1
        root = v
        for r in roots:
            if size[r] > size[root]:
                root, r = r, root
            parent[r] = root
            size[root] += size[r]
        return True

    def roots(self) -> int:
        """The number of trees, one root each."""
        return sum(1 for v, parent in self._parent.items() if v == parent)

    def closes_cycle(self, v: int) -> bool:
        """Do two neighbors of v share a tree?  v must not be present."""
        seen: set[int] = set()
        for u in self._adj[v]:
            if u in self._parent:
                r = self._find(u)
                if r in seen:
                    return True
                seen.add(r)
        return False


def is_acyclic_without(g: Graph, removed: Iterable[int]) -> bool:
    """True iff g minus the given vertices is a forest."""
    gone = set(removed)
    return Forest(g).extend([v for v in g._adj if v not in gone], stop_at_cycle=True)


def prune_to_minimal(g: Graph, s: Iterable[int], order: Iterable[int]) -> frozenset[int]:
    """Drop members of the fvs s, in `order`, while s stays an fvs.

    Each v of `order` (members of s) leaves s exactly when g minus the rest
    of s is still a forest, i.e. when v's neighbors outside s lie in
    distinct trees.  One forest over g - s grows as vertices leave, each
    by one `Forest.join`, so the whole pass costs O(m alpha(m)).  If s is
    not an fvs, nothing can leave.
    """
    kept = set(s)
    forest = Forest.without(g, kept)
    if not forest.acyclic:
        return frozenset(kept)
    for v in order:
        if forest.join(v):
            kept.remove(v)
    return frozenset(kept)


def peel(g: Graph, live: Iterable[int]) -> set[int]:
    """Vertices deleted when degree <= 1 vertices of g[live] go, to fixpoint.

    What remains is the 2-core of g[live], which holds every cycle of
    g[live].  The fixpoint is unique, so the order of deletion does not
    matter; one degree count per vertex and a queue make it O(m).  `live`
    must lie in g, so when it is as large as g it is all of g, and each
    degree is the neighbourhood's size, with no intersection.
    """
    live = frozenset(live)
    adj = g._adj
    if len(live) == len(adj):
        degree = {v: len(nbrs) for v, nbrs in adj.items()}
    else:
        degree = {v: len(adj[v] & live) for v in live}
    queue = [v for v, d in degree.items() if d <= 1]
    gone = set(queue)
    while queue:
        for u in adj[queue.pop()]:
            if u in degree and u not in gone:
                degree[u] -= 1
                if degree[u] <= 1:
                    gone.add(u)
                    queue.append(u)
    return gone


def two_core(g: Graph) -> Graph:
    """g without the vertices that `peel` deletes from all of g.

    The 2-core holds every cycle of g, and a vertex off it lies on none.
    When nothing peels, the result is g itself, not a copy.
    """
    gone = peel(g, g.vertices)
    return g.delete(gone) if gone else g


def chain_kernel(g: Graph) -> Graph:
    """`two_core(g)` with every chain of degree-2 vertices shortened.

    A maximal chain between branch vertices keeps its lowest id, one that
    returns to its own end its two lowest ids, and a cycle component
    becomes the triangle of its three lowest ids.  A chain's inner vertices
    lie on the same cycles, so a minimal fvs holds at most one of them and
    any one can stand for the rest: the kernel's minimal fvs are g's that
    avoid the dropped vertices, and they reach g's optimum.  When nothing
    shortens, the result is the 2-core itself, not a copy.
    """
    core = two_core(g)
    adj = core._adj
    dropped: list[int] = []
    seen: set[int] = set()
    for v in adj:
        if len(adj[v]) != 2 or v in seen:
            continue
        chain, ends = [v], []
        for x in adj[v]:
            prev = v
            while len(adj[x]) == 2 and x != v:
                chain.append(x)
                prev, x = x, min(adj[x] - {prev})
            ends.append(x)
            if x == v:
                break
        seen.update(chain)
        keep = 3 if ends[0] == v else 2 if ends[0] == ends[1] else 1
        dropped += sorted(chain)[keep:]
    if not dropped:
        return core
    # bypass each dropped vertex, of degree two still: what its chain keeps
    # stops the new edge from closing a 2-cycle
    short = {v: set(nbrs) for v, nbrs in adj.items()}
    for v in dropped:
        a, b = short.pop(v)
        short[a] ^= {v, b}
        short[b] ^= {v, a}
    return Graph._from_adj({v: frozenset(nbrs) for v, nbrs in short.items()})


def degree_bound(g: Graph, out: Iterable[int], free: Iterable[int]) -> int:
    """The most vertices of `free` that a minimal fvs avoiding `out` can hold.

    Let S be a minimal fvs of g that avoids `out` and holds every vertex
    outside out | free, X = S & free and F = out | (free - X).  Each x in
    X has a private cycle, which meets S only in x, so both of x's
    neighbors on it lie in F; hence 2|X| <= e(X, F) <= the sum over F of
    the counts |N(f) & free|.  So the sum over `out` plus the
    |free| - |X| largest counts over `free` reaches 2|X|.  That test only
    gets harder as |X| grows, so filling F with the highest counts first
    finds the largest |X| it allows.
    """
    adj = g._adj
    free = set(free)
    reach = sum(len(adj[f] & free) for f in out)
    counts = sorted((len(adj[v] & free) for v in free), reverse=True)
    n = len(counts)
    for t, count in enumerate(counts):
        if reach >= 2 * (n - t):
            return n - t
        reach += count
    return 0


def cycle_closers(g: Graph, out: Iterable[int], candidates: Iterable[int]) -> list[int]:
    """Candidates, ascending, with two neighbors in one tree of g[out].

    Such a vertex closes a cycle with the committed-out forest, so every
    solution that keeps `out` outside must contain it.  Candidates must lie
    outside `out`.
    """
    forest = Forest(g)
    forest.extend(out)
    return [v for v in sorted(candidates) if forest.closes_cycle(v)]


def settle(
    g: Graph, out: set[int], free: set[int], inside: set[int]
) -> tuple[set[int], list[int]]:
    """`cycle_closers`, then `peel` once, on plain sets in place.

    The live vertices split into `inside` (committed to the solution),
    `out` (committed outside) and `free` (undecided).  Every free vertex
    with two neighbors in one tree of g[out] moves to `inside`; then the
    vertices of degree <= 1 in g[out | free] lie on no cycle and leave
    both sets.  Returns the deleted vertices and the moved ones.

    The sets it leaves are a fixpoint of both rules.  A closer and the
    path of g[out] between two of its neighbors form a cycle, which no
    peel touches, so peeling first would find the same closers; either
    way the sets end as the 2-core of g[(out | free) - closers].  Peeling
    only shrinks `out`, which splits trees of g[out] and joins none, so
    no new closer appears.
    """
    closers = cycle_closers(g, out, free)
    inside.update(closers)
    free.difference_update(closers)
    gone = peel(g, out | free)
    out -= gone
    free -= gone
    return gone, closers
