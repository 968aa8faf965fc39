"""Branch-and-reduce solver for the extension decision problem.

Given disjoint vertex sets `required` and `forbidden` whose union is a
feedback vertex set, decide whether the graph has a *minimal* fvs S with
required <= S, S disjoint from forbidden, and at least k vertices beyond
`required`; a yes always carries a concrete, re-verified witness.

Each search node holds its committed and free vertices as plain sets and
reduces them in place: the pass every solver shares (`graph.settle`:
force forbidden-side cycle closers inside, then strip degree <= 1
vertices), then degree-two contraction, again while one fires.  They
count as "strip_acyclic_fringe", "force_cycle_closers" and
"contract_degree_two_pairs".  A node builds a graph of its own only when
a contraction fires.  A reduced node is cut when it needs
more vertices than `graph.degree_bound` lets a minimal fvs take from its
free ids: each free id adds at most one vertex to a witness, and each one
added needs a private cycle through two neighbors among the committed-out
and the other free ids (`_solve` proves both).  The search then branches
on a deepest leaf of the forest left outside the committed sets.  Branch
arithmetic is tracked by the measure k + gamma, where gamma counts the
trees of the forbidden-side forest: branches spend a unit of k or merge
forbidden-side trees, keeping node counts near 3^(k + gamma) (the test
suite measures this; exhausted-budget states that fail completion may
legitimately cost a little more, since refuting them is itself hard).

Correctness never rests on search-state bookkeeping alone: a branch is
accepted only after a completed witness passes `verify.is_minimal` on the
original input graph, where `solve_extension` certifies it once, and
committed vertices are only pruned away when no completion could restore
their private cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping

from mmfvs.graph import Forest, Graph, degree_bound, is_acyclic_without, peel, prune_to_minimal, settle
from mmfvs.report import SolveReport, certify
from mmfvs.verify import (
    VerificationError,
    has_private_cycle,
    is_fvs,
    is_minimal,
    members_have_private_cycles,
    private_cycle,
    spanning_forest,
)

RULE_STRIP = "strip_acyclic_fringe"
RULE_FORCE = "force_cycle_closers"
RULE_CONTRACT = "contract_degree_two_pairs"


@dataclass(slots=True)
class _Node:
    """One node of the extension search, over plain mutable sets.

    `required`, `forbidden` and `free` split the live vertices of the
    working graph `search`; a child copies them once and reduces them in
    place.  `search` may still hold vertices deleted higher up the tree:
    they are in none of the three sets, and every degree here counts live
    neighbors only.  `expansions` maps a contracted id to the original ids
    it stands for; it lifts witnesses back to the input graph, whose
    vertices behind no live id are deleted.  `target` is the root's k plus
    its required ids, and each unit of k spent moves one free id inside,
    so `k` is `target` less the required ids.  A child shares `search`,
    `target` and `expansions` with its parent; a node that needs another
    value assigns a new object and never changes the shared one.
    """

    search: Graph
    required: set[int]
    forbidden: set[int]
    free: set[int]
    target: int
    expansions: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.target - len(self.required)

    def live(self) -> set[int]:
        return self.required | self.forbidden | self.free

    def originals_of(self, v: int) -> tuple[int, ...]:
        return self.expansions.get(v, (v,))

    def child(self, inside: tuple[int, ...] = (), outside: tuple[int, ...] = ()) -> _Node:
        return _Node(
            self.search,
            self.required.union(inside),
            self.forbidden.union(outside),
            self.free.difference(inside, outside),
            self.target,
            self.expansions,
        )


# -- reductions -------------------------------------------------------------


def _contractible_pair(node: _Node) -> tuple[int, int] | None:
    """First adjacent free pair of live degree two with no common neighbor.

    Free vertices are scanned ascending, each with its larger neighbors,
    so the pair is the first one in sorted edge order.
    """
    live = node.live()
    for u in sorted(node.free):
        nu = node.search.neighbors(u) & live
        if len(nu) != 2:
            continue
        for v in sorted(nu):
            if v > u and v in node.free:
                nv = node.search.neighbors(v) & live
                if len(nv) == 2 and not nu & nv:
                    return u, v
    return None


def _contract(node: _Node) -> int:
    """Contract adjacent free degree-2 pairs with disjoint neighborhoods.

    No minimal fvs can contain both endpoints of such an edge (each one's
    cycles all run through the other), so the pair can be treated as a
    single choice; the expansion map records which original ids a merged
    vertex stands for.  The first contraction at a node builds its own
    graph of the live vertices and its own expansion map.
    """
    fired = 0
    while (pair := _contractible_pair(node)) is not None:
        u, v = pair
        if not fired:
            node.search = node.search.induced(node.live())
            node.expansions = dict(node.expansions)
        node.search = node.search.contract(u, v)
        node.expansions[u] = node.expansions.pop(u, (u,)) + node.expansions.pop(v, (v,))
        node.free.discard(v)
        fired += 1
    return fired


def _reduce(node: _Node, fired: dict[str, int]) -> None:
    """The shared pass (`graph.settle`), then contraction, while a contraction fires.

    The pass forces free vertices that close a forbidden-side cycle
    inside, since no solution may leave such a cycle standing, so each
    one spends a unit of k (which may go below zero, treated like zero);
    then it strips degree <= 1 vertices outside `required`.  A merged vertex keeps its neighbors'
    degrees but may close a cycle, so only a contraction calls for another pass.
    """
    while True:
        gone, forced = settle(node.search, node.forbidden, node.free, node.required)
        contracted = _contract(node)
        for name, count in ((RULE_STRIP, len(gone)), (RULE_FORCE, len(forced)), (RULE_CONTRACT, contracted)):
            if count:
                fired[name] = fired.get(name, 0) + count
        if not contracted:
            return


# -- witness completion and lifting ------------------------------------------


class _Context:
    def __init__(self, pristine: Graph):
        self.pristine = pristine
        self.nodes = 0
        self.max_depth = 0
        self.fired: dict[str, int] = {}
        self.completion_failures = 0
        self.fallback_branchings = 0


def _partial_minimality(ctx: _Context, node: _Node) -> bool:
    """Can every committed-in vertex still get a private cycle?

    Checked against the original graph so that deleted vertices stay
    available as cycle material.  Only unambiguous (never-contracted)
    committed ids are banned: a contracted id will resolve to one original
    on lifting, so banning all of its originals could reject branches that
    still complete.  This keeps the prune a necessary condition.
    """
    solid = frozenset(v for v in node.required if v not in node.expansions)
    if not members_have_private_cycles(ctx.pristine, solid, solid):
        return False
    for w in sorted(node.required - solid):
        reps = node.originals_of(w)
        if not any(has_private_cycle(ctx.pristine, r, solid - {r}) for r in reps):
            return False
    return True


def _prune_orders(ctx: _Context, base: frozenset[int], pool: frozenset[int]) -> list[list[int]]:
    """Deterministic orders in which completion tries to drop vertices.

    Besides plain descending and ascending id order, one order first drops
    the vertices sitting on the committed-in set's would-be private cycles,
    which often rescues their minimality.
    """
    orders = [sorted(pool, reverse=True), sorted(pool)]
    witness_material: set[int] = set()
    for w in sorted(base):
        cycle = private_cycle(ctx.pristine, w, base - {w})
        if cycle is not None:
            witness_material.update(cycle)
    witness_first = sorted(pool & witness_material, reverse=True) + sorted(
        pool - witness_material, reverse=True
    )
    if witness_first not in orders:
        orders.append(witness_first)
    return orders


def _complete_witness(ctx: _Context, node: _Node) -> frozenset[int] | None:
    """Try to turn the current commitments into a verified witness.

    Starts from the committed-in set plus every still-free vertex lying on
    a cycle once the committed-in set is removed, prunes to minimality in
    a few deterministic orders with the committed-in set held fixed, and
    accepts only if the pruned set passes `verify.is_minimal` on the
    original graph.  Contracted committed ids are resolved by trying their
    original ids in order and keeping the first combination that verifies.

    A pruned set always keeps the call's commitments and its k.  Only free
    ids are ever contracted, so the initially required ids are in `base`,
    and pruning drops only vertices of start - base.  An initially
    forbidden id stays forbidden or deleted, and `addable`, the originals
    of the free ids, holds neither.  Each unit of k spent commits one more
    id inside, which adds one original to `base`.  `solve_extension`
    checks all three again on the witness it emits.
    """
    fixed =[v for v in sorted(node.required) if v not in node.expansions]
    merged = [v for v in sorted(node.required) if v in node.expansions]
    addable = set().union(*map(node.originals_of, node.free))
    for combo in product(*(node.expansions[v] for v in merged)):
        base = frozenset(fixed) | frozenset(combo)
        live = ctx.pristine.vertices - base
        core = live - peel(ctx.pristine, live)
        start = frozenset(base | (core & addable))
        if not is_acyclic_without(ctx.pristine, start):
            continue
        for order in _prune_orders(ctx, base, start - base):
            candidate = prune_to_minimal(ctx.pristine, start, order)
            if is_minimal(ctx.pristine, candidate):
                return candidate
    return None


# -- branching ----------------------------------------------------------------


def _deepest_free_leaf(node: _Node) -> tuple[int, dict[int, int]]:
    """Deepest leaf over all free trees (roots at minimum ids, ties by id).

    The free vertices induce a forest (required | forbidden is an fvs, and
    contraction keeps it one), so `verify.spanning_forest` labels it; a
    root is its own parent.
    """
    labels = spanning_forest(node.search, node.search.vertices - node.free)
    if labels is None:
        raise VerificationError("the free vertices close a cycle")
    _, parent, depth = labels
    return min(depth, key=lambda v: (-depth[v], v)), parent


def _detached_free(ctx: _Context, node: _Node, x: int) -> bool:
    """No original behind x is adjacent to a deleted vertex.

    Deleted vertices never serve on cycles that avoid the whole
    committed-in set, but certificates of committed vertices run through
    themselves and may re-enter deleted territory next to x.  Degree-based
    exchange arguments are therefore only trusted for vertices whose
    original neighbors are all originals of live ids.
    """
    kept = set().union(*map(node.originals_of, node.live()))
    return all(ctx.pristine.neighbors(rep) <= kept for rep in node.originals_of(x))


def _children(ctx: _Context, node: _Node, v: int, parent: Mapping[int, int]) -> list[_Node]:
    forbidden_nbrs = node.search.neighbors(v) & node.forbidden
    if len(forbidden_nbrs) >= 2:
        # Deepest leaf touching several forbidden trees: either it is in the
        # solution or it merges those trees, so both branches drop the measure.
        return [node.child(inside=(v,)), node.child(outside=(v,))]

    if len(forbidden_nbrs) != 1:
        raise VerificationError("fringe stripping left a free leaf without a forbidden neighbor")
    pi = parent[v]
    if pi == v:
        raise VerificationError("a free leaf with one forbidden neighbor has no parent")
    live = node.live()
    pi_degree = len(node.search.neighbors(pi) & (node.forbidden | node.free))

    if pi_degree == 2:
        v_nbrs, pi_nbrs = node.search.neighbors(v) & live, node.search.neighbors(pi) & live
        common = v_nbrs & pi_nbrs
        if (
            len(v_nbrs) == 2
            and len(pi_nbrs) == 2
            and common
            and _detached_free(ctx, node, v)
            and _detached_free(ctx, node, pi)
        ):
            # v, its parent and their shared forbidden neighbor form a
            # triangle only v or the parent can break, and at full degree
            # two with clean original neighborhoods a parent-inside
            # solution swaps into a v-inside one of equal size.
            if not common <= node.forbidden:
                raise VerificationError("a free degree-two pair shares a free neighbor")
            return [node.child(inside=(v,), outside=(pi,))]
    elif not node.search.neighbors(pi) & node.forbidden:
        # Parent of free degree >= 3 whose neighbors outside `required` are
        # all free leaf children.  When every child has clean full degree
        # two, a parent-inside solution converts into one that swaps the
        # parent for children (hitting all its cycles), so three branches
        # suffice and the all-outside one merges forbidden trees.
        children = [u for u in sorted(node.search.neighbors(pi) & node.free) if parent.get(u) == pi]
        if v not in children or len(children) < 2:
            raise VerificationError("a free parent of degree >= 3 lacks two leaf children")
        if all(len(node.search.neighbors(c) & live) == 2 and _detached_free(ctx, node, c) for c in children):
            v2 = next(u for u in children if u != v)
            return [
                node.child(inside=(v,)),
                node.child(inside=(v2,)),
                node.child(outside=(v, v2, pi)),
            ]

    # Exhaustive by construction: v inside, or the parent inside, or both
    # outside.  The all-outside branch may keep the measure flat when the
    # parent touches no forbidden tree; such nodes are counted for audit.
    ctx.fallback_branchings += 1
    return [
        node.child(inside=(v,)),
        node.child(inside=(pi,)),
        node.child(outside=(v, pi)),
    ]


def _solve(ctx: _Context, node: _Node, depth: int) -> frozenset[int] | None:
    """Search below `node` for a witness; None when there is none.

    After reduction, a node is cut when `k` is above
    `degree_bound(search, forbidden, free)`, which is at most the number of
    free ids.  Take a witness S found below it: a minimal fvs of the input
    graph with at least `target` vertices, exactly one original of each
    committed-in id (completion adds no other original of a contracted
    one), and none of a committed-out or deleted id.  S holds one original
    per required id, so it needs target - |required| = k originals of free
    ids.  Contraction keeps the working graph's edges one-to-one with the
    input edges between originals of distinct live ids.  The originals of
    a live id form a path, and the path of a contracted id is joined to
    the rest by one edge at each end and otherwise only to vertices
    deleted before the path formed.

    Let X be the free ids with an original in S, s1 in S an original of
    x in X, and C a private cycle of s1.  First, C avoids deleted
    vertices.  Otherwise let y be the first-deleted id whose originals C
    meets.  C enters and leaves y's originals along two edges of the
    working graph, to ids still live then (one deleted earlier would come
    first).  `settle` peels only committed-out and free ids, and y
    had at most one neighbor among those, so one of the two is a
    committed-in id, formed before y went.  C runs along that id's whole
    path, through its member of S, which is not s1: impossible.  So C
    runs along the whole path of every live id it meets, and meets none
    twice.  It runs along x's path, so S holds no other original of x and
    |X| >= k.  It meets no committed-in id and no other id of X, each of
    which holds a member of S.  So in the working graph, which is simple,
    C is a cycle through x whose other ids lie in F = forbidden |
    (free - X), and x has two neighbors in F.  Hence 2|X| <= e(X, F), the
    sum `degree_bound` bounds, and it returns at least |X| >= k.
    """
    ctx.nodes += 1
    ctx.max_depth = max(ctx.max_depth, depth)
    if not Forest(node.search).extend(node.forbidden, stop_at_cycle=True):
        return None
    _reduce(node, ctx.fired)
    # k above the free-id count is the O(1) case of the degree-sum cut
    if node.k > len(node.free) or degree_bound(node.search, node.forbidden, node.free) < node.k:
        return None
    if not _partial_minimality(ctx, node):
        return None
    if node.k <= 0:
        witness = _complete_witness(ctx, node)
        if witness is not None:
            return witness
        ctx.completion_failures += 1
    if not node.free:
        return None
    v, parent = _deepest_free_leaf(node)
    for child in _children(ctx, node, v, parent):
        witness = _solve(ctx, child, depth + 1)
        if witness is not None:
            return witness
    return None


def solve_extension(
    g: Graph,
    required: Iterable[int],
    forbidden: Iterable[int],
    k: int,
) -> SolveReport:
    """Decide the extension problem and report a verified witness on yes.

    Raises KeyError, from `is_fvs`, when a committed vertex is not in g,
    and ValueError when the committed sets overlap or their union is not
    a feedback vertex set; a forbidden side that is not a forest is a plain
    no-instance.
    """
    required = frozenset(required)
    forbidden = frozenset(forbidden)
    if required & forbidden:
        raise ValueError(f"overlapping commitments: {sorted(required & forbidden)}")
    if not is_fvs(g, required | forbidden):
        raise ValueError("required and forbidden together must form an fvs")

    start = time.perf_counter()
    ctx = _Context(g)
    # gamma: the number of trees in the forbidden-side forest, one root each
    trees = Forest(g)
    trees.extend(forbidden)
    gamma_root = trees.roots()
    root = _Node(g, set(required), set(forbidden), set(g.vertices - required - forbidden), k + len(required))
    found = _solve(ctx, root, depth=0)
    witness = None
    if found is not None:
        # Re-verify the emitted witness independently of search state.
        witness = certify(g, found, "extension witness")
        if not required <= found or found & forbidden:
            raise VerificationError("extension witness breaks the commitments")
        if len(found - required) < k:
            raise VerificationError("extension witness is too small")
    return SolveReport(
        solution=witness,
        nodes_explored=ctx.nodes,
        reductions_fired=dict(ctx.fired),
        max_depth=ctx.max_depth,
        wall_time=time.perf_counter() - start,
        extras={
            "gamma_root": gamma_root,
            "measure_root": k + gamma_root,
            "completion_failures": ctx.completion_failures,
            "fallback_branchings": ctx.fallback_branchings,
        },
    )
