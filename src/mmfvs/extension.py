"""Branch-and-reduce solver for the extension decision problem.

Given disjoint vertex sets `required` and `forbidden` whose union is a
feedback vertex set, decide whether the graph has a *minimal* fvs S with
required <= S, S disjoint from forbidden, and at least k vertices beyond
`required`; a yes always carries a concrete, re-verified witness.

The search keeps three reductions at fixpoint and then branches on a
deepest leaf of the forest left outside the committed sets.  Branch
arithmetic is tracked by the measure k + gamma, where gamma counts the
trees of the forbidden-side forest: branches spend a unit of k or merge
forbidden-side trees, keeping node counts near 3^(k + gamma) (the test
suite measures this; exhausted-budget states that fail completion may
legitimately cost a little more, since refuting them is itself hard).

Correctness never rests on search-state bookkeeping alone: a branch is
accepted only after a completed witness passes full minimality
verification against the original input graph, and committed vertices are
only pruned away when no completion could restore their private cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterable, Mapping

from mmfvs.graph import Graph, cycle_closers, is_acyclic_without, peel, prune_to_minimal
from mmfvs.report import Solution, SolveReport
from mmfvs.verify import (
    VerificationError,
    has_private_cycle,
    is_fvs,
    is_minimal_fvs,
    members_have_private_cycles,
    private_cycle,
)

RULE_STRIP = "strip_acyclic_fringe"
RULE_FORCE = "force_cycle_closers"
RULE_CONTRACT = "contract_degree_two_pairs"


@dataclass(frozen=True)
class ExtensionInstance:
    """One node of the extension search.

    `search` is the working graph with deletions and contractions applied.
    `removed` collects deleted ids (committed outside every solution) and
    `expansions` maps a contracted id to the original ids it stands for;
    both are needed to lift witnesses back to the input graph.
    """

    search: Graph
    required: frozenset[int]
    forbidden: frozenset[int]
    k: int
    removed: frozenset[int] = frozenset()
    expansions: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def free_vertices(self) -> frozenset[int]:
        return self.search.vertices - self.required - self.forbidden

    def gamma(self) -> int:
        """Number of trees in the forbidden-side forest."""
        if not self.forbidden:
            return 0
        return len(self.search.induced(self.forbidden).components())

    def measure(self) -> int:
        return self.k + self.gamma()

    def originals_of(self, v: int) -> tuple[int, ...]:
        return self.expansions.get(v, (v,))


def _forbidden_is_forest(inst: ExtensionInstance) -> bool:
    return is_acyclic_without(inst.search, inst.search.vertices - inst.forbidden)


# -- reductions -------------------------------------------------------------


def _strip(inst: ExtensionInstance) -> tuple[ExtensionInstance, int]:
    """Delete, to fixpoint, vertices of degree <= 1 outside `required`."""
    gone = peel(inst.search, inst.search.vertices - inst.required)
    if not gone:
        return inst, 0
    return (
        replace(
            inst,
            search=inst.search.delete(gone),
            forbidden=inst.forbidden - gone,
            removed=inst.removed | gone,
        ),
        len(gone),
    )


def _force(inst: ExtensionInstance) -> tuple[ExtensionInstance, int]:
    """Move free vertices that close a forbidden-side cycle into `required`.

    A free vertex with two neighbors in one tree of the forbidden forest
    closes a cycle no solution may leave standing, so it must be inside;
    k drops accordingly (and may go below zero, treated like zero).
    """
    forced = cycle_closers(inst.search, inst.forbidden, inst.free_vertices())
    if not forced:
        return inst, 0
    return (
        replace(inst, required=inst.required | set(forced), k=inst.k - len(forced)),
        len(forced),
    )


def _contract(inst: ExtensionInstance) -> tuple[ExtensionInstance, int]:
    """Contract adjacent free degree-2 pairs with disjoint neighborhoods.

    No minimal fvs can contain both endpoints of such an edge (each one's
    cycles all run through the other), so the pair can be treated as a
    single choice; the expansion map records which original ids a merged
    vertex stands for.
    """
    search = inst.search
    committed = inst.required | inst.forbidden
    expansions = dict(inst.expansions)
    fired = 0
    while True:
        pair = None
        for u, v in sorted(search.edges()):
            if u in committed or v in committed:
                continue
            if search.degree(u) != 2 or search.degree(v) != 2:
                continue
            if (search.neighbors(u) & search.neighbors(v)) - {u, v}:
                continue
            pair = (u, v)
            break
        if pair is None:
            break
        u, v = pair
        search, _ = search.contract(u, v)
        keep, fold = min(u, v), max(u, v)
        expansions[keep] = expansions.pop(keep, (keep,)) + expansions.pop(fold, (fold,))
        fired += 1
    if not fired:
        return inst, 0
    return replace(inst, search=search, expansions=expansions), fired


def strip_acyclic_fringe(inst: ExtensionInstance) -> ExtensionInstance:
    """Public form of the degree-<=-1 deletion rule (applied to fixpoint)."""
    return _strip(inst)[0]


def force_cycle_closers(inst: ExtensionInstance) -> ExtensionInstance:
    """Public form of the forbidden-cycle forcing rule."""
    return _force(inst)[0]


def contract_degree_two_pairs(inst: ExtensionInstance) -> ExtensionInstance:
    """Public form of the degree-2 path contraction rule."""
    return _contract(inst)[0]


_RULES = ((RULE_STRIP, _strip), (RULE_FORCE, _force), (RULE_CONTRACT, _contract))


def _reduce_to_fixpoint(inst: ExtensionInstance, fired: dict[str, int]) -> ExtensionInstance:
    changed = True
    while changed:
        changed = False
        for name, rule in _RULES:
            inst, n = rule(inst)
            if n:
                fired[name] = fired.get(name, 0) + n
                changed = True
    return inst


# -- witness completion and lifting ------------------------------------------


class _Context:
    def __init__(self, pristine: Graph, required: frozenset[int], forbidden: frozenset[int], k: int):
        self.pristine = pristine
        self.required0 = required
        self.forbidden0 = forbidden
        self.k0 = k
        self.nodes = 0
        self.max_depth = 0
        self.fired: dict[str, int] = {}
        self.completion_failures = 0
        self.fallback_branchings = 0


def _partial_minimality(ctx: _Context, inst: ExtensionInstance) -> bool:
    """Can every committed-in vertex still get a private cycle?

    Checked against the original graph so that deleted vertices stay
    available as cycle material.  Only unambiguous (never-contracted)
    committed ids are banned: a contracted id will resolve to one original
    on lifting, so banning all of its originals could reject branches that
    still complete.  This keeps the prune a necessary condition.
    """
    solid = frozenset(v for v in inst.required if v not in inst.expansions)
    if not members_have_private_cycles(ctx.pristine, solid, solid):
        return False
    for w in sorted(inst.required - solid):
        reps = inst.originals_of(w)
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


def _complete_witness(ctx: _Context, inst: ExtensionInstance) -> Solution | None:
    """Try to turn the current commitments into a verified witness.

    Starts from the committed-in set plus every still-free vertex lying on
    a cycle once the committed-in set is removed, prunes to minimality in
    a few deterministic orders with the committed-in set held fixed, and
    accepts only if the pruned set passes full verification on the
    original graph.  Contracted committed ids are resolved by trying their
    original ids in order and keeping the first combination that verifies.
    """
    fixed = [v for v in sorted(inst.required) if v not in inst.expansions]
    merged = [v for v in sorted(inst.required) if v in inst.expansions]
    excluded: set[int] = set()
    for v in inst.removed | inst.forbidden | inst.required:
        excluded.update(inst.originals_of(v))
    addable = ctx.pristine.vertices - excluded
    for combo in product(*(inst.expansions[v] for v in merged)):
        base = frozenset(fixed) | frozenset(combo)
        live = ctx.pristine.vertices - base
        core = live - peel(ctx.pristine, live)
        start = frozenset(base | (core & addable))
        if not is_acyclic_without(ctx.pristine, start):
            continue
        for order in _prune_orders(ctx, base, start - base):
            candidate = prune_to_minimal(ctx.pristine, start, order)
            if not ctx.required0 <= candidate or candidate & ctx.forbidden0:
                continue
            if len(candidate - ctx.required0) < ctx.k0:
                continue
            certificate = is_minimal_fvs(ctx.pristine, candidate)
            if certificate is not None:
                return Solution(candidate, certificate)
    return None


# -- branching ----------------------------------------------------------------


def _deepest_free_leaf(inst: ExtensionInstance) -> tuple[int, dict[int, int | None]]:
    """Deepest leaf over all free trees (roots at minimum ids, ties by id)."""
    free = inst.free_vertices()
    parent: dict[int, int | None] = {}
    depth: dict[int, int] = {}
    seen: set[int] = set()
    for root in sorted(free):
        if root in seen:
            continue
        parent[root] = None
        depth[root] = 0
        seen.add(root)
        frontier = [root]
        while frontier:
            nxt: list[int] = []
            for x in frontier:
                for y in sorted(inst.search.neighbors(x) & free):
                    if y in seen:
                        continue
                    seen.add(y)
                    parent[y] = x
                    depth[y] = depth[x] + 1
                    nxt.append(y)
            frontier = nxt
    best = min(depth, key=lambda v: (-depth[v], v))
    return best, parent


def _commit(inst: ExtensionInstance, inside: Iterable[int] = (), outside: Iterable[int] = ()) -> ExtensionInstance:
    inside = frozenset(inside)
    outside = frozenset(outside)
    return replace(
        inst,
        required=inst.required | inside,
        forbidden=inst.forbidden | outside,
        k=inst.k - len(inside),
    )


def _detached_free(ctx: _Context, inst: ExtensionInstance, x: int) -> bool:
    """No original behind x is adjacent to a deleted vertex.

    Deleted vertices never serve on cycles that avoid the whole
    committed-in set, but certificates of committed vertices run through
    themselves and may re-enter deleted territory next to x.  Degree-based
    exchange arguments are therefore only trusted for vertices whose
    original neighborhoods stay clear of everything deleted.
    """
    if not inst.removed:
        return True
    gone: set[int] = set()
    for r in inst.removed:
        gone.update(inst.originals_of(r))
    return all(not (ctx.pristine.neighbors(rep) & gone) for rep in inst.originals_of(x))


def _children(ctx: _Context, inst: ExtensionInstance, v: int, parent: Mapping[int, int | None]) -> list[ExtensionInstance]:
    forbidden_nbrs = inst.search.neighbors(v) & inst.forbidden
    if len(forbidden_nbrs) >= 2:
        # Deepest leaf touching several forbidden trees: either it is in the
        # solution or it merges those trees, so both branches drop the measure.
        return [_commit(inst, inside=(v,)), _commit(inst, outside=(v,))]

    if len(forbidden_nbrs) != 1:
        raise VerificationError("fringe stripping left a free leaf without a forbidden neighbor")
    pi = parent[v]
    if pi is None:
        raise VerificationError("a free leaf with one forbidden neighbor has no parent")
    pi_degree = len(inst.search.neighbors(pi) - inst.required)

    if pi_degree == 2:
        common = inst.search.neighbors(v) & inst.search.neighbors(pi)
        if (
            inst.search.degree(v) == 2
            and inst.search.degree(pi) == 2
            and common
            and _detached_free(ctx, inst, v)
            and _detached_free(ctx, inst, pi)
        ):
            # v, its parent and their shared forbidden neighbor form a
            # triangle only v or the parent can break, and at full degree
            # two with clean original neighborhoods a parent-inside
            # solution swaps into a v-inside one of equal size.
            if not common <= inst.forbidden:
                raise VerificationError("a free degree-two pair shares a free neighbor")
            return [_commit(inst, inside=(v,), outside=(pi,))]
    elif not inst.search.neighbors(pi) & inst.forbidden:
        # Parent of free degree >= 3 whose neighbors outside `required` are
        # all free leaf children.  When every child has clean full degree
        # two, a parent-inside solution converts into one that swaps the
        # parent for children (hitting all its cycles), so three branches
        # suffice and the all-outside one merges forbidden trees.
        children = [
            u
            for u in sorted(inst.search.neighbors(pi) - inst.required - inst.forbidden)
            if parent.get(u) == pi
        ]
        if v not in children or len(children) < 2:
            raise VerificationError("a free parent of degree >= 3 lacks two leaf children")
        if all(
            inst.search.degree(c) == 2 and _detached_free(ctx, inst, c)
            for c in children
        ):
            v2 = next(u for u in children if u != v)
            return [
                _commit(inst, inside=(v,)),
                _commit(inst, inside=(v2,)),
                _commit(inst, outside=(v, v2, pi)),
            ]

    # Exhaustive by construction: v inside, or the parent inside, or both
    # outside.  The all-outside branch may keep the measure flat when the
    # parent touches no forbidden tree; such nodes are counted for audit.
    ctx.fallback_branchings += 1
    return [
        _commit(inst, inside=(v,)),
        _commit(inst, inside=(pi,)),
        _commit(inst, outside=(v, pi)),
    ]


def _solve(ctx: _Context, inst: ExtensionInstance, depth: int) -> Solution | None:
    ctx.nodes += 1
    ctx.max_depth = max(ctx.max_depth, depth)
    if not _forbidden_is_forest(inst):
        return None
    inst = _reduce_to_fixpoint(inst, ctx.fired)
    if not _partial_minimality(ctx, inst):
        return None
    if inst.k <= 0:
        witness = _complete_witness(ctx, inst)
        if witness is not None:
            return witness
        ctx.completion_failures += 1
    if not inst.free_vertices():
        return None
    v, parent = _deepest_free_leaf(inst)
    for child in _children(ctx, inst, v, parent):
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

    Raises ValueError when the committed sets overlap or their union is not
    a feedback vertex set; a forbidden side that is not a forest is a plain
    no-instance.
    """
    required = frozenset(required)
    forbidden = frozenset(forbidden)
    unknown = (required | forbidden) - g.vertices
    if unknown:
        raise KeyError(f"unknown vertices: {sorted(unknown)}")
    if required & forbidden:
        raise ValueError(f"overlapping commitments: {sorted(required & forbidden)}")
    if not is_fvs(g, required | forbidden):
        raise ValueError("required and forbidden together must form an fvs")

    start = time.perf_counter()
    ctx = _Context(g, required, forbidden, k)
    root = ExtensionInstance(search=g, required=required, forbidden=forbidden, k=k)
    gamma_root = root.gamma()
    witness = _solve(ctx, root, depth=0)

    if witness is not None:
        # Re-verify the emitted witness independently of search state.
        if is_minimal_fvs(g, witness.vertices) is None:
            raise VerificationError("extension witness is not a minimal fvs")
        if not required <= witness.vertices or witness.vertices & forbidden:
            raise VerificationError("extension witness breaks the commitments")
        if len(witness.vertices - required) < k:
            raise VerificationError("extension witness is too small")
    return SolveReport(
        outcome="yes" if witness is not None else "no",
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
