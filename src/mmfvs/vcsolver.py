"""Exact solver parameterized by the vertex cover number.

Every minimal fvs S meets a minimum vertex cover C in S ∩ C, so the cover
side is guessed outright (2^vc guesses).  For one guess, the final forest
outside the solution consists of the committed-out cover vertices plus a
set Z of independent "connector" vertices gluing their components into
trees; every other surviving independent vertex closes a cycle with that
forest and must join the solution.  The search for Z (`find_connectors`,
run on each settled guess) guesses how the components group into trees (a
partition), how each group is assembled from blocks joined by one
connector each, and which cross edges hook the blocks together; candidates
for each connector are pinned down by exact adjacency counts and grouped
once per block by the blocks they meet, the block trees are read off those
target sets, and a group of s components takes at most s - 1 connectors
(`_splits`).  Guesses are enumerated with fewer connectors first, up to
the last count that can beat the best so far, so the first assignment that
verifies is the largest solution the cover guess can give; it comes back
with the tree count of its final forest.  Nothing is trusted from the
search state: a candidate solution is kept only after a minimality check
(one union-find sweep over the 2-core, the same one that checks the cover
side's private cycles), and the one that becomes the new best is then
certified in full on the input graph (`verify.is_minimal_fvs`).

The cover-side guesses come from `cover_guesses`, a branch and bound that
the approximation scheme shares.  Both solvers keep only a strictly
larger result, so a guess is cut when its bound is no larger than the
best so far.  Each split whose cover_out side is a forest is bounded
first without settling it: the cover side plus the independents with two
or more neighbours in cover_out, the only ones that can survive the
degree rule.  A split that passes is reduced once by `graph.settle`, the
fixpoint of the round (`graph.peel`, then `graph.cycle_closers`) that the
extension search and the approximation scheme run too, and bounded
again: here the cover side, the forced vertices and every free vertex but
the one connector the search must pick.  Only a guess that survives both
cuts has its cover side checked for private cycles.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterator, Sequence

from mmfvs.graph import Forest, Graph, peel, settle
from mmfvs.report import Solution, SolveReport
from mmfvs.verify import (
    VerificationError,
    is_minimal_fvs,
    min_vertex_cover,
    partial_minimality_ok,
)


def set_partitions(
    items: Sequence[int], blocks: int | None = None
) -> Iterator[list[tuple[int, ...]]]:
    """Partitions of `items`, into exactly `blocks` blocks when given.

    Restricted-growth strings in lexicographic order: each item joins an
    earlier block, in order, or opens a new one last.  Blocks come out
    ordered by first element, so enumeration order is canonical and
    deterministic.  A prefix whose items left cannot fill `blocks` is cut.
    """
    n = len(items)

    def grow(i: int, parts: list[tuple[int, ...]]) -> Iterator[list[tuple[int, ...]]]:
        if blocks is not None and len(parts) + n - i < blocks:
            return
        if i == n:
            yield parts
            return
        for b, part in enumerate(parts):
            yield from grow(i + 1, [*parts[:b], (*part, items[i]), *parts[b + 1:]])
        if blocks is None or len(parts) < blocks:
            yield from grow(i + 1, [*parts, (items[i],)])

    return grow(0, [])


@dataclass(frozen=True)
class CoverGuess:
    """One cover-side guess, reduced by `graph.settle`.

    `out` holds the live committed-out vertices, `inside` the independents
    the cycle rule forced into the solution, and `free` the independents
    still undecided.
    """

    cover_in: frozenset[int]
    out: frozenset[int]
    free: frozenset[int]
    inside: frozenset[int]


def settle_guess(
    g: Graph, cover_in: frozenset[int], cover_out: frozenset[int], tally: Counter[str]
) -> CoverGuess:
    """The guess (cover_in, cover_out) with `graph.settle` run to fixpoint."""
    out, free, inside = set(cover_out), set(g.vertices - cover_in - cover_out), set()
    settle(g, out, free, inside, tally)
    return CoverGuess(cover_in, frozenset(out), frozenset(free), frozenset(inside))


def _splits(sizes: Sequence[int], left: int) -> Iterator[tuple[int, ...]]:
    """Ways to spend `left` connectors over parts of these sizes, in order.

    A part of s components takes at least one connector when s > 1 and at
    most s - 1.  A settled free vertex has at least two neighbours in the
    committed-out forest, none of them outside its part, and as the
    connector of a block it meets each component of that block once and
    each of its target blocks once.  With c blocks the targets are the c - 1
    tree edges, so summing over the blocks gives s + c - 1 >= 2c, that is
    c <= s - 1.  A larger count never had a candidate.
    """
    if not sizes:
        if left == 0:
            yield ()
        return
    s = sizes[0]
    for c in range(min(s - 1, 1), min(s - 1, left) + 1):
        for rest in _splits(sizes[1:], left - c):
            yield (c, *rest)


def _joins_one_tree(targets: Sequence[frozenset[int]]) -> bool:
    """Whether the edges b -> t, for t in targets[b], join all blocks into one tree.

    They must number one fewer than the blocks and reach every block; an
    edge given both ways counts twice but reaches only once.
    """
    if sum(map(len, targets)) != len(targets) - 1:
        return False
    near = [set(t) for t in targets]
    for b, t in enumerate(targets):
        for o in t:
            near[o].add(b)
    reached, stack = {0}, [0]
    while stack:
        new = near[stack.pop()] - reached
        reached |= new
        stack.extend(new)
    return len(reached) == len(targets)


class _ConnectorSearch:
    """Connector search state for one settled cover-side guess.

    `free_nbrs` lists the free independents ascending, each with its
    neighbors in the committed-out forest, and `most` is the largest
    connector count whose result is larger than `beat`.
    """

    def __init__(self, g: Graph, guess: CoverGuess, beat: int, counters: Counter[str]):
        self.g = g
        self.guess = guess
        self.counters = counters
        self.free_nbrs = [(x, g.neighbors(x) & guess.out) for x in sorted(guess.free)]
        self.most = len(guess.cover_in) + len(guess.inside) + len(guess.free) - beat - 1

    def _part_plans(self, part: tuple[frozenset[int], ...], connectors: int) -> list[list[list[int]]]:
        """The plans of one part, each a list of per-block candidate lists.

        A part without connectors is one component and one plan with no
        blocks.  Otherwise its components are grouped into one block per
        connector.  A candidate for a block's connector is adjacent to
        exactly one vertex of every component of its block, has no
        committed-out neighbor outside the part, and meets the blocks of its
        target set once each and no other block.  Each block's candidates
        are grouped once by target set, and the block trees are read off
        them: a choice of one such set per block (larger sets first, then by
        sorted members, in product order) is a plan when its edges b -> t
        join the blocks into one tree (`_joins_one_tree`).
        `structure_guesses` counts the choices tried.

        The plan order decides only which assignment inside one (connector
        count, component partition, split) is tried first, so the first
        triple with a verified assignment, the solution size and
        `winning_trees` do not depend on it; only which connector set of
        that count comes back does.  With two blocks the order is ({1}, {})
        before ({}, {0}), as decoding the oriented labeled trees from their
        Pruefer sequences gives.
        """
        if connectors == 0:
            return [[]]
        part_union = frozenset().union(*part)
        local = [(x, nb) for x, nb in self.free_nbrs if nb <= part_union]
        plans = []
        for raw in set_partitions(range(len(part)), connectors):
            unions = [frozenset().union(*(part[i] for i in block)) for block in raw]
            base = [
                [(x, nb) for x, nb in local if all(len(nb & part[i]) == 1 for i in block)]
                for block in raw
            ]
            if not all(base):
                continue
            by_targets: list[dict[frozenset[int], list[int]]] = [{} for _ in raw]
            for b, cands in enumerate(base):
                for x, nb in cands:
                    met = [o for o in range(len(raw)) if o != b and nb & unions[o]]
                    if all(len(nb & unions[o]) == 1 for o in met):
                        by_targets[b].setdefault(frozenset(met), []).append(x)
            ordered = [sorted(groups, key=lambda t: (-len(t), sorted(t))) for groups in by_targets]
            for targets in product(*ordered):
                self.counters["structure_guesses"] += 1
                if _joins_one_tree(targets):
                    plans.append([groups[t] for groups, t in zip(by_targets, targets)])
        return plans

    def _try_assignment(self, trees: int, connectors: tuple[int, ...]) -> frozenset[int] | None:
        guess = self.guess
        z = frozenset(connectors)
        # one union-find over the final forest answers acyclicity, the tree
        # count and the cycle closers below
        forest = Forest(self.g)
        acyclic = forest.extend(guess.out | z, stop_at_cycle=True)
        if not acyclic or forest.trees() != trees:
            self.counters["forest_check_failures"] += 1
            return None
        # every leftover independent vertex must close a cycle with one of
        # the final trees, or it cannot be a minimal member of the solution
        leftover = guess.free - z
        if not all(forest.closes_cycle(x) for x in leftover):
            self.counters["assignments_rejected_structure"] += 1
            return None
        solution = guess.cover_in | guess.inside | leftover
        # one sweep over g - solution answers both checks: the cover side's
        # private cycles, then the rest of `verify.is_minimal` (acyclicity
        # and the private cycles of the other members).  g is a 2-core: the
        # peeled vertices lie on no cycle, so every answer is the input's.
        rest = Forest.without(self.g, solution)
        if not all(rest.closes_cycle(w) for w in guess.cover_in):
            self.counters["assignments_rejected_partial"] += 1
            return None
        if not (rest.acyclic and all(rest.closes_cycle(w) for w in solution - guess.cover_in)):
            self.counters["guess_rejected_at_verify"] += 1
            return None
        return solution

    def _assignments(
        self, parts: list[tuple[frozenset[int], ...]], split: tuple[int, ...]
    ) -> Iterator[tuple[int, ...]]:
        """Connectors for one split, distinct ones only.

        Each part's plans are built once; a part with none ends the split.
        """
        per_part = []
        for part, connectors in zip(parts, split):
            plans = self._part_plans(part, connectors)
            if not plans:
                return
            per_part.append(plans)
        for plans in product(*per_part):
            for connectors in product(*(slot for plan in plans for slot in plan)):
                if len(set(connectors)) == len(connectors):
                    yield connectors

    def search(self) -> tuple[frozenset[int], int] | None:
        if self.most < 0:
            return None
        comps = self.g.induced(self.guess.out).components()
        if not self.guess.free:
            self.counters["assignments_tried"] += 1
            solution = self._try_assignment(len(comps), ())
            return None if solution is None else (solution, len(comps))
        # Fewer connectors first: each one shrinks the solution by one, so
        # the first verified hit is this guess's maximum.  Zero connectors
        # cannot work here: a surviving independent vertex meets every
        # committed-out component at most once, so it would have no private
        # cycle in the unglued forest.  A part of s components takes at most
        # s - 1 connectors (`_splits`), so no count reaches len(comps).
        for z_total in range(1, min(len(self.guess.free), len(comps) - 1, self.most) + 1):
            for partition in set_partitions(range(len(comps))):
                self.counters["comp_partitions"] += 1
                parts = [tuple(comps[i] for i in part) for part in partition]
                for split in _splits([len(p) for p in parts], z_total):
                    for connectors in self._assignments(parts, split):
                        self.counters["assignments_tried"] += 1
                        solution = self._try_assignment(len(parts), connectors)
                        if solution is not None:
                            return solution, len(parts)
        return None


def find_connectors(
    g: Graph, guess: CoverGuess, beat: int, counters: Counter[str]
) -> tuple[frozenset[int], int] | None:
    """(solution, trees) for one settled guess of g, or None.

    g is a 2-core and `guess` one that `cover_guesses` yields on it; the
    solution is the largest minimal fvs of g larger than `beat` (-1 takes
    any) the guess gives, without a certificate, and `trees` the number of
    trees of its final forest g[out | Z], where `out` is what `graph.settle`
    kept of the committed-out side.  The search returns the first
    connector count z = 1, 2, ... that verifies, of size |cover_in| +
    |inside| + |free| - z, and tries only the z whose size exceeds `beat`.
    If the uncapped search's first verified z is one of them, the capped
    one tries the same counts in the same order and returns the same
    result; if not, that result is no larger than `beat`, and every count
    tried here failed there too.
    """
    return _ConnectorSearch(g, guess, beat, counters).search()


def cover_guesses(
    g: Graph,
    cover: frozenset[int],
    tally: Counter[str],
    bound: Callable[[CoverGuess], int],
    can_win: Callable[[int], bool],
) -> Iterator[CoverGuess]:
    """Settled splits of a vertex cover that some minimal fvs can take.

    Branch and bound over (cover_in, cover_out) splits of `cover`, a vertex
    cover of g, smaller cover_in first, lexicographic within a size.
    `bound` gives the size of the largest result the caller can make of a
    settled guess, and `can_win(size)` says whether a result of that size
    would beat the caller's best; it must not turn False as size grows.

    A split whose cover_out side is not a forest is dropped.  The rest are
    bounded before they are settled: every independent x has N(x) inside
    the cover, so in g - cover_in its degree is |N(x) & cover_out|, and the
    first `peel` of `graph.settle` deletes it when that is at most one.
    Settling after that only deletes free vertices or moves them inside,
    so the settled inside and free sets lie in L = {x : |N(x) - cover_in|
    >= 2}, and a caller whose `bound` counts no more than cover_in, inside
    and free stays within |cover_in| + |L|.  A split whose |cover_in| + |L|
    cannot win is cut unsettled; it is one the settled bound would cut too.
    The independents are grouped by their neighbourhood in the cover, so
    |L| is a sum over the classes.  A split that passes is settled
    (`settle_guess`) and asked again with `bound`, and only a guess that
    can still win has the private cycles of its cover_in side checked, one
    sweep each (`verify.partial_minimality_ok`).

    `tally` counts every split in "cover_guesses", both bounds' cuts in
    "guesses_cut_by_bound", the private-cycle rejects in
    "wrong_cover_guesses" and the yielded guesses in
    "viable_cover_guesses"; `settle_guess` adds the reductions of the
    splits that pass the first bound.
    """
    ordered = sorted(cover)
    bit = {v: 1 << i for i, v in enumerate(ordered)}
    classes = Counter(sum(bit[w] for w in g.neighbors(x)) for x in g.vertices - cover)
    # only edges inside the cover decide whether cover_out is a forest
    cover_graph = g.induced(cover)
    for size in range(len(ordered) + 1):
        for picked in combinations(ordered, size):
            tally["cover_guesses"] += 1
            cover_in = frozenset(picked)
            cover_out = cover - cover_in
            if not Forest(cover_graph).extend(cover_out, stop_at_cycle=True):
                continue
            out_mask = sum(bit[w] for w in cover_out)
            live = sum(n for nb, n in classes.items() if (nb & out_mask).bit_count() >= 2)
            if not can_win(size + live):
                tally["guesses_cut_by_bound"] += 1
                continue
            guess = settle_guess(g, cover_in, cover_out, tally)
            if not can_win(bound(guess)):
                tally["guesses_cut_by_bound"] += 1
                continue
            if cover_in and not partial_minimality_ok(g, cover_in):
                # no minimal fvs meets the cover in exactly this set
                tally["wrong_cover_guesses"] += 1
                continue
            tally["viable_cover_guesses"] += 1
            yield guess


def _search_bound(guess: CoverGuess) -> int:
    """Size of the largest solution the connector search can give `guess`.

    The solution is cover_in, the forced independents and the free ones
    no connector takes, and while free ones remain the search picks at
    least one connector.
    """
    return len(guess.cover_in) + len(guess.inside) + max(len(guess.free) - 1, 0)


# search counters that `solve_vc` reports under their own names
_REPORTED = (
    "cover_guesses", "guesses_cut_by_bound", "viable_cover_guesses", "comp_partitions",
    "structure_guesses", "assignments_tried", "assignments_rejected_partial",
    "assignments_rejected_structure", "guess_rejected_at_verify", "forest_check_failures",
)


def solve_vc(g: Graph) -> tuple[Solution, SolveReport]:
    """A largest minimal fvs, by guessing its intersection with a cover.

    The extra `winning_trees` is the tree count `find_connectors` gave the
    best: the trees of the settled forest on the 2-core, not those of
    G - solution.  Vertices off the 2-core, and committed-out vertices
    that `graph.settle` peeled once the forced vertices joined the
    solution, belong to no tree.  On the apex pair with n = 6 (hubs 0 and
    1, both adjacent to 2..5) it reads 0, while G - {2, 3, 4, 5} is the
    edge {0, 1}, one tree.
    """
    start = time.perf_counter()
    counters: Counter[str] = Counter()
    # vertices of degree <= 1 sit on no cycle and join no minimal fvs, so
    # the private cycles that cover guesses check are the same in `reduced`
    low = peel(g, g.vertices)
    counters["outer_degree_prune"] += len(low)
    reduced = g.delete(low)

    cover = min_vertex_cover(reduced)
    best: Solution | None = None
    best_trees = 0

    def can_win(size: int) -> bool:
        # a result replaces the best only when it is strictly larger
        return best is None or size > len(best.vertices)

    for guess in cover_guesses(reduced, cover, counters, _search_bound, can_win):
        found = find_connectors(reduced, guess, len(best.vertices) if best else -1, counters)
        if found is None:
            continue
        # only a new best gets a certificate
        solution, best_trees = found
        certificate = is_minimal_fvs(g, solution)
        if certificate is None:
            raise VerificationError("a checked connector solution got no certificate")
        best = Solution(solution, certificate)
    if best is None:
        raise VerificationError("no cover guess extended, yet the empty one always does")
    report = SolveReport(
        outcome="yes",
        solution=best,
        nodes_explored=counters["assignments_tried"],
        reductions_fired={
            name: counters[name]
            for name in ("outer_degree_prune", "reduction_degree", "reduction_force")
        },
        max_depth=0,
        wall_time=time.perf_counter() - start,
        extras={
            "cover_size": len(cover),
            "cover": tuple(sorted(cover)),
            **{name: counters[name] for name in _REPORTED},
            "winning_trees": best_trees,
        },
    )
    return best, report
