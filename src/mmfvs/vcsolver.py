"""Exact solver parameterized by the vertex cover number.

Every minimal fvs S meets a minimum vertex cover C in S ∩ C, so the cover
side is guessed outright (2^vc guesses).  For one guess, the final forest
outside the solution consists of the committed-out cover vertices plus a
set Z of independent "connector" vertices gluing their components into
trees; every other surviving independent vertex closes a cycle with that
forest and must join the solution.  The search for Z (`find_connectors`,
run on each settled guess) picks connectors directly, at most one from
each class of free vertices with the same neighbourhood, fewer first and
only while the result can beat the best so far, skipping any pick that
closes a cycle.  The first pick that verifies is the largest solution the
cover guess can give; it comes back with the tree count of its final
forest.  In the worst case this enumeration is 2^O(vc^2), above the
paper's 2^O(vc log vc).  Nothing is trusted from the search state: a
candidate solution is kept only after a minimality check (one union-find
sweep over the 2-core, the same one that checks the cover side's private
cycles), and the one that becomes the new best is then certified in full
on the input graph (`verify.is_minimal_fvs`).

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
from itertools import combinations
from typing import Callable, Iterator

from mmfvs.graph import Forest, Graph, peel, settle
from mmfvs.report import Solution, SolveReport
from mmfvs.verify import (
    VerificationError,
    is_minimal_fvs,
    min_vertex_cover,
    partial_minimality_ok,
)


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


def _try_assignment(
    g: Graph, guess: CoverGuess, connectors: tuple[int, ...], counters: Counter[str]
) -> tuple[frozenset[int], int] | None:
    """(solution, trees of g[out | Z]) when the connectors Z give a minimal fvs of g."""
    z = frozenset(connectors)
    # one union-find over the final forest answers acyclicity, the tree
    # count and the cycle closers below
    forest = Forest(g)
    if not forest.extend(guess.out | z, stop_at_cycle=True):
        counters["forest_check_failures"] += 1
        return None
    # every leftover independent vertex must close a cycle with one of
    # the final trees, or it cannot be a minimal member of the solution
    leftover = guess.free - z
    if not all(forest.closes_cycle(x) for x in leftover):
        counters["assignments_rejected_structure"] += 1
        return None
    solution = guess.cover_in | guess.inside | leftover
    # one sweep over g - solution answers both checks: the cover side's
    # private cycles, then the rest of `verify.is_minimal` (acyclicity
    # and the private cycles of the other members).  g is a 2-core: the
    # peeled vertices lie on no cycle, so every answer is the input's.
    rest = Forest.without(g, solution)
    if not all(rest.closes_cycle(w) for w in guess.cover_in):
        counters["assignments_rejected_partial"] += 1
        return None
    if not (rest.acyclic and all(rest.closes_cycle(w) for w in solution - guess.cover_in)):
        counters["guess_rejected_at_verify"] += 1
        return None
    return solution, forest.trees()


def find_connectors(
    g: Graph, guess: CoverGuess, beat: int, counters: Counter[str]
) -> tuple[frozenset[int], int] | None:
    """(solution, trees) for one settled guess of g, or None.

    g is a 2-core and `guess` one that `cover_guesses` yields on it; the
    solution is the largest minimal fvs of g larger than `beat` (-1 takes
    any) the guess gives, without a certificate, and `trees` the number of
    trees of its final forest g[out | Z], where `out` is what `graph.settle`
    kept of the committed-out side and Z the connectors.

    Z holds at most one free vertex of each twin class, the lowest id of
    the free vertices with the same whole neighbourhood in g: swapping two
    twins is an automorphism of g that fixes the guess, and two twins in Z
    would close a 4-cycle through two committed-out neighbours they share.
    (Twins by their committed-out neighbours alone can differ on cover_in
    and so on whose private cycle survives.)  Connector counts z = 1, 2,
    ... are tried in turn, each over the z-subsets of the representatives
    in lexicographic order; a representative is skipped as soon as two of
    its committed-out neighbours lie in one tree of g[out | chosen so far].
    Every full pick goes through `_try_assignment`, and the first that
    passes is returned, of size |cover_in| + |inside| + |free| - z.  Each
    connector joins two or more trees, so z stops at one below the
    component count of g[out], and at the last z whose size exceeds `beat`.
    If the uncapped search's first verified z is one of those, the capped
    one tries the same picks in the same order and returns the same result;
    if not, that result is no larger than `beat`, and every pick tried here
    failed there too.  With at most 2^vc twin classes and z < vc, the
    enumeration is 2^O(vc^2) in the worst case, not the paper's
    2^O(vc log vc).
    """
    most = len(guess.cover_in) + len(guess.inside) + len(guess.free) - beat - 1
    if most < 0:
        return None
    if not guess.free:
        counters["assignments_tried"] += 1
        return _try_assignment(g, guess, (), counters)
    comps = g.induced(guess.out).components()
    tree_of = {v: t for t, comp in enumerate(comps) for v in comp}
    twins: dict[frozenset[int], int] = {}
    for x in sorted(guess.free):
        twins.setdefault(g.neighbors(x), x)
    reps = [(x, [tree_of[u] for u in g.neighbors(x) & guess.out]) for x in sorted(twins.values())]

    def picks(start: int, size: int, label: list[int]) -> Iterator[tuple[int, ...]]:
        # label[t] names the tree of g[out | chosen] that component t lies in
        if size == 0:
            yield ()
            return
        for i in range(start, len(reps) - size + 1):
            x, hit = reps[i]
            joined = {label[t] for t in hit}
            if len(joined) < len(hit):
                continue
            low = min(joined)
            merged = [low if tree in joined else tree for tree in label]
            for rest in picks(i + 1, size - 1, merged):
                yield (x, *rest)

    # Fewer connectors first: each one shrinks the solution by one, so the
    # first verified hit is this guess's maximum.  Zero connectors cannot
    # work here: a settled free vertex meets every committed-out component
    # at most once, so it would have no private cycle in the unglued forest.
    for z in range(1, min(len(reps), len(comps) - 1, most) + 1):
        for connectors in picks(0, z, list(range(len(comps)))):
            counters["assignments_tried"] += 1
            found = _try_assignment(g, guess, connectors, counters)
            if found is not None:
                return found
    return None


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


# search counters that `solve_vc` reports under their own names;
# "comp_partitions" and "structure_guesses" counted the partition search
# that `find_connectors` replaced and are retired: always 0, kept until the
# benchmark's trace stops reading them
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
