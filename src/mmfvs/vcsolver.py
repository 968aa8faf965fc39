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
closes a cycle; the walk's tree labels give each pick's forest, its
leftover cycle closers and its tree count without a union-find.  The
first pick that verifies is the largest solution the cover guess can
give.  In the worst case this enumeration is 2^O(vc^2), above the paper's
2^O(vc log vc).  The search runs on `graph.chain_kernel` of the input.
A candidate solution is kept only after a minimality check (one
union-find sweep over the kernel, the same one that checks the cover
side's private cycles), and only the final best is certified in full on
the input graph (`verify.is_minimal_fvs`), once per call.

The cover-side guesses come from `cover_guesses`, a branch and bound that
the approximation scheme shares; each caller says with `can_win` which
result sizes it could still use.  The splits are bitmasks over the
cover.  Each is bounded by the independents that can survive the degree
rule before its cover_out side is flooded, and a split whose cover_out
side is a forest is bounded again by the cycle rank of g - cover_in
before `graph.settle` reduces it, and once after, by `_search_bound`:
the cover side, the forced vertices and every free vertex but one, the
connector the search must pick or the free vertex a verified greedy
candidate leaves out.  Only a guess that survives every cut has its
cover side checked for private cycles.  A side the cycle-rank cut or
that check rules out is dead, and so is every larger side: the walk
skips them unbounded.  `cover_guesses` proves each bound and the skip.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from mmfvs.graph import Forest, Graph, chain_kernel, settle
from mmfvs.report import Solution, SolveReport, certify
from mmfvs.verify import VerificationError, min_vertex_cover, partial_minimality_ok


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
    """The guess (cover_in, cover_out) reduced by `graph.settle`.

    `tally` counts the deletions in "reduction_degree" and the moves in "reduction_force".
    """
    out, free, inside = set(cover_out), set(g.vertices - cover_in - cover_out), set()
    gone, closers = settle(g, out, free, inside)
    tally["reduction_degree"] += len(gone)
    tally["reduction_force"] += len(closers)
    return CoverGuess(cover_in, frozenset(out), frozenset(free), frozenset(inside))


def _try_assignment(
    g: Graph, guess: CoverGuess, connectors: tuple[int, ...], counters: Counter[str]
) -> frozenset[int] | None:
    """The solution the connectors leave when it is a minimal fvs of g."""
    solution = guess.cover_in | guess.inside | (guess.free - frozenset(connectors))
    # one sweep over g - solution answers both checks: the cover side's
    # private cycles, then the rest of `verify.is_minimal` (acyclicity
    # and the private cycles of the other members).  g is the chain kernel,
    # whose cycles are the input's one for one, so every answer is the input's.
    rest = Forest.without(g, solution)
    if not all(rest.closes_cycle(w) for w in guess.cover_in):
        counters["assignments_rejected_partial"] += 1
        return None
    if not (rest.acyclic and all(rest.closes_cycle(w) for w in solution - guess.cover_in)):
        counters["guess_rejected_at_verify"] += 1
        return None
    return solution


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
    and so on whose private cycle survives.)  Connector counts z = 1, 2, ...
    are tried in turn, each over the z-subsets of the representatives in
    lexicographic order; a representative is skipped as soon as two of its
    committed-out neighbours lie in one tree of g[out | chosen so far], so
    g[out | Z] is a forest.  A full pick whose final labels leave some
    representative without two components in one tree is rejected;
    the rest go through `_try_assignment`, and the first that verifies is
    returned, of size |cover_in| + |inside| + |free| - z, with the number
    of labels as its tree count.  Each connector joins two or more trees,
    so z stops at one below the component count of g[out], and at the last
    z whose size exceeds `beat`.  If the uncapped search's first verified z
    is one of those, the capped one tries the same picks in the same order
    and returns the same result; if not, that result is no larger than
    `beat`, and every pick tried here failed there too.  With at most 2^vc
    twin classes and z < vc, the enumeration is 2^O(vc^2) in the worst
    case, not the paper's 2^O(vc log vc).
    """
    most = len(guess.cover_in) + len(guess.inside) + len(guess.free) - beat - 1
    if most < 0:
        return None
    comps = g.induced(guess.out).components()
    if not guess.free:
        counters["assignments_tried"] += 1
        solution = _try_assignment(g, guess, (), counters)
        return None if solution is None else (solution, len(comps))
    tree_of = {v: t for t, comp in enumerate(comps) for v in comp}
    twins: dict[frozenset[int], int] = {}
    for x in sorted(guess.free):
        twins.setdefault(g.neighbors(x), x)
    reps = [(x, [tree_of[u] for u in g.neighbors(x) & guess.out]) for x in sorted(twins.values())]

    def picks(start: int, size: int, label: list[int]) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        # label[t] names the tree of g[out | chosen] that component t lies in
        if size == 0:
            yield (), label
            return
        for i in range(start, len(reps) - size + 1):
            x, hit = reps[i]
            joined = {label[t] for t in hit}
            if len(joined) < len(hit):
                continue
            low = min(joined)
            merged = [low if tree in joined else tree for tree in label]
            for rest, final in picks(i + 1, size - 1, merged):
                yield (x, *rest), final

    # Fewer connectors first: each one shrinks the solution by one, so the
    # first verified hit is this guess's maximum.  Zero connectors cannot
    # work here: a settled free vertex meets every committed-out component
    # at most once, so it would have no private cycle in the unglued forest.
    for z in range(1, min(len(reps), len(comps) - 1, most) + 1):
        for connectors, label in picks(0, z, list(range(len(comps)))):
            counters["assignments_tried"] += 1
            # each leftover must close a cycle with the final trees, its twins
            # close the same, a connector's twins a 4-cycle through it, and a
            # connector's own components all share its label
            if not all(len({label[t] for t in hit}) < len(hit) for _, hit in reps):
                counters["assignments_rejected_structure"] += 1
                continue
            solution = _try_assignment(g, guess, connectors, counters)
            if solution is not None:
                return solution, len(set(label))
    return None


def tree_masks(adj: dict[int, int], out: int) -> list[int] | None:
    """The components of the bitmask graph on `out`, or None if it has a cycle.

    `adj` maps each single-bit vertex to its neighbour mask.  Each
    component is flooded from its lowest bit, and it is a tree iff it has
    one edge fewer than vertices; each edge is counted from both ends.
    """
    comps = []
    rest = out
    while rest:
        comp = frontier = rest & -rest
        ends = 0
        while frontier:
            low = frontier & -frontier
            near = adj[low] & out
            ends += near.bit_count()
            fresh = near & ~comp
            comp |= fresh
            frontier = (frontier ^ low) | fresh
        if ends != 2 * comp.bit_count() - 2:
            return None
        comps.append(comp)
        rest &= ~comp
    return comps


def cycle_rank(classes: Counter[int], out: int, comps: list[int]) -> int:
    """μ(g - cover_in) = m - n + c, from masks alone.

    `classes` maps each neighbour mask of the independents, over the
    cover, to how many independents share it, `out` is the cover_out mask
    and `comps` the components of the forest g[cover_out] (`tree_masks`).  The forest's own edges add
    nothing to m - n + c, nor does an independent with at most one
    neighbour in `out`.  One with d >= 2 adds d - 1 to m - n, and c drops
    by one for each merge of two components it makes.
    """
    rank = 0
    groups = comps
    for nb, count in classes.items():
        hit = nb & out
        d = hit.bit_count()
        if d < 2:
            continue
        rank += count * (d - 1)
        joined = [group for group in groups if group & hit]
        if len(joined) > 1:
            rank -= len(joined) - 1
            groups = [group for group in groups if not group & hit]
            groups.append(sum(joined))
    return rank


def cover_guesses(
    g: Graph, cover: frozenset[int], tally: Counter[str], can_win: Callable[[int], bool]
) -> Iterator[CoverGuess]:
    """Settled splits of a vertex cover that some minimal fvs can take.

    Branch and bound over (cover_in, cover_out) splits of `cover`, a vertex
    cover of g, smaller cover_in first, lexicographic within a size.
    `can_win(size)` says whether the caller could use a result of that
    size: one that beats its best, and for `approx.approx_solve` one that
    also reaches its threshold.  It must not turn False as size grows, and
    a size it refuses must stay refused for the rest of the walk.

    Both callers make of a settled guess a minimal fvs of g that holds
    cover_in, the forced vertices and some free ones, and it has at most
    `_search_bound(guess)` vertices: all of them, less one while free
    vertices remain.  The connector search picks at least one connector.
    The greedy run (`approx._run_greedy`) keeps all of them only if it
    moves no free vertex out and its peeling deletes none.  Its out side
    then only shrinks, so no free x is ever forced inside and each joins
    the candidate S with its cover_out neighbours in distinct trees of
    g[out], as settling left them.  The vertices peeled on the way hang
    off in pendant trees and join no two trees, so x has no private cycle
    in g - (S - x) and S is not minimal.

    The splits are bitmasks over the sorted cover, each cover vertex has
    its neighbour mask within the cover, and the independents are grouped
    into (neighbour mask, count) classes, of which only those with two or
    more cover neighbours are walked; only a split that gets settled
    becomes sets.  Every independent x has N(x) inside the cover, so in
    g - cover_in its degree is |N(x) & cover_out|, and the first `peel` of
    `graph.settle` deletes it when that is at most one.  Settling after
    that only deletes free vertices or moves them inside, so the settled
    inside and free sets lie in L = {x : |N(x) - cover_in| >= 2}, and
    `_search_bound` stays within |cover_in| + |L|.  A split whose
    |cover_in| + |L| cannot win is cut first, from the masks alone; it is
    one the settled bound would cut too.  Only a split that passes has its
    cover_out side flooded (`tree_masks`, one component at a time), and it
    is dropped when that side is not a forest.

    Settling only shrinks out, so an x of L whose cover_out neighbours lie
    in distinct components of g[cover_out] never closes a cycle there and
    never moves inside: it is either peeled or left free, and either way
    `_search_bound` stays within |cover_in| + |L| - 1.  A split with such
    an x whose |cover_in| + |L| - 1 cannot win is cut unsettled.  A split
    that passes is then cut, still unsettled, when |cover_in| + μ(g -
    cover_in) cannot win (`cycle_rank`, μ = m - n + c): the private
    cycles of a minimal fvs S are linearly independent in the cycle
    space, since each is the only one of them through its member
    (Diestel, *Graph Theory*, §1.9), and those of S - cover_in lie in
    g - cover_in, so |S - cover_in| <= μ(g - cover_in).  The -1 never applies
    to that term; it holds for |L| alone.  A split that passes both is
    settled (`settle_guess`) and bounded again with `_search_bound`, and
    only a guess that can still win has the private cycles of its
    cover_in side checked, one sweep each (`verify.partial_minimality_ok`).

    Some cuts rule out every larger cover_in side too.  Let f(T) = |T| +
    μ(g - T).  If T passes the sweep, each v of T lies on a cycle of
    g - (T - v), so deleting v there lowers μ by at least one and f(T) <=
    f(T - v).  If T fails it, so does every T' ⊇ T, since g - (T' - v)
    lies inside g - (T - v); so every subset of a passing side passes, and
    f never rises along a chain of subsets up to a passing side.  Call a
    side dead when the cycle-rank cut removes it or it fails the sweep.
    A later side T' ⊇ T of a dead T then either fails the sweep or has
    f(T') <= f(T), which could not win at T and cannot win now, so it is
    never yielded.  A split with a dead side one smaller is skipped before
    any other work and marked dead itself; the walk goes up one size at a
    time, so every superset of a dead side is skipped, and only the dead
    sides of the size below need keeping.  The |L| cuts, the settled bound
    and a cyclic cover_out side mark nothing: a larger cover_in shrinks L
    and cover_out, so a split they remove can have supersets that win.

    `tally` counts every split in "cover_guesses"; the two |L| cuts, the
    cycle-rank cut, the settled bound and the skipped splits in
    "guesses_cut_by_bound"; the sides that fail the sweep in
    "wrong_cover_guesses" and the yielded guesses in
    "viable_cover_guesses".  A split with a cyclic cover_out side that the
    |L| cut lets through is counted in "cover_guesses" alone.
    `settle_guess` adds the reductions of the splits that get settled.
    The split and cut counts reach `tally` before each yield and at the
    end.
    """
    ordered = sorted(cover)
    bit = {v: 1 << i for i, v in enumerate(ordered)}
    vertex_of = {b: v for v, b in bit.items()}
    adj = {bit[v]: sum(bit[w] for w in g.neighbors(v) if w in bit) for v in ordered}
    classes = Counter(sum(bit[w] for w in g.neighbors(x)) for x in g.vertices - cover)
    # an independent with at most one cover neighbour is never live
    live = {nb: count for nb, count in classes.items() if nb & (nb - 1)}
    everything = (1 << len(ordered)) - 1
    splits = cuts = 0
    dead: set[int] = set()  # the dead cover_in masks of the size before
    for size in range(len(ordered) + 1):
        below, dead = dead, set()
        for picked in combinations(vertex_of, size):
            splits += 1
            in_mask = sum(picked)
            if below and any(in_mask - b in below for b in picked):
                dead.add(in_mask)
                cuts += 1
                continue
            out_mask = everything - in_mask
            most = size
            hits = []
            for nb, count in live.items():
                hit = nb & out_mask
                if hit & (hit - 1):
                    most += count
                    hits.append(hit)
            if not can_win(most):
                cuts += 1
                continue
            comps = tree_masks(adj, out_mask)
            if comps is None:
                continue
            if not can_win(most - 1) and any(
                all((hit & comp).bit_count() <= 1 for comp in comps) for hit in hits
            ):
                cuts += 1
                continue
            if not can_win(size + cycle_rank(live, out_mask, comps)):
                dead.add(in_mask)
                cuts += 1
                continue
            cover_in = frozenset(vertex_of[b] for b in picked)
            guess = settle_guess(g, cover_in, cover - cover_in, tally)
            if not can_win(_search_bound(guess)):
                cuts += 1
                continue
            if cover_in and not partial_minimality_ok(g, cover_in):
                # no minimal fvs meets the cover in this set or any larger one
                dead.add(in_mask)
                tally["wrong_cover_guesses"] += 1
                continue
            tally["viable_cover_guesses"] += 1
            tally["cover_guesses"] += splits
            tally["guesses_cut_by_bound"] += cuts
            splits = cuts = 0
            yield guess
    tally["cover_guesses"] += splits
    tally["guesses_cut_by_bound"] += cuts


def _search_bound(guess: CoverGuess) -> int:
    """Size of the largest solution the connector search or the greedy run can give `guess`.

    The solution is cover_in, the forced independents and the free ones
    no connector takes, and while free ones remain the search picks at
    least one connector; a verified greedy candidate leaves one out too
    (see `cover_guesses`).
    """
    return len(guess.cover_in) + len(guess.inside) + max(len(guess.free) - 1, 0)


# search counters that `solve_vc` reports under their own names;
# "comp_partitions" and "structure_guesses" counted the partition search
# that `find_connectors` replaced, "forest_check_failures" a per-pick check
# the walk made moot; all retired, always 0 until the trace stops reading them
_REPORTED = (
    "cover_guesses", "guesses_cut_by_bound", "viable_cover_guesses", "comp_partitions",
    "structure_guesses", "assignments_tried", "assignments_rejected_partial",
    "assignments_rejected_structure", "guess_rejected_at_verify", "forest_check_failures",
)


def solve_vc(g: Graph) -> tuple[Solution, SolveReport]:
    """A largest minimal fvs, by guessing its intersection with a cover.

    The search runs on `graph.chain_kernel(g)`: the 2-core, whose cycles
    are all of g's, with each chain of degree-2 vertices shortened to its
    lowest ids.  Every cycle of g passes through the kernel in the same
    way, so the private cycles that cover guesses check are the same
    there, and the kernel's largest minimal fvs has g's optimum size; the
    best, and only it, is certified on g, once per call.  The extras
    `cover`, `cover_size` and `winning_trees` describe the kernel: a
    minimum vertex cover of it, at most vc(g) in size, and the tree count
    `find_connectors` gave the best, the trees of the settled forest on
    the kernel, not those of G - solution.  Committed-out vertices that `graph.settle` peeled once
    the forced vertices joined the solution belong to no tree.  On the
    apex pair with n = 6 (hubs 0 and 1, both adjacent to 2..5) it reads 0,
    while G - {2, 3, 4, 5} is the edge {0, 1}, one tree.  `nodes_explored`
    is 0: the extra `assignments_tried` counts the connector assignments.
    """
    start = time.perf_counter()
    kernel = chain_kernel(g)
    cover = min_vertex_cover(kernel)
    counters: Counter[str] = Counter()
    counters["outer_degree_prune"] = len(g) - len(kernel)
    best: frozenset[int] | None = None
    best_trees = 0

    def can_win(size: int) -> bool:
        # a result replaces the best only when it is strictly larger
        return best is None or size > len(best)

    for guess in cover_guesses(kernel, cover, counters, can_win):
        found = find_connectors(kernel, guess, -1 if best is None else len(best), counters)
        if found is not None:
            # `_try_assignment` has checked it; the certificate waits for the last
            best, best_trees = found
    if best is None:
        raise VerificationError("no cover guess extended, yet the empty one always does")
    solution = certify(g, best, "the best connector solution")
    report = SolveReport(
        solution=solution,
        reductions_fired={
            name: counters[name]
            for name in ("outer_degree_prune", "reduction_degree", "reduction_force")
        },
        wall_time=time.perf_counter() - start,
        extras={
            "cover_size": len(cover),
            "cover": tuple(sorted(cover)),
            **{name: counters[name] for name in _REPORTED},
            "winning_trees": best_trees,
        },
    )
    return solution, report
