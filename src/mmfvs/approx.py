"""Approximation scheme with an additive opt-minus-vc guarantee.

For one guessed cover side, every independent vertex is driven either into
the solution or into the growing outside forest: a vertex moves outside
only when doing so keeps the committed cover vertices minimal, and each
move merges at least two outside trees, so at most vc vertices are ever
moved and the best guess misses the optimum by at most vc.  Knowing
whether the optimum reaches the threshold vc/eps turns that additive
loss into a (1 - eps) factor, and `approx_solve` has one exit for each
answer.  A verified greedy best of at least the threshold proves yes and
is returned.  Otherwise the exact optimum, which is always a valid
answer, comes from `ksolver.opt_exact_solution`, which costs at most
`vcsolver.solve_vc`'s worst case on the chain kernel, whose vertex cover
is at most vc.

The greedy runs on `graph.chain_kernel(g)`, the 2-core with each chain
of degree-2 vertices shortened to its lowest ids, and vc is the size of
a minimum vertex cover of that kernel, at most vc(g).  The kernel's
minimal fvs are g's that avoid the dropped vertices, with the same ids,
and they reach g's optimum, so the additive loss stays at most vc and
the threshold vc/eps keeps the (1 - eps) factor.  For the same reason
the kernel's degree-sum bound `graph.degree_bound` is at least g's
optimum, and a threshold above it is out of every candidate's reach, so
the greedy is skipped there.  Every minimality check is made on the
kernel, whose answers are g's, and only the one certificate on g.

The cover-side guesses come settled, and bounded, from
`vcsolver.cover_guesses`.  Its docstring proves that a verified greedy
candidate never exceeds `vcsolver._search_bound`, the bound the
connector search has, so a guess whose bound cannot reach the threshold,
or cannot beat the best candidate so far, is cut before its greedy run.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

from mmfvs.graph import Graph, chain_kernel, cycle_closers, degree_bound, peel
from mmfvs.ksolver import opt_exact_solution
from mmfvs.report import Solution, SolveReport, certify
from mmfvs.vcsolver import CoverGuess, cover_guesses
from mmfvs.verify import VerificationError, is_minimal, members_have_private_cycles, min_vertex_cover


def _run_greedy(
    g: Graph, guess: CoverGuess, counters: Counter[str], conflict_sizes: Counter[int]
) -> tuple[frozenset[int], tuple[int, ...]]:
    """The greedy candidate of one settled cover-side guess and the vertices it moved.

    A step takes the smallest undecided independent u and its conflict
    set, the free vertices that would close a cycle once u joins the
    outside forest.  When the committed-in side keeps its private cycles
    with the conflict set pulled inside, u moves to the outside forest and
    the conflict set joins the solution; otherwise u itself joins the
    solution.  Each step moves every closer of the new out side inside,
    so after it `peel` alone settles the guess again (see `graph.settle`),
    counted in "reduction_degree"; `conflict_sizes` counts the conflict
    sets by size.
    """
    cover_in = guess.cover_in
    out, free, inside = set(guess.out), set(guess.free), set(guess.inside)
    moved: list[int] = []
    while free:
        u = min(free)
        # Free vertices are independents, so none is adjacent to u, and the
        # guess is settled, so none has two neighbours in one tree of g[out].
        # Adding u merges the trees it touches, so x closes a cycle with
        # g[out | {u}] exactly when two of x's trees touch u.
        s_u = set(cycle_closers(g, out | {u}, free - {u}))
        conflict_sizes[len(s_u)] += 1
        if members_have_private_cycles(g, cover_in | inside | s_u, cover_in):
            inside |= s_u
            free -= s_u
            out.add(u)
            moved.append(u)
        else:
            inside.add(u)
        free.discard(u)
        gone = peel(g, out | free)
        out -= gone
        free -= gone
        counters["reduction_degree"] += len(gone)
    return cover_in | inside, tuple(moved)


@dataclass(frozen=True)
class ApproxResult:
    solution: Solution
    mode: str  # "exact" | "greedy"
    report: SolveReport


def approx_solve(g: Graph, epsilon: float) -> ApproxResult:
    """A verified minimal fvs of size at least (1 - epsilon) * opt.

    vc is the size of a minimum vertex cover of the kernel
    `graph.chain_kernel(g)`, and the greedy runs over that kernel's cover
    guesses only when threshold = ceil(vc / epsilon) is at most the
    kernel's `degree_bound`.  Each candidate is checked on the kernel with
    the boolean `is_minimal`.  A verified best of at least the threshold
    proves opt >= vc / epsilon, so its additive loss opt - best <= vc is
    at most epsilon * opt: mode "greedy", and that best alone gets a
    certificate on g.  Any other call returns `opt_exact_solution(g)` in
    mode "exact", with the extras vc, threshold and opt.  Either mode
    reports `nodes_explored` 0, since approx searches no extension nodes.

    Only a candidate of at least the threshold can be returned, so
    `can_win` asks for one along with beating the best so far, and the
    best is None exactly when the exact route answers.  This gives the
    best that the bare beat-the-best rule would give.  Let G1 be the first
    guess whose verified candidate reaches the threshold under that rule.
    Each guess the threshold cuts before G1 has a bound below it, so it
    can only give less; G1 is the first hit under both rules and runs
    under both.  From G1 on the best is at least the threshold, and the
    two rules cut the same guesses.  A best below the threshold, which is
    all the bare rule could find without G1, went to the exact route
    anyway.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    start = time.perf_counter()
    counters: Counter[str] = Counter()
    conflict_sizes: Counter[int] = Counter()
    kernel = chain_kernel(g)
    cover = min_vertex_cover(kernel)
    vc = len(cover)
    threshold = max(1, math.ceil(vc / epsilon))

    best: frozenset[int] | None = None
    moved_of_best = 0
    max_moved = 0

    def can_win(size: int) -> bool:
        # only a candidate at the threshold can be returned, and it replaces
        # the best only when it is strictly larger
        return size >= threshold and (best is None or size > len(best))

    # past the kernel's degree-sum bound no candidate can reach the threshold
    if threshold <= degree_bound(kernel, (), kernel.vertices):
        for guess in cover_guesses(kernel, cover, counters, can_win):
            candidate, moved = _run_greedy(kernel, guess, counters, conflict_sizes)
            if len(moved) > vc:
                raise VerificationError("a greedy move merged no outside trees")
            max_moved = max(max_moved, len(moved))
            # every candidate gets the boolean check on the kernel it was built
            # on; only the final best gets a certificate, on g
            if not is_minimal(kernel, candidate):
                counters["guess_rejected_at_verify"] += 1
                continue
            counters["verified_guesses"] += 1
            if can_win(len(candidate)):
                best = candidate
                moved_of_best = len(moved)
    if best is None:
        # no verified candidate proves opt >= threshold: solve outright
        opt, sol = opt_exact_solution(g)
        extras = {"vc": vc, "threshold": threshold, "opt": opt}
        return ApproxResult(sol, "exact", SolveReport(sol, time.perf_counter() - start, extras=extras))
    solution = certify(g, best, "the greedy best")
    report = SolveReport(
        solution=solution,
        reductions_fired={
            name: counters[name] for name in ("reduction_degree", "reduction_force")
        },
        wall_time=time.perf_counter() - start,
        extras={
            "vc": vc,
            "threshold": threshold,
            # only the guesses that reached the greedy rounds
            "cover_guesses": counters["viable_cover_guesses"],
            "guesses_cut_by_bound": counters["guesses_cut_by_bound"],
            "wrong_cover_guesses": counters["wrong_cover_guesses"],
            "verified_guesses": counters["verified_guesses"],
            "guess_rejected_at_verify": counters["guess_rejected_at_verify"],
            "max_moved": max_moved,
            "moved_of_best": moved_of_best,
            "conflict_histogram": dict(conflict_sizes),
        },
    )
    return ApproxResult(solution, "greedy", report)
