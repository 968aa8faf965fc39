"""Solution-size parameterized solver.

Every cycle of g lies in its 2-core C (`graph.two_core`): a vertex off C
lies on no cycle, so no minimal fvs holds one, and g and C have the same
minimal fvs.  Both solvers here take C once, at the top of the call, and
work on it alone; every witness is checked again on g, and gets one
certificate per call.

To decide whether some minimal fvs has at least k vertices, greedily build
a minimal fvs W of C: if it is already large enough we are done.  W is
also the greedy minimal fvs of g.  The greedy on g drops every vertex off
C, which lies on no cycle, and whether it drops a core vertex v depends on
the core alone, since every cycle of g - (S - v) lies in C.  Otherwise
every target solution meets W in one of its subsets, so the extension
solver is run on C once per bipartition guess of W.  The degree-sum bound
`graph.degree_bound` cuts twice before any search: a k above
`degree_bound(C, (), C.vertices)`, a bound on g's optimum, is refused
outright, and a guess that keeps `picked` of W is skipped, with no
extension call, when the bound with W - picked outside caps the vertices
it can add off W below k - |picked|.  The extension search cuts each of
its nodes by the same bound.

The exact optimum (`opt_exact_solution`) is W when |W| reaches that
bound, and otherwise comes from the vertex-cover solver
`vcsolver.solve_vc` run on C, whose solution, with the certificate it
built on C, is the witness; its maximality rests on `solve_vc` being
exact.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import chain, combinations

from mmfvs.extension import solve_extension
from mmfvs.graph import Graph, degree_bound, two_core
from mmfvs.report import Solution, SolveReport, certify
from mmfvs.vcsolver import solve_vc
from mmfvs.verify import VerificationError, greedy_minimal_fvs, is_minimal


def solve_k(g: Graph, k: int) -> SolveReport:
    """Decide whether g has a minimal fvs of size at least k.

    The call takes the 2-core C of g once and builds the greedy minimal fvs
    W on it, which is g's own greedy W (see the module docstring).  W
    answers every k <= |W|; any other k searches the guesses on C, and the
    witness found there, with the certificate `solve_extension` built on
    C, is returned once the boolean `is_minimal` accepts it on g.  That
    certificate is g's, by the argument in `opt_exact_solution`.  A guess
    the degree-sum bound skips still counts in `guesses_tried`, with 0 in
    `nodes_per_guess`; every other guess's search counts at least its
    root node, so `guesses_cut_by_bound` is the number of 0 entries.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    start = time.perf_counter()
    # g and its core have the same minimal fvs, and `is_minimal_fvs`
    # certifies them alike on both: a private cycle, or a tree path between
    # two core vertices, never leaves the core.
    core = two_core(g)
    w = greedy_minimal_fvs(core)
    witness = certify(g, w, "greedy fvs") if len(w) >= k else None
    nodes_per_guess: list[int] = []
    fired: Counter[str] = Counter()
    max_depth = 0
    # Ascending intersection size, lexicographic within a size: the guess is
    # which part of W the solution keeps.  Past the bound no guess can
    # succeed, so none is tried; a guess the bound cuts counts 0 nodes.
    if witness is None and k <= degree_bound(core, (), core.vertices):
        free = core.vertices - w
        guesses = (combinations(sorted(w), size) for size in range(len(w) + 1))
        for picked in chain.from_iterable(guesses):
            required = frozenset(picked)
            if degree_bound(core, w - required, free) < k - len(picked):
                nodes_per_guess.append(0)
                continue
            report = solve_extension(core, required, w - required, k - len(picked))
            nodes_per_guess.append(report.nodes_explored)
            max_depth = max(max_depth, report.max_depth)
            fired.update(report.reductions_fired)
            if report.is_yes:
                if not is_minimal(g, report.solution.vertices):
                    raise VerificationError("extension witness is not a minimal fvs")
                witness = report.solution
                break
    return SolveReport(
        solution=witness,
        nodes_explored=sum(nodes_per_guess),
        reductions_fired=fired,
        max_depth=max_depth,
        wall_time=time.perf_counter() - start,
        extras={
            "greedy_size": len(w),
            "guesses_tried": len(nodes_per_guess),
            "guesses_cut_by_bound": nodes_per_guess.count(0),
            "nodes_per_guess": nodes_per_guess,
        },
    )


def opt_exact_solution(g: Graph) -> tuple[int, Solution]:
    """Largest minimal fvs size along with a witness.

    The call takes the 2-core C of g once, and builds on it the greedy
    minimal fvs W, g's own (see the module docstring), and the bound
    `degree_bound(C, (), C.vertices)` on g's optimum.  W is optimal
    when |W| reaches that bound, and is returned at once.  Otherwise opt
    and the witness come from `solve_vc(C)`, whose opt must lie in
    [|W|, bound]; `solve_vc` takes the 2-core of C again, which is C
    itself, so g is peeled once.  An opt of |W| returns W, certified here;
    any other returns `solve_vc`'s solution with the certificate
    `solve_vc` built on C, once the boolean `is_minimal` accepts it on g.
    That certificate is the one g would get: a member's private cycle
    runs through two of its neighbours in one tree of C - S and the tree
    path between them, and the trees hung off C in g join no two of its
    vertices, so neither the neighbours nor the path change.  Any check
    failing raises `VerificationError`.
    """
    core = two_core(g)
    w = greedy_minimal_fvs(core)
    bound = degree_bound(core, (), core.vertices)
    if len(w) < bound:
        found = solve_vc(core)[0]
        opt = len(found.vertices)
        if not len(w) <= opt <= bound:
            raise VerificationError(f"solve_vc's optimum {opt} lies outside [{len(w)}, {bound}]")
        if opt > len(w):
            if not is_minimal(g, found.vertices):
                raise VerificationError("solve_vc's solution is not a minimal fvs")
            return opt, found
    return len(w), certify(g, w, "greedy fvs")


def opt_exact(g: Graph) -> int:
    """Largest size of a minimal fvs of g."""
    return opt_exact_solution(g)[0]
