"""Solution-size parameterized solver.

Every solver call here reads the reductions of its input g from one
`verify.Prepared` value, built at the top of the call: the 2-core C
(`graph.two_core`), the greedy minimal fvs W built on C, and, for the
exact optimum, the chain kernel's degree-sum bound and minimum vertex
cover.  A vertex off C lies on no cycle, so no minimal fvs holds one, and
g and C have the same minimal fvs; W is g's own greedy W (see
`verify.Prepared`).  A certificate built on C is also g's: a member's
private cycle runs through two of its neighbours in one tree of C - S and
the tree path between them, and the trees hung off C in g join no two of
its vertices, so neither the neighbours nor the path change.

To decide whether some minimal fvs has at least k vertices (`solve_k`),
W answers at once if it is already large enough.  Otherwise every target
solution meets W in one of its subsets, so the extension solver is run on
C once per bipartition guess of W.  The degree-sum bound
`graph.degree_bound` cuts twice before any search: a k above
`degree_bound(C, (), C.vertices)`, a bound on g's optimum, is refused
outright, and a guess that keeps `picked` of W is skipped, with no
extension call, when the bound with W - picked outside caps the vertices
it can add off W below k - |picked|.  The extension search cuts each of
its nodes by the same bound.

The exact optimum (`opt_exact_solution`) is W when |W| reaches the
kernel's bound, and otherwise comes from the vertex-cover solver
`vcsolver.solve_vc`, run on the same value, so the kernel and its cover
are taken once; its maximality rests on `solve_vc` being exact.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import chain, combinations

from mmfvs.extension import solve_extension
from mmfvs.graph import Graph, degree_bound
from mmfvs.report import Solution, SolveReport, certify
from mmfvs.vcsolver import _solve_vc
from mmfvs.verify import Prepared, VerificationError, is_minimal


def solve_k(g: Graph, k: int) -> SolveReport:
    """Decide whether g has a minimal fvs of size at least k.

    The call reads the 2-core C of g and the greedy minimal fvs W from its
    `verify.Prepared` value, and takes neither the kernel nor its cover.  W
    answers every k <= |W|; any other k searches the guesses on C, and the
    witness found there, with the certificate `solve_extension` built on C,
    is returned once the boolean `is_minimal` accepts it on g.  That
    certificate is g's (see the module docstring).  A guess the degree-sum
    bound skips still counts in `guesses_tried`, with 0 in
    `nodes_per_guess`; every other guess's search counts at least its root
    node, so `guesses_cut_by_bound` is the number of 0 entries.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    start = time.perf_counter()
    p = Prepared(g)
    core, w = p.core, p.greedy
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

    The call reads from one `verify.Prepared` value of g the greedy
    minimal fvs W, built on the 2-core, and the kernel's degree-sum bound
    on g's optimum.  W is optimal when |W| reaches that bound, and is
    returned at once.  Otherwise opt and the witness come from
    `vcsolver.solve_vc`, run on the same value, whose opt must lie in
    [|W|, bound].  An opt of |W| returns W, certified here; any other
    returns `solve_vc`'s solution, certified on g, once the boolean
    `is_minimal` accepts it on g too.  W comes back exactly when |W| is
    the optimum, whichever sound bound gates the search.  Any check
    failing raises `VerificationError`.
    """
    return _opt_exact(Prepared(g))


def _opt_exact(p: Prepared) -> tuple[int, Solution]:
    """`opt_exact_solution(p.g)`, on the parts p holds or takes now."""
    w, bound = p.greedy, p.bound
    if len(w) < bound:
        found = _solve_vc(p)[0]
        opt = len(found.vertices)
        if not len(w) <= opt <= bound:
            raise VerificationError(f"solve_vc's optimum {opt} lies outside [{len(w)}, {bound}]")
        if opt > len(w):
            if not is_minimal(p.g, found.vertices):
                raise VerificationError("solve_vc's solution is not a minimal fvs")
            return opt, found
    return len(w), certify(p.g, w, "greedy fvs")


def opt_exact(g: Graph) -> int:
    """Largest size of a minimal fvs of g."""
    return opt_exact_solution(g)[0]
