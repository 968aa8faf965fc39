"""Solution-size parameterized solver.

To decide whether some minimal fvs has at least k vertices, greedily build
a minimal fvs W: if it is already large enough we are done, and otherwise
every target solution meets W in one of its subsets, so the extension
solver is run once per bipartition guess of W.  The exact optimum follows
by sweeping k upward from |W| + 1 until the first refusal.
"""

from __future__ import annotations

import time
from itertools import combinations

from mmfvs.extension import solve_extension
from mmfvs.graph import Graph
from mmfvs.report import Solution, SolveReport
from mmfvs.verify import VerificationError, greedy_minimal_fvs, is_minimal_fvs


def _certified_greedy(g: Graph, w: frozenset[int]) -> Solution:
    certificate = is_minimal_fvs(g, w)
    if certificate is None:
        raise VerificationError("greedy fvs is not a minimal fvs")
    return Solution(w, certificate)


def solve_k(g: Graph, k: int) -> SolveReport:
    """Decide whether g has a minimal fvs of size at least k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    start = time.perf_counter()
    w = greedy_minimal_fvs(g)
    if len(w) >= k:
        return SolveReport(
            outcome="yes",
            solution=_certified_greedy(g, w),
            nodes_explored=0,
            reductions_fired={},
            max_depth=0,
            wall_time=time.perf_counter() - start,
            extras={"greedy_size": len(w), "guesses_tried": 0, "nodes_per_guess": []},
        )

    ordered = sorted(w)
    nodes_per_guess: list[int] = []
    fired_total: dict[str, int] = {}
    max_depth = 0
    witness: Solution | None = None
    guesses = 0
    # Ascending intersection size, lexicographic within a size: the guess is
    # which part of W the solution keeps.
    for size in range(len(w) + 1):
        for picked in combinations(ordered, size):
            guesses += 1
            required = frozenset(picked)
            report = solve_extension(g, required, w - required, k - size)
            nodes_per_guess.append(report.nodes_explored)
            max_depth = max(max_depth, report.max_depth)
            for name, count in report.reductions_fired.items():
                fired_total[name] = fired_total.get(name, 0) + count
            if report.is_yes:
                witness = report.solution
                break
        if witness is not None:
            break
    return SolveReport(
        outcome="yes" if witness is not None else "no",
        solution=witness,
        nodes_explored=sum(nodes_per_guess),
        reductions_fired=fired_total,
        max_depth=max_depth,
        wall_time=time.perf_counter() - start,
        extras={
            "greedy_size": len(w),
            "guesses_tried": guesses,
            "nodes_per_guess": nodes_per_guess,
        },
    )


def opt_exact_solution(g: Graph) -> tuple[int, Solution]:
    """Largest minimal fvs size along with a witness.

    The greedy minimal fvs W answers every k <= |W| at once, so the sweep
    starts at k = |W| + 1 and stops at the first no, which is valid
    because yes-instances are downward closed in k.
    """
    w = greedy_minimal_fvs(g)
    best = _certified_greedy(g, w)
    opt = len(w)
    for k in range(opt + 1, len(g) + 1):
        report = solve_k(g, k)
        if not report.is_yes:
            break
        if report.solution is None:
            raise VerificationError(f"solve_k(g, {k}) said yes without a witness")
        best = report.solution
        opt = k
    return opt, best


def opt_exact(g: Graph) -> int:
    """Largest size of a minimal fvs of g."""
    return opt_exact_solution(g)[0]
