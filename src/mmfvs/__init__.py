"""Exact and approximate solvers for the Max Min Feedback Vertex Set problem.

A feedback vertex set (fvs) is a vertex set whose removal leaves a forest.
This package decides and computes the largest *minimal* fvs of a graph:
a branch-and-reduce extension solver, a solution-size parameterized wrapper,
a vertex-cover parameterized exact solver, an approximation scheme with an
additive opt-minus-vc guarantee, a parameter-preserving transformation from
Max Min Vertex Cover, and a brute-force oracle that everything is tested
against.
"""

from mmfvs.graph import Graph
from mmfvs.verify import (
    VerificationError,
    greedy_minimal_fvs,
    is_fvs,
    is_minimal_fvs,
    min_vertex_cover,
    partial_minimality_ok,
)
from mmfvs.oracle import fvs_min_brute, opt_mmfvs_brute, opt_mmvc_brute
from mmfvs.extension import solve_extension
from mmfvs.ksolver import opt_exact, opt_exact_solution, solve_k
from mmfvs.vcsolver import find_connectors, solve_vc
from mmfvs.approx import approx_solve
from mmfvs.reduction import check_ppt_equivalence, ppt_mmvc_to_mmfvs

__all__ = [
    "Graph",
    "VerificationError",
    "approx_solve",
    "check_ppt_equivalence",
    "find_connectors",
    "fvs_min_brute",
    "greedy_minimal_fvs",
    "is_fvs",
    "is_minimal_fvs",
    "min_vertex_cover",
    "opt_exact",
    "opt_exact_solution",
    "opt_mmfvs_brute",
    "opt_mmvc_brute",
    "partial_minimality_ok",
    "ppt_mmvc_to_mmfvs",
    "solve_extension",
    "solve_k",
    "solve_vc",
]
