"""Differential tier past the exhaustive corpus: 9-13-vertex graphs.

Seeded gnp graphs, the apex-pair family and outputs of the PPT reduction
are solved by brute force and by every exact solver, which must agree on
the optimum and on `solve_k` just at and just past it; `approx_solve` must
meet its (1 - eps) * opt guarantee with a verified solution.  So the
rules that refute large k (the degree-sum bound, the free-vertex cut) are
checked past the exhaustive corpus too.  Sparse gnp graphs of 18-22
vertices check `solve_vc` against the `solve_k` sweep from k = 0, on its
chain kernel and on the plain 2-core, where the connector search joins
three or more blocks into one tree; `opt_exact` itself answers through
`solve_vc` there, so it is no independent oracle.  Hub-path graphs, hubs
joined in a path by pairs of independents plus a few independents on
random hub pairs, have no chains to shorten, so there the connector search
joins three or more hubs into one tree on the chain kernel itself, and
`solve_vc` is checked against brute force.  A hypothesis test draws
connected graphs of at most 9 vertices and shrinks any disagreement to a
minimal one.
"""

import math
import random

import pytest
from hypothesis import given, settings

from mmfvs import vcsolver, verify
from mmfvs.approx import approx_solve
from mmfvs.graph import Graph, chain_kernel, two_core
from mmfvs.instances import generate
from mmfvs.ksolver import opt_exact_solution, solve_k
from mmfvs.oracle import opt_mmfvs_brute
from mmfvs.vcsolver import solve_vc
from mmfvs.verify import is_minimal_fvs

from helpers import connected_graphs, opt_exact_sweep_reference, opt_exact_witness_reference


def gnp_graphs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        params = {"n": rng.randint(9, 13), "p": rng.uniform(0.15, 0.5)}
        yield generate("gnp", params, seed=rng.randrange(1 << 30))


def reduction_graphs(count, seed):
    # base graphs on 2-4 vertices give 9, 11 and 13 vertices after the reduction
    rng = random.Random(seed)
    for _ in range(count):
        params = {"n": rng.randint(2, 4), "p": rng.uniform(0.3, 0.9), "k": 0}
        yield generate("reduction-output", params, seed=rng.randrange(1 << 30))


FAMILIES = {
    "gnp": lambda: list(gnp_graphs(200, seed=9)),
    "apexpair": lambda: [generate("apexpair", {"n": n}) for n in range(9, 14)],
    "reduction-output": lambda: list(reduction_graphs(40, seed=13)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_exact_solvers_and_approx_match_brute_force(family):
    mismatches = []
    for i, g in enumerate(FAMILIES[family]()):
        opt = opt_mmfvs_brute(g).opt_value
        found, witness = opt_exact_solution(g)
        if found != opt or len(witness.vertices) != opt or is_minimal_fvs(g, witness.vertices) is None:
            mismatches.append((i, "opt_exact", found, opt))
        cover_sol, _ = solve_vc(g)
        if len(cover_sol.vertices) != opt or is_minimal_fvs(g, cover_sol.vertices) is None:
            mismatches.append((i, "solve_vc", len(cover_sol.vertices), opt))
        at, past = solve_k(g, opt), solve_k(g, opt + 1)
        if not at.is_yes or past.is_yes:
            mismatches.append((i, "solve_k", at.outcome, past.outcome, opt))
        for eps in (0.25, 0.5, 0.9):
            result = approx_solve(g, eps)
            vertices = result.solution.vertices
            if len(vertices) < math.ceil((1 - eps) * opt) or is_minimal_fvs(g, vertices) is None:
                mismatches.append((i, "approx", eps, len(vertices), opt))
            if result.mode == "exact" and len(vertices) != opt:
                mismatches.append((i, "approx exact mode", eps, len(vertices), opt))
    assert not mismatches, mismatches[:5]


def hub_path(rng):
    """4-5 pairwise non-adjacent hubs, two independents between consecutive
    hubs and 1-3 more on random hub pairs; each independent has degree two."""
    hubs = rng.randint(4, 5)
    pairs = [(h, h + 1) for h in range(hubs - 1) for _ in range(2)]
    pairs += [tuple(sorted(rng.sample(range(hubs), 2))) for _ in range(rng.randint(1, 3))]
    edges = [(hub, hubs + i) for i, pair in enumerate(pairs) for hub in pair]
    return Graph(range(hubs + len(pairs)), edges)


@pytest.fixture
def largest_trees(monkeypatch):
    """Connectors per tree of each final forest `find_connectors` returns."""
    largest = []
    search = vcsolver.find_connectors

    def recorded(g, guess, beat, counters):
        found = search(g, guess, beat, counters)
        if found is not None:
            z = guess.free - found[0]
            largest.extend(len(tree & z) for tree in g.induced(guess.out | z).components())
        return found

    monkeypatch.setattr(vcsolver, "find_connectors", recorded)
    return largest


def test_solve_vc_matches_brute_force_where_connectors_join_hubs(largest_trees):
    rng = random.Random(3)
    mismatches, larger_trees = [], 0
    for i in range(24):
        g = hub_path(rng)
        largest_trees.clear()
        sol, _ = solve_vc(g)
        if len(sol.vertices) != opt_mmfvs_brute(g).opt_value or is_minimal_fvs(g, sol.vertices) is None:
            mismatches.append(i)
        larger_trees += max(largest_trees, default=0) >= 3
    assert not mismatches, mismatches
    assert larger_trees >= 12


def test_solve_vc_matches_opt_exact_where_blocks_join_into_larger_trees(monkeypatch, largest_trees):
    # sparse graphs of 18-22 vertices, where on the 2-core some winning
    # connector sets put three or more connectors into one tree of
    # g[out | Z]; chain shortening leaves few such sets, so the search runs
    # on the 2-core as well as on the kernel
    rng = random.Random(11)
    mismatches, larger_trees = [], 0
    for i in range(24):
        n = rng.randint(18, 22)
        g = generate("gnp", {"n": n, "p": rng.uniform(2.6, 3.2) / n}, seed=rng.randrange(1 << 30))
        opt = opt_exact_sweep_reference(g)[0]
        for searched in (chain_kernel, two_core):
            largest_trees.clear()
            with monkeypatch.context() as patch:
                # solve_vc searches the kernel that `verify.Prepared` takes
                patch.setattr(verify, "chain_kernel", searched)
                sol, _ = solve_vc(g)
            if len(sol.vertices) != opt or is_minimal_fvs(g, sol.vertices) is None:
                mismatches.append((i, searched.__name__))
        larger_trees += max(largest_trees, default=0) >= 3
    assert not mismatches, mismatches
    assert larger_trees > 0


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
def test_exact_solvers_agree_on_shrinkable_graphs(g):
    opt = opt_mmfvs_brute(g).opt_value
    found, witness = opt_exact_solution(g)
    assert found == len(witness.vertices) == opt
    cover_sol, _ = solve_vc(g)
    assert len(cover_sol.vertices) == opt
    assert solve_k(g, opt).is_yes and not solve_k(g, opt + 1).is_yes
    ref_witness = opt_exact_witness_reference(g)
    assert (found, witness.vertices, witness.certificate) == (
        opt_exact_sweep_reference(g)[0], ref_witness.vertices, ref_witness.certificate
    )
    result = approx_solve(g, 0.5)
    vertices = result.solution.vertices
    assert len(vertices) >= math.ceil(0.5 * opt) and is_minimal_fvs(g, vertices) is not None
    if result.mode == "exact":
        assert len(vertices) == opt
