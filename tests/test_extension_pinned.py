"""`solve_extension` reports pinned by two digests.

The digests cover every bipartition guess of the greedy minimal fvs W at
k = 0..4 on seeded random graphs and on graphs with subdivided edges,
whose degree-two paths make the contraction rule fire.  The answers
digest (outcome, solution, certificate) must never move: a pruning rule
that is sound cuts only subtrees without a witness.  The counters digest
(`nodes_explored`, `max_depth`, extras, reductions fired) moves whenever
the search visits other nodes, and is re-pinned with the reason stated.
"""

import hashlib
import random
from functools import cache

from mmfvs import extension
from mmfvs.extension import solve_extension
from mmfvs.graph import prune_to_minimal
from mmfvs.verify import greedy_minimal_fvs

from helpers import gnp, subdivided

# (calls, sha256) of outcome, solution and certificate; unchanged since
# the search moved to mutable sets
ANSWERS = (1085, "9ea18d98a48e4997ca2225b698d39cb703138d3d36699395129507f0d3f79e17")
# (total nodes, sha256) of the search counters since the degree-sum cut,
# which cuts nodes the free-vertex cut kept (2,659 nodes before it, and
# 3,072 before the free-vertex cut).  Re-pinned when `graph.settle` took
# its second peel: the strip after a force now runs before contraction, and
# 20 contractions give way to 20 more strips (strip_acyclic_fringe
# 5,489 -> 5,509, contract_degree_two_pairs 684 -> 664); nodes, depths,
# extras and forces are unchanged.
COUNTERS = (2005, "9a3d235b89ae75d9942c951abf662ad3b281346e281a598ec2cf6452e60e5b6f")


def corpus():
    rng = random.Random(2022)
    for seed in range(40):
        yield gnp(rng.randint(5, 9), rng.uniform(0.25, 0.5), seed=seed)
    for seed in range(25):
        yield subdivided(gnp(rng.randint(4, 6), rng.uniform(0.4, 0.7), seed=100 + seed), seed)


def bipartitions(w):
    ordered = sorted(w)
    for mask in range(1 << len(ordered)):
        inside = frozenset(v for i, v in enumerate(ordered) if mask >> i & 1)
        yield inside, w - inside


@cache
def digests():
    answers, counters = hashlib.sha256(), hashlib.sha256()
    calls = nodes = contractions = 0
    for g in corpus():
        w = greedy_minimal_fvs(g)
        for required, forbidden in bipartitions(w):
            for k in range(5):
                report = solve_extension(g, required, forbidden, k)
                solution = report.solution
                answers.update(repr((
                    report.outcome,
                    sorted(solution.vertices) if solution else None,
                    sorted(solution.certificate.items()) if solution else None,
                )).encode())
                counters.update(repr((
                    report.nodes_explored,
                    report.max_depth,
                    sorted(report.extras.items()),
                    sorted(report.reductions_fired.items()),
                )).encode())
                calls += 1
                nodes += report.nodes_explored
                contractions += report.reductions_fired.get("contract_degree_two_pairs", 0)
    return (calls, answers.hexdigest()), (nodes, counters.hexdigest()), contractions


def test_answers_match_the_pinned_digest():
    answers, _, contractions = digests()
    assert contractions > 0
    assert answers == ANSWERS


def test_reports_match_the_pinned_digest():
    _, counters, _ = digests()
    assert counters == COUNTERS


def test_every_pruned_candidate_keeps_the_commitments_and_k(monkeypatch):
    # witness completion keeps no filter for these three facts: every
    # candidate it prunes holds the required set, avoids the forbidden set
    # and has at least k vertices beyond the required set
    pruned = []

    def recorded(g, start, order):
        candidate = prune_to_minimal(g, start, order)
        pruned.append(candidate)
        return candidate

    monkeypatch.setattr(extension, "prune_to_minimal", recorded)
    checked = 0
    for g in corpus():
        w = greedy_minimal_fvs(g)
        for required, forbidden in bipartitions(w):
            for k in range(5):
                pruned.clear()
                solve_extension(g, required, forbidden, k)
                for candidate in pruned:
                    assert required <= candidate, (required, candidate)
                    assert not candidate & forbidden, (forbidden, candidate)
                    assert len(candidate - required) >= k, (required, k, candidate)
                checked += len(pruned)
    assert checked > 0
