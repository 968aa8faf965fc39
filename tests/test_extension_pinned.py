"""`solve_extension` reports pinned by two digests.

The digests cover every bipartition guess of the greedy minimal fvs W at
k = 0..4 on seeded random graphs and on graphs with subdivided edges,
whose chains of degree-2 vertices the search gets in full here (`solve_k`
shortens them first).  The outcomes must never move: a pruning rule that
is sound cuts only subtrees without a witness.  The answers digest
(outcome, solution, certificate) moves only when the search reaches
another witness first, and is re-pinned with the reason stated.  The counters digest
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

# (calls, sha256) of the outcomes alone; unchanged since the search moved
# to mutable sets, through the deletion of its degree-two contraction
OUTCOMES = (1085, "a5256949f2817a9dcf7ee72d92e22048db8d8ef7967bd3339d559c0f5f3d65e1")
# (calls, sha256) of outcome, solution and certificate.  Re-pinned when the
# search lost its degree-two contraction: with the chains in full, 37 of the
# 1,085 calls reach another witness first, 36 of them one of equal size and
# one a witness of 2 vertices in place of 3; no outcome moved.
ANSWERS = (1085, "99af32677598d350985d31a3daa59d60ca35c13864fd36a89a25c6af0db61ba6")
# (total nodes, sha256) of the search counters since the degree-sum cut,
# which cuts nodes the free-vertex cut kept (2,659 nodes before it, and
# 3,072 before the free-vertex cut).  Re-pinned when the search lost its
# degree-two contraction, which these direct calls on graphs with chains
# used (2,005 nodes with it): `solve_k` now hands the search the chain
# kernel instead.
COUNTERS = (2677, "2db5593f584b490d35655483476764a3817fb42100fe86ab6b1aa8697ad60174")


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
    outcomes, answers, counters = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    calls = nodes = 0
    for g in corpus():
        w = greedy_minimal_fvs(g)
        for required, forbidden in bipartitions(w):
            for k in range(5):
                report = solve_extension(g, required, forbidden, k)
                solution = report.solution
                outcomes.update(report.outcome.encode())
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
    return (calls, outcomes.hexdigest()), (calls, answers.hexdigest()), (nodes, counters.hexdigest())


def test_answers_match_the_pinned_digest():
    outcomes, answers, _ = digests()
    assert outcomes == OUTCOMES
    assert answers == ANSWERS


def test_reports_match_the_pinned_digest():
    _, _, counters = digests()
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
