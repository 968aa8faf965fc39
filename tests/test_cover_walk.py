"""The cover-split walk yields what the per-split walk yields, in the same order.

`vcsolver.cover_guesses` cuts a split by the |L| bound before flooding its
cover_out side, and skips every split with a dead side one smaller (one
that the cycle-rank cut or the private-cycle sweep ruled out).  Neither
rule may change what it yields.  Here both walks run in lockstep under
the real callers, `solve_vc` and `approx_solve`: each guess the new walk
yields must equal the one `helpers.cover_guesses_reference` yields with
the caller's bound at that point, and both must end together.  The
callers then see the same guesses, so their answers, witnesses, modes
and certificates are those the per-split walk gives.  Checked on every
eighth connected graph up to 8 vertices (the whole corpus takes about
10 s this way) and on seeded sparse gnp graphs whose chain kernels have
vertex covers of 10 to 14.  `approx_solve` runs where its gate lets the
greedy walk the guesses; elsewhere it answers through `solve_vc`.
"""

import math
import random
from collections import Counter
from itertools import zip_longest

import pytest

from mmfvs import approx, vcsolver
from mmfvs.approx import approx_solve
from mmfvs.graph import chain_kernel
from mmfvs.vcsolver import solve_vc
from mmfvs.verify import min_vertex_cover

from helpers import cover_guesses_reference, gnp, kernel_bound


@pytest.fixture
def lockstep(monkeypatch):
    """Run the per-split walk beside every `cover_guesses` call; count the guesses compared."""
    walk = vcsolver.cover_guesses
    compared = Counter()

    def both(g, cover, tally, can_win):
        reference = cover_guesses_reference(g, cover, Counter(), can_win)
        for new, old in zip_longest(walk(g, cover, tally, can_win), reference):
            assert new == old, (g, cover)
            compared["guesses"] += 1
            yield new
        compared["walks"] += 1

    monkeypatch.setattr(vcsolver, "cover_guesses", both)
    monkeypatch.setattr(approx, "cover_guesses", both)
    return compared


def sparse_graphs():
    """The first seeded sparse gnp graph whose chain kernel has each vertex cover size from 10 to 14."""
    rng = random.Random(31)
    by_cover = {}
    while len(by_cover) < 5:
        n = rng.randint(22, 34)
        g = gnp(n, rng.uniform(2.6, 3.4) / n, rng.randrange(1 << 30))
        vc = len(min_vertex_cover(chain_kernel(g)))
        if 10 <= vc <= 14:
            by_cover.setdefault(vc, g)
    return [by_cover[vc] for vc in sorted(by_cover)]


def runs_the_greedy(g, epsilon):
    """Does `approx_solve`'s gate let the greedy walk the cover guesses?"""
    vc = len(min_vertex_cover(chain_kernel(g)))
    return math.ceil(vc / epsilon) <= kernel_bound(g)


def walk_both(graphs, lockstep):
    """Solve each graph with `solve_vc` and, where the gate lets the greedy run, `approx_solve`."""
    greedy = 0
    for g in graphs:
        solve_vc(g)
        if runs_the_greedy(g, 0.9):
            greedy += approx_solve(g, 0.9).mode == "greedy"
    assert lockstep["walks"] >= len(graphs) and lockstep["guesses"] > 0
    return greedy


def test_the_walk_yields_the_per_split_guesses_on_small_graphs(lockstep, connected_corpus):
    assert walk_both(connected_corpus[::8], lockstep) > 0


def test_the_walk_yields_the_per_split_guesses_on_sparse_graphs(lockstep):
    walk_both(sparse_graphs(), lockstep)
