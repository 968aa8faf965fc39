"""The branch and bound over cover guesses cuts only guesses that cannot win.

`cover_guesses` settles each split, asks the caller's bound, and only then
tests the split's private cycles, answering supersets of a known-wrong
cover side from memory.  Checked here on seeded random, apex-pair and
reduction-output graphs, on every split whose cover_out side is a forest:
each bound is at least what the unbounded search gives, the memory agrees
with `partial_minimality_ok` in any query order and saves exactly the
sweeps it should, and each solver cuts exactly the guesses whose bound is
at most its best so far.
"""

import random
from collections import Counter
from functools import cache
from itertools import combinations

from mmfvs import vcsolver
from mmfvs.approx import _greedy_bound, _run_greedy, approx_solve
from mmfvs.graph import Forest, Graph, peel
from mmfvs.instances import generate
from mmfvs.vcsolver import (
    _search_bound,
    _WrongSides,
    find_connectors,
    settle_guess,
    solve_vc,
)
from mmfvs.verify import is_minimal, min_vertex_cover, partial_minimality_ok

from helpers import gnp


@cache
def corpus():
    rng = random.Random(808)
    graphs = [gnp(rng.randint(5, 9), rng.uniform(0.2, 0.6), seed=seed) for seed in range(220)]
    for _ in range(50):
        n = rng.randint(8, 16)
        extra, noise = rng.randint(1, 4), set()
        while len(noise) < extra:
            noise.add(tuple(sorted(rng.sample(range(2, n), 2))))
        g = generate("apexpair", {"n": n})
        graphs.append(Graph(g.vertices, list(g.edges()) + sorted(noise)))
    for _ in range(40):
        params = {"n": rng.randint(4, 6), "p": rng.uniform(0.3, 0.6), "k": 0}
        graphs.append(generate("reduction-output", params, rng.randrange(1 << 30)))
    return graphs


def splits(cover):
    """(cover_in, cover_out) in the order `cover_guesses` takes them."""
    ordered = sorted(cover)
    for size in range(len(ordered) + 1):
        for picked in combinations(ordered, size):
            yield frozenset(picked), cover - frozenset(picked)


def forest_splits(g, cover):
    for cover_in, cover_out in splits(cover):
        if Forest(g).extend(cover_out, stop_at_cycle=True):
            yield cover_in, cover_out


def vc_setting(g):
    """The graph and cover `solve_vc` enumerates its guesses on."""
    reduced = g.delete(peel(g, g.vertices))
    return reduced, min_vertex_cover(reduced)


def test_connector_results_stay_within_the_search_bound():
    tight = 0
    for g in corpus():
        reduced, cover = vc_setting(g)
        for cover_in, cover_out in forest_splits(reduced, cover):
            bound = _search_bound(settle_guess(reduced, cover_in, cover_out, Counter()))
            result = find_connectors(reduced, cover_in, cover_out, pristine=g)
            if result is not None:
                assert len(result.solution) <= bound, (g, cover_in)
                tight += len(result.solution) == bound
    assert tight > 0


def test_greedy_candidates_stay_within_the_greedy_bound():
    tight = 0
    for g in corpus():
        for cover_in, cover_out in forest_splits(g, min_vertex_cover(g)):
            guess = settle_guess(g, cover_in, cover_out, Counter())
            candidate, _ = _run_greedy(g, guess, Counter())
            assert len(candidate) <= _greedy_bound(guess), (g, cover_in)
            tight += len(candidate) == _greedy_bound(guess)
    assert tight > 0


def test_wrong_sides_agree_with_the_sweep_in_any_order():
    rng = random.Random(5)
    for g in corpus():
        reduced, cover = vc_setting(g)
        queries = list(splits(cover))
        for order in (queries, rng.sample(queries, len(queries)), queries[::-1]):
            wrong = _WrongSides(reduced)
            for cover_in, _ in order:
                assert (cover_in in wrong) == (not partial_minimality_ok(reduced, cover_in)), (
                    g, cover_in,
                )


def test_wrong_sides_sweep_only_sides_with_no_wrong_subset(monkeypatch):
    sweeps = []

    def counted(g, in_set):
        sweeps.append(frozenset(in_set))
        return partial_minimality_ok(g, in_set)

    monkeypatch.setattr(vcsolver, "partial_minimality_ok", counted)
    remembered = 0
    for g in corpus():
        reduced, cover = vc_setting(g)
        sides = [cover_in for cover_in, _ in splits(cover)]
        wrong_sides = [s for s in sides if s and not partial_minimality_ok(reduced, s)]
        expected = [s for s in sides if s and not any(w < s for w in wrong_sides)]
        sweeps.clear()
        wrong = _WrongSides(reduced)
        for cover_in in sides:
            cover_in in wrong
        assert sweeps == expected, g
        remembered += len(wrong_sides) - len(wrong.known)
    assert remembered > 0


def replay_vc(g):
    """`solve_vc`'s optimum, bound cuts and wrong sides, searching each guess unbounded."""
    reduced, cover = vc_setting(g)
    best, cut, wrong = None, 0, 0
    for cover_in, cover_out in forest_splits(reduced, cover):
        guess = settle_guess(reduced, cover_in, cover_out, Counter())
        if best is not None and _search_bound(guess) <= best:
            cut += 1
            continue
        if cover_in and not partial_minimality_ok(reduced, cover_in):
            wrong += 1
            continue
        result = find_connectors(reduced, cover_in, cover_out, pristine=g)
        if result is not None and (best is None or len(result.solution) > best):
            best = len(result.solution)
    return best, cut, wrong


def replay_greedy(g):
    """`approx_solve`'s greedy best, bound cuts and wrong sides, from each guess's greedy run."""
    best, cut, wrong = None, 0, 0
    for cover_in, cover_out in forest_splits(g, min_vertex_cover(g)):
        guess = settle_guess(g, cover_in, cover_out, Counter())
        if best is not None and _greedy_bound(guess) <= best:
            cut += 1
            continue
        if cover_in and not partial_minimality_ok(g, cover_in):
            wrong += 1
            continue
        candidate, _ = _run_greedy(g, guess, Counter())
        if (best is None or len(candidate) > best) and is_minimal(g, candidate):
            best = len(candidate)
    return best, cut, wrong


def test_solve_vc_cuts_exactly_the_guesses_that_cannot_win():
    cuts = wrongs = 0
    for g in corpus():
        solution, report = solve_vc(g)
        best, cut, wrong = replay_vc(g)
        extras = report.extras
        viable = sum(1 for _ in forest_splits(*vc_setting(g))) - cut - wrong
        assert (len(solution), extras["guesses_cut_by_bound"], extras["viable_cover_guesses"]) == (
            best, cut, viable,
        ), g
        cuts += cut
        wrongs += wrong
    assert cuts > 0 and wrongs > 0


def test_approx_cuts_exactly_the_guesses_that_cannot_win():
    cuts = greedy = 0
    for g in corpus():
        result = approx_solve(g, 0.9)
        if result.mode != "greedy":
            continue
        greedy += 1
        extras = result.report.extras
        assert (
            len(result.solution), extras["guesses_cut_by_bound"], extras["wrong_cover_guesses"]
        ) == replay_greedy(g), g
        cuts += extras["guesses_cut_by_bound"]
    assert greedy >= 50 and cuts > 0
