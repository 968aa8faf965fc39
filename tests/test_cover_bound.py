"""The branch and bound over cover guesses cuts only guesses that cannot win.

`cover_guesses` bounds each split before settling it by |cover_in| + |L|,
L the independents with two or more neighbours outside cover_in, then
settles it, asks the caller's bound, and only then tests the split's
private cycles, one sweep per cover side.  Checked here on seeded random,
apex-pair and reduction-output graphs, on every split whose cover_out
side is a forest: each bound is at least what the unbounded search gives,
the unsettled bound is at least both settled ones, each solver cuts
exactly the guesses whose settled bound is at most its best so far while
settling exactly the splits whose unsettled bound beats it, and only the
non-empty sides of the splits that pass both bounds are swept.  On the same
settled guesses, the connector search's part plans are checked against a
per-target-choice filter, and a part of s components is checked to have
no plan with s connectors.
"""

import random
from collections import Counter
from functools import cache
from itertools import combinations

import pytest

from mmfvs import vcsolver
from mmfvs.approx import _greedy_bound, _run_greedy, approx_solve
from mmfvs.graph import Forest, Graph, peel
from mmfvs.instances import generate
from mmfvs.vcsolver import (
    _ConnectorSearch,
    _search_bound,
    find_connectors,
    settle_guess,
    solve_vc,
)
from mmfvs.verify import is_minimal, min_vertex_cover, partial_minimality_ok

from helpers import gnp, part_plans_reference


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


def live_bound(g, cover, cover_in):
    """|cover_in| + |L|, L the independents with two or more neighbours outside cover_in."""
    independents = g.vertices - cover
    return len(cover_in) + sum(1 for x in independents if len(g.neighbors(x) - cover_in) >= 2)


@pytest.fixture
def settled(monkeypatch):
    """The cover_in sides `cover_guesses` settles, in order."""
    sides = []

    def recorded(g, cover_in, cover_out, tally):
        sides.append(cover_in)
        return settle_guess(g, cover_in, cover_out, tally)

    monkeypatch.setattr(vcsolver, "settle_guess", recorded)
    return sides


def vc_setting(g):
    """The graph and cover `solve_vc` enumerates its guesses on."""
    reduced = g.delete(peel(g, g.vertices))
    return reduced, min_vertex_cover(reduced)


def test_connector_results_stay_within_the_search_bound():
    tight = 0
    for g in corpus():
        reduced, cover = vc_setting(g)
        for cover_in, cover_out in forest_splits(reduced, cover):
            guess = settle_guess(reduced, cover_in, cover_out, Counter())
            bound = _search_bound(guess)
            found = find_connectors(reduced, guess, -1, Counter())
            if found is not None:
                solution, _ = found
                assert len(solution) <= bound, (g, cover_in)
                tight += len(solution) == bound
    assert tight > 0


def test_a_capped_connector_search_returns_the_uncapped_result_or_none():
    kept = dropped = 0
    for g in corpus():
        reduced, cover = vc_setting(g)
        for cover_in, cover_out in forest_splits(reduced, cover):
            guess = settle_guess(reduced, cover_in, cover_out, Counter())
            uncapped = find_connectors(reduced, guess, -1, Counter())
            for beat in range(-1, _search_bound(guess) + 1):
                capped = find_connectors(reduced, guess, beat, Counter())
                if uncapped is not None and len(uncapped[0]) > beat:
                    assert capped == uncapped, (g, cover_in, beat)
                    kept += 1
                else:
                    assert capped is None, (g, cover_in, beat)
                    dropped += uncapped is not None
    assert kept > 0 and dropped > 0


def connector_searches():
    """(search, components of g[out]) for every settled guess with a free vertex."""
    for g in corpus():
        reduced, cover = vc_setting(g)
        for cover_in, cover_out in forest_splits(reduced, cover):
            guess = settle_guess(reduced, cover_in, cover_out, Counter())
            if guess.free:
                comps = reduced.induced(guess.out).components()
                yield _ConnectorSearch(reduced, guess, -1, Counter()), comps


def test_a_part_of_s_components_has_no_plan_with_s_connectors():
    # the invariant that lets `_splits` stop at s - 1 connectors per part
    parts = 0
    for search, comps in connector_searches():
        for s in range(1, 5):
            for part in combinations(comps, s):
                assert search._part_plans(part, s) == [], (search.guess, part)
                parts += 1
    assert parts > 1000


def test_grouped_part_plans_match_the_per_target_filter():
    plans = guesses = 0
    for search, comps in connector_searches():
        for s in range(2, 5):
            for part in combinations(comps, s):
                for c in range(1, s):
                    expected, counted = Counter(), search.counters.copy()
                    reference = part_plans_reference(search.free_nbrs, part, c, expected)
                    assert search._part_plans(part, c) == reference, (search.guess, part, c)
                    assert search.counters - counted == expected
                    plans += len(reference)
                    guesses += expected["structure_guesses"]
    assert plans > 0
    # one per choice of target sets that all have candidates, trees or not;
    # counting every oriented tree over blocks with candidates gave 602
    assert guesses == 555


def test_greedy_candidates_stay_within_the_greedy_bound():
    tight = 0
    for g in corpus():
        for cover_in, cover_out in forest_splits(g, min_vertex_cover(g)):
            guess = settle_guess(g, cover_in, cover_out, Counter())
            candidate, _ = _run_greedy(g, guess, Counter(), Counter())
            assert len(candidate) <= _greedy_bound(guess), (g, cover_in)
            tight += len(candidate) == _greedy_bound(guess)
    assert tight > 0


def test_the_unsettled_bound_covers_both_settled_bounds():
    tight = 0
    for g in corpus():
        for h, cover in (vc_setting(g), (g, min_vertex_cover(g))):
            for cover_in, cover_out in forest_splits(h, cover):
                guess = settle_guess(h, cover_in, cover_out, Counter())
                bound = live_bound(h, cover, cover_in)
                assert bound >= _greedy_bound(guess) >= _search_bound(guess), (g, cover_in)
                tight += bound == _greedy_bound(guess)
    assert tight > 0


def replay_vc(g):
    """`solve_vc`'s optimum, bound cuts, wrong sides, settled sides and swept sides.

    Found by unbounded searches; a side is swept when its split passes
    both bounds and it is not empty.
    """
    reduced, cover = vc_setting(g)
    best, cut, wrong, settles, swept = None, 0, 0, [], []
    for cover_in, cover_out in forest_splits(reduced, cover):
        if best is None or live_bound(reduced, cover, cover_in) > best:
            settles.append(cover_in)
        guess = settle_guess(reduced, cover_in, cover_out, Counter())
        if best is not None and _search_bound(guess) <= best:
            cut += 1
            continue
        if cover_in:
            swept.append(cover_in)
            if not partial_minimality_ok(reduced, cover_in):
                wrong += 1
                continue
        found = find_connectors(reduced, guess, -1, Counter())
        if found is not None and (best is None or len(found[0]) > best):
            best = len(found[0])
    return best, cut, wrong, settles, swept


def replay_greedy(g):
    """`approx_solve`'s greedy best, bound cuts, wrong sides and settled sides, by greedy runs."""
    cover = min_vertex_cover(g)
    best, cut, wrong, settles = None, 0, 0, []
    for cover_in, cover_out in forest_splits(g, cover):
        if best is None or live_bound(g, cover, cover_in) > best:
            settles.append(cover_in)
        guess = settle_guess(g, cover_in, cover_out, Counter())
        if best is not None and _greedy_bound(guess) <= best:
            cut += 1
            continue
        if cover_in and not partial_minimality_ok(g, cover_in):
            wrong += 1
            continue
        candidate, _ = _run_greedy(g, guess, Counter(), Counter())
        if (best is None or len(candidate) > best) and is_minimal(g, candidate):
            best = len(candidate)
    return best, cut, wrong, settles


def test_solve_vc_cuts_exactly_the_guesses_that_cannot_win(settled):
    cuts = wrongs = unsettled = 0
    for g in corpus():
        # the replay's unbounded searches settle too, so record only the solve
        best, cut, wrong, settles, _ = replay_vc(g)
        settled.clear()
        solution, report = solve_vc(g)
        extras = report.extras
        splits_in = sum(1 for _ in forest_splits(*vc_setting(g)))
        viable = splits_in - cut - wrong
        assert (len(solution), extras["guesses_cut_by_bound"], extras["viable_cover_guesses"]) == (
            best, cut, viable,
        ), g
        assert settled == settles, g
        cuts += cut
        wrongs += wrong
        unsettled += splits_in - len(settles)
    assert cuts > 0 and wrongs > 0 and unsettled > 0


def test_cover_guesses_sweep_each_side_once_after_both_bounds(monkeypatch):
    sweeps = []

    def counted(g, in_set):
        sweeps.append(frozenset(in_set))
        return partial_minimality_ok(g, in_set)

    monkeypatch.setattr(vcsolver, "partial_minimality_ok", counted)
    swept = cut = 0
    for g in corpus():
        _, cut_here, _, _, expected = replay_vc(g)
        sweeps.clear()
        solve_vc(g)
        assert sweeps == expected, g
        assert len(set(sweeps)) == len(sweeps), g
        swept += len(sweeps)
        cut += cut_here
    assert swept > 0 and cut > 0


def test_approx_cuts_exactly_the_guesses_that_cannot_win(settled):
    cuts = greedy = unsettled = 0
    for g in corpus():
        settled.clear()
        result = approx_solve(g, 0.9)
        if result.mode != "greedy":
            continue
        greedy += 1
        extras = result.report.extras
        best, cut, wrong, settles = replay_greedy(g)
        assert (
            len(result.solution), extras["guesses_cut_by_bound"], extras["wrong_cover_guesses"]
        ) == (best, cut, wrong), g
        assert settled == settles, g
        cuts += extras["guesses_cut_by_bound"]
        unsettled += sum(1 for _ in forest_splits(g, min_vertex_cover(g))) - len(settles)
    assert greedy >= 50 and cuts > 0 and unsettled > 0
