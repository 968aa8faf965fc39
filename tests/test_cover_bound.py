"""The branch and bound over cover guesses cuts only guesses that cannot win.

`cover_guesses` bounds each split before settling it by |cover_in| + |L|,
L the independents with two or more neighbours outside cover_in, less one
when some x of L closes no cycle with g[cover_out], then by |cover_in| +
μ(g - cover_in), the cycle rank, with nothing taken off, then settles it,
asks `_search_bound`, and only then tests the split's private cycles, one
sweep per cover side.  Both solvers share that bound: the connector
search picks a connector while free vertices remain, and a verified
greedy candidate leaves one of them out too.  The replays check every
split the cycle rank cuts with an unbounded search, and a hypothesis
test checks the lemma behind it against brute force.  The walk skips
every split with a dead side one smaller, one the cycle rank cut or the
sweep ruled out; the replays do the same and check that each skipped
side fails the sweep or is one the cycle rank cuts, and a hypothesis test
checks the lemma behind the skip, |T| + μ(g - T) <= |T| - 1 + μ(g - (T - v))
for every v of a side T that passes the sweep.  A split with a cyclic
cover_out side is cut, unflooded, when its |L| bound cannot win, and
dropped uncounted otherwise.  Checked here on seeded random,
apex-pair and reduction-output graphs, on every split whose cover_out
side is a forest: each bound is at least what the unbounded search, or
a verified greedy run, gives,
the unsettled bound is at least both settled ones, and less one at least
the connector search's while such an x exists, each solver cuts exactly
the guesses whose settled bound is at most its best so far while settling
exactly the splits whose unsettled bound beats it, and only the non-empty
sides of the splits that pass both bounds are swept.  On the same settled
guesses, and on hypothesis-drawn connected graphs that shrink any
mismatch, the connector search is checked against every connector set of
the free vertices, and the bitmask forest walk against `Forest` and
`Graph.components` on every vertex subset.
"""

import random
from collections import Counter
from functools import cache
from itertools import chain, combinations
from typing import NamedTuple

import pytest
from hypothesis import given, settings

from mmfvs import approx, vcsolver
from mmfvs.approx import _run_greedy, approx_solve
from mmfvs.graph import Forest, Graph, chain_kernel
from mmfvs.instances import generate
from mmfvs.vcsolver import _search_bound, find_connectors, settle_guess, solve_vc, tree_masks
from mmfvs.verify import is_minimal, min_vertex_cover, partial_minimality_ok

from helpers import connected_graphs, gnp


def cycle_rank_reference(g):
    """μ(g) = m - n + c, the dimension of g's cycle space."""
    return g.edge_count() - len(g) + len(g.components())


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


def idle_live(g, cover, cover_out):
    """Independents with two or more neighbours in cover_out that close no cycle with g[cover_out]."""
    forest = Forest(g)
    forest.extend(cover_out)
    return {
        x for x in g.vertices - cover
        if len(g.neighbors(x) & cover_out) >= 2 and not forest.closes_cycle(x)
    }


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
    reduced = chain_kernel(g)
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


def connector_search_matches_every_subset(g):
    """Check every forest-passing split of g; the number of results found.

    The search takes one free vertex per twin class and skips picks that
    close a cycle; against every connector set of the free vertices, it
    must still find the largest minimal fvs each guess gives, and count
    the trees of its final forest g[out | Z].  Its tree-label check must
    reject every pick that leaves a free vertex closing no cycle, so the
    minimality sweep after it never rejects one: the rest of g - solution
    hangs off the forest g[out | Z] without closing a cycle.
    """
    compared = 0
    reduced, cover = vc_setting(g)
    for cover_in, cover_out in forest_splits(reduced, cover):
        guess = settle_guess(reduced, cover_in, cover_out, Counter())
        if not guess.free:
            continue
        base = guess.cover_in | guess.inside
        sizes = [
            len(base) + len(guess.free) - z
            for z in range(len(guess.free) + 1)
            for connectors in combinations(sorted(guess.free), z)
            if is_minimal(reduced, base | (guess.free - frozenset(connectors)))
        ]
        counters = Counter()
        found = find_connectors(reduced, guess, -1, counters)
        assert (found and len(found[0])) == max(sizes, default=None), (g, cover_in)
        assert counters["guess_rejected_at_verify"] == 0, (g, cover_in)
        if found is not None:
            z = guess.free - found[0]
            assert found[1] == len(reduced.induced(guess.out | z).components()), (g, cover_in)
            compared += 1
    return compared


def test_connector_search_matches_every_subset_of_the_free_vertices():
    assert sum(connector_search_matches_every_subset(g) for g in corpus()) > 300


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_connector_search_matches_every_subset_on_shrinkable_graphs(g):
    connector_search_matches_every_subset(g)


def settled_size(guess):
    """|cover_in| + |inside| + |free|: every vertex a settled guess can still hold."""
    return len(guess.cover_in) + len(guess.inside) + len(guess.free)


def test_verified_greedy_candidates_stay_within_the_search_bound():
    # a greedy run that moves and peels no free vertex puts them all in its
    # candidate, and then each has its cover_out neighbours in distinct
    # trees of g - candidate: no private cycle, so the check on g rejects it
    verified = tight = 0
    for g in corpus():
        for h, cover in (vc_setting(g), (g, min_vertex_cover(g))):
            for cover_in, cover_out in forest_splits(h, cover):
                guess = settle_guess(h, cover_in, cover_out, Counter())
                candidate, _ = _run_greedy(h, guess, Counter(), Counter())
                if not is_minimal(g, candidate):
                    continue
                verified += 1
                assert len(candidate) <= _search_bound(guess), (g, cover_in)
                tight += len(candidate) == _search_bound(guess)
    assert verified > 0 and tight > 0


def test_the_unsettled_bound_covers_both_settled_bounds():
    tight = 0
    for g in corpus():
        for h, cover in (vc_setting(g), (g, min_vertex_cover(g))):
            for cover_in, cover_out in forest_splits(h, cover):
                guess = settle_guess(h, cover_in, cover_out, Counter())
                bound = live_bound(h, cover, cover_in)
                assert bound >= settled_size(guess) >= _search_bound(guess), (g, cover_in)
                tight += bound == settled_size(guess)
    assert tight > 0


def test_a_live_vertex_closing_no_cycle_costs_the_search_bound_one():
    tight = 0
    for g in corpus():
        for h, cover in (vc_setting(g), (g, min_vertex_cover(g))):
            for cover_in, cover_out in forest_splits(h, cover):
                idle = idle_live(h, cover, cover_out)
                if not idle:
                    continue
                guess = settle_guess(h, cover_in, cover_out, Counter())
                # settle forces against g[cover_out] itself, where their
                # neighbours lie in distinct components, so none is forced inside
                assert not idle & guess.inside, (g, cover_in)
                bound = live_bound(h, cover, cover_in) - 1
                assert bound >= _search_bound(guess), (g, cover_in)
                tight += bound == _search_bound(guess)
    assert tight > 0


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_the_mask_walk_matches_forest_and_components_on_every_subset(g):
    # the whole vertex set is a vertex cover of g too
    ordered = g.sorted_vertices()
    bit = {v: 1 << i for i, v in enumerate(ordered)}
    adj = {bit[v]: sum(bit[w] for w in g.neighbors(v)) for v in ordered}
    for out in chain.from_iterable(combinations(ordered, size) for size in range(len(g) + 1)):
        comps = tree_masks(adj, sum(bit[v] for v in out))
        if not Forest(g).extend(out, stop_at_cycle=True):
            assert comps is None, (g, out)
            continue
        assert comps is not None, (g, out)
        as_sets = [frozenset(v for v in ordered if bit[v] & comp) for comp in comps]
        assert as_sets == g.induced(out).components(), (g, out)


def cut_by_rank(g, cover_in, best, largest):
    """Does |cover_in| + μ(g - cover_in) cut the split?  Checks that the cut is sound.

    `largest` is the largest result the caller would get from the split
    unbounded, or None; a cut split must not have beaten `best`.
    """
    if best is None or len(cover_in) + cycle_rank_reference(g.delete(cover_in)) > best:
        return False
    result = largest()
    assert result is None or result <= best, (g, cover_in)
    return True


class Replay(NamedTuple):
    """What a replay of `cover_guesses` under one caller finds, split by split."""

    best: int | None  # the caller's answer size
    cut: int  # guesses_cut_by_bound
    viable: int  # viable_cover_guesses
    wrong: int  # wrong_cover_guesses
    settles: list  # the cover_in sides settled, in order
    swept: list  # the non-empty sides swept for private cycles, in order
    idle_cuts: int  # splits left unsettled only because a live vertex closes no cycle
    rank_cuts: int  # splits the cycle rank cuts that the settled bound would not
    skips: int  # splits skipped for a dead one-smaller side


def replay(g, beat_of, run):
    """The walk `cover_guesses` makes for one caller, replayed by unbounded runs.

    `beat_of(best)` is the size a result must beat, and `run(h, guess)`
    the caller's result size for a settled guess on the chain kernel h,
    or None; the best is the largest result beating `beat_of`.  A side is
    dead once the cycle-rank cut or the private-cycle sweep rules it out.
    The replay keeps the walk's two rules: a split with a dead side one
    smaller is skipped and dead too, and a cyclic cover_out side is cut by
    the |L| bound before the flood (counted) or dropped by it (uncounted).  Every
    skipped split must fail the private-cycle sweep or, by the lemma
    |T'| + μ(g - T') <= |T| + μ(g - T), be one the cycle-rank cut removes,
    and every cut forest split must not have beaten the best.
    """
    reduced, cover = vc_setting(g)
    best = None
    cut = viable = wrong = idle_cuts = rank_cuts = skips = 0
    settles, swept, dead = [], [], set()
    for cover_in, cover_out in splits(cover):
        beat = beat_of(best)
        guess = None

        def largest():
            if cover_in and not partial_minimality_ok(reduced, cover_in):
                return None
            return run(reduced, guess or settle_guess(reduced, cover_in, cover_out, Counter()))

        if any(cover_in - {v} in dead for v in cover_in):
            # a side one smaller is dead, so this one is too
            dead.add(cover_in)
            assert (
                not partial_minimality_ok(reduced, cover_in)
                or cut_by_rank(reduced, cover_in, beat, largest)
            ), (g, cover_in)
            cut += 1
            skips += 1
            continue
        bound = live_bound(reduced, cover, cover_in)
        if not Forest(reduced).extend(cover_out, stop_at_cycle=True):
            cut += beat is not None and bound <= beat
            continue
        # with a live vertex that closes no cycle the search bound loses one
        slack = 1 if idle_live(reduced, cover, cover_out) else 0
        guess = settle_guess(reduced, cover_in, cover_out, Counter())
        if beat is None or bound - slack > beat:
            if cut_by_rank(reduced, cover_in, beat, largest):
                dead.add(cover_in)
                cut += 1
                rank_cuts += _search_bound(guess) > beat
                continue
            settles.append(cover_in)
        elif bound > beat:
            idle_cuts += 1
        if beat is not None and _search_bound(guess) <= beat:
            assert (largest() or 0) <= beat, (g, cover_in)
            cut += 1
            continue
        if cover_in:
            swept.append(cover_in)
            if not partial_minimality_ok(reduced, cover_in):
                dead.add(cover_in)
                wrong += 1
                continue
        viable += 1
        size = run(reduced, guess)
        if size is not None and (beat is None or size > beat):
            best = size
    return Replay(best, cut, viable, wrong, settles, swept, idle_cuts, rank_cuts, skips)


def connector_size(h, guess):
    found = find_connectors(h, guess, -1, Counter())
    return found and len(found[0])


def replay_vc(g):
    """`solve_vc`'s walk: a result wins when it beats the best, by unbounded connector searches."""
    return replay(g, lambda best: best, connector_size)


def replay_greedy(g, threshold):
    """`approx_solve`'s walk, by greedy runs on the chain kernel checked on g.

    A result wins only when it reaches `threshold` and beats the best, so
    each bound is compared with threshold - 1 until a verified candidate
    reaches the threshold and with that best after it; the best stays None
    when none does.  The cycle-rank cut is replayed too, but with the
    |L| - 1 cut before it, it fires on none of the corpus's greedy-mode
    graphs; `replay_vc` shows it cutting what the settled bound would not.
    """

    def greedy_size(h, guess):
        candidate, _ = _run_greedy(h, guess, Counter(), Counter())
        return len(candidate) if is_minimal(g, candidate) else None

    return replay(g, lambda best: threshold - 1 if best is None else best, greedy_size)


def test_solve_vc_cuts_exactly_the_guesses_that_cannot_win(settled):
    cuts = wrongs = unsettled = idle = ranked = skips = 0
    for g in corpus():
        # the replay's unbounded searches settle too, so record only the solve
        walk = replay_vc(g)
        settled.clear()
        solution, report = solve_vc(g)
        extras = report.extras
        assert (
            len(solution), extras["guesses_cut_by_bound"], extras["viable_cover_guesses"],
            extras["cover_guesses"],
        ) == (walk.best, walk.cut, walk.viable, 2 ** extras["cover_size"]), g
        assert settled == walk.settles, g
        cuts += walk.cut
        wrongs += walk.wrong
        unsettled += sum(1 for _ in forest_splits(*vc_setting(g))) - len(walk.settles)
        idle += walk.idle_cuts
        ranked += walk.rank_cuts
        skips += walk.skips
    assert cuts > 0 and wrongs > 0 and unsettled > 0 and idle > 0 and ranked > 0 and skips > 0


def test_cover_guesses_sweep_each_side_once_after_both_bounds(monkeypatch):
    sweeps = []

    def counted(g, in_set):
        sweeps.append(frozenset(in_set))
        return partial_minimality_ok(g, in_set)

    monkeypatch.setattr(vcsolver, "partial_minimality_ok", counted)
    swept = cut = 0
    for g in corpus():
        walk = replay_vc(g)
        sweeps.clear()
        solve_vc(g)
        assert sweeps == walk.swept, g
        assert len(set(sweeps)) == len(sweeps), g
        swept += len(sweeps)
        cut += walk.cut
    assert swept > 0 and cut > 0


def test_approx_cuts_exactly_the_guesses_that_cannot_win(settled):
    cuts = greedy = exact = unsettled = idle = 0
    for g in corpus():
        settled.clear()
        result = approx_solve(g, 0.9)
        extras = result.report.extras
        if result.mode != "greedy":
            # no verified candidate reached the threshold
            assert replay_greedy(g, extras["threshold"]).best is None, g
            exact += 1
            continue
        greedy += 1
        walk = replay_greedy(g, extras["threshold"])
        assert (
            len(result.solution), extras["guesses_cut_by_bound"], extras["wrong_cover_guesses"],
            extras["cover_guesses"],
        ) == (walk.best, walk.cut, walk.wrong, walk.viable), g
        assert settled == walk.settles, g
        cuts += extras["guesses_cut_by_bound"]
        unsettled += sum(1 for _ in forest_splits(*vc_setting(g))) - len(walk.settles)
        idle += walk.idle_cuts
    assert greedy >= 50 and exact > 0 and cuts > 0 and unsettled > 0 and idle > 0


def test_approx_runs_the_greedy_only_on_guesses_that_can_reach_the_threshold(monkeypatch):
    # a guess whose bound is below the threshold cannot give a candidate
    # that approx_solve returns, so it never gets a greedy run
    bounds = []
    real = approx._run_greedy

    def recorded(g, guess, counters, conflict_sizes):
        bounds.append(_search_bound(guess))
        return real(g, guess, counters, conflict_sizes)

    monkeypatch.setattr(approx, "_run_greedy", recorded)
    runs = 0
    for g in corpus():
        for epsilon in (0.25, 0.5, 0.9):
            bounds.clear()
            threshold = approx_solve(g, epsilon).report.extras["threshold"]
            assert all(bound >= threshold for bound in bounds), (g, epsilon, bounds)
            runs += len(bounds)
    assert runs > 0


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_the_cycle_rank_bounds_every_cover_split(g):
    # every minimal fvs S with S & cover = cover_in has |S - cover_in| <=
    # μ(g - cover_in), and the mask formula `cover_guesses` cuts with is μ
    cover = min_vertex_cover(g)
    largest = {}
    for s in chain.from_iterable(combinations(g.sorted_vertices(), k) for k in range(len(g) + 1)):
        if is_minimal(g, s):
            side = frozenset(s) & cover
            largest[side] = max(largest.get(side, 0), len(s))
    ordered = sorted(cover)
    bit = {v: 1 << i for i, v in enumerate(ordered)}
    adj = {bit[v]: sum(bit[w] for w in g.neighbors(v) if w in bit) for v in ordered}
    classes = Counter(sum(bit[w] for w in g.neighbors(x)) for x in g.vertices - cover)
    for cover_in, cover_out in forest_splits(g, cover):
        out = sum(bit[v] for v in cover_out)
        rank = vcsolver.cycle_rank(classes, out, tree_masks(adj, out))
        assert rank == cycle_rank_reference(g.delete(cover_in)), (g, cover_in)
        assert largest.get(cover_in, 0) <= len(cover_in) + rank, (g, cover_in)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(max_n=7))
def test_a_side_that_keeps_its_private_cycles_bounds_no_higher_than_its_subsets(g):
    # the lemma behind the walk's skip: with f(T) = |T| + μ(g - T), each v
    # of a side T that passes the sweep lies on a cycle of g - (T - v), so
    # deleting it lowers μ by at least one and f(T) <= f(T - v); and a side
    # that fails the sweep makes every side one larger fail it too
    def f(side):
        return len(side) + cycle_rank_reference(g.delete(side))

    ordered = g.sorted_vertices()
    for side in map(frozenset, chain.from_iterable(combinations(ordered, k) for k in range(len(g) + 1))):
        if partial_minimality_ok(g, side):
            assert all(f(side) <= f(side - {v}) for v in side), (g, side)
        else:
            assert not any(partial_minimality_ok(g, side | {v}) for v in ordered), (g, side)
