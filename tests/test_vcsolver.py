from collections import Counter

from mmfvs import report, vcsolver
from mmfvs.graph import Graph, peel
from mmfvs.oracle import opt_mmfvs_brute
from mmfvs.verify import is_minimal_fvs, min_vertex_cover
from mmfvs.vcsolver import (
    _try_assignment,
    cover_guesses,
    find_connectors,
    settle_guess,
    solve_vc,
)

from helpers import apex_pair, cycle, disjoint_triangles, gnp, opt_exact_sweep_reference, path


def connectors_of(g, cover_in, cover_out):
    """The connector search on the settled guess (cover_in, cover_out) of g."""
    return find_connectors(g, settle_guess(g, cover_in, cover_out, Counter()), -1, Counter())


def two_edges_and_two_connectors():
    """Committed-out edges (0,1) and (2,3); 4 and 5 each touch both, once."""
    return Graph(range(6), [(0, 1), (2, 3), (0, 4), (2, 4), (1, 5), (3, 5)])


class TestFindConnectors:
    def test_single_tree_forces_everything(self):
        # committed-out path 0-1-2; independent 3 and 4 each see two of its
        # vertices, so the cycle rule forces both and no connector is needed
        g = Graph(range(5), [(0, 1), (1, 2), (0, 3), (1, 3), (1, 4), (2, 4)])
        solution, trees = connectors_of(g, frozenset(), frozenset({0, 1, 2}))
        assert solution == {3, 4}
        # with 3 and 4 inside, the path peels away: no tree, no connector
        assert trees == 0

    def test_unique_connector_between_two_components(self):
        # committed-out edges (0,1) and (2,3); vertex 4 touches one vertex
        # of each and is the only way to glue them into a single tree, in
        # which vertex 5 then closes its private cycle
        g = two_edges_and_two_connectors()
        solution, trees = connectors_of(g, frozenset(), frozenset({0, 1, 2, 3}))
        assert solution == {5}
        assert trees == 1


class TestConnectorSafetyChecks:
    """`_try_assignment`'s sweep over g - solution rejects connectors the search never picks.

    The search never picks a connector set that closes a cycle, so there is
    no separate forest check: the acyclicity half of the sweep rejects it,
    and the retired `forest_check_failures` stays 0.
    """

    def test_connectors_closing_a_cycle_are_rejected(self):
        # 4 and 5 both glue the two edges: 0-4-2-3-5-1-0 is a cycle
        g = two_edges_and_two_connectors()
        guess = settle_guess(g, frozenset(), frozenset({0, 1, 2, 3}), Counter())
        counters = Counter()
        assert _try_assignment(g, guess, (4, 5), counters) is None
        assert counters["guess_rejected_at_verify"] == 1
        assert counters["forest_check_failures"] == 0


class TestCoverGuesses:
    def test_split_with_a_cycle_in_cover_out_is_never_yielded(self):
        # every vertex of a triangle is in this cover; cover_out = all three
        # is a cycle, so the empty cover_in side is dropped unsettled
        tally = Counter()
        cover = frozenset({0, 1, 2})
        guesses = list(cover_guesses(cycle(3), cover, tally, lambda size: True))
        assert tally["cover_guesses"] == 8
        assert guesses
        assert all(guess.cover_in for guess in guesses)


class TestSolveVc:
    def test_apex_pair(self):
        sol, report = solve_vc(apex_pair(6))
        assert len(sol.vertices) == 4
        assert report.extras["cover_size"] == 2

    def test_c5(self):
        sol, _ = solve_vc(cycle(5))
        assert len(sol.vertices) == 1

    def test_forest(self):
        sol, _ = solve_vc(path(6))
        assert sol.vertices == frozenset()

    def test_two_triangles(self):
        sol, _ = solve_vc(disjoint_triangles(2))
        assert len(sol.vertices) == 2

    def test_matches_oracle_on_random_graphs(self):
        for seed in range(25):
            g = gnp(7, 0.4, seed=seed)
            sol, report = solve_vc(g)
            assert is_minimal_fvs(g, sol.vertices) is not None
            expected = opt_mmfvs_brute(g).opt_value
            assert len(sol.vertices) == expected, (seed, report.extras)

    def test_matches_oracle_on_denser_graphs(self):
        for seed in range(12):
            g = gnp(8, 0.55, seed=100 + seed)
            sol, _ = solve_vc(g)
            assert len(sol.vertices) == opt_mmfvs_brute(g).opt_value

    def test_guess_budget_follows_cover_bound(self):
        # each viable guess tries distinct connector sets, subsets of its
        # free vertices, which lie among the n - vc independents
        for seed in range(10):
            g = gnp(8, 0.4, seed=300 + seed)
            _, report = solve_vc(g)
            extras = report.extras
            bound = extras["viable_cover_guesses"] * 2 ** (len(g.vertices) - extras["cover_size"])
            assert 0 < extras["assignments_tried"] <= bound, seed

    def test_twins_are_keyed_on_the_whole_neighbourhood(self):
        # with the cover {0, 2, 4} and 0 on the solution side, the free
        # vertices 1, 3 and 5 all meet the committed-out side in {2, 4}, but
        # only 3 and 5 are adjacent to 0; the optimum 3 needs 3 or 5 as the
        # connector, and keying twins on N(x) & out keeps only 1, giving 2
        g = Graph(range(6), [(0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 5)])
        sol, _ = solve_vc(g)
        assert len(sol.vertices) == opt_mmfvs_brute(g).opt_value == 3

    def test_verify_safety_net_is_quiet(self):
        for seed in range(15):
            g = gnp(7, 0.35, seed=600 + seed)
            _, report = solve_vc(g)
            assert report.extras["guess_rejected_at_verify"] == 0
            assert report.extras["forest_check_failures"] == 0

    def test_every_checked_assignment_is_counted(self):
        rejects = ("forest_check_failures", "assignments_rejected_structure",
                   "assignments_rejected_partial", "guess_rejected_at_verify")
        for seed in range(25):
            g = gnp(7, 0.4, seed=seed)
            _, report = solve_vc(g)
            rejected = sum(report.extras[name] for name in rejects)
            assert report.extras["assignments_tried"] >= rejected, seed
            # nodes_explored counts extension search nodes, and solve_vc searches none
            assert report.nodes_explored == 0, seed

    def test_every_viable_guess_goes_through_find_connectors(self, monkeypatch):
        searched = []

        def recorded(g, guess, beat, counters):
            searched.append(guess)
            return find_connectors(g, guess, beat, counters)

        monkeypatch.setattr(vcsolver, "find_connectors", recorded)
        for g in (apex_pair(6), cycle(5), gnp(8, 0.4, seed=300)):
            searched.clear()
            _, report = solve_vc(g)
            assert len(searched) == report.extras["viable_cover_guesses"] > 0

    def test_sparse_gnp_20_reaches_the_optimum_in_few_assignments(self):
        # the search stops at the last connector count that can beat the
        # best, so guesses that cannot win are refuted without walking
        # every count up to min(|free|, |comps|)
        g = gnp(20, 0.15, seed=4)
        sol, report = solve_vc(g)
        assert len(sol.vertices) == opt_exact_sweep_reference(g)[0] == 8
        assert report.extras["assignments_tried"] <= 10_000

    def test_trees_count_the_final_forest(self):
        # the connectors are the free vertices the solution leaves out
        found = 0
        for seed in range(25):
            g = gnp(8, 0.4, seed=300 + seed)
            g = g.delete(peel(g, g.vertices))
            for guess in cover_guesses(g, min_vertex_cover(g), Counter(), lambda size: True):
                result = find_connectors(g, guess, -1, Counter())
                if result is None:
                    continue
                solution, trees = result
                forest = g.induced(guess.out | (guess.free - solution))
                assert trees == len(forest.components()), (seed, guess)
                found += 1
        assert found > 0
        # the hubs force every other vertex in, and then peel away: no tree
        _, report = solve_vc(apex_pair(6))
        assert report.extras["winning_trees"] == 0

    def test_certifies_only_a_new_best(self, monkeypatch):
        # a cover guess whose solution is no larger than the best so far
        # cannot win, so it gets the boolean check but no certificate
        sizes = []

        def certify(g, s):
            sizes.append(len(s))
            return is_minimal_fvs(g, s)

        monkeypatch.setattr(report, "is_minimal_fvs", certify)
        for seed in range(25):
            g = gnp(7, 0.4, seed=seed)
            sizes.clear()
            sol, _ = solve_vc(g)
            assert sizes == sorted(set(sizes)), seed
            assert sizes[-1] == len(sol.vertices)
