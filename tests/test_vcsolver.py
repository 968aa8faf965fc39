from collections import Counter
from itertools import combinations, product

from mmfvs import vcsolver
from mmfvs.graph import Graph, peel
from mmfvs.oracle import opt_mmfvs_brute
from mmfvs.verify import is_minimal_fvs, min_vertex_cover
from mmfvs.vcsolver import (
    _ConnectorSearch,
    _joins_one_tree,
    _search_bound,
    _splits,
    cover_guesses,
    find_connectors,
    set_partitions,
    settle_guess,
    solve_vc,
)

from helpers import apex_pair, cycle, disjoint_triangles, gnp, opt_exact_sweep_reference, path


class TestEnumerators:
    def test_set_partition_counts_are_bell_numbers(self):
        for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            assert sum(1 for _ in set_partitions(list(range(n)))) == bell

    def test_partitions_are_canonical_and_distinct(self):
        seen = set()
        for blocks in set_partitions([4, 7, 9]):
            key = tuple(tuple(b) for b in blocks)
            assert key not in seen
            seen.add(key)
            assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)

    def test_exact_block_partitions_are_the_filtered_enumeration_in_order(self):
        for n in range(7):
            items = [3 * i + 1 for i in range(n)]
            every = list(set_partitions(items))
            for blocks in range(n + 2):
                expected = [p for p in every if len(p) == blocks]
                assert list(set_partitions(items, blocks)) == expected, (n, blocks)

    def test_labeled_tree_counts_follow_cayley(self):
        # of the (c - 1)-edge sets of the complete graph on c blocks, each
        # edge given low to high, Cayley's c^(c - 2) join the blocks into a tree
        for c in (1, 2, 3, 4, 5, 6):
            pairs = list(combinations(range(c), 2))
            count = 0
            for edges in combinations(pairs, c - 1):
                targets = [frozenset(hi for lo, hi in edges if lo == b) for b in range(c)]
                count += _joins_one_tree(targets)
            assert count == max(1, c ** (c - 2)), c

    def test_cross_edge_choices_count(self):
        # of all choices of a target subset per block: the labeled trees
        # times one orientation bit per tree edge
        for c in (1, 2, 3, 4):
            subsets = [
                [frozenset(t) for r in range(c) for t in combinations(sorted(set(range(c)) - {b}), r)]
                for b in range(c)
            ]
            accepted = sum(_joins_one_tree(targets) for targets in product(*subsets))
            assert accepted == max(1, c ** (c - 2)) * (1 << max(0, c - 1)), c

    def test_splits_are_the_filtered_product_in_order(self):
        for sizes in [(), (1,), (3,), (1, 1, 1), (2, 1, 3), (1, 2, 1, 2), (4, 1)]:
            # a part of s components takes 1 to s - 1 connectors, none if s = 1
            ranges = [range(min(size - 1, 1), size) for size in sizes]
            for total in range(sum(sizes) + 2):
                expected = [c for c in product(*ranges) if sum(c) == total]
                assert list(_splits(sizes, total)) == expected, (sizes, total)


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
    """`_try_assignment` rejects final forests the search never proposes."""

    def search(self):
        g = two_edges_and_two_connectors()
        guess = settle_guess(g, frozenset(), frozenset({0, 1, 2, 3}), Counter())
        return _ConnectorSearch(g, guess, -1, Counter())

    def test_connectors_closing_a_cycle_are_rejected(self):
        # 4 and 5 both glue the two edges: 0-4-2-3-5-1-0 is a cycle
        search = self.search()
        assert search._try_assignment(1, (4, 5)) is None
        assert search.counters["forest_check_failures"] == 1

    def test_connectors_leaving_the_wrong_tree_count_are_rejected(self):
        # 4 glues both edges into one tree, but the partition asks for two
        search = self.search()
        assert search._try_assignment(2, (4,)) is None
        assert search.counters["forest_check_failures"] == 1


class TestPartPlans:
    def test_two_blocks_take_the_larger_target_set_first(self):
        # committed-out vertices 0-3 are four components.  For the blocks
        # {0, 1} and {2, 3}, 4 and 5 glue 0 and 1 (5 also meets 2), 6 and 7
        # glue 2 and 3 (7 also meets 0), so both orientations of the edge
        # between the blocks have candidates, and ({1}, {}) comes first.
        # The other plans come from the blocks ({0, 1, 2}, {3}) and
        # ({0, 2, 3}, {1}).
        edges = [(4, 0), (4, 1), (5, 0), (5, 1), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3), (7, 0)]
        g = Graph(range(8), edges)
        guess = settle_guess(g, frozenset(), frozenset({0, 1, 2, 3}), Counter())
        search = _ConnectorSearch(g, guess, -1, Counter())
        part = tuple(g.induced(guess.out).components())
        assert search._part_plans(part, 2) == [[[5], [6]], [[5], [6]], [[4], [7]], [[7], [4]]]


class TestCoverGuesses:
    def test_split_with_a_cycle_in_cover_out_is_never_yielded(self):
        # every vertex of a triangle is in this cover; cover_out = all three
        # is a cycle, so the empty cover_in side is dropped unsettled
        tally = Counter()
        cover = frozenset({0, 1, 2})
        guesses = list(cover_guesses(cycle(3), cover, tally, _search_bound, lambda size: True))
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
        for seed in range(10):
            g = gnp(8, 0.4, seed=300 + seed)
            _, report = solve_vc(g)
            vc = report.extras["cover_size"]
            if vc >= 2:
                bound = vc**vc * vc ** len(g.vertices) * vc ** (2 * vc)
                assert report.extras["structure_guesses"] <= bound

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
            assert report.nodes_explored == report.extras["assignments_tried"] >= rejected, seed

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
            for guess in cover_guesses(g, min_vertex_cover(g), Counter(), _search_bound,
                                       lambda size: True):
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

        monkeypatch.setattr(vcsolver, "is_minimal_fvs", certify)
        for seed in range(25):
            g = gnp(7, 0.4, seed=seed)
            sizes.clear()
            sol, _ = solve_vc(g)
            assert sizes == sorted(set(sizes)), seed
            assert sizes[-1] == len(sol.vertices)
