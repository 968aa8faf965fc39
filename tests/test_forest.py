"""Differential tests of the union-find forest kernel.

The kernel answers "is G - S a forest?" incrementally and all private-cycle
questions about a set S from one sweep; the references below ask each
question afresh, one vertex at a time.
"""

import random

import pytest

from mmfvs import graph
from mmfvs.graph import (
    Forest,
    Graph,
    cycle_closers,
    is_acyclic_without,
    peel,
    prune_to_minimal,
    settle,
)
from mmfvs.verify import (
    greedy_minimal_fvs,
    has_private_cycle,
    members_have_private_cycles,
    partial_minimality_ok,
    private_cycle,
)

from helpers import (
    cycle,
    cycle_closers_reference,
    gnp,
    greedy_minimal_fvs_reference,
    peel_reference,
    prune_reference,
    random_graphs,
    random_subset,
)


class TestForest:
    def test_extend_reports_the_vertex_that_closes_a_cycle(self):
        forest = Forest(cycle(4))
        assert [forest.extend((v,)) for v in range(4)] == [True, True, True, False]
        assert not forest.acyclic

    def test_extend_can_stop_at_the_first_cycle(self):
        g = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        forest = Forest(g)
        assert not forest.extend(range(5), stop_at_cycle=True)
        assert not forest.acyclic

    def test_closes_cycle_does_not_insert(self):
        forest = Forest.without(cycle(4), {0})
        assert forest.acyclic
        assert forest.closes_cycle(0)
        assert forest.closes_cycle(0)
        assert forest.acyclic

    def test_join_inserts_exactly_the_vertices_that_close_no_cycle(self):
        rng = random.Random(11)
        for g in random_graphs(300, seed=11):
            order = g.sorted_vertices()
            rng.shuffle(order)
            forest, inserted = Forest(g), set()
            for v in order:
                expected = not forest.closes_cycle(v)
                assert forest.join(v) == expected, (g, v)
                if expected:
                    inserted.add(v)
            assert forest.acyclic and is_acyclic_without(g, g.vertices - inserted)

    def test_is_acyclic_without_matches_edge_count(self):
        # a graph is a forest iff |E| = |V| - number of components
        rng = random.Random(7)
        for g in random_graphs(300, seed=7):
            removed = random_subset(g, rng, rng.random())
            h = g.delete(removed)
            expected = h.edge_count() == len(h) - len(h.components())
            assert is_acyclic_without(g, removed) == expected


class TestGreedy:
    def test_matches_per_vertex_reference_on_random_graphs(self):
        for g in random_graphs(2000, seed=2022):
            assert greedy_minimal_fvs(g) == greedy_minimal_fvs_reference(g)

    @pytest.mark.parametrize("n", [200, 1000, 2000])
    def test_matches_per_vertex_reference_on_large_sparse_graphs(self, n):
        g = gnp(n, 2.5 / n, seed=n)
        assert greedy_minimal_fvs(g) == greedy_minimal_fvs_reference(g)


class TestPruneToMinimal:
    def test_matches_per_vertex_reference_in_any_order(self):
        rng = random.Random(11)
        for g in random_graphs(500, seed=11):
            s = greedy_minimal_fvs(g) | random_subset(g, rng, 0.5)
            order = sorted(s)
            rng.shuffle(order)
            assert prune_to_minimal(g, s, order) == prune_reference(g, s, order)

    def test_a_set_that_is_no_fvs_is_kept_whole(self):
        g = cycle(5)
        assert prune_to_minimal(g, {0, 1}, [0, 1]) == prune_reference(g, {0, 1}, [0, 1])
        assert prune_to_minimal(g, set(), []) == frozenset()


class TestBatchedPrivateCycles:
    def test_matches_per_vertex_checks(self):
        rng = random.Random(5)
        for g in random_graphs(1000, seed=5):
            s = random_subset(g, rng, rng.random())
            probed = random_subset(g, rng, 0.5) & s
            expected = all(has_private_cycle(g, w, s - {w}) for w in probed)
            assert expected == all(private_cycle(g, w, s - {w}) is not None for w in probed)
            assert members_have_private_cycles(g, s, probed) == expected

    def test_partial_minimality_probes_every_member(self):
        rng = random.Random(6)
        for g in random_graphs(500, seed=6):
            s = random_subset(g, rng, rng.random())
            expected = all(has_private_cycle(g, w, s - {w}) for w in s)
            assert partial_minimality_ok(g, s) == expected

    def test_outside_vertex_is_refused(self):
        g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
        with pytest.raises(ValueError, match="not in the solution"):
            members_have_private_cycles(g, frozenset({2}), {0, 2})


class TestReductionRules:
    def test_peel_matches_sweep_reference(self):
        rng = random.Random(3)
        for i, g in enumerate(random_graphs(1200, seed=3, max_n=30)):
            if i % 10 == 0:
                live = g.vertices
            elif i % 10 == 1:
                live = frozenset()
            else:
                live = random_subset(g, rng, rng.random())
            gone = peel(g, live)
            assert gone == peel_reference(g, live)
            core = live - gone
            assert all(len(g.neighbors(v) & core) >= 2 for v in core)

    def test_peel_whole_graph_path_matches_the_partial_path(self):
        # live = all of g takes the whole-graph path; the same set in g plus
        # one isolated vertex, and a random subset, take the intersection path
        rng = random.Random(5)
        for g in random_graphs(600, seed=5, max_n=30):
            whole = peel(g, g.vertices)
            assert whole == peel_reference(g, g.vertices)
            padded = Graph([*g.vertices, len(g)], g.edges())
            assert peel(padded, g.vertices) == whole
            live = random_subset(g, rng, rng.random())
            assert peel(g, live) == peel_reference(g, live)

    def test_cycle_closers_match_component_label_reference(self):
        rng = random.Random(4)
        for i, g in enumerate(random_graphs(1200, seed=4, max_n=30)):
            out = frozenset() if i % 10 == 0 else random_subset(g, rng, rng.random())
            rest = g.vertices - out
            candidates = random_subset(g, rng, rng.random()) & rest
            if i % 10 == 1:
                # vertices meeting `out` in exactly one neighbor never close a cycle
                candidates = frozenset(v for v in rest if len(g.neighbors(v) & out) == 1)
                assert cycle_closers(g, out, candidates) == []
            assert cycle_closers(g, out, candidates) == cycle_closers_reference(
                g, out, candidates
            )

    def test_closers_need_two_neighbors_in_one_tree(self):
        # 4 meets the path 0-1-2 twice and the separate vertex 3 once; 5 meets
        # two different trees once each
        g = Graph(range(6), [(0, 1), (1, 2), (4, 0), (4, 2), (4, 3), (5, 2), (5, 3)])
        assert cycle_closers(g, {0, 1, 2, 3}, {4, 5}) == [4]
        assert cycle_closers(g, set(), {4, 5}) == []
        assert cycle_closers(g, {0, 1, 2, 3}, ()) == []

    def test_peel_leaves_the_two_core(self):
        # a triangle with a pendant path 2-3-4
        g = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert peel(g, g.vertices) == {3, 4}
        assert peel(g, {0, 1, 3, 4}) == {0, 1, 3, 4}
        assert peel(g, ()) == set()

    def test_settle_stops_at_the_joint_fixpoint(self):
        # settle is peel, force and, after a force, peel once more; the sets
        # it leaves must be the fixpoint of both rules that rounds of the
        # references alone reach
        rng = random.Random(5)
        for i, g in enumerate(random_graphs(600, seed=5, max_n=25)):
            inside = set(random_subset(g, rng, 0.2))
            out = set(random_subset(g, rng, rng.random())) - inside
            free = set(g.vertices) - inside - out
            expected = [set(out), set(free), set(inside)]
            while True:
                gone = peel_reference(g, expected[0] | expected[1])
                expected[0] -= gone
                expected[1] -= gone
                closers = cycle_closers_reference(g, expected[0], expected[1])
                expected[1].difference_update(closers)
                expected[2].update(closers)
                if not gone and not closers:
                    break
            before = len(out | free)
            gone, closers = settle(g, out, free, inside)
            assert [out, free, inside] == expected, i
            assert settle(g, out, free, inside) == (set(), [])
            moved = len(inside) - (len(g) - before)
            assert len(closers) == moved
            assert len(gone) == before - len(out | free) - moved

    def test_settle_leaves_nothing_to_peel_or_force(self):
        # the lemma in `settle`'s docstring: after the closers move, one more
        # peel reaches the joint fixpoint, whether or not g[out] is a forest
        rng = random.Random(29)
        forced = 0
        for i, g in enumerate(random_graphs(800, seed=29, max_n=25)):
            out = set(random_subset(g, rng, rng.random()))
            if i % 2:
                out -= greedy_minimal_fvs(g.induced(out))  # a forest
            inside = set(random_subset(g, rng, 0.2)) - out
            free = set(g.vertices) - inside - out
            _, closers = settle(g, out, free, inside)
            forced += bool(closers)
            assert peel(g, out | free) == set(), i
            assert cycle_closers(g, out, free) == [], i
        assert forced > 100

    def test_settle_peels_once(self, monkeypatch):
        # forcing first leaves one peel to reach the joint fixpoint: on the
        # triangle, 0 closes the edge 1-2 and goes inside, then 1 and 2 peel
        calls = []

        def counted(g, live):
            calls.append(live)
            return peel(g, live)

        monkeypatch.setattr(graph, "peel", counted)
        out, free, inside = {1, 2}, {0}, set()
        assert settle(cycle(3), out, free, inside) == ({1, 2}, [0])
        assert (out, free, inside) == (set(), set(), {0})
        assert len(calls) == 1
        rng = random.Random(31)
        forced = 0
        for i, g in enumerate(random_graphs(300, seed=31, max_n=25)):
            out = set(random_subset(g, rng, rng.random()))
            free = set(g.vertices) - out
            calls.clear()
            _, closers = settle(g, out, free, set())
            forced += bool(closers)
            assert len(calls) == 1, i
        assert forced > 50

    def test_peeling_first_finds_the_same_closers(self):
        # the lemma in `settle`'s docstring: a closer and the forest path
        # between two of its neighbours form a cycle, which no peel touches
        rng = random.Random(37)
        forced = 0
        for i, g in enumerate(random_graphs(800, seed=37, max_n=25)):
            out = set(random_subset(g, rng, rng.random()))
            if i % 2:
                out -= greedy_minimal_fvs(g.induced(out))  # a forest
            free = set(random_subset(g, rng, rng.random())) - out
            gone = peel(g, out | free)
            closers = cycle_closers(g, out, free)
            forced += bool(closers)
            assert closers == cycle_closers(g, out - gone, free - gone), i
        assert forced > 100
