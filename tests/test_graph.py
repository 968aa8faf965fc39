import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfvs.graph import Graph, chain_kernel, degree_bound, is_acyclic_without, two_core
from mmfvs.verify import is_minimal_fvs, private_cycle

from helpers import apex_pair, brute_cycle_vertices, complete, cycle, gnp, path, random_graphs, subdivided


def assert_simple_cycle(g, v, seq):
    assert v in seq
    assert len(seq) >= 3
    assert len(set(seq)) == len(seq)
    closed = (*seq, seq[0])
    for a, b in zip(closed, closed[1:]):
        assert g.has_edge(a, b)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(range(n), picked)


class TestBasics:
    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Graph([0, 1], [(0, 0)])

    def test_no_unknown_endpoints(self):
        with pytest.raises(KeyError):
            Graph([0, 1], [(0, 2)])

    def test_parallel_edges_collapse(self):
        g = Graph([0, 1], [(0, 1), (1, 0)])
        assert g.edge_count() == 1

    def test_degree_on_apex_pair(self):
        g = apex_pair(6)
        assert g.degree(0) == 5

    def test_degree_isolated(self):
        assert Graph([7]).degree(7) == 0

    def test_degree_complete(self):
        g = complete(4)
        assert all(g.degree(v) == 3 for v in g.vertices)

    def test_degree_unknown_vertex(self):
        with pytest.raises(KeyError):
            complete(3).degree(99)

    def test_one_neighbour_neighbourhoods_are_shared(self):
        # leaves hanging off id 5 in two graphs hold one frozenset between them;
        # ids from 256 on, and negative ones, get their own
        g = Graph([5, 6, 7], [(5, 6), (5, 7)])
        h = Graph([5, 9], [(5, 9)])
        assert g.neighbors(6) is g.neighbors(7) is h.neighbors(9) == {5}
        big = Graph([-1, 0, 256, 300], [(256, 300), (-1, 0)])
        assert big.neighbors(300) == {256} and big.neighbors(256) == {300}
        assert big.neighbors(0) == {-1} and big.neighbors(-1) == {0}


class TestContract:
    def test_path_contracts_to_shorter_path(self):
        g = path(3)
        h = g.contract(0, 1)
        assert h.vertices == {0, 2}
        assert list(h.edges()) == [(0, 2)]

    def test_c5_contracts_to_c4(self):
        h = cycle(5).contract(0, 1)
        assert len(h) == 4 and h.edge_count() == 4
        assert not is_acyclic_without(h, ())
        assert all(h.degree(v) == 2 for v in h.vertices)

    def test_six_cycle_with_pendant(self):
        # pendant 6 hangs off vertex 0 on a 6-cycle; contracting (0, 1)
        # leaves a 5-cycle with the pendant still attached
        g = Graph(range(7), [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)])
        h = g.contract(0, 1)
        assert g.edge_count() == 7 and h.edge_count() == 6
        assert len(h) == 6
        assert h.degree(6) == 1 and h.has_edge(0, 6)
        assert sorted(h.delete([6]).edges()) == [(0, 2), (0, 5), (2, 3), (3, 4), (4, 5)]

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            path(3).contract(0, 2)

    def test_shared_neighbor_rejected(self):
        with pytest.raises(ValueError):
            complete(3).contract(0, 1)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_counts_drop_by_one(self, g, rng):
        eligible = [
            (u, v) for u, v in g.edges() if not (g.neighbors(u) & g.neighbors(v)) - {u, v}
        ]
        if not eligible:
            return
        u, v = rng.choice(eligible)
        h = g.contract(u, v)
        assert h.edge_count() == g.edge_count() - 1
        assert len(h) == len(g) - 1
        assert min(u, v) in h.vertices and max(u, v) not in h.vertices


class TestInduced:
    def test_apex_pair_independent_part(self):
        h = apex_pair(6).induced({2, 3, 4, 5})
        assert h.edge_count() == 0 and len(h) == 4

    def test_empty(self):
        h = complete(4).induced(set())
        assert len(h) == 0

    def test_k4_to_k3(self):
        h = complete(4).induced({0, 2, 3})
        assert h.edge_count() == 3

    def test_unknown_vertices(self):
        with pytest.raises(KeyError):
            complete(3).induced({0, 9})


class TestForestAndComponents:
    def test_tree_is_forest(self):
        assert is_acyclic_without(path(5), ())

    def test_triangle_is_not(self):
        assert not is_acyclic_without(cycle(3), ())

    def test_apex_pair_minus_independents(self):
        assert is_acyclic_without(apex_pair(6).delete({2, 3, 4, 5}), ())

    def test_components_edgeless(self):
        assert Graph([0, 1, 2]).components() == [{0}, {1}, {2}]

    def test_components_connected(self):
        assert len(apex_pair(6).components()) == 1

    def test_components_two_triangles(self):
        g = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert g.components() == [{0, 1, 2}, {3, 4, 5}]

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_forest_iff_edge_count(self, g):
        comps = g.components()
        assert sum(len(c) for c in comps) == len(g)
        assert is_acyclic_without(g, ()) == (g.edge_count() == len(g) - len(comps))


class TestCycleThrough:
    def test_c4(self):
        seq = private_cycle(cycle(4), 2, frozenset())
        assert seq is not None and set(seq) == {0, 1, 2, 3}
        assert_simple_cycle(cycle(4), 2, seq)

    def test_tree(self):
        assert private_cycle(path(4), 1, frozenset()) is None

    def test_apex_pair_restricted(self):
        h = apex_pair(6).induced({0, 1, 2})
        seq = private_cycle(h, 2, frozenset())
        assert seq is not None and set(seq) == {0, 1, 2}

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            private_cycle(cycle(3), 77, frozenset())

    def test_matches_exhaustive_enumeration(self):
        for seed in range(12):
            g = gnp(7, 0.35, seed=seed)
            expected = brute_cycle_vertices(g)
            for v in g.sorted_vertices():
                seq = private_cycle(g, v, frozenset())
                assert (seq is not None) == (v in expected)
                if seq is not None:
                    assert_simple_cycle(g, v, seq)


class TestAcyclicWithout:
    def test_matches_delete(self):
        for seed in range(10):
            g = gnp(7, 0.4, seed=seed)
            for removed in [set(), {0}, {1, 3}, {0, 2, 5}, set(g.vertices)]:
                assert is_acyclic_without(g, removed) == is_acyclic_without(g.delete(removed), ())


class TestChainKernel:
    def test_a_chain_keeps_its_lowest_id(self):
        # branch vertices 0 and 1 joined by the chains 5-3, 2 and 4-6-7
        g = Graph(range(8), [(0, 5), (5, 3), (3, 1), (0, 2), (2, 1), (0, 4), (4, 6), (6, 7), (7, 1)])
        assert chain_kernel(g) == Graph([0, 1, 2, 3, 4], [(0, 3), (3, 1), (0, 2), (2, 1), (0, 4), (4, 1)])

    def test_a_chain_back_to_its_own_end_keeps_two(self):
        # branch vertex 0 carries the loops 1-2, already a triangle, and 5-3-4
        g = Graph(range(6), [(0, 1), (1, 2), (2, 0), (0, 5), (5, 3), (3, 4), (4, 0)])
        assert chain_kernel(g) == Graph([0, 1, 2, 3, 4], [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])

    def test_a_cycle_component_becomes_a_triangle(self):
        # the cycle 5-2-7-0-9-4 beside K4 on 10..13, which has no chain
        ring = [(5, 2), (2, 7), (7, 0), (0, 9), (9, 4), (4, 5)]
        k4 = [(u, v) for u in range(10, 14) for v in range(u + 1, 14)]
        g = Graph([0, 2, 4, 5, 7, 9, *range(10, 14)], ring + k4)
        assert chain_kernel(g) == Graph([0, 2, 4, *range(10, 14)], [(0, 2), (2, 4), (4, 0)] + k4)
        assert chain_kernel(cycle(3)) == cycle(3)

    def test_nothing_to_shorten_returns_the_two_core_itself(self):
        theta = Graph(range(5), [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
        for g in (cycle(3), complete(5), apex_pair(7), theta, Graph()):
            assert chain_kernel(g) is two_core(g)
        # a pendant tree peels, and the core it leaves is returned as it is
        g = Graph(range(5), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        assert chain_kernel(g) == two_core(g) == cycle(3)
        assert chain_kernel(path(4)) == Graph()

    def test_branch_vertices_keep_their_degrees(self):
        for i, base in enumerate(random_graphs(150, seed=9, max_n=14)):
            g = subdivided(base, i) if i % 2 else base
            core, kernel = two_core(g), chain_kernel(g)
            assert kernel.vertices <= core.vertices
            assert all(kernel.degree(v) >= 2 for v in kernel.vertices)
            assert all(kernel.degree(v) == core.degree(v) for v in core.vertices if core.degree(v) >= 3)
            assert chain_kernel(kernel) is kernel


class TestDegreeBound:
    def test_no_minimal_fvs_takes_more_of_free_than_the_bound(self):
        # every minimal fvs S that holds R and avoids out, brute force over
        # the subsets of free, for random splits R | out | free of gnp graphs
        rng = random.Random(24)
        splits = tight = 0
        for trial in range(1000):
            g = gnp(rng.randint(4, 9), rng.uniform(0.25, 0.6), seed=1200 + trial)
            sides = rng.choices("Rof", weights=(1, 2, 3), k=len(g))
            split = {side: frozenset(v for v, c in zip(g.sorted_vertices(), sides) if c == side) for side in "Rof"}
            free = sorted(split["f"])
            bound = degree_bound(g, split["o"], free)
            sizes = [
                size
                for size in range(len(free) + 1)
                for picked in combinations(free, size)
                if is_minimal_fvs(g, split["R"] | frozenset(picked)) is not None
            ]
            if sizes:
                splits += 1
                assert max(sizes) <= bound, (trial, sorted(split["R"]), sorted(split["o"]), bound)
                tight += max(sizes) == bound
        # 518 splits admit such an S, and the bound is tight on 135
        assert splits >= 500 and tight >= 130

    def test_hand_cases(self):
        # three of a hexagon's free vertices have the six free neighbors
        # the other three need, though a minimal fvs there holds one vertex
        assert degree_bound(cycle(6), (), range(6)) == 3
        # both hubs outside reach all four of the apex pair's leaves: exact
        assert degree_bound(apex_pair(6), (0, 1), range(2, 6)) == 4
        assert degree_bound(path(4), (), ()) == 0
