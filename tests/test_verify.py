import random

import pytest

from mmfvs.graph import Graph
from mmfvs.oracle import fvs_min_brute
from mmfvs.verify import (
    greedy_minimal_fvs,
    is_fvs,
    is_minimal,
    is_minimal_fvs,
    min_vertex_cover,
    partial_minimality_ok,
)

from helpers import (
    apex_pair,
    brute_min_vertex_cover_size,
    certificate_is_valid,
    complete,
    cycle,
    gnp,
    is_minimal_fvs_by_deletion,
    minimal_certificate_reference,
    path,
    random_graphs,
    random_subset,
)


def random_subsets(g, rng, count):
    vs = g.sorted_vertices()
    for _ in range(count):
        yield frozenset(v for v in vs if rng.random() < 0.5)


class TestIsFvs:
    def test_apex_pair_hub(self):
        assert is_fvs(apex_pair(6), {0})

    def test_apex_pair_single_independent(self):
        # dropping one covered vertex leaves cycles through the hubs
        assert not is_fvs(apex_pair(6), {2})

    def test_whole_vertex_set(self):
        g = complete(5)
        assert is_fvs(g, g.vertices)

    def test_unknown_member(self):
        with pytest.raises(KeyError):
            is_fvs(cycle(3), {9})


class TestMinimality:
    def test_apex_pair_independents(self):
        g = apex_pair(6)
        cert = is_minimal_fvs(g, {2, 3, 4, 5})
        assert cert is not None
        assert certificate_is_valid(g, frozenset({2, 3, 4, 5}), cert)
        for v in (2, 3, 4, 5):
            assert set(cert[v]) == {v, 0, 1}

    def test_hub_plus_extra_is_not_minimal(self):
        assert is_minimal_fvs(apex_pair(6), {0, 2}) is None

    def test_forest_empty_set(self):
        cert = is_minimal_fvs(path(4), set())
        assert cert == {}  # minimal, with nothing to certify

    def test_nonempty_minimal_fvs_leaves_two_vertices(self):
        # each member needs a private cycle, which takes two outside vertices
        for seed in range(20):
            g = gnp(7, 0.45, seed=seed)
            rng = random.Random(seed)
            for s in random_subsets(g, rng, 10):
                if s and is_minimal_fvs(g, s) is not None:
                    assert len(s) <= len(g) - 2

    def test_private_cycle_test_equals_deletion_test(self):
        rng = random.Random(7)
        for seed in range(25):
            g = gnp(7, 0.4, seed=seed)
            for s in random_subsets(g, rng, 12):
                assert (is_minimal_fvs(g, s) is not None) == is_minimal_fvs_by_deletion(g, s)

    def test_certificates_always_validate(self):
        rng = random.Random(13)
        for seed in range(25):
            g = gnp(7, 0.4, seed=100 + seed)
            for s in random_subsets(g, rng, 12):
                cert = is_minimal_fvs(g, s)
                if cert is not None:
                    assert certificate_is_valid(g, s, cert)


class TestTreePathCertificates:
    """`is_minimal_fvs` reads certificates off the forest G - S; the reference
    runs one `private_cycle` BFS per member.  The certificates must be equal,
    not merely valid, and the one-sweep boolean `is_minimal` must agree."""

    @staticmethod
    def check(g, s):
        cert = is_minimal_fvs(g, s)
        assert cert == minimal_certificate_reference(g, s)
        assert is_minimal(g, s) == (cert is not None)
        if cert is not None:
            assert certificate_is_valid(g, frozenset(s), cert)
        return cert

    def test_equals_per_member_bfs_on_random_graphs(self):
        rng = random.Random(404)
        forests = disconnected = certified = 0
        for g in random_graphs(2000, seed=404):
            forests += is_fvs(g, ())
            disconnected += len(g.components()) > 1
            w = greedy_minimal_fvs(g)
            rest = sorted(g.vertices - w)
            sets = [w, frozenset(), random_subset(g, rng, rng.random())]
            if rest:
                sets.append(w | {rng.choice(rest)})  # an fvs, not minimal
            for s in sets:
                certified += self.check(g, s) is not None
        # the corpus covers forests, disconnected graphs and many certificates
        assert forests > 100 and disconnected > 500 and certified > 2000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_per_member_bfs_at_n_1000(self, seed):
        g = gnp(1000, 0.0015, seed=seed)
        w = greedy_minimal_fvs(g)
        assert self.check(g, w) is not None
        assert self.check(g, w | {min(g.vertices - w)}) is None
        self.check(g, frozenset())

    def test_ties_break_by_path_ids(self):
        # member 0 sees the trees {1..5} and {6}; from 1, the paths to 3 and
        # to 5 have equal length and 1-2-3 is smaller
        g = Graph(range(7), [(1, 2), (2, 3), (1, 4), (4, 5), (0, 1), (0, 3), (0, 5), (0, 6)])
        assert self.check(g, {0}) == {0: (0, 1, 2, 3)}

    def test_path_climbs_to_the_common_ancestor(self):
        # the smallest neighbor 1 of member 0 is alone in its tree, so the
        # cycle runs 4 -> 2 -> 3 -> 5 through the root 2 of the other tree
        g = Graph(range(6), [(2, 3), (2, 4), (3, 5), (0, 1), (0, 4), (0, 5)])
        assert self.check(g, {0}) == {0: (0, 4, 2, 3, 5)}

    def test_member_without_private_cycle_is_rejected(self):
        # 0 and 1 both sit on the triangle 0-1-2 only: either alone is minimal
        g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
        assert self.check(g, {0}) == {0: (0, 1, 2)}
        assert self.check(g, {0, 1}) is None


class TestGreedyMinimalFvs:
    def test_forest(self):
        assert greedy_minimal_fvs(path(5)) == frozenset()

    def test_cycle_gives_single_vertex(self):
        assert len(greedy_minimal_fvs(cycle(5))) == 1

    def test_apex_pair_output_is_minimal(self):
        g = apex_pair(6)
        assert is_minimal_fvs(g, greedy_minimal_fvs(g)) is not None

    def test_always_minimal_and_at_least_optimum_fvs(self):
        for seed in range(30):
            g = gnp(8, 0.35, seed=seed)
            w = greedy_minimal_fvs(g)
            assert is_minimal_fvs(g, w) is not None
            assert len(w) >= fvs_min_brute(g)


class TestMinVertexCover:
    def test_apex_pair_cover_is_the_hub_pair(self):
        assert min_vertex_cover(apex_pair(6)) == {0, 1}

    def test_edgeless(self):
        assert min_vertex_cover(Graph([0, 1, 2])) == frozenset()

    def test_c5_needs_three(self):
        assert brute_min_vertex_cover_size(cycle(5)) == 3
        assert len(min_vertex_cover(cycle(5))) == 3

    def test_matches_brute_force(self):
        for seed in range(25):
            g = gnp(8, 0.4, seed=seed)
            cover = min_vertex_cover(g)
            assert all(u in cover or v in cover for u, v in g.edges())
            assert len(cover) == brute_min_vertex_cover_size(g)


class TestPartialMinimality:
    def test_single_independent(self):
        assert partial_minimality_ok(apex_pair(6), {2})

    def test_hub_starves_the_independent(self):
        # with hub 0 committed, vertex 2 keeps only one neighbor and no cycle
        assert not partial_minimality_ok(apex_pair(6), {0, 2})

    def test_empty_in_set(self):
        assert partial_minimality_ok(cycle(4), set())
