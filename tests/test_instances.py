import math
import random

import pytest

from mmfvs import instances
from mmfvs.graph import Graph
from mmfvs.instances import InstanceFormatError, generate, parse_instance, write_instance

from helpers import apex_pair, cycle, disjoint_triangles, gnp


def assert_ends_are_the_keys_own_ints(g):
    """Every edge end is the very int object of its vertex key: one object per id."""
    keys = {id(v) for v in g.sorted_vertices()}
    assert g.edge_count() > 0
    assert all(id(u) in keys for v in g.sorted_vertices() for u in g.neighbors(v))


class TestParse:
    def test_basic(self):
        g = parse_instance("p mmfvs 3 2\ne 1 2\ne 2 3\n")
        assert g.vertices == {0, 1, 2}
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_comments_and_blank_lines(self):
        g = parse_instance("c a comment\n\np mmfvs 2 1\nc another\ne 1 2\n")
        assert g.edge_count() == 1

    def test_self_loop(self):
        with pytest.raises(InstanceFormatError, match="line 2: self-loop"):
            parse_instance("p mmfvs 3 1\ne 3 3\n")

    def test_duplicate_edge(self):
        with pytest.raises(InstanceFormatError, match="line 3: duplicate edge"):
            parse_instance("p mmfvs 3 2\ne 1 2\ne 2 1\n")

    def test_out_of_range(self):
        with pytest.raises(InstanceFormatError, match="line 2: endpoint out of range"):
            parse_instance("p mmfvs 3 1\ne 1 4\n")

    def test_bad_header(self):
        with pytest.raises(InstanceFormatError, match="header"):
            parse_instance("p mmfvs 3\ne 1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(InstanceFormatError, match="announced 2 edges"):
            parse_instance("p mmfvs 3 2\ne 1 2\n")

    def test_missing_header(self):
        with pytest.raises(InstanceFormatError, match="missing header"):
            parse_instance("c nothing here\n")

    def test_edge_ends_are_the_vertex_keys_own_ints(self):
        assert_ends_are_the_keys_own_ints(parse_instance(write_instance(gnp(400, 0.01, 3))))


class TestRoundTrip:
    def test_parse_write_identity(self):
        for g in (apex_pair(6), cycle(5), disjoint_triangles(2), Graph(range(4))):
            assert parse_instance(write_instance(g)) == g

    def test_isolated_vertices_survive(self):
        g = Graph(range(5), [(0, 1)])
        assert parse_instance(write_instance(g)).vertices == g.vertices


class TestGenerate:
    @pytest.mark.parametrize(
        "family, params",
        [
            ("gnp", {"n": 400, "p": 0.01}),  # the bulk draw
            ("gnp", {"n": 300, "p": 0.07}),  # one random() per pair
            ("cycle", {"n": 300}),
            ("complete", {"n": 300}),
            ("apexpair", {"n": 300}),
            ("disjoint-cycles", {"sizes": "140,160"}),
        ],
    )
    def test_edge_ends_are_the_vertex_keys_own_ints(self, family, params):
        # ids past 256 are fresh int objects unless every end comes from one list
        assert_ends_are_the_keys_own_ints(generate(family, params, 3))

    def test_apex_pair_matches_reference_shape(self):
        g = generate("apexpair", {"n": 6})
        assert g == apex_pair(6)
        assert g.degree(0) == 5 and g.degree(1) == 5
        assert g.induced({2, 3, 4, 5}).edge_count() == 0

    def test_cycle_and_complete(self):
        assert generate("cycle", {"n": 5}) == cycle(5)
        assert generate("complete", {"n": 4}).edge_count() == 6

    def test_disjoint_cycles(self):
        assert generate("disjoint-cycles", {"sizes": "3,3"}) == disjoint_triangles(2)
        assert generate("disjoint-cycles", {"sizes": [3, 3]}) == disjoint_triangles(2)
        assert generate("disjoint-cycles", {"sizes": 5}) == cycle(5)

    def test_gnp_determinism(self):
        a = generate("gnp", {"n": 10, "p": 0.3}, seed=7)
        b = generate("gnp", {"n": 10, "p": 0.3}, seed=7)
        assert a == b
        c = generate("gnp", {"n": 10, "p": 0.3}, seed=8)
        assert a != c  # overwhelmingly likely for these parameters

    def test_reduction_output_shape(self):
        g = generate("reduction-output", {"n": 4, "p": 0.5}, seed=3)
        assert len(g) == 2 * 4 + 5

    def test_reduction_output_ignores_k(self):
        # k sets only the reduction's target k', so any k, even one that is
        # not a number, gives the graph of no k
        plain = generate("reduction-output", {"n": 4, "p": 0.5}, seed=3)
        for k in (0, 7, "x"):
            assert generate("reduction-output", {"n": 4, "p": 0.5, "k": k}, seed=3) == plain

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate("mystery", {"n": 3})

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("gnp", {"n": 10}, "gnp: parameter p is missing"),
            ("gnp", {"p": 0.5}, "gnp: parameter n is missing"),
            ("gnp", {"n": 2.5, "p": 0.5}, "gnp: parameter n must be a non-negative integer, got 2.5"),
            ("gnp", {"n": -3, "p": 0.5}, "gnp: parameter n must be a non-negative integer, got -3"),
            ("gnp", {"n": "ten", "p": 0.5}, "gnp: parameter n must be a non-negative integer"),
            ("gnp", {"n": 10, "p": math.nan}, r"gnp: parameter p must be a number in \[0, 1\], got nan"),
            ("gnp", {"n": 10, "p": -0.1}, r"gnp: parameter p must be a number in \[0, 1\]"),
            ("gnp", {"n": 10, "p": 1.5}, r"gnp: parameter p must be a number in \[0, 1\]"),
            ("gnp", {"n": 10, "p": "half"}, r"gnp: parameter p must be a number in \[0, 1\]"),
            ("reduction-output", {"p": 0.5}, "reduction-output: parameter n is missing"),
            ("reduction-output", {"n": 4.5}, "reduction-output: parameter n must be a non-negative integer"),
            ("reduction-output", {"n": 4, "p": math.nan}, r"reduction-output: parameter p must be a number in \[0, 1\]"),
            ("cycle", {}, "cycle: parameter n is missing"),
            ("disjoint-cycles", {}, "disjoint-cycles: parameter sizes is missing"),
            ("disjoint-cycles", {"sizes": 3.5}, "disjoint-cycles: parameter sizes must be integers >= 3, got 3.5"),
            ("disjoint-cycles", {"sizes": 4.0}, "disjoint-cycles: parameter sizes must be integers >= 3, got 4.0"),
            ("disjoint-cycles", {"sizes": "3=4"}, "disjoint-cycles: parameter sizes must be integers >= 3, got '3=4'"),
            ("disjoint-cycles", {"sizes": "x"}, "disjoint-cycles: parameter sizes must be integers >= 3, got 'x'"),
            ("disjoint-cycles", {"sizes": [3, 4.5]}, "disjoint-cycles: parameter sizes must be integers >= 3"),
            ("disjoint-cycles", {"sizes": [3, 2]}, "disjoint-cycles: parameter sizes must be integers >= 3, got \\[3, 2\\]"),
        ],
    )
    def test_bad_parameters_name_the_family_and_the_parameter(self, family, params, message):
        with pytest.raises(ValueError, match=message):
            generate(family, params, seed=1)

    def test_probability_bounds_are_allowed(self):
        assert generate("gnp", {"n": 5, "p": 0}, seed=1).edge_count() == 0
        assert generate("gnp", {"n": 5, "p": 1}, seed=1).edge_count() == 10


# The smallest n whose n(n - 1)/2 pairs fill one block of the bulk draw.
_FIRST_BULK_N = next(n for n in range(2, 1000) if n * (n - 1) // 2 >= instances._BLOCK)

# p at t/256 and just off it: there a coin's top byte alone cannot decide the pair
_AMBIGUOUS_P = [
    q for t in (1, 2, 7, 15) for q in (t / 256, math.nextafter(t / 256, 0), math.nextafter(t / 256, 1), t / 256 + 1e-9)
]


class TestGnpDraw:
    """`generate("gnp")` draws large sparse graphs' coins in bulk; every
    graph must equal `helpers.gnp`, which makes one random() call per pair."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.5, 1.0])
    def test_tiny_graphs(self, n, p):
        for seed in range(3):
            assert generate("gnp", {"n": n, "p": p}, seed) == gnp(n, p, seed)

    @pytest.mark.parametrize("n", [_FIRST_BULK_N - 1, _FIRST_BULK_N, 200])
    @pytest.mark.parametrize("p", [0.0, 1e-12, 0.001, *_AMBIGUOUS_P])
    def test_on_both_sides_of_the_block_boundary(self, n, p):
        for seed in range(2):
            assert generate("gnp", {"n": n, "p": p}, seed) == gnp(n, p, seed)

    @pytest.mark.parametrize("p", [math.nextafter(1 / 16, 0), 1 / 16, math.nextafter(1 / 16, 1)])
    def test_on_both_sides_of_the_density_cut(self, p):
        for seed in range(2):
            assert generate("gnp", {"n": 200, "p": p}, seed) == gnp(200, p, seed)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_the_large_greedy_size(self, seed):
        assert generate("gnp", {"n": 1000, "p": 0.0015}, seed) == gnp(1000, 0.0015, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_p_at_and_just_above_a_drawn_coin(self, seed):
        # the pair whose coin is c is an edge iff c < p: only the full 53-bit
        # coin, both words of it, separates p = c from the next float up
        rng = random.Random(seed)
        coins = sorted(c for c in (rng.random() for _ in range(200 * 199 // 2)) if c < 1 / 16)
        for c in coins[:: len(coins) // 6]:
            for p in (c, math.nextafter(c, 1)):
                assert generate("gnp", {"n": 200, "p": p}, seed) == gnp(200, p, seed)

    @pytest.mark.parametrize("n", [5, 6, 11, 16])
    def test_graphs_of_whole_and_partial_blocks(self, monkeypatch, n):
        # with blocks of 10 pairs, n = 5 and n = 16 fill one and twelve blocks exactly
        monkeypatch.setattr(instances, "_BLOCK", 10)
        for seed in range(20):
            for p in (0.01, 0.03, *_AMBIGUOUS_P):
                assert generate("gnp", {"n": n, "p": p}, seed) == gnp(n, p, seed)

    @pytest.mark.parametrize(
        "n, p, per_pair",
        [(_FIRST_BULK_N - 1, 0.01, True), (_FIRST_BULK_N, 0.01, False), (1000, 0.0015, False),
         (1000, 1 / 16, True), (11, 0.5, True)],
    )
    def test_the_bulk_draw_runs_on_large_sparse_graphs_only(self, monkeypatch, n, p, per_pair):
        calls = []

        class Counting(random.Random):
            def random(self):
                calls.append(None)
                return super().random()

        monkeypatch.setattr(instances.random, "Random", Counting)
        generate("gnp", {"n": n, "p": p}, seed=1)
        assert len(calls) == (n * (n - 1) // 2 if per_pair else 0)
