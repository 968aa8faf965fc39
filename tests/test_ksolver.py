import pytest

from mmfvs.graph import Graph
from mmfvs.ksolver import opt_exact, opt_exact_solution, opt_upper_bound, solve_k
from mmfvs.oracle import opt_mmfvs_brute
from mmfvs.verify import greedy_minimal_fvs, is_minimal_fvs

from helpers import (
    apex_pair,
    complete,
    cycle,
    disjoint_triangles,
    gnp,
    opt_exact_sweep_reference,
    path,
    random_graphs,
)


class TestOptUpperBound:
    def test_never_below_brute_force_on_the_corpus(self):
        from corpus import connected_graphs_up_to_8

        below = tight = 0
        for g in connected_graphs_up_to_8():
            opt = opt_mmfvs_brute(g).opt_value
            bound = opt_upper_bound(g)
            below += bound < opt
            tight += bound == opt
        assert below == 0
        # the bound is exact on 2,765 of the 12,113 graphs; a tighter one may do better
        assert tight >= 2765

    def test_hand_cases(self):
        # every core degree two: t of them reach 2(n - t) at t = ceil(n / 2)
        assert [opt_upper_bound(cycle(n)) for n in (3, 4, 5, 6, 7)] == [1, 2, 2, 3, 3]
        assert opt_upper_bound(disjoint_triangles(3)) == 4
        # two vertices of degree n - 1 reach 2(n - 2): exact on K_n and the apex pair
        for n in range(3, 8):
            assert opt_upper_bound(complete(n)) == n - 2 == opt_exact(complete(n))
            assert opt_upper_bound(apex_pair(n)) == n - 2 == opt_exact(apex_pair(n))

    def test_pendant_trees_do_not_count(self):
        # a triangle with a long tail and a pendant star has the triangle's bound
        g = Graph(range(9), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (0, 6), (6, 7), (6, 8)])
        assert opt_upper_bound(g) == 1
        assert opt_upper_bound(path(6)) == 0
        assert opt_upper_bound(Graph()) == 0

    def test_solve_k_refutes_past_the_bound_without_guessing(self):
        for g in random_graphs(60, seed=17, max_n=12):
            bound = opt_upper_bound(g)
            report = solve_k(g, bound + 1)
            # the greedy W is a minimal fvs, so it never reaches past the bound
            assert not report.is_yes and report.extras["greedy_size"] <= bound
            assert report.extras["guesses_tried"] == 0 and report.extras["nodes_per_guess"] == []
            assert report.nodes_explored == 0


class TestSolveK:
    def test_apex_pair_at_four(self):
        report = solve_k(apex_pair(6), 4)
        assert report.is_yes
        assert is_minimal_fvs(apex_pair(6), report.solution.vertices) is not None
        assert len(report.solution.vertices) >= 4

    def test_apex_pair_at_five(self):
        assert not solve_k(apex_pair(6), 5).is_yes

    def test_forest(self):
        assert not solve_k(path(5), 1).is_yes
        report = solve_k(path(5), 0)
        assert report.is_yes and report.solution.vertices == frozenset()

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            solve_k(cycle(3), -1)

    def test_monotone_in_k(self):
        for seed in range(8):
            g = gnp(8, 0.4, seed=seed)
            answers = [solve_k(g, k).is_yes for k in range(len(g) + 1)]
            assert answers == sorted(answers, reverse=True)

    def test_matches_oracle_exhaustively(self):
        for seed in range(15):
            g = gnp(7, 0.35, seed=40 + seed)
            opt = opt_mmfvs_brute(g).opt_value
            for k in range(len(g) + 1):
                assert solve_k(g, k).is_yes == (opt >= k), (seed, k, opt)

    def test_per_guess_node_bookkeeping(self):
        # one node count per bipartition guess, each within its own
        # 3^(k' + gamma) budget where gamma is at most the excluded part
        for seed in range(10):
            g = gnp(8, 0.4, seed=seed)
            w = greedy_minimal_fvs(g)
            k = len(w) + 2
            report = solve_k(g, k)
            per_guess = report.extras["nodes_per_guess"]
            assert sum(per_guess) == report.nodes_explored
            assert len(per_guess) == report.extras["guesses_tried"]


class TestOptExact:
    def test_apex_pair(self):
        assert opt_exact(apex_pair(6)) == 4

    def test_c6(self):
        assert opt_exact(cycle(6)) == 1

    def test_forest(self):
        assert opt_exact(path(4)) == 0

    def test_witness_attains_optimum(self):
        for seed in range(10):
            g = gnp(8, 0.35, seed=70 + seed)
            opt, sol = opt_exact_solution(g)
            assert opt == opt_mmfvs_brute(g).opt_value
            assert len(sol.vertices) >= opt
            assert is_minimal_fvs(g, sol.vertices) is not None

    def test_matches_brute_force_up_to_the_bound(self):
        # the sweep stops at the bound; an optimum equal to it needs no final no
        at_bound = 0
        for g in random_graphs(120, seed=23, max_n=10):
            opt, sol = opt_exact_solution(g)
            assert opt == len(sol.vertices) == opt_mmfvs_brute(g).opt_value
            at_bound += opt == opt_upper_bound(g)
        assert at_bound > 0

    def test_equals_the_sweep_from_zero(self):
        # starting at |greedy W| + 1 skips only the k that W answers itself
        for g in random_graphs(300, seed=31, max_n=11):
            opt, sol = opt_exact_solution(g)
            ref_opt, ref_sol = opt_exact_sweep_reference(g)
            assert (opt, sol.vertices, sol.certificate) == (
                ref_opt, ref_sol.vertices, ref_sol.certificate
            )
