import pytest

from mmfvs.ksolver import opt_exact, opt_exact_solution, solve_k
from mmfvs.oracle import opt_mmfvs_brute
from mmfvs.verify import greedy_minimal_fvs, is_minimal_fvs

from helpers import apex_pair, cycle, gnp, opt_exact_sweep_reference, path, random_graphs


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

    def test_equals_the_sweep_from_zero(self):
        # starting at |greedy W| + 1 skips only the k that W answers itself
        for g in random_graphs(300, seed=31, max_n=11):
            opt, sol = opt_exact_solution(g)
            ref_opt, ref_sol = opt_exact_sweep_reference(g)
            assert (opt, sol.vertices, sol.certificate) == (
                ref_opt, ref_sol.vertices, ref_sol.certificate
            )
