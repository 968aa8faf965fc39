import random
import sys
from collections import Counter
from itertools import product

import pytest

from mmfvs import approx, report
from mmfvs.approx import _run_greedy, approx_solve
from mmfvs.graph import Graph, chain_kernel, cycle_closers, peel
from mmfvs.instances import generate
from mmfvs.ksolver import solve_k
from mmfvs.oracle import opt_mmfvs_brute
from mmfvs.vcsolver import cover_guesses, settle_guess, solve_vc
from mmfvs.verify import is_minimal, is_minimal_fvs, min_vertex_cover

from helpers import apex_pair, gnp, kernel_bound, neighborhood_components, path
from test_cover_pinned import corpus as pinned_corpus


def four_tree_instance():
    """Cover side {0..4}, four outside trees, independents 17..20.

    Component ids (minimum members): 5, 9, 12, 15.
    """
    edges = [
        (0, 1), (0, 2), (3, 4),                   # inside the cover
        (5, 6), (6, 7), (6, 8),                   # tree with id 5
        (9, 10), (9, 11),                         # tree with id 9
        (12, 13), (13, 14),                       # tree with id 12
        (15, 16),                                 # tree with id 15
        (17, 8), (17, 11), (17, 14),
        (18, 1), (18, 4), (18, 7), (18, 11), (18, 16),
        (19, 2), (19, 3), (19, 5), (19, 12),
        (20, 10), (20, 12), (20, 15),
    ]
    g = Graph(range(21), edges)
    c_out = frozenset(range(5, 17))
    indep = frozenset({17, 18, 19, 20})
    return g, c_out, indep


class TestNeighborhoodComponents:
    def test_four_tree_adjacencies(self):
        g, c_out, indep = four_tree_instance()
        assert neighborhood_components(g, c_out, 17) == {5, 9, 12}
        assert neighborhood_components(g, c_out, 18) == {5, 9, 15}
        assert neighborhood_components(g, c_out, 19) == {5, 12}
        assert neighborhood_components(g, c_out, 20) == {9, 12, 15}

    def test_two_trees(self):
        g = Graph(range(3), [(0, 1), (0, 2)])
        assert neighborhood_components(g, {1, 2}, 0) == {1, 2}

    def test_no_outside_neighbors(self):
        g = Graph(range(3), [(0, 1)])
        assert neighborhood_components(g, {2}, 0) == frozenset()

    def test_member_of_c_out_rejected(self):
        g = Graph(range(2), [(0, 1)])
        with pytest.raises(ValueError):
            neighborhood_components(g, {0}, 0)


def conflict_set(g, c_out, indep, u):
    """What the greedy takes with u: the vertices closing a cycle once u joins c_out.

    It is the conflict set only when no vertex of indep has two neighbours
    in one tree of g[c_out], as in every settled guess.
    """
    return set(cycle_closers(g, set(c_out) | {u}, set(indep) - {u}))


class TestConflictSet:
    def test_four_tree_conflicts(self):
        g, c_out, indep = four_tree_instance()
        assert conflict_set(g, c_out, indep, 17) == {18, 19, 20}

    def test_only_vertex(self):
        g = Graph(range(3), [(0, 1), (0, 2)])
        assert conflict_set(g, {1, 2}, {0}, 0) == frozenset()

    def test_single_shared_component_is_no_conflict(self):
        g = Graph(range(4), [(0, 2), (1, 2), (0, 3)])
        assert conflict_set(g, {2, 3}, {0, 1}, 0) == frozenset()

    def test_matches_the_component_list_reference(self, monkeypatch):
        # at every greedy step, x is taken with u iff they share two
        # adjacent components of the outside forest
        steps = []

        def recorded(g, out, candidates):
            taken = cycle_closers(g, out, candidates)
            steps.append((out, candidates, taken))
            return taken

        monkeypatch.setattr(approx, "cycle_closers", recorded)
        rng = random.Random(5)
        taken_any = 0
        for seed in range(40):
            g = gnp(rng.randint(4, 12), rng.uniform(0.2, 0.5), seed=seed)
            cover = min_vertex_cover(g)
            for guess in cover_guesses(g, cover, Counter(), lambda size: True):
                steps.clear()
                _run_greedy(g, guess, Counter(), Counter())
                for out, candidates, taken in steps:
                    # the greedy moves independents out in ascending order,
                    # so u is the largest independent in `out`
                    u = max(out - cover)
                    c_out = out - {u}
                    qu = neighborhood_components(g, c_out, u)
                    expected = [
                        x for x in sorted(candidates)
                        if len(qu & neighborhood_components(g, c_out, x)) >= 2
                    ]
                    assert taken == expected, (seed, guess.cover_in, u)
                    taken_any += bool(taken)
        assert taken_any > 0


def greedy(g, cover_in, cover_out, tally):
    return _run_greedy(g, settle_guess(g, cover_in, cover_out, tally), tally, Counter())


class TestGreedyRound:
    """Full greedy runs of one cover-side guess: (solution, moved vertices)."""

    def test_move_absorbs_conflicts_and_merges_trees(self):
        g = Graph(range(6), [(0, 1), (2, 3), (0, 4), (2, 4), (1, 5), (3, 5)])
        solution, moved = greedy(g, frozenset(), frozenset({0, 1, 2, 3}), Counter())
        assert moved == (4,)
        assert solution == {5}

    def test_minimality_violation_sends_vertex_inside(self):
        # 0 is committed in with its only cycle 0-3-4; absorbing {3} would
        # starve it, so the probed vertex 1 joins the solution instead
        g = Graph([0, 1, 3, 4, 5], [(0, 3), (0, 4), (3, 4), (1, 4), (1, 5), (3, 5)])
        solution, moved = greedy(g, frozenset({0}), frozenset({4, 5}), Counter())
        assert 1 in solution
        assert moved == ()

    def test_last_vertex_moves_out(self):
        g = Graph(range(3), [(0, 1), (0, 2), (1, 2)])
        # 0 closes a cycle with the tree {1, 2}: the cycle rule, not a
        # greedy step, must absorb it
        tally = Counter()
        solution, moved = greedy(g, frozenset(), frozenset({1, 2}), tally)
        assert solution == {0}
        assert tally["reduction_force"] == 1 and not moved


class TestApproxSolve:
    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            approx_solve(path(3), 0.0)
        with pytest.raises(ValueError):
            approx_solve(path(3), 1.0)

    def test_an_epsilon_whose_threshold_overflows_is_refused(self):
        # vc / epsilon is infinite here, so no threshold can be computed
        for epsilon in (1e-310, 5e-324):
            with pytest.raises(ValueError, match="epsilon"):
                approx_solve(generate("apexpair", {"n": 6}), epsilon)

    def test_a_forest_answers_at_the_smallest_epsilon(self):
        # vc is 0 on a forest's empty kernel, and 0 / epsilon is finite
        result = approx_solve(path(5), 5e-324)
        assert result.mode == "exact"
        assert result.solution.vertices == frozenset()

    def test_forest_is_exact(self):
        result = approx_solve(path(5), 0.5)
        assert result.mode == "exact"
        assert result.solution.vertices == frozenset()

    def test_apex_pair_enters_greedy_mode(self):
        g = apex_pair(6)
        result = approx_solve(g, 0.5)
        assert result.mode == "greedy"
        assert is_minimal_fvs(g, result.solution.vertices) is not None
        # additive guarantee: opt - vc = 4 - 2
        assert len(result.solution.vertices) >= 2
        assert len(result.solution.vertices) == 4  # the greedy finds it here

    def test_no_certified_guess_falls_back_to_the_exact_optimum(self, monkeypatch):
        # every greedy candidate fails its minimality check, so no guess survives
        monkeypatch.setattr(approx, "is_minimal", lambda g, s: False)
        g = apex_pair(6)
        result = approx_solve(g, 0.5)
        assert result.mode == "exact"
        assert is_minimal_fvs(g, result.solution.vertices) is not None
        assert len(result.solution.vertices) == opt_mmfvs_brute(g).opt_value
        assert result.report.extras == {"vc": 2, "threshold": 4, "opt": 4}

    def test_guarantees_on_random_corpus(self):
        for seed in range(40):
            g = gnp(7, 0.4, seed=seed)
            opt = opt_mmfvs_brute(g).opt_value
            vc = len(min_vertex_cover(g))
            for eps in (0.25, 0.5):
                result = approx_solve(g, eps)
                size = len(result.solution.vertices)
                assert is_minimal_fvs(g, result.solution.vertices) is not None
                assert size >= opt - vc, (seed, eps)
                assert size >= -(-(1 - eps) * opt // 1), (seed, eps)
                if result.mode == "greedy":
                    assert result.report.extras["max_moved"] <= vc


class TestGate:
    """approx_solve returns the greedy best at or above the threshold, else the exact optimum."""

    @pytest.fixture
    def greedy_guesses(self, monkeypatch):
        guesses = []
        every_guess = approx.cover_guesses

        def recorded(*args):
            for guess in every_guess(*args):
                guesses.append(guess)
                yield guess

        monkeypatch.setattr(approx, "cover_guesses", recorded)
        return guesses

    def test_threshold_past_the_degree_bound_goes_exact_without_the_gate(self, greedy_guesses):
        for g in (path(5), gnp(8, 0.4, seed=3)):
            result = approx_solve(g, 0.5)
            assert result.report.extras["threshold"] > kernel_bound(g)
            assert greedy_guesses == []
            assert result.mode == "exact"
            assert result.report.nodes_explored == 0
            assert result.report.extras["opt"] == opt_mmfvs_brute(g).opt_value

    def test_greedy_best_at_the_threshold_skips_the_gate(self, greedy_guesses):
        result = approx_solve(apex_pair(6), 0.5)
        assert greedy_guesses
        assert result.mode == "greedy"
        assert len(result.solution.vertices) >= result.report.extras["threshold"]

    def test_opt_below_the_threshold_takes_the_exact_route(self, greedy_guesses):
        # two guesses can still reach the threshold 4, but no verified
        # candidate does, since opt is 3
        g = gnp(6, 0.5, seed=7)
        result = approx_solve(g, 0.9)
        threshold = result.report.extras["threshold"]
        assert threshold == kernel_bound(g) == 4
        assert len(greedy_guesses) == 2
        assert result.mode == "exact"
        assert result.report.nodes_explored == 0
        assert result.report.extras["opt"] == opt_mmfvs_brute(g).opt_value < threshold

    def test_greedy_best_below_the_threshold_gives_way_to_the_exact_optimum(self, monkeypatch):
        # without the cover_in = {} guess the greedy best of apex_pair(6) is
        # one hub, below the threshold 4 = opt, so the exact optimum answers
        every_guess = approx.cover_guesses
        monkeypatch.setattr(
            approx, "cover_guesses", lambda *args: (s for s in every_guess(*args) if s.cover_in)
        )
        result = approx_solve(apex_pair(6), 0.5)
        assert result.report.extras["threshold"] == 4
        assert result.mode == "exact"
        assert len(result.solution.vertices) == result.report.extras["opt"] == 4
        assert result.report.nodes_explored == 0


def test_each_call_builds_one_certificate(monkeypatch):
    # solve_vc certifies its final best, a greedy-mode approx_solve its
    # final greedy best and solve_k its witness, all through
    # `report.certify`; every other candidate gets the boolean check only.
    # A witness of solve_k's extension search is certified twice: on the
    # chain kernel by `solve_extension`, and on g by solve_k
    built = []

    def counted(g, s):
        built.append(frozenset(s))
        return is_minimal_fvs(g, s)

    monkeypatch.setattr(report, "is_minimal_fvs", counted)
    rng = random.Random(26)
    graphs = [gnp(rng.randint(6, 10), rng.uniform(0.25, 0.55), seed=seed) for seed in range(40)]
    graphs += [apex_pair(n) for n in range(6, 12)]
    graphs += [generate("reduction-output", {"n": 5, "p": 0.4, "k": 0}, seed) for seed in range(10)]
    greedy = searched = 0
    for g in graphs:
        built.clear()
        solution, _ = solve_vc(g)
        assert built == [solution.vertices], g
        for epsilon in (0.5, 0.9):
            built.clear()
            result = approx_solve(g, epsilon)
            if result.mode == "greedy":
                assert built == [result.solution.vertices], (g, epsilon)
                greedy += 1
        for k in range(len(solution.vertices) + 2):
            built.clear()
            decided = solve_k(g, k)
            extended = decided.is_yes and k > decided.extras["greedy_size"]
            assert built == ([decided.solution.vertices] * (1 + extended) if decided.is_yes else []), (g, k)
            searched += extended
    assert greedy >= 10, greedy
    # witnesses the extension search found, beyond the greedy W
    assert searched >= 20, searched


def test_no_greedy_step_leaves_a_cycle_closer(monkeypatch):
    # `_run_greedy` only peels after a step: the step has moved every closer
    # of the new out side inside, and peeling makes no new one.  The sets
    # are read from the greedy's frame at each peel, as the peel leaves them.
    steps = 0

    def checked_peel(g, live):
        nonlocal steps
        gone = peel(g, live)
        state = sys._getframe(1).f_locals
        assert cycle_closers(g, state["out"] - gone, state["free"] - gone) == []
        steps += 1
        return gone

    monkeypatch.setattr(approx, "peel", checked_peel)
    rng = random.Random(29)
    graphs = []
    for n in range(8, 41, 4):
        noise = {tuple(sorted(rng.sample(range(2, n), 2))) for _ in range(rng.randint(0, 8))}
        graphs.append(Graph(range(n), list(apex_pair(n).edges()) + sorted(noise)))
    for n, p, seed in product(range(5, 9), (0.3, 0.5), range(5)):
        graphs.append(generate("reduction-output", {"n": n, "p": p, "k": 0}, seed))
    for g in graphs:
        kernel = chain_kernel(g)
        for guess in cover_guesses(kernel, min_vertex_cover(kernel), Counter(), lambda size: True):
            _run_greedy(kernel, guess, Counter(), Counter())
    assert steps > 600, steps


def test_candidates_are_filtered_on_the_kernel_as_on_g(monkeypatch, connected_corpus):
    # approx_solve keeps a greedy candidate when `is_minimal` accepts it on
    # the chain kernel it was built on; the kernel's minimal fvs are g's
    # with the same ids, so that filter keeps exactly what a check on g
    # keeps.  The reduction outputs of the pinned corpus are where the
    # kernel drops pad vertices.
    built, checked = [], []
    run = approx._run_greedy

    def recorded(kernel, guess, counters, conflict_sizes):
        candidate, moved = run(kernel, guess, counters, conflict_sizes)
        built.append((kernel, candidate))
        return candidate, moved

    def filtered(h, candidate):
        checked.append((h, candidate))
        return is_minimal(h, candidate)

    monkeypatch.setattr(approx, "_run_greedy", recorded)
    monkeypatch.setattr(approx, "is_minimal", filtered)
    rejected = shrunk = 0
    for g, epsilon in product([*pinned_corpus(), *connected_corpus[::8]], (0.5, 0.9)):
        built.clear()
        checked.clear()
        result = approx_solve(g, epsilon)
        # each candidate is checked once, on the very kernel it was built on
        assert len(checked) == len(built)
        assert all(h is kernel and c == candidate for (h, c), (kernel, candidate) in zip(checked, built))
        kept = [is_minimal(kernel, candidate) for kernel, candidate in built]
        for (kernel, candidate), ok in zip(built, kept):
            assert ok == is_minimal(g, candidate), (g, sorted(candidate))
            shrunk += len(kernel) < len(g)
        rejected += kept.count(False)
        if result.mode == "greedy":
            extras = result.report.extras
            assert (extras["verified_guesses"], extras["guess_rejected_at_verify"]) == (
                kept.count(True), kept.count(False)
            )
    assert rejected > 0 and shrunk > 0, (rejected, shrunk)
