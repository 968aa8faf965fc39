import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmfvs import ksolver, vcsolver
from mmfvs.extension import solve_extension
from mmfvs.graph import Graph, degree_bound, two_core
from mmfvs.instances import generate
from mmfvs.ksolver import opt_exact, opt_exact_solution, solve_k
from mmfvs.oracle import opt_mmfvs_brute
from mmfvs.vcsolver import solve_vc
from mmfvs.verify import greedy_minimal_fvs, is_minimal_fvs, min_vertex_cover

from helpers import (
    apex_pair,
    complete,
    cycle,
    disjoint_triangles,
    gnp,
    kernel_bound,
    opt_exact_sweep_reference,
    opt_exact_witness_reference,
    opt_upper_bound,
    path,
    random_graphs,
    subdivided,
    with_pendant_trees,
)


@pytest.fixture
def calls(monkeypatch):
    """Counts the vertex-cover search and solve_k calls that ksolver makes by name."""
    counts = {"solve_vc": 0, "solve_k": 0}
    for name in counts:
        real = getattr(ksolver, name)

        def recorded(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(ksolver, name, recorded)
    return counts


class TestOptUpperBound:
    def test_never_below_brute_force_on_the_corpus(self, connected_corpus, corpus_optima):
        below = kernel_below = tight = 0
        for g, opt in zip(connected_corpus, corpus_optima, strict=True):
            bound = opt_upper_bound(g)
            below += bound < opt
            tight += bound == opt
            # approx_solve's gate: the kernel's minimal fvs reach g's optimum
            kernel_below += kernel_bound(g) < opt
        assert below == 0 and kernel_below == 0
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


class TestGuessCut:
    def test_every_skipped_guess_has_no_extension(self):
        # replay solve_k's guess order on the 2-core: each guess the
        # degree-sum bound skips has no extension, and solve_k counts
        # exactly the skips before its first yes, each as a 0-node guess
        skipped = 0
        for i, base in enumerate(random_graphs(60, seed=23, max_n=12)):
            g = subdivided(base, i) if i % 3 == 0 else base
            w, core = greedy_minimal_fvs(g), two_core(g)
            free = core.vertices - w
            for k in range(len(w) + 1, opt_upper_bound(g) + 1):
                cut, found = 0, False
                for size in range(len(w) + 1):
                    for picked in combinations(sorted(w), size):
                        required = frozenset(picked)
                        if degree_bound(core, w - required, free) < k - size:
                            assert not solve_extension(core, required, w - required, k - size).is_yes
                            cut += 1
                        elif solve_extension(core, required, w - required, k - size).is_yes:
                            found = True
                            break
                    if found:
                        break
                report = solve_k(g, k)
                assert report.is_yes == found
                assert report.extras["guesses_cut_by_bound"] == cut == report.extras["nodes_per_guess"].count(0)
                skipped += cut
        # 1,601 skipped guesses
        assert skipped >= 1500


class TestTwoCore:
    """solve_k searches its guesses on the 2-core and certifies the witness on g."""

    def test_extension_search_sees_only_the_two_core(self, monkeypatch):
        searched = []
        real = ksolver.solve_extension

        def recorded(h, *args):
            searched.append(h)
            return real(h, *args)

        monkeypatch.setattr(ksolver, "solve_extension", recorded)
        trimmed = 0
        for g in random_graphs(80, seed=5, max_n=20):
            w = len(greedy_minimal_fvs(g))
            before = len(searched)
            for k in (w + 1, w + 2):
                report = solve_k(g, k)
                if report.is_yes:
                    sol = report.solution
                    assert sol.certificate == is_minimal_fvs(g, sol.vertices) is not None
            trimmed += len(searched) > before and len(two_core(g)) < len(g)
        assert searched and all(min(h.degree(v) for v in h.vertices) >= 2 for h in searched)
        # graphs with trees hung off their cycles were searched without them
        assert trimmed >= 20

    def test_two_core_is_taken_once_per_call(self, monkeypatch):
        taken = []
        real = ksolver.two_core

        def counted(h):
            taken.append(h)
            return real(h)

        monkeypatch.setattr(ksolver, "two_core", counted)
        for g in random_graphs(40, seed=6, max_n=20):
            w = greedy_minimal_fvs(g)
            for k in range(len(w) + 3):
                taken.clear()
                report = solve_k(g, k)
                assert len(taken) == 1 and taken[0] is g
                if k <= len(w):
                    # the greedy shortcut, on the core, returns g's own greedy W
                    assert report.is_yes and report.solution.vertices == w
                    assert report.solution.certificate == is_minimal_fvs(g, w)
            taken.clear()
            opt_exact_solution(g)
            assert len(taken) == 1 and taken[0] is g


@settings(max_examples=150, deadline=None)
@given(with_pendant_trees())
def test_solve_k_with_pendant_trees_matches_brute_force(g):
    opt = opt_mmfvs_brute(g).opt_value
    for k in (opt, opt + 1):
        report = solve_k(g, k)
        assert report.is_yes == (k == opt), (sorted(g.edges()), k, opt)
        if report.is_yes:
            sol = report.solution
            assert len(sol.vertices) >= opt
            assert sol.certificate == is_minimal_fvs(g, sol.vertices)


@st.composite
def subdivided_graphs(draw, max_n=14):
    """Hypothesis strategy: `subdivided` gnp graphs with at most max_n vertices."""
    base = gnp(draw(st.integers(3, 7)), draw(st.floats(0.3, 0.9)), draw(st.integers(0, 1 << 16)))
    g = subdivided(base, draw(st.integers(0, 1 << 16)))
    assume(len(g) <= max_n)
    return g


@st.composite
def with_isolated_vertices(draw, max_n=14):
    """Hypothesis strategy: a `gnp` graph whose ids lie among isolated vertices."""
    n = draw(st.integers(3, 9))
    base = gnp(n, draw(st.floats(0.2, 0.9)), draw(st.integers(0, 1 << 16)))
    ids = draw(st.permutations(range(draw(st.integers(n, max_n)))))
    return Graph(ids, [(ids[u], ids[v]) for u, v in base.edges()])


@settings(max_examples=200, deadline=None)
@given(st.one_of(with_pendant_trees(), subdivided_graphs(), with_isolated_vertices()))
def test_the_two_core_keeps_the_greedy_fvs_and_the_bound(g):
    # the greedy on g drops every vertex off the core, and decides each core
    # vertex by cycles that all lie in the core
    core = two_core(g)
    assert greedy_minimal_fvs(core) == greedy_minimal_fvs(g), sorted(g.edges())
    assert opt_upper_bound(g) == degree_bound(core, (), core.vertices)


@settings(max_examples=150, deadline=None)
@given(st.one_of(subdivided_graphs(), with_pendant_trees()))
def test_chain_kernel_keeps_the_optimum(g):
    opt = opt_mmfvs_brute(g).opt_value
    found, witness = opt_exact_solution(g)
    cover_sol, _ = solve_vc(g)
    assert found == len(witness.vertices) == len(cover_sol.vertices) == opt, sorted(g.edges())
    assert is_minimal_fvs(g, witness.vertices) is not None
    assert is_minimal_fvs(g, cover_sol.vertices) is not None


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
        # a greedy W that reaches the bound is returned without asking solve_vc
        at_bound = 0
        for g in random_graphs(120, seed=23, max_n=10):
            opt, sol = opt_exact_solution(g)
            assert opt == len(sol.vertices) == opt_mmfvs_brute(g).opt_value
            at_bound += opt == opt_upper_bound(g)
        assert at_bound > 0

    def test_equals_the_sweep_from_zero(self, calls):
        # solve_vc reaches the opt of the sweep from zero, with its own witness
        rng = random.Random(41)
        routed = [
            *(generate("apexpair", {"n": n}) for n in range(9, 14)),
            *(
                generate("reduction-output", {"n": rng.randint(2, 4), "p": rng.uniform(0.3, 0.9), "k": 0},
                         seed=rng.randrange(1 << 30))
                for _ in range(20)
            ),
        ]
        for g in [*random_graphs(300, seed=31, max_n=11), *routed]:
            opt, sol = opt_exact_solution(g)
            ref_sol = opt_exact_witness_reference(g)
            assert (opt, sol.vertices, sol.certificate) == (
                opt_exact_sweep_reference(g)[0], ref_sol.vertices, ref_sol.certificate
            )
        # the apex pairs (|W| = 1 below a bound of n - 2) ask solve_vc at least
        assert calls["solve_vc"] >= 5


class TestRoute:
    """opt_exact_solution returns W at the bound and asks solve_vc otherwise."""

    def test_reduction_output_takes_solve_vc(self, calls):
        # tau = 7 against |W| = 3 and a bound of 21: the sweep took seconds here
        g = generate("reduction-output", {"n": 10, "p": 0.4, "k": 0}, seed=0)
        w, bound, tau = greedy_minimal_fvs(g), opt_upper_bound(g), len(min_vertex_cover(g))
        assert (len(w), bound, tau) == (3, 21, 7)
        opt, sol = opt_exact_solution(g)
        assert opt == len(sol.vertices) == 18
        assert is_minimal_fvs(g, sol.vertices) is not None
        # opt = 18 > |W|, so the witness is solve_vc's: no solve_k call at all
        assert calls["solve_vc"] == 1 and calls["solve_k"] == 0

    def test_sparse_graph_takes_one_solve_vc_call(self, calls):
        # a sparse graph whose cover (tau = 10) is large next to |W| = 3
        g = gnp(24, 2.0 / 24, seed=1)
        w, bound, tau = greedy_minimal_fvs(g), opt_upper_bound(g), len(min_vertex_cover(g))
        assert (len(w), bound, tau) == (3, 8, 10)
        opt, sol = opt_exact_solution(g)
        assert calls == {"solve_vc": 1, "solve_k": 0}
        ref_sol = solve_vc(g)[0]
        assert (opt, sol.vertices, sol.certificate) == (5, ref_sol.vertices, ref_sol.certificate)
        assert opt_exact_sweep_reference(g)[0] == 5

    def test_tau_is_the_two_core_cover(self, calls, monkeypatch):
        # the apex pair with n = 7 plus a pendant path of three vertices at
        # each of 2, 3 and 4: tau is 8 on the whole graph, but 2 on the
        # 2-core that solve_vc searches
        seen = []

        def recorded(h):
            seen.append(h)
            return min_vertex_cover(h)

        monkeypatch.setattr(vcsolver, "min_vertex_cover", recorded)
        pendants = [(2, 7), (7, 8), (8, 9), (3, 10), (10, 11), (11, 12), (4, 13), (13, 14), (14, 15)]
        g = Graph(range(16), list(apex_pair(7).edges()) + pendants)
        assert (len(greedy_minimal_fvs(g)), opt_upper_bound(g), len(min_vertex_cover(g))) == (1, 5, 8)
        opt, sol = opt_exact_solution(g)
        # one cover per call, taken on a graph without pendant trees
        assert len(seen) == 1 and min(seen[0].degree(v) for v in seen[0].vertices) >= 2
        assert len(min_vertex_cover(seen[0])) == 2
        assert calls["solve_vc"] == 1
        assert opt == len(sol.vertices) == opt_mmfvs_brute(g).opt_value == 5
        assert is_minimal_fvs(g, sol.vertices) is not None

    def test_solve_vc_gets_the_core_and_certifies_as_on_g(self, monkeypatch):
        # trees hung off the core join no two of its vertices, so solve_vc
        # gives the core the solution and certificate it gives g
        handed = []
        real = ksolver.solve_vc

        def recorded(h):
            handed.append(h)
            return real(h)

        monkeypatch.setattr(ksolver, "solve_vc", recorded)
        rng = random.Random(23)
        hung = routed = 0
        for seed in range(120):
            n = rng.randint(8, 20)
            g = gnp(n, rng.uniform(1.5, 3.0) / n, seed=seed)
            core = two_core(g)
            if len(core) == len(g) or not core.vertices:
                continue
            hung += 1
            on_g, on_core = real(g)[0], real(core)[0]
            assert (on_core.vertices, on_core.certificate) == (on_g.vertices, on_g.certificate), seed
            handed.clear()
            opt, sol = opt_exact_solution(g)
            if handed:
                routed += 1
                assert handed == [core], seed
                assert sol.certificate == is_minimal_fvs(g, sol.vertices), seed
        assert hung >= 80 and routed >= 60

    def test_greedy_at_the_bound_computes_no_cover(self, calls, monkeypatch):
        # a call to the cover would raise TypeError
        monkeypatch.setattr(vcsolver, "min_vertex_cover", None)
        # K_5's greedy W already has the bound's 3 vertices
        opt, sol = opt_exact_solution(complete(5))
        assert opt == len(sol.vertices) == 3
        assert calls == {"solve_vc": 0, "solve_k": 0}
