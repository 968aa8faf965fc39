import copy
import random
from itertools import chain

import pytest

from mmfvs import extension
from mmfvs.extension import _contract, _Node, _reduce, solve_extension
from mmfvs.graph import Graph, cycle_closers, degree_bound, peel, settle
from mmfvs.oracle import extension_exists_brute
from mmfvs.verify import greedy_minimal_fvs, is_minimal_fvs

from helpers import apex_pair, cycle, disjoint_triangles, gnp, path, subdivided
from test_extension_pinned import corpus as pinned_corpus


def node(g, required=(), forbidden=(), k=0):
    required, forbidden = set(required), set(forbidden)
    return _Node(g, required, forbidden, set(g.vertices) - required - forbidden, k + len(required))


def deleted(g, node):
    """The vertices of the input graph g that no live id of `node` stands for."""
    return g.vertices - set().union(*map(node.originals_of, node.live()))


def gamma(g, forbidden):
    return len(g.induced(forbidden).components())


class TestStripAcyclicFringe:
    """The strip of the shared pass: `peel` outside the committed-in side."""

    def test_pendant_leaf_removed(self):
        g = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        out, free, inside = {0}, {1, 2, 3, 4}, set()
        gone, forced = settle(g, out, free, inside)
        assert gone == {3, 4} and forced == []
        assert out | free | inside == {0, 1, 2}

    def test_degree_one_inside_forbidden_side(self):
        # pendant 4 hangs off the forbidden side of a 4-cycle
        g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
        out, free = {0, 4}, {1, 2, 3}
        gone, _ = settle(g, out, free, set())
        assert gone == {4}
        assert out == {0}
        assert gamma(g, out) == 1

    def test_already_reduced_is_identity(self):
        out, free, inside = {0}, {1, 2, 3}, set()
        assert settle(cycle(4), out, free, inside) == (set(), [])
        assert (out, free, inside) == ({0}, {1, 2, 3}, set())

    def test_required_vertices_protected(self):
        out, free, inside = set(), {0, 2}, {1}
        gone, _ = settle(path(3), out, free, inside)
        assert inside == {1}
        assert gone == {0, 2}

    def test_search_strips_into_originals(self):
        g = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        n = node(g, forbidden={0})
        fired = {}
        _reduce(n, fired)
        assert deleted(g, n) == {3, 4}
        assert fired == {"strip_acyclic_fringe": 2}


class TestForceCycleClosers:
    """The force of the shared pass: `cycle_closers` against the forbidden side."""

    def test_two_neighbors_in_one_forbidden_tree(self):
        n = node(cycle(3), forbidden={1, 2}, k=2)
        fired = {}
        _reduce(n, fired)
        assert n.required == {0}
        assert n.k == 1
        # forcing 0 inside leaves the forbidden pair to the next strip
        assert fired == {"force_cycle_closers": 1, "strip_acyclic_fringe": 2}

    def test_the_pass_strips_again_after_a_force(self):
        # 0 closes the triangle with the forbidden edge, which then peels
        out, free, inside = {1, 2}, {0}, set()
        assert settle(cycle(3), out, free, inside) == ({1, 2}, [0])
        assert (out, free, inside) == (set(), set(), {0})

    def test_neighbors_in_distinct_trees_untouched(self):
        g = Graph(range(3), [(0, 1), (0, 2)])
        assert cycle_closers(g, {1, 2}, {0}) == []

    def test_no_closer_is_identity(self):
        out, free, inside = {0}, {1, 2, 3}, set()
        settle(cycle(4), out, free, inside)
        assert inside == set()


class TestContractDegreeTwoPairs:
    def test_long_paths_between_forbidden_attachments_collapse(self):
        n = node(cycle(8), forbidden={0, 4})
        assert _contract(n) == 4
        assert n.search.vertices == {0, 1, 4, 5}
        assert n.search.edge_count() == 4
        assert n.expansions == {1: (1, 2, 3), 5: (5, 6, 7)}
        assert n.free == {1, 5}

    def test_common_neighbor_blocks_contraction(self):
        n = node(cycle(3))
        assert _contract(n) == 0
        assert n.search == cycle(3)

    def test_committed_endpoint_blocks_contraction(self):
        n = node(cycle(8), forbidden={0, 2, 4, 6})
        assert _contract(n) == 0
        assert n.search == cycle(8)

    def test_deleted_vertices_do_not_count(self):
        # once 5 and 6 are stripped, 2 has degree two and the path 1-2-3 merges
        g = Graph(range(7), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 6)])
        n = node(g, forbidden={0})
        fired = {}
        _reduce(n, fired)
        assert deleted(g, n) == {5, 6}
        assert n.search.vertices == {0, 1, 4}
        assert n.expansions == {1: (1, 2, 3)}
        assert fired == {"strip_acyclic_fringe": 2, "contract_degree_two_pairs": 2}

    def test_contraction_leaves_the_parent_alone(self):
        parent = node(cycle(8), forbidden={0})
        kept = copy.deepcopy(parent)
        child = parent.child(outside=(4,))
        _contract(child)
        assert child.expansions and child.search != parent.search
        assert parent == kept


class TestSolveExtension:
    def test_apex_pair_forbidden_hub(self):
        report = solve_extension(apex_pair(6), (), {0}, 4)
        assert report.is_yes
        assert report.solution.vertices == {2, 3, 4, 5}

    def test_forest_has_no_extra_vertex(self):
        assert not solve_extension(path(4), (), (), 1).is_yes

    def test_forest_at_k_zero(self):
        report = solve_extension(path(4), (), (), 0)
        assert report.is_yes and report.solution.vertices == frozenset()

    def test_overlapping_commitments_rejected(self):
        with pytest.raises(ValueError):
            solve_extension(cycle(4), {0}, {0}, 1)

    def test_union_must_be_fvs(self):
        with pytest.raises(ValueError):
            solve_extension(disjoint_triangles(2), {0}, (), 1)

    def test_unknown_vertices_rejected(self):
        with pytest.raises(KeyError):
            solve_extension(cycle(4), {9}, (), 1)

    def test_forbidden_side_cycle_is_a_plain_no(self):
        g = disjoint_triangles(2)
        report = solve_extension(g, {3}, {0, 1, 2}, 1)
        assert not report.is_yes

    def test_committed_in_survives_fringe_deletion(self):
        # the committed vertex's only cycle lies in fringe that gets
        # stripped; the witness must still be found on the original graph
        g = disjoint_triangles(2)
        report = solve_extension(g, {0}, {3}, 1)
        assert report.is_yes
        s = report.solution.vertices
        assert 0 in s and not s & {3} and len(s - {0}) >= 1

    def test_deterministic(self):
        g = gnp(10, 0.3, seed=5)
        w = greedy_minimal_fvs(g)
        half = frozenset(sorted(w)[::2])
        a = solve_extension(g, half, w - half, 2)
        b = solve_extension(g, half, w - half, 2)
        assert a.outcome == b.outcome
        assert a.nodes_explored == b.nodes_explored
        if a.is_yes:
            assert a.solution.vertices == b.solution.vertices


def all_bipartitions(w):
    ordered = sorted(w)
    for mask in range(1 << len(ordered)):
        inside = frozenset(v for i, v in enumerate(ordered) if mask >> i & 1)
        yield inside, w - inside


class TestOracleAgreement:
    def test_structured_graphs_all_bipartitions(self):
        graphs = [
            apex_pair(6),
            cycle(6),
            disjoint_triangles(2),
            Graph(range(6), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
        ]
        for g in graphs:
            w = greedy_minimal_fvs(g)
            for required, forbidden in all_bipartitions(w):
                for k in range(4):
                    report = solve_extension(g, required, forbidden, k)
                    expected = extension_exists_brute(g, required, forbidden, k)
                    assert report.is_yes == (expected is not None), (
                        g, sorted(required), sorted(forbidden), k,
                    )

    def test_random_graphs_all_bipartitions(self):
        for seed in range(12):
            g = gnp(7, 0.4, seed=seed)
            w = greedy_minimal_fvs(g)
            for required, forbidden in all_bipartitions(w):
                for k in range(4):
                    report = solve_extension(g, required, forbidden, k)
                    expected = extension_exists_brute(g, required, forbidden, k)
                    assert report.is_yes == (expected is not None), (
                        seed, sorted(required), sorted(forbidden), k,
                    )

    def test_random_medium_instances(self):
        rng = random.Random(99)
        for seed in range(10):
            g = gnp(12, 0.25, seed=200 + seed)
            w = greedy_minimal_fvs(g)
            required = frozenset(v for v in w if rng.random() < 0.5)
            k = rng.randint(0, 4)
            report = solve_extension(g, required, w - required, k)
            expected = extension_exists_brute(g, required, w - required, k)
            assert report.is_yes == (expected is not None)


class TestFreeVertexCut:
    """A reduced node that needs more vertices than it has free ids is cut.

    The degree-sum cut subsumes this one, so it is set to the free-id
    count here: the search is then the one before the degree-sum cut, and
    the free-id cut alone keeps every answer.
    """

    @staticmethod
    def instances(seed=8):
        rng = random.Random(seed)
        for trial in range(300):
            if trial % 2:
                g = gnp(rng.randint(6, 10), rng.uniform(0.25, 0.5), seed=900 + trial)
            else:
                # degree-two paths, so contracted ids and peeled vertices meet
                g = subdivided(gnp(rng.randint(4, 5), rng.uniform(0.5, 0.8), seed=900 + trial), trial)
            if len(g) > 12:
                continue
            w = greedy_minimal_fvs(g)
            for required, forbidden in all_bipartitions(w):
                if rng.random() < 0.5:
                    yield g, required, forbidden, rng.randint(1, 4)

    def test_agrees_with_brute_force_where_it_fires(self, monkeypatch):
        cuts = 0

        def counting_reduce(node, fired):
            nonlocal cuts
            _reduce(node, fired)
            cuts += node.k > len(node.free)

        def past_the_cut(ctx, node):
            # the next step after reduction runs only on nodes the cut keeps
            assert node.k <= len(node.free)
            return partial_minimality(ctx, node)

        partial_minimality = extension._partial_minimality
        monkeypatch.setattr(extension, "degree_bound", lambda g, out, free: len(free))
        monkeypatch.setattr(extension, "_reduce", counting_reduce)
        monkeypatch.setattr(extension, "_partial_minimality", past_the_cut)
        for g, required, forbidden, k in self.instances():
            report = solve_extension(g, required, forbidden, k)
            expected = extension_exists_brute(g, required, forbidden, k)
            assert report.is_yes == (expected is not None), (g, sorted(required), sorted(forbidden), k)
        # 739 instances, 255 of them yes; the cut fires 686 times
        assert cuts >= 600


class TestReductionsPreserveTheAnswer:
    @staticmethod
    def decision(pristine, state):
        """Ground truth for a (possibly reduced) search node.

        A node always speaks about the original graph: deleted and
        forbidden originals are excluded from the solution but remain
        cycle material, and a contracted committed id means one of its
        originals, whichever works.
        """
        from itertools import product

        excluded = set(deleted(pristine, state))
        for x in state.forbidden:
            excluded.update(state.originals_of(x))
        fixed = [v for v in sorted(state.required) if v not in state.expansions]
        merged = [v for v in sorted(state.required) if v in state.expansions]
        for combo in product(*(state.expansions[v] for v in merged)):
            required = frozenset(fixed) | frozenset(combo)
            hit = extension_exists_brute(
                pristine, required, frozenset(excluded) - required, state.k
            )
            if hit is not None:
                return True
        return False

    @staticmethod
    def strip(n):
        gone = peel(n.search, n.forbidden | n.free)
        n.forbidden -= gone
        n.free -= gone

    @staticmethod
    def force(n):
        forced = cycle_closers(n.search, n.forbidden, n.free)
        n.required.update(forced)
        n.free.difference_update(forced)

    def test_each_rule_alone_keeps_the_decision(self):
        rng = random.Random(31)
        rules = [self.strip, self.force, _contract, lambda n: _reduce(n, {})]
        for trial in range(40):
            g = gnp(8, rng.uniform(0.2, 0.5), seed=700 + trial)
            w = greedy_minimal_fvs(g)
            required = frozenset(v for v in w if rng.random() < 0.4)
            k = rng.randint(0, 3)
            base = self.decision(g, node(g, required, w - required, k))
            for i, rule in enumerate(rules):
                after = node(g, required, w - required, k)
                rule(after)
                assert self.decision(g, after) == base, (trial, i)


class TestDegreeSumCut:
    def test_every_cut_node_has_no_witness(self, monkeypatch):
        # ground truth on the input graph for every node the cut removes,
        # on two seeds of the free-vertex cut's gnp and subdivided graphs
        cut = []

        def recording_reduce(node, fired):
            _reduce(node, fired)
            if degree_bound(node.search, node.forbidden, node.free) < node.k:
                cut.append(node)

        monkeypatch.setattr(extension, "_reduce", recording_reduce)
        checked = contracted = with_deleted = 0
        for g, required, forbidden, k in chain(TestFreeVertexCut.instances(8), TestFreeVertexCut.instances(9)):
            cut.clear()
            solve_extension(g, required, forbidden, k)
            for n in cut:
                assert not TestReductionsPreserveTheAnswer.decision(g, n), (g, sorted(required), k)
            checked += len(cut)
            contracted += sum(bool(n.expansions.keys() & n.live()) for n in cut)
            with_deleted += sum(bool(deleted(g, n)) for n in cut)
        # 997 cut nodes, 177 of them with contracted ids and 942 with deleted vertices
        assert checked >= 950 and contracted >= 150 and with_deleted >= 900


class TestDerivedState:
    def test_k_and_deleted_match_carried_upkeep(self, monkeypatch):
        # Replay, along every search path, a k and a set of deleted originals
        # kept by hand: a child spends one unit of k per vertex it puts
        # inside, and each settle spends one per forced closer and adds the
        # originals of the ids it peels.  Both must equal what the node
        # derives from its own vertex sets.
        carried = {}  # id(node) -> (node, k, deleted originals); the node stays alive
        current = []
        real_child, real_reduce, real_settle = _Node.child, extension._reduce, extension.settle

        def check(n):
            _, k, gone = carried[id(n)]
            assert n.k == k and deleted(g, n) == gone

        def child(self, inside=(), outside=()):
            c = real_child(self, inside, outside)
            _, k, gone = carried[id(self)]
            carried[id(c)] = c, k - len(inside), gone
            check(c)
            return c

        def settle(search, out, free, inside):
            gone, forced = real_settle(search, out, free, inside)
            n = current[-1]
            _, k, before = carried[id(n)]
            carried[id(n)] = n, k - len(forced), before.union(*map(n.originals_of, gone))
            return gone, forced

        def reduce(n, fired):
            carried.setdefault(id(n), (n, root_k, frozenset()))
            check(n)
            current.append(n)
            real_reduce(n, fired)
            current.pop()
            check(n)
            nonlocal reduced, with_deleted, contracted
            reduced += 1
            with_deleted += bool(deleted(g, n))
            contracted += bool(n.expansions.keys() & n.live())

        monkeypatch.setattr(_Node, "child", child)
        monkeypatch.setattr(extension, "_reduce", reduce)
        monkeypatch.setattr(extension, "settle", settle)
        pinned = (
            (g, required, forbidden, k)
            for g in pinned_corpus()
            for required, forbidden in all_bipartitions(greedy_minimal_fvs(g))
            for k in range(5)
        )
        reduced = with_deleted = contracted = 0
        for g, required, forbidden, root_k in chain(pinned, TestFreeVertexCut.instances(8)):
            carried.clear()
            solve_extension(g, required, forbidden, root_k)
        # 3,466 reduced nodes, 3,003 of them with deleted vertices and 750 with contracted ids
        assert reduced >= 3300 and with_deleted >= 2800 and contracted >= 700


class TestSearchAccounting:
    def test_node_count_respects_measure_bound(self):
        # k >= 1: at k = 0 the whole question degenerates to extension
        # existence, which the measure argument does not budget for (see
        # test_k_zero_refutation_is_correct below)
        rng = random.Random(4)
        for seed in range(60):
            g = gnp(rng.randint(6, 16), rng.uniform(0.15, 0.4), seed=seed)
            w = greedy_minimal_fvs(g)
            required = frozenset(v for v in w if rng.random() < 0.5)
            k = rng.randint(1, 5)
            report = solve_extension(g, required, w - required, k)
            gamma = report.extras["gamma_root"]
            assert report.nodes_explored <= 3 ** (k + gamma), (seed, k, gamma)

    def test_gamma_root_counts_the_forbidden_components(self):
        # the forbidden side holds W - required and random ids off W, so it
        # is sometimes empty and sometimes not a forest
        rng = random.Random(9)
        for seed in range(200):
            g = gnp(rng.randint(4, 18), rng.uniform(0.1, 0.5), seed=seed)
            w = greedy_minimal_fvs(g)
            required = frozenset(v for v in w if rng.random() < 0.5)
            share = rng.random()
            forbidden = (w - required) | {v for v in g.vertices - w if rng.random() < share}
            k = rng.randint(0, 3)
            extras = solve_extension(g, required, forbidden, k).extras
            assert extras["gamma_root"] == gamma(g, forbidden), (seed, sorted(forbidden))
            assert extras["measure_root"] == k + gamma(g, forbidden)

    def test_k_zero_refutation_is_correct(self):
        # committing 2 inside and 4 outside admits no minimal-fvs extension:
        # 2 needs both 7 and 8 out, which leaves the triangle 4-7-8 standing.
        # Answering this correctly takes a few nodes beyond the measure
        # budget; correctness wins.
        g = Graph(
            range(9),
            [(0, 3), (0, 4), (1, 5), (2, 7), (2, 8), (3, 4), (4, 7), (4, 8), (5, 7), (7, 8)],
        )
        report = solve_extension(g, {2}, {4}, 0)
        assert not report.is_yes
        assert extension_exists_brute(g, frozenset({2}), frozenset({4}), 0) is None

    def test_yes_witnesses_respect_all_constraints(self):
        rng = random.Random(11)
        for seed in range(30):
            g = gnp(9, 0.35, seed=500 + seed)
            w = greedy_minimal_fvs(g)
            required = frozenset(v for v in w if rng.random() < 0.4)
            k = rng.randint(0, 3)
            report = solve_extension(g, required, w - required, k)
            if report.is_yes:
                s = report.solution.vertices
                assert is_minimal_fvs(g, s) is not None
                assert required <= s and not s & (w - required)
                assert len(s - required) >= k
