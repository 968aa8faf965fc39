import pytest

from mmfvs.graph import Graph
from mmfvs.oracle import (
    OracleCapExceeded,
    extension_exists_brute,
    fvs_min_brute,
    opt_mmfvs_brute,
    opt_mmvc_brute,
)
from mmfvs.verify import is_fvs, is_minimal_fvs

from helpers import apex_pair, complete, disjoint_triangles, gnp, path


class TestOptMmfvs:
    def test_apex_pair(self):
        res = opt_mmfvs_brute(apex_pair(6))
        assert res.opt_value == 4
        assert res.witness == {2, 3, 4, 5}

    def test_forest(self):
        res = opt_mmfvs_brute(path(5))
        assert res.opt_value == 0 and res.witness == frozenset()

    def test_k5(self):
        # any 3 vertices of K5 leave an edge, and each dropped one closes a
        # triangle with the two survivors
        assert opt_mmfvs_brute(complete(5)).opt_value == 3

    def test_witness_is_minimal(self):
        for seed in range(15):
            g = gnp(8, 0.4, seed=seed)
            res = opt_mmfvs_brute(g)
            assert is_minimal_fvs(g, res.witness) is not None
            assert len(res.witness) == res.opt_value

    def test_cap(self):
        with pytest.raises(OracleCapExceeded):
            opt_mmfvs_brute(complete(5), cap=4)


class TestOptMmvc:
    def test_p3(self):
        res = opt_mmvc_brute(path(3))
        assert res.opt_value == 2 and res.witness == {0, 2}

    def test_edgeless(self):
        assert opt_mmvc_brute(Graph([0, 1])).opt_value == 0

    def test_k4(self):
        # every minimal cover of a complete graph drops exactly one vertex
        assert opt_mmvc_brute(complete(4)).opt_value == 3

    def test_cap(self):
        with pytest.raises(OracleCapExceeded):
            opt_mmvc_brute(complete(6), cap=5)


class TestFvsMin:
    def test_apex_pair(self):
        assert fvs_min_brute(apex_pair(6)) == 1

    def test_forest(self):
        assert fvs_min_brute(path(6)) == 0

    def test_two_triangles(self):
        assert fvs_min_brute(disjoint_triangles(2)) == 2

    def test_min_at_most_max(self):
        for seed in range(15):
            g = gnp(8, 0.45, seed=seed)
            if is_fvs(g, ()):
                continue
            assert fvs_min_brute(g) <= opt_mmfvs_brute(g).opt_value


class TestExtensionOracle:
    def test_apex_pair_forbidden_hub(self):
        s = extension_exists_brute(apex_pair(6), frozenset(), frozenset({0}), 4)
        assert s == {2, 3, 4, 5}

    def test_forest_has_no_nonempty_solution(self):
        assert extension_exists_brute(path(4), frozenset(), frozenset(), 1) is None

    def test_required_is_contained(self):
        g = disjoint_triangles(2)
        s = extension_exists_brute(g, frozenset({1}), frozenset(), 1)
        assert s is not None and 1 in s and len(s - {1}) >= 1
