"""`min_vertex_cover` returns the cover that plain edge branching returns.

The search runs on bitmasks of the vertices' ranks, resumes each child's
scan for an uncovered edge where its parent stopped, and prunes a node
once its chosen vertices plus a greedy matching of the uncovered edges
reach the best cover so far.  None of that may change which cover comes
back: checked against the plain branching
(`helpers.min_vertex_cover_reference`) on the benchmark's small-exact and
cover-vc graphs at seed 1 (as given and with degree <= 1 vertices peeled,
the graph `solve_vc` covers), on seeded sparse gnp graphs, and on graphs
where a later branch reaches a cover as small as the first one found,
and on the empty graph, an edgeless one and graphs with gaps in their ids.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from mmfvs.graph import Graph, peel
from mmfvs.verify import min_vertex_cover

from helpers import cycle, gnp, min_vertex_cover_reference, path


def benchmark_graphs(workload):
    """The graphs of one benchmark workload at seed 1, as the benchmark builds them."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, source)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    workloads = sys.modules[name]
    return list(workloads.materialize(workloads.specs(workload, 1)).values())


def branch_nodes(g):
    """How many search nodes `min_vertex_cover` visits on g."""
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "branch":
            nodes += 1

    sys.setprofile(count)
    try:
        min_vertex_cover(g)
    finally:
        sys.setprofile(None)
    return nodes


@pytest.mark.parametrize("workload", ["small-exact", "cover-vc"])
def test_benchmark_graphs_get_the_reference_cover(workload):
    for g in benchmark_graphs(workload):
        for h in (g, g.delete(peel(g, g.vertices))):
            assert min_vertex_cover(h) == min_vertex_cover_reference(h), sorted(h.edges())


def test_sparse_gnp_graphs_get_the_reference_cover():
    rng = random.Random(31)
    for seed in range(300):
        n = rng.randint(8, 26)
        g = gnp(n, rng.uniform(1.5, 4.0) / n, seed=seed)
        assert min_vertex_cover(g) == min_vertex_cover_reference(g), (n, seed)


def test_a_later_cover_of_the_same_size_does_not_replace_the_first():
    # the plain branching reaches another cover of the first minimum's size
    # later on each graph: {1} after {0} on one edge, {1, 3} after {0, 2} on
    # the 4-cycle, and {0, 1, 4}, {0, 2, 3} and {0, 2, 4} after {0, 1, 3} on
    # two triangles sharing vertex 0; only the first may come back
    bowtie = Graph(range(5), [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    for g, cover in [(path(2), {0}), (cycle(4), {0, 2}), (bowtie, {0, 1, 3})]:
        assert min_vertex_cover(g) == min_vertex_cover_reference(g) == cover


@pytest.mark.parametrize(
    "g",
    [
        Graph(range(4), []),
        Graph([], []),
        Graph([3, 17, 40], [(3, 17), (17, 40)]),
        Graph([3, 17, 40, 41], [(3, 40), (17, 40), (3, 17)]),
    ],
    ids=["edgeless", "empty", "path-on-3-17-40", "triangle-on-3-17-40-and-41"],
)
def test_edge_cases_get_the_reference_cover(g):
    # the bitmask search numbers vertices by rank, not by id
    assert min_vertex_cover(g) == min_vertex_cover_reference(g)


def test_gnp_40_cover_is_pinned():
    # the plain branching takes about a minute on this graph (87 edges)
    expected = {0, 1, 2, 3, 4, 5, 6, 9, 10, 13, 14, 16, 17, 18, 23, 24, 26, 29, 30, 31, 33, 34, 35}
    assert min_vertex_cover(gnp(40, 0.1, seed=4)) == expected


def test_the_matching_bound_prunes_nodes_whose_bound_only_ties_the_best():
    # the plain branching visits 88,149 nodes on this graph; a prune that
    # waits for the bound to exceed the best visits 6,179
    assert branch_nodes(gnp(30, 0.1, seed=4)) <= 1_000
