"""Exhaustive small-graph corpora for the acceptance suite.

Connected graphs with at most 7 vertices come from the networkx atlas;
8-vertex ones are produced by attaching a new vertex to every nonempty
subset of every connected 7-vertex graph (every connected graph has a
non-cut vertex, so this reaches all of them) and deduping up to
isomorphism via Weisfeiler-Lehman hash buckets plus exact checks.

Building takes over a minute, so the list is stored as JSON under
`.pytest_cache/`, keyed by the sha256 of this file and the networkx
version; everything the build reads from the test suite lives here, so
edits to other test modules keep the cache.  A stored list is used only
if it still has the right number of graphs per vertex count and every
graph is connected; otherwise it is rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from itertools import combinations
from pathlib import Path

from mmfvs.graph import Graph

# connected graphs up to isomorphism, by vertex count
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

_TESTS = Path(__file__).resolve().parent
CACHE_DIR = _TESTS.parent / ".pytest_cache" / "mmfvs-corpus"


def nx_to_graph(nxg) -> Graph:
    relabel = {v: i for i, v in enumerate(sorted(nxg.nodes(), key=str))}
    return Graph(
        range(nxg.number_of_nodes()),
        [(relabel[u], relabel[v]) for u, v in nxg.edges()],
    )


def connected_atlas(max_n: int) -> list[Graph]:
    """All connected graphs with 1..max_n vertices, up to isomorphism.

    Backed by the networkx graph atlas, so max_n <= 7.
    """
    import networkx as nx

    assert max_n <= 7
    out = []
    for nxg in nx.graph_atlas_g()[1:]:
        if 1 <= nxg.number_of_nodes() <= max_n and nx.is_connected(nxg):
            out.append(nx_to_graph(nxg))
    return out


def atlas_all_graphs(max_n: int) -> list[Graph]:
    """All graphs (connected or not) with 0..max_n vertices, up to isomorphism."""
    import networkx as nx

    assert max_n <= 7
    return [
        nx_to_graph(nxg)
        for nxg in nx.graph_atlas_g()
        if nxg.number_of_nodes() <= max_n
    ]


def _to_nx(g: Graph):
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(g.sorted_vertices())
    nxg.add_edges_from(g.edges())
    return nxg


def _build() -> list[Graph]:
    import networkx as nx

    graphs = connected_atlas(7)
    seven = [g for g in graphs if len(g) == 7]
    assert len(seven) == CONNECTED_COUNTS[7]

    buckets: dict[tuple, list] = {}
    eights: list[Graph] = []
    for g in seven:
        base = _to_nx(g)
        for r in range(1, 8):
            for attach in combinations(range(7), r):
                cand = base.copy()
                cand.add_node(7)
                cand.add_edges_from((7, v) for v in attach)
                degs = tuple(sorted(d for _, d in cand.degree()))
                wl = nx.weisfeiler_lehman_graph_hash(cand, iterations=3)
                key = (degs, wl)
                known = buckets.setdefault(key, [])
                if any(nx.is_isomorphic(cand, other) for other in known):
                    continue
                known.append(cand)
                eights.append(nx_to_graph(cand))
    assert len(eights) == CONNECTED_COUNTS[8], len(eights)
    return graphs + eights


def _cache_path() -> Path:
    import networkx as nx

    digest = hashlib.sha256((_TESTS / "corpus.py").read_bytes())
    digest.update(nx.__version__.encode())
    return CACHE_DIR / f"{digest.hexdigest()}.json"


def _is_complete(graphs: list[Graph]) -> bool:
    counts = Counter(len(g) for g in graphs)
    return counts == CONNECTED_COUNTS and all(len(g.components()) == 1 for g in graphs)


def _load(path: Path) -> list[Graph] | None:
    try:
        rows = json.loads(path.read_text())
        graphs = [Graph(range(n), (tuple(e) for e in edges)) for n, edges in rows]
    except (OSError, ValueError, TypeError, KeyError):
        return None
    return graphs if _is_complete(graphs) else None


def connected_graphs_up_to_8() -> list[Graph]:
    """The corpus, from the cache when a checked copy is stored there."""
    path = _cache_path()
    graphs = _load(path)
    if graphs is not None:
        return graphs
    graphs = _build()
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    for stale in CACHE_DIR.glob("*.json"):
        stale.unlink()
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps([[len(g), list(g.edges())] for g in graphs]))
    os.replace(tmp, path)
    return graphs
