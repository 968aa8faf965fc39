"""Session fixtures over the exhaustive corpus of connected graphs with at most 8 vertices.

The corpus has 12,113 graphs, and brute force over all of them takes
seconds, so each is loaded, and each optimum found, once per session.
"""

import pytest

from mmfvs.oracle import opt_mmfvs_brute


@pytest.fixture(scope="session")
def connected_corpus():
    from corpus import connected_graphs_up_to_8

    return connected_graphs_up_to_8()


@pytest.fixture(scope="session")
def corpus_optima(connected_corpus):
    """`opt_mmfvs_brute`'s optimum of each graph of `connected_corpus`, in order."""
    return [opt_mmfvs_brute(g).opt_value for g in connected_corpus]
