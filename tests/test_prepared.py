"""Each solver call takes each reduction of its input at most once.

`verify.Prepared` holds the 2-core, the greedy minimal fvs, the chain
kernel, the kernel's degree-sum bound and the kernel's minimum vertex
cover of one input, each taken on first use, and a public solver hands its
one value to the private entries it calls.  The tests count the
preparations through every `mmfvs` module that binds them, except
`graph`, whose `chain_kernel` peels its input through its own `two_core`.
"""

import random
import sys

import pytest

from mmfvs import graph
from mmfvs.approx import approx_solve
from mmfvs.graph import Graph, chain_kernel, degree_bound, two_core
from mmfvs.instances import generate
from mmfvs.ksolver import opt_exact_solution, solve_k
from mmfvs.vcsolver import solve_vc
from mmfvs.verify import Prepared, greedy_minimal_fvs, min_vertex_cover

from helpers import apex_pair, gnp, kernel_bound, random_graphs

PARTS = ("core", "greedy", "kernel", "bound", "cover")


def graphs():
    """Seeded graphs, some with trees hung off their cycles or chains to
    shorten, and apex pairs and reduction outputs, on which approx at
    eps 0.5 takes its greedy route."""
    rng = random.Random(36)
    yield from random_graphs(40, seed=36, max_n=14)
    for _ in range(20):
        base = gnp(rng.randint(4, 8), 0.6, seed=rng.randrange(1 << 30))
        n = len(base)
        hung = [(rng.randrange(v), v) for v in range(n, n + rng.randint(1, 5))]
        yield Graph(range(n + len(hung)), list(base.edges()) + hung)
    for n in range(6, 11):
        yield apex_pair(n)
    for seed in range(6):
        yield generate("reduction-output", {"n": 4, "p": 0.5}, seed=seed)


class Taken:
    """The preparations taken since the last `clear()`, by part, each with its argument."""

    def __init__(self):
        self.args = {part: [] for part in PARTS}
        self.kernels = []

    def clear(self):
        for calls in self.args.values():
            calls.clear()
        self.kernels.clear()

    def counts(self):
        return {part: len(calls) for part, calls in self.args.items()}

    def recorder(self, part, real):
        def recorded(h):
            self.args[part].append(h)
            result = real(h)
            if part == "kernel":
                self.kernels.append(result)
            return result

        return recorded

    def bound(self, h, out, free):
        out, free = frozenset(out), frozenset(free)
        # the kernel's bound, as against solve_k's and the extension search's own
        if any(h is kernel for kernel in self.kernels) and not out and free == h.vertices:
            self.args["bound"].append(h)
        return degree_bound(h, out, free)


@pytest.fixture
def taken(monkeypatch):
    taken = Taken()
    wrapped = {
        two_core: taken.recorder("core", two_core),
        greedy_minimal_fvs: taken.recorder("greedy", greedy_minimal_fvs),
        chain_kernel: taken.recorder("kernel", chain_kernel),
        degree_bound: taken.bound,
        min_vertex_cover: taken.recorder("cover", min_vertex_cover),
    }
    for key, module in list(sys.modules.items()):
        if module is None or not key.startswith("mmfvs") or module is graph:
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrapped:
                monkeypatch.setattr(module, attr, wrapped[value])
    return taken


def test_each_preparation_is_taken_at_most_once_per_call(taken):
    modes = set()
    routes = set()
    for g in graphs():
        w = greedy_minimal_fvs(g)
        shortcut = len(w) >= kernel_bound(g)
        routes.add(shortcut)
        for k in (0, len(w), len(w) + 1, len(w) + 2):
            taken.clear()
            solve_k(g, k)
            # the greedy W on the 2-core; no kernel, bound or cover
            assert taken.counts() == {"core": 1, "greedy": 1, "kernel": 0, "bound": 0, "cover": 0}
            assert taken.args["core"] == [g]

        taken.clear()
        opt_exact_solution(g)
        # W and the kernel's bound, and the cover only when W is below the bound
        once = {"core": 1, "greedy": 1, "kernel": 1, "bound": 1}
        assert taken.counts() == {**once, "cover": int(not shortcut)}
        assert taken.args["core"] == taken.args["kernel"] == [g]

        taken.clear()
        solve_vc(g)
        assert taken.counts() == {"core": 0, "greedy": 0, "kernel": 1, "bound": 0, "cover": 1}

        taken.clear()
        result = approx_solve(g, 0.5)
        modes.add(result.mode)
        # the greedy mode reads the kernel, its cover and its bound; the exact
        # exit adds W, and the cover it would need is the one already taken
        once = {"kernel": 1, "bound": 1, "cover": 1}
        if result.mode == "greedy":
            assert taken.counts() == {"core": 0, "greedy": 0, **once}
        else:
            assert taken.counts() == {"core": 1, "greedy": 1, **once}
        assert taken.args["kernel"] == [g]
    assert modes == {"exact", "greedy"} and routes == {True, False}


def test_parts_are_the_reductions_of_g():
    for g in random_graphs(30, seed=37, max_n=16):
        p = Prepared(g)
        kernel = chain_kernel(g)
        assert p.g is g
        assert p.core == two_core(g) and p.kernel == kernel
        assert p.greedy == greedy_minimal_fvs(g)
        assert p.bound == degree_bound(kernel, (), kernel.vertices)
        assert p.cover == min_vertex_cover(kernel)
        # each part is taken once and then read
        assert all(getattr(p, part) is getattr(p, part) for part in PARTS)
