"""Seeded instance corpora and call lists for the benchmark workloads.

A corpus is a list of instance specs drawn from the workload seed alone,
never from solver output.  ``materialize`` turns specs into graphs the way
a user would get them: ``instances.generate`` (which runs
``reduction.ppt_mmvc_to_mmfvs`` for the reduction family), then
``write_instance`` and ``parse_instance``.  ``calls`` lays out the timed
solver calls in corpus order.

Instance parameters (vertex count, density, k, family) come from fixed
grids that every seed covers in full, in a seeded order; the seed changes
the order and the random graphs.  The cost of these solvers swings by
orders of magnitude between instances, so drawing the parameters freely
made the mix, and with it every timing, differ by 20-30% between seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field

DEFAULT_SEED = 1
EPSILON = 0.5

# Per-call deadline in seconds, passed to run_one's timeout.  Each is more
# than ten times the slowest call seen in trial runs over many seeds
# (README.md), so that a rare hard instance is slow, not a failed call.
DEADLINES = {"small-exact": 5.0, "sparse-k": 40.0, "cover-vc": 40.0, "large-greedy": 30.0}

# How many calls of the call list the traced run replays.  Fixed, so that
# two traced runs with one seed give identical counter sections.
TRACE_CALLS = {"small-exact": 400, "sparse-k": 240, "cover-vc": 200, "large-greedy": 10}

WORKLOADS = tuple(DEADLINES)


@dataclass(frozen=True)
class Spec:
    """How to regenerate one instance, plus the solver parameters it gets."""

    name: str
    family: str
    params: dict
    seed: int | None
    k: int | None = None
    noise: tuple = field(default=())


@dataclass(frozen=True)
class Call:
    """One timed solver call: ``algorithm`` is a run_one algorithm or opt_exact."""

    instance: str
    algorithm: str
    params: dict


def _connected_gnp(rng: random.Random, n: int, p: float, generate) -> int:
    # Redraw the graph seed until connected; connectivity is a property of
    # the input, not of any solver's answer.
    while True:
        seed = rng.randrange(1 << 30)
        if len(generate("gnp", {"n": n, "p": p}, seed).components()) == 1:
            return seed


def _grid(rng: random.Random, count: int, *levels: list) -> list[tuple]:
    """`count` parameter tuples: the full grid over `levels`, repeated and
    shuffled, so every seed draws the same mix and only graphs differ."""
    combos = [()]
    for values in levels:
        combos = [c + (v,) for c in combos for v in values]
    out: list[tuple] = []
    while len(out) < count:
        block = list(combos)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def specs(workload: str, seed: int) -> list[Spec]:
    """The corpus of one workload at one seed (imports mmfvs lazily)."""
    from mmfvs.instances import generate

    rng = random.Random(f"{workload}:{seed}")
    out: list[Spec] = []
    if workload == "small-exact":
        grid = _grid(rng, 1000, range(7, 12), [0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6])
        for i, (n, p) in enumerate(grid):
            gseed = _connected_gnp(rng, n, p, generate)
            out.append(Spec(f"se{i:04d}", "gnp", {"n": n, "p": p}, gseed))
    elif workload == "sparse-k":
        # n <= 150 and k <= 4: with k = 5 or n >= 160, about one call in a
        # thousand took 2-10 s or more; here 8,000 trial calls at k = 3-4
        # took at most 2.7 s.
        grid = _grid(rng, 720, range(1, 5), range(100, 151, 10), [1.1, 1.2, 1.3, 1.4, 1.5])
        for i, (k, n, c) in enumerate(grid):
            params = {"n": n, "p": round(c / n, 8)}
            out.append(Spec(f"sk{i:04d}", "gnp", params, rng.randrange(1 << 30), k=k))
    elif workload == "cover-vc":
        # No sparse gnp family: at n <= 20 its calls took under a
        # millisecond, and at n = 22-30 about one graph in 120 took 1-15 s.
        # Hub noise stops at 8 edges and reduction bases at n = 10: the
        # cells above were a quarter of the calls and 58% of the time.
        families = _grid(rng, 300, ["apexpair", "reduction-output"])
        hubs = iter(_grid(rng, 150, range(12, 41, 4), range(2, 9, 2)))
        bases = iter(_grid(rng, 150, range(6, 11), [0.2, 0.3, 0.4, 0.5]))
        for i, (family,) in enumerate(families):
            name = f"cv{i:04d}"
            if family == "apexpair":
                # two hubs plus a little noise among the independents
                n, extra = next(hubs)
                noise: set[tuple[int, int]] = set()
                while len(noise) < extra:
                    u, v = sorted(rng.sample(range(2, n), 2))
                    noise.add((u, v))
                out.append(Spec(name, family, {"n": n}, None, noise=tuple(sorted(noise))))
            else:
                n, p = next(bases)
                out.append(Spec(name, family, {"n": n, "p": p, "k": 0}, rng.randrange(1 << 30)))
    elif workload == "large-greedy":
        # All at n = 1000: a mix of sizes made the median depend on where in
        # the list a run stopped, and at n = 2000 a run made too few calls
        # (about 15) for a steady median and tail.
        for i in range(40):
            params = {"n": 1000, "p": 0.0015}
            out.append(Spec(f"lg{i:02d}", "gnp", params, rng.randrange(1 << 30), k=rng.randint(1, 3)))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return out


def fingerprint(corpus: list[Spec]) -> str:
    """Digest of a corpus, stored in reference files to catch stale ones."""
    blob = json.dumps([asdict(s) for s in corpus], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_graph(spec: Spec):
    """The instance graph before the write/parse round trip."""
    from mmfvs.graph import Graph
    from mmfvs.instances import generate

    g = generate(spec.family, spec.params, spec.seed)
    if spec.noise:
        g = Graph(g.vertices, list(g.edges()) + list(spec.noise))
    return g


def materialize(corpus: list[Spec]) -> dict:
    """Instance name -> graph, through write_instance and parse_instance."""
    from mmfvs.instances import parse_instance, write_instance

    return {
        spec.name: parse_instance(write_instance(build_graph(spec), comments=[spec.name]))
        for spec in corpus
    }


def calls(workload: str, corpus: list[Spec], refs: dict) -> list[Call]:
    """The timed call list; small-exact needs the reference optimum for k."""
    out: list[Call] = []
    for spec in corpus:
        if workload == "small-exact":
            opt = refs[spec.name]["opt"]
            out += [
                Call(spec.name, "ksolver", {"k": opt}),
                Call(spec.name, "ksolver", {"k": opt + 1}),
                Call(spec.name, "vcsolver", {}),
                Call(spec.name, "approx", {"epsilon": EPSILON}),
                Call(spec.name, "opt_exact", {}),
            ]
        elif workload == "cover-vc":
            out += [
                Call(spec.name, "vcsolver", {}),
                Call(spec.name, "approx", {"epsilon": EPSILON}),
            ]
        else:
            out.append(Call(spec.name, "ksolver", {"k": spec.k}))
    return out
