"""`solve_vc` and `approx_solve` answers pinned by one digest.

Both solvers run one search per guess of the solution's cover side and
keep a guess's result only when it is strictly larger than the best so
far.  Cutting guesses that cannot win, or reusing what an earlier guess
showed, must leave every answer as it was: the solution, its certificate,
the cover, the tree count of the winning forest, and for the
approximation its mode and the vertices its best greedy run moved.  The
corpus holds seeded random graphs, apex-pair graphs with noise among the
independent vertices, and outputs of the Max Min Vertex Cover reduction,
so that the approximation takes its greedy route on many of them.
"""

import hashlib
import random
from functools import cache

from mmfvs.approx import approx_solve
from mmfvs.graph import Graph
from mmfvs.instances import generate
from mmfvs.vcsolver import solve_vc

from helpers import gnp

# (solver calls, greedy-mode approx results, sha256 of the answers); the
# answers are those from before cover guesses were cut by a bound, except
# 57 exact-mode approx answers of the same size that carry the witness
# `opt_exact_solution` takes from `solve_vc`, and the answers of the 18
# graphs where `solve_vc` searching the chain kernel moved a witness, a
# cover or a tree count (14 solve_vc and 8 exact-mode approx witnesses;
# no size and no greedy-mode answer moved), and 2 approx answers at
# eps = 0.9 (graphs 22 and 95) that moved from exact to greedy mode, with
# the same witness and size, when the greedy moved onto the chain kernel,
# whose smaller cover lowers the threshold
ANSWERS = (660, 202, "daa46a723c571f9fe6df8de54fe25d511b6dc96656461a84777c3704744c0234")


def corpus():
    rng = random.Random(2026)
    for seed in range(120):
        yield gnp(rng.randint(6, 9), rng.uniform(0.25, 0.55), seed=seed)
    for _ in range(60):
        n = rng.randint(10, 20)
        extra, noise = rng.randint(1, 4), set()
        while len(noise) < extra:
            noise.add(tuple(sorted(rng.sample(range(2, n), 2))))
        g = generate("apexpair", {"n": n})
        yield Graph(g.vertices, list(g.edges()) + sorted(noise))
    for _ in range(40):
        params = {"n": rng.randint(4, 8), "p": rng.uniform(0.3, 0.5), "k": 0}
        yield generate("reduction-output", params, rng.randrange(1 << 30))


def answer(solution):
    return sorted(solution.vertices), sorted(solution.certificate.items())


@cache
def digest():
    h = hashlib.sha256()
    calls = greedy = 0
    for g in corpus():
        solution, report = solve_vc(g)
        extras = report.extras
        h.update(repr((
            answer(solution),
            extras["cover"],
            extras["winning_trees"],
        )).encode())
        calls += 1
        for epsilon in (0.5, 0.9):
            result = approx_solve(g, epsilon)
            h.update(repr((
                answer(result.solution),
                result.mode,
                result.report.extras.get("moved_of_best"),
            )).encode())
            calls += 1
            greedy += result.mode == "greedy"
    return calls, greedy, h.hexdigest()


def test_answers_match_the_pinned_digest():
    calls, greedy, _ = digest()
    assert greedy >= 20, greedy
    assert digest() == ANSWERS
