"""Batch reports and solver reports pinned byte for byte.

`TestReports.test_reports_are_byte_identical_across_runs` compares one run
with another, so it cannot see a key or a value that changed in both.
Here the rendered JSONL of every algorithm on a fixed small corpus, and
every field but `wall_time` of the `SolveReport`s the three solvers return
on it, are compared with sha256 digests pinned when this file was written.
A refactor of the solvers or of the runner must leave every digest as it is.
"""

import hashlib

import pytest

from mmfvs.approx import approx_solve
from mmfvs.batch import render_report, run_batch
from mmfvs.ksolver import solve_k
from mmfvs.vcsolver import solve_vc

from helpers import apex_pair, complete, cycle, disjoint_triangles, gnp, subdivided


def corpus():
    graphs = [
        ("c5", cycle(5)),
        ("k4", complete(4)),
        ("k5", complete(5)),
        ("apexpair7", apex_pair(7)),
        ("triangles2", disjoint_triangles(2)),
        ("sub", subdivided(gnp(5, 0.6, seed=3), 3)),
    ]
    graphs += [(f"gnp{seed}", gnp(6 + seed % 3, 0.45, seed=seed)) for seed in range(8)]
    return graphs


# (algorithm, params) -> sha256 of the rendered report without timings.
# ksolver answers yes on some graphs and no on others at both k; ppt-check
# records the oracle's cap error on the graphs whose reduction is too big.
PINNED = {
    ("bruteforce", ()):
        "a454b71f84cbfbc704b810edd4edba456be0d63b6f4f4d189108a472f49980be",
    ("ksolver", (("k", 3),)):
        "eb94df6cdd29f54edb6c93eef64d838539512daacfc984764af044803eb2248f",
    ("ksolver", (("k", 4),)):
        "304c7ca713e8068073a2c76238ebd23b7358c49641fa5dfa970ba8c392b2eedc",
    ("vcsolver", ()):
        "8fd73d21accd88f06e8cbc6d6f2d4cdda6f2d2d4c9da73858d4f7af84c1058a0",
    ("approx", (("epsilon", 0.5),)):
        "70cf40c5bb9be401e1d89072d51f032f26b0076fc765b58d9fb719a3e747a58b",
    ("approx", (("epsilon", 0.9),)):
        "87dbfd17ab6e47b0dfe47c649de1579e433431b2cf6a2d58fa818481646b15a3",
    ("ppt-check", (("k", 2),)):
        "84d268e912499f7d16ccc284b906121847318fb595297c134f0d8d9e0bd67b75",
}

# sha256 of every report field but `wall_time`: solve_k at k = 0..5,
# solve_vc, and approx_solve at epsilon 0.5 and 0.9, on each graph
REPORTS = "f596d833a4559d12ab8167ecd8bfee7c047d4297d81ddee45e521e22c672c21b"


@pytest.mark.parametrize("algorithm, params", list(PINNED), ids=str)
def test_rendered_report_matches_its_pinned_digest(algorithm, params):
    report = render_report(run_batch(corpus(), algorithm, dict(params)))
    assert hashlib.sha256(report.encode()).hexdigest() == PINNED[algorithm, params]


def fields(report, *head):
    solution = report.solution
    return repr((
        *head,
        report.outcome,
        None if solution is None else sorted(solution.vertices),
        None if solution is None else sorted(solution.certificate.items()),
        report.nodes_explored,
        sorted(report.reductions_fired.items()),
        report.max_depth,
        sorted(report.extras.items()),
    ))


def test_solver_reports_match_their_pinned_digest():
    digest = hashlib.sha256()
    for name, g in corpus():
        for k in range(6):
            digest.update(fields(solve_k(g, k), name, "solve_k", k).encode())
        digest.update(fields(solve_vc(g)[1], name, "solve_vc").encode())
        for epsilon in (0.5, 0.9):
            result = approx_solve(g, epsilon)
            digest.update(fields(result.report, name, "approx", epsilon, result.mode).encode())
    assert digest.hexdigest() == REPORTS
