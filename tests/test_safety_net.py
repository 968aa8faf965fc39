"""The solution re-verification and invariant checks must hold under `python -O`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mmfvs

SCRIPT = r"""
import sys

if __debug__:
    sys.exit("this script must run under python -O")

from mmfvs import approx, batch, extension, ksolver, vcsolver
from mmfvs.graph import Graph
from mmfvs.report import Solution
from mmfvs.verify import VerificationError, is_minimal_fvs

triangle = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
# two hubs over four independents: approx_solve takes the greedy route
apex_pair = Graph(range(6), [(0, 1)] + [(h, v) for v in range(2, 6) for h in (0, 1)])


def no_certificate(g, s):
    return None


def expect_failure(call, what):
    try:
        call()
    except VerificationError:
        return
    sys.exit(f"{what} did not raise VerificationError")


# a greedy run that moved more than vc vertices broke the additive
# guarantee; checked first, as the patches below break the solve_k gate
approx._run_greedy = lambda g, guess, counters, conflict_sizes: (
    guess.cover_in, tuple(range(len(g)))
)
expect_failure(lambda: approx.approx_solve(apex_pair, 0.5), "approx_solve")

batch.is_minimal_fvs = no_certificate
record = batch.run_one("triangle", triangle, "vcsolver")
if record.outcome != "error" or not record.error.startswith("VerificationError"):
    sys.exit(f"run_one passed an unverified solution: {record}")

# a vertex-cover optimum above the true one: C4 (tau = 2, |W| = 1, bound 2)
# takes the solve_vc route, and its optimum is 1, not 2
square = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
ksolver.solve_vc = lambda g: (Solution(frozenset({0, 2}), {}), None)
expect_failure(lambda: ksolver.opt_exact_solution(square), "opt_exact_solution")

# a vertex-cover optimum below the greedy W: two triangles on hub 4 give
# W = {0, 2} (tau = 3, bound 3), and solve_vc returns the minimal fvs {4}
butterfly = Graph(range(5), [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])
hub = frozenset({4})
ksolver.solve_vc = lambda g: (Solution(hub, is_minimal_fvs(g, hub)), None)
expect_failure(lambda: ksolver.opt_exact_solution(butterfly), "opt_exact_solution below W")

ksolver.is_minimal_fvs = no_certificate
expect_failure(lambda: ksolver.solve_k(triangle, 1), "solve_k")

# a search that claims the non-minimal fvs {0, 1}
extension._solve = lambda ctx, inst, depth: Solution(frozenset({0, 1}), {})
expect_failure(lambda: extension.solve_extension(triangle, (0, 1), (), 0), "solve_extension")

# a branching leaf without a forbidden neighbor breaks an invariant of the search
leaf = extension._Node(triangle, set(), set(), {0, 1, 2}, 1)
expect_failure(lambda: extension._children(None, leaf, 0, {0: None}), "_children")

# a best connector solution without a certificate must not be returned
vcsolver.is_minimal_fvs = no_certificate
expect_failure(lambda: vcsolver.solve_vc(triangle), "solve_vc certifying its best")

# a connector search that fails even the empty cover guess leaves no answer
vcsolver.find_connectors = lambda g, guess, beat, counters: None
expect_failure(lambda: vcsolver.solve_vc(triangle), "solve_vc")
"""


def test_reverification_survives_optimized_mode():
    src = str(Path(mmfvs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_package_has_no_assert_statement():
    # an assert vanishes under python -O; checks must raise explicitly
    package = Path(mmfvs.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in mmfvs: {found}"
