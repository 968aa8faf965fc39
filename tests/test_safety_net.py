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

from mmfvs import approx, batch, extension, ksolver, report, vcsolver
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


# the greedy best that approx_solve returns must get its certificate from
# `report.certify`, which every solver calls; checked first, as the patches
# below break the greedy and exact routes
report.is_minimal_fvs = no_certificate
expect_failure(lambda: approx.approx_solve(apex_pair, 0.5), "approx_solve certifying its best")
report.is_minimal_fvs = is_minimal_fvs

# a greedy run that moved more than vc vertices broke the additive guarantee
approx._run_greedy = lambda g, guess, counters, conflict_sizes: (
    guess.cover_in, tuple(range(len(g)))
)
expect_failure(lambda: approx.approx_solve(apex_pair, 0.5), "approx_solve")

batch.is_minimal = lambda g, s: False
record = batch.run_one("triangle", triangle, "vcsolver")
if record.outcome != "error" or not record.error.startswith("VerificationError"):
    sys.exit(f"run_one passed an unverified solution: {record}")

# a vertex-cover optimum above the true one: the wheel of four spokes around
# hub 4 (|W| = 2, kernel bound 3) asks the vertex-cover solver, and its
# optimum is 2, not 3.  C4 would ask no search: its kernel bound 1 is |W|.
wheel = Graph(range(5), [(0, 1), (1, 2), (2, 3), (0, 3)] + [(v, 4) for v in range(4)])
ksolver._solve_vc = lambda p: (Solution(frozenset({0, 1, 2}), {}), None)
expect_failure(lambda: ksolver.opt_exact_solution(wheel), "opt_exact_solution")

# a vertex-cover optimum below the greedy W: two triangles on hub 4 give
# W = {0, 2} (bound 3), and the search returns the minimal fvs {4}
butterfly = Graph(range(5), [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])
hub = frozenset({4})
ksolver._solve_vc = lambda p: (Solution(hub, is_minimal_fvs(p.g, hub)), None)
expect_failure(lambda: ksolver.opt_exact_solution(butterfly), "opt_exact_solution below W")

report.is_minimal_fvs = no_certificate
expect_failure(lambda: ksolver.solve_k(triangle, 1), "solve_k")
# the greedy W = {0} leaves k = 4 to the extension search on the chain
# kernel, which certifies its witness there
expect_failure(lambda: ksolver.solve_k(apex_pair, 4), "solve_k's extension witness")
# and solve_k certifies that witness again on the input graph: a pendant
# vertex 6 makes the kernel, the apex pair, another graph than the input
hung = Graph(range(7), [*apex_pair.edges(), (0, 6)])
report.is_minimal_fvs = lambda g, s: None if g is hung else is_minimal_fvs(g, s)
expect_failure(lambda: ksolver.solve_k(hung, 4), "solve_k certifying the extension witness on g")
report.is_minimal_fvs = is_minimal_fvs

# a search that claims the non-minimal fvs {0, 1}
extension._solve = lambda ctx, inst, depth: frozenset({0, 1})
expect_failure(lambda: extension.solve_extension(triangle, (0, 1), (), 0), "solve_extension")

# a branching leaf without a forbidden neighbor breaks an invariant of the search
leaf = extension._Node(triangle, set(), set(), {0, 1, 2}, 1)
expect_failure(lambda: extension._children(None, leaf, 0, {0: None}), "_children")

# a best connector solution without a certificate must not be returned
report.is_minimal_fvs = no_certificate
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
