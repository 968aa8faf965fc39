"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s or check captured output).

The exhaustive connected corpus takes about a minute to build and the
whole module a few minutes single-threaded; everything is deterministic
(fixed seeds, fixed corpora).
"""

import math
import random
import time

from mmfvs.approx import approx_solve
from mmfvs.extension import solve_extension
from mmfvs.instances import generate
from mmfvs.ksolver import solve_k
from mmfvs.oracle import fvs_min_brute, opt_mmfvs_brute
from mmfvs.reduction import check_ppt_equivalence, ppt_mmvc_to_mmfvs
from mmfvs.verify import greedy_minimal_fvs, is_minimal_fvs, min_vertex_cover
from mmfvs.vcsolver import solve_vc

from helpers import atlas_all_graphs, gnp

# shared accounting for the safety-net criterion
RUNSTATS = {
    "solutions_reverified": 0,
    "verify_breaches": 0,
    "vc_guess_rejected_at_verify": 0,
    "vc_forest_check_failures": 0,
    "approx_guess_rejected_at_verify": 0,
}


def _reverify(g, vertices):
    RUNSTATS["solutions_reverified"] += 1
    if is_minimal_fvs(g, vertices) is None:
        RUNSTATS["verify_breaches"] += 1
        return False
    return True


def _report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_1_exact_solvers_match_bruteforce(connected_corpus, corpus_optima):
    """All connected graphs up to 8 vertices (up to isomorphism): solve_k
    decisions for every k and solve_vc optima equal brute force."""
    started = time.time()
    mismatches = []
    for idx, (g, opt) in enumerate(zip(connected_corpus, corpus_optima, strict=True)):
        sol, report = solve_vc(g)
        RUNSTATS["vc_guess_rejected_at_verify"] += report.extras["guess_rejected_at_verify"]
        RUNSTATS["vc_forest_check_failures"] += report.extras["forest_check_failures"]
        if not _reverify(g, sol.vertices) or len(sol.vertices) != opt:
            mismatches.append((idx, "vcsolver", len(sol.vertices), opt))
        for k in range(len(g) + 1):
            k_report = solve_k(g, k)
            if k_report.is_yes != (opt >= k):
                mismatches.append((idx, "ksolver", k, opt))
            if k_report.is_yes and not _reverify(g, k_report.solution.vertices):
                mismatches.append((idx, "ksolver-witness", k, opt))
    detail = (
        f"{len(connected_corpus)} graphs, every k, "
        f"{len(mismatches)} mismatches, {time.time() - started:.0f}s"
    )
    _report("exact-solvers-vs-bruteforce", not mismatches, detail)
    assert not mismatches, mismatches[:5]


def test_2_apex_pair_family():
    """The two-hub family: minimum fvs 1, cover number 2, optimum n - 2."""
    failures = []
    for n in range(6, 15):
        g = generate("apexpair", {"n": n})
        if n <= 12 and fvs_min_brute(g) != 1:
            failures.append((n, "fvs"))
        if len(min_vertex_cover(g)) != 2:
            failures.append((n, "cover"))
        sol, _ = solve_vc(g)
        if len(sol.vertices) != n - 2 or not _reverify(g, sol.vertices):
            failures.append((n, "opt", len(sol.vertices)))
    _report("apex-pair-family", not failures, f"n in 6..14, {len(failures)} failures")
    assert not failures, failures


def test_3_branching_bound():
    """200 random extension instances: node count within 3^(k + gamma)."""
    rng = random.Random(0)
    violations = []
    worst = 0.0
    for i in range(200):
        n = rng.randint(6, 30)
        p = rng.uniform(1.2 / n, 0.45)
        g = gnp(n, p, seed=rng.randrange(1 << 30))
        w = greedy_minimal_fvs(g)
        required = frozenset(v for v in w if rng.random() < 0.5)
        k = rng.randint(1, 6)
        report = solve_extension(g, required, w - required, k)
        bound = 3 ** (k + report.extras["gamma_root"])
        worst = max(worst, report.nodes_explored / bound)
        if report.nodes_explored > bound:
            violations.append((i, report.nodes_explored, bound))
    detail = f"200 instances, {len(violations)} violations, worst ratio {worst:.2f}"
    _report("branching-bound", not violations, detail)
    assert not violations, violations


def test_4_wrapper_budget():
    """solve_k stays within five minutes per instance at n <= 200, k <= 8."""
    cases = [
        (50, 0.08, 8, 11),
        (100, 0.05, 8, 12),
        (200, 0.02, 8, 13),
        (200, 0.008, 6, 14),
        (150, 0.012, 8, 15),
        (200, 0.03, 4, 16),
    ]
    slowest = 0.0
    over = []
    for n, p, k, seed in cases:
        g = gnp(n, p, seed=seed)
        started = time.time()
        solve_k(g, k)
        elapsed = time.time() - started
        slowest = max(slowest, elapsed)
        if elapsed > 300:
            over.append((n, p, k, elapsed))
    _report("wrapper-budget", not over, f"{len(cases)} instances, slowest {slowest:.1f}s")
    assert not over, over


def test_5_ppt_equivalence():
    """All graphs with up to 5 vertices, every k: the transformation
    preserves the decision and grows the cover number by at most 2."""
    failures = []
    for g in atlas_all_graphs(5):
        for k in range(len(g) + 1):
            if not check_ppt_equivalence(g, k):
                failures.append((sorted(g.edges()), k))
        ppt = ppt_mmvc_to_mmfvs(g, 0)
        if len(min_vertex_cover(ppt.graph)) > len(min_vertex_cover(g)) + 2:
            failures.append((sorted(g.edges()), "cover-growth"))
    _report("ppt-equivalence", not failures, f"53 graphs, all k, {len(failures)} failures")
    assert not failures, failures


def _random_hub_graph(rng):
    """A two-hub graph with a little noise: low cover number, large
    optimum, so the threshold test sends these into greedy mode."""
    n = rng.randint(6, 8)
    g = generate("apexpair", {"n": n})
    extras = [
        (u, v)
        for u in range(2, n)
        for v in range(u + 1, n)
        if rng.random() < 0.08
    ]
    if extras:
        g = type(g)(g.vertices, list(g.edges()) + extras)
    return g


def test_6_approximation_guarantees():
    """500 random graphs, three epsilons: output verifies, additive
    opt - vc bound, multiplicative ceil((1 - eps) * opt) bound.

    Dense uniform graphs at this size never pass the vc/eps threshold, so
    a share of hub-heavy random graphs keeps the greedy path exercised.
    """
    rng = random.Random(6)
    violations = []
    greedy_runs = 0
    for i in range(500):
        if rng.random() < 0.3:
            g = _random_hub_graph(rng)
        else:
            n = rng.randint(4, 8)
            p = rng.uniform(0.2, 0.6)
            g = gnp(n, p, seed=rng.randrange(1 << 30))
        opt = opt_mmfvs_brute(g).opt_value
        vc = len(min_vertex_cover(g))
        for eps in (0.1, 0.25, 0.5):
            result = approx_solve(g, eps)
            size = len(result.solution.vertices)
            if result.mode == "greedy":
                greedy_runs += 1
                RUNSTATS["approx_guess_rejected_at_verify"] += result.report.extras[
                    "guess_rejected_at_verify"
                ]
            if not _reverify(g, result.solution.vertices):
                violations.append((i, eps, "verify"))
            if size < opt - vc:
                violations.append((i, eps, "additive", size, opt, vc))
            if size < math.ceil((1 - eps) * opt):
                violations.append((i, eps, "multiplicative", size, opt))
    detail = (
        f"500 graphs x 3 epsilons, {greedy_runs} greedy runs, "
        f"{len(violations)} violations"
    )
    _report("approximation-guarantees", not violations, detail)
    assert greedy_runs > 0, "corpus must exercise the greedy mode"
    assert not violations, violations[:5]


def test_7_safety_net(connected_corpus):
    """Every emitted solution re-verifies; the discarded-guess counters are
    reported and expected to be zero (a nonzero value is a logged finding,
    not a failure, as long as the optimality criteria held)."""
    if RUNSTATS["solutions_reverified"] == 0:
        # self-contained fallback when run in isolation
        for g in connected_corpus[:300]:
            sol, report = solve_vc(g)
            RUNSTATS["vc_guess_rejected_at_verify"] += report.extras[
                "guess_rejected_at_verify"
            ]
            _reverify(g, sol.vertices)
    counters = {
        name: RUNSTATS[name]
        for name in (
            "vc_guess_rejected_at_verify",
            "vc_forest_check_failures",
            "approx_guess_rejected_at_verify",
        )
    }
    for name, count in counters.items():
        if count:
            print(f"FINDING: {name} = {count} (expected 0)")
    ok = RUNSTATS["verify_breaches"] == 0
    detail = (
        f"{RUNSTATS['solutions_reverified']} solutions re-verified, "
        f"{RUNSTATS['verify_breaches']} breaches, counters {counters}"
    )
    _report("safety-net", ok, detail)
    assert ok
