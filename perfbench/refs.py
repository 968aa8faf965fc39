"""Build the reference answers of one workload at one seed.

    python3 perfbench/refs.py --workload sparse-k --seed 1

Each entry is cross-checked by an independent route wherever one
finishes, and the script exits 1 without writing anything when two routes
disagree:

- small-exact: optimum from ``solve_vc``, checked against the brute-force
  ``oracle``;
- sparse-k and large-greedy: the decision from ``solve_k``.  A yes is
  proven by a witness that re-verifies; a minimal fvs grown independently
  here (incremental forest, below) proves yes on its own and must never
  exceed a "no".  A "no" rests on ``solve_k`` alone and is flagged
  ``single_solver``;
- cover-vc: optimum from ``solve_vc``, checked against ``opt_exact`` when
  that finishes within CROSS_CHECK_S seconds, and for reduction-output graphs
  instead against the brute-force Max Min Vertex Cover optimum of the base
  graph plus n + 2, which the reduction guarantees (opt_exact is slow on
  those graphs: their optimum is large).

The file for the default seed is committed under ``perfbench/refs``;
``run.py`` builds one for any other seed before set-up and timing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFS_DIR = HERE / "refs"
CACHE_DIR = HERE / ".refcache"
# Time allowed to opt_exact per cover-vc instance; it keeps a fresh seed's
# build near 20 s on a two-core box.
CROSS_CHECK_S = 0.2


class Disagreement(Exception):
    """Two independent routes gave different answers for one instance."""


class CallDeadline(Exception):
    pass


def _alarm(_signum, _frame):
    raise CallDeadline()


def within(fn, seconds: float) -> tuple[str, object, str | None]:
    """(status, value, error) of fn() under a SIGALRM deadline, like
    run_one's timeout; status is ok, timeout or error."""
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return "ok", fn(), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except CallDeadline:
        return "timeout", None, "timeout"
    except Exception as exc:  # a crash is a failed call, not a crashed run
        return "error", None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, old)


def _bounded(fn, seconds: float):
    """fn() or None when it does not finish within `seconds`."""
    status, value, error = within(fn, seconds)
    if status == "error":
        raise RuntimeError(error)
    return value


def ref_path(workload: str, seed: int) -> Path:
    """Where run.py looks for (and, for fresh seeds, caches) the file."""
    directory = REFS_DIR if seed == workloads.DEFAULT_SEED else CACHE_DIR
    return directory / f"{workload}-seed{seed}.json"


def forest_growth_fvs(g) -> frozenset[int]:
    """A minimal fvs found without the package's solvers.

    Vertices join a forest in ascending id order when they close no cycle
    (union-find); the rest form S.  A vertex left out closed a cycle with
    the forest at that moment, and the forest only grows, so every member
    of S keeps a private cycle: S is a minimal fvs.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rejected: set[int] = set()
    for v in g.sorted_vertices():
        roots = [find(u) for u in g.neighbors(v) if u in parent]
        if len(set(roots)) < len(roots):
            rejected.add(v)
            continue
        parent[v] = v
        for r in roots:
            parent[r] = v
    return frozenset(rejected)


def _decision_entry(g, k: int, deadline: float) -> dict:
    from mmfvs.batch import run_one
    from mmfvs.verify import is_minimal_fvs

    grown = forest_growth_fvs(g)
    if is_minimal_fvs(g, grown) is None:
        raise Disagreement("the independently grown fvs does not verify")
    if len(grown) >= k:
        return {"k": k, "answer": "yes", "proof": "independent-witness", "single_solver": False}
    record = run_one("ref", g, "ksolver", {"k": k}, timeout=deadline)
    if record.error:
        return {"k": k, "answer": None, "proof": record.error, "single_solver": True}
    if record.outcome == "yes":
        witness = record.stats["solution"]
        if len(witness) < k or is_minimal_fvs(g, witness) is None:
            raise Disagreement(f"solve_k witness of size {len(witness)} fails at k = {k}")
        return {"k": k, "answer": "yes", "proof": "witness", "single_solver": False}
    return {"k": k, "answer": "no", "proof": "solve_k", "single_solver": True}


def _optimum_entry(spec, g, deadline: float, use_oracle: bool) -> dict:
    from mmfvs.instances import generate
    from mmfvs.ksolver import opt_exact
    from mmfvs.oracle import opt_mmfvs_brute, opt_mmvc_brute
    from mmfvs.vcsolver import solve_vc

    solved = _bounded(lambda: solve_vc(g), deadline)
    checks: dict[str, int | None] = {}
    if use_oracle:
        checks["oracle"] = opt_mmfvs_brute(g).opt_value
    elif spec.family == "reduction-output":
        base = generate("gnp", {"n": spec.params["n"], "p": spec.params["p"]}, spec.seed)
        checks["mmvc-oracle+n+2"] = opt_mmvc_brute(base).opt_value + len(base) + 2
    else:
        checks["opt_exact"] = _bounded(lambda: opt_exact(g), CROSS_CHECK_S)
    if solved is None:
        # solve_vc hit the deadline: keep whatever other route finished
        opt = next((v for v in checks.values() if v is not None), None)
        return {"opt": opt, "checked_by": [], "single_solver": True}
    opt = len(solved[0].vertices)
    checked_by = []
    for route, value in checks.items():
        if value is None:
            continue
        if value != opt:
            raise Disagreement(f"{spec.name}: solve_vc gives {opt}, {route} gives {value}")
        checked_by.append(route)
    return {"opt": opt, "checked_by": checked_by, "single_solver": not checked_by}


def build(workload: str, seed: int) -> dict:
    """Reference document for one workload and seed; raises Disagreement."""
    corpus = workloads.specs(workload, seed)
    deadline = workloads.DEADLINES[workload]
    entries: dict[str, dict] = {}
    for spec in corpus:
        g = workloads.build_graph(spec)
        if workload in ("sparse-k", "large-greedy"):
            entries[spec.name] = _decision_entry(g, spec.k, deadline)
        elif workload == "small-exact":
            entries[spec.name] = _optimum_entry(spec, g, deadline, use_oracle=True)
        else:
            entries[spec.name] = _optimum_entry(spec, g, deadline, use_oracle=False)
    return {
        "workload": workload,
        "seed": seed,
        "fingerprint": workloads.fingerprint(corpus),
        "single_solver": sorted(n for n, e in entries.items() if e["single_solver"]),
        "entries": entries,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        doc = build(args.workload, args.seed)
    except Disagreement as exc:
        print(f"refs: solvers disagree, nothing written: {exc}", file=sys.stderr)
        return 1
    out = ref_path(args.workload, args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    tmp.replace(out)
    singles = len(doc["single_solver"])
    print(f"refs: wrote {out.name}: {len(doc['entries'])} entries, {singles} single-solver")
    return 0


if __name__ == "__main__":
    sys.exit(main())
