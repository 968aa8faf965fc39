"""Solver benchmark for the mmfvs package.

    python3 perfbench/run.py --workload small-exact --seed 1 --seconds 20 --trace 0

One process drives one closed-loop client: the next solver call starts when
the previous one returns.  Every timed call goes through what users call,
``batch.run_one`` for ksolver/vcsolver/approx and
``ksolver.opt_exact_solution`` directly, under the workload's per-call
deadline.  Answers are checked against the reference file after timing.

``--trace 0`` times the closed loop for ``--seconds`` and prints the
end-to-end metrics.  Their times are scaled to a reference machine speed
by a probe the loop runs between calls (speed.py); the raw wall-clock
figures are printed beside them.  ``--trace 1`` replays a fixed prefix of
the call list untraced and then traced, and prints the per-layer metrics.  The last
stdout line is one JSON object; the exit code is 1 on any wrong answer and
2 when the benchmark cannot run (no ``src/mmfvs`` next to it, say).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from refs import ref_path, within
from speed import SpeedLog, probe_cost

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / ".out"
SETUP_REPS = 3
SLICES = 40
SLICE_CALLS = 20
REFS_BUILD_TIMEOUT = 120.0

END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_SHARES = (
    "batch.run_one",
    "ksolver.opt_exact_solution",
    "extension.solve_extension",
    "verify.has_private_cycle",
    "vcsolver.solve_vc",
    "approx.approx_solve",
    "verify.min_vertex_cover",
    "verify.greedy_minimal_fvs",
    "verify.is_minimal_fvs",
)


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


@dataclass
class Result:
    """One attempted call: status is ok, timeout or error.  ``latency`` is
    scaled to the reference speed, ``wall`` is the raw wall-clock time."""

    index: int
    status: str
    answer: tuple | None
    latency: float
    problem: str | None = None
    wall: float | None = None


def probe_ms() -> float:
    """Median cost of 20 speed probes (speed.py): how fast the box is now."""
    return round(statistics.median(probe_cost() for _ in range(20)) * 1000, 4)


def cpu_times() -> list[int] | None:
    """Aggregate CPU jiffies from /proc/stat (None where there is none)."""
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def env_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "probe_ms_start": probe_ms(),
    }


def finish_env(env: dict, jiffies: list[int] | None) -> None:
    """Add the end-of-run load, speed probe, and the share of CPU time the
    hypervisor took for other guests (steal) while the run was measured."""
    env["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
    env["probe_ms_end"] = probe_ms()
    now = cpu_times()
    if jiffies and now and len(now) > 7:
        delta = [b - a for a, b in zip(jiffies, now)]
        env["steal_share"] = round(delta[7] / sum(delta), 4) if sum(delta) else 0.0


def import_package() -> None:
    """Import every mmfvs module the benchmark uses."""
    if not (SRC / "mmfvs" / "__init__.py").is_file():
        raise BenchError(f"no mmfvs package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mmfvs  # noqa: F401
    import mmfvs.batch  # noqa: F401
    import mmfvs.instances  # noqa: F401
    import mmfvs.ksolver  # noqa: F401
    import mmfvs.oracle  # noqa: F401
    import mmfvs.verify  # noqa: F401


def ensure_refs(workload: str, seed: int, fingerprint: str) -> Path:
    """The reference file for this seed, built in a child process if needed."""
    path = ref_path(workload, seed)
    if path.is_file() and json.loads(path.read_text())["fingerprint"] == fingerprint:
        return path
    if seed == workloads.DEFAULT_SEED:
        raise BenchError(f"{path.name} is missing or stale; rebuild it with perfbench/refs.py")
    print(f"building references for seed {seed} (untimed) ...", flush=True)
    cmd = [sys.executable, str(HERE / "refs.py"), "--workload", workload, "--seed", str(seed)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=REFS_BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("building references took too long") from None
    if done.returncode != 0 or not path.is_file():
        raise BenchError(f"building references failed (exit {done.returncode})")
    return path


def setup(workload: str, seed: int, ref_file: Path):
    """Instance generation, write/parse round trip and reference loading."""
    corpus = workloads.specs(workload, seed)
    graphs = workloads.materialize(corpus)
    doc = json.loads(ref_file.read_text())
    if doc["fingerprint"] != workloads.fingerprint(corpus):
        raise BenchError(f"{ref_file.name} does not match the corpus")
    refs = doc["entries"]
    return corpus, graphs, refs, workloads.calls(workload, corpus, refs)


def execute(call, g, deadline: float) -> tuple[str, tuple | None, str | None]:
    """(status, answer, error) of one call through the public entry points."""
    from mmfvs import batch, ksolver

    if call.algorithm == "opt_exact":
        status, value, error = within(lambda: ksolver.opt_exact_solution(g), deadline)
        if status != "ok":
            return status, None, error
        opt, sol = value
        return "ok", ("opt", opt, tuple(sorted(sol.vertices))), None
    try:
        record = batch.run_one(call.instance, g, call.algorithm, call.params, timeout=deadline)
    except Exception as exc:  # e.g. the alarm firing inside run_one's own cleanup
        return "error", None, f"{type(exc).__name__}: {exc}"
    if record.error:
        return ("timeout" if record.error == "timeout" else "error"), None, record.error
    return "ok", (record.outcome, record.size, tuple(record.stats.get("solution", ()))), None


def run_calls(call_list, graphs, deadline: float, seconds: float | None, tracer=None):
    """Closed loop over the call list (wrapping around) for `seconds`, at
    least one call, or exactly once through it when `seconds` is None.
    A speed probe runs between calls every PROBE_EVERY_S, untimed."""
    results: list[Result] = []
    spans: list[tuple[float, float]] = []
    speed = SpeedLog()
    speed.probe()
    started = time.perf_counter()
    i = 0
    while True:
        if seconds is None:
            if i == len(call_list):
                break
        elif i and time.perf_counter() - started >= seconds:
            break
        call = call_list[i % len(call_list)]
        snap = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        status, answer, error = execute(call, graphs[call.instance], deadline)
        t1 = time.perf_counter()
        if tracer and status == "timeout":
            tracer.restore(snap)
        results.append(Result(i % len(call_list), status, answer, t1 - t0, error, wall=t1 - t0))
        spans.append((t0, t1))
        i += 1
        if speed.due():
            speed.probe()
    elapsed = time.perf_counter() - started
    speed.probe()
    for res, (t0, t1) in zip(results, spans):
        res.latency = res.wall * speed.scale(t0, t1)
    return results, elapsed


def check_answer(call, answer, ref, g, verified: dict) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    from mmfvs.verify import is_minimal_fvs

    kind, value, witness = answer
    if witness or kind != "no":
        key = (call.instance, witness)
        if key not in verified:
            verified[key] = is_minimal_fvs(g, witness) is not None
        if not verified[key]:
            return "witness does not re-verify"
        if value is not None and len(witness) != value:
            return f"witness has {len(witness)} vertices, reported {value}"
    if call.algorithm == "ksolver":
        k = call.params["k"]
        expected = ref.get("answer")
        if "opt" in ref:
            expected = "yes" if ref["opt"] >= k else "no"
        if expected is not None and kind != expected:
            return f"decided {kind} at k = {k}, reference says {expected}"
        if kind == "yes" and len(witness) < k:
            return f"yes at k = {k} with a witness of {len(witness)}"
        return None
    opt = ref["opt"]
    if opt is None:
        return None
    if call.algorithm == "approx":
        need = math.ceil((1 - call.params["epsilon"]) * opt)
        return None if value >= need else f"approx size {value} < {need} (opt {opt})"
    return None if value == opt else f"optimum {value}, reference says {opt}"


def check_results(workload: str, call_list, graphs, refs, results: list[Result], verified: dict) -> int:
    """Mark wrong answers as failed problems; returns how many were wrong."""
    from mmfvs.oracle import opt_mmfvs_brute

    wrong = 0
    oracle_done: set[str] = set()
    for res in results:
        if res.status != "ok":
            continue
        call = call_list[res.index]
        g = graphs[call.instance]
        ref = refs[call.instance]
        if workload == "small-exact" and call.instance not in oracle_done:
            oracle_done.add(call.instance)
            if opt_mmfvs_brute(g).opt_value != ref["opt"]:
                raise BenchError(f"reference optimum of {call.instance} disagrees with the oracle")
        problem = check_answer(call, res.answer, ref, g, verified)
        if problem:
            wrong += 1
            res.status = "wrong"
            res.problem = f"{call.instance} {call.algorithm} {call.params}: {problem}"
    return wrong


def end_to_end(results: list[Result], elapsed: float, deadline: float, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, plus details printed beside them.

    Latencies are the scaled ones (speed.py); the details repeat the median
    and throughput in raw wall time.  The latency quantiles count each call
    of the list once, at the median of its repeats when the loop went round
    the list more than once: how far a run gets then does not reweight the
    instances (on cover-vc, whose runs go round 1.5 times, that took the
    tail's spread over ten seeds from 0.19 to 0.12).  calls_per_s is the
    median throughput over up to SLICES consecutive slices of the run, of
    at least SLICE_CALLS calls each.  A rare call of a second or two (sparse-k has
    some, and a run meets each instance three or four times) then moves
    a few slices instead of the whole figure: over ten seeds, one such
    instance took a fifth off the whole-run throughput of its run.
    """
    ok = sum(1 for r in results if r.status == "ok")
    n = len(results)
    slices = max(1, min(SLICES, n // SLICE_CALLS))
    rates = []
    for c in range(slices):
        part = results[c * n // slices:(c + 1) * n // slices]
        rates.append(sum(r.status == "ok" for r in part) / sum(r.latency for r in part))
    # p90, not the 11th-largest latency: that one rests on a handful of the
    # heaviest instances and swung by up to 50% between seeds on sparse-k.
    # p90 keeps at least ten samples beyond it from 100 calls up; below
    # that the tail is the 11th-largest latency, and the largest one when
    # there are no more than ten calls.
    repeats: dict[int, list[float]] = {}
    for r in results:
        # a failed call counts as missing every latency limit
        latency = r.latency if r.status == "ok" else max(r.latency, deadline)
        repeats.setdefault(r.index, []).append(latency)
    ordered = sorted(statistics.median(v) for v in repeats.values())
    calls = len(ordered)
    beyond = calls // 10 if calls >= 100 else (10 if calls > 10 else 0)
    tail = ordered[calls - 1 - beyond]
    pct = 100.0 * (1 - beyond / calls)
    values = {
        "calls_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(ordered) * 1000,
        "latency_tail_ms": tail * 1000,
        "success_share": ok / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    walls = [r.wall for r in results if r.wall is not None]
    details = {
        "samples": calls,
        "tail_percentile": round(pct, 3),
        "samples_beyond_tail": beyond,
        "fail_share": (n - ok) / n,
        "wall_calls_per_s": ok / elapsed,
        "wall_p50_ms": statistics.median(walls) * 1000 if walls else None,
    }
    return values, details


def layer_shares(before: dict, after: dict, call_time: float) -> dict:
    """Share of traced call time spent in each layer (inclusive; run_one self)."""
    shares = {}
    for name in LAYER_SHARES:
        key = "self" if name == "batch.run_one" else "inclusive"
        spent = after[key].get(name, 0.0) - before[key].get(name, 0.0)
        shares[f"{name} ({key})"] = spent / call_time if call_time else 0.0
    return shares


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mmfvs solver benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    env = env_stamp()
    speed = SpeedLog()
    _, import_s = speed.timed(import_package)
    ref_file = ensure_refs(args.workload, args.seed,
                           workloads.fingerprint(workloads.specs(args.workload, args.seed)))
    deadline = workloads.DEADLINES[args.workload]

    setup_times = []
    for _ in range(SETUP_REPS):
        (corpus, graphs, refs, call_list), spent = speed.timed(
            lambda: setup(args.workload, args.seed, ref_file))
        setup_times.append(spent)
    setup_s = import_s + statistics.median(setup_times)
    jiffies = cpu_times()
    verified: dict = {}
    lines = [f"workload {args.workload} seed {args.seed}: {len(corpus)} instances, "
             f"{len(call_list)} calls in the list, deadline {deadline:g} s"]

    if args.trace == 0:
        results, elapsed = run_calls(call_list, graphs, deadline, args.seconds)
        wrong = check_results(args.workload, call_list, graphs, refs, results, verified)
        metrics, details = end_to_end(results, elapsed, deadline, setup_s)
        units = END_TO_END_UNITS
        lines.append(
            f"  {len(results)} calls ({details['samples']} distinct) in {elapsed:.2f} s; "
            f"tail is p{details['tail_percentile']} "
            f"({details['samples_beyond_tail']} samples beyond it); fail_share {details['fail_share']:.4f}; "
            f"unscaled wall clock: {details['wall_calls_per_s']:.4g} calls/s, p50 {details['wall_p50_ms']:.4g} ms"
        )
    else:
        from tracing import Tracer, metric_units

        prefix = call_list[: workloads.TRACE_CALLS[args.workload]]
        plain, _ = run_calls(prefix, graphs, deadline, None)
        tracer = Tracer()
        tracer.install()
        try:
            setup(args.workload, args.seed, ref_file)
            before = {"self": dict(tracer.self_s), "inclusive": dict(tracer.inclusive_s)}
            results, _ = run_calls(prefix, graphs, deadline, None, tracer)
            after = {"self": dict(tracer.self_s), "inclusive": dict(tracer.inclusive_s)}
            wrong = check_results(args.workload, prefix, graphs, refs, results, verified)
        finally:
            tracer.uninstall()
        wrong += check_results(args.workload, prefix, graphs, refs, plain, verified)
        # overhead on scaled call time, so the box's drift between the two
        # passes does not count; shares on raw call time, like the spans
        plain_s = sum(r.latency for r in plain)
        traced_s = sum(r.latency for r in results)
        metrics = tracer.metrics(traced_s / plain_s)
        units = metric_units()
        spans = tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
        excluded = sum(1 for r in results if r.status == "timeout")
        lines.append(f"  traced {len(prefix)} calls: scaled call time {traced_s:.2f} s traced, {plain_s:.2f} s untraced, "
                     f"{spans} spans written, {excluded} deadline hits excluded from counters")
        for name, share in layer_shares(before, after, sum(r.wall for r in results)).items():
            lines.append(f"  share of call time in {name}: {100 * share:.1f}%")

    finish_env(env, jiffies)
    lines.append("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")
    for res in results:
        if res.status == "wrong":
            lines.append(f"WRONG {res.problem}")
    attempted = len(results)
    failed = sum(1 for r in results if r.status != "ok")
    summary = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace, env=env,
                  calls=[[r.index, r.status, r.latency, r.wall] for r in results])
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
