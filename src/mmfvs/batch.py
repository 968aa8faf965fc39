"""Batch solving with structured, reproducible reports.

Records are emitted in instance order regardless of worker scheduling, and
the report file excludes wall-clock timings unless asked, so repeated runs
with the same inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping

from mmfvs.approx import approx_solve
from mmfvs.graph import Graph
from mmfvs.ksolver import solve_k
from mmfvs.oracle import opt_mmfvs_brute
from mmfvs.reduction import check_ppt_equivalence
from mmfvs.verify import VerificationError, is_minimal
from mmfvs.vcsolver import solve_vc

ALGORITHMS = ("bruteforce", "ksolver", "vcsolver", "approx", "ppt-check")
# `signal.setitimer` overflows the platform's time_t from about 1e10 s
MAX_SECONDS = 1e9


@dataclass
class RunRecord:
    instance: str
    algorithm: str
    params: dict[str, object]
    outcome: str  # yes | no | error
    size: int | None
    verified: bool | None
    stats: dict[str, object] = field(default_factory=dict)
    wall_time: float = 0.0
    error: str | None = None


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout()


def _json_safe(mapping: Mapping[str, object]) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value in mapping.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple)):
            if all(isinstance(x, (int, float, str, bool)) for x in value):
                out[key] = list(value)
        elif isinstance(value, dict):
            inner = _json_safe({str(k): v for k, v in value.items()})
            if inner or not value:
                out[key] = inner
    return out


def _k(params: Mapping[str, object]) -> int:
    """The k in `params`; int() would run 2.5 as k = 2 and True as k = 1, so only an int passes."""
    k = params["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an int, got {k!r}")
    return k


def _solve_into(record: RunRecord, g: Graph, algorithm: str, params: Mapping[str, object]) -> None:
    """Run one algorithm on g and fill in `record`'s answer fields.

    Every emitted solution is re-verified on g with `verify.is_minimal`,
    one union-find sweep that builds no cycle paths, and a solution that
    fails it raises `VerificationError`.
    """
    if algorithm == "ppt-check":
        same = check_ppt_equivalence(g, _k(params), cap=int(params.get("cap", 20)))
        record.outcome = "yes" if same else "no"
        record.verified = same
        return
    solution: frozenset[int] | None
    if algorithm == "bruteforce":
        res = opt_mmfvs_brute(g, cap=int(params.get("cap", 20)))
        solution = res.witness
        record.stats = {"enumerated": res.enumerated}
    elif algorithm == "ksolver":
        report = solve_k(g, _k(params))
        solution = None if report.solution is None else report.solution.vertices
        record.stats = {
            "nodes_explored": report.nodes_explored,
            "max_depth": report.max_depth,
            "guesses_tried": report.extras["guesses_tried"],
        }
    elif algorithm == "vcsolver":
        sol, report = solve_vc(g)
        solution = sol.vertices
        record.stats = _json_safe(report.extras)
    elif algorithm == "approx":
        result = approx_solve(g, float(params["epsilon"]))
        solution = result.solution.vertices
        record.stats = {"mode": result.mode, **_json_safe(result.report.extras)}
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if solution is None:
        record.outcome = "no"
        return
    record.outcome, record.size = "yes", len(solution)
    record.verified = is_minimal(g, solution)
    record.stats["solution"] = sorted(solution)
    # a yes with an unverifiable solution must never leave the runner
    if not record.verified:
        raise VerificationError(f"{algorithm} emitted a solution that fails verification")


def run_one(
    name: str,
    g: Graph,
    algorithm: str,
    params: Mapping[str, object] | None = None,
    timeout: float | None = None,
) -> RunRecord:
    """One solver call as a record; errors, and a SIGALRM after `timeout` seconds, are recorded.

    The alarm is armed inside the guarded region, and the timer is off
    before either handler runs; an alarm that lands anywhere up to the
    disarm, the disarm included, makes the record read "timeout", and the
    previous SIGALRM handler is restored in every case.  Only the main
    thread can take the alarm: from any other, a timeout is an error record.
    A timeout outside (0, `MAX_SECONDS`] is an error record too, before
    any timer is armed or solver runs.
    """
    params = dict(params or {})
    record = RunRecord(
        instance=name, algorithm=algorithm, params=_json_safe(params),
        outcome="error", size=None, verified=None,
    )
    if timeout is not None and not 0 < timeout <= MAX_SECONDS:
        record.error = f"timeout {timeout!r} is not a positive number of seconds up to {MAX_SECONDS:g}"
        return record
    if timeout and threading.current_thread() is not threading.main_thread():
        record.error = "the timeout needs the main thread"
        return record
    started = time.perf_counter()
    old_handler = signal.getsignal(signal.SIGALRM) if timeout else None
    try:
        try:
            if timeout:
                signal.signal(signal.SIGALRM, _alarm)
                signal.setitimer(signal.ITIMER_REAL, timeout)
            _solve_into(record, g, algorithm, params)
        finally:
            if timeout:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
    except _Timeout:
        record.outcome = "error"
        record.error = "timeout"
    except Exception as exc:  # recorded, batch continues
        record.outcome = "error"
        record.error = f"{type(exc).__name__}: {exc}"
    finally:
        if timeout:
            signal.signal(signal.SIGALRM, old_handler)
    record.wall_time = time.perf_counter() - started
    return record


def _worker(task: tuple[str, Graph, str, dict[str, object], float | None]) -> RunRecord:
    return run_one(*task)


def run_batch(
    instances: Iterable[tuple[str, Graph]],
    algorithm: str,
    params: Mapping[str, object] | None = None,
    threads: int = 1,
    timeout: float | None = None,
) -> list[RunRecord]:
    """Run one algorithm over named instances; record order follows input order."""
    tasks = [(name, g, algorithm, dict(params or {}), timeout) for name, g in instances]
    # the pool starts every worker at the first submit, so start no idle ones
    workers = min(threads, len(tasks))
    if workers <= 1:
        return [_worker(task) for task in tasks]
    # imported here: the pool's modules cost every serial caller memory and start-up time
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker, tasks))


def render_report(records: Iterable[RunRecord], include_timings: bool = False) -> str:
    """Line-delimited JSON, deterministic unless timings are requested."""
    lines = []
    for record in records:
        payload = asdict(record)
        if not include_timings:
            payload.pop("wall_time")
        lines.append(json.dumps(payload, sort_keys=True))
    return "\n".join(lines) + "\n"


def summarize(records: Iterable[RunRecord]) -> str:
    """Plain-text summary table (greppable, one row per record)."""
    records = list(records)
    rows = [("instance", "algorithm", "outcome", "size", "verified", "seconds")]
    for r in records:
        rows.append(
            (
                r.instance,
                r.algorithm,
                r.outcome if not r.error else f"error:{r.error}",
                "-" if r.size is None else str(r.size),
                "-" if r.verified is None else str(r.verified).lower(),
                f"{r.wall_time:.3f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    done = sum(1 for r in records if not r.error)
    lines.append(f"{done}/{len(records)} instances completed")
    return "\n".join(lines) + "\n"
