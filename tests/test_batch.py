import concurrent.futures
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import mmfvs
from mmfvs import batch
from mmfvs.batch import render_report, run_batch, run_one, summarize
from mmfvs.instances import generate

from corpus import connected_atlas
from helpers import apex_pair, gnp


class TestRunBatch:
    def test_ksolver_agrees_with_bruteforce_on_small_connected_graphs(self):
        corpus = [(f"g{i}", g) for i, g in enumerate(connected_atlas(5))]
        brute = run_batch(corpus, "bruteforce")
        for k in range(6):
            decisions = run_batch(corpus, "ksolver", {"k": k})
            for b, d in zip(brute, decisions):
                assert d.outcome == ("yes" if b.size >= k else "no"), (d.instance, k)

    def test_apex_family_optimum_under_vcsolver(self):
        corpus = [(f"apexpair{n}", apex_pair(n)) for n in range(6, 10)]
        for record, n in zip(run_batch(corpus, "vcsolver"), range(6, 10)):
            assert record.outcome == "yes"
            assert record.size == n - 2
            assert record.verified

    def test_approx_ratio_on_random_corpus(self):
        corpus = [(f"r{s}", gnp(7, 0.4, seed=s)) for s in range(10)]
        brute = run_batch(corpus, "bruteforce")
        approx = run_batch(corpus, "approx", {"epsilon": 0.5})
        for b, a in zip(brute, approx):
            assert a.verified
            assert a.size >= 0.5 * b.size

    def test_failures_are_recorded_and_batch_continues(self):
        corpus = [("big", gnp(25, 0.3, seed=1)), ("ok", gnp(6, 0.4, seed=2))]
        records = run_batch(corpus, "bruteforce")
        assert records[0].outcome == "error"
        assert "OracleCapExceeded" in records[0].error
        assert records[1].outcome == "yes"

    def test_timeout_is_recorded(self):
        record = run_one("slow", gnp(18, 0.5, seed=3), "bruteforce", {"cap": 20}, timeout=0.01)
        assert record.outcome == "error" and record.error == "timeout"

    def test_an_alarm_at_once_is_recorded_and_the_handler_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        record = run_one("c5", generate("cycle", {"n": 5}), "vcsolver", timeout=1e-9)
        assert record.outcome == "error" and record.error == "timeout"
        assert signal.getsignal(signal.SIGALRM) is before

    def test_an_alarm_landing_in_the_disarm_is_recorded(self, monkeypatch):
        real = signal.setitimer

        def late(which, seconds):
            real(which, seconds)
            if seconds == 0:
                raise batch._Timeout()  # as if the alarm fired just before the disarm

        monkeypatch.setattr(signal, "setitimer", late)
        before = signal.getsignal(signal.SIGALRM)
        record = run_one("c5", generate("cycle", {"n": 5}), "vcsolver", timeout=60)
        assert record.outcome == "error" and record.error == "timeout"
        assert signal.getsignal(signal.SIGALRM) is before

    @pytest.mark.parametrize("timeout", [-1, 0, float("nan"), float("inf"), 1e12])
    def test_a_timeout_outside_the_bound_is_recorded_and_runs_nothing(self, monkeypatch, timeout):
        def solver(*args):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(batch, "_solve_into", solver)
        monkeypatch.setattr(signal, "setitimer", solver)
        before = signal.getsignal(signal.SIGALRM)
        record = run_one("c5", generate("cycle", {"n": 5}), "vcsolver", timeout=timeout)
        assert record.outcome == "error"
        assert "positive number of seconds up to 1e+09" in record.error
        assert signal.getsignal(signal.SIGALRM) is before

    @pytest.mark.parametrize("algorithm", ["ksolver", "ppt-check"])
    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
    def test_a_k_that_is_not_an_int_is_recorded_as_an_error(self, algorithm, k):
        # int() truncated these: on the gnp(9), ksolver at k = 2.5 ran k = 2 and
        # recorded a yes of size 2; ppt-check's brute force needs the smaller graph
        g = gnp(9, 0.5, seed=3) if algorithm == "ksolver" else gnp(4, 0.5, seed=1)
        record = run_one("g", g, algorithm, {"k": k})
        assert (record.outcome, record.size, record.verified) == ("error", None, None)
        assert record.error == f"ValueError: k must be an int, got {k!r}"
        assert record.params == {"k": k}
        # an int k still runs
        assert run_one("g", g, algorithm, {"k": 2}).outcome == "yes"

    def test_a_timeout_off_the_main_thread_is_recorded(self):
        # only the main thread can install a SIGALRM handler: from any other
        # thread a timeout is an error record and the handler stays as it was
        c5 = generate("cycle", {"n": 5})
        before = signal.getsignal(signal.SIGALRM)
        records, raised = {}, []

        def call(timeout):
            try:
                records[timeout] = run_one("c5", c5, "vcsolver", timeout=timeout)
            except Exception as exc:  # reported below, not lost in the thread
                raised.append(exc)

        for timeout in (5, None):
            worker = threading.Thread(target=call, args=(timeout,))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert not raised, raised
        assert records[5].outcome == "error"
        assert records[5].error == "the timeout needs the main thread"
        assert records[None].outcome == "yes" and records[None].size == 1
        assert signal.getsignal(signal.SIGALRM) is before

    def test_thread_pool_matches_serial(self):
        corpus = [(f"r{s}", gnp(7, 0.45, seed=s)) for s in range(6)]
        serial = run_batch(corpus, "vcsolver")
        parallel = run_batch(corpus, "vcsolver", threads=2)
        assert render_report(serial) == render_report(parallel)

    @pytest.mark.parametrize("count, threads, started", [(3, 8, [3]), (5, 2, [2]), (1, 4, []), (0, 4, [])])
    def test_the_pool_starts_no_more_workers_than_instances(self, monkeypatch, count, threads, started):
        # the stand-in executor runs the tasks inline, so no process starts
        asked = []

        class Inline:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Inline)
        corpus = [(f"r{s}", gnp(6, 0.45, seed=s)) for s in range(count)]
        records = run_batch(corpus, "vcsolver", threads=threads)
        assert asked == started
        assert render_report(records) == render_report(run_batch(corpus, "vcsolver"))

    def test_importing_the_package_loads_no_process_pool(self):
        # the pool's modules are imported only by a run with threads > 1
        src = str(Path(mmfvs.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        script = (
            "import sys, mmfvs, mmfvs.batch, mmfvs.cli\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & sys.modules.keys()))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestReports:
    def test_reports_are_byte_identical_across_runs(self):
        corpus = [(f"r{s}", gnp(7, 0.4, seed=s)) for s in range(5)]
        first = render_report(run_batch(corpus, "ksolver", {"k": 2}))
        second = render_report(run_batch(corpus, "ksolver", {"k": 2}))
        assert first.encode() == second.encode()

    def test_timings_flag_adds_wall_time(self):
        corpus = [("a", generate("cycle", {"n": 5}))]
        records = run_batch(corpus, "vcsolver")
        assert "wall_time" not in render_report(records)
        assert "wall_time" in render_report(records, include_timings=True)

    def test_summary_mentions_every_instance(self):
        corpus = [("one", gnp(6, 0.3, seed=1)), ("two", gnp(6, 0.3, seed=2))]
        table = summarize(run_batch(corpus, "bruteforce"))
        assert "one" in table and "two" in table
        assert "2/2 instances completed" in table
