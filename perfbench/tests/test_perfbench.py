"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``.

They use the default seed, whose reference files are committed, and short
runs of the cheap cover-vc workload.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import speed
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _main(capsys, *args: str) -> tuple[int, list[str], dict]:
    code = run.main(["--workload", "cover-vc", "--seed", "1", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _printed_with_units(lines: list[str], result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(capsys):
    code, lines, result = _main(capsys, "--seconds", "1", "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    _printed_with_units(lines, result, CONTRACT["end_to_end"])
    assert any(line.startswith("env ") and '"nproc"' in line and '"loadavg_end"' in line for line in lines)


def test_traced_run_prints_every_per_layer_metric_with_its_unit(capsys, monkeypatch):
    monkeypatch.setitem(workloads.TRACE_CALLS, "cover-vc", 20)
    code, lines, result = _main(capsys, "--trace", "1")
    assert code == 0 and result["correct"]
    _printed_with_units(lines, result, CONTRACT["per_layer"])
    assert result["metrics"]["batch.run_one.calls"]["value"] == 20


def test_counter_sections_repeat_for_one_seed(capsys, monkeypatch):
    monkeypatch.setitem(workloads.TRACE_CALLS, "cover-vc", 40)

    def counters() -> dict:
        _, _, result = _main(capsys, "--trace", "1")
        return {name: m["value"] for name, m in result["metrics"].items()
                if not name.endswith(".self_s") and name != "trace.overhead_ratio"}

    first, second = counters(), counters()
    assert first == second
    assert first["vcsolver.cover_guesses"] > 0 and first["approx.approx_solve.calls"] == 20


def test_injected_wrong_answer_fails_the_gate(capsys, monkeypatch):
    from mmfvs import batch

    real = batch.run_one

    def drop_one_vertex(*args, **kwargs):
        record = real(*args, **kwargs)
        if record.algorithm == "vcsolver" and record.size:
            record.size -= 1
            record.stats["solution"] = record.stats["solution"][1:]
        return record

    monkeypatch.setattr(batch, "run_one", drop_one_vertex)
    code, lines, result = _main(capsys, "--seconds", "0.5", "--trace", "0")
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert any(line.startswith("WRONG ") for line in lines)


def test_deadline_hits_count_as_failures_without_crashing(capsys, monkeypatch):
    monkeypatch.setitem(workloads.DEADLINES, "cover-vc", 0.002)
    code, lines, result = _main(capsys, "--seconds", "1", "--trace", "0")
    assert code == 0 and result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    share = result["metrics"]["success_share"]["value"]
    assert share == pytest.approx(1 - result["failed"] / result["attempted"])
    assert any("fail_share" in line for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_changes_the_instance_set(workload):
    one = workloads.specs(workload, 1)
    two = workloads.specs(workload, 2)
    assert workloads.fingerprint(one) != workloads.fingerprint(two)
    assert workloads.fingerprint(one) == workloads.fingerprint(workloads.specs(workload, 1))


def test_committed_references_match_their_corpus():
    for workload in workloads.WORKLOADS:
        doc = json.loads((BENCH / "refs" / f"{workload}-seed1.json").read_text())
        assert doc["fingerprint"] == workloads.fingerprint(workloads.specs(workload, 1))


def test_forest_growth_fvs_is_a_minimal_fvs():
    from mmfvs.instances import generate
    from mmfvs.verify import is_minimal_fvs
    from refs import forest_growth_fvs

    for seed in range(20):
        g = generate("gnp", {"n": 40, "p": 0.08}, seed)
        assert is_minimal_fvs(g, forest_growth_fvs(g)) is not None


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".*", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "cover-vc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tail_is_p90_from_100_calls_and_the_11th_largest_below():
    many = [run.Result(i, "ok", None, (i + 1) / 1000) for i in range(200)]
    values, details = run.end_to_end(many, 20.0, 5.0, 1.0)
    assert values["latency_tail_ms"] == pytest.approx(180.0)
    assert details["samples_beyond_tail"] == 20 and details["tail_percentile"] == 90.0
    assert values["latency_p50_ms"] == pytest.approx(100.5)
    some = [run.Result(i, "ok", None, (i + 1) / 1000) for i in range(50)]
    values, details = run.end_to_end(some, 5.0, 5.0, 1.0)
    assert values["latency_tail_ms"] == pytest.approx(40.0)
    assert details["samples_beyond_tail"] == 10
    few = [run.Result(i, "ok", None, (i + 1) / 1000) for i in range(9)]
    assert run.end_to_end(few, 1.0, 5.0, 1.0)[0]["latency_tail_ms"] == pytest.approx(9.0)


def test_latency_counts_each_call_of_the_list_once():
    # call 0 ran three times (median 1 ms), calls 1 and 2 once each
    results = [run.Result(0, "ok", None, x) for x in (0.001, 0.001, 0.5)]
    results += [run.Result(1, "ok", None, 0.002), run.Result(2, "ok", None, 0.003)]
    values, details = run.end_to_end(results, 1.0, 5.0, 1.0)
    assert details["samples"] == 3
    assert values["latency_p50_ms"] == pytest.approx(2.0)
    assert values["latency_tail_ms"] == pytest.approx(3.0)


def test_speed_scale_uses_the_probes_around_a_span():
    log = speed.SpeedLog()
    log.times = [0.0, 0.1, 0.2, 5.0, 5.1, 9.0]
    log.costs = [1.0, 1.0, 4.0, 2.0, 2.0, 8.0]
    ref = speed.REF_PROBE_S
    # probes within WINDOW_S of [0.15, 0.16]: 1, 1 and 4
    assert log.scale(0.15, 0.16) == pytest.approx(ref / 1.0)
    # none within the window of [3, 3.1]: the nearest on each side, 4 and 2
    assert log.scale(3.0, 3.1) == pytest.approx(ref / 3.0)
    value, spent = log.timed(speed.search_task)
    assert value == speed.search_task() and spent > 0


def test_a_slower_box_does_not_move_scaled_latency(monkeypatch):
    """A call and the probes around it slowed alike give the same figure."""
    figures = []
    for slowdown in (1.0, 3.0):
        monkeypatch.setattr(speed, "probe_cost", lambda s=slowdown: 0.002 * s)
        monkeypatch.setattr(run, "execute", lambda *a, s=slowdown: (time.sleep(0.02 * s), ("ok", None, None))[1])
        results, _ = run.run_calls([workloads.Call("g", "ksolver", {})] * 5, {"g": None}, 5.0, None)
        figures.append(statistics.median(r.latency for r in results))
        assert statistics.median(r.wall for r in results) > 0.02 * slowdown
    assert figures[1] == pytest.approx(figures[0], rel=0.3)


def test_a_failed_call_counts_as_missing_every_latency_limit():
    results = [run.Result(i, "ok", None, 0.001) for i in range(40)]
    results += [run.Result(40 + i, "timeout" if i % 2 else "wrong", None, 0.002) for i in range(60)]
    values, details = run.end_to_end(results, 1.0, 5.0, 1.0)
    assert values["success_share"] == pytest.approx(0.4) and details["fail_share"] == pytest.approx(0.6)
    assert values["latency_p50_ms"] == pytest.approx(5000.0)  # at the deadline, not 2 ms
