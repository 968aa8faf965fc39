import json

import pytest

from mmfvs.cli import main
from mmfvs.instances import parse_instance, write_instance

from helpers import apex_pair, cycle, disjoint_triangles


def write_apex(tmp_path, n=6):
    path = tmp_path / "apex.mmfvs"
    path.write_text(write_instance(apex_pair(n)))
    return path


class TestSolve:
    def test_vcsolver_yes_and_solution_file(self, tmp_path, capsys):
        instance = write_apex(tmp_path)
        out = tmp_path / "solution.txt"
        code = main(["solve", str(instance), "--algo", "vcsolver", "--output", str(out)])
        assert code == 0
        assert "yes size=4" in capsys.readouterr().out
        ids = [int(line) for line in out.read_text().split()]
        assert sorted(ids) == [3, 4, 5, 6]  # the four covered vertices, 1-indexed

    def test_ksolver_no(self, tmp_path, capsys):
        instance = write_apex(tmp_path)
        code = main(["solve", str(instance), "--algo", "ksolver", "--k", "5"])
        assert code == 1
        assert "no" in capsys.readouterr().out

    def test_ksolver_requires_k(self, tmp_path, capsys):
        instance = write_apex(tmp_path)
        assert main(["solve", str(instance), "--algo", "ksolver"]) == 2
        assert "ksolver needs --k" in capsys.readouterr().err

    def test_an_alarm_at_once_is_a_timeout_error(self, tmp_path, capsys):
        instance = write_apex(tmp_path)
        assert main(["solve", str(instance), "--algo", "vcsolver", "--timeout", "1e-9"]) == 2
        assert "error: timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("seconds", ["0", "-1"])
    def test_a_non_positive_timeout_is_refused(self, tmp_path, capsys, seconds):
        instance = write_apex(tmp_path)
        with pytest.raises(SystemExit) as refused:
            main(["solve", str(instance), "--algo", "vcsolver", "--timeout", seconds])
        assert refused.value.code == 2
        assert "positive number of seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("seconds", ["inf", "nan", "1e12", "1000000001"])
    def test_a_timeout_past_the_timer_range_is_refused(self, tmp_path, capsys, seconds):
        # setitimer overflows time_t from about 1e10 s, so 1e9 s is the most allowed
        instance = write_apex(tmp_path)
        with pytest.raises(SystemExit) as refused:
            main(["solve", str(instance), "--algo", "vcsolver", "--timeout", seconds])
        assert refused.value.code == 2
        assert "positive number of seconds up to 1e+09" in capsys.readouterr().err

    def test_the_largest_timeout_solves(self, tmp_path, capsys):
        instance = write_apex(tmp_path)
        assert main(["solve", str(instance), "--algo", "vcsolver", "--timeout", "1e9"]) == 0
        assert "yes size=4" in capsys.readouterr().out

    def test_malformed_instance(self, tmp_path, capsys):
        bad = tmp_path / "bad.mmfvs"
        bad.write_text("p mmfvs 2 1\ne 1 1\n")
        assert main(["solve", str(bad), "--algo", "vcsolver"]) == 2


class TestVerify:
    def test_good_solution(self, tmp_path, capsys):
        instance = write_apex(tmp_path)
        sol = tmp_path / "sol.txt"
        sol.write_text("3\n4\n5\n6\n")
        assert main(["verify", str(instance), str(sol)]) == 0
        assert "verified" in capsys.readouterr().out

    def test_non_minimal_solution(self, tmp_path, capsys):
        instance = write_apex(tmp_path)
        sol = tmp_path / "sol.txt"
        sol.write_text("1\n3\n")  # hub plus a covered vertex: fvs, not minimal
        assert main(["verify", str(instance), str(sol)]) == 1
        assert "not minimal" in capsys.readouterr().out

    def test_not_an_fvs(self, tmp_path, capsys):
        instance = tmp_path / "tri.mmfvs"
        instance.write_text(write_instance(disjoint_triangles(2)))
        sol = tmp_path / "sol.txt"
        sol.write_text("1\n")
        assert main(["verify", str(instance), str(sol)]) == 1
        assert "not an fvs" in capsys.readouterr().out


class TestGen:
    def test_gen_solve_round_trip(self, tmp_path, capsys):
        out = tmp_path / "gen.mmfvs"
        code = main([
            "gen", "--family", "gnp", "--params", "n=8", "p=0.4",
            "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        g = parse_instance(out.read_text())
        assert len(g) == 8
        again = tmp_path / "gen2.mmfvs"
        main(["gen", "--family", "gnp", "--params", "n=8", "p=0.4", "--seed", "3",
              "--output", str(again)])
        assert out.read_text() == again.read_text()

    def test_gen_apexpair_stdout(self, capsys):
        assert main(["gen", "--family", "apexpair", "--params", "n=7"]) == 0
        g = parse_instance(capsys.readouterr().out)
        assert g == apex_pair(7)

    def test_gen_takes_a_lone_cycle_size(self, capsys):
        # the parser reads "sizes=5" as the int 5, one cycle of five
        assert main(["gen", "--family", "disjoint-cycles", "--params", "sizes=5"]) == 0
        assert parse_instance(capsys.readouterr().out) == cycle(5)

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("gnp", ["n=10"], "error: gnp: parameter p is missing"),
            ("gnp", ["n=2.5", "p=0.3"], "error: gnp: parameter n must be a non-negative integer, got 2.5"),
            ("gnp", ["n=-3", "p=0.3"], "error: gnp: parameter n must be a non-negative integer, got -3"),
            ("gnp", ["n=10", "p=nan"], "error: gnp: parameter p must be a number in [0, 1], got nan"),
            ("reduction-output", ["n=4", "p=2"], "error: reduction-output: parameter p must be a number in [0, 1], got 2"),
            ("disjoint-cycles", ["sizes=3.5"], "error: disjoint-cycles: parameter sizes must be integers >= 3, got 3.5"),
            ("disjoint-cycles", ["sizes=3=4"], "error: disjoint-cycles: parameter sizes must be integers >= 3, got '3=4'"),
            ("disjoint-cycles", ["sizes=x"], "error: disjoint-cycles: parameter sizes must be integers >= 3, got 'x'"),
            ("disjoint-cycles", ["sizes=3,2"], "error: disjoint-cycles: parameter sizes must be integers >= 3, got '3,2'"),
        ],
    )
    def test_gen_refuses_bad_parameters(self, capsys, family, params, message):
        assert main(["gen", "--family", family, "--params", *params]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""


class TestReducePpt:
    def test_emits_tagged_instance(self, tmp_path, capsys):
        instance = tmp_path / "p3.mmfvs"
        instance.write_text("p mmfvs 3 2\ne 1 2\ne 2 3\n")
        out = tmp_path / "ppt.mmfvs"
        assert main(["reduce-ppt", str(instance), "--k", "2", "--output", str(out)]) == 0
        text = out.read_text()
        assert "kprime=7" in text
        assert "apex 4" in text
        g = parse_instance(text)
        assert len(g) == 11


class TestBench:
    def test_bench_report_and_summary(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for n in (6, 7):
            (corpus / f"apex{n}.mmfvs").write_text(write_instance(apex_pair(n)))
        report = tmp_path / "report.jsonl"
        code = main([
            "bench", "--corpus", str(corpus), "--algo", "vcsolver",
            "--report", str(report),
        ])
        assert code == 0
        lines = [json.loads(line) for line in report.read_text().splitlines()]
        assert [r["instance"] for r in lines] == ["apex6.mmfvs", "apex7.mmfvs"]
        assert [r["size"] for r in lines] == [4, 5]
        assert all("wall_time" not in r for r in lines)
        assert "2/2 instances completed" in capsys.readouterr().out

    def test_bench_is_reproducible(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.mmfvs").write_text(write_instance(apex_pair(6)))
        r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        main(["bench", "--corpus", str(corpus), "--algo", "ksolver", "--k", "3",
              "--report", str(r1)])
        main(["bench", "--corpus", str(corpus), "--algo", "ksolver", "--k", "3",
              "--report", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_missing_algorithm_parameter_stops_before_any_instance(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.mmfvs").write_text(write_instance(apex_pair(6)))
        report = tmp_path / "report.jsonl"
        for algo, flag in (("ksolver", "--k"), ("approx", "--epsilon"), ("ppt-check", "--k")):
            code = main(["bench", "--corpus", str(corpus), "--algo", algo, "--report", str(report)])
            assert code == 2, algo
            assert f"{algo} needs {flag}" in capsys.readouterr().err
            assert not report.exists(), algo

    def test_empty_corpus_errors(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        assert main(["bench", "--corpus", str(corpus), "--algo", "vcsolver"]) == 2
