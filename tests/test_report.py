import pytest

from mmfvs.report import SolveReport, certify

from helpers import cycle, path


class TestSolveReport:
    def test_no_solution_reads_no(self):
        report = SolveReport(None, 0.0)
        assert report.outcome == "no" and not report.is_yes
        assert (report.nodes_explored, report.reductions_fired, report.max_depth) == (0, {}, 0)
        assert report.extras == {}

    def test_a_solution_reads_yes(self):
        report = SolveReport(certify(cycle(4), frozenset({0}), "one vertex"), 0.0)
        assert report.outcome == "yes" and report.is_yes

    def test_the_empty_solution_reads_yes(self):
        # an empty Solution has length 0, yet it is an answer
        report = SolveReport(certify(path(3), frozenset(), "the empty set"), 0.0)
        assert len(report.solution) == 0
        assert report.outcome == "yes" and report.is_yes

    def test_outcome_cannot_be_set_apart_from_the_solution(self):
        report = SolveReport(None, 0.0)
        with pytest.raises(AttributeError):
            report.outcome = "yes"
        with pytest.raises(TypeError):
            SolveReport(None, 0.0, outcome="yes")
