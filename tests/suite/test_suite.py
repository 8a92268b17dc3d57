"""Tests for the suite harness: rendering, results, runner, experiments."""

import pytest

from repro.suite import experiments
from repro.suite.figures import render_ascii_chart, series_to_csv
from repro.suite.results import Experiment, ShapeCheck
from repro.suite.runner import render_experiment, run_suite
from repro.suite.tables import format_cell, render_table


class TestTables:
    def test_render_basic(self):
        out = render_table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_title(self):
        out = render_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_cell_formatting(self):
        assert format_cell(True) == "yes"
        assert format_cell(2.5) == "2.50"
        assert format_cell(1234.5) == "1,234.5"
        assert format_cell(0.0001) == "1.000e-04"
        assert format_cell("text") == "text"
        assert format_cell(0.0) == "0"

    def test_validation(self):
        with pytest.raises(ValueError):
            render_table([], [])
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])


class TestFigures:
    def test_chart_renders_all_series(self):
        out = render_ascii_chart(
            {"A": [(1, 10), (100, 50)], "B": [(1, 5), (100, 100)]},
            width=40, height=10,
        )
        assert "*" in out and "o" in out
        assert "legend" in out

    def test_log_axis_validation(self):
        with pytest.raises(ValueError):
            render_ascii_chart({"A": [(0, 1), (1, 2)]}, log_x=True)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            render_ascii_chart({"A": [(1, 1)]}, width=2)
        with pytest.raises(ValueError):
            render_ascii_chart({})
        with pytest.raises(ValueError):
            render_ascii_chart({"A": []})

    def test_csv_export(self):
        csv = series_to_csv({"A": [(1, 2.5)], "B": [(3, 4)]})
        lines = csv.splitlines()
        assert lines[0] == "series,x,y"
        assert "A,1,2.5" in lines
        assert "B,3,4" in lines
        with pytest.raises(ValueError):
            series_to_csv({})


class TestResults:
    def test_experiment_verdicts(self):
        exp = Experiment(exp_id="x", title="t")
        exp.check("ok", True)
        assert exp.passed
        exp.check("bad", False, detail="why")
        assert not exp.passed
        assert len(exp.failures) == 1
        assert "FAIL" in str(exp.failures[0])

    def test_summary_line(self):
        exp = Experiment(exp_id="x", title="t")
        exp.check("ok", True)
        assert "OK" in exp.summary_line()
        assert "[1/1" in exp.summary_line()

    def test_shape_check_str(self):
        assert str(ShapeCheck("d", True)) == "[PASS] d"
        assert str(ShapeCheck("d", False, "why")) == "[FAIL] d (why)"


class TestRunner:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_suite(["nonsense"])

    def test_single_experiment_run(self):
        report = run_suite(["table2"])
        assert len(report.experiments) == 1
        assert report.experiments[0].exp_id == "table2"
        assert report.passed

    def test_render_experiment_contains_checks(self):
        report = run_suite(["table2"])
        text = render_experiment(report.experiments[0])
        assert "[PASS]" in text
        assert "Clock Rate" in text

    def test_registry_covers_every_table_and_figure(self):
        """The deliverable: every table AND figure has a regenerator."""
        ids = set(experiments.EXPERIMENTS)
        for n in range(1, 8):
            assert f"table{n}" in ids, f"table{n} missing"
        for n in range(5, 9):
            assert f"figure{n}" in ids, f"figure{n} missing"
        # Plus the untabulated headline results.
        assert {"sec4.1", "sec4.4", "sec4.5", "sec4.6", "sec4.7.3"} <= ids


class TestFastExperiments:
    """Each cheap experiment passes its own shape checks.

    (The full suite runs in ``test_repo_consistency.py``'s headline-count
    test and in the golden archives; here we run the quick ones.)
    """

    @pytest.mark.parametrize("exp_id", ["table1", "table2", "table3", "table4",
                                        "sec4.1", "sec4.4", "sec4.7.3"])
    def test_experiment_passes(self, exp_id):
        exp = experiments.EXPERIMENTS[exp_id]()
        assert exp.passed, [str(c) for c in exp.failures]

    def test_table1_paper_order(self):
        exp = experiments.table1_hint_vs_radabs()
        assert exp.headers == ["Benchmark", "SUN SPARC20", "IBM RS6K 590",
                               "CRI J90", "CRI YMP"]
        assert exp.rows[0][0] == "HINT (MQUIPS)"
        assert exp.rows[1][0] == "RADABS (MFLOPS)"

    def test_table4_rows_complete(self):
        exp = experiments.table4_resolutions()
        assert len(exp.rows) == 5


class TestSectionExperiments:
    """The Section 2 and Section 3 experiments (architecture claims and
    rejected comparison suites)."""

    def test_sec2_passes(self):
        exp = experiments.sec2_architecture()
        assert exp.passed, [str(c) for c in exp.failures]
        rows = {row[0]: row[1] for row in exp.rows}
        assert rows["IXS bisection, 16 nodes"] == "128 GB/s"

    def test_sec3_passes(self):
        exp = experiments.sec3_other_benchmarks()
        assert exp.passed, [str(c) for c in exp.failures]
        names = [str(row[0]) for row in exp.rows]
        assert any("LINPACK" in n for n in names)
        assert any("NAS EP" in n for n in names)
        assert any("STREAM" in n for n in names)

    def test_registry_includes_sections(self):
        assert "sec2" in experiments.EXPERIMENTS
        assert "sec3" in experiments.EXPERIMENTS
