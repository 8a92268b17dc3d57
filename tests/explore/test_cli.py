"""``python -m repro.explore``: determinism, formats, exit codes."""

import csv
import io
import json

import pytest

from repro.explore.cli import main, parse_axis_specs

SWEEP_ARGS = [
    "sweep",
    "--anchor", "sx4",
    "--axis", "clock.period_ns=6:12:3",
    "--values", "vector.pipes=4,8",
    "--traces", "hint,stream",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAxisParsing:
    def test_linear_spec(self):
        (axis,) = parse_axis_specs([("axis", "vector.pipes=4:16:4")])
        assert axis.parameter == "vector.pipes"
        assert axis.values == (4.0, 8.0, 12.0, 16.0)

    def test_log_spec(self):
        (axis,) = parse_axis_specs([("log-axis", "memory.banks=128:512:3")])
        assert axis.values == (128.0, 256.0, 512.0)

    def test_values_spec(self):
        (axis,) = parse_axis_specs([("values", "clock.period_ns=8,9.2")])
        assert axis.values == (8.0, 9.2)

    def test_order_preserved(self):
        axes = parse_axis_specs(
            [("values", "vector.pipes=4"), ("axis", "clock.period_ns=6:12:2")]
        )
        assert [a.parameter for a in axes] == ["vector.pipes", "clock.period_ns"]

    @pytest.mark.parametrize(
        "spec",
        [("axis", "vector.pipes"), ("axis", "vector.pipes=1:2"), ("axis", "=1:2:3"),
         ("axis", "vector.pipes=a:b:c"), ("values", "vector.pipes"),
         ("values", "vector.pipes=x")],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_axis_specs([spec])


class TestSweepCommand:
    def test_json_deterministic_across_runs(self, capsys):
        code1, out1, _ = run_cli(SWEEP_ARGS, capsys)
        code2, out2, _ = run_cli(SWEEP_ARGS, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_payload_shape(self, capsys):
        code, out, err = run_cli(SWEEP_ARGS, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "sweep"
        assert payload["n_machines"] == 6
        assert payload["trace_ids"] == ["hint", "stream"]
        machine = payload["machines"][0]
        assert set(machine["traces"]) == {"hint", "stream"}
        # three clocks x two pipe counts: two rows differ in more than the clock
        assert "6 machines (2 distinct) x 2 traces" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(SWEEP_ARGS + ["--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:2] == ["machine", "suite_seconds"]
        assert len(rows) == 1 + 6

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.json"
        code, out, _ = run_cli(SWEEP_ARGS + ["--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["n_machines"] == 6

    def test_payload_matches_library(self, capsys):
        from repro.explore import ParameterSweep, cost_suite_grid, linear_axis
        from repro.explore.sweep import explicit_axis

        _, out, _ = run_cli(SWEEP_ARGS, capsys)
        payload = json.loads(out)
        grid = ParameterSweep(
            "sx4",
            (linear_axis("clock.period_ns", 6, 12, 3),
             explicit_axis("vector.pipes", [4, 8])),
        ).build()
        result = cost_suite_grid(grid, trace_ids=("hint", "stream"))
        for i, machine in enumerate(payload["machines"]):
            assert machine["name"] == result.machine_names[i]
            assert machine["suite_mflops"] == result.suite_mflops[i]

    def test_store_round_trip(self, tmp_path, capsys):
        args = SWEEP_ARGS + ["--store", str(tmp_path), "--chunk-machines", "2"]
        _, cold, err_cold = run_cli(args, capsys)
        _, warm, err_warm = run_cli(args, capsys)
        assert cold == warm
        assert "misses" in err_cold and "hits" in err_warm


class TestParetoCommand:
    def test_json_and_csv_agree(self, capsys):
        args = ["pareto", "--axis", "clock.period_ns=6:12:4", "--include-presets",
                "--traces", "hint,stream"]
        code, out_json, _ = run_cli(args, capsys)
        assert code == 0
        payload = json.loads(out_json)
        code, out_csv, _ = run_cli(args + ["--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_csv)))
        assert len(rows) - 1 == payload["n_frontier"]
        assert [r[1] for r in rows[1:]] == [p["machine"] for p in payload["frontier"]]

    def test_deterministic(self, capsys):
        args = ["pareto", "--axis", "vector.pipes=2:16:5", "--traces", "hint"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestRanksCommand:
    def test_presets_always_embedded(self, capsys):
        args = ["ranks", "--axis", "clock.period_ns=6:12:3", "--traces",
                "hint,radabs"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        payload = json.loads(out)
        names = [m["name"] for m in payload["machines"]]
        assert "Cray Y-MP" in names
        assert payload["reference"] == "Cray Y-MP"
        assert payload["n_inverted"] == sum(m["inverted"] for m in payload["machines"])

    def test_custom_pair(self, capsys):
        args = ["ranks", "--trace-a", "linpack", "--trace-b", "ccm2",
                "--reference", "Cray J90", "--traces", "linpack,ccm2"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["trace_a"] == "linpack"
        assert payload["reference"] == "Cray J90"


class TestFailureModes:
    def test_unknown_parameter_exits_2(self, capsys):
        code, out, err = run_cli(["sweep", "--axis", "bogus=1:2:3"], capsys)
        assert code == 2
        assert out == ""
        assert "unknown sweep parameter" in err

    def test_unknown_trace_exits_2(self, capsys):
        code, _, err = run_cli(["sweep", "--traces", "nope"], capsys)
        assert code == 2
        assert "unknown trace ids" in err

    def test_vector_axis_on_cache_anchor_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--anchor", "sparc20", "--values", "vector.pipes=4",
             "--traces", "hint"],
            capsys,
        )
        assert code == 2
        assert "cache machine" in err

    @pytest.mark.parametrize("traces", ["hint", "stream"])
    @pytest.mark.parametrize("dilation", ["nan", "0.5"])
    def test_shrinking_dilation_exits_2(self, capsys, traces, dilation):
        # hint has no vector ops: the check cannot ride on the vector path.
        code, out, err = run_cli(
            ["sweep", "--axis", "clock.period_ns=4:16:2", "--traces", traces,
             "--dilation", dilation],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "cannot shrink" in err

    def test_unknown_reference_exits_2(self, capsys):
        code, _, err = run_cli(
            ["ranks", "--reference", "CDC 6600", "--traces", "hint,radabs"], capsys
        )
        assert code == 2
        assert "reference machine" in err
