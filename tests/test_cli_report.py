"""Unit tests for the CLI and the report writers."""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.experiments.report import sweep_to_csv, sweep_to_markdown
from repro.experiments.sweep import SweepPoint, SweepResult


def tiny_sweep() -> SweepResult:
    points = (
        SweepPoint(x=0.1, ratios={"mbt": (0.5, 0.4), "mbt-q": (0.3, 0.2)}),
        SweepPoint(x=0.9, ratios={"mbt": (0.9, 0.8), "mbt-q": (0.6, 0.5)}),
    )
    return SweepResult(
        name="demo panel",
        x_label="access",
        x_values=(0.1, 0.9),
        points=points,
        protocols=("mbt", "mbt-q"),
    )


class TestReport:
    def test_csv_has_header_and_rows(self):
        text = sweep_to_csv(tiny_sweep())
        lines = text.strip().splitlines()
        assert lines[0] == "access,mbt_metadata,mbt_file,mbt-q_metadata,mbt-q_file"
        assert len(lines) == 3
        assert lines[1].startswith("0.1,0.5")

    def test_markdown_table(self):
        text = sweep_to_markdown(tiny_sweep())
        assert text.startswith("### demo panel")
        assert "| access | mbt meta | mbt file | mbt-q meta | mbt-q file |" in text
        assert "| 0.9 | 0.900 | 0.800 | 0.600 | 0.500 |" in text


#: Bad outside input per command: ``{good}`` is a valid trace file,
#: ``{bad}`` a malformed one and ``{missing}`` a path that does not exist
#: (so ``{missing}/out.trace`` cannot be written).
BAD_INPUT = {
    "stats-missing-file": ["stats", "{missing}"],
    "stats-malformed-file": ["stats", "{bad}"],
    "stats-zero-gap": ["stats", "{good}", "--frequent-gap-days", "0"],
    "stats-negative-gap": ["stats", "{good}", "--frequent-gap-days", "-1"],
    "capacity-max-n-1": ["capacity", "--max-n", "1"],
    "trace-unwritable-out": ["trace", "--out", "{missing}/out.trace"],
    "run-access-above-1": ["run", "--access", "1.5"],
    "run-negative-budget": ["run", "--metadata-per-contact", "-1"],
}


class TestCLI:
    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_bad_input_is_a_one_line_usage_error(self, case, tmp_path, capsys):
        paths = {
            "good": tmp_path / "good.trace",
            "bad": tmp_path / "bad.trace",
            "missing": tmp_path / "missing.trace",
        }
        paths["good"].write_text("0.0 10.0 0 1\n100.0 110.0 1 2\n", encoding="utf-8")
        paths["bad"].write_text("not a contact line\n", encoding="utf-8")
        argv = [arg.format(**paths) for arg in BAD_INPUT[case]]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(f"repro {argv[0]}: error: "), err
        assert "Traceback" not in err

    def test_capacity_command(self, capsys):
        assert cli_main(["capacity", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "broadcast" in out
        assert "3" in out

    def test_trace_command_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "t.trace"
        assert cli_main(
            ["trace", "--kind", "nus", "--seed", "1", "--out", str(out_path)]
        ) == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "nodes" in out

    def test_stats_command(self, tmp_path, capsys):
        out_path = tmp_path / "t.trace"
        cli_main(["trace", "--kind", "dieselnet", "--out", str(out_path)])
        capsys.readouterr()
        assert cli_main(["stats", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "frequent pairs" in out

    def test_run_command_single_protocol(self, capsys):
        code = cli_main(
            [
                "run", "--trace", "dieselnet", "--protocol", "mbt",
                "--files-per-day", "10", "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mbt" in out
        assert "protocol" in out

    def test_sweep_single_panel_csv(self, capsys):
        assert cli_main(["sweep", "fig3f", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "attendance" in out
        assert "mbt_file" in out

    def test_sweep_plot_format(self, capsys):
        assert cli_main(["sweep", "fig3f", "--format", "plot"]) == 0
        out = capsys.readouterr().out
        assert "file delivery ratio" in out
        assert "|" in out

    def test_figures_requires_panel(self, capsys):
        assert cli_main(["figures"]) == 2

    def test_figures_rejects_unknown_panel(self):
        with pytest.raises(SystemExit):
            cli_main(["figures", "fig9z"])
