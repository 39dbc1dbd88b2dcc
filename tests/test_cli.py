"""Unit tests for the command-line interface and the full-report generator."""

import json
import sys
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.faults.plan import ALL_FEEDS
from repro.pipeline.config import ScenarioConfig
from repro.pipeline.fullreport import REPORT_ORDER, generate_full_report
from repro.pipeline.runner import STAGE_ORDER

#: ``--help`` of the parser and of every subcommand at 80 columns.
HELP_GOLDEN = Path(__file__).with_name("cli_help.json")


def _commands(parser):
    return next(a for a in parser._actions if a.dest == "command").choices


def _option(parser, flag):
    return next(a for a in parser._actions if flag in a.option_strings)


class TestParserParity:
    def test_help_is_byte_identical_to_golden(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        parser = _build_parser()
        helps = {"": parser.format_help()}
        helps.update(
            (name, sub.format_help())
            for name, sub in _commands(parser).items()
        )
        if sys.version_info < (3, 10):
            # argparse titled the section "optional arguments" before 3.10.
            helps = {
                name: text.replace("optional arguments:", "options:")
                for name, text in helps.items()
            }
        golden = json.loads(HELP_GOLDEN.read_text(encoding="utf-8"))
        assert sorted(helps) == sorted(golden)
        for name in golden:
            assert helps[name] == golden[name], name

    def test_choices_are_the_runtime_definitions(self):
        parser = _build_parser()
        commands = _commands(parser)
        presets = sorted(
            name for name, value in vars(ScenarioConfig).items()
            if isinstance(value, classmethod)
        )
        assert _option(parser, "--preset").choices == presets
        for name in presets:
            assert isinstance(getattr(ScenarioConfig, name)(), ScenarioConfig)
        crash_after = _option(commands["simulate"], "--crash-after")
        assert tuple(crash_after.choices) == STAGE_ORDER
        feed = _option(commands["robustness"], "--feed")
        assert feed.choices == sorted(ALL_FEEDS) + ["all"]
        only = _option(commands["report"], "--only")
        assert only.help == (
            f"subset of artifacts (ids: {', '.join(REPORT_ORDER)})"
        )


class TestFullReport:
    def test_all_artifacts_present(self, sim):
        report = generate_full_report(sim)
        assert set(REPORT_ORDER) <= set(report)
        for name in REPORT_ORDER:
            assert isinstance(report[name], str)
            assert report[name].strip()

    def test_tables_carry_titles(self, sim):
        report = generate_full_report(sim)
        assert "Table 1" in report["table1"]
        assert "Table 9" in report["table9"]
        assert "taxonomy" in report["fig8"]
        assert "Section 8" in report["extensions"]


class TestCLI:
    def test_headline(self, capsys):
        assert main(["--preset", "small", "headline"]) == 0
        out = capsys.readouterr().out
        assert "active /24s attacked" in out
        assert "paper: 64%" in out

    def test_simulate_with_save(self, tmp_path, capsys):
        events_file = tmp_path / "events.jsonl"
        code = main(
            ["--preset", "small", "simulate", "--save-events",
             str(events_file)]
        )
        assert code == 0
        assert events_file.exists()
        assert "Table 1" in capsys.readouterr().out

    def test_report_subset_to_dir(self, tmp_path, capsys):
        code = main(
            ["--preset", "small", "report", "--out-dir", str(tmp_path),
             "--only", "table1", "fig8"]
        )
        assert code == 0
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "fig8.txt").exists()
        assert not (tmp_path / "table5.txt").exists()

    def test_report_unknown_artifact(self, capsys):
        code = main(
            ["--preset", "small", "report", "--only", "tableX"]
        )
        assert code == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_seed_changes_results(self, capsys):
        main(["--preset", "small", "--seed", "1", "headline"])
        first = capsys.readouterr().out
        main(["--preset", "small", "--seed", "2", "headline"])
        second = capsys.readouterr().out
        assert first != second

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["--preset", "small", "frobnicate"])

    def test_robustness_single_feed(self, capsys):
        code = main(
            ["--preset", "small", "robustness", "--feed", "telescope"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free baseline" in out
        assert "feed forced down: telescope" in out
        assert "Data quality report" in out
        assert "uptime" in out
        assert "headline-ratio drift vs. fault-free baseline" in out
        # The downed feed is flagged, the others stay healthy.
        assert "telescope  down" in out

    def test_robustness_standard_plan(self, capsys):
        code = main(
            ["--preset", "small", "robustness", "--plan", "standard",
             "--fault-seed", "11"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "standard mixed fault plan" in out
        assert "fault plan (seed=11" in out
