"""Tests for the repro-monitor command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.reporting import ascii_bar_chart, format_table
from repro.cli import build_parser, main
from repro.telemetry.dataset import DatasetConfig, FleetDataset


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_survey_defaults(self):
        args = build_parser().parse_args(["survey"])
        assert args.command == "survey"
        assert args.pairs == 280
        assert args.limit_per_metric is None

    def test_adaptive_metric_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adaptive", "--metric", "NotAMetric"])


class TestSurveyCommand:
    def test_survey_runs_and_writes_csvs(self, tmp_path, capsys):
        exit_code = main(["survey", "--pairs", "28", "--seed", "3",
                          "--csv-dir", str(tmp_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "Headline statistics" in output
        assert (tmp_path / "figure1_oversampled_fraction.csv").exists()
        assert (tmp_path / "figure4_reduction_ratios.csv").exists()
        assert (tmp_path / "figure5_nyquist_rates.csv").exists()

    def test_survey_backends_agree(self, capsys, survey_oracle):
        """The CLI's figures and headline match the per-trace reference estimator."""
        assert main(["survey", "--pairs", "28", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        reference = survey_oracle(FleetDataset(DatasetConfig(pair_count=28, seed=3)))
        assert ascii_bar_chart(reference.oversampled_fraction_by_metric(),
                               maximum=1.0) in output
        assert format_table([{"statistic": key, "value": value}
                             for key, value in reference.headline().items()]) in output

    def test_survey_limit_per_metric(self, capsys):
        assert main(["survey", "--pairs", "84", "--limit-per-metric", "1"]) == 0
        output = capsys.readouterr().out
        assert "Surveyed 14 metric-device pairs" in output

    def test_survey_spill_dir(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        assert main(["survey", "--pairs", "28", "--seed", "3", "--chunk-size", "4",
                     "--spill-dir", str(spool)]) == 0
        output = capsys.readouterr().out
        assert "spilled" in output
        assert list(spool.glob("records-*.rcb"))

    def test_survey_spill_dir_with_npz_files_fails_cleanly(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "records-00000.npz").write_bytes(b"")
        assert main(["survey", "--pairs", "28", "--seed", "3",
                     "--spill-dir", str(spool)]) == 1
        assert "npz spill is no longer read" in capsys.readouterr().err

    def test_survey_workers_match_single_process(self, capsys):
        assert main(["survey", "--pairs", "28", "--seed", "3", "--workers", "1"]) == 0
        single_output = capsys.readouterr().out
        assert main(["survey", "--pairs", "28", "--seed", "3", "--workers", "2"]) == 0
        pooled_output = capsys.readouterr().out
        assert single_output == pooled_output

    def test_survey_rejects_bad_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["survey", "--workers", "0"])


POLICY_DEMO_ARGS = ["policies", "--leaves", "2", "--servers-per-leaf", "1",
                    "--duration-hours", "6", "--adaptive-window-hours", "2"]


class TestPoliciesCommand:
    @staticmethod
    def parse_relative(output: str) -> dict[str, float]:
        relative = {}
        lines = output.splitlines()
        start = next(i for i, line in enumerate(lines) if "relative to" in line)
        for line in lines[start + 1:]:
            parts = line.split()
            if len(parts) == 2 and parts[1].endswith("x"):
                relative[parts[0]] = float(parts[1][:-1])
        return relative

    def test_policies_demo_reproduces_cost_ordering(self, capsys):
        """Acceptance: the demo deployment reproduces the paper's relative
        cost ordering fixed > Nyquist-static > adaptive."""
        assert main(POLICY_DEMO_ARGS) == 0
        output = capsys.readouterr().out
        assert "Cost vs quality per policy" in output
        relative = self.parse_relative(output)
        assert relative["fixed"] == 1.0
        assert relative["nyquist-static"] < 1.0
        assert relative["adaptive-dual-rate"] < relative["nyquist-static"]

    def test_policies_workers_match_single_process(self, capsys):
        assert main([*POLICY_DEMO_ARGS, "--workers", "1"]) == 0
        single_output = capsys.readouterr().out
        assert main([*POLICY_DEMO_ARGS, "--workers", "2"]) == 0
        pooled_output = capsys.readouterr().out
        assert single_output == pooled_output

    def test_policies_spill_dir(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        assert main([*POLICY_DEMO_ARGS, "--metrics", "Temperature", "Link util",
                     "--chunk-size", "2", "--spill-dir", str(spool)]) == 0
        assert "spilled" in capsys.readouterr().out
        assert list(spool.glob("records-*.rcb"))

    def test_policies_csv_dir(self, tmp_path, capsys):
        assert main([*POLICY_DEMO_ARGS, "--metrics", "Temperature",
                     "--csv-dir", str(tmp_path)]) == 0
        assert (tmp_path / "policy_cost_quality.csv").exists()

    def test_policies_from_dir(self, tmp_path, capsys):
        fleet_dir = tmp_path / "fleet"
        assert main(["export-fleet", str(fleet_dir), "--pairs", "14", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["policies", "--from-dir", str(fleet_dir), "--workers", "2",
                     "--adaptive-window-hours", "4"]) == 0
        output = capsys.readouterr().out
        assert "measured fleet" in output
        relative = self.parse_relative(output)
        assert relative["fixed"] == 1.0
        assert relative["nyquist-static"] < 1.0

    def test_policies_from_missing_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["policies", "--from-dir", str(tmp_path / "nope")]) == 1
        assert "manifest.json" in capsys.readouterr().err

    def test_policies_bad_parameters_fail_cleanly(self, capsys):
        """Regression: bad --oversample/--adaptive-window-hours used to
        escape as raw tracebacks (spec built outside the error handler)."""
        assert main(["policies", "--oversample", "0.5"]) == 1
        assert "oversample" in capsys.readouterr().err
        assert main([*POLICY_DEMO_ARGS[:-1], "0"]) == 1  # window hours 0
        assert "adaptive_window" in capsys.readouterr().err

    def test_policies_unknown_metric_fails_cleanly(self, capsys):
        """Regression: a misspelled --metrics name used to run an empty
        survey and then blame a missing policy."""
        assert main([*POLICY_DEMO_ARGS, "--metrics", "Link utilization"]) == 1
        err = capsys.readouterr().err
        assert "unknown metrics" in err
        assert "Link utilization" in err

    def test_policies_empty_metrics_fails_cleanly(self, capsys):
        """Regression: a bare --metrics (empty list) slipped past the
        unknown-name validation and ran an empty survey."""
        assert main([*POLICY_DEMO_ARGS, "--metrics"]) == 1
        assert "at least one name" in capsys.readouterr().err


class TestExportFleetCommand:
    def test_export_then_survey_from_dir_matches_synthetic(self, tmp_path, capsys):
        """The measured round trip: survey --from-dir on an exported fleet
        prints exactly the figures of the in-memory survey."""
        assert main(["survey", "--pairs", "28", "--seed", "3"]) == 0
        synthetic_output = capsys.readouterr().out

        fleet_dir = tmp_path / "fleet"
        assert main(["export-fleet", str(fleet_dir), "--pairs", "28", "--seed", "3"]) == 0
        export_output = capsys.readouterr().out
        assert "Exported 28 metric-device pairs" in export_output
        assert (fleet_dir / "manifest.json").exists()
        assert len(list((fleet_dir / "traces").glob("pair-*.rcb"))) == 28

        assert main(["survey", "--from-dir", str(fleet_dir), "--workers", "2"]) == 0
        measured_output = capsys.readouterr().out
        assert "Surveying measured fleet" in measured_output
        # Everything below the measured banner equals the synthetic report.
        assert measured_output.split("\n", 2)[2] == synthetic_output

    def test_export_fleet_csv_traces(self, tmp_path, capsys):
        fleet_dir = tmp_path / "fleet"
        assert main(["export-fleet", str(fleet_dir), "--pairs", "14",
                     "--trace-format", "csv"]) == 0
        assert len(list((fleet_dir / "traces").glob("pair-*.csv"))) == 14

    def test_export_fleet_refuses_existing_directory(self, tmp_path, capsys):
        fleet_dir = tmp_path / "fleet"
        assert main(["export-fleet", str(fleet_dir), "--pairs", "14"]) == 0
        capsys.readouterr()
        assert main(["export-fleet", str(fleet_dir), "--pairs", "14"]) == 1
        assert "already holds" in capsys.readouterr().err

    def test_survey_from_missing_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["survey", "--from-dir", str(tmp_path / "nope")]) == 1
        assert "manifest.json" in capsys.readouterr().err

    def test_survey_from_dir_with_corrupt_trace_fails_cleanly(self, tmp_path, capsys):
        """A corrupt trace file surfacing mid-survey (even from a worker
        process) must report 'error: ...' + exit 1, not a traceback."""
        fleet_dir = tmp_path / "fleet"
        assert main(["export-fleet", str(fleet_dir), "--pairs", "14"]) == 0
        capsys.readouterr()
        next((fleet_dir / "traces").glob("pair-*.rcb")).write_bytes(b"garbage")
        assert main(["survey", "--from-dir", str(fleet_dir), "--workers", "2"]) == 1
        assert "corrupt or truncated trace file" in capsys.readouterr().err


class TestWindowedCommand:
    def test_windowed_runs(self, capsys):
        exit_code = main(["windowed", "--pairs", "28", "--seed", "3",
                          "--limit-per-metric", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Windowed sweep over 14 metric-device pairs" in output
        assert "dynamic_range" in output

    def test_windowed_defaults_match_figure7(self):
        args = build_parser().parse_args(["windowed"])
        assert args.window_hours == 6.0
        assert args.step_minutes == 5.0


class TestAdaptiveCommand:
    def test_adaptive_runs(self, capsys):
        exit_code = main(["adaptive", "--metric", "Temperature", "--days", "1",
                          "--window-hours", "6", "--seed", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Adaptive controller collected" in output
        assert "Nyquist round trip" in output


class TestEstimateCommand:
    def test_estimate_from_csv(self, tmp_path, capsys):
        # A 0.01 Hz tone sampled every 5 s for an hour.
        times = np.arange(0, 3600.0, 5.0)
        values = 10.0 + 3.0 * np.sin(2 * np.pi * 0.01 * times)
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,value\n" +
                        "\n".join(f"{t},{v}" for t, v in zip(times, values)))
        exit_code = main(["estimate", str(path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "nyquist rate" in output
        assert "reduction ratio" in output

    def test_estimate_rejects_tiny_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("timestamp,value\n0,1\n")
        assert main(["estimate", str(path)]) == 1

    def test_estimate_missing_column_fails_cleanly(self, tmp_path, capsys):
        """Regression: a row without a value column used to raise IndexError."""
        path = tmp_path / "short_row.csv"
        path.write_text("timestamp,value\n0,1.0\n5\n10,2.0\n")
        assert main(["estimate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err
        assert "two columns" in err

    def test_estimate_non_numeric_value_fails_cleanly(self, tmp_path, capsys):
        """Regression: a non-numeric value used to raise a raw ValueError."""
        path = tmp_path / "bad_value.csv"
        path.write_text("timestamp,value\n0,1.0\n5,oops\n")
        assert main(["estimate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err
        assert "numeric" in err

    def test_estimate_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["estimate", str(tmp_path / "nope.csv")]) == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("timestamp, value", [
        ("60", "nan"), ("60", "inf"), ("60", "-inf"), ("nan", "1.5"), ("inf", "1.5"),
    ])
    def test_estimate_rejects_non_finite_rows(self, tmp_path, capsys, timestamp, value):
        """Regression: a nan or inf sample used to come back as a reliable
        bottom-bin rate ("reduction ratio: 20.5x")."""
        rows = [f"{60 * i},{np.sin(0.3 * i):.6f}" for i in range(41)]
        rows[1] = f"{timestamp},{value}"
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,value\n" + "\n".join(rows) + "\n")
        assert main(["estimate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}, line 3: ")
        assert "finite" in captured.err
        assert "reduction ratio" not in captured.out


class TestErrorContract:
    """Every command reports a bad parameter as one ``error:`` line, exit 1."""

    @pytest.mark.parametrize("argv, message", [
        (["survey", "--pairs", "0"], "pair_count"),
        (["export-fleet", "{tmp}/fleet", "--pairs", "0"], "pair_count"),
        (["windowed", "--window-hours", "0"], "positive"),
        (["windowed", "--step-minutes", "0"], "positive"),
        (["adaptive", "--days", "0"], "positive"),
    ], ids=["survey-pairs", "export-fleet-pairs", "windowed-window", "windowed-step",
            "adaptive-days"])
    def test_bad_parameter_is_one_error_line(self, tmp_path, capsys, argv, message):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert err.count("\n") == 1

    def test_closed_stdout_exits_quietly(self):
        # The reader of a pipe leaves before the command prints (the end
        # of ``repro-monitor survey | head -1``): exit 1, no traceback.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", "survey", "--pairs", "56"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                timeout=120)
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == ""
