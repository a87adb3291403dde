"""Section 3.2 headline statistics: the numbers quoted in the paper's text.

Paper claims being reproduced:

* "In total, we studied 1613 metric and device pairs (14 distinct metrics)."
* "Of these, 89% were sampling at higher than their Nyquist rate."
* "the existing sampling rate is below the Nyquist rate ... in about 11% of
  the metric-device pairs."
* "in 20% of the examples the sampling rate can be reduced by a factor of 1000x."
* "for the temperature signal, the Nyquist rate ranges from 7.99e-7 Hz to 0.003 Hz."

The default bench surveys a smaller fleet (set REPRO_BENCH_PAIRS=1613 for
the full paper-scale run); the shape -- not the absolute trace count -- is
the reproduction target.  The gap to the paper's 1000x fraction is tracked
in ROADMAP.md, under the open item on gating estimator accuracy.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table, write_csv
from repro.analysis.survey import run_survey


def test_headline_statistics(benchmark, survey_dataset, output_dir):
    result = benchmark.pedantic(run_survey, args=(survey_dataset,), rounds=1, iterations=1)
    headline = result.headline()
    accuracy = result.estimation_accuracy()

    rows = [{"statistic": key, "measured": value} for key, value in headline.items()]
    rows += [{"statistic": f"estimator_accuracy_{key}", "measured": value}
             for key, value in accuracy.items()]
    write_csv(output_dir / "headline_stats.csv", rows)

    print("\n=== Section 3.2 headline statistics ===")
    print(format_table(rows))

    # Qualitative reproduction of the paper's claims.
    assert headline["metrics"] == 14
    assert 0.75 <= headline["oversampled_fraction"] <= 0.97          # paper: 0.89
    assert 0.03 <= headline["undersampled_or_suspect_fraction"] <= 0.25  # paper: 0.11
    # The needs-inspection population splits into at-the-band-edge marginal
    # pairs and outright-refused estimates; together they are the legacy key.
    assert abs(headline["undersampled_or_suspect_fraction"]
               - headline["marginal_fraction"]
               - headline["aliased_suspect_fraction"]) < 1e-12
    assert headline["reducible_10x_fraction"] > 0.5
    assert headline["reducible_100x_fraction"] > 0.2
    assert headline["reducible_1000x_fraction"] > 0.03               # paper: 0.20 (see ROADMAP.md)
    # Temperature Nyquist rates span orders of magnitude up to ~3e-3 Hz.
    assert headline["temperature_nyquist_max_hz"] <= 4e-3
    assert headline["temperature_nyquist_max_hz"] / headline["temperature_nyquist_min_hz"] > 30
