"""Figure 7: the inferred Nyquist rate over time for the Figure 6 temperature signal.

The paper's Figure 7 slides a 6-hour window in 5-minute steps over the
temperature trace and plots the Nyquist rate inferred in each window,
showing that the rate is not constant over time -- the motivation for
dynamic sampling.  This bench regenerates that series, summarises how
much the inferred rate moves, and times the vectorised windowed sweep
(all window positions gathered into one matrix via
``sliding_window_view`` and fed to ``estimate_batch``) against a scalar
loop calling ``estimate`` per window -- the fleet-wide continuous
re-estimation loop runs this sweep on every pair, so its speed-up is
what makes always-on Figure 7 monitoring affordable.  The timing lands
in ``BENCH_survey.json`` next to the survey throughput numbers.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis.reporting import format_table, write_csv
from repro.core.nyquist import NyquistEstimator
from repro.core.windowed import (FIGURE7_STEP_SECONDS, FIGURE7_WINDOW_SECONDS,
                                 WindowedEstimate, rate_stability, windowed_nyquist_rates)
from repro.telemetry.metrics import METRIC_CATALOG
from repro.telemetry.models import generate_trace
from repro.telemetry.profiles import DeviceProfile, DeviceRole, draw_metric_parameters

from conftest import update_bench_json

#: Required speed-up of the vectorised windowed sweep over the scalar loop.
REQUIRED_WINDOWED_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_WINDOWED_SPEEDUP", "5"))


def build_trace(seed: int = 42):
    # Same construction as the Figure 6 bench (the paper uses the same signal).
    spec = METRIC_CATALOG["Temperature"]
    device = DeviceProfile("fig6-tor", DeviceRole.TOR_SWITCH, seed=seed)
    duration = 3 * 86400.0
    params = draw_metric_parameters(spec, device, duration, broadband_fraction=0.0,
                                    rng=np.random.default_rng(seed))
    return generate_trace(spec, params, duration, rng=np.random.default_rng(seed))


def build_estimator():
    # Short-window sweeps keep the paper's strict "all bins needed" rule
    # (1.0): on 6-hour windows the calibrated survey default (0.9) refuses
    # every noise-dominated quiet window, where Figure 7 instead plots a
    # small inferred rate (same reasoning as the adaptive controller).
    return NyquistEstimator(detrend=True, window="hann", aliased_band_fraction=1.0)


def infer_windowed_rates(trace):
    return windowed_nyquist_rates(trace, window_seconds=FIGURE7_WINDOW_SECONDS,
                                  step_seconds=FIGURE7_STEP_SECONDS,
                                  estimator=build_estimator())


def test_fig7_windowed_nyquist_rates(benchmark, output_dir):
    trace = build_trace()
    estimates = benchmark.pedantic(infer_windowed_rates, args=(trace,), rounds=1, iterations=1)

    rows = [{"window_start_s": entry.window_start,
             "window_start_h": entry.window_start / 3600.0,
             "nyquist_rate_hz": entry.nyquist_rate}
            for entry in estimates]
    write_csv(output_dir / "fig7_windowed_rates.csv", rows)
    stability = rate_stability(estimates)

    print("\n=== Figure 7: inferred Nyquist rate over time (6 h window, 5 min step) ===")
    print(format_table(rows[::12]))  # print one row per hour to keep the log readable
    print(format_table([{"statistic": key, "value": value} for key, value in stability.items()]))

    # Paper shape: the series is dense (a 3-day trace yields hundreds of
    # 5-minute steps), the vast majority of windows produce usable
    # estimates, and the inferred rate genuinely varies over time
    # (motivating adaptation).
    expected_windows = int((trace.duration - FIGURE7_WINDOW_SECONDS) / FIGURE7_STEP_SECONDS) + 1
    assert len(estimates) >= expected_windows - 1
    assert stability["count"] >= 0.8 * len(estimates)
    assert stability["dynamic_range"] > 1.5


def test_windowed_backend_speedup(output_dir):
    """The vectorised sweep must beat the scalar loop by >= 5x, equivalently."""
    trace = build_trace()
    estimator = build_estimator()

    def run_scalar():
        return [WindowedEstimate(window.start_time, window.end_time, estimator.estimate(window))
                for window in trace.iter_windows(FIGURE7_WINDOW_SECONDS, FIGURE7_STEP_SECONDS)
                if len(window) >= estimator.min_samples]

    def run_batched():
        return windowed_nyquist_rates(trace, window_seconds=FIGURE7_WINDOW_SECONDS,
                                      step_seconds=FIGURE7_STEP_SECONDS, estimator=estimator)

    best_scalar, scalar_series = float("inf"), None
    best_batched, batched_series = float("inf"), None
    for _ in range(3):
        start = time.perf_counter()
        scalar_series = run_scalar()
        best_scalar = min(best_scalar, time.perf_counter() - start)
        start = time.perf_counter()
        batched_series = run_batched()
        best_batched = min(best_batched, time.perf_counter() - start)
    speedup = best_scalar / best_batched

    assert len(scalar_series) == len(batched_series)
    for a, b in zip(scalar_series, batched_series):
        assert a.window_start == b.window_start
        assert a.window_end == b.window_end
        assert a.estimate.reliable == b.estimate.reliable
        assert np.isclose(a.estimate.nyquist_rate, b.estimate.nyquist_rate)

    update_bench_json("windowed", {
        "windows": len(batched_series),
        "scalar_seconds": best_scalar,
        "batched_seconds": best_batched,
        "speedup": speedup,
    })
    print(f"\n=== Figure 7 sweep: {len(batched_series)} windows, "
          f"scalar {best_scalar:.3f}s vs batched {best_batched:.3f}s "
          f"({speedup:.1f}x) ===")
    assert speedup >= REQUIRED_WINDOWED_SPEEDUP, \
        f"vectorised sweep only {speedup:.1f}x faster (need >= {REQUIRED_WINDOWED_SPEEDUP}x)"
