"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.survey import run_survey
from repro.core.errors import compare
from repro.core.nyquist import NyquistEstimator, estimate_nyquist_rate
from repro.core.psd import periodogram
from repro.core.quantization import UniformQuantizer
from repro.core.resampling import downsample, fourier_resample, regularize
from repro.signals.generators import multi_tone, sine
from repro.signals.timeseries import IrregularTimeSeries, TimeSeries
from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.ingest import export_gnmi_dump, export_snmp_dump, ingest_dump

# FFT-heavy properties: keep example counts modest so the suite stays fast.
FAST = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


finite_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=200)

intervals = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False)


@FAST
@given(values=finite_values, interval=intervals)
def test_timeseries_duration_consistency(values, interval):
    series = TimeSeries(np.array(values), interval)
    assert series.duration == pytest.approx(len(values) * interval, rel=1e-9)
    assert series.sampling_rate == pytest.approx(1.0 / interval, rel=1e-9)


@FAST
@given(values=finite_values, interval=intervals, factor=st.integers(min_value=1, max_value=10))
def test_decimation_length_and_rate(values, interval, factor):
    series = TimeSeries(np.array(values), interval)
    decimated = series.decimate(factor)
    assert len(decimated) == math.ceil(len(series) / factor)
    assert decimated.interval == pytest.approx(interval * factor)
    # Decimated samples are a subset of the original samples.
    assert set(np.round(decimated.values, 9)) <= set(np.round(series.values, 9))


@FAST
@given(values=finite_values, interval=intervals)
def test_window_partition_preserves_samples(values, interval):
    series = TimeSeries(np.array(values), interval)
    midpoint = series.start_time + series.duration / 2.0
    left = series.window(series.start_time, midpoint)
    right = series.window(midpoint, series.end_time + interval)
    assert len(left) + len(right) == len(series)


@FAST
@given(values=finite_values, interval=intervals)
def test_periodogram_energy_is_non_negative_and_finite(values, interval):
    series = TimeSeries(np.array(values), interval)
    spectrum = periodogram(series)
    assert np.all(spectrum.power >= 0)
    assert np.all(np.isfinite(spectrum.power))
    assert spectrum.max_frequency == pytest.approx(series.sampling_rate / 2.0)


@FAST
@given(values=finite_values, interval=intervals,
       fraction=st.floats(min_value=0.5, max_value=1.0))
def test_energy_cutoff_is_monotone_in_fraction(values, interval, fraction):
    series = TimeSeries(np.array(values), interval)
    spectrum = periodogram(series)
    low, high = (NyquistEstimator(energy_fraction=f, aliased_band_fraction=1.0)
                 .estimate_from_spectrum(spectrum).cutoff_frequency
                 for f in (fraction * 0.9, fraction))
    if low is not None and high is not None:
        assert high >= low


@FAST
@given(frequency=st.floats(min_value=0.5, max_value=10.0),
       rate_multiplier=st.floats(min_value=4.0, max_value=20.0))
def test_nyquist_estimate_bounded_by_sampling_rate(frequency, rate_multiplier):
    series = sine(frequency, duration=20.0 / frequency,
                  sampling_rate=frequency * rate_multiplier)
    estimate = estimate_nyquist_rate(series)
    if estimate.reliable:
        assert 0 < estimate.nyquist_rate <= series.sampling_rate + 1e-9
        assert estimate.reduction_ratio >= 1.0 - 1e-9


@FAST
@given(frequency=st.floats(min_value=0.5, max_value=5.0))
def test_nyquist_estimate_close_to_twice_tone_frequency(frequency):
    series = sine(frequency, duration=30.0 / frequency, sampling_rate=frequency * 30.0)
    estimate = estimate_nyquist_rate(series)
    assert estimate.reliable
    assert estimate.nyquist_rate == pytest.approx(2.0 * frequency, rel=0.15)


@FAST
@given(energy_fraction=st.floats(min_value=0.5, max_value=0.999))
def test_nyquist_estimate_monotone_in_energy_fraction(energy_fraction):
    series = multi_tone([2.0, 11.0], duration=8.0, sampling_rate=64.0,
                        amplitudes=[1.0, 0.2])
    low = NyquistEstimator(energy_fraction=energy_fraction * 0.8).estimate(series)
    high = NyquistEstimator(energy_fraction=energy_fraction).estimate(series)
    if low.reliable and high.reliable:
        assert high.nyquist_rate >= low.nyquist_rate - 1e-9


@FAST
@given(values=finite_values, interval=intervals,
       step=st.floats(min_value=1e-3, max_value=100.0))
def test_quantization_error_bounded_by_half_step(values, interval, step):
    series = TimeSeries(np.array(values), interval)
    quantized = UniformQuantizer(step).apply_series(series)
    assert np.max(np.abs(quantized.values - series.values)) <= step / 2.0 + 1e-9


@FAST
@given(values=finite_values, interval=intervals)
def test_compare_identical_series_is_exact(values, interval):
    series = TimeSeries(np.array(values), interval)
    error = compare(series, series)
    assert error.is_exact()
    assert error.l2 == 0.0


@FAST
@given(values=finite_values, interval=intervals,
       offset=st.floats(min_value=-10.0, max_value=10.0))
def test_l2_distance_is_symmetric_and_triangleish(values, interval, offset):
    series = TimeSeries(np.array(values), interval)
    shifted = series + offset
    assert compare(series, shifted).l2 == pytest.approx(compare(shifted, series).l2)
    assert compare(series, shifted).l2 == pytest.approx(abs(offset) * math.sqrt(len(series)),
                                                        rel=1e-6, abs=1e-6)


@FAST
@given(length=st.integers(min_value=16, max_value=400),
       target=st.integers(min_value=16, max_value=400))
def test_fourier_resample_preserves_duration_and_mean(length, target):
    rng = np.random.default_rng(length * 1000 + target)
    values = rng.normal(size=length).cumsum()  # smooth-ish signal
    series = TimeSeries(values, 1.0)
    resampled = fourier_resample(series, target)
    assert len(resampled) == target
    assert resampled.duration == pytest.approx(series.duration, rel=1e-9)
    assert resampled.mean() == pytest.approx(series.mean(), rel=0.05, abs=0.5)


@FAST
@given(factor=st.sampled_from([2, 4, 5, 8, 10, 16, 20]),
       cycles=st.integers(min_value=1, max_value=12))
def test_downsample_upsample_roundtrip_for_band_limited_signals(factor, cycles):
    # A tone completing an integer number of cycles (so the FFT's periodic
    # extension is exact), decimated by a factor that divides the trace
    # length (so the decimated trace keeps the same period) and band-limited
    # well below the post-decimation Nyquist frequency: the round trip must
    # be (nearly) lossless.  Factors that do not divide the length shorten
    # the trace and are covered, more loosely, by the reconstruction tests.
    duration = 400.0
    frequency = cycles / duration
    series = sine(frequency, duration=duration, sampling_rate=2.0)
    down = downsample(series, factor, anti_alias=True)
    up = fourier_resample(down, len(series))
    n = min(len(up), len(series))
    rms_error = float(np.sqrt(np.mean((up.values[:n] - series.values[:n]) ** 2)))
    assert rms_error < 0.02


# ----------------------------------------------------------------------
# Ingest round trips: arbitrary fleet -> raw dump -> ingest -> survey
# ----------------------------------------------------------------------
# End-to-end FFT + process-pool heavy: a handful of examples suffices, the
# deterministic corpus lives in tests/telemetry/test_ingest.py.
INGEST = settings(max_examples=6, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

#: Metric mixes spanning every generative family.
INGEST_METRIC_POOLS = (
    ("Temperature", "Unicast bytes", "FCS errors"),
    ("Link util", "Multicast drops"),
    ("Lossy paths", "Peak egress BW", "Memory usage"),
)


def _assert_nan_aware_equal(left: float, right: float, context: str) -> None:
    assert left == right or (math.isnan(left) and math.isnan(right)), context


@INGEST
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       pair_count=st.integers(min_value=3, max_value=10),
       metrics=st.sampled_from(INGEST_METRIC_POOLS),
       exporter=st.sampled_from([export_gnmi_dump, export_snmp_dump]),
       broadband=st.sampled_from([0.0, 0.25]))
def test_export_ingest_survey_round_trip(seed, pair_count, metrics, exporter,
                                         broadband):
    """Any fleet, either wire format: the ingested directory surveys
    bit-identically to the in-memory fleet, at 1 and 2 workers."""
    fleet = FleetDataset(DatasetConfig(pair_count=pair_count, seed=seed,
                                       trace_duration=3600.0, metrics=metrics,
                                       broadband_fraction=broadband))
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        dump = exporter(fleet, tmp_path / "dump")
        ingested = ingest_dump(dump, tmp_path / "fleet",
                               memory_budget_samples=257)
        assert len(ingested) == len(fleet)

        reference = run_survey(fleet)
        single = run_survey(ingested, chunk_size=4)
        pooled = run_survey(ingested, workers=2, chunk_size=4)

        # workers=1 and workers=2 on the ingested fleet: byte-identical
        # blocks, order included.
        single_blocks = list(single.iter_blocks())
        pooled_blocks = list(pooled.iter_blocks())
        assert len(single_blocks) == len(pooled_blocks) > 0
        for a, b in zip(single_blocks, pooled_blocks):
            assert a.metric_name == b.metric_name
            assert np.array_equal(a.device_ids, b.device_ids)
            assert np.array_equal(a.current_rate, b.current_rate)
            assert np.array_equal(a.nyquist_rate, b.nyquist_rate)
            assert np.array_equal(a.reduction_ratio, b.reduction_ratio, equal_nan=True)
            assert np.array_equal(a.category, b.category)
            assert np.array_equal(a.reliable, b.reliable)

        # Against the originating fleet: the same records bit for bit,
        # aligned by (metric, device) key -- an ingested manifest lists
        # pairs in canonical sorted order, the synthetic fleet in its own
        # seeded order.
        by_key = {(r.metric_name, r.device_id): r for r in reference.records}
        ingested_records = single.records
        assert len(ingested_records) == len(by_key)
        for record in ingested_records:
            expected = by_key.pop((record.metric_name, record.device_id))
            context = f"{record.metric_name}@{record.device_id}"
            assert record.current_rate == expected.current_rate, context
            assert record.nyquist_rate == expected.nyquist_rate, context
            _assert_nan_aware_equal(record.reduction_ratio,
                                    expected.reduction_ratio, context)
            assert record.category is expected.category, context
            assert record.reliable == expected.reliable, context
            assert record.trace_duration == expected.trace_duration, context
        assert not by_key

        # Order-insensitive aggregations agree exactly.
        for result in (single, pooled):
            headline = result.headline()
            for key, value in reference.headline().items():
                _assert_nan_aware_equal(value, headline[key], key)


@FAST
@given(n=st.integers(min_value=10, max_value=200),
       interval=st.floats(min_value=0.5, max_value=10.0),
       jitter=st.floats(min_value=0.0, max_value=0.2))
def test_regularize_produces_regular_series_of_similar_span(n, interval, jitter):
    rng = np.random.default_rng(n)
    timestamps = np.sort(np.arange(n) * interval + rng.uniform(-jitter, jitter, size=n) * interval)
    values = rng.normal(size=n)
    irregular = IrregularTimeSeries(timestamps, values)
    regular = regularize(irregular)
    assert regular.interval > 0
    assert abs(regular.duration - irregular.duration) <= 2 * regular.interval + 1e-6
    # Every regularised value is one of the observed values (nearest neighbour).
    assert set(np.round(regular.values, 9)) <= set(np.round(values, 9))
