"""Unit tests for the dual-frequency aliasing detector (Section 4.1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.aliasing import DualRateAliasingDetector, compare_spectra, compare_spectra_batch
from repro.core.nyquist import MIN_SAMPLES
from repro.core.psd import batch_periodogram, periodogram
from repro.core.resampling import decimation_factor
from repro.signals.generators import multi_tone
from repro.signals.noise import add_white_noise, noise_floor_estimate
from repro.signals.spectrum import Spectrum
from repro.signals.timeseries import TimeSeries
from signal_helpers import sine


def sample_two_tone(rate: float, duration: float = 2.0):
    """Directly sample the 400+440 Hz continuous signal at the given rate."""
    return multi_tone([400.0, 440.0], duration, rate)


def poll(reference: TimeSeries, rate: float) -> TimeSeries:
    """What a poller at ``rate`` reads off ``reference`` (no anti-alias filter).

    A rate that does not divide the reference rate reads its samples off
    by linear interpolation, a faithful stand-in while the reference is
    sampled well above the poller.
    """
    ratio = reference.sampling_rate / rate
    if abs(ratio - round(ratio)) < 1e-9:
        return reference.decimate(decimation_factor(reference.sampling_rate, rate))
    times = reference.start_time + np.arange(round(reference.duration * rate)) / rate
    return TimeSeries(np.interp(times, reference.times(), reference.values), 1.0 / rate,
                      start_time=reference.start_time)


class TestDetectorConfiguration:
    def test_rejects_integer_ratio(self):
        with pytest.raises(ValueError):
            DualRateAliasingDetector(rate_ratio=2.0)

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError):
            DualRateAliasingDetector(rate_ratio=0.5)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            DualRateAliasingDetector(threshold=0.0)

    @pytest.mark.parametrize("field, value", [
        ("rate_ratio", math.nan), ("rate_ratio", math.inf),
        ("threshold", math.nan), ("threshold", math.inf),
    ])
    def test_non_finite_knobs_raise_naming_the_field(self, field, value):
        """A NaN or infinite ratio fails later in integer conversion; a NaN
        or infinite threshold flags no window as aliased."""
        with pytest.raises(ValueError, match=field):
            DualRateAliasingDetector(**{field: value})

    def test_probe_rates(self):
        detector = DualRateAliasingDetector(rate_ratio=1.6)
        slow, fast = detector.probe_rates(10.0)
        assert slow == 10.0
        assert fast == pytest.approx(16.0)

    def test_probe_rates_reject_bad_rate(self):
        with pytest.raises(ValueError):
            DualRateAliasingDetector().probe_rates(0.0)


class TestDetection:
    def test_no_aliasing_above_nyquist(self):
        detector = DualRateAliasingDetector()
        verdict = detector.check_samples(sample_two_tone(900.0), sample_two_tone(1440.0))
        assert not verdict.aliased
        assert verdict.discrepancy < detector.threshold

    def test_aliasing_below_nyquist(self):
        detector = DualRateAliasingDetector()
        verdict = detector.check_samples(sample_two_tone(600.0), sample_two_tone(960.0))
        assert verdict.aliased
        assert verdict.discrepancy > verdict.threshold

    def test_aliasing_slightly_below_nyquist(self):
        detector = DualRateAliasingDetector()
        verdict = detector.check_samples(sample_two_tone(800.0), sample_two_tone(1280.0))
        assert verdict.aliased

    def test_order_of_arguments_does_not_matter(self):
        detector = DualRateAliasingDetector()
        a = detector.check_samples(sample_two_tone(600.0), sample_two_tone(960.0))
        b = detector.check_samples(sample_two_tone(960.0), sample_two_tone(600.0))
        assert a.aliased == b.aliased

    def test_too_few_samples_returns_not_aliased(self):
        detector = DualRateAliasingDetector()
        verdict = detector.check_samples(sample_two_tone(600.0, duration=0.01),
                                         sample_two_tone(960.0, duration=0.01))
        assert not verdict.aliased
        assert verdict.discrepancy == 0.0

    def test_noise_tolerance(self, rng):
        # A clean slow tone plus small noise sampled at two adequate rates
        # should not trigger the detector.
        detector = DualRateAliasingDetector()
        slow = add_white_noise(sine(1.0, duration=30.0, sampling_rate=10.0, amplitude=5.0),
                               0.05, rng=rng)
        fast = add_white_noise(sine(1.0, duration=30.0, sampling_rate=16.0, amplitude=5.0),
                               0.05, rng=rng)
        assert not detector.check_samples(slow, fast).aliased

    @pytest.mark.parametrize("candidate, aliased", [
        (500.0, True), (600.0, True), (1000.0, False), (1100.0, False)])
    def test_probes_polled_off_a_reference(self, two_tone, candidate, aliased):
        """Both probe streams read off one 2 kHz reference of the 400+440 Hz
        signal: below 880 Hz the slow probe folds the tones elsewhere."""
        detector = DualRateAliasingDetector()
        slow_rate, fast_rate = detector.probe_rates(candidate)
        verdict = detector.check_samples(poll(two_tone, slow_rate), poll(two_tone, fast_rate))
        assert verdict.aliased == aliased

    def test_shortest_probes_that_give_a_verdict(self):
        """Probe streams of MIN_SAMPLES samples are compared; one sample
        fewer in either stream is no evidence ("not aliased", zero)."""
        detector = DualRateAliasingDetector()
        fast_n, slow_n = 2 * MIN_SAMPLES, MIN_SAMPLES
        fast = sample_two_tone(960.0, duration=fast_n / 960.0)
        slow = sample_two_tone(600.0, duration=slow_n / 600.0)
        assert (len(fast), len(slow)) == (fast_n, slow_n)
        assert detector.check_samples(slow, fast).discrepancy > 0
        short = TimeSeries(slow.values[:-1], slow.interval)
        verdict = detector.check_samples(short, fast)
        assert not verdict.aliased and verdict.discrepancy == 0.0


class TestCompareSpectra:
    def test_identical_spectra_have_zero_discrepancy(self, two_tone):
        spectrum = periodogram(two_tone)
        discrepancy, band = compare_spectra(spectrum, spectrum)
        assert discrepancy == pytest.approx(0.0, abs=1e-9)
        assert band == pytest.approx(spectrum.sampling_rate / 2.0)

    def test_disjoint_spectra_have_large_discrepancy(self):
        low = periodogram(sine(1.0, duration=10.0, sampling_rate=50.0))
        high = periodogram(sine(20.0, duration=10.0, sampling_rate=50.0))
        discrepancy, _ = compare_spectra(low, high)
        assert discrepancy > 0.9

    def test_spectra_without_a_common_band_have_zero_discrepancy(self):
        dc_only = Spectrum(np.array([0.0]), np.array([4.0]), 1.0)
        two_bins = Spectrum(np.array([0.0, 0.5]), np.array([4.0, 1.0]), 1.0)
        assert compare_spectra(dc_only, two_bins) == (0.0, 0.5)

    def test_amplitude_scaling_does_not_register(self, two_tone):
        spectrum = periodogram(two_tone)
        scaled = periodogram(two_tone.with_values(two_tone.values * 3.0))
        discrepancy, _ = compare_spectra(spectrum, scaled)
        assert discrepancy < 0.01


class TestRowBatchedCheck:
    """check_rows / compare_spectra_batch: every row equals its one-row check."""

    @staticmethod
    def probe_matrix(rows: int, n: int, factor: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=(rows, n)).cumsum(axis=1)
        reference[0] = 3.0                                            # constant
        reference[1] = rng.normal(size=n)                             # broadband
        reference[2] = np.sin(2 * np.pi * 0.37 * np.arange(n))        # aliases when decimated
        return reference[:, ::factor], reference[:, ::max(factor * 8 // 5, 1)]

    @pytest.mark.parametrize("n,factor", [(400, 5), (401, 8), (64, 3), (40, 3)])
    def test_rows_match_check_samples(self, n, factor):
        detector = DualRateAliasingDetector()
        fast, slow = self.probe_matrix(7, n, factor, seed=n)
        fast_interval = 1.0 * factor
        slow_interval = 1.0 * max(factor * 8 // 5, 1)
        aliased, discrepancy, band_edge = detector.check_rows(slow, slow_interval,
                                                              fast, fast_interval)
        for index in range(slow.shape[0]):
            verdict = detector.check_samples(TimeSeries(slow[index], slow_interval),
                                             TimeSeries(fast[index], fast_interval))
            assert verdict.aliased == aliased[index]
            assert verdict.discrepancy == discrepancy[index]
            assert verdict.common_band_hz == band_edge

    @staticmethod
    def one_spectrum_discrepancy(slow: TimeSeries, fast: TimeSeries) -> tuple[float, float]:
        """The single-trace comparison: 1-D periodograms, scalar noise floors and sums."""
        slow_spectrum, fast_spectrum = periodogram(slow), periodogram(fast)
        band_edge = min(slow_spectrum.sampling_rate, fast_spectrum.sampling_rate) / 2.0
        slow_band = slow_spectrum.without_dc().band(0.0, band_edge)
        fast_band = fast_spectrum.without_dc().band(0.0, band_edge)
        if len(slow_band) == 0 or len(fast_band) == 0:
            return 0.0, band_edge
        grid = slow_band.frequencies if len(slow_band) <= len(fast_band) else fast_band.frequencies
        slow_power = slow_band.interpolate_power(grid)
        fast_power = fast_band.interpolate_power(grid)
        slow_clean = np.maximum(slow_power - noise_floor_estimate(slow_power), 0.0)
        fast_clean = np.maximum(fast_power - noise_floor_estimate(fast_power), 0.0)
        if float(np.sum(slow_clean) + np.sum(fast_clean)) <= 0:
            return 0.0, band_edge
        slow_norm = slow_clean / (np.sum(slow_clean) or 1.0)
        fast_norm = fast_clean / (np.sum(fast_clean) or 1.0)
        return float(0.5 * np.sum(np.abs(slow_norm - fast_norm))), band_edge

    @pytest.mark.parametrize("n,factor", [(400, 5), (401, 8), (64, 3), (2000, 2)])
    def test_rows_match_one_spectrum_arithmetic(self, n, factor):
        # Pins the batched check to the plain one-trace computation (not to
        # check_samples, which is itself the one-row batched check).
        detector = DualRateAliasingDetector()
        fast, slow = self.probe_matrix(7, n, factor, seed=n + 1)
        slow_interval = 1.0 * max(factor * 8 // 5, 1)
        aliased, discrepancy, band_edge = detector.check_rows(slow, slow_interval,
                                                              fast, 1.0 * factor)
        for index in range(slow.shape[0]):
            expected = self.one_spectrum_discrepancy(TimeSeries(slow[index], slow_interval),
                                                     TimeSeries(fast[index], 1.0 * factor))
            assert (discrepancy[index], band_edge) == expected
            assert aliased[index] == (expected[0] > detector.threshold)

    def test_argument_order_does_not_matter(self):
        detector = DualRateAliasingDetector()
        fast, slow = self.probe_matrix(5, 300, 4, seed=1)
        forward = detector.check_rows(slow, 6.0, fast, 4.0)
        backward = detector.check_rows(fast, 4.0, slow, 6.0)
        assert np.array_equal(forward[1], backward[1])

    def test_compare_spectra_batch_matches_rows(self):
        fast, slow = self.probe_matrix(6, 500, 2, seed=2)
        slow_batch = batch_periodogram(slow, 3.0)
        fast_batch = batch_periodogram(fast, 2.0)
        discrepancy, band_edge = compare_spectra_batch(slow_batch, fast_batch)
        for index in range(len(slow_batch)):
            assert compare_spectra(slow_batch.row(index), fast_batch.row(index)) == \
                (discrepancy[index], band_edge)

    def test_rejects_mismatched_rows(self):
        detector = DualRateAliasingDetector()
        with pytest.raises(ValueError, match="row counts"):
            detector.check_rows(np.zeros((2, 32)), 2.0, np.zeros((3, 48)), 1.0)
        with pytest.raises(ValueError, match="row counts"):
            compare_spectra_batch(batch_periodogram(np.ones((2, 32)), 2.0),
                                  batch_periodogram(np.ones((3, 48)), 1.0))


class TestInterpolationSkipOracle:
    """compare_spectra_batch uses the grid side's own power uninterpolated.

    The reference interpolates both sides onto the grid and takes
    ``np.quantile`` floors, as the comparison was first written; the
    discrepancies must be equal bit for bit whichever side is coarser.
    """

    @staticmethod
    def reference(slow, fast) -> np.ndarray:
        band_edge = min(slow.max_frequency, fast.max_frequency)
        slow_band = slow.without_dc().band(0.0, band_edge)
        fast_band = fast.without_dc().band(0.0, band_edge)
        grid = slow_band.frequencies if slow_band.bins <= fast_band.bins else fast_band.frequencies
        cleaned = []
        for band in (slow_band, fast_band):
            power = np.array([np.interp(grid, band.frequencies, row, left=row[0], right=row[-1])
                              for row in band.power])
            floor = np.quantile(power, 0.5, axis=-1)
            cleaned.append(np.maximum(power - floor[:, None], 0.0))
        slow_clean, fast_clean = cleaned
        slow_total = np.sum(slow_clean, axis=-1)
        fast_total = np.sum(fast_clean, axis=-1)
        slow_norm = slow_clean / np.where(slow_total == 0, 1.0, slow_total)[:, None]
        fast_norm = fast_clean / np.where(fast_total == 0, 1.0, fast_total)[:, None]
        discrepancy = 0.5 * np.sum(np.abs(slow_norm - fast_norm), axis=-1)
        return np.where(slow_total + fast_total <= 0, 0.0, discrepancy)

    @pytest.mark.parametrize("slow_samples, fast_samples",
                             [(48, 96), (64, 96), (400, 64), (33, 17)],
                             ids=["slow-coarser", "equal-bins", "fast-coarser", "short"])
    def test_equals_two_sided_interpolation(self, slow_samples, fast_samples):
        rng = np.random.default_rng(slow_samples + fast_samples)
        slow = batch_periodogram(rng.normal(size=(6, slow_samples)).cumsum(axis=1), 3.0)
        fast = batch_periodogram(rng.normal(size=(6, fast_samples)).cumsum(axis=1), 2.0)
        discrepancy, _ = compare_spectra_batch(slow, fast)
        assert discrepancy.tobytes() == self.reference(slow, fast).tobytes()
