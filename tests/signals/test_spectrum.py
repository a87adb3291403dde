"""Unit tests for the Spectrum container and its energy accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.psd import batch_periodogram
from repro.signals.spectrum import Spectrum, SpectrumBatch


def make_spectrum(power=None, frequencies=None, fs=10.0):
    if frequencies is None:
        frequencies = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    if power is None:
        power = np.array([100.0, 8.0, 1.0, 0.5, 0.3, 0.2])
    return Spectrum(np.asarray(frequencies, float), np.asarray(power, float), fs)


class TestSpectrumConstruction:
    def test_basic(self):
        spectrum = make_spectrum()
        assert len(spectrum) == 6
        assert "fmax=5Hz" in repr(spectrum)

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Spectrum(np.zeros((2, 3)), np.zeros((2, 3)), 10.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Spectrum([0.0, 1.0], [1.0], 10.0)

    def test_rejects_descending_frequencies(self):
        with pytest.raises(ValueError):
            Spectrum([1.0, 0.5], [1.0, 1.0], 10.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            Spectrum([0.0, 1.0], [1.0, -1.0], 10.0)

    def test_rejects_bad_sampling_rate(self):
        with pytest.raises(ValueError):
            Spectrum([0.0], [1.0], 0.0)

    def test_tiny_negative_power_clamped_to_zero(self):
        spectrum = Spectrum([0.0, 1.0], [1.0, -1e-15], 10.0)
        assert spectrum.power[1] == 0.0


class TestEnergyAccounting:
    def test_total_energy_excludes_dc(self):
        spectrum = make_spectrum()
        assert spectrum.total_energy() == pytest.approx(10.0)
        assert float(np.sum(spectrum.power)) == pytest.approx(110.0)

    def test_without_dc(self):
        spectrum = make_spectrum().without_dc()
        assert spectrum.frequencies[0] == 1.0
        assert len(spectrum) == 5

    def test_without_dc_is_noop_when_no_dc_bin(self):
        spectrum = Spectrum([1.0, 2.0], [1.0, 1.0], 10.0)
        assert len(spectrum.without_dc()) == 2

    def test_energy_below(self):
        spectrum = make_spectrum()
        assert spectrum.energy_below(2.0) == pytest.approx(9.0)

    def test_energy_fraction_below(self):
        spectrum = make_spectrum()
        assert spectrum.energy_fraction_below(2.0) == pytest.approx(0.9)

    def test_energy_fraction_below_empty_spectrum(self):
        spectrum = Spectrum(np.empty(0), np.empty(0), 10.0)
        assert spectrum.energy_fraction_below(1.0) == 0.0



class TestSpectrumUtilities:
    def test_dominant_frequency(self):
        # The DC bin holds the most power but never counts as dominant.
        assert make_spectrum().dominant_frequency() == pytest.approx(1.0)
        assert int(np.argmax(make_spectrum().power)) == 0

    def test_dominant_frequency_empty(self):
        assert Spectrum(np.empty(0), np.empty(0), 1.0).dominant_frequency() is None

    def test_band_selects_inclusive_range(self):
        band = make_spectrum().band(1.0, 3.0)
        np.testing.assert_allclose(band.frequencies, [1.0, 2.0, 3.0])

    def test_band_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            make_spectrum().band(3.0, 1.0)

    def test_interpolate_power(self):
        spectrum = Spectrum([0.0, 1.0, 2.0], [0.0, 2.0, 4.0], 10.0)
        np.testing.assert_allclose(spectrum.interpolate_power([0.5, 1.5]), [1.0, 3.0])

    def test_interpolate_power_empty(self):
        spectrum = Spectrum(np.empty(0), np.empty(0), 10.0)
        np.testing.assert_allclose(spectrum.interpolate_power([1.0, 2.0]), [0.0, 0.0])


class TestSpectrumBatchRowHelpers:
    """SpectrumBatch.band / interpolate_power mirror the per-row Spectrum methods."""

    @staticmethod
    def make_batch() -> SpectrumBatch:
        power = np.random.default_rng(3).exponential(size=(4, 6))
        return SpectrumBatch(np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]), power, 10.0)

    def test_band_matches_rows(self):
        batch = self.make_batch()
        band = batch.band(1.0, 3.0)
        for index in range(len(batch)):
            expected = batch.row(index).band(1.0, 3.0)
            np.testing.assert_array_equal(band.frequencies, expected.frequencies)
            np.testing.assert_array_equal(band.power[index], expected.power)
        with pytest.raises(ValueError):
            batch.band(3.0, 1.0)

    def test_interpolate_power_matches_rows(self):
        batch = self.make_batch()
        grid = [0.25, 1.5, 4.75, 7.0]
        interpolated = batch.interpolate_power(grid)
        for index in range(len(batch)):
            np.testing.assert_array_equal(interpolated[index],
                                          batch.row(index).interpolate_power(grid))

    def test_interpolate_power_empty(self):
        batch = SpectrumBatch(np.empty(0), np.empty((2, 0)), 10.0)
        np.testing.assert_array_equal(batch.interpolate_power([1.0, 2.0]), np.zeros((2, 2)))

    def test_iteration_yields_the_rows(self):
        batch = self.make_batch()
        rows = list(batch)
        assert len(rows) == len(batch)
        for index, spectrum in enumerate(rows):
            np.testing.assert_array_equal(spectrum.power, batch.power[index])

    def test_without_dc_is_noop_when_no_dc_bin(self):
        batch = self.make_batch().without_dc()
        assert batch.without_dc() is batch

    def test_single_bin_batch(self):
        single = SpectrumBatch(np.array([0.0]), np.ones((2, 1)), 10.0)
        assert single.max_frequency == 5.0
        assert single.without_dc().bins == 0


class TestSpectrumBatchConstruction:
    @pytest.mark.parametrize("frequencies, power, fs, message", [
        (np.zeros((2, 3)), np.zeros((2, 3)), 10.0, "frequencies must be one-dimensional"),
        (np.arange(3.0), np.zeros(3), 10.0, "two-dimensional"),
        (np.arange(3.0), np.zeros((2, 4)), 10.0, "one column per frequency bin"),
        (np.array([0.0, 2.0, 1.0]), np.zeros((2, 3)), 10.0, "ascending"),
        (np.arange(3.0), -np.ones((2, 3)), 10.0, "non-negative"),
        (np.arange(3.0), np.zeros((2, 3)), 0.0, "sampling_rate"),
    ], ids=["2-d-frequencies", "1-d-power", "bin-mismatch", "descending", "negative-power",
            "zero-rate"])
    def test_rejects_malformed_batches(self, frequencies, power, fs, message):
        with pytest.raises(ValueError, match=message):
            SpectrumBatch(frequencies, power, fs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDerivedSpectra:
    """Library-derived batches skip re-validation but equal the checked ones."""

    @staticmethod
    def periodograms(n: int) -> SpectrumBatch:
        matrix = np.random.default_rng(n).normal(size=(5, n)).cumsum(axis=1)
        matrix[3, n // 2] = np.nan  # a non-finite trace gives an all-NaN row
        return batch_periodogram(matrix, 2.0)

    @staticmethod
    def assert_same(derived: SpectrumBatch, checked: SpectrumBatch) -> None:
        assert derived.frequencies.tobytes() == checked.frequencies.tobytes()
        assert derived.power.tobytes() == checked.power.tobytes()
        assert derived.power.shape == checked.power.shape
        assert derived.sampling_rate == checked.sampling_rate
        assert derived.power.flags.c_contiguous

    @pytest.mark.parametrize("n", [16, 17, 90])
    def test_periodogram_without_dc_and_band(self, n):
        batch = self.periodograms(n)
        freqs, power, rate = batch.frequencies, batch.power, batch.sampling_rate
        self.assert_same(batch, SpectrumBatch(freqs, power, rate))
        self.assert_same(batch.without_dc(), SpectrumBatch(freqs[1:], power[:, 1:], rate))
        for low, high in [(0.0, batch.max_frequency), (0.02, 0.1), (0.3, 0.3)]:
            mask = (freqs >= low - 1e-15) & (freqs <= high + 1e-15)
            self.assert_same(batch.band(low, high),
                             SpectrumBatch(freqs[mask], power[:, mask], rate))
        dc_free = batch.without_dc()
        self.assert_same(dc_free.band(0.0, 0.2),
                         SpectrumBatch(dc_free.frequencies[dc_free.frequencies <= 0.2],
                                       dc_free.power[:, dc_free.frequencies <= 0.2], rate))

    def test_constructor_copies_strided_power(self):
        # Rejection of malformed input: TestSpectrumBatchConstruction.
        power = np.random.default_rng(1).exponential(size=(3, 16))
        batch = SpectrumBatch(np.arange(8.0), power[:, ::2], 4.0)
        assert batch.power.flags.c_contiguous
        assert batch.power.tobytes() == np.ascontiguousarray(power[:, ::2]).tobytes()

    def test_periodogram_refuses_a_non_finite_rate(self):
        with pytest.raises(ValueError, match="sampling_rate"):
            # A subnormal interval is finite and positive, but its rate is not.
            batch_periodogram(np.ones((2, 16)), 5e-324)

    def test_interpolate_power_takes_arrays_and_sequences(self):
        batch = TestSpectrumBatchRowHelpers.make_batch()
        grid = np.array([0.25, 1.5, 4.75, 7.0])
        expected = batch.interpolate_power(list(grid))
        for targets in (grid, tuple(grid), grid.tolist()):
            assert batch.interpolate_power(targets).tobytes() == expected.tobytes()
            assert batch.row(1).interpolate_power(targets).tobytes() == expected[1].tobytes()
