"""The per-shape constants equal the expressions they replace, bit for bit.

Arrays that depend only on a trace's shape -- time grids, frequency
axes, the detrend axis, tapers, scenario carriers and duty factors, the
generators' 1/f band weights, the dual-rate check's common-band columns
and the noise floor's partition indices -- are built once per shape by
small ``lru_cache`` helpers and shared.
Each result here is compared by ``tobytes()`` with the un-hoisted
expression it replaced, over odd and even lengths (down to two samples
and ``MIN_SAMPLES``), a dyadic and a non-dyadic interval, and rows of
NaN, +-inf and -0.0.  Every cached array must be read-only, and every
cache must stay within its ``maxsize``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core import aliasing, batch, psd
from repro.core.aliasing import DualRateAliasingDetector, compare_spectra_batch
from repro.core.nyquist import MIN_SAMPLES
from repro.core.psd import batch_periodogram, taper_energy
from repro.faults import stable_digest
from repro.scenarios import transforms
from repro.scenarios.transforms import DiurnalCycle, FlappingRegime, RegimeShift
from repro.signals import noise
from repro.telemetry.metrics import METRIC_CATALOG
from repro.telemetry.models import common
from repro.telemetry.models.common import (band_limited_component, diurnal_component,
                                           finalize_trace, time_grid)
from repro.telemetry.profiles import MetricParameters

LENGTHS = [2, 3, MIN_SAMPLES, MIN_SAMPLES + 1, 480, 721]
INTERVALS = [7.5, 30.0 / 7.0]

DIURNAL = DiurnalCycle(period=6 * 3600.0, amplitude=0.3)
REGIME = RegimeShift(shift_fraction=0.05, frequency_fraction=0.8, amplitude=3.0)
FLAP = FlappingRegime(onset_fraction=0.3, period=600.0, duty=0.5,
                      frequency_fraction=0.8, amplitude=2.0)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def awkward_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random rows plus NaN, +inf, -inf, all -0.0, sparse -0.0 and constant rows."""
    matrix = rng.normal(size=(7, n))
    matrix[1, n // 2] = np.nan
    matrix[2, 0] = np.inf
    matrix[3, -1] = -np.inf
    matrix[4] = -0.0
    matrix[5, ::2] = -0.0
    matrix[6] = 3.25
    return matrix


# --- The un-hoisted expressions ---------------------------------------

def reference_periodogram(matrix: np.ndarray, interval: float) -> tuple[np.ndarray, np.ndarray]:
    n = matrix.shape[-1]
    taper = np.ones(n)
    scale = n * taper_energy(taper)
    power = (np.abs(np.fft.rfft(matrix * taper, axis=-1)) ** 2) / scale
    if n % 2 == 0:
        power[..., 1:-1] *= 2.0
    else:
        power[..., 1:] *= 2.0
    return np.fft.rfftfreq(n, d=interval), power


def reference_detrend(values: np.ndarray) -> np.ndarray:
    x = np.arange(values.shape[-1], dtype=np.float64)
    x_centered = x - x.mean()
    denominator = float(np.sum(x_centered ** 2))
    row_means = np.mean(values, axis=-1, keepdims=True)
    slopes = np.sum((values - row_means) * x_centered, axis=-1) / denominator
    return values - row_means - slopes[:, None] * x_centered


def phase_of(kind: str) -> float:
    """Per-pair phase of a transform for pair ("m", "d"): digest seeded by 0."""
    return 2.0 * math.pi * (stable_digest(0, kind, "m", "d")
                            / 2.0 ** 64)


def reference_diurnal_cycle(transform: DiurnalCycle, values: np.ndarray,
                            interval: float) -> np.ndarray:
    t = np.arange(values.shape[0]) * interval
    return values * (1.0 + transform.amplitude * np.sin(
        2.0 * math.pi * t / transform.period + phase_of("diurnal-phase")))


def reference_regime_shift(transform: RegimeShift, values: np.ndarray,
                           interval: float) -> np.ndarray:
    rows = values.shape[0]
    out = values.copy()
    shift = int(round(transform.shift_fraction * rows))
    base = float(np.std(values))
    base = base if base > 0.0 else 1.0
    frequency = transform.frequency_fraction / (2.0 * interval)
    t = np.arange(shift, rows) * interval
    out[shift:] += transform.amplitude * base * np.sin(
        2.0 * math.pi * frequency * t + phase_of("regime-phase"))
    return out


def reference_flapping_regime(transform: FlappingRegime, values: np.ndarray,
                              interval: float) -> np.ndarray:
    rows = values.shape[0]
    out = values.copy()
    onset = int(round(transform.onset_fraction * rows))
    base = float(np.std(values))
    base = base if base > 0.0 else 1.0
    frequency = transform.frequency_fraction / (2.0 * interval)
    t = np.arange(onset, rows) * interval
    active = ((t - onset * interval) % transform.period) < transform.duty * transform.period
    out[onset:] += (transform.amplitude * base
                    * np.sin(2.0 * math.pi * frequency * t + phase_of("flap-phase"))
                    * active)
    return out


def reference_band_limited(n: int, interval: float, bandwidth_hz: float,
                           amplitude: float, rng: np.random.Generator) -> np.ndarray:
    freqs = np.fft.rfftfreq(n, d=interval)
    spectrum = np.zeros(freqs.shape, dtype=np.complex128)
    in_band = (freqs > 0) & (freqs <= bandwidth_hz)
    if not np.any(in_band) and len(freqs) > 1:
        in_band[1] = True
    count = int(np.count_nonzero(in_band))
    if count == 0 or amplitude == 0:
        return np.zeros(n)
    band_freqs = freqs[in_band]
    weights = 1.0 / np.sqrt(band_freqs / band_freqs[0])
    phases = rng.uniform(0.0, 2.0 * math.pi, size=count)
    spectrum[in_band] = weights * np.exp(1j * phases)
    values = np.fft.irfft(spectrum, n=n)
    peak = float(np.max(np.abs(values)))
    if peak > 0:
        values = values / peak * amplitude
    return values


def reference_finalize(values: np.ndarray, spec, params: MetricParameters,
                       rng: np.random.Generator) -> np.ndarray:
    noisy = values + rng.normal(scale=params.noise_std, size=values.shape[0]) \
        if params.noise_std > 0 else values
    if spec.minimum is not None or spec.maximum is not None:
        noisy = np.clip(noisy, spec.minimum, spec.maximum)
    quantized = np.round(noisy / spec.quantization_step) * spec.quantization_step
    if spec.minimum is not None or spec.maximum is not None:
        quantized = np.clip(quantized, spec.minimum, spec.maximum)
    return quantized


def reference_common_band(slow, fast):
    band_edge = min(slow.max_frequency, fast.max_frequency)
    return (slow.without_dc().band(0.0, band_edge), fast.without_dc().band(0.0, band_edge),
            band_edge)


# --- Results equal the un-hoisted expressions -------------------------

@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("n", LENGTHS)
def test_batch_periodogram_matches_the_windowed_expression(rng, n, interval):
    matrix = awkward_rows(rng, n)
    with np.errstate(invalid="ignore"):
        freqs, power = reference_periodogram(matrix, interval)
        spectra = batch_periodogram(matrix, interval)
    assert same_bits(spectra.frequencies, freqs)
    assert same_bits(spectra.power, power)
    assert spectra.power.flags.c_contiguous


def test_batch_periodogram_matches_on_a_strided_view(rng):
    wide = rng.normal(size=(6, 2 * 481))
    view = wide[::2, ::2]
    freqs, power = reference_periodogram(view, 30.0 / 7.0)
    spectra = batch_periodogram(view, 30.0 / 7.0)
    assert same_bits(spectra.frequencies, freqs) and same_bits(spectra.power, power)


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("n", LENGTHS)
def test_frequency_axis_matches_rfftfreq(n, interval):
    assert same_bits(psd._rfft_frequencies(n, interval), np.fft.rfftfreq(n, d=interval))


@pytest.mark.parametrize("n", LENGTHS)
def test_detrend_matches_the_unhoisted_fit(rng, n):
    matrix = awkward_rows(rng, n)
    with np.errstate(invalid="ignore"):
        got = batch._remove_linear_trend_rows(matrix)
        want = reference_detrend(matrix)
    assert same_bits(got, want)
    x = np.arange(n, dtype=np.float64)
    x_centered, denominator = batch._detrend_axis(n)
    assert same_bits(x_centered, x - x.mean())
    assert denominator == float(np.sum((x - x.mean()) ** 2))


@pytest.mark.parametrize("n", LENGTHS[1:])
def test_taper_and_scale_match_window_and_energy(n):
    taper, scale = batch._taper_and_scale("hann", n)
    assert same_bits(taper, np.hanning(n))
    assert scale == n * taper_energy(np.hanning(n))


def test_degenerate_taper_still_raises():
    with pytest.raises(ValueError, match="degenerate tapered window"):
        batch._taper_and_scale("hann", 2)


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("n", LENGTHS)
def test_time_grid_and_diurnal_component_match(n, interval):
    times = np.arange(n) * interval
    assert same_bits(time_grid(n * interval, interval), times)
    base = 2.0 * math.pi * times / 86400.0
    want = 1.5 * (np.sin(base + 0.7) + 0.25 * np.sin(2.0 * base + 0.7))
    assert same_bits(diurnal_component(n, interval, 1.5, phase=0.7), want)


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("rows", LENGTHS)
@pytest.mark.parametrize("transform, reference", [
    (DIURNAL, reference_diurnal_cycle),
    (REGIME, reference_regime_shift),
    (FLAP, reference_flapping_regime),
], ids=["diurnal", "regime-shift", "flapping"])
def test_periodic_transforms_match_the_unhoisted_apply(rng, transform, reference, rows,
                                                       interval):
    values = rng.normal(size=rows) * 40.0
    values[::3] = -0.0
    assert same_bits(transform.apply(values, interval, "m", "d"),
                     reference(transform, values, interval))
    zeros = np.full(rows, -0.0)
    assert same_bits(transform.apply(zeros, interval, "m", "d"),
                     reference(transform, zeros, interval))


@pytest.mark.parametrize("amplitude", [0.0, 1.5])
@pytest.mark.parametrize("bandwidth", [-1.0, 0.0, 1e-9, 2e-3, 0.05, 1.0, math.inf, math.nan])
@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("n", LENGTHS)
def test_band_limited_component_matches_the_masked_spectrum(n, interval, bandwidth, amplitude):
    got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
    got = band_limited_component(n, interval, bandwidth, amplitude, got_rng)
    want = reference_band_limited(n, interval, bandwidth, amplitude, want_rng)
    assert same_bits(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("n", LENGTHS)
def test_band_weights_match_the_inverse_sqrt(n, interval):
    freqs = np.fft.rfftfreq(n, d=interval)[1:]
    assert same_bits(common._band_weights(n, interval), 1.0 / np.sqrt(freqs / freqs[0]))


BOUNDS = [(0.0, 100.0), (10.0, 95.0), (0.0, None), (None, 40.0), (None, None)]


@pytest.mark.parametrize("noise_std", [0.0, 0.3])
@pytest.mark.parametrize("bounds", BOUNDS, ids=[repr(b) for b in BOUNDS])
@pytest.mark.parametrize("step", [1.0, 0.5, 0.1])
def test_finalize_trace_matches_clip_and_round(rng, step, bounds, noise_std):
    spec = dataclasses.replace(METRIC_CATALOG["Temperature"], quantization_step=step,
                               minimum=bounds[0], maximum=bounds[1])
    params = MetricParameters(bandwidth_hz=1e-3, level=40.0, amplitude=30.0,
                              noise_std=noise_std, broadband=False,
                              burst_rate_per_day=1.0, seed=1)
    values = rng.normal(size=721) * 60.0 + 40.0
    values[::5] = -0.0
    values[3::7] = 0.05
    before = values.copy()
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = finalize_trace(values, spec, params, 30.0, got_rng, "d")
    assert same_bits(values, before)
    assert same_bits(got.values, reference_finalize(values, spec, params, want_rng))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


PROBE_SHAPES = [(48, 3.0, 96, 2.0), (64, 3.0, 96, 2.0), (400, 3.0, 64, 2.0),
                (33, 3.0, 17, 2.0), (MIN_SAMPLES, 48.0, MIN_SAMPLES + 1, 30.0),
                (45, 30.0 / 7.0, 72, 7.5 / 2.8)]


@pytest.mark.parametrize("slow_n, slow_interval, fast_n, fast_interval", PROBE_SHAPES)
def test_common_band_columns_match_the_band_masks(slow_n, slow_interval, fast_n,
                                                   fast_interval):
    slow = batch_periodogram(np.ones((1, slow_n)), slow_interval)
    fast = batch_periodogram(np.ones((1, fast_n)), fast_interval)
    slow_cols, fast_cols, band_edge = aliasing._common_band_columns(
        slow_n, slow_interval, fast_n, fast_interval)
    want_slow, want_fast, want_edge = reference_common_band(slow, fast)
    assert band_edge == want_edge
    assert same_bits(slow.frequencies[slow_cols], want_slow.frequencies)
    assert same_bits(fast.frequencies[fast_cols], want_fast.frequencies)


@pytest.mark.parametrize("slow_n, slow_interval, fast_n, fast_interval", PROBE_SHAPES)
def test_check_rows_matches_compare_spectra_batch(slow_n, slow_interval, fast_n,
                                                  fast_interval):
    rng = np.random.default_rng(slow_n + fast_n)
    slow = rng.normal(size=(6, slow_n)).cumsum(axis=1)
    fast = rng.normal(size=(6, fast_n)).cumsum(axis=1)
    slow[4] = 0.0
    aliased, discrepancy, band_edge = DualRateAliasingDetector().check_rows(
        slow, slow_interval, fast, fast_interval)
    want, want_edge = compare_spectra_batch(batch_periodogram(slow, slow_interval),
                                            batch_periodogram(fast, fast_interval))
    assert same_bits(discrepancy, want) and band_edge == want_edge


@pytest.mark.parametrize("bins", [1, 2, 3, 4, 5, 64, 65])
def test_median_plan_matches_the_quantile_indices(rng, bins):
    kth, low, high, weight = noise._median_plan(bins)
    want_low = -1 if bins == 1 else (bins - 1) // 2
    want_high = -1 if bins == 1 else want_low + 1
    assert (low, high) == (want_low, want_high)
    assert same_bits(kth, np.unique([0, -1, want_low, want_high]))
    assert weight == (1.0 if bins == 1 else 0.0 if bins % 2 else 0.5)
    power = rng.exponential(size=(5, bins))
    power[1, 0] = np.nan
    with np.errstate(invalid="ignore"):
        assert same_bits(noise.noise_floor_estimates(power), np.quantile(power, 0.5, axis=-1))


# --- Cached arrays are shared read-only, caches stay bounded ----------

def cached_arrays(n: int, interval: float) -> list[np.ndarray]:
    return [
        psd._rfft_frequencies(n, interval),
        psd._hann(n),
        batch._detrend_axis(n)[0],
        batch._taper_and_scale("hann", n)[0],
        common._time_grid(n, interval),
        *common._diurnal_base(n, interval),
        common._band_weights(n, interval),
        noise._median_plan(n)[0],
        transforms._diurnal_carrier(DIURNAL, n, interval),
        transforms._regime_carrier(REGIME, n, interval),
        *transforms._flap_carrier_and_duty(FLAP, n, interval),
    ]


@pytest.mark.parametrize("interval", INTERVALS)
def test_cached_arrays_are_read_only(interval):
    for array in cached_arrays(MIN_SAMPLES + 1, interval):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        batch_periodogram(np.ones((1, 8)), interval).frequencies[0] = 1.0


def test_caches_stay_within_maxsize():
    caches = [psd._rfft_frequencies, psd._hann, batch._detrend_axis, batch._taper_and_scale,
              common._time_grid, common._diurnal_base, common._band_weights,
              noise._median_plan, aliasing._common_band_columns, transforms._diurnal_carrier,
              transforms._regime_carrier, transforms._flap_carrier_and_duty]
    for n in range(MIN_SAMPLES, MIN_SAMPLES + 200):
        cached_arrays(n, 7.5)
        aliasing._common_band_columns(n, 12.0, n + 7, 7.5)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
