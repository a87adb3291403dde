"""The per-shape constants equal the expressions they replace, bit for bit.

Arrays that depend only on a trace's shape -- time grids, frequency
axes, the detrend axis, tapers, scenario carriers and duty factors --
are built once per shape by small ``lru_cache`` helpers and shared.
Each result here is compared by ``tobytes()`` with the un-hoisted
expression it replaced, over odd and even lengths (down to two samples
and ``MIN_SAMPLES``), a dyadic and a non-dyadic interval, and rows of
NaN, +-inf and -0.0.  Every cached array must be read-only, and every
cache must stay within its ``maxsize``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import batch, psd
from repro.core.nyquist import MIN_SAMPLES
from repro.core.psd import batch_periodogram, taper_energy
from repro.faults import stable_digest
from repro.scenarios import transforms
from repro.scenarios.transforms import DiurnalCycle, FlappingRegime, RegimeShift
from repro.telemetry.models import common
from repro.telemetry.models.common import diurnal_component, time_grid

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


def phase_of(transform, kind: str) -> float:
    return 2.0 * math.pi * (stable_digest(transform.seed, kind, "m", "d")
                            / 2.0 ** 64)


def reference_diurnal_cycle(transform: DiurnalCycle, values: np.ndarray,
                            interval: float) -> np.ndarray:
    t = np.arange(values.shape[0]) * interval
    return values * (1.0 + transform.amplitude * np.sin(
        2.0 * math.pi * t / transform.period + phase_of(transform, "diurnal-phase")))


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
        2.0 * math.pi * frequency * t + phase_of(transform, "regime-phase"))
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
                    * np.sin(2.0 * math.pi * frequency * t + phase_of(transform, "flap-phase"))
                    * active)
    return out


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


# --- Cached arrays are shared read-only, caches stay bounded ----------

def cached_arrays(n: int, interval: float) -> list[np.ndarray]:
    return [
        psd._rfft_frequencies(n, interval),
        psd._hann(n),
        batch._detrend_axis(n)[0],
        batch._taper_and_scale("hann", n)[0],
        common._time_grid(n, interval),
        *common._diurnal_base(n, interval, 86400.0),
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
              common._time_grid, common._diurnal_base, transforms._diurnal_carrier,
              transforms._regime_carrier, transforms._flap_carrier_and_duty]
    for n in range(MIN_SAMPLES, MIN_SAMPLES + 200):
        cached_arrays(n, 7.5)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
