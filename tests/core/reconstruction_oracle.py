"""Unfused reference of the policy pipeline's reconstruction-error kernel.

The library scores every collected group with one fused call,
:func:`repro.core.reconstruction.reconstruction_error_batch`, which
reconstructs and scores inside a scratch buffer.  The three functions
here do the same in separate, freshly allocated steps -- zero-pad the
spectrum, inverse-transform, scale, then compare -- so the fused kernel
has an independent reference to be checked against bit for bit:
``compare_batch(reference, reconstruct_batch(collected, interval, rate))``.

Tests import these as ``from reconstruction_oracle import ...``; pytest
puts this directory on ``sys.path`` for the test modules beside it.
"""

from __future__ import annotations

import numpy as np


def fourier_resample_matrix(values: np.ndarray, target_length: int) -> np.ndarray:
    """Row-wise :func:`~repro.core.resampling.fourier_resample` over a ``(rows, n)`` matrix."""
    if values.ndim != 2:
        raise ValueError(f"values must be a (rows, n) matrix, got shape {values.shape}")
    n = values.shape[1]
    if target_length < 1:
        raise ValueError("target_length must be >= 1")
    if n == 0:
        raise ValueError("cannot resample empty rows")
    if target_length == n:
        return values
    spectrum = np.fft.rfft(values, axis=-1)
    target_bins = target_length // 2 + 1
    new_spectrum = np.zeros((values.shape[0], target_bins), dtype=np.complex128)
    copy = min(spectrum.shape[1], target_bins)
    new_spectrum[:, :copy] = spectrum[:, :copy]
    # Same even-length Nyquist-bin split as the scalar interpolator.
    if target_length > n and n % 2 == 0 and copy == spectrum.shape[1]:
        new_spectrum[:, copy - 1] *= 0.5
    return np.fft.irfft(new_spectrum, n=target_length, axis=-1) * (target_length / n)


def reconstruct_batch(values: np.ndarray, interval: float,
                      original_rate: float) -> np.ndarray:
    """Row-wise :func:`~repro.core.reconstruction.reconstruct` over a ``(rows, m)`` matrix."""
    if original_rate <= 0:
        raise ValueError("original_rate must be positive")
    if values.ndim != 2:
        raise ValueError(f"values must be a (rows, m) matrix, got shape {values.shape}")
    duration = values.shape[1] * interval
    target_length = max(int(round(duration * original_rate)), 1)
    return fourier_resample_matrix(values, target_length)


def compare_batch(original: np.ndarray,
                  reconstructed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``(nrmse, max_abs)`` of :func:`~repro.core.errors.compare`."""
    if original.ndim != 2 or reconstructed.ndim != 2:
        raise ValueError("compare_batch expects (rows, n) matrices")
    if original.shape[0] != reconstructed.shape[0]:
        raise ValueError("row counts differ")
    n = min(original.shape[1], reconstructed.shape[1])
    if n == 0:
        raise ValueError("cannot compare empty series")
    a = original[:, :n]
    diff = a - reconstructed[:, :n]
    rmse_rows = np.sqrt(np.mean(diff ** 2, axis=1))
    value_range = np.max(a, axis=1) - np.min(a, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        nrmse_rows = np.where(
            value_range == 0,
            np.where(rmse_rows == 0, 0.0, np.nan),
            rmse_rows / np.where(value_range == 0, 1.0, value_range))
    max_abs_rows = np.max(np.abs(diff), axis=1)
    return nrmse_rows, max_abs_rows
