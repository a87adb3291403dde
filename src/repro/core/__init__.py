"""Core algorithms: the paper's primary contribution.

* :mod:`repro.core.psd` -- the periodogram PSD (scalar and batched).
* :mod:`repro.core.nyquist` -- the Section 3.2 Nyquist-rate estimator.
* :mod:`repro.core.batch` -- the batched spectral engine: the same
  estimator over a ``(rows, n)`` trace matrix with vectorised numpy calls.
* :mod:`repro.core.aliasing` -- dual-frequency aliasing detection (Section 4.1).
* :mod:`repro.core.adaptive` -- the dynamic sampling controller (Section 4.2).
* :mod:`repro.core.reconstruction` -- low-pass reconstruction (Section 4.3).
* :mod:`repro.core.resampling` -- pre-cleaning, down/up-sampling.
* :mod:`repro.core.quantization` -- quantisers and quantisation noise.
* :mod:`repro.core.windowed` -- moving-window Nyquist inference (Figure 7).
* :mod:`repro.core.ergodicity` -- the Section 6 "beyond Nyquist" ergodicity
  extension.
"""

from .adaptive import (AdaptiveRun, AdaptiveSamplingController, ControllerConfig,
                       ControllerMode, ModeTransition, WindowDecision)
from .batch import batch_estimate
from .aliasing import AliasingVerdict, DualRateAliasingDetector, compare_spectra
from .errors import ReconstructionError, compare, max_abs_error, nrmse, rmse
from .ergodicity import (ErgodicityReport, ensemble_statistics, ergodicity_gap,
                         ergodicity_report, minimum_canary_size, time_statistics)
from .nyquist import ALIASED_SENTINEL, NyquistEstimate, NyquistEstimator, estimate_nyquist_rate
from .psd import batch_periodogram, periodogram
from .quantization import UniformQuantizer
from .reconstruction import RoundTripResult, nyquist_round_trip, reconstruct, upsample_to_length
from .resampling import (downsample, fourier_resample, nearest_neighbor_resample, regularize,
                         resample_to_rate)
from .windowed import (FIGURE7_STEP_SECONDS, FIGURE7_WINDOW_SECONDS, WindowedEstimate,
                       rate_stability, windowed_nyquist_rates)

__all__ = [
    # nyquist
    "ALIASED_SENTINEL", "NyquistEstimate", "NyquistEstimator",
    "estimate_nyquist_rate",
    # psd / batch
    "periodogram", "batch_periodogram", "batch_estimate",
    # aliasing
    "AliasingVerdict", "DualRateAliasingDetector", "compare_spectra",
    # adaptive
    "AdaptiveSamplingController", "ControllerConfig", "ControllerMode",
    "AdaptiveRun", "WindowDecision", "ModeTransition",
    # reconstruction / errors
    "RoundTripResult", "nyquist_round_trip", "reconstruct", "upsample_to_length",
    "ReconstructionError", "compare", "rmse", "nrmse", "max_abs_error",
    # resampling
    "regularize", "nearest_neighbor_resample", "downsample", "resample_to_rate",
    "fourier_resample",
    # quantization
    "UniformQuantizer",
    # windowed
    "WindowedEstimate", "windowed_nyquist_rates", "rate_stability",
    "FIGURE7_WINDOW_SECONDS", "FIGURE7_STEP_SECONDS",
    # ergodicity
    "ErgodicityReport", "ensemble_statistics", "time_statistics", "ergodicity_gap",
    "ergodicity_report", "minimum_canary_size",
]
