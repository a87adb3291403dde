"""repro: reproduction of "Towards a Cost vs. Quality Sweet Spot for Monitoring Networks".

The library treats datacenter monitoring metrics as sampled signals and
provides:

* :mod:`repro.core` -- Nyquist-rate estimation from traces (§3.2), dual-
  frequency aliasing detection (§4.1), an adaptive sampling controller
  (§4.2), low-pass reconstruction (§4.3) and the §6 ergodicity
  extension.
* :mod:`repro.signals` -- the time-series substrate (containers, spectra,
  generators, noise, filters).
* :mod:`repro.telemetry` -- synthetic production telemetry for the 14
  metric families of the paper's survey, standing in for the proprietary
  traces.
* :mod:`repro.network` -- datacenter topologies, monitoring deployments and
  the collection/transmission/storage/analysis cost model.
* :mod:`repro.pipeline` -- sampling policies (fixed-rate baseline,
  Nyquist-static, adaptive) and the cost-vs-quality evaluator.
* :mod:`repro.analysis` -- the fleet survey (Figures 1, 4, 5) and reporting
  helpers.
* :mod:`repro.faults` -- fault-isolated execution (bounded retry, broken-
  pool recovery, quarantine failure records) and the seeded deterministic
  fault-injection (chaos) layer.
* :mod:`repro.scenarios` -- adversarial workload transforms (regime
  shifts, counter pathologies, blackout/backfill) and the
  (scenario x fabric x policy) matrix harness that maps where the
  paper's cost ordering holds and where it inverts.

Quickstart::

    from repro.signals import generators
    from repro.core import estimate_nyquist_rate

    trace = generators.multi_tone([0.001, 0.004], duration=6 * 3600, sampling_rate=1.0)
    estimate = estimate_nyquist_rate(trace)
    print(estimate.nyquist_rate, estimate.reduction_ratio)
"""

from . import analysis, core, faults, network, pipeline, scenarios, signals, telemetry
from .core import (AdaptiveSamplingController, ControllerConfig, DualRateAliasingDetector,
                   NyquistEstimate, NyquistEstimator, estimate_nyquist_rate,
                   nyquist_round_trip)
from .faults import BatchExecutionError, FaultInjectingTraceSource, FaultPlan
from .signals import IrregularTimeSeries, Spectrum, TimeSeries

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "signals", "core", "telemetry", "network", "pipeline", "analysis", "faults",
    "scenarios",
    "TimeSeries", "IrregularTimeSeries", "Spectrum",
    "NyquistEstimator", "NyquistEstimate", "estimate_nyquist_rate",
    "nyquist_round_trip", "AdaptiveSamplingController", "ControllerConfig",
    "DualRateAliasingDetector",
    "FaultPlan", "FaultInjectingTraceSource", "BatchExecutionError",
]
