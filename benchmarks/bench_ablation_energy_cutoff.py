"""Ablation of the 99% energy cut-off (and the DC-handling choice).

Section 3.2: "Our choice of the 99% cut-off on total energy is a workaround
to compensate for measurement noise.  Using a higher parameter value such
as 99.99% would increase our estimate of the Nyquist rate and reduce
performance gains but, in our experience, does not necessarily lead to a
lower reconstruction error since the delta that is being captured is often
just the noise."

This bench sweeps the cut-off (and the include-DC switch, whose rationale
is the ``include_dc`` entry of the ``NyquistEstimator`` docstring) over a
set of noisy temperature/link-utilisation traces and reports, for each
setting, the median estimated rate, the median achievable reduction and
the reconstruction error after a Nyquist round trip -- verifying the
paper's argument that the extra rate bought by a stricter cut-off does not
buy lower error.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table, write_csv
from repro.core.nyquist import NyquistEstimator
from repro.core.reconstruction import nyquist_round_trip
from repro.telemetry.metrics import METRIC_CATALOG
from repro.telemetry.models import generate_trace
from repro.telemetry.profiles import DeviceProfile, DeviceRole, draw_metric_parameters

ENERGY_FRACTIONS = [0.95, 0.99, 0.999, 0.9999]
TRACES_PER_METRIC = 4


def build_traces(seed: int = 41):
    traces = []
    for metric_name in ("Temperature", "Link util"):
        spec = METRIC_CATALOG[metric_name]
        for index in range(TRACES_PER_METRIC):
            device = DeviceProfile(f"ablate-{metric_name}-{index}", DeviceRole.TOR_SWITCH,
                                   seed=seed + index)
            params = draw_metric_parameters(spec, device, 86400.0, broadband_fraction=0.0,
                                            rng=np.random.default_rng(seed + index))
            traces.append(generate_trace(spec, params, 86400.0,
                                         rng=np.random.default_rng(seed + index)))
    return traces


def sweep(traces):
    rows = []
    for include_dc in (False, True):
        for fraction in ENERGY_FRACTIONS:
            estimator = NyquistEstimator(energy_fraction=fraction, include_dc=include_dc)
            rates, ratios, errors = [], [], []
            for trace in traces:
                estimate = estimator.estimate(trace)
                if not estimate.reliable:
                    continue
                result = nyquist_round_trip(trace, estimator=estimator, headroom=1.5)
                rates.append(estimate.nyquist_rate)
                ratios.append(estimate.reduction_ratio)
                errors.append(result.error.nrmse)
            rows.append({
                "include_dc": include_dc,
                "energy_fraction": fraction,
                "reliable_traces": len(rates),
                "median_nyquist_hz": float(np.median(rates)) if rates else float("nan"),
                "median_reduction": float(np.median(ratios)) if ratios else float("nan"),
                "median_nrmse": float(np.median(errors)) if errors else float("nan"),
            })
    return rows


def test_ablation_energy_cutoff(benchmark, output_dir):
    traces = build_traces()
    rows = benchmark.pedantic(sweep, args=(traces,), rounds=1, iterations=1)
    write_csv(output_dir / "ablation_energy_cutoff.csv", rows)

    print("\n=== Ablation: energy cut-off (and DC handling) ===")
    print(format_table(rows))

    no_dc = {row["energy_fraction"]: row for row in rows if not row["include_dc"]}
    # A stricter cut-off estimates a rate at least as high and therefore
    # saves less (paper's point 1)...
    assert no_dc[0.9999]["median_nyquist_hz"] >= no_dc[0.99]["median_nyquist_hz"] - 1e-12
    assert no_dc[0.9999]["median_reduction"] <= no_dc[0.99]["median_reduction"] + 1e-9
    assert no_dc[0.9999]["median_reduction"] <= 0.6 * no_dc[0.99]["median_reduction"]
    # ...while the 99% setting is already accurate enough that the extra
    # fidelity is not needed (the paper's point 2: the delta bought by a
    # stricter threshold is largely noise/quantisation detail).
    assert no_dc[0.99]["median_nrmse"] < 0.06
    # Including the DC bin makes the cut-off collapse towards the lowest
    # frequencies (why NyquistEstimator excludes it by default; see its
    # ``include_dc`` docs).
    with_dc = {row["energy_fraction"]: row for row in rows if row["include_dc"]}
    assert with_dc[0.99]["median_nyquist_hz"] <= no_dc[0.99]["median_nyquist_hz"] + 1e-12
