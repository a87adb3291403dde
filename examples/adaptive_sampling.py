"""Adaptive sampling: tracking a metric whose Nyquist rate changes over time.

The paper's Section 4.2 uses a flapping link (a burst of FCS errors) as the
motivating scenario: the metric is quiet for hours, then an episode makes
it vary quickly, then it quiets down again.  A fixed sampling rate must be
provisioned for the worst case; the adaptive controller probes with
dual-frequency sampling, ramps up when aliasing is detected and backs off
afterwards.

This example builds such a trace explicitly (quiet -> fast oscillation ->
quiet), runs the controller, and prints the per-window sampling decisions
(the Figure 7 view) plus the cost comparison against always sampling at the
rate the busy period needs.

Run with:  python examples/adaptive_sampling.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.core import ControllerConfig
from repro.pipeline import AdaptiveDualRatePolicy
from repro.signals import TimeSeries
from repro.signals.generators import multi_tone
from repro.signals.noise import add_white_noise


def build_flap_trace(rng: np.random.Generator) -> TimeSeries:
    """A 24 h FCS-error-like signal: quiet, then a 6 h fast-varying episode, then quiet."""
    rate = 1.0 / 5.0           # reference sampled every 5 s
    quiet_a = multi_tone([1.0 / 7200.0], duration=9 * 3600.0, sampling_rate=rate,
                         amplitudes=[2.0], offset=3.0)
    busy = multi_tone([1.0 / 7200.0, 1.0 / 120.0], duration=4 * 3600.0, sampling_rate=rate,
                      amplitudes=[2.0, 8.0], offset=12.0)
    quiet_b = multi_tone([1.0 / 7200.0], duration=11 * 3600.0, sampling_rate=rate,
                         amplitudes=[2.0], offset=3.0)
    trace = quiet_a.concatenate(busy).concatenate(quiet_b).with_name("fcs-errors/flap")
    return add_white_noise(trace, std=0.01, rng=rng)


def main() -> None:
    rng = np.random.default_rng(11)
    reference = build_flap_trace(rng)
    print(f"Reference trace: {len(reference)} samples over {reference.duration / 3600:.0f} h "
          f"(sampled every {reference.interval:g} s)")

    config = ControllerConfig(
        initial_rate=1.0 / 1800.0,      # start polling twice an hour
        max_rate=reference.sampling_rate,
        probe_multiplier=3.0,
        headroom=1.3,
        aliasing_check_interval=2,      # dual-frequency check every other window
    )
    policy = AdaptiveDualRatePolicy(window_duration=3600.0, config=config)
    run = policy.run_controller(reference)

    rows = [{
        "hour": f"{decision.window_start / 3600.0:04.1f}",
        "mode": decision.mode.value,
        "rate (1/s)": decision.sampling_rate,
        "samples": decision.samples_collected,
        "aliased": decision.aliased,
        "inferred Nyquist (Hz)": decision.nyquist_estimate,
    } for decision in run.decisions]
    print()
    print(format_table(rows))

    # Cost comparison: the busy period needs sampling at twice the 1/120 Hz
    # oscillation; a fixed-rate system provisioned for that pays it all day.
    busy_rate = 2.0 * (1.0 / 120.0) * config.headroom
    fixed_samples = int(reference.duration * busy_rate)
    print()
    print(f"Fixed-rate system provisioned for the busy period: {fixed_samples} samples/day")
    print(f"Adaptive controller collected:                     {run.total_samples_collected} samples/day")
    print(f"Saving: {fixed_samples / max(run.total_samples_collected, 1):.1f}x")

    # The policy scores its collected stream the way the fleet policy survey does.
    evaluation = policy.evaluate_batch(reference.values[None, :], reference.interval)
    print(f"Reconstruction NRMSE against the full-rate reference: {evaluation.nrmse[0]:.3f}")


if __name__ == "__main__":
    main()
