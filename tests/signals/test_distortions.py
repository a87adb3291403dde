"""Unit tests for the counter-wrap, reboot and blackout distortions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.signals.distortions import (apply_data_fault, blackout_backfill, counter_wrap,
                                       reboot_window, window_bounds)


@pytest.fixture
def ramp() -> np.ndarray:
    return np.arange(10.0, 20.0)


class TestCounterWrap:
    def test_rebaselines_from_the_wrap_to_the_first_level(self, ramp):
        wrapped = counter_wrap(ramp, 4)
        np.testing.assert_array_equal(wrapped[:4], ramp[:4])
        np.testing.assert_array_equal(wrapped[4:], ramp[4:] - 4.0)
        # The differences a poller derives rates from survive the wrap.
        np.testing.assert_array_equal(np.diff(wrapped[4:]), np.diff(ramp[4:]))

    def test_wrap_at_the_end_is_identity_and_copies(self, ramp):
        wrapped = counter_wrap(ramp, len(ramp))
        np.testing.assert_array_equal(wrapped, ramp)
        assert wrapped is not ramp

    @pytest.mark.parametrize("position", [-1, 11])
    def test_rejects_position_outside_the_trace(self, ramp, position):
        with pytest.raises(ValueError, match="outside the trace"):
            counter_wrap(ramp, position)


class TestWindows:
    def test_reboot_pins_the_window_to_the_boot_level(self, ramp):
        rebooted = reboot_window(ramp, 3, 2)
        np.testing.assert_array_equal(rebooted, [10, 11, 12, 10, 10, 15, 16, 17, 18, 19])

    def test_blackout_flattens_the_window_to_its_first_value(self, ramp):
        backfilled = blackout_backfill(ramp, 3, 2)
        np.testing.assert_array_equal(backfilled, [10, 11, 12, 13, 13, 15, 16, 17, 18, 19])

    def test_input_is_never_mutated(self, ramp):
        original = ramp.copy()
        counter_wrap(ramp, 5)
        reboot_window(ramp, 2, 3)
        blackout_backfill(ramp, 2, 3)
        np.testing.assert_array_equal(ramp, original)

    def test_window_bounds_clip_to_the_trace(self):
        assert window_bounds(10, 8, 5) == (8, 10)
        assert window_bounds(10, 50, 5) == (9, 10)
        assert window_bounds(0, 3, 2) == (0, 0)

    @pytest.mark.parametrize("start, width, message", [(-1, 2, "start"), (0, 0, "width")])
    def test_window_bounds_reject_bad_placement(self, start, width, message):
        with pytest.raises(ValueError, match=message):
            window_bounds(10, start, width)


class TestApplyDataFault:
    @pytest.mark.parametrize("kind", ["counter-wrap", "device-reboot", "blackout"])
    def test_same_seed_lands_on_the_same_samples(self, ramp, kind):
        first = apply_data_fault(kind, ramp, np.random.default_rng(7))
        second = apply_data_fault(kind, ramp, np.random.default_rng(7))
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, ramp)

    def test_rejects_unknown_kind(self, ramp):
        with pytest.raises(ValueError, match="unknown data fault kind"):
            apply_data_fault("bit-flip", ramp, np.random.default_rng(0))

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_rejects_bad_window_fraction(self, ramp, fraction):
        with pytest.raises(ValueError, match="window_fraction"):
            apply_data_fault("blackout", ramp, np.random.default_rng(0), window_fraction=fraction)
