import math

import numpy as np
import pytest

from envcorr import montecarlo, states
from envcorr.channel import ChannelParams, Detector, TapConfig, signal_tap_state
from envcorr.feedforward import receiver_added_noise
from envcorr.herald import (
    HeraldNoYieldError,
    HeraldWindow,
    heralded_statistics,
    scaled_window,
    tap_outcome_std,
    zero_window_added_noise,
    zero_window_gain,
)

from conftest import grid_points


def sharp_conditioned_signal(ch, tap, input_mean):
    """Oracle: sharp dual-quadrature conditioning of the signal on the tap mode."""
    pair = signal_tap_state(ch, tap, states.coherent(*input_mean))
    cond, _ = states.condition_homodyne(pair, 1, "x", 0.0)
    cond, _ = states.condition_homodyne(cond, 1, "p", 0.0)
    return states.partial_trace(cond, [0])


class TestWindow:
    def test_accept_logic(self):
        # a trajectory is kept iff |x_tap| <= x_th and |p_tap| <= p_th
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.7)
        batch = montecarlo.sample(ch, tap, (0.0, 0.0), None, 20_000, 5)
        x, p = np.abs(batch.column("x_tap")), np.abs(batch.column("p_tap"))
        for window in ((1.0, math.inf), (1.0, 0.4), (x[0], p[0])):
            out = montecarlo.windowed_moments(ch, tap, (0.0, 0.0), window, 20_000, 5)
            assert out.n_accepted == np.sum((x <= window[0]) & (p <= window[1]))
        # boundaries are inside the window: trajectory 0 sits on both
        assert out.n_accepted > np.sum((x < x[0]) & (p < p[0]))

    def test_negative_half_width_rejected(self):
        with pytest.raises(ValueError):
            HeraldWindow(-0.1, 1.0)

    def test_nan_half_width_rejected(self):
        with pytest.raises(ValueError):
            HeraldWindow(1.0, math.nan)
        HeraldWindow(math.inf, math.inf)

    def test_scaled_window_uses_readout_std(self):
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.7)
        sx, sp = tap_outcome_std(ch, tap)
        tapped = 0.7 * (0.1 + 0.9 * 25.0) + 0.3
        assert sx == pytest.approx(math.sqrt((tapped + 1) / 2), abs=1e-12)
        assert sx == sp
        w = scaled_window(ch, tap, 0.5)
        assert w.x_th == pytest.approx(0.5 * sx)


class TestZeroWindowForms:
    def test_reference_values(self):
        ch = ChannelParams(0.9, 25.0)
        assert zero_window_added_noise(ch, TapConfig(1.0)) == pytest.approx(
            1.0 / 225.0, abs=1e-12
        )
        # no tap: collapses to the uncorrected channel figures
        assert zero_window_added_noise(ch, TapConfig(0.0)) == pytest.approx(25.0 / 9.0)
        assert zero_window_gain(ch, TapConfig(0.0)) == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("gamma", (0.0, 0.3, 0.7, 1.0))
    def test_vacuum_environment_gain_is_transmission(self, gamma):
        ch = ChannelParams(0.6, 1.0)
        assert zero_window_gain(ch, TapConfig(gamma)) == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("eta,gamma,v", grid_points())
    def test_always_below_uncorrected(self, eta, gamma, v):
        ch, tap = ChannelParams(eta, v), TapConfig(gamma)
        bare = (1 - eta) / eta * v
        value = zero_window_added_noise(ch, tap)
        if gamma > 0.0 and v > 1.0:
            assert value < bare
        else:
            assert value == pytest.approx(bare, abs=1e-12)

    @pytest.mark.parametrize("eta,gamma,v", grid_points())
    def test_matches_sharp_conditioning_oracle(self, eta, gamma, v):
        ch, tap = ChannelParams(eta, v), TapConfig(gamma)
        sig = sharp_conditioned_signal(ch, tap, (3.0, -2.0))
        gain = zero_window_gain(ch, tap)
        assert (sig.mean[0] / 3.0) ** 2 == pytest.approx(gain, abs=1e-10)
        assert (sig.mean[1] / -2.0) ** 2 == pytest.approx(gain, abs=1e-10)
        implied_noise = (sig.cov[0, 0] - gain) / gain
        assert implied_noise == pytest.approx(
            zero_window_added_noise(ch, tap), abs=1e-10
        )

    def test_gain_agrees_with_conditional_mean_slope(self):
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.5)
        sig = sharp_conditioned_signal(ch, tap, (1.0, 1.0))
        assert sig.mean[0] ** 2 == pytest.approx(zero_window_gain(ch, tap), abs=1e-10)


class TestHeraldedStatistics:
    def test_bit_reproducible(self):
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.7)
        w = scaled_window(ch, tap, 1.0)
        a = heralded_statistics(ch, tap, w, 50_000, 31)
        b = heralded_statistics(ch, tap, w, 50_000, 31)
        assert a == b

    def test_worker_count_invariance(self):
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.7)
        w = scaled_window(ch, tap, 1.0)
        a = heralded_statistics(ch, tap, w, 60_000, 7, workers=1)
        b = heralded_statistics(ch, tap, w, 60_000, 7, workers=4)
        assert a == b

    def test_open_window_matches_unselected_receiver(self):
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.7)
        res = heralded_statistics(
            ch, tap, HeraldWindow(math.inf, math.inf), 400_000, 11
        )
        assert res.success_prob == 1.0
        expected = receiver_added_noise(ch, tap, False)
        assert abs(res.added_noise_x - expected) < 5 * res.added_noise_x_stderr
        assert abs(res.added_noise_p - expected) < 5 * res.added_noise_p_stderr
        assert abs(res.gain - ch.eta) < 5 * res.gain_stderr

    def test_success_probability_shrinks_with_window(self):
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.7)
        probs = [
            heralded_statistics(ch, tap, scaled_window(ch, tap, s), 50_000, 5).success_prob
            for s in (2.0, 1.0, 0.5)
        ]
        assert probs[0] > probs[1] > probs[2]

    def test_no_yield_raises(self):
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.7)
        with pytest.raises(HeraldNoYieldError) as err:
            heralded_statistics(ch, tap, HeraldWindow(1e-6, 1e-6), 10_000, 3)
        assert err.value.success_prob == 0.0

    def test_requires_heterodyne_tap(self):
        ch = ChannelParams(0.9, 25.0)
        with pytest.raises(ValueError):
            heralded_statistics(
                ch, TapConfig(0.7, Detector.HOMODYNE_X), HeraldWindow(1, 1), 10_000, 1
            )

    def test_minimum_sample_count(self):
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.7)
        with pytest.raises(ValueError):
            heralded_statistics(ch, tap, HeraldWindow(1, 1), 100, 1)

    def test_small_window_approaches_measured_value_conditioning(self):
        # the physical zero-window limit is heterodyne conditioning on the
        # pre-detector tap mode; checked loosely here, tightly in acceptance
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.7)
        pair = signal_tap_state(ch, tap, states.coherent(6.0, 6.0))
        cond, _ = states.condition_heterodyne(pair, 1, (0.0, 0.0))
        gain_pred = (cond.mean[0] / 6.0) ** 2
        noise_pred = (cond.cov[0, 0] + 1.0 - gain_pred) / gain_pred
        res = heralded_statistics(ch, tap, scaled_window(ch, tap, 0.08), 2_000_000, 17)
        assert abs(res.added_noise_x - noise_pred) < 5 * res.added_noise_x_stderr
        assert abs(res.gain - gain_pred) < 5 * res.gain_stderr
