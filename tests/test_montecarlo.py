import numpy as np
import pytest
from scipy import stats as scipy_stats

from envcorr import montecarlo
from envcorr.channel import ChannelParams, Detector, TapConfig
from envcorr.feedforward import (
    plan_erasing_heterodyne,
    plan_erasing_homodyne,
    receiver_added_noise,
)
from envcorr.herald import heralded_statistics, scaled_window, zero_window_added_noise, zero_window_gain
from envcorr.montecarlo import (
    COLUMNS,
    TrajectoryBatch,
    estimate_added_noise,
    estimate_gain,
    estimate_zero_window,
    sample,
    windowed_moments,
)


def het(gamma):
    return TapConfig(gamma, Detector.HETERODYNE)


CH = ChannelParams(0.9, 25.0)


class TestSampler:
    def test_seed_determinism_bytes(self):
        a = sample(CH, het(0.5), (1.0, 2.0), None, 40_000, 9)
        b = sample(CH, het(0.5), (1.0, 2.0), None, 40_000, 9)
        assert a.records.tobytes() == b.records.tobytes()

    def test_worker_count_invariance(self):
        a = sample(CH, het(0.5), (1.0, 2.0), None, 70_000, 9, workers=1)
        b = sample(CH, het(0.5), (1.0, 2.0), None, 70_000, 9, workers=4)
        assert a.records.tobytes() == b.records.tobytes()

    def test_different_seeds_differ(self):
        a = sample(CH, het(0.5), (0.0, 0.0), None, 10_000, 1)
        b = sample(CH, het(0.5), (0.0, 0.0), None, 10_000, 2)
        assert a.records.tobytes() != b.records.tobytes()

    def test_normal_generator_quality(self):
        rng = np.random.default_rng([1234, 0])
        draws = rng.standard_normal(100_000)
        assert scipy_stats.kstest(draws, "norm").pvalue > 0.001

    def test_coherent_input_variance(self):
        n = 200_000
        batch = sample(ChannelParams(1.0, 1.0), het(1.0), (5.0, 5.0), None, n, 21)
        for col in ("x_in", "p_in"):
            var = np.var(batch.column(col), ddof=1)
            stat_sigma = np.sqrt(2.0 / (n - 1))
            assert abs(var - 1.0) < 3 * stat_sigma
            assert np.mean(batch.column(col)) == pytest.approx(5.0, abs=0.02)

    def test_lossless_channel_passes_mean_through(self):
        batch = sample(ChannelParams(1.0, 25.0), het(0.5), (3.0, -4.0), None, 100_000, 4)
        assert np.mean(batch.column("x_recv")) == pytest.approx(3.0, abs=0.03)
        assert np.mean(batch.column("p_recv")) == pytest.approx(-4.0, abs=0.03)

    def test_receiver_adds_one_unit(self):
        batch = sample(CH, het(0.5), (0.0, 0.0), None, 400_000, 8)
        v_sig = np.var(batch.column("x_sig"), ddof=1)
        v_recv = np.var(batch.column("x_recv"), ddof=1)
        assert v_recv - v_sig == pytest.approx(1.0, abs=0.05)

    def test_homodyne_p_detector_routes_quadratures(self):
        tap = TapConfig(0.8, Detector.HOMODYNE_P)
        batch = sample(CH, tap, (0.0, 0.0), None, 200_000, 14)
        # X read-out is bare detector vacuum, P carries the tapped mode
        assert np.var(batch.column("x_tap"), ddof=1) == pytest.approx(1.0, rel=0.05)
        assert np.var(batch.column("p_tap"), ddof=1) == pytest.approx(
            np.var(batch.column("p_tap_mode"), ddof=1), rel=0.05
        )

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            TrajectoryBatch(np.full((5, len(COLUMNS)), np.nan), seed=1)
        with pytest.raises(ValueError):
            TrajectoryBatch(np.zeros((5, 3)), seed=1)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            sample(CH, het(0.5), (0.0, 0.0), None, 100, -1)


class TestEstimators:
    def test_vacuum_batch_zero_added_noise(self):
        batch = sample(ChannelParams(1.0, 1.0), het(1.0), (0.0, 0.0), None, 200_000, 3)
        (vx, sx), (vp, sp) = estimate_added_noise(batch, 1.0, "signal")
        assert abs(vx) < 5 * sx
        assert abs(vp) < 5 * sp

    def test_bare_channel_closure(self):
        n = 1_000_000
        batch = sample(CH, het(0.5), (0.0, 0.0), None, n, 51)
        (vx, sx), _ = estimate_added_noise(batch, CH.eta, "signal")
        assert abs(vx - 25.0 / 9.0) < 5 * sx
        (rx, srx), _ = estimate_added_noise(batch, CH.eta, "receiver")
        assert abs(rx - receiver_added_noise(CH, het(0.5), False)) < 5 * srx

    def test_variance_matches_numpy_reference(self):
        batch = sample(CH, het(0.5), (0.0, 0.0), None, 50_000, 5)
        (vx, _), _ = estimate_added_noise(batch, 1.0, "signal")
        direct = np.var(batch.column("x_sig"), ddof=1) - 1.0
        assert vx == pytest.approx(direct, rel=1e-10)

    def test_gain_identity_channel(self):
        batch = sample(ChannelParams(1.0, 1.0), het(1.0), (10.0, 10.0), None, 200_000, 6)
        gain, err = estimate_gain(batch, (10.0, 10.0))
        assert abs(gain - 1.0) < 5 * err

    def test_gain_requires_displacement(self):
        batch = sample(CH, het(0.5), (1.0, 1.0), None, 10_000, 6)
        with pytest.raises(ValueError):
            estimate_gain(batch, (1.0, 1.0))

    def test_gain_positive_precondition(self):
        batch = sample(CH, het(0.5), (0.0, 0.0), None, 10_000, 6)
        with pytest.raises(ValueError):
            estimate_added_noise(batch, 0.0)

    def test_single_quadrature_gain(self):
        tap = TapConfig(0.8, Detector.HOMODYNE_X)
        plan = plan_erasing_homodyne(CH, tap)
        batch = sample(CH, tap, (10.0, 10.0), plan, 400_000, 61)
        gain, err = estimate_gain(batch, (10.0, 10.0), quadratures=("x",))
        assert abs(gain - 1.0 / CH.eta) < 5 * err
        # the unmeasured quadrature keeps the bare transmission
        gain_p, err_p = estimate_gain(batch, (10.0, 10.0), quadratures=("p",))
        assert abs(gain_p - CH.eta) < 5 * err_p

    def test_zero_window_estimator_single_point(self):
        tap = het(0.5)
        batch = sample(CH, tap, (10.0, 10.0), None, 1_000_000, 71)
        est = estimate_zero_window(batch, (10.0, 10.0))
        v, sv = est["added_noise_x"]
        g, sg = est["gain"]
        assert abs(v - zero_window_added_noise(CH, tap)) < 5 * sv
        assert abs(g - zero_window_gain(CH, tap)) < 5 * sg

    def test_accepted_subset_matches_heralded_statistics(self):
        tap = het(0.7)
        n, seed = 50_000, 13
        window = scaled_window(CH, tap, 1.0)
        res = heralded_statistics(CH, tap, window, n, seed, input_mean=(6.0, 6.0))
        batch = sample(CH, tap, (6.0, 6.0), None, n, seed)
        mask = (np.abs(batch.column("x_tap")) <= window.x_th) & (
            np.abs(batch.column("p_tap")) <= window.p_th
        )
        assert int(np.sum(mask)) == res.n_accepted
        var_x = np.var(batch.column("x_recv")[mask], ddof=1)
        # same draws: the streamed shard merge equals the direct variance
        assert var_x == pytest.approx(res.gain * (res.added_noise_x + 1.0), rel=1e-12)

    def test_windowed_moments_counts(self):
        tap = het(0.7)
        out = windowed_moments(CH, tap, (0.0, 0.0), (np.inf, np.inf), 30_000, 2)
        assert out["n_accepted"] == 30_000
        assert out["x_recv"]["count"] == 30_000


class TestErrorPropagation:
    def test_stderr_scales_with_n(self):
        tap = het(0.5)
        small = sample(CH, tap, (0.0, 0.0), None, 20_000, 31)
        large = sample(CH, tap, (0.0, 0.0), None, 320_000, 31)
        (_, s_small), _ = estimate_added_noise(small, CH.eta, "signal")
        (_, s_large), _ = estimate_added_noise(large, CH.eta, "signal")
        assert s_small / s_large == pytest.approx(4.0, rel=0.05)

    def test_erasing_feedforward_closure(self):
        tap = het(0.8)
        plan = plan_erasing_heterodyne(CH, tap)
        batch = sample(CH, tap, (0.0, 0.0), plan, 1_000_000, 41)
        (vx, sx), (vp, sp) = estimate_added_noise(batch, plan.optical_gain, "signal")
        expected = (1 - CH.eta) * (2 - 0.8) / 0.8
        assert abs(vx - expected) < 5 * sx
        assert abs(vp - expected) < 5 * sp
