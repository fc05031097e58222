import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from envcorr import cli, montecarlo
from envcorr.channel import ChannelParams, Detector, TapConfig
from envcorr.feedforward import (
    FeedforwardPlan,
    added_noise_het_state,
    added_noise_hom_ff,
    optimal_added_noise,
    plan_erasing_heterodyne,
    plan_erasing_homodyne,
    plan_optimal_heterodyne,
    receiver_added_noise,
)
from envcorr.herald import (
    PROBE_MEAN,
    heralded_statistics,
    scaled_window,
    tap_outcome_std,
    zero_window_added_noise,
    zero_window_gain,
)
from envcorr.montecarlo import (
    COLUMNS,
    MOMENT_COLUMNS,
    SHARD_SIZE,
    Moments,
    estimate_added_noise,
    estimate_gain,
    estimate_zero_window,
    sample,
    windowed_moments,
)

import states
from conftest import assert_stderrs_match_spread, grid_points, heralded_readouts


def het(gamma):
    return TapConfig(gamma, Detector.HETERODYNE)


CH = ChannelParams(0.9, 25.0)
OPEN = (np.inf, np.inf)
# keeps every trajectory of the batches below, yet is finite, so it is heralded
WIDE = (1e300, 1e300)
PROBE = (10.0, 10.0)


def homodyne_tap_std(ch, tap):
    """(x, p) read-out std of a homodyne tap: the tapped mode a_t, then the detector vacuum."""
    a_t = tap.gamma * ((1.0 - ch.eta) + ch.eta * ch.v_env) + (1.0 - tap.gamma)
    return math.sqrt(a_t), 1.0


def column(records, name):
    return records[:, COLUMNS.index(name)]


def moments(ch, tap, input_mean, plan, n, seed, **kwargs):
    # the estimators' input for a window-free batch, drawn from sufficient statistics
    return windowed_moments(ch, tap, input_mean, None, n, seed, plan=plan, **kwargs)


def moment_map(ch, tap, input_mean, plan):
    """(A, b) such that a trajectory's MOMENT_COLUMNS are A Z + b: their rows of the batch's map."""
    a, b = montecarlo._read_map(ch, tap, input_mean, plan)
    return a[montecarlo._MOMENT_INDEX], b[montecarlo._MOMENT_INDEX]


def sample_draws(n, seed):
    """The NORMALS x n standard normals that sample(..., n, seed) pushes through the optics."""
    shards = montecarlo._shards(montecarlo._generator(seed), n, montecarlo.NORMALS)
    return np.hstack([draws.copy() for _, draws in shards])


def trajectory_moments(ch, tap, input_mean, plan, n, seed, keep=None):
    """windowed_moments' map applied to one block reduced here from sample()'s draws.

    keep selects the trajectories (default: all); the block of their Z stands
    in for the heralded sampler's, so only the pooling and the map are tested.
    The window passed only routes the batch to that sampler; its value is unread.
    """
    z = sample_draws(n, seed)
    z = z if keep is None else z[:, keep]
    mean = z.mean(axis=1)
    dev = z - mean[:, None]
    block = (z.shape[1], mean, dev @ dev.T)
    with mock.patch.object(montecarlo, "_accepted_statistics", lambda *args: [block]):
        return windowed_moments(ch, tap, input_mean, WIDE, n, seed, plan=plan)


class TestSampler:
    def test_seed_determinism_bytes(self):
        a = sample(CH, het(0.5), (1.0, 2.0), None, 40_000, 9)
        b = sample(CH, het(0.5), (1.0, 2.0), None, 40_000, 9)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = sample(CH, het(0.5), (0.0, 0.0), None, 10_000, 1)
        b = sample(CH, het(0.5), (0.0, 0.0), None, 10_000, 2)
        assert a.tobytes() != b.tobytes()

    def test_shard_streams_do_not_alias_across_seeds(self):
        # numpy splits seeds of 2^32 and more into 32-bit words, so per-shard
        # keys [seed, i] would make shard 3 of seed 5 equal shard 0 of 5 + 3 * 2^32
        late = sample(CH, het(0.5), (0.0, 0.0), None, 4 * SHARD_SIZE, 5)
        early = sample(CH, het(0.5), (0.0, 0.0), None, SHARD_SIZE, 5 + 3 * 2**32)
        assert late[3 * SHARD_SIZE :].tobytes() != early.tobytes()

    def test_normal_generator_quality(self):
        draws = montecarlo._generator(1234).standard_normal(100_000)
        assert scipy_stats.kstest(draws, "norm").pvalue > 0.001

    def test_coherent_input_variance(self):
        n = 200_000
        batch = sample(ChannelParams(1.0, 1.0), het(1.0), (5.0, 5.0), None, n, 21)
        for col in ("x_in", "p_in"):
            var = np.var(column(batch, col), ddof=1)
            stat_sigma = np.sqrt(2.0 / (n - 1))
            assert abs(var - 1.0) < 3 * stat_sigma
            assert np.mean(column(batch, col)) == pytest.approx(5.0, abs=0.02)

    def test_lossless_channel_passes_mean_through(self):
        batch = sample(ChannelParams(1.0, 25.0), het(0.5), (3.0, -4.0), None, 100_000, 4)
        assert np.mean(column(batch, "x_recv")) == pytest.approx(3.0, abs=0.03)
        assert np.mean(column(batch, "p_recv")) == pytest.approx(-4.0, abs=0.03)

    def test_receiver_adds_one_unit(self):
        batch = sample(CH, het(0.5), (0.0, 0.0), None, 400_000, 8)
        v_sig = np.var(column(batch, "x_sig"), ddof=1)
        v_recv = np.var(column(batch, "x_recv"), ddof=1)
        assert v_recv - v_sig == pytest.approx(1.0, abs=0.05)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            sample(CH, het(0.5), (0.0, 0.0), None, 100, -1)


class TestEstimators:
    def test_vacuum_batch_zero_added_noise(self):
        batch = moments(ChannelParams(1.0, 1.0), het(1.0), (0.0, 0.0), None, 200_000, 3)
        (vx, sx), (vp, sp) = estimate_added_noise(batch, 1.0, "signal")
        assert abs(vx) < 5 * sx
        assert abs(vp) < 5 * sp

    def test_bare_channel_closure(self):
        n = 1_000_000
        batch = moments(CH, het(0.5), (0.0, 0.0), None, n, 51)
        (vx, sx), _ = estimate_added_noise(batch, CH.eta, "signal")
        assert abs(vx - 25.0 / 9.0) < 5 * sx
        (rx, srx), _ = estimate_added_noise(batch, CH.eta, "receiver")
        assert abs(rx - receiver_added_noise(CH, het(0.5), False)) < 5 * srx

    def test_variance_matches_numpy_reference(self):
        batch = sample(CH, het(0.5), (0.0, 0.0), None, 50_000, 5)
        (vx, _), _ = estimate_added_noise(
            trajectory_moments(CH, het(0.5), (0.0, 0.0), None, 50_000, 5), 1.0, "signal"
        )
        direct = np.var(column(batch, "x_sig"), ddof=1) - 1.0
        assert vx == pytest.approx(direct, rel=1e-10)

    def test_gain_identity_channel(self):
        batch = moments(ChannelParams(1.0, 1.0), het(1.0), (10.0, 10.0), None, 200_000, 6)
        gain, err = estimate_gain(batch, (10.0, 10.0))
        assert abs(gain - 1.0) < 5 * err

    def test_gain_requires_displacement(self):
        batch = moments(CH, het(0.5), (1.0, 1.0), None, 10_000, 6)
        with pytest.raises(ValueError):
            estimate_gain(batch, (1.0, 1.0))

    def test_gain_positive_precondition(self):
        batch = moments(CH, het(0.5), (0.0, 0.0), None, 10_000, 6)
        with pytest.raises(ValueError):
            estimate_added_noise(batch, 0.0)

    def test_receiver_gain_reads_the_receiver_pair(self):
        batch = moments(CH, het(0.5), PROBE, None, 200_000, 52)
        gain, err = estimate_gain(batch, PROBE, where="receiver")
        assert abs(gain - CH.eta) < 5 * err
        # the receiver read-out carries one more vacuum unit per quadrature
        assert err > estimate_gain(batch, PROBE)[1]

    def test_single_quadrature_gain(self):
        tap = TapConfig(0.8, Detector.HOMODYNE_X)
        plan = plan_erasing_homodyne(CH, tap)
        batch = moments(CH, tap, (10.0, 10.0), plan, 400_000, 61)
        gain, err = estimate_gain(batch, (10.0, 10.0), quadratures=("x",))
        assert abs(gain - 1.0 / CH.eta) < 5 * err
        # the unmeasured quadrature keeps the bare transmission
        gain_p, err_p = estimate_gain(batch, (10.0, 10.0), quadratures=("p",))
        assert abs(gain_p - CH.eta) < 5 * err_p

    def test_zero_window_estimator_single_point(self):
        tap = het(0.5)
        batch = moments(CH, tap, (10.0, 10.0), None, 1_000_000, 71)
        est = estimate_zero_window(batch, (10.0, 10.0))
        v, sv = est["added_noise_x"]
        g, sg = est["gain"]
        assert abs(v - zero_window_added_noise(CH, tap)) < 5 * sv
        assert abs(g - zero_window_gain(CH, tap)) < 5 * sg

    def test_accepted_subset_matches_heralded_statistics(self):
        tap = het(0.7)
        n, seed = 50_000, 13
        window = scaled_window(CH, tap, 1.0)
        res = heralded_statistics(CH, tap, window, n, seed)
        drawn = windowed_moments(CH, tap, PROBE_MEAN, (window.x_th, window.p_th), n, seed)
        assert drawn.n_accepted == res.n_accepted
        # the same moments: the estimate reads the receiver columns directly
        (_, mean_x, var_x), (_, mean_p, _) = drawn.column("x_recv"), drawn.column("p_recv")
        amp = 0.5 * (mean_x + mean_p) / PROBE_MEAN[0]
        assert res.gain == pytest.approx(amp**2, rel=1e-12)
        assert var_x == pytest.approx(res.gain * (res.added_noise_x + 1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "n, estimate, message",
        [
            (10_000, lambda m: estimate_added_noise(m, 1.0, "tap"), "where must be"),
            (10_000, lambda m: estimate_gain(m, PROBE, where="tap"), "where must be"),
            (10_000, lambda m: estimate_zero_window(m, (4.9, 10.0)), "5 shot-noise sigma"),
            (1023, lambda m: estimate_zero_window(m, PROBE), "at least 1024"),
        ],
        ids=["where", "gain-where", "zero-window-probe", "zero-window-count"],
    )
    def test_refusals(self, n, estimate, message):
        with pytest.raises(ValueError, match=message):
            estimate(moments(CH, het(0.5), PROBE, None, n, 3))

    def test_zero_window_refuses_a_residual_lost_to_rounding(self):
        # var - cov^2/var_t cancels as v_env grows: at 1e20 it went negative
        # and the stderr cells read nan; at 1e12 it keeps its digits
        tap = het(0.5)
        for v_env in (1e14, 1e20):
            batch = moments(ChannelParams(0.9, v_env), tap, PROBE, None, 10_000, 3)
            with pytest.raises(ValueError, match="lost to rounding"):
                estimate_zero_window(batch, PROBE)
        ch = ChannelParams(0.9, 1e12)
        batch = moments(ch, tap, PROBE, None, 10_000, 3)
        value, err = estimate_zero_window(batch, PROBE)["added_noise"]
        assert abs(value - zero_window_added_noise(ch, tap)) < 5 * err

    def test_windowed_moments_counts(self):
        tap = het(0.7)
        out = windowed_moments(CH, tap, (0.0, 0.0), (np.inf, np.inf), 30_000, 2)
        assert out.n_accepted == 30_000
        assert out.column("x_recv")[0] == 30_000


class TestErrorPropagation:
    def test_stderr_scales_with_n(self):
        tap = het(0.5)
        small = moments(CH, tap, (0.0, 0.0), None, 20_000, 31)
        large = moments(CH, tap, (0.0, 0.0), None, 320_000, 31)
        (_, s_small), _ = estimate_added_noise(small, CH.eta, "signal")
        (_, s_large), _ = estimate_added_noise(large, CH.eta, "signal")
        assert s_small / s_large == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize(
        "eta, gamma, v_env",
        [(0.1, 1.0, 1.0), (0.9, 0.6, 25.0)],
        ids=["tap-mean-dominated", "noisy"],
    )
    def test_zero_window_stderr_matches_spread(self, eta, gamma, v_env):
        # the analytic stderr against the seed-to-seed spread of the point
        # estimate; at eta 0.1, gamma 1, v_env 1 the mean_t^2/m2_t term is about
        # 90/91 of the prediction's variance, at the other cell about 30%.
        # The averaged noise is read as `envcorr` prints it, from the same
        # batch; both quadratures divide by one gain, so at eta 0.1 adding
        # their stderrs as independent understates its spread by about 1.3x
        ch, tap, r = ChannelParams(eta, v_env), het(gamma), 600
        keys = ("added_noise_x", "added_noise_p", "gain", "zero_window_added_noise")
        values, variances = [], []
        for seed in range(70_000, 70_000 + r):
            est = estimate_zero_window(moments(ch, tap, PROBE, None, 100_000, seed), PROBE)
            est.update(cli.mc_counterparts(ch, gamma, 100_000, seed, keys[3:]))
            values.append([est[key][0] for key in keys])
            variances.append([est[key][1] ** 2 for key in keys])
        assert_stderrs_match_spread(values, variances, keys)

    @pytest.mark.parametrize(
        "eta, gamma, v_env",
        [(0.1, 1.0, 1.0), (0.9, 0.6, 25.0)],
        ids=["tap-mean-dominated", "noisy"],
    )
    def test_window_free_stderrs_match_spread(self, eta, gamma, v_env):
        # every other quantity `envcorr` prints from window-free batches, read
        # as it prints them, against its seed spread (the zero-window ones are
        # above); the noises average two quadratures, the gains are first moments
        ch, r = ChannelParams(eta, v_env), 400
        keys = (
            "added_noise_uncorrected", "excess_noise", "receiver_added_noise_no_ff",
            "added_noise_hom_ff", "added_noise_het_state", "receiver_added_noise_ff",
            "optimal_added_noise", "channel_gain_uncorrected", "gain_hom_ff", "gain_erasing",
            "optimal_gain",
        )
        values, variances = [], []
        for seed in range(90_000, 90_000 + r):
            est = cli.mc_counterparts(ch, gamma, 10_000, seed, keys)
            values.append([est[key][0] for key in keys])
            variances.append([est[key][1] ** 2 for key in keys])
        assert_stderrs_match_spread(values, variances, keys)

    def test_erasing_feedforward_closure(self):
        tap = het(0.8)
        plan = plan_erasing_heterodyne(CH, tap)
        batch = moments(CH, tap, (0.0, 0.0), plan, 1_000_000, 41)
        (vx, sx), (vp, sp) = estimate_added_noise(batch, plan.optical_gain, "signal")
        expected = (1 - CH.eta) * (2 - 0.8) / 0.8
        assert abs(vx - expected) < 5 * sx
        assert abs(vp - expected) < 5 * sp


def _chan(a, b):
    (na, ma, sa), (nb, mb, sb) = a, b
    if na == 0:
        return b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), sa + sb + delta * delta * (na * nb / n)


def record_moments(batch, name, keep=None):
    """Per-shard (count, mean, m2) of a record column, merged in shard order."""
    col = column(batch, name)
    total = (0, 0.0, 0.0)
    for start in range(0, len(col), SHARD_SIZE):
        vals = col[start : start + SHARD_SIZE]
        if keep is not None:
            vals = vals[keep[start : start + SHARD_SIZE]]
        if vals.size:
            mean = float(np.mean(vals))
            total = _chan(total, (vals.size, mean, float(np.sum((vals - mean) ** 2))))
    return total


def record_summary(records):
    """(count, mean, m2, co) of the moment columns of a record array."""
    cols = records[:, [COLUMNS.index(name) for name in MOMENT_COLUMNS]]
    mean = cols.mean(axis=0)
    dev = cols - mean
    m2 = np.sum(dev * dev, axis=0)
    co = np.array([dev[:, 0] @ dev[:, 4], dev[:, 1] @ dev[:, 5]])
    return len(records), mean, m2, co


def record_regression(records):
    cols = {name: records[:, COLUMNS.index(name)] for name in COLUMNS}
    out = {}
    for quad in ("x", "p"):
        s, t = cols[f"{quad}_sig"], cols[f"{quad}_tap_mode"]
        out[f"mean_s{quad}"], out[f"mean_t{quad}"] = np.mean(s), np.mean(t)
        out[f"var_s{quad}"], out[f"var_t{quad}"] = np.var(s, ddof=1), np.var(t, ddof=1)
        out[f"cov_{quad}"] = np.cov(s, t, ddof=1)[0, 1]
    return out


def record_zero_window_point(records, input_mean):
    """(noise_x, noise_p, gain) of the regression on the records, and their stderrs."""
    stats, n = record_regression(records), len(records)
    amps, amp_vars, resid = [], [], {}
    for quad, mean_in in zip(("x", "p"), input_mean):
        var_t, mean_t = stats[f"var_t{quad}"], stats[f"mean_t{quad}"]
        slope = stats[f"cov_{quad}"] / var_t
        resid[quad] = stats[f"var_s{quad}"] - stats[f"cov_{quad}"] ** 2 / var_t
        amps.append((stats[f"mean_s{quad}"] - slope * mean_t) / mean_in)
        # the prediction at tap 0 has the regression's intercept variance
        amp_vars.append(resid[quad] * (1 / n + mean_t**2 / ((n - 1) * var_t)) / mean_in**2)
    gain = (0.5 * (amps[0] + amps[1])) ** 2
    gain_var = gain * (amp_vars[0] + amp_vars[1])
    noise_errs = [
        np.sqrt(2 * r**2 / (n - 1) / gain**2 + r**2 * gain_var / gain**4)
        for r in (resid["x"], resid["p"])
    ]
    point = ((resid["x"] - gain) / gain, (resid["p"] - gain) / gain, gain)
    return point, (*noise_errs, np.sqrt(gain_var))


class TestMomentKernel:
    N = 3 * SHARD_SIZE + 1234  # a partial last shard

    @pytest.mark.parametrize("windowed", [False, True], ids=["all", "window"])
    @pytest.mark.parametrize(
        "tap, planner",
        [
            (het(0.7), None),
            (het(0.7), plan_erasing_heterodyne),
            (het(0.7), plan_optimal_heterodyne),
            (TapConfig(0.6, Detector.HOMODYNE_X), None),
            (TapConfig(0.6, Detector.HOMODYNE_X), plan_erasing_homodyne),
        ],
        ids=["het", "het-erasing", "het-optimal", "hom-x", "hom-x-erasing"],
    )
    def test_moments_equal_record_reductions(self, tap, planner, windowed):
        plan = planner(CH, tap) if planner else None
        batch = sample(CH, tap, (3.0, -2.0), plan, self.N, 23)
        keep = None
        if windowed:
            keep = (np.abs(column(batch, "x_tap")) <= 1.5) & (np.abs(column(batch, "p_tap")) <= 2.0)
        out = trajectory_moments(CH, tap, (3.0, -2.0), plan, self.N, 23, keep)
        for name in MOMENT_COLUMNS:
            count, mean, m2 = record_moments(batch, name, keep)
            got_count, got_mean, got_var = out.column(name)
            assert got_count == count
            # the kernel maps moments of the draws, not of the records
            assert got_mean == pytest.approx(mean, rel=1e-12)
            assert got_var == pytest.approx(m2 / (count - 1), rel=1e-12)

    def test_many_shards_pool_in_bounded_memory(self, monkeypatch):
        # 2001 shards of 16: pooled shard by shard, they give the count, mean and
        # scatter of the accepted u, and the memory held stays flat
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 16)
        n, tap, window = 16 * 2000 + 5, het(0.7), (1.5, 2.0)
        u, x, p = heralded_readouts(CH, tap, (3.0, -2.0), n, 29)
        kept = u[:, (np.abs(x) <= 1.5) & (np.abs(p) <= 2.0)]
        tracemalloc.start()
        try:
            out = windowed_moments(CH, tap, (3.0, -2.0), window, n, 29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert out.n_accepted == kept.shape[1]
        optics = montecarlo._read_map(CH, tap, (3.0, -2.0), None)
        ((count, mean, drawn_scatter),) = montecarlo._accepted_statistics(
            [(optics, window)], n, 29
        )
        # back in the tap frame, the first two coordinates are those of u
        q = montecarlo._tap_frame(*optics)[0][:, :2]
        dev = kept - kept.mean(axis=1)[:, None]
        assert count == kept.shape[1]
        scatter = dev @ dev.T
        scale = np.sqrt(np.trace(scatter) / kept.shape[1])
        assert q.T @ mean == pytest.approx(kept.mean(axis=1), rel=1e-12, abs=1e-12 * scale)
        assert (q.T @ drawn_scatter @ q).ravel() == pytest.approx(
            scatter.ravel(), rel=1e-12, abs=1e-12 * np.trace(scatter)
        )

    def test_zero_window_matches_record_regression(self):
        tap, mean_in, n = het(0.6), (10.0, 10.0), 100_000
        records = sample(CH, tap, mean_in, None, n, 19)
        # moments mapped from the same draws against the regression on the records
        est = estimate_zero_window(trajectory_moments(CH, tap, mean_in, None, n, 19), mean_in)
        point, errs = record_zero_window_point(records, mean_in)
        for i, key in enumerate(("added_noise_x", "added_noise_p", "gain")):
            assert est[key][0] == pytest.approx(point[i], rel=1e-12)
            assert est[key][1] == pytest.approx(errs[i], rel=1e-12)

    def test_non_finite_moments_rejected(self):
        # a 1e300 feedforward gain overflows the m2 sums, on the
        # sufficient-statistic path (window None) and the heralded path
        # (ChannelParams refuses an environment whose square overflows)
        plan = FeedforwardPlan(1e300, 1e300, 1.0)
        for window in (None, WIDE):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="trajectory moments must be finite"
            ):
                windowed_moments(CH, het(0.5), (0.0, 0.0), window, 10_000, 1, plan=plan)


# -- sufficient-statistic sampler (window-free batches) -------------------------


def exact_moments(a, b, n):
    """Moments of n trajectories whose sample mean is b and covariance A A^T."""
    cov = a @ a.T
    m2 = np.diag(cov) * (n - 1)
    co = np.array([cov[0, 4], cov[1, 5]]) * (n - 1)
    return Moments(n, b, m2, co)


def hom(gamma):
    return TapConfig(gamma, Detector.HOMODYNE_X)


class TestSufficientSampler:
    def test_affine_map_reproduces_the_optics(self):
        tap, plan = het(0.7), plan_optimal_heterodyne(CH, het(0.7))
        # every column, the tap and moment columns that the batches slice included
        a, b = montecarlo._read_map(CH, tap, (3.0, -2.0), plan)
        draws = np.random.default_rng(5).standard_normal((montecarlo.NORMALS, 50))
        cols = np.array(montecarlo._apply_optics(CH, tap, (3.0, -2.0), plan, draws))
        assert np.allclose(cols, a @ draws + b[:, None], rtol=0, atol=1e-12)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        eta=st.floats(0.01, 1.0),
        gamma=st.floats(0.0, 1.0),
        v=st.floats(1.0, 100.0),
        detector=st.sampled_from(Detector),
        input_mean=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
    )
    def test_affine_map_matches_the_oracle(self, eta, gamma, v, detector, input_mean):
        # (x_sig, p_sig, x_tap_mode, p_tap_mode): the oracle's two modes before the tap split
        ch, tap = ChannelParams(eta, v), TapConfig(gamma, detector)
        pair = states.signal_tap_state(ch, tap, states.coherent(*input_mean))
        a, b = moment_map(ch, tap, input_mean, None)
        names = ("x_sig", "p_sig", "x_tap_mode", "p_tap_mode")
        rows = [MOMENT_COLUMNS.index(name) for name in names]
        mean, cov = b[rows], (a @ a.T)[np.ix_(rows, rows)]
        assert np.max(np.abs(mean - pair.mean)) <= 1e-12 * max(1.0, np.max(np.abs(pair.mean)))
        assert np.max(np.abs(cov - pair.cov)) <= 1e-12 * np.max(np.abs(pair.cov))

    @pytest.mark.parametrize("eta,gamma,v", grid_points())
    def test_exact_map_closes_on_every_formula(self, eta, gamma, v):
        # A A^T and b pushed through the estimators, with no sampling noise
        ch, n = ChannelParams(eta, v), 10**6
        checks = []

        base = exact_moments(*moment_map(ch, het(gamma), PROBE, None), n)
        for value, _ in estimate_added_noise(base, eta):
            checks.append((value, (1 - eta) / eta * v))
        for value, _ in estimate_added_noise(base, eta, "receiver"):
            checks.append((value, receiver_added_noise(ch, het(gamma), False)))
        checks.append((estimate_gain(base, PROBE)[0], eta))
        zero = estimate_zero_window(base, PROBE)
        checks += [
            (zero["added_noise_x"][0], zero_window_added_noise(ch, het(gamma))),
            (zero["added_noise_p"][0], zero_window_added_noise(ch, het(gamma))),
            (zero["gain"][0], zero_window_gain(ch, het(gamma))),
        ]

        plan = plan_erasing_homodyne(ch, hom(gamma))
        drawn = exact_moments(*moment_map(ch, hom(gamma), PROBE, plan), n)
        (value, _), _ = estimate_added_noise(drawn, plan.optical_gain)
        checks.append((value, added_noise_hom_ff(ch, hom(gamma))))
        checks.append((estimate_gain(drawn, PROBE, ("x",))[0], 1 / eta))

        plan = plan_erasing_heterodyne(ch, het(gamma))
        drawn = exact_moments(*moment_map(ch, het(gamma), PROBE, plan), n)
        for value, _ in estimate_added_noise(drawn, plan.optical_gain):
            checks.append((value, added_noise_het_state(ch, het(gamma))))
        for value, _ in estimate_added_noise(drawn, plan.optical_gain, "receiver"):
            checks.append((value, receiver_added_noise(ch, het(gamma), True)))
        checks.append((estimate_gain(drawn, PROBE)[0], 1 / eta))

        plan = plan_optimal_heterodyne(ch, het(gamma))
        drawn = exact_moments(*moment_map(ch, het(gamma), PROBE, plan), n)
        for value, _ in estimate_added_noise(drawn, plan.optical_gain):
            checks.append((value, optimal_added_noise(ch, het(gamma))))
        checks.append((estimate_gain(drawn, PROBE)[0], plan.optical_gain))

        assert len(checks) == 18
        for value, formula in checks:
            assert value == pytest.approx(formula, rel=1e-12, abs=1e-12)

    def test_seed_determinism(self):
        a = moments(CH, het(0.5), PROBE, None, 10**6, 4)
        b = moments(CH, het(0.5), PROBE, None, 10**6, 4)
        c = moments(CH, het(0.5), PROBE, None, 10**6, 5)
        assert a.m2.tobytes() == b.m2.tobytes() != c.m2.tobytes()

    @pytest.mark.parametrize("n", [2, 5, 10, 11, 40])
    def test_small_batches_have_the_exact_laws(self, n):
        # batches of at most 10 draws are drawn explicitly; from 11 on the
        # batch takes the Bartlett route
        tap, plan = het(0.5), plan_erasing_heterodyne(CH, het(0.5))
        a, b = moment_map(CH, tap, PROBE, plan)
        var = np.diag(a @ a.T)
        means, scaled = [], []
        for seed in range(400):
            drawn = moments(CH, tap, PROBE, plan, n, seed)
            assert drawn.n_accepted == n
            means.append((drawn.mean - b) * np.sqrt(n / var))
            scaled.append(drawn.m2 / var)
        level = 1e-6
        for i in range(len(MOMENT_COLUMNS)):
            column = [row[i] for row in means]
            assert scipy_stats.kstest(column, "norm").pvalue > level
            column = [row[i] for row in scaled]
            assert scipy_stats.kstest(column, scipy_stats.chi2(n - 1).cdf).pvalue > level

    def test_single_trajectory(self):
        drawn = moments(CH, het(0.5), PROBE, None, 1, 3)
        assert drawn.n_accepted == 1 and np.all(drawn.m2 == 0) and np.all(drawn.co == 0)
        with pytest.raises(ValueError, match="two samples"):
            drawn.column("x_sig")

    def test_batch_size_capped(self):
        drawn = moments(CH, het(0.5), PROBE, None, montecarlo.MAX_N, 3)
        assert drawn.n_accepted == 2**53
        assert estimate_gain(drawn, PROBE)[0] == pytest.approx(CH.eta, rel=1e-6)
        with pytest.raises(ValueError, match="2\\^53"):
            moments(CH, het(0.5), PROBE, None, montecarlo.MAX_N + 1, 3)


def estimator_outputs(drawn, kind, plan):
    """Every value and stderr the estimators give for one batch of a plan kind."""
    if kind == "erasing-hom":
        (noise, _) = estimate_added_noise(drawn, plan.optical_gain)
        return [*noise, *estimate_gain(drawn, PROBE, ("x",))]
    gain = plan.optical_gain if plan else CH.eta
    out = [v for pair in estimate_added_noise(drawn, gain) for v in pair]
    out += [v for pair in estimate_added_noise(drawn, gain, "receiver") for v in pair]
    out += estimate_gain(drawn, PROBE)
    if kind == "none":
        out += [v for pair in estimate_zero_window(drawn, PROBE).values() for v in pair]
    return out


class TestSamplerEquivalence:
    """Sufficient statistics against trajectories: same laws for every estimator."""

    R, N = 200, 10_000

    @pytest.mark.parametrize(
        "kind, tap, planner",
        [
            ("none", het(0.6), None),
            ("erasing-hom", hom(0.6), plan_erasing_homodyne),
            ("erasing-het", het(0.6), plan_erasing_heterodyne),
            ("optimal", het(0.6), plan_optimal_heterodyne),
        ],
        ids=["none-zero-window", "erasing-hom", "erasing-het", "optimal"],
    )
    def test_estimators_agree(self, kind, tap, planner):
        plan = planner(CH, tap) if planner else None
        sufficient, trajectories = [], []
        for r in range(self.R):
            drawn = moments(CH, tap, PROBE, plan, self.N, 50_000 + r)
            sufficient.append(estimator_outputs(drawn, kind, plan))
            records = sample(CH, tap, PROBE, plan, self.N, r)
            reference = Moments(*record_summary(records))
            trajectories.append(estimator_outputs(reference, kind, plan))
        sufficient, trajectories = np.array(sufficient), np.array(trajectories)
        # a two-sided 5 sigma level for both the means and the F-test
        level = 2 * scipy_stats.norm.sf(5.0)
        dof = self.R - 1
        for j in range(sufficient.shape[1]):
            a, b = sufficient[:, j], trajectories[:, j]
            var_a, var_b = np.var(a, ddof=1), np.var(b, ddof=1)
            z = (a.mean() - b.mean()) / np.sqrt((var_a + var_b) / self.R)
            assert abs(z) <= 5.0, (j, z)
            ratio = scipy_stats.f(dof, dof)
            p = 2 * min(ratio.cdf(var_a / var_b), ratio.sf(var_a / var_b))
            assert p >= level, (j, var_a, var_b)


def moment_outputs(count, mean, m2, co):
    """Count, column means, unbiased variances and the two co-moments of a summary."""
    return [count, *mean, *(m2 / (count - 1)), *(co / (count - 1))]


class TestHeraldedSampler:
    """Heralded batches against the windowed records of sample(): same laws."""

    R, N = 200, 10_000

    @pytest.mark.parametrize(
        "tap, planner, scale",
        [
            (het(0.6), None, 1.0),
            (het(0.6), plan_optimal_heterodyne, 0.35),
            (hom(0.6), None, 0.5),
        ],
        ids=["het", "het-optimal-narrow", "hom-x"],
    )
    def test_moments_agree_with_windowed_records(self, tap, planner, scale):
        plan = planner(CH, tap) if planner else None
        if tap.detector is Detector.HETERODYNE:
            window = (scaled_window(CH, tap, scale).x_th,) * 2
        else:  # the herald helpers read only heterodyne taps
            window = tuple(scale * s for s in homodyne_tap_std(CH, tap))
        heralded, records = [], []
        for r in range(self.R):
            drawn = windowed_moments(CH, tap, PROBE, window, self.N, 60_000 + r, plan=plan)
            heralded.append(moment_outputs(drawn.n_accepted, drawn.mean, drawn.m2, drawn.co))
            batch = sample(CH, tap, PROBE, plan, self.N, r)
            keep = (np.abs(column(batch, "x_tap")) <= window[0]) & (
                np.abs(column(batch, "p_tap")) <= window[1]
            )
            records.append(moment_outputs(*record_summary(batch[keep])))
        heralded, records = np.array(heralded), np.array(records)
        assert 100 < heralded[:, 0].min()
        # a two-sided 5 sigma level for both the means and the F-test
        level = 2 * scipy_stats.norm.sf(5.0)
        dof = self.R - 1
        for j in range(heralded.shape[1]):
            a, b = heralded[:, j], records[:, j]
            var_a, var_b = np.var(a, ddof=1), np.var(b, ddof=1)
            z = (a.mean() - b.mean()) / np.sqrt((var_a + var_b) / self.R)
            assert abs(z) <= 5.0, (j, z)
            ratio = scipy_stats.f(dof, dof)
            p = 2 * min(ratio.cdf(var_a / var_b), ratio.sf(var_a / var_b))
            assert p >= level, (j, var_a, var_b)

    @pytest.mark.parametrize("accepted", [0, 1, 2, 3])
    def test_small_accepted_counts(self, accepted):
        # a square window through the read-out of the accepted-th nearest trajectory
        tap, n, seed = het(0.7), 10_000, 8
        _, x, p = heralded_readouts(CH, tap, PROBE, n, seed)
        reach = np.sort(np.maximum(np.abs(x), np.abs(p)))
        half = reach[accepted - 1] if accepted else 0.5 * reach[0]
        drawn = windowed_moments(CH, tap, PROBE, (half, half), n, seed)
        assert drawn.n_accepted == accepted
        assert all(np.all(np.isfinite(v)) for v in (drawn.mean, drawn.m2, drawn.co))
        if accepted == 1:
            assert np.all(drawn.m2 == 0) and np.all(drawn.co == 0)
        if accepted >= 2:
            assert np.all(drawn.m2 > 0)

    @pytest.mark.parametrize("accepted", [4, 12])
    def test_rest_of_z_has_its_conditional_law(self, accepted):
        # in the tap frame Z = Q (u, w): given the accepted u, sqrt(m) mean(w),
        # the scatter of w and the cross scatter whitened by S_uu are standard
        # normals, Wishart(I8, m - 1) and Wishart(I8, 2); m = 4 draws the rest
        # explicitly, m = 12 by Bartlett decomposition
        tap, n = het(0.7), 2_000
        optics = montecarlo._read_map(CH, tap, PROBE, None)
        q = montecarlo._tap_frame(*optics)[0]
        mean_sq, scatter_tr, cross_tr = [], [], []
        for seed in range(300):
            _, x, p = heralded_readouts(CH, tap, PROBE, n, seed)
            half = np.sort(np.maximum(np.abs(x), np.abs(p)))[accepted - 1]
            ((count, mean, scatter),) = montecarlo._accepted_statistics(
                [(optics, (half, half))], n, seed
            )
            assert count == accepted
            mean, scatter = q.T @ mean, q.T @ scatter @ q
            s_uu, s_uw, s_ww = scatter[:2, :2], scatter[:2, 2:], scatter[2:, 2:]
            mean_sq.append(accepted * mean[2:] @ mean[2:])
            scatter_tr.append(np.trace(s_ww))
            cross_tr.append(np.trace(s_uw.T @ np.linalg.solve(s_uu, s_uw)))
        level = 1e-6
        for values, dof in ((mean_sq, 8), (scatter_tr, 8 * (accepted - 1)), (cross_tr, 16)):
            assert scipy_stats.kstest(values, scipy_stats.chi2(dof).cdf).pvalue > level, dof

    def test_open_window_far_from_centre_keeps_its_digits(self):
        # the input mean shifts every read-out and leaves the draws alone, so the
        # moments about the mean stay put; A is read at input mean 0, so only the
        # window centre and the sums about it see the 1e7 offset. WIDE keeps
        # every trajectory on the heralded path, which OPEN would not take
        near = windowed_moments(CH, het(0.7), (6.0, 6.0), WIDE, 100_000, 3)
        far = windowed_moments(CH, het(0.7), (1e7, 1e7), WIDE, 100_000, 3)
        assert near.n_accepted == far.n_accepted == 100_000
        assert far.m2 == pytest.approx(near.m2, rel=1e-10)
        assert far.co == pytest.approx(near.co, rel=1e-10)

    def test_shards_draw_two_normals_per_trajectory(self, monkeypatch):
        shapes = []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size=None, out=None):
                shapes.append(np.shape(out) if out is not None else np.shape(np.empty(size)))
                return self.rng.standard_normal(size, out=out)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        make = montecarlo._generator
        monkeypatch.setattr(montecarlo, "_generator", lambda seed: Counting(make(seed)))
        n = 3 * SHARD_SIZE + 1234
        drawn = windowed_moments(CH, het(0.7), PROBE, (1.5, 2.0), n, 23)
        assert drawn.n_accepted > 100
        assert shapes[:4] == [(2, SHARD_SIZE)] * 3 + [(2, 1234)]
        # then only the batch's exact statistics: H (2 x 8), the w mean and its Bartlett factor
        assert [int(np.prod(shape)) for shape in shapes[4:]] == [16, 8, 28]

    @pytest.mark.parametrize(
        "tap, planner",
        [(het(0.7), None), (hom(0.6), None), (het(0.7), plan_optimal_heterodyne)],
        ids=["het", "hom-x", "het-optimal"],
    )
    def test_open_window_draws_the_window_free_block(self, tap, planner):
        # an open window post-selects nothing: the very block window None draws
        plan = planner(CH, tap) if planner else None
        n = 3 * SHARD_SIZE + 1234
        open_ = windowed_moments(CH, tap, PROBE, OPEN, n, 23, plan=plan)
        free = windowed_moments(CH, tap, PROBE, None, n, 23, plan=plan)
        assert open_.n_accepted == free.n_accepted == n
        for got, want in ((open_.mean, free.mean), (open_.m2, free.m2), (open_.co, free.co)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("window", [(np.inf, 1e300), (1e300, np.inf)], ids=["x", "p"])
    def test_window_open_in_one_quadrature_is_heralded(self, window):
        n = 20_000
        drawn = windowed_moments(CH, het(0.7), PROBE, window, n, 23)
        free = windowed_moments(CH, het(0.7), PROBE, None, n, 23)
        assert drawn.n_accepted == n
        assert drawn.mean.tobytes() != free.mean.tobytes()

    @pytest.mark.parametrize(
        "window",
        [(np.nan, 1.0), (1.0, np.nan), (np.inf, np.nan), (-1.0, 2.0), (2.0, -0.5)],
        ids=["nan-x", "nan-p", "open-nan", "negative-x", "negative-p"],
    )
    def test_invalid_window_refused(self, window):
        with pytest.raises(ValueError, match="non-negative"):
            windowed_moments(CH, het(0.7), PROBE, window, 10_000, 3)


class TestHeraldedLadder:
    def test_rungs_equal_their_single_window_batches(self):
        # rungs on both fig5 channels (high and low noise) share one draw of
        # the tap normals, yet each keeps the bytes of its own batch: an open
        # window, one open in x only, one that keeps none, one that keeps 6
        # (its w block takes the explicit m <= 8 path) and two scaled windows
        eta, tap, n, seed = 0.9, het(0.7), 3 * SHARD_SIZE + 1234, 23
        high, low = (ChannelParams(eta, (eta * t - 1) / (1 - eta)) for t in cli.FIG5_TARGETS)
        _, x, p = heralded_readouts(low, tap, PROBE_MEAN, n, seed)
        reach = np.sort(np.maximum(np.abs(x), np.abs(p)))
        windows = [
            (high, OPEN),
            (high, (scaled_window(high, tap, 1.0).x_th,) * 2),
            (low, (0.5 * reach[0],) * 2),
            (high, (np.inf, 1.0)),
            (low, (reach[5],) * 2),
            (low, (scaled_window(low, tap, 0.35).x_th,) * 2),
        ]
        rungs = [(ch, tap, PROBE_MEAN, window) for ch, window in windows]
        ladder = montecarlo.ladder_moments(rungs, n, seed)
        assert [ladder[i].n_accepted for i in (0, 2, 4)] == [n, 0, 6]
        for rung, got in zip(rungs, ladder):
            want = windowed_moments(*rung, n, seed)
            assert got.n_accepted == want.n_accepted
            for a, b in ((got.mean, want.mean), (got.m2, want.m2), (got.co, want.co)):
                assert a.tobytes() == b.tobytes()


class TestOneMapRead:
    def test_each_batch_reads_its_optics_once(self, monkeypatch):
        # a batch's whole map, tap frame included, comes from one pass of the
        # optics: one for a window-free batch, one per rung of a ladder
        calls = []
        apply_optics = montecarlo._apply_optics

        def counted(*args):
            calls.append(args)
            return apply_optics(*args)

        monkeypatch.setattr(montecarlo, "_apply_optics", counted)
        tap = het(0.7)
        windowed_moments(CH, tap, PROBE, None, 10**5, 3, plan=plan_optimal_heterodyne(CH, tap))
        assert len(calls) == 1
        calls.clear()
        rungs = [(CH, tap, PROBE, window) for window in (OPEN, (1.5, 2.0), (np.inf, 1.0))]
        montecarlo.ladder_moments(rungs, 10_000, 3)
        assert len(calls) == len(rungs)


class TestTapFrame:
    @pytest.mark.parametrize("detector", list(Detector), ids=lambda d: d.value)
    def test_readout_is_diagonal_in_the_frame(self, detector):
        # t = T Q (u, w) + c: T Q[:, :2] is exactly diag(s), so the window is a
        # box on u - u0, and |s| is the read-out's standard deviation
        for eta, v_env, gamma in [(0.1, 1.0, 0.0), (0.5, 5.0, 0.3), (0.9, 25.0, 1.0)]:
            ch, tap = ChannelParams(eta, v_env), TapConfig(gamma, detector)
            if detector is Detector.HETERODYNE:
                std = (tap_outcome_std(ch, tap),) * 2
            else:
                std = homodyne_tap_std(ch, tap)
            for input_mean in [(0.0, 0.0), PROBE, (1e7, -1e7)]:
                a, b = montecarlo._read_map(ch, tap, input_mean, None)
                t_map, c = a[montecarlo._TAP_INDEX], b[montecarlo._TAP_INDEX]
                q, scale, centre = montecarlo._tap_frame(a, b)
                frame = t_map @ q[:, :2]
                assert frame[0, 1] == 0.0 and frame[1, 0] == 0.0
                assert np.diagonal(frame) == pytest.approx(scale, rel=1e-12)
                assert np.abs(scale) == pytest.approx(std, rel=1e-12)
                assert scale * centre == pytest.approx(-c, rel=1e-12)
