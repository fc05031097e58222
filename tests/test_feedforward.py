import math

import numpy as np
import pytest

from envcorr import montecarlo
from envcorr.channel import ChannelParams, Detector, TapConfig
from envcorr.feedforward import (
    FeedforwardPlan,
    added_noise_het_state,
    added_noise_hom_ff,
    improvement_conditions,
    optimal_added_noise,
    plan_erasing_heterodyne,
    plan_erasing_homodyne,
    plan_optimal_heterodyne,
    receiver_added_noise,
)

from conftest import grid_points


def het(gamma):
    return TapConfig(gamma, Detector.HETERODYNE)


def hom(gamma):
    return TapConfig(gamma, Detector.HOMODYNE_X)


class TestPlans:
    def test_erasing_homodyne_gains(self):
        plan = plan_erasing_homodyne(ChannelParams(0.5, 5.0), hom(1.0))
        assert plan.g_x == pytest.approx(1.0)
        assert plan.g_p == 0.0
        assert plan.optical_gain == pytest.approx(2.0)
        assert plan_erasing_homodyne(ChannelParams(0.1, 5.0), hom(1.0)).optical_gain == pytest.approx(10.0)
        # near-lossless channel barely needs correction
        assert plan_erasing_homodyne(ChannelParams(0.999999, 5.0), hom(1.0)).g_x < 2e-3

    def test_erasing_heterodyne_gains(self):
        plan = plan_erasing_heterodyne(ChannelParams(0.5, 5.0), het(1.0))
        assert plan.g_x == pytest.approx(math.sqrt(2.0))
        assert plan.g_x == plan.g_p
        assert plan.optical_gain == pytest.approx(2.0)
        assert plan_erasing_heterodyne(ChannelParams(0.9, 5.0), het(1.0)).optical_gain == pytest.approx(1.0 / 0.9)

    def test_erasing_rejects_degenerate_gamma(self):
        for build, tap in (
            (plan_erasing_homodyne, hom(1e-9)),
            (plan_erasing_heterodyne, het(1e-9)),
        ):
            with pytest.raises(ValueError):
                build(ChannelParams(0.5, 5.0), tap)

    def test_detector_kind_enforced(self):
        with pytest.raises(ValueError):
            plan_erasing_homodyne(ChannelParams(0.5, 5.0), het(0.5))
        with pytest.raises(ValueError):
            plan_erasing_heterodyne(ChannelParams(0.5, 5.0), hom(0.5))
        with pytest.raises(ValueError):
            plan_optimal_heterodyne(ChannelParams(0.5, 5.0), hom(0.5))

    def test_optimal_reference_point(self):
        plan = plan_optimal_heterodyne(ChannelParams(0.9, 25.0), het(0.92))
        assert plan.optical_gain == pytest.approx(1.101166684449154, abs=1e-12)
        assert abs(plan.optical_gain - 1.1) < 0.02

    def test_optimal_zero_gamma_collapses_to_bare_channel(self):
        plan = plan_optimal_heterodyne(ChannelParams(0.7, 25.0), het(0.0))
        assert plan.g_x == 0.0
        assert plan.optical_gain == pytest.approx(0.7, abs=1e-12)

    def test_optimal_vacuum_environment_gain_form(self):
        eta, gamma = 0.7, 0.6
        plan = plan_optimal_heterodyne(ChannelParams(eta, 1.0), het(gamma))
        assert plan.g_x == pytest.approx(
            math.sqrt(2 * gamma * (1 - eta) / eta) / 2.0, abs=1e-12
        )

    @pytest.mark.parametrize("eta,gamma,v", grid_points())
    def test_optimal_gain_consistent_with_electronic_gain(self, eta, gamma, v):
        # the stored optical gain must equal the gain implied by g through
        # the displacement wiring: sqrt(G) = sqrt(eta) + g sqrt(gamma/2) sqrt(1-eta)
        plan = plan_optimal_heterodyne(ChannelParams(eta, v), het(gamma))
        implied = (
            math.sqrt(eta) + plan.g_x * math.sqrt(gamma / 2.0) * math.sqrt(1 - eta)
        ) ** 2
        assert plan.optical_gain == pytest.approx(implied, abs=1e-12)

    def test_plan_invariants(self):
        with pytest.raises(ValueError):
            FeedforwardPlan(-0.1, 0.1, 2.0)


class TestNoiseFormulas:
    def test_hom_ff_values(self):
        assert added_noise_hom_ff(ChannelParams(0.5, 9.0), hom(1.0)) == 0.0
        assert added_noise_hom_ff(ChannelParams(0.5, 9.0), hom(0.5)) == pytest.approx(0.5)
        assert added_noise_hom_ff(ChannelParams(0.5, 9.0), hom(0.0)) == math.inf

    def test_het_state_values(self):
        assert added_noise_het_state(ChannelParams(0.9, 9.0), het(1.0)) == pytest.approx(0.1)
        assert added_noise_het_state(ChannelParams(0.5, 9.0), het(2.0 / 3.0)) == pytest.approx(1.0)
        assert added_noise_het_state(ChannelParams(0.99999999, 9.0), het(1.0)) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("v", (1.0, 100.0))
    def test_v_independence_is_exact(self, v):
        base_hom = added_noise_hom_ff(ChannelParams(0.6, 1.0), hom(0.4))
        base_het = added_noise_het_state(ChannelParams(0.6, 1.0), het(0.4))
        base_rec = receiver_added_noise(ChannelParams(0.6, 1.0), het(0.4), True)
        assert added_noise_hom_ff(ChannelParams(0.6, v), hom(0.4)) == base_hom
        assert added_noise_het_state(ChannelParams(0.6, v), het(0.4)) == base_het
        assert receiver_added_noise(ChannelParams(0.6, v), het(0.4), True) == base_rec

    def test_receiver_values(self):
        assert receiver_added_noise(ChannelParams(0.9, 25.0), het(0.92), True) == pytest.approx(
            1.0173913043478262, abs=1e-12
        )
        assert abs(receiver_added_noise(ChannelParams(0.9, 25.0), het(0.92), True) - 1.02) < 0.01
        assert abs(receiver_added_noise(ChannelParams(0.1, 25.0), het(0.92), True) - 1.16) < 0.01
        assert receiver_added_noise(ChannelParams(0.1, 9.0), het(0.92), False) == pytest.approx(91.0)

    @pytest.mark.parametrize("eta", (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99))
    def test_perfect_tap_recovers_single_unit_exactly(self, eta):
        assert receiver_added_noise(ChannelParams(eta, 25.0), het(1.0), True) == 1.0

    def test_optimal_values(self):
        assert optimal_added_noise(ChannelParams(0.9, 25.0), het(0.92)) == pytest.approx(
            0.11263140330385447, abs=1e-12
        )
        assert abs(optimal_added_noise(ChannelParams(0.9, 25.0), het(0.92)) - 0.1) < 0.02
        # no measurement: collapses to the uncorrected added noise
        assert optimal_added_noise(ChannelParams(0.9, 25.0), het(0.0)) == pytest.approx(25.0 / 9.0)

    @pytest.mark.parametrize("eta,gamma,v", grid_points())
    def test_optimal_never_exceeds_uncorrected(self, eta, gamma, v):
        ch = ChannelParams(eta, v)
        assert optimal_added_noise(ch, het(gamma)) <= (1 - eta) / eta * v + 1e-12

    @pytest.mark.parametrize("eta", (0.1, 0.5, 0.9))
    @pytest.mark.parametrize("v", (5.0, 25.0))
    def test_monotone_decreasing_in_gamma(self, eta, v):
        gammas = np.linspace(0.05, 1.0, 20)
        ch = ChannelParams(eta, v)
        for series in (
            [added_noise_hom_ff(ch, hom(g)) for g in gammas],
            [added_noise_het_state(ch, het(g)) for g in gammas],
            [receiver_added_noise(ch, het(g), True) for g in gammas],
            [optimal_added_noise(ch, het(g)) for g in gammas],
        ):
            assert all(a > b for a, b in zip(series, series[1:]))

    @pytest.mark.parametrize("eta,gamma,v", grid_points())
    def test_optimal_at_most_erasing(self, eta, gamma, v):
        ch = ChannelParams(eta, v)
        assert optimal_added_noise(ch, het(gamma)) <= added_noise_het_state(ch, het(gamma)) + 1e-12


class TestImprovementConditions:
    def test_reference_point_all_true(self):
        cond = improvement_conditions(ChannelParams(0.9, 25.0), het(0.92))
        assert cond == {"hom": True, "het_state": True, "het_receiver": True}

    def test_hom_threshold(self):
        # gamma must exceed eta/(v+eta) = 1/3
        cond = improvement_conditions(ChannelParams(0.5, 1.0), het(0.3))
        assert not cond["hom"]
        assert improvement_conditions(ChannelParams(0.5, 1.0), het(0.34))["hom"]

    def test_large_environment_noise_always_helps(self):
        cond = improvement_conditions(ChannelParams(0.9, 1e9), het(0.01))
        assert all(cond.values())


class TestApplyFeedforward:
    """Feedforward applied trajectory by trajectory in the sampler."""

    def test_condition_then_displace_reproduces_receiver_statistics(self):
        # Gaussian pipeline: per-trajectory tap outcomes conditioned into the
        # signal state and displaced by the plan must reproduce the erasing
        # receiver noise; checked against trajectory moments on one point.
        eta, gamma, v = 0.9, 0.92, 25.0
        ch, tap = ChannelParams(eta, v), het(gamma)
        plan = plan_erasing_heterodyne(ch, tap)
        n = 1_000_000
        moments = montecarlo.windowed_moments(ch, tap, (0.0, 0.0), None, n, 777, plan=plan)
        (vx, sx), (vp, sp) = montecarlo.estimate_added_noise(
            moments, plan.optical_gain, "receiver"
        )
        expected = receiver_added_noise(ch, tap, True)
        assert abs(vx - expected) < 5 * sx
        assert abs(vp - expected) < 5 * sp

    def test_erasing_gain_from_mean_transfer(self):
        for eta in (0.1, 0.9):
            ch, tap = ChannelParams(eta, 25.0), het(0.8)
            plan = plan_erasing_heterodyne(ch, tap)
            moments = montecarlo.windowed_moments(
                ch, tap, (10.0, 10.0), None, 1_000_000, 99, plan=plan
            )
            gain, _ = montecarlo.estimate_gain(moments, (10.0, 10.0))
            assert abs(gain - 1.0 / eta) / (1.0 / eta) < 0.005
