import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import envcorr
from envcorr.channel import (
    ChannelParams,
    Detector,
    TapConfig,
    added_noise_uncorrected,
    excess_noise,
    security_thresholds,
)
from envcorr.herald import tap_outcome_std

import states
from conftest import ETA_GRID, V_GRID
from states import signal_tap_state

# fraction of the tapped mode each detector routes to its X read-out port
X_WEIGHT = {Detector.HOMODYNE_X: 1.0, Detector.HETERODYNE: 0.5}


def tap_readout_variances(eta, gamma, v, x_weight, v_in=1.0):
    """Read-out variances written straight from the measurement wiring."""
    leak = (1 - eta) * v_in + eta * v
    tapped = gamma * leak + (1 - gamma)
    var_x = x_weight * tapped + (1 - x_weight) * 1.0
    var_p = (1 - x_weight) * tapped + x_weight * 1.0
    return var_x, var_p


class TestParams:
    def test_channel_ranges(self):
        with pytest.raises(ValueError):
            ChannelParams(0.0, 2.0)
        with pytest.raises(ValueError):
            ChannelParams(1.2, 2.0)
        with pytest.raises(ValueError):
            ChannelParams(0.5, 0.5)
        ChannelParams(1.0, 1.0)

    @pytest.mark.parametrize("v", (float("nan"), float("inf")))
    def test_non_finite_environment_rejected(self, v):
        with pytest.raises(ValueError):
            ChannelParams(0.9, v)

    def test_tap_ranges(self):
        with pytest.raises(ValueError):
            TapConfig(-0.1)
        with pytest.raises(ValueError):
            TapConfig(1.1)
        assert TapConfig(0.0).detector is Detector.HETERODYNE


class TestBuildPlant:
    """The plant: the (signal, tapped mode) state and the tap read-out it feeds."""

    @pytest.mark.parametrize("eta", ETA_GRID)
    @pytest.mark.parametrize("gamma", (0.0, 0.2, 0.5, 0.8, 1.0))
    @pytest.mark.parametrize("detector", list(Detector))
    @pytest.mark.parametrize("v", V_GRID)
    def test_tap_marginal_matches_wiring(self, eta, gamma, detector, v):
        ch, tap = ChannelParams(eta, v), TapConfig(gamma, detector)
        pair = signal_tap_state(ch, tap, states.coherent(0.0, 0.0))
        w = X_WEIGHT[detector]
        var_x, var_p = tap_readout_variances(eta, gamma, v, w)
        # the detector routes weight w of the tapped X (1 - w of P) to its port
        assert w * pair.cov[2, 2] + (1 - w) == pytest.approx(var_x, abs=1e-10)
        assert (1 - w) * pair.cov[3, 3] + w == pytest.approx(var_p, abs=1e-10)
        if detector is Detector.HETERODYNE:  # heralding reads only this tap
            s = tap_outcome_std(ch, tap)
            assert s**2 == pytest.approx(var_x, abs=1e-10)
            assert s**2 == pytest.approx(var_p, abs=1e-10)

    def test_lossless_channel_keeps_input(self):
        ch = ChannelParams(1.0, 25.0)
        pair = signal_tap_state(ch, TapConfig(0.7), states.coherent(2.0, -3.0))
        sig = states.partial_trace(pair, [0])
        assert np.allclose(sig.mean, [2.0, -3.0], atol=1e-12)
        assert np.allclose(sig.cov, np.eye(2), atol=1e-12)

    def test_zero_gamma_tap_is_uncorrelated_vacuum_mix(self):
        ch = ChannelParams(0.7, 9.0)
        pair = signal_tap_state(ch, TapConfig(0.0), states.coherent(1.0, 1.0))
        assert np.allclose(pair.cov[:2, 2:4], 0.0, atol=1e-12)
        assert pair.cov[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert pair.cov[3, 3] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eta", ETA_GRID)
    @pytest.mark.parametrize("v", V_GRID)
    def test_signal_marginal_input_referred_noise(self, eta, v):
        ch = ChannelParams(eta, v)
        pair = signal_tap_state(ch, TapConfig(0.5), states.coherent(0.0, 0.0))
        implied = (pair.cov[0, 0] - eta * 1.0) / eta
        assert implied == pytest.approx(added_noise_uncorrected(ch), abs=1e-10)

    def test_signal_tap_cross_covariance(self):
        eta, gamma, v = 0.9, 0.6, 25.0
        ch, tap = ChannelParams(eta, v), TapConfig(gamma)
        pair = signal_tap_state(ch, tap, states.coherent(0.0, 0.0))
        expected = np.sqrt(gamma * eta * (1 - eta)) * (1 - v)
        assert pair.cov[0, 2] == pytest.approx(expected, abs=1e-10)
        assert pair.cov[1, 3] == pytest.approx(expected, abs=1e-10)
        assert pair.cov[0, 3] == pytest.approx(0.0, abs=1e-12)

    def test_heterodyne_wiring_halves_and_adds_unit(self):
        # measured variance is (tapped + 1)/2 for the dual-quadrature detector
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.92)
        pair = signal_tap_state(ch, tap, states.coherent(0, 0))
        s = tap_outcome_std(ch, tap)
        assert s**2 == pytest.approx((pair.cov[2, 2] + 1) / 2, abs=1e-12)

    def test_multimode_input_rejected(self):
        with pytest.raises(ValueError):
            signal_tap_state(ChannelParams(0.9, 2.0), TapConfig(0.5), states.vacuum(2))


class TestNoiseFigures:
    def test_added_noise_values(self):
        assert added_noise_uncorrected(ChannelParams(0.9, 25.0)) == pytest.approx(
            25.0 / 9.0, abs=1e-12
        )
        assert abs(added_noise_uncorrected(ChannelParams(0.9, 25.0)) - 2.77) < 0.01
        assert added_noise_uncorrected(ChannelParams(0.5, 1.0)) == pytest.approx(1.0)
        assert added_noise_uncorrected(ChannelParams(0.9, 10.0)) == pytest.approx(
            10.0 / 9.0, abs=1e-12
        )
        assert added_noise_uncorrected(ChannelParams(0.9, 45.0)) == pytest.approx(
            5.0, abs=1e-12
        )

    def test_excess_noise_values(self):
        assert excess_noise(ChannelParams(0.9, 25.0)) == pytest.approx(
            24.0 / 9.0, abs=1e-12
        )
        assert abs(excess_noise(ChannelParams(0.9, 25.0)) - 2.67) < 0.01
        for eta in ETA_GRID:
            assert excess_noise(ChannelParams(eta, 1.0)) == 0.0
        # boundary case sits exactly on the entanglement-breaking threshold
        assert excess_noise(ChannelParams(0.5, 3.0)) == pytest.approx(2.0, abs=1e-12)

    def test_thresholds_strict(self):
        assert security_thresholds(2.67) == {
            "entanglement_preserving": False,
            "collective_secure": False,
        }
        assert security_thresholds(0.0) == {
            "entanglement_preserving": True,
            "collective_secure": True,
        }
        assert security_thresholds(1.0) == {
            "entanglement_preserving": True,
            "collective_secure": False,
        }
        assert not security_thresholds(2.0)["entanglement_preserving"]
        assert not security_thresholds(0.8)["collective_secure"]


def test_closed_form_layers_load_no_numpy():
    # a fresh interpreter, since this one has loaded NumPy already
    path = [str(Path(envcorr.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, envcorr.channel, envcorr.feedforward, envcorr.qkd; print(*sys.modules)"
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
        timeout=60,
    )
    loaded = child.stdout.split()
    assert "envcorr.qkd" in loaded
    assert "numpy" not in loaded
