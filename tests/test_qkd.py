import csv
import itertools
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from envcorr import cli
from envcorr.channel import ChannelParams, TapConfig, excess_noise, security_thresholds
from envcorr.feedforward import optimal_added_noise, plan_optimal_heterodyne
from envcorr.herald import zero_window_added_noise, zero_window_gain
from envcorr.qkd import (
    ASYMPTOTIC_SIGMA,
    Attack,
    Detection,
    Direction,
    EffectiveChannel,
    eve_information,
    key_rate,
    mutual_information,
)

TABLE_GAMMAS = (0.92, 0.82, 0.68, 0.48, 0.2)
# the benchmark's keyrate channels within 1e-4 of unit gain, chi just above
# their own floor |G-1|/G
NEAR_UNITY = ((1.00005, 5e-5 + 1e-9), (1.00002, 2e-5 + 1e-9), (0.99995, 5e-5 / 0.99995 + 1e-9))


def theory_channel(gamma):
    ch, tap = ChannelParams(0.9, 25.0), TapConfig(gamma)
    return EffectiveChannel(
        plan_optimal_heterodyne(ch, tap).optical_gain, optimal_added_noise(ch, tap)
    )


class TestMutualInformation:
    def test_reference_value(self):
        chan = EffectiveChannel(1.1, 0.1)
        assert mutual_information(chan, 40.0) == pytest.approx(
            2.6117814825221926, abs=1e-12
        )

    def test_gain_cancels_for_homodyne(self):
        assert mutual_information(EffectiveChannel(0.3, 0.1), 40.0) == pytest.approx(
            mutual_information(EffectiveChannel(2.0, 0.1), 40.0), abs=1e-12
        )

    def test_vanishes_for_huge_noise(self):
        assert mutual_information(EffectiveChannel(1.0, 1e12), 40.0) < 1e-10

    def test_monotone_in_sigma(self):
        chan = EffectiveChannel(1.0, 0.5)
        values = [mutual_information(chan, s) for s in (1.0, 10.0, 100.0, 1000.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_heterodyne_pays_extra_unit(self):
        hom = EffectiveChannel(1.0, 0.2, Detection.HOMODYNE)
        het = EffectiveChannel(1.0, 0.2, Detection.HETERODYNE)
        # two noisier quadrature symbols against one clean one
        assert mutual_information(het, 40.0) == pytest.approx(
            math.log2(1 + 40.0 / 2.2), abs=1e-12
        )
        assert mutual_information(hom, 40.0) == pytest.approx(
            0.5 * math.log2(1 + 40.0 / 1.2), abs=1e-12
        )

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            mutual_information(EffectiveChannel(1.0, 0.1), 0.0)


class TestEveInformation:
    @pytest.mark.parametrize("sigma", [0.0, -40.0])
    def test_sigma_positive(self, sigma):
        for attack in Attack:
            for direction in Direction:
                with pytest.raises(ValueError, match="modulation variance"):
                    eve_information(EffectiveChannel(1.0, 0.1), sigma, attack, direction)

    def test_identity_channel_gives_nothing(self):
        ident = EffectiveChannel(1.0, 0.0)
        for attack in Attack:
            for direction in Direction:
                assert eve_information(ident, 40.0, attack, direction) == pytest.approx(
                    0.0, abs=1e-9
                )

    def test_individual_direct_reference(self):
        assert eve_information(
            EffectiveChannel(1.1, 0.1), 40.0, Attack.INDIVIDUAL, Direction.DIRECT
        ) == pytest.approx(1.1064968616670992, abs=1e-12)

    def test_pure_loss_equals_beam_splitter_attack(self):
        # Eve holding the loss port of a transmission-T line sees 1+(1-T)sigma
        for t in (0.3, 0.6, 0.9):
            chan = EffectiveChannel(t, (1 - t) / t)
            expected = 0.5 * math.log2(1 + (1 - t) * 40.0)
            got = eve_information(chan, 40.0, Attack.INDIVIDUAL, Direction.DIRECT)
            assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("attack", list(Attack))
    def test_monotone_in_added_noise(self, attack):
        noises = (0.05, 0.2, 0.5, 1.0, 2.0)
        values = [
            eve_information(EffectiveChannel(1.05, x), 40.0, attack, Direction.DIRECT)
            for x in noises
        ]
        assert all(a < b + 1e-12 for a, b in zip(values, values[1:]))

    def test_unphysical_channel_rejected_for_collective(self):
        with pytest.raises(ValueError):
            eve_information(
                EffectiveChannel(0.5, 0.0), 40.0, Attack.COLLECTIVE, Direction.DIRECT
            )

    def test_holevo_at_least_individual_shannon_direct(self):
        for gamma in TABLE_GAMMAS:
            chan = theory_channel(gamma)
            ind = eve_information(chan, 40.0, Attack.INDIVIDUAL, Direction.DIRECT)
            col = eve_information(chan, 40.0, Attack.COLLECTIVE, Direction.DIRECT)
            assert col >= ind - 1e-9


class TestKeyRate:
    def test_maximum_rate_reference(self):
        report = key_rate(theory_channel(1.0), 40.0, Attack.COLLECTIVE)
        assert report.k_direct == pytest.approx(1.4470575402731656, abs=1e-9)
        assert report.k_direct_asymptotic == pytest.approx(1.6170883983157633, abs=1e-6)

    def test_reverse_reconciliation_reference(self):
        report = key_rate(EffectiveChannel(1.06, 0.34), 40.0, Attack.COLLECTIVE)
        assert report.k_reverse == pytest.approx(0.013073924725709, abs=1e-9)
        assert report.k_reverse_asymptotic == pytest.approx(0.047041223214364, abs=1e-6)

    @pytest.mark.parametrize("attack", list(Attack))
    def test_monotone_decreasing_in_added_noise(self, attack):
        rates = [
            key_rate(EffectiveChannel(1.05, x), 40.0, attack).k_direct
            for x in (0.05, 0.2, 0.5, 1.0)
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("attack", list(Attack))
    def test_sign_structure(self, attack):
        for gamma in (0.92, 0.82, 0.68, 0.48):
            assert key_rate(theory_channel(gamma), 40.0, attack).k_direct > 0.0
        measured = EffectiveChannel(1.04, 1.04)
        assert key_rate(measured, 40.0, attack).k_direct < 0.0

    @pytest.mark.parametrize("attack", list(Attack))
    def test_asymptotic_dominates_for_theory_rows(self, attack):
        for gamma in TABLE_GAMMAS:
            report = key_rate(theory_channel(gamma), 40.0, attack)
            assert report.k_direct_asymptotic >= report.k_direct - 1e-12

    def test_negative_rates_permitted(self):
        report = key_rate(EffectiveChannel(1.0, 5.0), 40.0, Attack.COLLECTIVE)
        assert report.k_direct < 0.0
        assert math.isfinite(report.k_reverse)


class TestSecurityReport:
    """Security verdicts and key rates of the corrected channels."""

    def test_breaking_channel_flagged(self):
        eps = excess_noise(ChannelParams(0.9, 25.0))
        assert eps == pytest.approx(24.0 / 9.0, abs=1e-12)
        verdict = security_thresholds(eps)
        assert not verdict["entanglement_preserving"]
        assert not verdict["collective_secure"]
        # optimal feedforward makes the breaking channel usable again
        assert key_rate(theory_channel(0.92), 40.0).k_direct > 0.0

    def test_vacuum_environment_preserving(self):
        eps = excess_noise(ChannelParams(0.9, 1.0))
        assert eps == 0.0
        assert security_thresholds(eps) == {
            "entanglement_preserving": True,
            "collective_secure": True,
        }

    def test_gain_column_matches_reference_within_tolerance(self):
        published = {0.92: 1.1, 0.82: 1.08, 0.68: 1.08, 0.48: 1.06, 0.2: 1.04}
        for gamma, value in published.items():
            gain = theory_channel(gamma).gain
            assert abs(gain - value) < 0.05

    def test_post_selected_channel_below_quantum_floor_is_flagged(self):
        # the heralded channel can beat the deterministic amplifier floor,
        # where no Gaussian dilation (hence no collective bound) exists
        ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.92)
        gain, noise = zero_window_gain(ch, tap), zero_window_added_noise(ch, tap)
        assert noise < (gain - 1) / gain
        with pytest.raises(ValueError):
            key_rate(EffectiveChannel(gain, noise), 40.0)

    def test_infinite_noise_strategy_skips_rates(self, tmp_path):
        # erasing at gamma = 0 has infinite added noise: `run` reports a sentinel
        # row in place of the key rates and draws no Monte Carlo batch for the
        # erasing quantities
        config = {
            "channel": {"eta": 0.9, "v_env": 25.0},
            "tap": {"gamma": 0.0},
            "strategy": "erasing-het",
            "mc": {"n": 10_000, "seed": 3},
            "qkd": {"sigma": 40.0},
            "output": {"path": "out"},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
        rows = {row["quantity"]: row for row in csv.DictReader(lines[1:])}
        assert [name for name in rows if name.startswith("k_")] == ["k_rates"]
        assert rows["k_rates"]["formula"] == "infinite_added_noise"
        assert rows["added_noise_het_state"]["formula"] == "inf"
        for name in ("added_noise_het_state", "receiver_added_noise_ff", "gain_erasing"):
            assert rows[name]["mc_estimate"] == rows[name]["mc_stderr"] == ""
        assert rows["added_noise_uncorrected"]["mc_estimate"] != ""


class TestEffectiveChannel:
    def test_validation(self):
        with pytest.raises(ValueError):
            EffectiveChannel(0.0, 0.1)
        with pytest.raises(ValueError):
            EffectiveChannel(1.0, -0.1)

    @pytest.mark.parametrize("gain", [math.nan, math.inf])
    def test_non_finite_gain_rejected(self, gain):
        with pytest.raises(ValueError, match="gain"):
            EffectiveChannel(gain, 0.1)

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="added_noise"):
            EffectiveChannel(1.0, noise)


# -- the 6x6 dilation and complex eigvals route, kept as a reference ----------
# The package evaluated Eve's information this way before its closed forms.
# Only valid channels with |G-1| >= 1e-3 reach it here, so the gain clamp near
# G = 1 and the floor checks are left out.

_Z = np.diag([1.0, -1.0])
_I2 = np.eye(2)
_OMEGA = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])


def _entropy_bits(nu):
    if nu <= 1.0 + 1e-12:
        return 0.0
    a, b = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return a * math.log2(a) - b * math.log2(b)


def _von_neumann(cov):
    eigs = np.sort(np.abs(np.linalg.eigvals(1j * _OMEGA @ cov)))[::2]
    return float(sum(_entropy_bits(float(v)) for v in eigs))


def _dilation_cov(g, chi, vx, vp):
    """Covariance of (Bob, dilation mode, EPR twin) for source diag(vx, vp)."""
    vin = np.diag([vx, vp])
    cov = np.zeros((6, 6))
    if g < 1.0:
        w = max(g * chi / (1.0 - g), 1.0)
        t, r = math.sqrt(g), math.sqrt(1.0 - g)
        # Bob = t in + r w;  E1 = r in - t w;  E2 = EPR twin of w
        cz = math.sqrt(max(w * w - 1.0, 0.0)) * _Z
        cov[:2, :2] = g * vin + (1.0 - g) * w * _I2
        cov[2:4, 2:4] = (1.0 - g) * vin + g * w * _I2
        cov[4:6, 4:6] = w * _I2
        cov[:2, 2:4] = cov[2:4, :2] = t * r * (vin - w * _I2)
        cov[:2, 4:6] = cov[4:6, :2] = r * cz
        cov[2:4, 4:6] = cov[4:6, 2:4] = -t * cz
        return cov
    w = max(g * chi / (g - 1.0), 1.0)
    s, m = math.sqrt(g), math.sqrt(g - 1.0)
    # Bob = s in + m Z w;  E1 = m Z in + s w;  E2 = EPR twin of w
    cz = math.sqrt(max(w * w - 1.0, 0.0)) * _Z
    cov[:2, :2] = g * vin + (g - 1.0) * w * _I2
    cov[2:4, 2:4] = (g - 1.0) * _Z @ vin @ _Z + g * w * _I2
    cov[4:6, 4:6] = w * _I2
    cov[:2, 2:4] = cov[2:4, :2] = s * m * (vin @ _Z + w * _Z)
    cov[:2, 4:6] = cov[4:6, :2] = m * _Z @ cz
    cov[2:4, 4:6] = cov[4:6, 2:4] = s * cz
    return cov


def dilation_eve(chan, sigma, attack, direction):
    """Eve's information through the 6x6 dilation and eigvals."""
    g, chi, v = chan.gain, chan.added_noise, 1.0 + sigma
    heterodyne = chan.detection is Detection.HETERODYNE
    if attack is Attack.INDIVIDUAL and direction is Direction.DIRECT:
        return 0.5 * math.log2(1.0 + sigma * chi / (1.0 + chi))
    cov = _dilation_cov(g, chi, v, v)
    if attack is Attack.INDIVIDUAL:
        c = cov[2:, 0]
        return 0.5 * math.log2(cov[0, 0] / (cov[0, 0] - c @ np.linalg.solve(cov[2:, 2:], c)))
    s_eve = _von_neumann(cov[2:, 2:])
    if direction is Direction.DIRECT:
        cond = _dilation_cov(g, chi, 1.0, 1.0 if heterodyne else v)[2:, 2:]
    elif heterodyne:
        c = cov[2:, :2]
        cond = cov[2:, 2:] - c @ np.linalg.inv(cov[:2, :2] + _I2) @ c.T
    else:
        cond = cov[2:, 2:] - np.outer(cov[2:, 0], cov[2:, 0]) / cov[0, 0]
    return s_eve - _von_neumann(cond)


# -- the same dilation in mpmath ----------------------------------------------


def _mp_entropy(nu):
    if nu <= 1:
        return mp.mpf(0)
    a, b = (nu + 1) / 2, (nu - 1) / 2
    return a * mp.log(a, 2) - b * mp.log(b, 2)


def _mp_two_mode(cov):
    """Entropy of a two-mode state from det A + det B + 2 det C and det cov."""

    def det2(r, c):
        return cov[r, c] * cov[r + 1, c + 1] - cov[r, c + 1] * cov[r + 1, c]

    delta = det2(0, 0) + det2(2, 2) + 2 * det2(0, 2)
    det = mp.det(cov)
    nu_sq = (delta + mp.sqrt(max(delta * delta - 4 * det, 0))) / 2
    return _mp_entropy(mp.sqrt(nu_sq)) + _mp_entropy(mp.sqrt(det / nu_sq))


def _mp_dilation(g, chi, vx, vp):
    """Covariance of (Bob, E1, E2) as `_dilation_cov`, built as mix source mix^T."""
    if g < 1:
        t, r = mp.sqrt(g), mp.sqrt(1 - g)
        # Bob = t in + r w;  E1 = r in - t w
        rows = [[t, 0, r, 0], [0, t, 0, r], [r, 0, -t, 0], [0, r, 0, -t]]
    else:
        s, m = mp.sqrt(g), mp.sqrt(g - 1)
        # Bob = s in + m Z w;  E1 = m Z in + s w
        rows = [[s, 0, m, 0], [0, s, 0, -m], [m, 0, s, 0], [0, -m, 0, s]]
    mix = mp.eye(6)
    for i, j in itertools.product(range(4), range(4)):
        mix[i, j] = rows[i][j]
    w = max(g * chi / abs(1 - g), 1)
    source = mp.diag([vx, vp, w, w, w, w])
    epr = mp.sqrt(w * w - 1)
    source[2, 4] = source[4, 2] = epr
    source[3, 5] = source[5, 3] = -epr
    return mix * source * mix.T


def mp_eve(chan, sigma, attack, direction):
    """Eve's information by the dilation in at least 50 digits.

    The digits grow with the dilation's EPR variance w = G chi/|G-1| and with
    sigma, whose powers cancel in the determinants. G = 1 is taken as
    1 + 1e-30, where the rates differ from their limit by O(1e-30).
    """
    gain, chi = chan.gain, chan.added_noise
    w = max(gain * chi / (abs(gain - 1.0) or 1e-30), 1.0)
    with mp.workdps(50 + 4 * int(math.log10(w)) + 2 * int(math.log10(1.0 + sigma))):
        g = mp.mpf(gain) if gain != 1.0 else 1 + mp.mpf(10) ** -30
        chi, v = mp.mpf(chi), 1 + mp.mpf(sigma)
        if attack is Attack.INDIVIDUAL and direction is Direction.DIRECT:
            return float(mp.log(1 + (v - 1) * chi / (1 + chi), 2) / 2)
        cov = _mp_dilation(g, chi, v, v)
        eve = cov[2:6, 2:6]
        if attack is Attack.INDIVIDUAL:
            c = cov[2:6, 0]
            resid = cov[0, 0] - (c.T * mp.lu_solve(eve, c))[0]
            return float(mp.log(cov[0, 0] / resid, 2) / 2)
        heterodyne = chan.detection is Detection.HETERODYNE
        if direction is Direction.DIRECT:
            cond = _mp_dilation(g, chi, 1, 1 if heterodyne else v)[2:6, 2:6]
        elif heterodyne:
            c = cov[2:6, 0:2]
            cond = eve - c * mp.inverse(cov[0:2, 0:2] + mp.eye(2)) * c.T
        else:
            c = cov[2:6, 0]
            cond = eve - c * c.T / cov[0, 0]
        return float(_mp_two_mode(eve) - _mp_two_mode(cond))


ROUTES = list(itertools.product(Detection, Attack, Direction))
HOMODYNE_HOLEVO_DIRECT = (Detection.HOMODYNE, Attack.COLLECTIVE, Direction.DIRECT)


class TestClosedForms:
    """Eve's closed-form information against the dilation it replaces."""

    # |G-1| >= 1e-2 keeps the EPR variance w = G chi/|G-1| of the float64
    # reference at most about 300: it loses digits as w grows (1.2e-8 bits at
    # G = 0.999, chi = floor + 3, where the mpmath dilation agrees with the
    # closed forms to 1e-14)
    @pytest.mark.parametrize("gain", (0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 1.01, 1.05, 1.5, 2.5, 4.0))
    def test_match_the_float_dilation(self, gain):
        worst = {False: 0.0, True: 0.0}
        for extra, sigma, (det, attack, direction) in itertools.product(
            (0.0, 1e-6, 0.01, 0.2, 1.0), (0.5, 5.0, 40.0, 300.0, ASYMPTOTIC_SIGMA), ROUTES
        ):
            chan = EffectiveChannel(gain, abs(gain - 1.0) / gain + extra, det)
            got = eve_information(chan, sigma, attack, direction)
            err = abs(got - dilation_eve(chan, sigma, attack, direction))
            asymptotic = sigma == ASYMPTOTIC_SIGMA
            worst[asymptotic] = max(worst[asymptotic], err)
        assert worst[False] <= 1e-9
        assert worst[True] <= 1e-6

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        gain=st.one_of(
            st.floats(0.02, 20.0),
            st.builds(
                lambda k, side: 1.0 + side * 10.0**-k,
                st.floats(3.0, 12.0),
                st.sampled_from((-1.0, 1.0)),
            ),
            st.just(1.0),
        ),
        extra=st.one_of(st.just(0.0), st.floats(-15.0, 1.6).map(lambda e: 10.0**e)),
        sigma=st.one_of(st.floats(-2.0, 3.0).map(lambda e: 10.0**e), st.just(ASYMPTOTIC_SIGMA)),
        route=st.sampled_from(ROUTES),
    )
    # nearly pure states that a difference of squares (in D^2 - 4 det or in
    # S(E)) or an entropy cut-off at 1 + 1e-12 gets wrong by more than 1e-12
    @example(gain=1.0, extra=1e-11, sigma=ASYMPTOTIC_SIGMA, route=HOMODYNE_HOLEVO_DIRECT)
    @example(gain=1.0 - 1e-9, extra=0.0, sigma=1.0, route=HOMODYNE_HOLEVO_DIRECT)
    @example(gain=1.0, extra=1e-12, sigma=ASYMPTOTIC_SIGMA, route=HOMODYNE_HOLEVO_DIRECT)
    def test_match_the_dilation_in_mpmath(self, gain, extra, sigma, route):
        detection, attack, direction = route
        chi = abs(gain - 1.0) / gain + extra
        assume(not (abs(gain - 1.0) < 1e-4 and 1e-9 < chi < 1e-4))  # the kept band
        chan = EffectiveChannel(gain, chi, detection)
        got = eve_information(chan, sigma, attack, direction)
        assert got == pytest.approx(mp_eve(chan, sigma, attack, direction), abs=1e-12)

    @pytest.mark.parametrize("detection", list(Detection))
    @pytest.mark.parametrize("attack", list(Attack))
    def test_continuous_through_unit_gain(self, detection, attack):
        # the loss channel G = 1 - 1e-3 needs chi >= 1.001e-3, so its side
        # starts at k = 4
        chi, fields = 1e-3, ("k_direct", "k_reverse", "k_direct_asymptotic", "k_reverse_asymptotic")
        unit = EffectiveChannel(1.0, chi, detection)
        at_one = key_rate(unit, 40.0, attack)
        for direction, field in zip(Direction, fields[:2]):
            expected = mutual_information(unit, 40.0) - mp_eve(unit, 40.0, attack, direction)
            assert getattr(at_one, field) == pytest.approx(expected, abs=1e-12)
        for side, first in ((1.0, 3), (-1.0, 4)):
            gaps = []
            for k in range(first, 10):
                report = key_rate(EffectiveChannel(1.0 + side * 10.0**-k, chi, detection), 40.0, attack)
                gaps.append(max(abs(getattr(report, f) - getattr(at_one, f)) for f in fields))
                if k >= 4:
                    assert gaps[-1] <= 50 * 10.0**-k
            assert all(a >= b for a, b in zip(gaps, gaps[1:]))


class TestFloorRefusal:
    """The channels `eve_information` refuses, per attack and direction."""

    @pytest.mark.parametrize(
        "gain, chi, message",
        [
            (0.5, 0.99, "loss vacuum floor"),
            (0.5, 1.0 - 2e-12, "loss vacuum floor"),
            (0.5, 1.0 - 5e-13, None),
            (2.0, 0.4, "amplifier quantum floor"),
            (0.99, 1e-3, "loss vacuum floor"),
            # an earlier gain clamp's band: |G-1| < 1e-4 and 1e-9 < chi < ~1e-4
            *[(g, chi, "amplifier quantum floor") for g, chi in NEAR_UNITY],
            (1.0, 5e-5, "amplifier quantum floor"),
            (1.0, 0.0, None),
            (1.0, 1e-9, None),
            (1.0, 1e-3, None),
            (0.99995, 0.0, None),
        ],
    )
    def test_refused_set(self, gain, chi, message):
        chan = EffectiveChannel(gain, chi)
        for attack, direction in itertools.product(Attack, Direction):
            if message is None or (attack is Attack.INDIVIDUAL and direction is Direction.DIRECT):
                assert math.isfinite(eve_information(chan, 40.0, attack, direction))
            else:
                with pytest.raises(ValueError, match=message):
                    eve_information(chan, 40.0, attack, direction)

    def test_noise_just_below_the_floor_is_taken_at_the_floor(self):
        # the dilation's EPR variance max(G chi/|G-1|, 1) realizes max(chi, floor);
        # the band spares G = 0.99995 with chi = 0, and 5e-13 is within tolerance
        for gain, chi in ((0.99995, 0.0), (0.5, 1.0 - 5e-13), (2.0, 0.5 - 5e-13)):
            for detection, attack, direction in ROUTES:
                chan = EffectiveChannel(gain, chi, detection)
                assert eve_information(chan, 40.0, attack, direction) == pytest.approx(
                    mp_eve(chan, 40.0, attack, direction), abs=1e-12
                )
