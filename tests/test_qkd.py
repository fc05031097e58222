import csv
import json
import math

import pytest

from envcorr import cli
from envcorr.channel import ChannelParams, TapConfig, excess_noise, security_thresholds
from envcorr.feedforward import optimal_added_noise, plan_optimal_heterodyne
from envcorr.herald import zero_window_added_noise, zero_window_gain
from envcorr.qkd import (
    Attack,
    Detection,
    Direction,
    EffectiveChannel,
    eve_information,
    key_rate,
    mutual_information,
)

TABLE_GAMMAS = (0.92, 0.82, 0.68, 0.48, 0.2)


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
        # erasing at gamma = 0 has infinite added noise: `run` reports no key
        # rates and draws no Monte Carlo batch for the erasing quantities
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
        assert not [name for name in rows if name.startswith("k_")]
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
