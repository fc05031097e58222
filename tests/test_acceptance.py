"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The statistical criteria use fixed seeds, so outcomes are
reproducible run to run.
"""

import math
import time

import numpy as np
import pytest

from envcorr import cli, montecarlo, states
from envcorr.channel import (
    ChannelParams,
    Detector,
    TapConfig,
    added_noise_uncorrected,
    excess_noise,
    signal_tap_state,
)
from envcorr.feedforward import (
    added_noise_het_state,
    added_noise_hom_ff,
    optimal_added_noise,
    plan_erasing_heterodyne,
    plan_erasing_homodyne,
    plan_optimal_heterodyne,
    receiver_added_noise,
)
from envcorr.herald import (
    HeraldWindow,
    heralded_statistics,
    scaled_window,
    zero_window_added_noise,
    zero_window_gain,
)
from envcorr.qkd import Attack, EffectiveChannel, key_rate

ETA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
GAMMA_GRID = (0.2, 0.5, 0.8, 1.0)
V_GRID = (1.0, 5.0, 25.0)
N_CLOSURE = 1_000_000
PROBE = (10.0, 10.0)


def announce(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip(), flush=True)


def closure_checks_for_cell(eta, gamma, v, seed):
    """(name, formula, estimate, stderr) for every closed form at one cell."""
    ch = ChannelParams(eta, v)
    het = TapConfig(gamma, Detector.HETERODYNE)
    hom = TapConfig(gamma, Detector.HOMODYNE_X)
    checks = []

    base = montecarlo.windowed_moments(ch, het, PROBE, None, N_CLOSURE, seed, replicates=True)
    for quad, est in zip("xp", montecarlo.estimate_added_noise(base, eta, "signal")):
        checks.append((f"bare_state_{quad}", (1 - eta) / eta * v, *est))
    for quad, est in zip("xp", montecarlo.estimate_added_noise(base, eta, "receiver")):
        checks.append(
            (f"bare_receiver_{quad}", receiver_added_noise(ch, het, False), *est)
        )
    zero = montecarlo.estimate_zero_window(base, PROBE)
    for quad in "xp":
        checks.append(
            (
                f"zero_window_{quad}",
                zero_window_added_noise(ch, het),
                *zero[f"added_noise_{quad}"],
            )
        )
    checks.append(("zero_window_gain", zero_window_gain(ch, het), *zero["gain"]))

    plan = plan_erasing_homodyne(ch, hom)
    moments = montecarlo.windowed_moments(ch, hom, PROBE, None, N_CLOSURE, seed + 1, plan=plan)
    est = montecarlo.estimate_added_noise(moments, plan.optical_gain, "signal")[0]
    checks.append(("erased_quadrature", added_noise_hom_ff(ch, hom), *est))

    plan = plan_erasing_heterodyne(ch, het)
    moments = montecarlo.windowed_moments(ch, het, PROBE, None, N_CLOSURE, seed + 2, plan=plan)
    for quad, est in zip(
        "xp", montecarlo.estimate_added_noise(moments, plan.optical_gain, "signal")
    ):
        checks.append((f"erasing_state_{quad}", added_noise_het_state(ch, het), *est))
    for quad, est in zip(
        "xp", montecarlo.estimate_added_noise(moments, plan.optical_gain, "receiver")
    ):
        checks.append(
            (f"erasing_receiver_{quad}", receiver_added_noise(ch, het, True), *est)
        )

    plan = plan_optimal_heterodyne(ch, het)
    moments = montecarlo.windowed_moments(ch, het, PROBE, None, N_CLOSURE, seed + 3, plan=plan)
    for quad, est in zip(
        "xp", montecarlo.estimate_added_noise(moments, plan.optical_gain, "signal")
    ):
        checks.append((f"optimal_state_{quad}", optimal_added_noise(ch, het), *est))
    checks.append(
        ("optimal_gain", plan.optical_gain, *montecarlo.estimate_gain(moments, PROBE))
    )
    return checks


def test_criterion_1_oracle_closure():
    """Every closed form agrees with its Monte Carlo estimate on the grid."""
    started = time.time()
    worst = (0.0, "")
    seed = 1_000
    for eta in ETA_GRID:
        for gamma in GAMMA_GRID:
            for v in V_GRID:
                seed += 10
                for name, formula, est, err in closure_checks_for_cell(
                    eta, gamma, v, seed
                ):
                    z = abs(est - formula) / err
                    cell = f"{name}@(eta={eta},gamma={gamma},v={v})"
                    if z > worst[0]:
                        worst = (z, cell)
                    assert z <= 5.0, f"{cell}: |z|={z:.2f} formula={formula} mc={est}"
    elapsed = time.time() - started
    announce(
        "1 oracle-closure",
        True,
        f"(60 cells x 15 gates, worst |z|={worst[0]:.2f} at {worst[1]}, {elapsed:.0f}s)",
    )


def test_criterion_2_reference_noise_anchors():
    ch = ChannelParams(0.9, 25.0)
    v_add = added_noise_uncorrected(ch)
    eps = excess_noise(ch)
    ok = abs(v_add - 2.7778) < 1e-4 and abs(v_add - 2.77) < 0.01
    ok = ok and abs(eps - 2.6667) < 1e-4 and abs(eps - 2.67) < 0.01
    announce("2 reference-anchors", ok, f"(v_add={v_add:.4f}, excess={eps:.4f})")
    assert ok


def test_criterion_3_perfect_recovery_exact():
    etas = [round(0.1 * k, 2) for k in range(1, 10)] + [0.95, 0.99]
    values = [
        receiver_added_noise(ChannelParams(eta, 25.0), TapConfig(1.0), True)
        for eta in etas
    ]
    ok = all(value == 1.0 for value in values)
    announce("3 perfect-recovery", ok, f"(eta grid {etas} all exactly 1.0)")
    assert ok


def test_criterion_4_imperfect_tap_consistency():
    tap = TapConfig(0.92)
    weak = receiver_added_noise(ChannelParams(0.9, 25.0), tap, True)
    strong = receiver_added_noise(ChannelParams(0.1, 25.0), tap, True)
    ok = abs(weak - 1.0174) < 1e-4 and abs(weak - 1.02) < 0.01
    ok = ok and abs(strong - 1.157) < 5e-4 and abs(strong - 1.16) < 0.01
    announce("4 tap-efficiency", ok, f"(weak={weak:.4f}, strong={strong:.4f})")
    assert ok


def test_criterion_5_table_theory_columns():
    ch = ChannelParams(0.9, 25.0)
    gain_ref = optimal_gain = plan_optimal_heterodyne(ch, TapConfig(0.92)).optical_gain
    noise_ref = optimal_added_noise(ch, TapConfig(0.92))
    ok = abs(gain_ref - 1.101) < 1e-3 and abs(gain_ref - 1.1) < 0.02
    ok = ok and abs(noise_ref - 0.113) < 1e-3 and abs(noise_ref - 0.1) < 0.02
    published = {0.82: 1.08, 0.68: 1.08, 0.48: 1.06, 0.2: 1.04}
    gains = {}
    for gamma, value in published.items():
        gains[gamma] = plan_optimal_heterodyne(ch, TapConfig(gamma)).optical_gain
        ok = ok and abs(gains[gamma] - value) < 0.05
    announce(
        "5 table-theory",
        ok,
        f"(gain={gain_ref:.4f}, noise={noise_ref:.4f}, sweep={[round(g, 3) for g in gains.values()]})",
    )
    assert ok


def test_criterion_6_span_endpoints():
    lo_w = receiver_added_noise(ChannelParams(0.9, 10.0), TapConfig(1.0), False)
    hi_w = receiver_added_noise(ChannelParams(0.9, 45.0), TapConfig(1.0), False)
    lo_s = receiver_added_noise(ChannelParams(0.1, 1.1), TapConfig(1.0), False)
    hi_s = receiver_added_noise(ChannelParams(0.1, 9.0), TapConfig(1.0), False)
    ok = abs(lo_w / 2.22 - 1) < 0.005 and abs(hi_w / 6.11 - 1) < 0.005
    ok = ok and abs(lo_s / 19.9 - 1) < 0.005 and abs(hi_s / 91.0 - 1) < 0.005
    announce(
        "6 span-endpoints",
        ok,
        f"(weak [{lo_w:.3f}, {hi_w:.3f}], strong [{lo_s:.2f}, {hi_s:.2f}])",
    )
    assert ok


def test_criterion_7_herald_limits():
    started = time.time()
    n, seed = 10_000_000, 77
    ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.7)
    input_mean = (6.0, 6.0)
    scales = (math.inf, 2.0, 1.2, 0.8, 0.4, 0.05)
    ladder = []
    for scale in scales:
        window = (
            HeraldWindow(math.inf, math.inf)
            if math.isinf(scale)
            else scaled_window(ch, tap, scale)
        )
        ladder.append(heralded_statistics(ch, tap, window, n, seed, input_mean))

    probs = [r.success_prob for r in ladder]
    assert all(a > b for a, b in zip(probs, probs[1:])), probs

    for prev, nxt in zip(ladder, ladder[1:]):
        slack = 5.0 * math.hypot(prev.added_noise_x_stderr, nxt.added_noise_x_stderr)
        assert nxt.added_noise_x <= prev.added_noise_x + slack
        slack = 5.0 * math.hypot(prev.added_noise_p_stderr, nxt.added_noise_p_stderr)
        assert nxt.added_noise_p <= prev.added_noise_p + slack

    open_ref = receiver_added_noise(ch, tap, False)
    wide = ladder[0]
    assert wide.success_prob == 1.0
    assert abs(wide.added_noise_x - open_ref) <= 5 * wide.added_noise_x_stderr
    assert abs(wide.added_noise_p - open_ref) <= 5 * wide.added_noise_p_stderr

    # zero-window reference: heterodyne conditioning of the signal on the
    # pre-detector tap mode at outcome (0, 0)
    pair = signal_tap_state(ch, tap, states.coherent(*input_mean))
    cond, _ = states.condition_heterodyne(pair, 1, (0.0, 0.0))
    gain_pred = (cond.mean[0] / input_mean[0]) * (cond.mean[1] / input_mean[1])
    noise_pred = (cond.cov[0, 0] + 1.0 - gain_pred) / gain_pred
    tight = ladder[-1]
    assert abs(tight.added_noise_x - noise_pred) <= 5 * tight.added_noise_x_stderr
    assert abs(tight.added_noise_p - noise_pred) <= 5 * tight.added_noise_p_stderr
    assert abs(tight.gain - gain_pred) <= 5 * tight.gain_stderr

    announce(
        "7 herald-limits",
        True,
        f"(success {probs[0]:.3f}->{probs[-1]:.5f}, zero-window noise "
        f"{tight.added_noise_x:.3f} vs oracle {noise_pred:.3f}, {time.time() - started:.0f}s)",
    )


def theory_channel(gamma):
    ch = ChannelParams(0.9, 25.0)
    return EffectiveChannel(
        plan_optimal_heterodyne(ch, TapConfig(gamma)).optical_gain,
        optimal_added_noise(ch, TapConfig(gamma)),
    )


def test_criterion_8_qkd_structure():
    sigma = 40.0
    ok = True
    for attack in Attack:
        for gamma in (0.92, 0.82, 0.68, 0.48):
            ok = ok and key_rate(theory_channel(gamma), sigma, attack).k_direct > 0.0
        ok = ok and key_rate(EffectiveChannel(1.04, 1.04), sigma, attack).k_direct < 0.0
        for gamma in (0.92, 0.82, 0.68, 0.48, 0.2):
            report = key_rate(theory_channel(gamma), sigma, attack)
            ok = ok and report.k_direct_asymptotic >= report.k_direct - 1e-12
    announce("8 qkd-structure", ok, "(sign pattern + asymptotic dominance)")
    assert ok

    # stretch goal, reported but never failing: the maximal corrected rate
    report = key_rate(theory_channel(1.0), sigma, Attack.COLLECTIVE)
    hit = abs(report.k_direct - 1.443) <= 0.05 and abs(
        report.k_direct_asymptotic - 1.617
    ) <= 0.05
    announce(
        "8s qkd-maximal-rate (stretch)",
        hit,
        f"(K={report.k_direct:.3f} vs 1.443, K_inf={report.k_direct_asymptotic:.3f} vs 1.617)",
    )


def test_criterion_9_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli.main(
            ["reproduce", "fig5", "--out", str(out), "--n", "20000", "--seed", "202"]
        )
        assert code == 0
    same_csv = (out_a / "fig5.csv").read_bytes() == (out_b / "fig5.csv").read_bytes()
    same_json = (out_a / "fig5.json").read_bytes() == (out_b / "fig5.json").read_bytes()

    ch, tap = ChannelParams(0.9, 25.0), TapConfig(0.7)
    window = scaled_window(ch, tap, 0.8)
    same_stats = heralded_statistics(ch, tap, window, 50_000, 11) == heralded_statistics(
        ch, tap, window, 50_000, 11
    )
    ok = same_csv and same_json and same_stats
    announce("9 determinism", ok, "(byte-identical reruns)")
    assert ok
