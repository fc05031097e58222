"""Probabilistic correction by post-selection on the tap read-out.

A trajectory is kept only when both tap outcomes fall inside a symmetric
acceptance window. No displacement is applied; shrinking the window trades
success probability for output noise. The zero-window limit has closed
forms for the surviving state's added noise and the heralded channel gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import montecarlo
from .channel import ChannelParams, Detector, TapConfig

# coherent input of every heralded batch; the gain is read off its first-moment transfer
PROBE_MEAN = (6.0, 6.0)


@dataclass(frozen=True)
class HeraldWindow:
    """Acceptance half-widths per quadrature, each in [0, inf].

    A zero window keeps no trajectory; the sharp-selection limit is reported
    by the zero-window closed forms (`zero_window_added_noise`,
    `zero_window_gain`) and the regression estimate instead.
    """

    x_th: float
    p_th: float

    def __post_init__(self):
        if not (self.x_th >= 0.0 and self.p_th >= 0.0):
            raise ValueError("window half-widths must be non-negative numbers")


class HeraldNoYieldError(RuntimeError):
    """Raised when post-selection keeps too few trajectories to estimate."""

    def __init__(self, message: str, success_prob: float):
        super().__init__(message)
        self.success_prob = success_prob


def zero_window_added_noise(ch: ChannelParams, tap: TapConfig) -> float:
    """State added noise in the sharp-selection limit.

    (1-eta)/eta * ((1-gamma) gamma eta (v-1)^2 + v) / (1 + gamma (v-1))^2;
    reduces to the uncorrected value at gamma = 0 and stays below it for
    any gamma > 0, v > 1.
    """
    eta, gamma, v = ch.eta, tap.gamma, ch.v_env
    num = (1.0 - gamma) * gamma * eta * (v - 1.0) ** 2 + v
    return (1.0 - eta) / eta * num / (1.0 + gamma * (v - 1.0)) ** 2


def zero_window_gain(ch: ChannelParams, tap: TapConfig) -> float:
    """Heralded channel power gain in the sharp-selection limit."""
    eta, gamma, v = ch.eta, tap.gamma, ch.v_env
    num = 1.0 - gamma + gamma * v
    den = 1.0 - gamma + gamma * (eta * v + 1.0 - eta)
    return eta * num**2 / den**2


def _require_heterodyne(tap: TapConfig) -> None:
    if tap.detector is not Detector.HETERODYNE:
        raise ValueError("heralding post-selects dual-quadrature tap outcomes")


def tap_outcome_std(ch: ChannelParams, tap: TapConfig) -> float:
    """Standard deviation of each heterodyne tap read-out (coherent input)."""
    _require_heterodyne(tap)
    a_t = tap.gamma * ((1.0 - ch.eta) + ch.eta * ch.v_env) + (1.0 - tap.gamma)
    return math.sqrt((a_t + 1.0) / 2.0)


def scaled_window(ch: ChannelParams, tap: TapConfig, scale: float) -> HeraldWindow:
    """Window with both half-widths scale x the tap read-out standard deviation."""
    half = scale * tap_outcome_std(ch, tap)
    return HeraldWindow(half, half)


@dataclass(frozen=True)
class HeraldResult:
    added_noise_x: float
    added_noise_x_stderr: float
    added_noise_p: float
    added_noise_p_stderr: float
    gain: float
    gain_stderr: float
    success_prob: float
    n_accepted: int
    n_total: int


def heralded_ladder(rungs, n: int, seed: int) -> list[HeraldResult]:
    """Monte Carlo estimates of the heralded channel for each rung (ch, tap, window).

    Each estimate reads the accepted trajectories of its rung's batch at
    (n, seed). The receiver's heterodyne read-out variance, input-referred
    against the gain estimated from the accepted first moments, gives the
    added noise. The input is the coherent state of mean PROBE_MEAN.
    Deterministic in (inputs, seed); each result equals its rung's own
    `heralded_statistics`, but the rungs share one draw of the tap normals,
    so the errors of rungs that share a seed are correlated. Every rung is
    checked before anything is drawn. Raises HeraldNoYieldError, for the
    first rung in order, when fewer than two trajectories survive.
    """
    if n < 10_000:
        raise ValueError("heralded statistics needs n >= 10^4")
    for _, tap, _ in rungs:
        _require_heterodyne(tap)
    ladder = montecarlo.ladder_moments(
        [(ch, tap, PROBE_MEAN, (window.x_th, window.p_th)) for ch, tap, window in rungs], n, seed
    )
    results = []
    for moments in ladder:
        m = moments.n_accepted
        if m < 2:
            raise HeraldNoYieldError(f"acceptance window kept {m} of {n} trajectories", m / n)
        gain, gain_err = montecarlo.estimate_gain(moments, PROBE_MEAN, where="receiver")
        # the noise is input-referred against the estimated gain, so its stderr carries the gain's
        (v_x, err_x), (v_p, err_p) = (
            (v, math.hypot(err, (v + 1.0) / gain * gain_err))
            for v, err in montecarlo.estimate_added_noise(moments, gain, "receiver")
        )
        results.append(HeraldResult(
            added_noise_x=v_x,
            added_noise_x_stderr=err_x,
            added_noise_p=v_p,
            added_noise_p_stderr=err_p,
            gain=gain,
            gain_stderr=gain_err,
            success_prob=m / n,
            n_accepted=m,
            n_total=n,
        ))
    return results


def heralded_statistics(
    ch: ChannelParams,
    tap: TapConfig,
    window: HeraldWindow,
    n: int,
    seed: int,
) -> HeraldResult:
    """`heralded_ladder` of the one rung (ch, tap, window)."""
    (result,) = heralded_ladder([(ch, tap, window)], n, seed)
    return result
