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


@dataclass(frozen=True)
class HeraldWindow:
    """Acceptance half-widths per quadrature, each in [0, inf]; (0, 0) marks the analytic limit."""

    x_th: float
    p_th: float

    def __post_init__(self):
        if not (self.x_th >= 0.0 and self.p_th >= 0.0):
            raise ValueError("window half-widths must be non-negative numbers")


class HeraldNoYieldError(RuntimeError):
    """Raised when post-selection keeps too few trajectories to estimate."""

    def __init__(self, message: str, success_prob: float, n_total: int):
        super().__init__(message)
        self.success_prob = success_prob
        self.n_total = n_total


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


def tap_outcome_std(ch: ChannelParams, tap: TapConfig) -> tuple[float, float]:
    """Standard deviation of the tap read-out per quadrature (coherent input)."""
    a_t = tap.gamma * ((1.0 - ch.eta) + ch.eta * ch.v_env) + (1.0 - tap.gamma)
    if tap.detector is Detector.HETERODYNE:
        s = math.sqrt((a_t + 1.0) / 2.0)
        return s, s
    if tap.detector is Detector.HOMODYNE_X:
        return math.sqrt(a_t), 1.0
    return 1.0, math.sqrt(a_t)


def scaled_window(ch: ChannelParams, tap: TapConfig, scale: float) -> HeraldWindow:
    """Window with half-widths scale x the tap read-out standard deviation."""
    sx, sp = tap_outcome_std(ch, tap)
    return HeraldWindow(scale * sx, scale * sp)


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


def heralded_statistics(
    ch: ChannelParams,
    tap: TapConfig,
    window: HeraldWindow,
    n: int,
    seed: int,
    input_mean: tuple[float, float] = (6.0, 6.0),
    workers: int = 1,
) -> HeraldResult:
    """Monte Carlo estimate of the heralded channel over accepted trajectories.

    The receiver's heterodyne read-out variance, input-referred against the
    gain estimated from the accepted first moments, gives the added noise.
    Deterministic in (inputs, seed). Raises HeraldNoYieldError when fewer
    than two trajectories survive.
    """
    if n < 10_000:
        raise ValueError("heralded statistics needs n >= 10^4")
    if tap.detector is not Detector.HETERODYNE:
        raise ValueError("heralding post-selects dual-quadrature tap outcomes")
    moments = montecarlo.windowed_moments(
        ch, tap, input_mean, (window.x_th, window.p_th), n, seed, workers=workers
    )
    m = moments.n_accepted
    success = m / n
    if m < 2:
        raise HeraldNoYieldError(
            f"acceptance window kept {m} of {n} trajectories", success, n
        )

    amps = []
    variances = {}
    for quad, mean_in in zip(("x", "p"), input_mean):
        _, mean, variances[quad] = moments.column(f"{quad}_recv")
        amps.append((mean / mean_in, math.sqrt(variances[quad] / m) / abs(mean_in)))
    amp = 0.5 * (amps[0][0] + amps[1][0])
    amp_err = 0.5 * math.hypot(amps[0][1], amps[1][1])
    gain = amp * amp
    gain_err = 2.0 * abs(amp) * amp_err

    noise = {}
    for quad, var in variances.items():
        value = (var - gain) / gain
        stderr = math.hypot(
            math.sqrt(2.0 / (m - 1)) * var / gain, var / gain**2 * gain_err
        )
        noise[quad] = (value, stderr)

    return HeraldResult(
        added_noise_x=noise["x"][0],
        added_noise_x_stderr=noise["x"][1],
        added_noise_p=noise["p"][0],
        added_noise_p_stderr=noise["p"][1],
        gain=gain,
        gain_stderr=gain_err,
        success_prob=success,
        n_accepted=m,
        n_total=n,
    )
