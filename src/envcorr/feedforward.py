"""Deterministic feedforward correction strategies.

Each strategy scales the tap detector's outcomes by electronic gains and
displaces the transmitted signal. The erasing gains cancel the environment
term exactly, amplifying the channel to optical gain 1/eta; the optimal
gain instead minimizes the added noise of the output state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelParams, Detector, TapConfig

# erasing gains diverge as gamma -> 0; refuse to build degenerate plans
MIN_ERASING_GAMMA = 1e-6


@dataclass(frozen=True)
class FeedforwardPlan:
    """Electronic gains per quadrature and the resulting optical power gain."""

    g_x: float
    g_p: float
    optical_gain: float

    def __post_init__(self):
        if self.g_x < 0.0 or self.g_p < 0.0:
            raise ValueError("electronic gains must be non-negative")


def _require(tap: TapConfig, kind: Detector, what: str) -> None:
    if tap.detector is not kind:
        raise ValueError(f"{what} requires a {kind.value} tap")


def plan_erasing_homodyne(ch: ChannelParams, tap: TapConfig) -> FeedforwardPlan:
    """Single-quadrature erasing of x: g = sqrt((1-eta)/(gamma eta)), gain 1/eta."""
    _require(tap, Detector.HOMODYNE_X, "erasing homodyne")
    if tap.gamma < MIN_ERASING_GAMMA:
        raise ValueError("gamma too small for an erasing plan")
    g = math.sqrt((1.0 - ch.eta) / (tap.gamma * ch.eta))
    return FeedforwardPlan(g, 0.0, 1.0 / ch.eta)


def plan_erasing_heterodyne(ch: ChannelParams, tap: TapConfig) -> FeedforwardPlan:
    """Dual-quadrature erasing: g = sqrt(2(1-eta)/(gamma eta)), gain 1/eta."""
    _require(tap, Detector.HETERODYNE, "erasing heterodyne")
    if tap.gamma < MIN_ERASING_GAMMA:
        raise ValueError("gamma too small for an erasing plan")
    g = math.sqrt(2.0 * (1.0 - ch.eta) / (tap.gamma * ch.eta))
    return FeedforwardPlan(g, g, 1.0 / ch.eta)


def plan_optimal_heterodyne(ch: ChannelParams, tap: TapConfig) -> FeedforwardPlan:
    """Noise-minimizing dual-quadrature gain; well defined down to gamma = 0."""
    _require(tap, Detector.HETERODYNE, "optimal heterodyne")
    eta, gamma, v = ch.eta, tap.gamma, ch.v_env
    g = math.sqrt(2.0 * gamma * (1.0 - eta)) * v / (
        math.sqrt(eta) * (2.0 + gamma * (v - 1.0))
    )
    gain = ((2.0 - gamma) * eta + gamma * v) ** 2 / (
        eta * (2.0 - gamma + gamma * v) ** 2
    )
    return FeedforwardPlan(g, g, gain)


def added_noise_hom_ff(ch: ChannelParams, tap: TapConfig) -> float:
    """Added noise of the erased quadrature: (1-eta)(1-gamma)/gamma.

    Independent of the environment variance; infinite at gamma = 0.
    """
    if tap.gamma == 0.0:
        return math.inf
    return (1.0 - ch.eta) * (1.0 - tap.gamma) / tap.gamma


def added_noise_het_state(ch: ChannelParams, tap: TapConfig) -> float:
    """State added noise under dual-quadrature erasing: (1-eta)(2-gamma)/gamma."""
    if tap.gamma == 0.0:
        return math.inf
    return (1.0 - ch.eta) * (2.0 - tap.gamma) / tap.gamma


def receiver_added_noise(ch: ChannelParams, tap: TapConfig, with_ff: bool) -> float:
    """Input-referred added noise seen by the receiver's heterodyne detector.

    Without feedforward: ((1-eta) v_env + 1)/eta. With dual-quadrature
    erasing feedforward: eta + (1-eta)(2-gamma)/gamma, which reaches exactly
    one shot unit at gamma = 1 for any eta.
    """
    if not with_ff:
        return ((1.0 - ch.eta) * ch.v_env + 1.0) / ch.eta
    if tap.gamma == 0.0:
        return math.inf
    return ch.eta + (1.0 - ch.eta) * (2.0 - tap.gamma) / tap.gamma


def improvement_conditions(ch: ChannelParams, tap: TapConfig) -> dict[str, bool]:
    """Strict thresholds on gamma above which each correction helps."""
    eta, gamma, v = ch.eta, tap.gamma, ch.v_env
    return {
        "hom": gamma > eta / (v + eta),
        "het_state": gamma > 1.0 / (1.0 + v / eta),
        "het_receiver": gamma > 2.0 * eta / (1.0 + 2.0 * eta + v),
    }


def optimal_added_noise(ch: ChannelParams, tap: TapConfig) -> float:
    """Minimal state added noise over the feedforward gain.

    (1-eta)(2-gamma) v / (eta (2-gamma) + gamma v); reduces to the
    uncorrected value (1-eta) v / eta at gamma = 0.
    """
    eta, gamma, v = ch.eta, tap.gamma, ch.v_env
    return (1.0 - eta) * (2.0 - gamma) * v / (eta * (2.0 - gamma) + gamma * v)
