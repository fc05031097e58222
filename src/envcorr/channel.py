"""Noisy Gaussian channel with an environmental tap.

The channel couples the signal to a thermal environment on a beam splitter
of transmission eta. A fraction gamma of the leaked environment mode is
split off and sent to a tap detector (homodyne on the x quadrature, or
heterodyne on both).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Detector(enum.Enum):
    HOMODYNE_X = "homodyne-x"
    HETERODYNE = "heterodyne"


@dataclass(frozen=True)
class ChannelParams:
    """Transmission eta in (0,1] and environment variance v_env >= 1.

    The closed forms square v_env and scale it by 1/eta, so both v_env^2 and
    the largest of them, the receiver's added noise ((1-eta) v_env + 1)/eta,
    must be finite floats.
    """

    eta: float
    v_env: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if not (1.0 <= self.v_env and math.isfinite(self.v_env * self.v_env)):
            raise ValueError(
                "v_env must be >= 1 (thermal or vacuum environment) and its square finite"
            )
        if not math.isfinite(((1.0 - self.eta) * self.v_env + 1.0) / self.eta):
            raise ValueError(
                "eta too small: the receiver's added noise ((1-eta) v_env + 1)/eta overflows"
            )


@dataclass(frozen=True)
class TapConfig:
    """Measured fraction gamma in [0,1] of the leaked mode, and detector kind."""

    gamma: float
    detector: Detector = Detector.HETERODYNE

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")


def added_noise_uncorrected(ch: ChannelParams) -> float:
    """Input-referred noise added by the bare channel: (1-eta)/eta * v_env."""
    return (1.0 - ch.eta) / ch.eta * ch.v_env


def excess_noise(ch: ChannelParams) -> float:
    """Added noise in excess of the loss-equivalent vacuum level."""
    return (1.0 - ch.eta) * (ch.v_env - 1.0) / ch.eta


def security_thresholds(eps: float) -> dict[str, bool]:
    """Classify excess noise against the security breakpoints.

    The channel preserves entanglement only below 2 shot units of excess
    noise, and withstands collective attacks only below 0.8. Boundary
    values count as insecure.
    """
    return {
        "entanglement_preserving": eps < 2.0,
        "collective_secure": eps < 0.8,
    }
