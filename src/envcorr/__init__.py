"""Environmental-assisted correction of continuous-variable Gaussian channels."""

from .channel import ChannelParams, Detector, TapConfig
from .feedforward import FeedforwardPlan
from .herald import HeraldNoYieldError, HeraldWindow
from .qkd import Attack, Detection, Direction, EffectiveChannel, KeyRateReport
from .states import GaussianState

__all__ = [
    "Attack",
    "ChannelParams",
    "Detection",
    "Detector",
    "Direction",
    "EffectiveChannel",
    "FeedforwardPlan",
    "GaussianState",
    "HeraldNoYieldError",
    "HeraldWindow",
    "KeyRateReport",
    "TapConfig",
]

__version__ = "0.1.0"
