"""Secret-key rates for Gaussian-modulated coherent-state QKD.

The channel is summarized by its power gain G and input-referred added
noise chi (shot-noise units). Alice modulates both quadratures with
variance sigma; Bob homodynes a randomly chosen quadrature (or heterodynes
both). Rates are bits per quadrature symbol, K = I_AB - I_E, and may be
negative in insecure regimes.

Shannon rate, homodyne reception
    I_AB = 1/2 log2(1 + SNR). Bob's input-referred variance on the key
    quadrature is sigma + 1 + chi, of which sigma is signal and 1 + chi is
    noise (coherent unit plus channel noise), so SNR = sigma/(1 + chi). The
    gain G cancels because it scales signal and noise alike.

Eavesdropper bounds
    The channel is dilated by a beam splitter (G < 1) or a two-mode squeezer
    (G > 1) fed with half an EPR pair of variance w = max(G chi/|G-1|, 1);
    Eve holds the other dilation output and the EPR twin. The dilation
    realizes chi = max(chi, |G-1|/G); noise below that floor is refused. Each
    bound is a closed form of this model, after the entanglement-based forms
    of Lodewyck et al., PRA 76, 042305 (2007) and the V_B|E of Grosshans et
    al., Nature 421, 238 (2003). With V = 1 + sigma and q = 1 + chi V,
    Alice's EPR twin A and Bob's mode B have variances V and G(V + chi) and
    correlation sqrt(G(V^2 - 1)).

    individual: Shannon bounds. Direct: Eve's effective channel carries the
    Heisenberg-dual noise 1/chi, I_AE = 1/2 log2(1 + sigma chi/(1+chi)); on
    a pure-loss line (chi = (1-T)/T) that is the beam-splitter attack
    1/2 log2(1 + (1-T) sigma). Reverse: 1/2 log2(V_B / V_B|E) with Eve
    sharp-conditioned on both her modes; the whole state is pure, so
    V_B|E = 1/V_B|A and the bound is 1/2 log2(G^2 (V + chi)(1/V + chi)).

    collective: Holevo bounds S(E) - S(E|A) and S(E) - S(E|B), with
    g(nu) = a log2 a - b log2 b, a = (nu+1)/2, b = (nu-1)/2, per mode
    (for b > 1 as log2 b + a log1p(1/b)/ln 2, which does not cancel).
      S(E) = S(A, B), the whole state being pure: nu_+- =
        (sqrt(x^2 + 4 G q) +- x)/2 with x = |V(1-G) - G chi|.
      S(E|A), homodyne: Eve's state for the input diag(1, V), the key
        quadrature known and the other still modulated. Through its
        purification, nu_+-^2 = (D +- sqrt(D^2 - 4 det))/2 with
        D = V(1-G)^2 + G^2 chi (1+V+chi) + 2G and det = G^2 q (1+chi); the
        discriminant is formed from the x and p blocks,
        (V(1-G^2) - G^2 chi (1+V+chi))^2 + 4G(V-1)((G-1)V + G chi)(1-G - G chi),
        not as a difference of squares.
      S(E|A), heterodyne: Eve's state for a vacuum input, nu = G(1+chi).
      S(E|B) = S(A|B), Bob's measurement leaving a pure state:
        nu = sqrt(V q/(V + chi)) for homodyne and
        (V + G q)/(1 + G(V + chi)) for heterodyne.
    All of these are continuous through G = 1. Channels with |G-1| < 1e-4
    and 1e-9 < chi < 1e-4/1.0001 are refused as well: an earlier gain clamp
    refused them, and the refused set is kept.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# sigma at which the sigma -> infinity limits are evaluated; rates converge
# like O(1/sigma), so this is exact to ~1e-7 bits
ASYMPTOTIC_SIGMA = 1e7


class Attack(enum.Enum):
    INDIVIDUAL = "individual"
    COLLECTIVE = "collective"


class Direction(enum.Enum):
    DIRECT = "direct"
    REVERSE = "reverse"


class Detection(enum.Enum):
    HOMODYNE = "homodyne"
    HETERODYNE = "heterodyne"


@dataclass(frozen=True)
class EffectiveChannel:
    """Power gain and input-referred added noise of a Gaussian channel."""

    gain: float
    added_noise: float
    detection: Detection = Detection.HOMODYNE

    def __post_init__(self):
        if not (math.isfinite(self.gain) and self.gain > 0.0):
            raise ValueError("gain must be positive and finite")
        if not (math.isfinite(self.added_noise) and self.added_noise >= 0.0):
            raise ValueError("added_noise must be non-negative and finite")


@dataclass(frozen=True)
class KeyRateReport:
    k_direct: float
    k_reverse: float
    k_direct_asymptotic: float
    k_reverse_asymptotic: float


def mutual_information(chan: EffectiveChannel, sigma: float) -> float:
    """Shannon rate between Alice's modulation and Bob's measurement."""
    if sigma <= 0.0:
        raise ValueError("modulation variance must be positive")
    chi = chan.added_noise
    if chan.detection is Detection.HOMODYNE:
        return 0.5 * math.log2(1.0 + sigma / (1.0 + chi))
    # heterodyne reception adds one vacuum unit, input-referred 1/gain
    return math.log2(1.0 + sigma / (1.0 + chi + 1.0 / chan.gain))


# -- the dilation's entropies in closed form ---------------------------------

_LN2 = math.log(2.0)
# the gain of an earlier clamp near G = 1; its refusal band is kept below
_BAND_GAIN = 1.0 + 1e-4


def _entropy_bits(nu: float) -> float:
    """g(nu): entropy of a thermal mode of symplectic eigenvalue nu, in bits."""
    if nu <= 1.0:
        return 0.0
    b = (nu - 1.0) / 2.0
    if b > 1.0:
        # a log a - b log b with a = b + 1, without the cancellation
        return math.log2(b) + (b + 1.0) * math.log1p(1.0 / b) / _LN2
    a = b + 1.0
    return a * math.log2(a) - b * math.log2(b)


def _dilated_noise(chan: EffectiveChannel) -> float:
    """The chi the dilation realizes, max(chi, |G-1|/G); refuse sub-floor chi."""
    g, chi = chan.gain, chan.added_noise
    floor = abs(g - 1.0) / g
    if abs(g - 1.0) < 1e-4:
        if 1e-9 < chi < (_BAND_GAIN - 1.0) / _BAND_GAIN - 1e-12:
            raise ValueError("added noise below the amplifier quantum floor")
    elif chi < floor - 1e-12:
        side = "loss vacuum" if g < 1.0 else "amplifier quantum"
        raise ValueError(f"added noise below the {side} floor")
    return max(chi, floor)


def eve_information(
    chan: EffectiveChannel, sigma: float, attack: Attack, direction: Direction
) -> float:
    """Upper bound on the eavesdropper's information, bits per symbol."""
    if sigma <= 0.0:
        raise ValueError("modulation variance must be positive")
    if attack is Attack.INDIVIDUAL and direction is Direction.DIRECT:
        chi = chan.added_noise
        return 0.5 * math.log2(1.0 + sigma * chi / (1.0 + chi))
    g, chi, v = chan.gain, _dilated_noise(chan), 1.0 + sigma
    q = 1.0 + chi * v
    if attack is Attack.INDIVIDUAL:
        return 0.5 * math.log2(g * g * (v + chi) * (1.0 / v + chi))
    # S(E) = S(A, B): nu_+- = (sqrt(x^2 + 4 G q) +- x) / 2
    x = abs(v * (1.0 - g) - g * chi)
    nu = (x + math.sqrt(x * x + 4.0 * g * q)) / 2.0
    s_eve = _entropy_bits(nu) + _entropy_bits(g * q / nu)
    heterodyne = chan.detection is Detection.HETERODYNE
    if direction is Direction.REVERSE:
        if heterodyne:
            return s_eve - _entropy_bits((v + g * q) / (1.0 + g * (v + chi)))
        return s_eve - _entropy_bits(math.sqrt(v * q / (v + chi)))
    if heterodyne:
        return s_eve - _entropy_bits(g * (1.0 + chi))
    # Eve's state for the input diag(1, V), through its purification
    delta = v * (1.0 - g) ** 2 + g * g * chi * (1.0 + v + chi) + 2.0 * g
    det = g * g * q * (1.0 + chi)
    # D^2 - 4 det from the x and p blocks, not as a difference of squares
    disc = (v * (1.0 - g) * (1.0 + g) - g * g * chi * (1.0 + v + chi)) ** 2
    disc += 4.0 * g * (v - 1.0) * ((g - 1.0) * v + g * chi) * (1.0 - g - g * chi)
    nu_sq = (delta + math.sqrt(max(disc, 0.0))) / 2.0
    return s_eve - _entropy_bits(math.sqrt(nu_sq)) - _entropy_bits(math.sqrt(det / nu_sq))


def key_rate(
    chan: EffectiveChannel, sigma: float, attack: Attack = Attack.COLLECTIVE
) -> KeyRateReport:
    """Secret-key rates at sigma and in the sigma -> infinity limit.

    Both reconciliation directions are reported.
    """

    def rate(s: float, d: Direction) -> float:
        return mutual_information(chan, s) - eve_information(chan, s, attack, d)

    return KeyRateReport(
        k_direct=rate(sigma, Direction.DIRECT),
        k_reverse=rate(sigma, Direction.REVERSE),
        k_direct_asymptotic=rate(ASYMPTOTIC_SIGMA, Direction.DIRECT),
        k_reverse_asymptotic=rate(ASYMPTOTIC_SIGMA, Direction.REVERSE),
    )
