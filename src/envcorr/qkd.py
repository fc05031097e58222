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
    individual: Shannon bound with Eve's effective channel carrying the
    Heisenberg-dual noise 1/chi, i.e. I_AE = 1/2 log2(1 + sigma chi/(1+chi)).
    For a pure-loss line (chi = (1-T)/T) this is exactly the beam-splitter
    attack 1/2 log2(1 + (1-T) sigma). The reverse variant uses Eve's
    sharp-conditioned variance on Bob's value in the dilation below.

    collective: Holevo bound computed from a Gaussian dilation of the
    channel. A gain-G, noise-chi channel is realized by a beam splitter
    (G <= 1) or a two-mode squeezer (G > 1) fed with half an EPR pair whose
    variance is tuned to chi; Eve holds the other dilation output and the
    EPR twin. chi(A;E) conditions Eve's states per key quadrature; chi(B;E)
    conditions them on Bob's homodyne outcome.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .states import symplectic_form

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
    modulation_variance: float
    attack: Attack


def mutual_information(chan: EffectiveChannel, sigma: float) -> float:
    """Shannon rate between Alice's modulation and Bob's measurement."""
    if sigma <= 0.0:
        raise ValueError("modulation variance must be positive")
    chi = chan.added_noise
    if chan.detection is Detection.HOMODYNE:
        return 0.5 * math.log2(1.0 + sigma / (1.0 + chi))
    # heterodyne reception adds one vacuum unit, input-referred 1/gain
    return math.log2(1.0 + sigma / (1.0 + chi + 1.0 / chan.gain))


# -- Gaussian dilation of the effective channel ------------------------------

_Z = np.diag([1.0, -1.0])
_I2 = np.eye(2)


def _entropy_bits(nu: float) -> float:
    if nu <= 1.0 + 1e-12:
        return 0.0
    a, b = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return a * math.log2(a) - b * math.log2(b)


def _von_neumann(cov: np.ndarray) -> float:
    omega = symplectic_form(cov.shape[0] // 2)
    eigs = np.sort(np.abs(np.linalg.eigvals(1j * omega @ cov)))[::2]
    return float(sum(_entropy_bits(float(v)) for v in eigs))


def _dilation_cov(gain: float, chi: float, vx: float, vp: float) -> np.ndarray:
    """Covariance of (Bob, dilation mode, EPR twin) for source diag(vx, vp).

    Quadrature order (x_B, p_B, x_E1, p_E1, x_E2, p_E2).
    """
    vin = np.diag([vx, vp])
    g = gain
    if abs(g - 1.0) < 1e-4:
        if chi > 1e-9:
            # additive-noise regime: approach from the amplifier side; the
            # entropies converge like O(|g-1|) and float64 degrades below
            # 1e-5, so clamp at 1e-4 (error ~1e-7 bits)
            g = 1.0 + 1e-4
        else:
            cov = np.eye(6)
            cov[:2, :2] = vin
            return cov
    if g < 1.0:
        floor = (1.0 - g) / g
        if chi < floor - 1e-12:
            raise ValueError("added noise below the loss vacuum floor")
        w = max(g * chi / (1.0 - g), 1.0)
        t, r = math.sqrt(g), math.sqrt(1.0 - g)
        # Bob = t in + r w;  E1 = r in - t w;  E2 = EPR twin of w
        cz = math.sqrt(max(w * w - 1.0, 0.0)) * _Z
        cov = np.zeros((6, 6))
        cov[:2, :2] = g * vin + (1.0 - g) * w * _I2
        cov[2:4, 2:4] = (1.0 - g) * vin + g * w * _I2
        cov[4:6, 4:6] = w * _I2
        cov[:2, 2:4] = cov[2:4, :2] = t * r * (vin - w * _I2)
        cov[:2, 4:6] = cov[4:6, :2] = r * cz
        cov[2:4, 4:6] = cov[4:6, 2:4] = -t * cz
        return cov
    floor = (g - 1.0) / g
    if chi < floor - 1e-12:
        raise ValueError("added noise below the amplifier quantum floor")
    w = max(g * chi / (g - 1.0), 1.0)
    s, m = math.sqrt(g), math.sqrt(g - 1.0)
    # Bob = s in + m Z w;  E1 = m Z in + s w;  E2 = EPR twin of w
    cz = math.sqrt(max(w * w - 1.0, 0.0)) * _Z
    cov = np.zeros((6, 6))
    cov[:2, :2] = g * vin + (g - 1.0) * w * _I2
    cov[2:4, 2:4] = (g - 1.0) * _Z @ vin @ _Z + g * w * _I2
    cov[4:6, 4:6] = w * _I2
    cov[:2, 2:4] = cov[2:4, :2] = s * m * (vin @ _Z + w * _Z)
    cov[:2, 4:6] = cov[4:6, :2] = m * _Z @ cz
    cov[2:4, 4:6] = cov[4:6, 2:4] = s * cz
    return cov


def _holevo_direct(chan: EffectiveChannel, sigma: float) -> float:
    # Eve's entropy averaged over the key quadrature minus conditioned on it;
    # the conjugate quadrature stays modulated in both terms
    if chan.detection is Detection.HOMODYNE:
        cond = _dilation_cov(chan.gain, chan.added_noise, 1.0, 1.0 + sigma)
    else:
        cond = _dilation_cov(chan.gain, chan.added_noise, 1.0, 1.0)
    full = _dilation_cov(chan.gain, chan.added_noise, 1.0 + sigma, 1.0 + sigma)
    return _von_neumann(full[2:, 2:]) - _von_neumann(cond[2:, 2:])


def _holevo_reverse(chan: EffectiveChannel, sigma: float) -> float:
    cov = _dilation_cov(chan.gain, chan.added_noise, 1.0 + sigma, 1.0 + sigma)
    s_eve = _von_neumann(cov[2:, 2:])
    if chan.detection is Detection.HOMODYNE:
        # condition Eve on Bob's sharp X outcome
        var_b = cov[0, 0]
        row = cov[2:, 0]
        cond = cov[2:, 2:] - np.outer(row, row) / var_b
    else:
        c = cov[2:, :2]
        cond = cov[2:, 2:] - c @ np.linalg.inv(cov[:2, :2] + _I2) @ c.T
    return s_eve - _von_neumann(cond)


def _individual_reverse(chan: EffectiveChannel, sigma: float) -> float:
    # Shannon bound with Eve granted sharp conditioning on her dilation modes
    cov = _dilation_cov(chan.gain, chan.added_noise, 1.0 + sigma, 1.0 + sigma)
    var_b = cov[0, 0]
    c = cov[2:, 0]
    resid = var_b - c @ np.linalg.solve(cov[2:, 2:], c)
    return 0.5 * math.log2(var_b / resid)


def eve_information(
    chan: EffectiveChannel, sigma: float, attack: Attack, direction: Direction
) -> float:
    """Upper bound on the eavesdropper's information, bits per symbol."""
    if sigma <= 0.0:
        raise ValueError("modulation variance must be positive")
    chi = chan.added_noise
    if attack is Attack.INDIVIDUAL:
        if direction is Direction.DIRECT:
            return 0.5 * math.log2(1.0 + sigma * chi / (1.0 + chi))
        return _individual_reverse(chan, sigma)
    if direction is Direction.DIRECT:
        return _holevo_direct(chan, sigma)
    return _holevo_reverse(chan, sigma)


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
        modulation_variance=sigma,
        attack=attack,
    )
