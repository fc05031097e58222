"""Reference values the benchmark checks envcorr's outputs against.

Everything here is written apart from the package: the paper's closed forms
for the corrected channels, the Gaussian box probability of the herald
window, and the Gaussian-dilation key rates evaluated with the closed-form
two-mode symplectic eigenvalues (Lodewyck et al., PRA 76, 042305 (2007))
instead of the package's complex eigenvalue route.

Shot-noise units throughout: vacuum variance 1 per quadrature.
"""

from __future__ import annotations

import math

import numpy as np

# -- corrected-channel closed forms (arXiv 0909.3546) ------------------------


def channel_formulas(eta: float, gamma: float, v: float) -> dict:
    """Every closed-form column `envcorr run` can report, by quantity name."""
    out = {
        "added_noise_uncorrected": (1 - eta) / eta * v,
        "excess_noise": (1 - eta) * (v - 1) / eta,
        "receiver_added_noise_no_ff": ((1 - eta) * v + 1) / eta,
        "channel_gain_uncorrected": eta,
        "gain_hom_ff": 1 / eta,
        "gain_erasing": 1 / eta,
        "optimal_added_noise": (1 - eta) * (2 - gamma) * v / (eta * (2 - gamma) + gamma * v),
        "optimal_gain": ((2 - gamma) * eta + gamma * v) ** 2
        / (eta * (2 - gamma + gamma * v) ** 2),
    }
    if gamma > 0:
        out["added_noise_hom_ff"] = (1 - eta) * (1 - gamma) / gamma
        out["added_noise_het_state"] = (1 - eta) * (2 - gamma) / gamma
        out["receiver_added_noise_ff"] = eta + (1 - eta) * (2 - gamma) / gamma
    return out


def herald_box_probability(
    eta: float, gamma: float, v: float, scale: float, input_mean: tuple[float, float]
) -> float:
    """Chance that both heterodyne tap read-outs fall in the scaled window.

    Each read-out is Gaussian with variance (a_t + 1)/2, where a_t is the
    tapped-mode variance, and mean sqrt(gamma (1 - eta) / 2) times the input
    amplitude, because the leaked mode carries a share of the signal.
    """
    if math.isinf(scale):
        return 1.0
    a_t = gamma * ((1 - eta) + eta * v) + (1 - gamma)
    std = math.sqrt((a_t + 1) / 2)
    half = scale * std
    prob = 1.0
    for amplitude in input_mean:
        mu = math.sqrt(gamma * (1 - eta) / 2) * amplitude
        z = std * math.sqrt(2)
        prob *= 0.5 * (math.erf((half - mu) / z) + math.erf((half + mu) / z))
    return prob


# -- key rates from a Gaussian dilation --------------------------------------

_Z = np.diag([1.0, -1.0])
_I = np.eye(2)


def entropy_bits(nu: float) -> float:
    """Von Neumann entropy g(nu) of a thermal mode with symplectic eigenvalue nu."""
    if nu <= 1 + 1e-12:
        return 0.0
    a, b = (nu + 1) / 2, (nu - 1) / 2
    return a * math.log2(a) - b * math.log2(b)


def two_mode_entropy(cov: np.ndarray) -> float:
    """Entropy of a two-mode Gaussian state from its 4x4 covariance.

    nu_+^2 = (D + sqrt(D^2 - 4 det cov)) / 2 with
    D = det A + det B + 2 det C for cov = [[A, C], [C^T, B]], and
    nu_-^2 = det cov / nu_+^2, which avoids the cancellation in D - sqrt(...).
    """
    a, b, c = cov[:2, :2], cov[2:, 2:], cov[:2, 2:]
    det = np.linalg.det(cov)
    delta = np.linalg.det(a) + np.linalg.det(b) + 2 * np.linalg.det(c)
    nu_plus_sq = (delta + math.sqrt(max(delta * delta - 4 * det, 0.0))) / 2
    return entropy_bits(math.sqrt(nu_plus_sq)) + entropy_bits(math.sqrt(det / nu_plus_sq))


def dilation(gain: float, chi: float, vin) -> np.ndarray:
    """Covariance of (Bob, E1, E2) for a source of covariance diag(vin).

    Loss (G < 1): Bob = t in + r w, E1 = r in - t w.  Amplifier (G > 1):
    Bob = s in + m Z w, E1 = m Z in + s w.  w is half of an EPR pair whose
    variance sets the added noise chi; E2 is its twin.
    """
    g = gain
    if g < 1:
        w = max(g * chi / (1 - g), 1.0)
        t, r = math.sqrt(g), math.sqrt(1 - g)
        rows = [[t * _I, r * _I, 0 * _I], [r * _I, -t * _I, 0 * _I], [0 * _I, 0 * _I, _I]]
    else:
        w = max(g * chi / (g - 1), 1.0)
        s, m = math.sqrt(g), math.sqrt(g - 1)
        rows = [[s * _I, m * _Z, 0 * _I], [m * _Z, s * _I, 0 * _I], [0 * _I, 0 * _I, _I]]
    epr = math.sqrt(max(w * w - 1, 0.0)) * _Z
    source = np.zeros((6, 6))
    source[:2, :2] = np.diag(vin)
    source[2:4, 2:4] = source[4:, 4:] = w * _I
    source[2:4, 4:] = source[4:, 2:4] = epr
    mix = np.block(rows)
    return mix @ source @ mix.T


def key_rates(gain: float, chi: float, sigma: float, collective: bool, heterodyne: bool) -> dict:
    """(k_direct, k_reverse) at sigma, by the package's attack model."""
    i_ab = mutual_information(gain, chi, sigma, heterodyne)
    full = dilation(gain, chi, (1 + sigma, 1 + sigma))
    eve = full[2:, 2:]
    if collective:
        cond_in = (1.0, 1.0) if heterodyne else (1.0, 1 + sigma)
        e_direct = two_mode_entropy(eve) - two_mode_entropy(dilation(gain, chi, cond_in)[2:, 2:])
        c = full[2:, :2]
        if heterodyne:
            cond = eve - c @ np.linalg.inv(full[:2, :2] + _I) @ c.T
        else:
            cond = eve - np.outer(c[:, 0], c[:, 0]) / full[0, 0]
        e_reverse = two_mode_entropy(eve) - two_mode_entropy(cond)
    else:
        e_direct = 0.5 * math.log2(1 + sigma * chi / (1 + chi))
        c = full[2:, 0]
        resid = full[0, 0] - c @ np.linalg.solve(eve, c)
        e_reverse = 0.5 * math.log2(full[0, 0] / resid)
    return {"k_direct": i_ab - e_direct, "k_reverse": i_ab - e_reverse}


def pure_loss_eve(transmission: float, sigma: float, collective: bool, heterodyne: bool) -> float:
    """Eve's direct-reconciliation information on a pure-loss line.

    Individual: 1/2 log2(1 + (1-T) sigma), the beam-splitter attack.
    Collective: g(V_E) - g(V_E|A) with V_E = 1 + (1-T) sigma.  Knowing one
    quadrature leaves Eve a mode of symplectic eigenvalue sqrt(V_E); knowing
    both (heterodyne) leaves her a coherent state.
    """
    v_e = 1 + (1 - transmission) * sigma
    if not collective:
        return 0.5 * math.log2(v_e)
    if heterodyne:
        return entropy_bits(v_e)
    return entropy_bits(v_e) - entropy_bits(math.sqrt(v_e))


def mutual_information(gain: float, chi: float, sigma: float, heterodyne: bool) -> float:
    """Alice-Bob Shannon rate; heterodyne reception adds one vacuum unit."""
    if heterodyne:
        return math.log2(1 + sigma / (1 + chi + 1 / gain))
    return 0.5 * math.log2(1 + sigma / (1 + chi))
