"""Multimode Gaussian state algebra in shot-noise units.

States are value objects: a mean vector and a covariance matrix over the
quadratures (x1, p1, x2, p2, ...), with the vacuum normalized to unit
variance per quadrature (commutator convention [X, P] = 2i). All operations
return new states; nothing here mutates its inputs.

This is the covariance-algebra oracle the tests check the package's closed
forms and Monte Carlo map against; the package itself never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from envcorr.channel import ChannelParams, TapConfig

SYMMETRY_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode Gaussian state.

    Attributes:
        mean: length-2n vector ordered (x1, p1, ..., xn, pn).
        cov: symmetric 2n x 2n covariance matrix, vacuum = identity.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _frozen(np.atleast_1d(self.mean))
        cov = _frozen(np.atleast_2d(self.cov))
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must be length 2n and cov 2n x 2n")
        if mean.size == 0 or mean.size % 2:
            raise ValueError("state must have at least one mode")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("state moments must be finite")
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        if np.min(np.diagonal(cov)) < -SYMMETRY_TOL:
            raise ValueError("covariance diagonal must be non-negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def quadrature_slice(self, mode: int) -> slice:
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode {mode} out of range for {self.n_modes} modes")
        return slice(2 * mode, 2 * mode + 2)


def vacuum(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, identity covariance."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def coherent(x: float, p: float) -> GaussianState:
    """Single-mode coherent state: displaced vacuum with mean (x, p)."""
    return GaussianState(np.array([x, p], dtype=float), np.eye(2))


def thermal(v: float) -> GaussianState:
    """Single-mode thermal state with variance v >= 1 per quadrature."""
    if v < 1.0:
        raise ValueError("thermal variance must be >= 1 (no squeezing)")
    return GaussianState(np.zeros(2), v * np.eye(2))


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of a and b; b's modes are appended after a's."""
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((mean.size, mean.size))
    cov[: a.mean.size, : a.mean.size] = a.cov
    cov[a.mean.size :, a.mean.size :] = b.cov
    return GaussianState(mean, cov)


def splitter_matrix(eta: float, mode_i: int, mode_j: int, n_modes: int) -> np.ndarray:
    """Beam splitter of transmission eta coupling mode_i and mode_j.

    Sends X_i -> sqrt(eta) X_i + sqrt(1-eta) X_j and
    X_j -> sqrt(1-eta) X_i - sqrt(eta) X_j (same for P). No range check on
    eta; callers pass validated channel parameters.
    """
    t, r = np.sqrt(eta), np.sqrt(1.0 - eta)
    m = np.eye(2 * n_modes)
    for q in range(2):  # same coupling on x and p
        i, j = 2 * mode_i + q, 2 * mode_j + q
        m[i, i], m[i, j] = t, r
        m[j, i], m[j, j] = r, -t
    return m


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Marginal state of the modes in `keep` (order preserved as given)."""
    keep = list(keep)
    if not keep:
        raise ValueError("must keep at least one mode")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate modes in keep set")
    idx = []
    for mode in keep:
        sl = state.quadrature_slice(mode)
        idx.extend([sl.start, sl.start + 1])
    idx = np.array(idx)
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])


def condition_heterodyne(
    state: GaussianState, mode: int, outcome: tuple[float, float]
) -> GaussianState:
    """Condition on a dual-quadrature (heterodyne) outcome on one mode.

    The measured mode is removed. With A the measured block, B the rest,
    C their cross covariance and M = I the measurement noise:

        cov -> B - C (A + M)^-1 C^T
        mean -> mean_B + C (A + M)^-1 (outcome - mean_A)
    """
    if state.n_modes < 2:
        raise ValueError("need at least one unmeasured mode")
    sl = state.quadrature_slice(mode)
    meas = [sl.start, sl.start + 1]
    rest = [q for q in range(state.mean.size) if q not in meas]
    a = state.cov[np.ix_(meas, meas)] + np.eye(2)
    c = state.cov[np.ix_(rest, meas)]
    b = state.cov[np.ix_(rest, rest)]
    diff = np.asarray(outcome, dtype=float) - state.mean[meas]
    gain = c @ np.linalg.inv(a)
    cov = b - gain @ c.T
    mean = state.mean[rest] + gain @ diff
    return GaussianState(mean, 0.5 * (cov + cov.T))


def condition_homodyne(
    state: GaussianState, mode: int, quadrature: str, outcome: float
) -> GaussianState:
    """Condition on a sharp single-quadrature (homodyne) outcome.

    quadrature is "x" or "p". The measured mode stays in place with the
    measured quadrature pinned to the outcome (zero variance); the rest of
    the state is updated by the Schur complement on that row/column.
    """
    if quadrature not in ("x", "p"):
        raise ValueError("quadrature must be 'x' or 'p'")
    sl = state.quadrature_slice(mode)
    q = sl.start + (0 if quadrature == "x" else 1)
    var = state.cov[q, q]
    if var <= 0.0:
        raise np.linalg.LinAlgError("measured quadrature already deterministic")
    row = state.cov[:, q]
    cov = state.cov - np.outer(row, row) / var
    mean = state.mean + row * ((outcome - state.mean[q]) / var)
    cov[q, :] = 0.0  # pinned exactly, clean up roundoff
    cov[:, q] = 0.0
    mean = mean.copy()
    mean[q] = outcome
    return GaussianState(mean, 0.5 * (cov + cov.T))


def _apply_linear(state: GaussianState, m: np.ndarray) -> GaussianState:
    # general linear phase-space map; not necessarily symplectic
    cov = m @ state.cov @ m.T
    return GaussianState(m @ state.mean, 0.5 * (cov + cov.T))


def signal_tap_state(
    ch: ChannelParams, tap: TapConfig, input_state: GaussianState
) -> GaussianState:
    """Two-mode state (signal out, tapped mode) before the detector split.

    The tapped mode is the gamma fraction of the leaked environment mixed
    with vacuum; conditioning on it with heterodyne noise models the tap
    detector exactly.
    """
    if input_state.n_modes != 1:
        raise ValueError("input must be a single-mode state")
    joint = tensor(input_state, thermal(ch.v_env))
    joint = tensor(joint, vacuum(1))
    joint = _apply_linear(joint, splitter_matrix(ch.eta, 0, 1, 3))
    joint = _apply_linear(joint, splitter_matrix(tap.gamma, 1, 2, 3))
    return partial_trace(joint, [0, 1])
