"""Trajectory-level sampler of the full channel + tap + receiver chain.

Every Gaussian mode quadrature is drawn independently at its phase-space
variance, the linear optics are applied as arithmetic on the draws, and the
detectors read out the exact measured combinations. This gives an estimator
for every closed form in the package that shares no algebra with it.

Record columns, in order:

    x_in, p_in        sampled input quadratures (coherent: mean + unit noise)
    x_tap, p_tap      tap detector read-out (includes the detector vacuum)
    x_recv, p_recv    receiver heterodyne read-out, scaled so that the mean
                      is preserved and exactly one vacuum unit is added per
                      quadrature (raw 50/50 port value times sqrt(2))
    x_tap_mode, ...   tapped mode before the detector split
    x_sig, p_sig      signal quadratures after feedforward, before the
                      receiver detector

Each trajectory is 10 standard normals Z pushed through `_apply_optics`,
so its COLUMNS are A Z + b. `_read_map` reads (A, b) with one
`_apply_optics` call, once per batch. The estimators need only the count,
mean and scatter of the MOMENT_COLUMNS, so every batch is reduced to one
block of (count, mean of Z, scatter of Z), mapped through their rows of (A, b).

- Window-free batches draw their block from exact sufficient statistics.
  For m iid draws the mean of Z is N(0, I/m) and, independently, its
  scatter is Wishart(I, m - 1), so a batch takes 10 normals for the mean
  and a Bartlett factor of the scatter (10 chi-squares, 45 normals) instead
  of 10 m normals. Batches of 10 or fewer draw Z explicitly.
- Heralded (windowed) batches draw 2 normals per trajectory. The tap
  read-out t = T Z + c is the x_tap, p_tap rows of the same (A, b). With
  Q R = T^T (complete QR), u = Q[:, :2]^T Z ~ N(0, I2) and w = Q[:, 2:]^T Z
  ~ N(0, I8) are independent. x_tap and p_tap draw on disjoint normals, so
  R[:2] is diagonal, s, and t = s (u - u0): the window is a box on the
  offsets d = u - u0. Shards draw u, window d and sum the accepted d:
  count m, mean, centred scatter S = F F^T (F over the k positive
  eigenvalues of S). The accepted w then have mean N(0, I8/m), cross
  scatter with u F H (H: k x 8 standard normals) and scatter H^T H +
  Wishart(I8, m - 1 - k). Rotated back by Q, that is the batch's one block.
  A window open in both quadratures keeps all n: its batch is window-free.
- Heralded batches that share (n, seed) form a ladder and share one pass of
  u draws; each rung windows and reduces its own d, then draws H and w from
  its own copy of the generator state after the u draws. Each rung's block
  is thus its own batch's, byte for byte, and the rungs' errors are
  correlated.

Every draw of a batch comes from one generator,
`default_rng(SeedSequence(seed, spawn_key=(0,)))`, shard after shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import ChannelParams, Detector, TapConfig
from .feedforward import FeedforwardPlan

SHARD_SIZE = 1 << 14
# largest batch: every count stays exact as a float64
MAX_N = 2**53
# standard normals per trajectory: the rows of the draws `_apply_optics` takes
NORMALS = 10

COLUMNS = (
    "x_in",
    "p_in",
    "x_tap",
    "p_tap",
    "x_recv",
    "p_recv",
    "x_tap_mode",
    "p_tap_mode",
    "x_sig",
    "p_sig",
)

# the columns `windowed_moments` reduces; the zero-window regression also
# needs the co-moment of each quadrature's signal with its tapped mode
MOMENT_COLUMNS = ("x_sig", "p_sig", "x_recv", "p_recv", "x_tap_mode", "p_tap_mode")
_MOMENT_INDEX = [COLUMNS.index(name) for name in MOMENT_COLUMNS]
_TAP_INDEX = [COLUMNS.index("x_tap"), COLUMNS.index("p_tap")]
_SIG, _TAP_MODE = [0, 1], [4, 5]
# Bartlett factor indices (sub-diagonal, diagonal) of the dimensions drawn: Z and w
_BARTLETT = {dim: (np.tril_indices(dim, -1), np.arange(dim)) for dim in (NORMALS, NORMALS - 2)}


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


# -- optics -------------------------------------------------------------------


def _apply_optics(
    ch: ChannelParams,
    tap: TapConfig,
    input_mean: tuple[float, float],
    plan: Optional[FeedforwardPlan],
    draws: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Turn NORMALS x size standard normals into the COLUMNS.

    The rows of draws are x_in, p_in, x_env, p_env, x_v1, p_v1, x_v2, p_v2,
    x_vr, p_vr. This is the sampler's one definition of the optics: a
    batch's map, tap frame included, is read off it by one `_read_map` call,
    and `sample` pushes every trajectory through it.
    """
    x_in, p_in, x_env, p_env, x_v1, p_v1, x_v2, p_v2, x_vr, p_vr = draws
    x_in, p_in = x_in + input_mean[0], p_in + input_mean[1]
    s_env = np.sqrt(ch.v_env)
    x_env, p_env = s_env * x_env, s_env * p_env

    # the leaked mode, which the tap splits off
    t, r = np.sqrt(ch.eta), np.sqrt(1.0 - ch.eta)
    x_leak, p_leak = r * x_in - t * x_env, r * p_in - t * p_env
    tg, rg = np.sqrt(tap.gamma), np.sqrt(1.0 - tap.gamma)
    x_tm, p_tm = tg * x_leak + rg * x_v1, tg * p_leak + rg * p_v1

    if tap.detector is Detector.HETERODYNE:
        half = np.sqrt(0.5)
        x_tap, p_tap = half * (x_tm + x_v2), half * (p_tm - p_v2)
    else:  # homodyne on x; the p read-out is the detector vacuum
        x_tap, p_tap = x_tm, -p_v2

    x_out, p_out = t * x_in + r * x_env, t * p_in + r * p_env
    # feedforward displaces the signal by the scaled tap read-out
    if plan is not None:
        x_out, p_out = x_out + plan.g_x * x_tap, p_out + plan.g_p * p_tap
    x_recv, p_recv = x_out + x_vr, p_out + p_vr
    return x_in, p_in, x_tap, p_tap, x_recv, p_recv, x_tm, p_tm, x_out, p_out


def _read_map(ch, tap, input_mean, plan):
    """(A, b) such that a trajectory's COLUMNS are A Z + b, from one `_apply_optics` call.

    The call takes a zero column, the basis columns and a column holding the
    input mean in its x_in, p_in rows, all at input mean (0, 0). A is the
    basis columns minus the zero column, so it keeps its digits however far
    the input mean shifts the read-outs; b is the last column. A batch reads
    its map once: the tap frame and the moments both slice it.
    """
    draws = np.zeros((NORMALS, NORMALS + 2))
    draws[:, 1:-1] = np.eye(NORMALS)
    draws[:2, -1] = input_mean
    cols = np.array(_apply_optics(ch, tap, (0.0, 0.0), plan, draws))
    return cols[:, 1:-1] - cols[:, :1], cols[:, -1]


def _tap_frame(a: np.ndarray, b: np.ndarray):
    """(Q, s, u0): the tap read-out of Z is s (u - u0) with u = Q[:, :2]^T Z.

    (a, b) is a batch's `_read_map`, of which only the tap rows t = T Z + c
    are read; they come before any feedforward, so the plan does not move
    them. Q R is the complete QR of T^T, s the diagonal of R[:2] and u0 =
    -c / s the window centre t = 0. R[:2] is diagonal and s has no zero:
    x_tap draws only on x-quadrature normals, p_tap only on p-quadrature
    ones, and neither row vanishes.
    """
    q, r = np.linalg.qr(a[_TAP_INDEX].T, mode="complete")
    return q, np.diagonal(r), -b[_TAP_INDEX] / np.diagonal(r)


# -- draws ----------------------------------------------------------------------


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError("n must be in [1, 2^53]")


def _generator(seed: int) -> np.random.Generator:
    """The one generator all of a batch's draws come from."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def _shards(rng: np.random.Generator, n: int, rows: int):
    """Yield (start, draws) per shard of n trajectories, in shard order.

    draws is rows x size standard normals from rng, a view into one buffer
    that the next shard overwrites.
    """
    buffer = np.empty(rows * SHARD_SIZE)
    for start in range(0, n, SHARD_SIZE):
        draws = buffer[: rows * min(SHARD_SIZE, n - start)].reshape(rows, -1)
        rng.standard_normal(out=draws)
        yield start, draws


def sample(
    ch: ChannelParams,
    tap: TapConfig,
    input_mean: tuple[float, float],
    plan: Optional[FeedforwardPlan],
    n: int,
    seed: int,
) -> np.ndarray:
    """Draw n raw trajectory records; deterministic in (inputs, seed).

    Returns an (n, len(COLUMNS)) array whose columns are in COLUMNS order.
    """
    _check_n(n)
    seed = _check_seed(seed)
    records = np.empty((n, len(COLUMNS)))
    for start, draws in _shards(_generator(seed), n, NORMALS):
        cols = _apply_optics(ch, tap, input_mean, plan, draws)
        for j, col in enumerate(cols):
            records[start : start + draws.shape[1], j] = col
    return records


# -- statistics of the draws ----------------------------------------------------


def _normal_statistics(rng: np.random.Generator, m: int, dim: int):
    """Mean (dim,) and scatter (dim, dim) of m >= 1 iid N(0, I_dim) draws.

    For m > dim the mean is drawn as N(0, I/m) and the scatter as Wishart(I,
    m - 1) by Bartlett decomposition, L L^T with L lower triangular, L_ii^2 ~
    chi^2(m - 1 - i) and N(0, 1) below the diagonal: first the mean, then the
    sub-diagonal normals, then the chi-squares. Otherwise the m vectors are
    drawn and reduced.
    """
    if m > dim:
        mean = rng.standard_normal(dim) / np.sqrt(m)
        lower, diag = _BARTLETT[dim]
        factor = np.zeros((dim, dim))
        factor[lower] = rng.standard_normal(len(lower[0]))
        factor[diag, diag] = np.sqrt(rng.chisquare(m - 1.0 - diag))
        return mean, factor @ factor.T
    z = rng.standard_normal((m, dim))
    mean = z.mean(axis=0)
    return mean, (z - mean).T @ (z - mean)


def _accepted_statistics(rungs, n: int, seed: int) -> list:
    """Count, mean (NORMALS,) and scatter of the accepted draws of Z, per rung.

    A rung is (optics, window), optics its batch's `_read_map`, and all rungs
    share (n, seed).
    One pass draws u shard by shard, and each rung reduces its own accepted
    offsets d = u - u0 from its window centre with its window mask as weights,
    pooled shard by shard. Each rung then draws the rest from its exact law
    given those (see the module docstring), from its own copy of the
    generator state after the u draws. So every rung gets the block a batch
    of its own would, and rungs that share (n, seed) share their u. A rung
    whose window is open in both quadratures (or None) keeps all n: it draws
    the window-free block from a fresh generator.
    """
    blocks, frames = [None] * len(rungs), {}
    for i, (optics, window) in enumerate(rungs):
        if window is None or window[0] == window[1] == np.inf:
            blocks[i] = (n, *_normal_statistics(_generator(seed), n, NORMALS))
        else:
            frames[i] = _tap_frame(*optics)
    if not frames:
        return blocks
    rng = _generator(seed)
    pooled = {i: (0, np.zeros(2), np.zeros((2, 2))) for i in frames}
    offsets = np.empty(2 * SHARD_SIZE)
    for _, u in _shards(rng, n, 2):
        d = offsets[: u.size].reshape(u.shape)
        for i, (_, scale, centre) in frames.items():
            window, (m, offset, s_uu) = rungs[i][1], pooled[i]
            np.subtract(u, centre[:, None], out=d)
            keep = np.abs(scale[0] * d[0]) <= window[0]
            keep &= np.abs(scale[1] * d[1]) <= window[1]
            # centre the shard on its accepted mean: a wide window far from u0 loses no digits
            count = np.count_nonzero(keep)
            shard_mean = d @ keep / max(count, 1)
            d -= shard_mean[:, None]
            # Chan merge of the running block and the shard's
            counts, means = np.array([m, count]), np.array([offset, shard_mean])
            m = int(counts.sum())
            offset = counts @ means / max(m, 1)
            dev = means - offset
            pooled[i] = m, offset, s_uu + (d * keep) @ d.T + (dev.T * counts) @ dev
    after_u = rng.bit_generator.state
    for i, (q, _, centre) in frames.items():
        m, offset, s_uu = pooled[i]
        if m == 0:
            blocks[i] = 0, np.zeros(NORMALS), np.zeros((NORMALS, NORMALS))
            continue
        rng.bit_generator.state = after_u
        # F F^T = S_uu over its positive eigenvalues; m draws span at most m - 1
        values, vectors = np.linalg.eigh(s_uu)
        k = min(int(np.count_nonzero(values > 0.0)), m - 1)
        f = vectors[:, 2 - k :] * np.sqrt(values[2 - k :])
        h = rng.standard_normal((k, NORMALS - 2))
        # w off the k directions of the centred u: m - k iid N(0, I8) draws
        w_mean, w_scatter = _normal_statistics(rng, m - k, NORMALS - 2)
        mean = np.concatenate([centre + offset, w_mean * np.sqrt((m - k) / m)])
        scatter = np.block([[s_uu, f @ h], [(f @ h).T, h.T @ h + w_scatter]])
        blocks[i] = m, q @ mean, q @ scatter @ q.T
    return blocks


@dataclass(frozen=True)
class Moments:
    """Moments of MOMENT_COLUMNS over the accepted trajectories of a batch.

    mean and m2 (sum of squared deviations) hold one entry per moment
    column; co holds the (signal, tapped mode) co-moment per quadrature.
    """

    n_accepted: int
    mean: np.ndarray
    m2: np.ndarray
    co: np.ndarray

    def column(self, name: str) -> tuple[int, float, float]:
        """(count, mean, unbiased variance) of one moment column."""
        count = self.n_accepted
        if count < 2:
            raise ValueError("need at least two samples for a variance")
        i = MOMENT_COLUMNS.index(name)
        return count, float(self.mean[i]), float(self.m2[i]) / (count - 1)


def _batch_moments(rungs, n: int, seed: int, plan) -> list[Moments]:
    """Moments of each rung (ch, tap, input_mean, window) at (n, seed) under plan.

    Raises before drawing if n, seed or any rung's window is invalid. Each
    rung reads its optics once, with `_read_map`: its tap frame and the map
    of its block through the MOMENT_COLUMNS rows both slice that one read.
    """
    _check_n(n)
    seed = _check_seed(seed)
    reads = []
    for ch, tap, input_mean, window in rungs:
        if window is not None and not (window[0] >= 0.0 and window[1] >= 0.0):
            raise ValueError("window half-widths must be non-negative numbers")
        reads.append((_read_map(ch, tap, input_mean, plan), window))
    out = []
    for ((a, b), _), (count, mean, scatter) in zip(reads, _accepted_statistics(reads, n, seed)):
        a, b = a[_MOMENT_INDEX], b[_MOMENT_INDEX]
        # an overflow here reads inf or nan, which the finite check reports
        with np.errstate(over="ignore", invalid="ignore"):
            y_mean = a @ mean + b
            y_scatter = a @ scatter @ a.T
        m2, co = np.diagonal(y_scatter), y_scatter[_SIG, _TAP_MODE]
        if not all(np.all(np.isfinite(values)) for values in (y_mean, m2, co)):
            raise ValueError("trajectory moments must be finite")
        out.append(Moments(count, y_mean, m2, co))
    return out


def windowed_moments(
    ch: ChannelParams,
    tap: TapConfig,
    input_mean: tuple[float, float],
    window,
    n: int,
    seed: int,
    *,
    plan: Optional[FeedforwardPlan] = None,
) -> Moments:
    """Moments of the MOMENT_COLUMNS over n trajectories.

    window is None to accept every trajectory, or (x_th, p_th) in [0, inf]
    to accept those with |x_tap| <= x_th and |p_tap| <= p_th, a box in the
    tap's diagonal frame. plan applies feedforward to the signal. Raises
    ValueError on a NaN or negative half-width and on non-finite moments.

    Both kinds of batch yield one block of (count, mean of Z, scatter of Z)
    from exact statistics (see the module docstring), mapped through the
    batch's one `_read_map`. A window open in both quadratures draws the
    window-free one.
    """
    return _batch_moments([(ch, tap, input_mean, window)], n, seed, plan)[0]


def ladder_moments(rungs, n: int, seed: int) -> list[Moments]:
    """`windowed_moments` of each rung (ch, tap, input_mean, window), without feedforward.

    Every rung's moments equal those of its own batch at (n, seed), byte for
    byte, but the rungs share one draw of the tap normals. Raises before
    drawing if any rung's window is invalid.
    """
    return _batch_moments(rungs, n, seed, None)


# -- estimators ---------------------------------------------------------------


def _prefix(where: str) -> str:
    """Record-pair prefix of `where`: "signal" or "receiver"."""
    if where not in ("signal", "receiver"):
        raise ValueError("where must be 'signal' or 'receiver'")
    return "sig" if where == "signal" else "recv"


def estimate_added_noise(
    moments: Moments,
    optical_gain: float,
    where: str = "signal",
):
    """Input-referred added noise (variance - gain)/gain per quadrature.

    where selects the record pair: "signal" for the state before the
    receiver detector, "receiver" for the heterodyne read-out. Returns
    ((v_x, stderr_x), (v_p, stderr_p)); stderr uses the Gaussian
    variance-of-variance formula 2 V^2/(n-1).
    """
    if optical_gain <= 0.0:
        raise ValueError("optical_gain must be positive")
    prefix = _prefix(where)
    out = []
    for quad in ("x", "p"):
        count, _, var = moments.column(f"{quad}_{prefix}")
        value = (var - optical_gain) / optical_gain
        stderr = np.sqrt(2.0 / (count - 1)) * var / optical_gain
        out.append((value, stderr))
    return tuple(out)


def estimate_gain(
    moments: Moments,
    input_mean: tuple[float, float],
    quadratures: tuple[str, ...] = ("x", "p"),
    where: str = "signal",
):
    """Channel power gain from first-moment transfer, with stderr.

    The amplitude transfer mean_out/mean_in is averaged over the requested
    quadratures and squared. Requires displacements of at least 5 shot-noise
    sigma so the ratio is well conditioned. Single-quadrature strategies
    should pass quadratures=("x",) since they only amplify that quadrature.
    where selects the record pair as in `estimate_added_noise`.
    """
    prefix = _prefix(where)
    means = dict(zip(("x", "p"), input_mean))
    if any(abs(means[q]) < 5.0 for q in quadratures):
        raise ValueError("input mean must be >= 5 shot-noise sigma per quadrature")
    ratios = []
    for quad in quadratures:
        count, mean, var = moments.column(f"{quad}_{prefix}")
        ratios.append((mean / means[quad], np.sqrt(var / count) / abs(means[quad])))
    amp = sum(r[0] for r in ratios) / len(ratios)
    amp_err = np.sqrt(sum(r[1] ** 2 for r in ratios)) / len(ratios)
    return amp * amp, 2.0 * abs(amp) * amp_err


def estimate_zero_window(moments: Moments, input_mean: tuple[float, float]):
    """Sharp-selection limit estimated by regression, without post-selection.

    For jointly Gaussian records, the state conditioned on the tapped-mode
    values has covariance equal to the residual of the linear regression of
    the signal on the tap mode, and mean equal to the regression prediction
    at tap = 0. Uses every sample.

    The stderr is the Gaussian regression's, per quadrature: the residual
    variance r has variance 2 r^2/(m - 1) and, independently of it, the
    prediction c at tap 0 has variance r (1/m + mean_t^2/m2_t). The gain
    g = amp^2, amp = (c_x/mu_x + c_p/mu_p)/2, and the noise r/g - 1 carry
    them by the delta method. Both quadratures divide by the one g, so their
    average (r_x + r_p)/(2 g) - 1 carries Var g once, not as two independent
    shares.

    Returns {"added_noise_x": (v, err), "added_noise_p": (v, err),
             "added_noise": (v, err), "gain": (g, err)}; "added_noise" is the
    average of the two quadratures.
    """
    if min(abs(input_mean[0]), abs(input_mean[1])) < 5.0:
        raise ValueError("input mean must be >= 5 shot-noise sigma per quadrature")
    m = moments.n_accepted
    if m < 1024:
        raise ValueError("zero-window regression needs at least 1024 trajectories")
    mean, m2 = moments.mean, moments.m2
    var, cov = m2 / (m - 1), moments.co / (m - 1)
    s, t, mean_in = _SIG, _TAP_MODE, np.asarray(input_mean, dtype=float)
    resid = var[s] - cov**2 / var[t]
    # the difference cancels as v_env grows: its rounding, about 4 eps var[s],
    # must stay under a tenth of the residual's statistical error
    if not np.all(4.0 * np.finfo(float).eps * var[s] <= 0.1 * resid * np.sqrt(2.0 / (m - 1))):
        raise ValueError("zero-window regression: the residual variance is lost to rounding")
    pred = mean[s] - cov / var[t] * mean[t]
    pred_var = resid * (1.0 / m + mean[t] ** 2 / m2[t])
    gain = (0.5 * (pred[0] / mean_in[0] + pred[1] / mean_in[1])) ** 2
    gain_var = gain * np.sum(pred_var / mean_in**2)
    noise = (resid - gain) / gain
    noise_err = np.sqrt(2.0 * resid**2 / (m - 1) / gain**2 + resid**2 * gain_var / gain**4)
    avg_err = np.sqrt(
        2.0 * np.sum(resid**2) / (m - 1) / (4.0 * gain**2)
        + (0.5 * np.sum(resid)) ** 2 * gain_var / gain**4
    )
    return {
        "added_noise_x": (float(noise[0]), float(noise_err[0])),
        "added_noise_p": (float(noise[1]), float(noise_err[1])),
        "added_noise": (0.5 * (float(noise[0]) + float(noise[1])), float(avg_err)),
        "gain": (float(gain), float(np.sqrt(gain_var))),
    }
