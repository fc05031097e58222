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

Each trajectory is 10 standard normals Z pushed through `_apply_optics`.
The estimators need only the count, mean and scatter of the
MOMENT_COLUMNS, and two samplers produce them:

- Trajectories, for windowed (heralded) batches and for `sample`. Shard i
  draws its normals from `default_rng([seed, i])` at a fixed shard size,
  and `windowed_moments` reduces the accepted trajectories of each shard
  to moments in a reused workspace, merging shards in index order.
- Sufficient statistics, for window-free batches. Without a window the
  moment columns are Y = A Z + b, and `affine_map` reads (A, b) off
  `_apply_optics` run on a zero column and the 10 basis columns. For m iid
  draws the mean of Z is N(0, I/m), its scatter is Wishart(I, m - 1), and
  the two are independent, so a block of m trajectories draws 10 normals
  for the mean and a Bartlett factor of the scatter (10 chi-squares, 45
  normals) instead of 10 m normals. A batch is its `_replicate_edges`
  blocks, each drawn on its own and pooled into the total; the blocks are
  drawn in one go from `default_rng(SeedSequence(seed, spawn_key=(0,)))`,
  a key no shard stream uses. Blocks of 10 or fewer draw Z explicitly.
"""

from __future__ import annotations

import functools
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
_MOMENT_INDEX = tuple(COLUMNS.index(name) for name in MOMENT_COLUMNS)
_SIG, _TAP_MODE = [0, 1], [4, 5]
_X_TAP, _P_TAP = COLUMNS.index("x_tap"), COLUMNS.index("p_tap")


@dataclass(frozen=True)
class TrajectoryBatch:
    """Sampled quadrature records plus the seed that generated them."""

    records: np.ndarray
    seed: int

    def __post_init__(self):
        rec = np.asarray(self.records, dtype=float)
        if rec.ndim != 2 or rec.shape[1] != len(COLUMNS):
            raise ValueError(f"records must have {len(COLUMNS)} columns")
        if not np.all(np.isfinite(rec)):
            raise ValueError("records must be finite")
        rec.setflags(write=False)
        object.__setattr__(self, "records", rec)

    def column(self, name: str) -> np.ndarray:
        return self.records[:, COLUMNS.index(name)]


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


# -- shard kernel -------------------------------------------------------------


class _Workspace:
    """Scratch for one shard at a time, reused across the shards of a call."""

    def __init__(self, size: int = SHARD_SIZE):
        self.draws = np.empty(NORMALS * size)  # flat, so any shard's draws are contiguous
        self.out = np.empty((3, size))  # x_out, p_out, one temporary
        self.dev = np.empty((len(MOMENT_COLUMNS), size))
        self.square = np.empty(size)
        self.keep = np.empty((2, size), dtype=bool)


def _mix(a, x, b, y, out, tmp):
    """out = a x + b y without temporaries; out may be x or y."""
    np.multiply(a, x, out=tmp)
    np.multiply(b, y, out=out)
    return np.add(tmp, out, out=out)


def _apply_optics(
    ws: _Workspace,
    ch: ChannelParams,
    tap: TapConfig,
    input_mean: tuple[float, float],
    plan: Optional[FeedforwardPlan],
    draws: np.ndarray,
    size: int,
) -> tuple[np.ndarray, ...]:
    """Turn NORMALS x size standard normals into the COLUMNS, in place.

    The rows of draws are x_in, p_in, x_env, p_env, x_v1, p_v1, x_v2, p_v2,
    x_vr, p_vr; the returned columns are views into draws and ws. Each column
    is the same floating-point expression of the same draws whichever buffer
    holds it, so the records do not depend on the layout.
    """
    x_in, p_in, x_env, p_env, x_v1, p_v1, x_v2, p_v2, x_vr, p_vr = draws
    x_out, p_out, tmp = (row[:size] for row in ws.out)
    np.add(x_in, input_mean[0], out=x_in)
    np.add(p_in, input_mean[1], out=p_in)
    s_env = np.sqrt(ch.v_env)
    np.multiply(s_env, x_env, out=x_env)
    np.multiply(s_env, p_env, out=p_env)

    t, r = np.sqrt(ch.eta), np.sqrt(1.0 - ch.eta)
    _mix(t, x_in, r, x_env, x_out, tmp)
    _mix(t, p_in, r, p_env, p_out, tmp)
    # the leaked mode r x_in - t x_env replaces the environment draws
    x_leak = _mix(r, x_in, -t, x_env, x_env, tmp)
    p_leak = _mix(r, p_in, -t, p_env, p_env, tmp)

    tg, rg = np.sqrt(tap.gamma), np.sqrt(1.0 - tap.gamma)
    x_tm = _mix(tg, x_leak, rg, x_v1, x_v1, tmp)
    p_tm = _mix(tg, p_leak, rg, p_v1, p_v1, tmp)

    if tap.detector is Detector.HETERODYNE:
        half = np.sqrt(0.5)
        x_tap = np.multiply(half, np.add(x_tm, x_v2, out=x_v2), out=x_v2)
        p_tap = np.multiply(half, np.subtract(p_tm, p_v2, out=p_v2), out=p_v2)
    elif tap.detector is Detector.HOMODYNE_X:
        x_tap, p_tap = x_tm, np.negative(p_v2, out=p_v2)
    else:
        x_tap, p_tap = x_v2, p_tm

    # the signal after feedforward stays in the x_out/p_out rows
    if plan is not None:
        np.add(x_out, np.multiply(plan.g_x, x_tap, out=tmp), out=x_out)
        np.add(p_out, np.multiply(plan.g_p, p_tap, out=tmp), out=p_out)

    x_recv = np.add(x_out, x_vr, out=x_vr)
    p_recv = np.add(p_out, p_vr, out=p_vr)
    return x_in, p_in, x_tap, p_tap, x_recv, p_recv, x_tm, p_tm, x_out, p_out


def _draw_shard(
    ws: _Workspace,
    ch: ChannelParams,
    tap: TapConfig,
    input_mean: tuple[float, float],
    plan: Optional[FeedforwardPlan],
    size: int,
    seed: int,
    shard_index: int,
) -> tuple[np.ndarray, ...]:
    """Draw one shard's normals into ws; return its COLUMNS as views into ws."""
    draws = ws.draws[: NORMALS * size].reshape(NORMALS, size)
    np.random.default_rng([seed, shard_index]).standard_normal(out=draws)
    return _apply_optics(ws, ch, tap, input_mean, plan, draws, size)


def _map_shards(work, n: int):
    """Yield work(ws, shard_index, start, size) for every shard, in shard order.

    Shards are made as they are consumed, and all share one workspace.
    """
    ws = _Workspace()
    for index, start in enumerate(range(0, n, SHARD_SIZE)):
        yield work(ws, index, start, min(SHARD_SIZE, n - start))


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError("n must be in [1, 2^53]")


def sample(
    ch: ChannelParams,
    tap: TapConfig,
    input_mean: tuple[float, float],
    plan: Optional[FeedforwardPlan],
    n: int,
    seed: int,
) -> TrajectoryBatch:
    """Draw n raw trajectory records; deterministic in (inputs, seed)."""
    _check_n(n)
    seed = _check_seed(seed)
    records = np.empty((n, len(COLUMNS)))

    def work(ws, index, start, size):
        cols = _draw_shard(ws, ch, tap, input_mean, plan, size, seed, index)
        for j, col in enumerate(cols):
            records[start : start + size, j] = col

    for _ in _map_shards(work, n):
        pass
    return TrajectoryBatch(records, seed)


# -- moment accumulation ----------------------------------------------------


def _empty():
    return (0, np.zeros(len(MOMENT_COLUMNS)), np.zeros(len(MOMENT_COLUMNS)), np.zeros(2))


def _merge_moments(a, b):
    # Welford/Chan combination of (count, mean, m2, co-moment) summaries
    (na, ma, sa, ca), (nb, mb, sb, cb) = a, b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mb - ma
    weight = na * nb / n
    mean = ma + delta * (nb / n)
    m2 = sa + sb + delta * delta * weight
    co = ca + cb + delta[_SIG] * delta[_TAP_MODE] * weight
    return (n, mean, m2, co)


def _moments(cols, ws: _Workspace):
    """(count, mean, m2, co) of equal-length 1-D MOMENT_COLUMNS rows.

    Each row is reduced on its own and contiguously, so a column's mean
    and m2 do not depend on the other columns. The rows may be ws.dev.
    """
    count = cols[0].size
    if count == 0:
        return _empty()
    mean = np.empty(len(cols))
    m2 = np.empty(len(cols))
    dev = ws.dev[:, :count]
    square = ws.square[:count]
    for i, col in enumerate(cols):
        mean[i] = np.mean(col)
        np.subtract(col, mean[i], out=dev[i])
        m2[i] = np.sum(np.square(dev[i], out=square))
    co = np.array([
        np.sum(np.multiply(dev[s], dev[t], out=square)) for s, t in zip(_SIG, _TAP_MODE)
    ])
    return (count, mean, m2, co)


def _replicate_edges(n: int) -> list[int]:
    """Boundaries of the zero-window replicate blocks: np.array_split(n, k)."""
    k = max(2, min(64, n // 512))
    q, r = divmod(n, k)
    return [i * q + min(i, r) for i in range(k + 1)]


@dataclass(frozen=True)
class Moments:
    """Moments of MOMENT_COLUMNS over the accepted trajectories of a batch.

    mean and m2 (sum of squared deviations) hold one entry per moment
    column; co holds the (signal, tapped mode) co-moment per quadrature.
    blocks holds the zero-window replicate blocks, each a (count, mean, m2,
    co) summary, when they were requested.
    """

    n_total: int
    n_accepted: int
    mean: np.ndarray
    m2: np.ndarray
    co: np.ndarray
    blocks: tuple = ()

    def column(self, name: str) -> tuple[int, float, float]:
        """(count, mean, unbiased variance) of one moment column."""
        count = self.n_accepted
        if count < 2:
            raise ValueError("need at least two samples for a variance")
        i = MOMENT_COLUMNS.index(name)
        return count, float(self.mean[i]), float(self.m2[i]) / (count - 1)


def windowed_moments(
    ch: ChannelParams,
    tap: TapConfig,
    input_mean: tuple[float, float],
    window,
    n: int,
    seed: int,
    *,
    plan: Optional[FeedforwardPlan] = None,
    replicates: bool = False,
) -> Moments:
    """Moments of the MOMENT_COLUMNS over n trajectories.

    window is None to accept every trajectory, drawn from sufficient
    statistics, or (x_th, p_th) to accept those with |x_tap| <= x_th and
    |p_tap| <= p_th, streamed as trajectories in shards with the draws of
    `sample`. plan applies feedforward to the signal. replicates (window
    None only) also keeps the blocks that `estimate_zero_window` takes its
    stderr from. Raises ValueError on non-finite moments.
    """
    _check_n(n)
    seed = _check_seed(seed)
    blocks = []
    if window is None:
        total, *blocks = _sufficient_moments(ch, tap, input_mean, plan, n, seed, replicates)
    elif replicates:
        raise ValueError("zero-window replicates need every trajectory (window=None)")
    else:
        x_th, p_th = float(window[0]), float(window[1])

        def work(ws, index, start, size):
            cols = _draw_shard(ws, ch, tap, input_mean, plan, size, seed, index)
            keep, scratch = ws.keep[0, :size], ws.keep[1, :size]
            tmp = ws.out[2, :size]
            np.less_equal(np.abs(cols[_X_TAP], out=tmp), x_th, out=keep)
            np.less_equal(np.abs(cols[_P_TAP], out=tmp), p_th, out=scratch)
            np.logical_and(keep, scratch, out=keep)
            m = int(np.count_nonzero(keep))
            kept = [
                np.compress(keep, cols[i], out=row[:m]) for i, row in zip(_MOMENT_INDEX, ws.dev)
            ]
            return _moments(kept, ws)

        total = functools.reduce(_merge_moments, _map_shards(work, n), _empty())
    count, mean, m2, co = total
    if not all(np.all(np.isfinite(values)) for values in (mean, m2, co)):
        raise ValueError("trajectory moments must be finite")
    return Moments(n, count, mean, m2, co, tuple(blocks))


# -- sufficient statistics ------------------------------------------------------


def affine_map(
    ch: ChannelParams,
    tap: TapConfig,
    input_mean: tuple[float, float],
    plan: Optional[FeedforwardPlan],
) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) such that one trajectory's MOMENT_COLUMNS are A Z + b.

    Z is the trajectory's NORMALS standard normals. The map is read off
    `_apply_optics` run on a zero column (b) and the basis columns (b plus
    a column of A), so it is the sampler's own arithmetic, not a closed form.
    """
    size = NORMALS + 1
    draws = np.hstack([np.zeros((NORMALS, 1)), np.eye(NORMALS)])
    cols = _apply_optics(_Workspace(size), ch, tap, input_mean, plan, draws, size)
    out = np.array([cols[i] for i in _MOMENT_INDEX])
    return out[:, 1:] - out[:, :1], out[:, 0]


_LOWER = np.tril_indices(NORMALS, -1)
_NORMAL_DIAG = np.arange(NORMALS)


def _normal_statistics(rng: np.random.Generator, sizes: np.ndarray):
    """Mean (k, NORMALS) and scatter (k, NORMALS, NORMALS) of each block's draws.

    Block j holds sizes[j] iid N(0, I) vectors. When every block has more than
    NORMALS of them, the mean is drawn as N(0, I/m) and the scatter as
    Wishart(I, m - 1) by Bartlett decomposition, L L^T with L lower
    triangular, L_ii^2 ~ chi^2(m - 1 - i) and N(0, 1) below the diagonal:
    first the k means, then the k x 45 sub-diagonal normals, then the k x 10
    chi-squares. Otherwise each block's vectors are drawn and reduced.
    """
    k = len(sizes)
    if sizes.min() > NORMALS:
        m = sizes.astype(float)
        means = rng.standard_normal((k, NORMALS)) / np.sqrt(m)[:, None]
        factor = np.zeros((k, NORMALS, NORMALS))
        factor[:, _LOWER[0], _LOWER[1]] = rng.standard_normal((k, len(_LOWER[0])))
        chi2 = rng.chisquare(m[:, None] - 1.0 - _NORMAL_DIAG)
        factor[:, _NORMAL_DIAG, _NORMAL_DIAG] = np.sqrt(chi2)
        return means, factor @ factor.transpose(0, 2, 1)
    means = np.zeros((k, NORMALS))
    scatters = np.zeros((k, NORMALS, NORMALS))
    for j, m in enumerate(sizes):
        if m:
            z = rng.standard_normal((m, NORMALS))
            means[j] = z.mean(axis=0)
            dev = z - means[j]
            scatters[j] = dev.T @ dev
    return means, scatters


def _sufficient_moments(ch, tap, input_mean, plan, n: int, seed: int, replicates: bool):
    """(count, mean, m2, co) of a window-free batch, then of its blocks if replicates.

    The batch's statistics pool its `_replicate_edges` blocks, so the total
    does not depend on replicates.
    """
    sizes = np.diff(_replicate_edges(n))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    means, scatters = _normal_statistics(rng, sizes)
    # the pooled mean and scatter: the merge `_merge_moments` makes, in one step
    mean = sizes @ means / n
    dev = means - mean
    counts = [n]
    z_mean = mean[None]
    z_scatter = (scatters.sum(axis=0) + (dev.T * sizes) @ dev)[None]
    if replicates:
        counts += sizes.tolist()
        z_mean = np.concatenate([z_mean, means])
        z_scatter = np.concatenate([z_scatter, scatters])
    a, b = affine_map(ch, tap, input_mean, plan)
    y_mean = z_mean @ a.T + b
    y_scatter = a @ z_scatter @ a.T
    m2 = np.diagonal(y_scatter, axis1=1, axis2=2)
    co = y_scatter[:, _SIG, _TAP_MODE]
    return [(count, y_mean[j], m2[j], co[j]) for j, count in enumerate(counts)]


# -- estimators ---------------------------------------------------------------


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
    if where not in ("signal", "receiver"):
        raise ValueError("where must be 'signal' or 'receiver'")
    prefix = "sig" if where == "signal" else "recv"
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
):
    """Channel power gain from first-moment transfer, with stderr.

    The amplitude transfer mean_out/mean_in is averaged over the requested
    quadratures and squared. Requires displacements of at least 5 shot-noise
    sigma so the ratio is well conditioned. Single-quadrature strategies
    should pass quadratures=("x",) since they only amplify that quadrature.
    """
    means = dict(zip(("x", "p"), input_mean))
    if any(abs(means[q]) < 5.0 for q in quadratures):
        raise ValueError("input mean must be >= 5 shot-noise sigma per quadrature")
    ratios = []
    for quad in quadratures:
        count, mean, var = moments.column(f"{quad}_sig")
        ratios.append((mean / means[quad], np.sqrt(var / count) / abs(means[quad])))
    amp = sum(r[0] for r in ratios) / len(ratios)
    amp_err = np.sqrt(sum(r[1] ** 2 for r in ratios)) / len(ratios)
    return amp * amp, 2.0 * abs(amp) * amp_err


def _zero_window_point(summary, input_mean: tuple[float, float]):
    """(count, mean, m2, co) summary -> (added_noise_x, added_noise_p, power_gain)."""
    count, mean, m2, co = summary
    var, cov = m2 / (count - 1), co / (count - 1)
    amps = []
    resid = []
    for quad, mean_in in enumerate(input_mean):
        s, t = _SIG[quad], _TAP_MODE[quad]
        slope = cov[quad] / var[t]
        resid.append(var[s] - cov[quad] ** 2 / var[t])
        amps.append((mean[s] - slope * mean[t]) / mean_in)
    amp = 0.5 * (amps[0] + amps[1])
    gain = amp * amp
    return float((resid[0] - gain) / gain), float((resid[1] - gain) / gain), float(gain)


def estimate_zero_window(moments: Moments, input_mean: tuple[float, float]):
    """Sharp-selection limit estimated by regression, without post-selection.

    For jointly Gaussian records, the state conditioned on the tapped-mode
    values has covariance equal to the residual of the linear regression of
    the signal on the tap mode, and mean equal to the regression prediction
    at tap = 0. Uses every sample; stderr comes from the replicate blocks
    of moments drawn with replicates=True.

    Returns {"added_noise_x": (v, err), "added_noise_p": (v, err),
             "gain": (g, err)}.
    """
    if min(abs(input_mean[0]), abs(input_mean[1])) < 5.0:
        raise ValueError("input mean must be >= 5 shot-noise sigma per quadrature")
    if moments.n_accepted < 1024:
        raise ValueError("zero-window regression needs at least 1024 trajectories")
    if not moments.blocks:
        raise ValueError("zero-window regression needs moments drawn with replicates=True")
    total = (moments.n_accepted, moments.mean, moments.m2, moments.co)
    point = _zero_window_point(total, input_mean)
    reps = np.array([_zero_window_point(block, input_mean) for block in moments.blocks])
    errs = np.std(reps, axis=0, ddof=1) / np.sqrt(len(reps))
    return {
        "added_noise_x": (point[0], float(errs[0])),
        "added_noise_p": (point[1], float(errs[1])),
        "gain": (point[2], float(errs[2])),
    }
