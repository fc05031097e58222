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

Sampling is sharded: shard i draws from an independent substream keyed by
(seed, i) with a fixed shard size, and reductions merge shards in index
order, so results do not depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .channel import ChannelParams, Detector, TapConfig
from .feedforward import FeedforwardPlan

SHARD_SIZE = 1 << 14

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


@dataclass(frozen=True)
class TrajectoryBatch:
    """Sampled quadrature records plus the seed that generated them."""

    records: np.ndarray
    seed: int
    shard_size: int = SHARD_SIZE

    def __post_init__(self):
        rec = np.asarray(self.records, dtype=float)
        if rec.ndim != 2 or rec.shape[1] != len(COLUMNS):
            raise ValueError(f"records must have {len(COLUMNS)} columns")
        if not np.all(np.isfinite(rec)):
            raise ValueError("records must be finite")
        rec.setflags(write=False)
        object.__setattr__(self, "records", rec)

    @property
    def n(self) -> int:
        return self.records.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.records[:, COLUMNS.index(name)]

    def shard_slices(self) -> Iterator[slice]:
        for start in range(0, self.n, self.shard_size):
            yield slice(start, min(start + self.shard_size, self.n))


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


def _draw_shard(
    ch: ChannelParams,
    tap: TapConfig,
    input_mean: tuple[float, float],
    plan: Optional[FeedforwardPlan],
    size: int,
    seed: int,
    shard_index: int,
) -> np.ndarray:
    rng = np.random.default_rng([seed, shard_index])
    draws = rng.standard_normal((10, size))
    x_in = input_mean[0] + draws[0]
    p_in = input_mean[1] + draws[1]
    s_env = np.sqrt(ch.v_env)
    x_env, p_env = s_env * draws[2], s_env * draws[3]
    x_v1, p_v1 = draws[4], draws[5]
    x_v2, p_v2 = draws[6], draws[7]
    x_vr, p_vr = draws[8], draws[9]

    t, r = np.sqrt(ch.eta), np.sqrt(1.0 - ch.eta)
    x_out = t * x_in + r * x_env
    p_out = t * p_in + r * p_env
    x_leak = r * x_in - t * x_env
    p_leak = r * p_in - t * p_env

    tg, rg = np.sqrt(tap.gamma), np.sqrt(1.0 - tap.gamma)
    x_tm = tg * x_leak + rg * x_v1
    p_tm = tg * p_leak + rg * p_v1

    if tap.detector is Detector.HETERODYNE:
        half = np.sqrt(0.5)
        x_tap = half * (x_tm + x_v2)
        p_tap = half * (p_tm - p_v2)
    elif tap.detector is Detector.HOMODYNE_X:
        x_tap = x_tm
        p_tap = -p_v2
    else:
        x_tap = x_v2
        p_tap = p_tm

    if plan is not None:
        x_sig = x_out + plan.g_x * x_tap
        p_sig = p_out + plan.g_p * p_tap
    else:
        x_sig, p_sig = x_out, p_out

    x_recv = x_sig + x_vr
    p_recv = p_sig + p_vr
    return np.column_stack(
        [x_in, p_in, x_tap, p_tap, x_recv, p_recv, x_tm, p_tm, x_sig, p_sig]
    )


def sample(
    ch: ChannelParams,
    tap: TapConfig,
    input_mean: tuple[float, float],
    plan: Optional[FeedforwardPlan],
    n: int,
    seed: int,
    workers: int = 1,
) -> TrajectoryBatch:
    """Draw n trajectories; deterministic in (inputs, seed) for any workers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    seed = _check_seed(seed)
    shards = [
        (i, min(SHARD_SIZE, n - i * SHARD_SIZE))
        for i in range((n + SHARD_SIZE - 1) // SHARD_SIZE)
    ]

    def run(item):
        idx, size = item
        return _draw_shard(ch, tap, input_mean, plan, size, seed, idx)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, shards))
    else:
        parts = [run(item) for item in shards]
    return TrajectoryBatch(np.concatenate(parts, axis=0), seed)


# -- moment accumulation ----------------------------------------------------


def _merge_moments(a, b):
    # Welford/Chan combination of (count, mean, m2) pairs
    (na, ma, sa), (nb, mb, sb) = a, b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    m2 = sa + sb + delta * delta * (na * nb / n)
    return (n, mean, m2)


def _column_moments(batch: TrajectoryBatch, name: str):
    col = batch.column(name)
    total = (0, 0.0, 0.0)
    for sl in batch.shard_slices():
        vals = col[sl]
        mean = float(np.mean(vals))
        m2 = float(np.sum((vals - mean) ** 2))
        total = _merge_moments(total, (vals.size, mean, m2))
    return total


def _column_variance(batch, name):
    count, mean, m2 = _column_moments(batch, name)
    if count < 2:
        raise ValueError("need at least two samples for a variance")
    return count, mean, m2 / (count - 1)


def estimate_added_noise(
    batch: TrajectoryBatch,
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
        count, _, var = _column_variance(batch, f"{quad}_{prefix}")
        value = (var - optical_gain) / optical_gain
        stderr = np.sqrt(2.0 / (count - 1)) * var / optical_gain
        out.append((value, stderr))
    return tuple(out)


def estimate_gain(
    batch: TrajectoryBatch,
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
        count, mean, var = _column_variance(batch, f"{quad}_sig")
        ratios.append((mean / means[quad], np.sqrt(var / count) / abs(means[quad])))
    amp = sum(r[0] for r in ratios) / len(ratios)
    amp_err = np.sqrt(sum(r[1] ** 2 for r in ratios)) / len(ratios)
    return amp * amp, 2.0 * abs(amp) * amp_err


def _zero_window_point(stats: dict, input_mean: tuple[float, float]):
    """Regression summary -> (added_noise_x, added_noise_p, power_gain)."""
    amps = []
    resid = {}
    for quad, mean_in in zip(("x", "p"), input_mean):
        var_t = stats[f"var_t{quad}"]
        slope = stats[f"cov_{quad}"] / var_t
        resid[quad] = stats[f"var_s{quad}"] - stats[f"cov_{quad}"] ** 2 / var_t
        amps.append((stats[f"mean_s{quad}"] - slope * stats[f"mean_t{quad}"]) / mean_in)
    amp = 0.5 * (amps[0] + amps[1])
    gain = amp * amp
    return (resid["x"] - gain) / gain, (resid["p"] - gain) / gain, gain


def _regression_stats(records: np.ndarray) -> dict:
    cols = {name: records[:, COLUMNS.index(name)] for name in COLUMNS}
    out = {}
    for quad in ("x", "p"):
        s, t = cols[f"{quad}_sig"], cols[f"{quad}_tap_mode"]
        out[f"mean_s{quad}"] = float(np.mean(s))
        out[f"mean_t{quad}"] = float(np.mean(t))
        out[f"var_s{quad}"] = float(np.var(s, ddof=1))
        out[f"var_t{quad}"] = float(np.var(t, ddof=1))
        out[f"cov_{quad}"] = float(np.cov(s, t, ddof=1)[0, 1])
    return out


def estimate_zero_window(batch: TrajectoryBatch, input_mean: tuple[float, float]):
    """Sharp-selection limit estimated by regression, without post-selection.

    For jointly Gaussian records, the state conditioned on the tapped-mode
    values has covariance equal to the residual of the linear regression of
    the signal on the tap mode, and mean equal to the regression prediction
    at tap = 0. Uses every sample; stderr comes from shard replicates.

    Returns {"added_noise_x": (v, err), "added_noise_p": (v, err),
             "gain": (g, err)}.
    """
    if min(abs(input_mean[0]), abs(input_mean[1])) < 5.0:
        raise ValueError("input mean must be >= 5 shot-noise sigma per quadrature")
    if batch.n < 1024:
        raise ValueError("zero-window regression needs at least 1024 trajectories")
    point = _zero_window_point(_regression_stats(batch.records), input_mean)
    # replicate blocks are a fixed function of n, independent of sharding
    k = max(2, min(64, batch.n // 512))
    reps = [
        _zero_window_point(_regression_stats(block), input_mean)
        for block in np.array_split(batch.records, k)
    ]
    reps = np.array(reps)
    errs = np.std(reps, axis=0, ddof=1) / np.sqrt(len(reps))
    return {
        "added_noise_x": (point[0], float(errs[0])),
        "added_noise_p": (point[1], float(errs[1])),
        "gain": (point[2], float(errs[2])),
    }


# -- streaming reduction for large-n heralding ------------------------------


def windowed_moments(
    ch: ChannelParams,
    tap: TapConfig,
    input_mean: tuple[float, float],
    window,
    n: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Accepted-subset moments of the receiver read-out, streamed in shards.

    window is (x_th, p_th); a trajectory is accepted when |x_tap| <= x_th
    and |p_tap| <= p_th. No feedforward is applied in this path. Returns a
    dict with totals, acceptance count and per-quadrature receiver moments.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seed = _check_seed(seed)
    x_th, p_th = float(window[0]), float(window[1])
    shards = [
        (i, min(SHARD_SIZE, n - i * SHARD_SIZE))
        for i in range((n + SHARD_SIZE - 1) // SHARD_SIZE)
    ]

    def run(item):
        idx, size = item
        rec = _draw_shard(ch, tap, input_mean, None, size, seed, idx)
        keep = (np.abs(rec[:, 2]) <= x_th) & (np.abs(rec[:, 3]) <= p_th)
        out = {}
        for name in ("x_recv", "p_recv"):
            vals = rec[keep, COLUMNS.index(name)]
            if vals.size:
                mean = float(np.mean(vals))
                out[name] = (vals.size, mean, float(np.sum((vals - mean) ** 2)))
            else:
                out[name] = (0, 0.0, 0.0)
        return out

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, shards))
    else:
        parts = [run(item) for item in shards]

    result = {"n_total": n}
    for name in ("x_recv", "p_recv"):
        total = (0, 0.0, 0.0)
        for part in parts:  # shard order fixed by the list, not completion
            total = _merge_moments(total, part[name])
        count, mean, m2 = total
        result[name] = {
            "count": count,
            "mean": mean,
            "var": m2 / (count - 1) if count > 1 else np.nan,
        }
    result["n_accepted"] = result["x_recv"]["count"]
    return result
