import numpy as np
from scipy import stats as scipy_stats

from envcorr import montecarlo

ETA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
GAMMA_GRID = (0.2, 0.5, 0.8, 1.0)
V_GRID = (1.0, 5.0, 25.0)


def grid_points():
    return [
        (eta, gamma, v) for eta in ETA_GRID for gamma in GAMMA_GRID for v in V_GRID
    ]


def heralded_readouts(ch, tap, input_mean, n, seed):
    """(u, x_tap, p_tap) of a heralded batch, drawn and read out as its shards do."""
    _, scale, centre = montecarlo._tap_frame(*montecarlo._read_map(ch, tap, input_mean, None))
    shards = montecarlo._shards(montecarlo._generator(seed), n, 2)
    u = np.hstack([draws.copy() for _, draws in shards])
    return (u, *(scale[:, None] * (u - centre[:, None])))


def assert_stderrs_match_spread(values, variances, labels):
    """F-test each column's seed spread against its mean printed variance.

    values and variances are (seeds, columns): one estimate and its squared
    printed stderr per seed. The printed variance's degrees of freedom are
    unbounded, so the spread over it is chi^2(seeds - 1)/(seeds - 1); the
    test is two-sided at the 5 sigma level.
    """
    values, variances = np.asarray(values), np.asarray(variances)
    dof = len(values) - 1
    level = 2 * scipy_stats.norm.sf(5.0)
    spread = scipy_stats.chi2(dof)
    for label, ratio in zip(labels, np.var(values, axis=0, ddof=1) / variances.mean(axis=0)):
        p = 2 * min(spread.cdf(dof * ratio), spread.sf(dof * ratio))
        assert p >= level, (label, ratio)
