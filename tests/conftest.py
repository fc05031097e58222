import numpy as np

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
    _, scale, centre = montecarlo._tap_frame(ch, tap, input_mean)
    shards = montecarlo._shards(montecarlo._generator(seed), n, 2)
    u = np.hstack([draws.copy() for _, draws in shards])
    return (u, *(scale[:, None] * (u - centre[:, None])))

