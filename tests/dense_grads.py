"""Test support: the gradients of loss_and_grads as arrays, for oracles that
compare them with finite differences element by element."""
import numpy as np


def densify(grads, params, batch):
    """Each gradient as an array shaped like its tensor: an embedding table's
    (rows, sums) becomes a zeroed table holding sums at rows. Each pair's
    rows must be the batch's distinct indices of that field, ascending."""
    out = {}
    for name, g in grads.items():
        if isinstance(g, tuple):
            rows, sums = g
            field = int(name.removeprefix("embed."))
            assert np.array_equal(rows, np.unique(batch.indices[:, field])), name
            g = np.zeros_like(params[name])
            g[rows] = sums
        out[name] = g
    return out
