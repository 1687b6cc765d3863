"""Exhaustive window enumeration as it was before the weights were built
by doubling: m bit columns of 2^m entries, one factor multiplied into
every assignment per window site.  Every weight is the same product taken
in the same order at the same index, so
`oracles.window_probability_exhaustive` must return `==` the same float.
A site's earlier neighbors come from the offset table directly."""
import numpy as np

from hardcore_entropy.bounds import stage_probabilities
from hardcore_entropy.lattices import build_lattice, stage_of, stage_window


def window_probability_exhaustive(lattice: str, params, stage: int) -> float:
    spec = build_lattice(lattice)
    probs = stage_probabilities(lattice, params)
    *window, target = stage_window(lattice, stage)[0]
    m = len(window)
    order = sorted(window, key=lambda s: stage_of(spec, s))
    pos = {site: j for j, site in enumerate(order)}

    def earlier_neighbors(site, s):
        x, y, t = site
        plane = [(x + dx, y + dy, t2) for dx, dy, t2 in spec.neighbors[t]]
        return [pos[nb] for nb in plane if stage_of(spec, nb) < s]

    idx = np.arange(1 << m, dtype=np.int64)
    bits = [(idx >> j) & 1 for j in range(m)]
    weights = np.ones(1 << m)
    for j, site in enumerate(order):
        s = stage_of(spec, site)
        p = probs[s]
        b = bits[j]
        if s == 0:
            weights *= np.where(b == 1, p, 1 - p)
            continue
        forced = np.zeros(1 << m, dtype=bool)
        for jj in earlier_neighbors(site, s):
            forced |= bits[jj] == 1
        weights *= np.where(forced, np.where(b == 1, 0.0, 1.0),
                            np.where(b == 1, p, 1 - p))
    ok = np.ones(1 << m, dtype=bool)
    for jj in earlier_neighbors(target, stage):
        ok &= bits[jj] == 0
    return float(weights[ok].sum())
