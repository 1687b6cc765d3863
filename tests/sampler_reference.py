"""The torus sampler as it was before its statistics came from integer
tile counts: one boolean scatter, a grid copy and two float tile
reductions per stage, on whole-torus arrays with one float64 draw per
site.  `oracles.fill_in_sample` must return the same configuration and
`==` stage statistics for every input.  `stage_index`, the array form of
`lattices.stage_of`, and `occupied_neighbor` live here because only the
tests use them."""
import math

import numpy as np

from hardcore_entropy.bounds import stage_probabilities, stage_unforced
from hardcore_entropy.lattices import TorusConfiguration, build_lattice
from hardcore_entropy.oracles import _MIN_TILES, _TILE, StageStats


def occupied_neighbor(spec, values: np.ndarray) -> np.ndarray:
    """Boolean array shaped like `values`: some neighbor carries a 1."""
    # one contiguous (h, w) plane per site of the cell: rolling the strided
    # values[..., t] slices instead is several times slower
    planes = np.ascontiguousarray(np.moveaxis(values, -1, 0), dtype=bool)
    # C-contiguous like `values`: elementwise work on a moveaxis view of
    # the planes is about ten times slower when sites_per_cell > 1
    out = np.empty(values.shape, dtype=bool)
    for t, offsets in enumerate(spec.neighbors):
        plane = np.zeros(planes.shape[1:], dtype=bool)
        for dx, dy, t2 in offsets:
            # plane[y, x] |= planes[t2, (y + dy) % h, (x + dx) % w]
            plane |= np.roll(planes[t2], (-dy, -dx), axis=(0, 1))
        out[..., t] = plane
    return out


def stage_index(spec, dims) -> np.ndarray:
    """Fill stage of every site of a valid torus, shaped like
    TorusConfiguration.values."""
    w, h = dims
    px, py = spec.period
    # one period of the coloring, indexed (y, x, t)
    cell = np.array(spec.coloring, dtype=np.int8).transpose(1, 2, 0)
    return np.tile(cell, (h // py, w // px, 1))


def _tile_stderr(indicator: np.ndarray, where: np.ndarray,
                 analytic: float) -> float:
    """Standard error of the mean of indicator over `where` sites, from the
    spread of per-tile means (captures short-range correlation).  A torus
    that is not a grid of at least _MIN_TILES 8 x 8 tiles gets the binomial
    standard error at the analytic mean instead: the empirical mean of a
    small torus can be exactly 0 or 1, which would give no error at all."""
    h, w = indicator.shape[:2]
    if h % _TILE or w % _TILE or (h // _TILE) * (w // _TILE) < _MIN_TILES:
        return math.sqrt(max(analytic * (1 - analytic), 0.0) / where.sum())
    shape = (h // _TILE, _TILE, w // _TILE, _TILE, -1)
    # boolean tiles summed as integer counts: exact, with no float copy
    sums = (indicator & where).reshape(shape).sum(axis=(1, 3, 4))
    counts = where.reshape(shape).sum(axis=(1, 3, 4))
    means = sums / counts
    return float(means.std(ddof=1)) / math.sqrt(means.size)


def fill_in_sample(lattice: str, params, dims, seed: int):
    spec = build_lattice(lattice)
    probs = stage_probabilities(lattice, params)
    config = TorusConfiguration.empty(lattice, dims)
    g = config.values
    stages = stage_index(spec, config.dims)
    analytic = stage_unforced(lattice, probs)
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(len(probs))]
    stats = []
    for s, label in enumerate(spec.fill_order):
        mask = stages == s
        blocked = occupied_neighbor(spec, g) if s else \
            np.zeros(g.shape, dtype=bool)
        unforced = mask & ~blocked
        draws = streams[s].random(g.shape) < probs[s]
        g[unforced & draws] = 1
        n_sites = int(mask.sum())
        stats.append(StageStats(
            stage=label, probability=probs[s], n_sites=n_sites,
            unforced_analytic=analytic[s],
            unforced_empirical=float(unforced.sum() / n_sites),
            unforced_stderr=_tile_stderr(unforced, mask, analytic[s]),
            density_analytic=probs[s] * analytic[s],
            density_empirical=float(g[mask].mean()),
            density_stderr=_tile_stderr(g == 1, mask,
                                        probs[s] * analytic[s])))
    return config, stats
