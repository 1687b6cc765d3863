"""Independent verification machinery.

Transfer matrices, Monte Carlo fill-in, exhaustive window enumeration, and
exact rational blocking-share arithmetic each provide a second route to
numbers the rest of the package computes analytically.  The sampler and the
window enumeration work from the lattice geometry alone and are compared
against `bounds.stage_unforced`, the U_s the staged bounds use; those are
counted over the same influence windows (`lattices.stage_window`), but in
integers, where the enumeration here multiplies float weights.
`PLANE_ENTROPY` is the one literature value the checks compare against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import LN2, entropy_bernoulli, stage_probabilities, stage_unforced
from .lattices import (
    TorusConfiguration,
    build_lattice,
    influence_window,  # noqa: F401  read from here by tests and perfbench
    stage_window,
)

MAX_STRIP_WIDTH = 14
# every width 1..MAX_STRIP_WIDTH, free or periodic, converges in at most 19
_POWER_MAX_ITER = 1000
# square-lattice hard-core entropy per site, a near-truth anchor (not a bound)
PLANE_ENTROPY = 0.4075


# ---------------------------------------------------------------- strips

def entropy_1d() -> float:
    """Per-site entropy of the 1-D chain: largest eigenvalue of [[1,1],[1,0]]."""
    lam = float(np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 0.0]]))[-1])
    return math.log(lam)


def legal_columns(width: int, boundary: str = "free") -> np.ndarray:
    """All 0/1 columns of the given height with no two adjacent 1s."""
    if boundary not in ("free", "periodic"):
        raise ValueError(f"boundary must be free or periodic, "
                         f"got {boundary!r}")
    masks = np.arange(1 << width, dtype=np.int64)
    ok = (masks & (masks >> 1)) == 0
    if boundary == "periodic" and width > 1:
        ok &= ~((masks & 1).astype(bool) & (masks >> (width - 1) & 1).astype(bool))
    return masks[ok]


def _half_columns(halves: np.ndarray, nbits: int):
    """Index of each half-column among the distinct ones, and the 0/1
    disjointness matrix of the distinct ones (numbered without a sort)."""
    seen = np.bincount(halves, minlength=1 << nbits) > 0
    distinct = np.flatnonzero(seen)
    index = (np.cumsum(seen) - 1)[halves]
    return index, ((distinct[:, None] & distinct[None, :]) == 0).astype(float)


def strip_entropy(width: int, boundary: str = "free") -> float:
    """Entropy per site of an infinite strip of the given width.

    Dominant transfer-matrix eigenvalue by power iteration to relative
    tolerance 1e-13.  The matrix T[c, c'] = [c & c' == 0] is never built:
    split each column into its top and bottom halves, so T factors as
    [hi & hi' == 0] [lo & lo' == 0], and T v = (D_hi G D_lo)[hi, lo] with
    G the vector scattered onto the grid of half-columns (at most 34 x 34
    at width 14) and D the half-column disjointness matrices.  Grid cells
    that are not legal columns stay 0, which is all the periodic boundary
    changes.
    """
    width = int(width)
    if not 1 <= width <= MAX_STRIP_WIDTH:
        raise ValueError(
            f"strip width {width} outside the supported range "
            f"1..{MAX_STRIP_WIDTH} (transfer matrix grows as a Fibonacci "
            f"number of the width)")
    cols = legal_columns(width, boundary)
    lo_bits = width // 2
    ia, d_hi = _half_columns(cols >> lo_bits, width - lo_bits)
    ib, d_lo = _half_columns(cols & ((1 << lo_bits) - 1), lo_bits)
    grid = np.zeros((len(d_hi), len(d_lo)))
    v = np.full(len(cols), 1.0 / math.sqrt(len(cols)))
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        grid[ia, ib] = v
        w = (d_hi @ grid @ d_lo)[ia, ib]
        lam_new = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(lam_new - lam) <= 1e-13 * max(lam_new, 1.0):
            return math.log(lam_new) / width
        lam = lam_new
    raise ValueError(
        f"strip width {width} ({boundary}): power iteration did not reach "
        f"relative tolerance 1e-13 in {_POWER_MAX_ITER} iterations")


# ---------------------------------------------------------------- sampler

_TILE = 8
# with fewer tile means than this their spread can read 0 (two tiles that
# happen to agree), so smaller tori use the binomial error
_MIN_TILES = 16
# the stage draws pass through one reused buffer of whole torus rows, at
# most this many bytes unless one coloring period of rows is larger
_BAND_BYTES = 1 << 18


def _tile_counts(x: np.ndarray) -> np.ndarray:
    """Number of nonzero sites in each 8 x 8-cell tile of a 0/1 torus
    array (bool or int8), as an (h/8, w/8) int64 array.  Exact: a tile
    holds at most 8 * 8 * 3 = 192 sites (kagome), so the uint8 partial
    sums cannot wrap."""
    h, w, c = x.shape
    rows = x.view(np.uint8).reshape(h // _TILE, _TILE, w * c).sum(
        axis=1, dtype=np.uint8)
    return rows.reshape(h // _TILE, w // _TILE, _TILE * c).sum(
        axis=2, dtype=np.int64)


def _tile_sites(spec, positions, h: int, w: int) -> np.ndarray:
    """Number of sites of the given period positions (oy, ox, t) in each
    8 x 8-cell tile of an h x w torus, as an (h/8, w/8) int64 array: the
    plane at (oy, ox, t) holds torus rows oy, oy + py, ... and columns
    ox, ox + px, ..., so its share of a tile is the product of the rows
    and the columns that fall in it."""
    px, py = spec.period
    return sum(np.multiply.outer(np.bincount(np.arange(oy, h, py) // _TILE),
                                 np.bincount(np.arange(ox, w, px) // _TILE))
               for oy, ox, _ in positions)


def _stderr(hits: np.ndarray, tile_sites: np.ndarray | None,
            n_sites: int, analytic: float) -> float:
    """Standard error of a stage's mean over its n_sites sites, from the
    spread of per-tile means (captures short-range correlation).  `hits`
    and `tile_sites` hold the stage's hit and site counts per 8 x 8 tile;
    `tile_sites` is None for a torus that is not a grid of at least
    _MIN_TILES tiles: that gets the binomial standard error at the
    analytic mean instead, since the empirical mean of a small torus can
    be exactly 0 or 1, which would give no error at all."""
    if tile_sites is None:
        return math.sqrt(max(analytic * (1 - analytic), 0.0) / n_sites)
    means = hits / tile_sites
    return float(means.std(ddof=1)) / math.sqrt(means.size)


@dataclass(frozen=True)
class StageStats:
    """Per-stage sampler statistics: unforced fraction and 1-density,
    empirical vs analytic, with tile-based standard errors."""

    stage: str
    probability: float
    n_sites: int
    unforced_analytic: float
    unforced_empirical: float
    unforced_stderr: float
    density_analytic: float
    density_empirical: float
    density_stderr: float

    def rows(self) -> list[dict]:
        common = {"stage": self.stage, "probability": self.probability,
                  "n_sites": self.n_sites}
        return [
            {**common, "metric": "unforced", "analytic": self.unforced_analytic,
             "empirical": self.unforced_empirical,
             "stderr": self.unforced_stderr},
            {**common, "metric": "density", "analytic": self.density_analytic,
             "empirical": self.density_empirical,
             "stderr": self.density_stderr},
        ]


def fill_in_sample(lattice: str, params, dims, seed: int):
    """Fill a torus sublattice by sublattice with the given stage
    probabilities; a site receives a 1 with its stage probability iff no
    already-placed neighbor carries a 1.

    Returns (TorusConfiguration, [StageStats per stage]).  The seed is
    split into one independent stream per stage, and stage s draws one
    float64 per site of the whole torus, in C order of `values`, from its
    own stream; so stage s draws are unaffected by how many earlier stages
    exist.  The statistics come from exact integer counts (per stage, and
    per 8 x 8 tile for the standard errors): the stages' site sets are
    disjoint, so the 1s of stage s are exactly the sites it placed.

    The work runs on sublattice planes: with (px, py) the coloring period,
    the sites (X px + ox, Y py + oy, t) form one (h/py, w/px) plane per
    period position (oy, ox, t), a strided view of `values`, and each
    position belongs to one stage.  Stage s first sets its planes to its
    unforced sites, those whose earlier-stage neighbors, each read from a
    rolled plane, all hold 0; the counts of `values` then grow by the
    stage's unforced sites.  Its draws pass through one reused band of
    whole torus rows, at most _BAND_BYTES on tori up to 10,922 cells wide,
    and each band's stage-s sites keep their 1 where the draw is below
    p_s; the counts then grow by the sites placed.  Nothing torus-sized is
    allocated but `values` itself (one byte per site); the scratch of one
    plane at a time adds at most one more.
    """
    spec = build_lattice(lattice)
    probs = stage_probabilities(lattice, params)
    config = TorusConfiguration.empty(lattice, dims)
    h, w, c = config.values.shape
    px, py = spec.period
    tiled = (not (h % _TILE or w % _TILE)
             and (h // _TILE) * (w // _TILE) >= _MIN_TILES)
    analytic = stage_unforced(lattice, probs)
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(len(probs))]
    # the sublattice planes, as views of `values` (0 or 1, so valid bools):
    # planes[:, oy, :, ox, t][Y, X] is site (X px + ox, Y py + oy, t)
    planes = config.values.view(bool).reshape(h // py, py, w // px, px, c)
    band = np.empty((min(h, max(1, _BAND_BYTES // (8 * w * c * py)) * py),
                     w, c))

    def ones():
        """The 1s of `values`: their number, and per tile if tiled."""
        return (np.count_nonzero(config.values),
                _tile_counts(config.values) if tiled else 0)

    n_before, tiles_before = 0, 0
    stats = []
    for s, label in enumerate(spec.fill_order):
        mine = [(oy, ox, t) for oy in range(py) for ox in range(px)
                for t in range(c) if spec.coloring[t][oy][ox] == s]
        for oy, ox, t in mine:
            blocked = np.zeros((h // py, w // px), dtype=bool)
            for dx, dy, t2 in spec.neighbors[t]:
                ny, nx = oy + dy, ox + dx
                if spec.coloring[t2][ny % py][nx % px] < s:
                    # blocked[Y, X] |= plane[Y + ny // py, X + nx // px]
                    blocked |= np.roll(planes[:, ny % py, :, nx % px, t2],
                                       (-(ny // py), -(nx // px)),
                                       axis=(0, 1))
            np.logical_not(blocked, out=planes[:, oy, :, ox, t])
        n_unforced, tiles_unforced = ones()
        for y0 in range(0, h, len(band)):
            draw = band[:h - y0]
            streams[s].random(out=draw)
            cells = draw.reshape(-1, py, w // px, px, c)
            y = slice(y0 // py, y0 // py + len(cells))
            for oy, ox, t in mine:
                planes[y, oy, :, ox, t] &= cells[:, oy, :, ox, t] < probs[s]
        n_placed, tiles_placed = ones()
        n_sites = len(mine) * (h // py) * (w // px)
        tile_sites = _tile_sites(spec, mine, h, w) if tiled else None
        stats.append(StageStats(
            stage=label, probability=probs[s], n_sites=n_sites,
            unforced_analytic=analytic[s],
            unforced_empirical=int(n_unforced - n_before) / n_sites,
            unforced_stderr=_stderr(tiles_unforced - tiles_before,
                                    tile_sites, n_sites, analytic[s]),
            density_analytic=probs[s] * analytic[s],
            density_empirical=int(n_placed - n_before) / n_sites,
            density_stderr=_stderr(tiles_placed - tiles_before, tile_sites,
                                   n_sites, probs[s] * analytic[s])))
        n_before, tiles_before = n_placed, tiles_placed
    return config, stats


# ------------------------------------------------------- window enumeration

def window_probability_exhaustive(lattice: str, params, stage: int) -> float:
    """P(a stage-`stage` site is unforced), by exact enumeration of every
    assignment of its influence window under the sequential measure.

    The window is dependency-closed (every non-initial-stage member has all
    its earlier neighbors inside), which makes the restricted measure the
    exact marginal.  Windows hold 2 to 16 sites.  The weights of all
    assignments are built by doubling: after site j (sites in stage order,
    bit j of the assignment index) they cover the 2^(j+1) assignments of
    sites 0..j, the first half with site j at 0 and the second at 1.
    """
    probs = stage_probabilities(lattice, params)
    sites, target = stage_window(lattice, stage)
    weights = np.ones(1)
    for s, forced in sites:
        weights = np.concatenate([
            weights * np.where(forced, 1.0, 1 - probs[s]),
            weights * np.where(forced, 0.0, probs[s])])
    return float(weights[~target].sum())


# ------------------------------------------------------- blocking constants

def _blocking_geometry():
    """The 8 even sites around an even site at the origin (the ring) and,
    for each odd neighbor of the origin in the square lattice's neighbor
    order, that neighbor's 3 other even neighbors."""
    steps = [(dx, dy) for dx, dy, _ in build_lattice("square").neighbors[0]]
    triples = [[(ox + dx, oy + dy) for dx, dy in steps
                if (ox + dx, oy + dy) != (0, 0)] for ox, oy in steps]
    ring = list(dict.fromkeys(e for others in triples for e in others))
    return ring, triples


def blocking_constant_lower() -> Fraction:
    """Expected number of odd sites a single even 1 blocks exclusively,
    crediting 1/(1+k) for an odd neighbor also blocked by k other even 1s;
    the eight surrounding even sites are enumerated under B(1/2)."""
    ring, triples = _blocking_geometry()
    masks = [sum(1 << ring.index(e) for e in others) for others in triples]
    # credits in units of 1/12: 12 / (1 + k) is an integer for k = 0..3
    total = sum(12 // (1 + (bits & m).bit_count())
                for bits in range(1 << len(ring)) for m in masks)
    return Fraction(total, 12 << len(ring))


def blocking_share_per_odd_site() -> Fraction:
    """E[1/(1+Binomial(3,1/2))] = 15/32, one odd neighbor's share."""
    return blocking_constant_lower() / 4


def density_upper_from_blocking() -> Fraction:
    """Even-sublattice density upper bound 1/(2+c) implied by the exact
    blocking constant lower bound c = 15/8."""
    return 1 / (2 + blocking_constant_lower())


def blocking_constant_upper(h_ref: float = PLANE_ENTROPY
                            ) -> tuple[float, float]:
    """Largest blocking constant consistent with a reference entropy.

    Solves 1/2 [ h_B(rho) + 2 rho ln 2 ] = h_ref for rho = 1/(2+c) by
    bisection on c in [0, hi], hi = 20 doubled until it brackets the root;
    returns (c_max, rho_min).
    """
    if not 0.0 < h_ref < LN2:
        raise ValueError(f"reference entropy {h_ref} outside (0, ln 2)")

    def gap(c):
        rho = 1.0 / (2.0 + c)
        return 0.5 * (entropy_bernoulli(rho) + 2 * rho * LN2) - h_ref

    # gap(0) = ln 2 - h_ref > 0 and gap tends to -h_ref < 0 as c grows, so
    # doubling finds a root bracket unless c_max overflows the floats
    lo, step = 0.0, 20.0
    while gap(step) > 0:
        step *= 2.0
        if step == np.inf:
            raise ValueError(f"no root in [0.0, inf) for h_ref={h_ref}")
    # the steps of scipy.optimize.bisect at xtol 1e-8 and its default
    # rtol 4 eps, so c_max is the same float
    while True:
        step *= 0.5
        c_max = lo + step
        g = gap(c_max)
        if g >= 0:
            lo = c_max
        if g == 0 or step < 1e-8 + 4 * np.finfo(float).eps * c_max:
            return c_max, 1.0 / (2.0 + c_max)
