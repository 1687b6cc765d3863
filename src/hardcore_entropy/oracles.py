"""Independent verification machinery.

Transfer matrices, Monte Carlo fill-in, exhaustive window enumeration, and
exact rational blocking-share arithmetic each provide a second route to
numbers the rest of the package computes analytically, from the lattice
table alone: strips read `LatticeSpec.neighbors`, the sampler and the
window enumeration `earlier_neighbors`.  The last two are compared with
`bounds.stage_unforced`, counted over the same influence windows in
integers, where the enumeration here multiplies float weights.
`PLANE_ENTROPY` is the one literature value the checks compare against.

The sampler places each band of draws in three contiguous passes over
whole torus rows, and returns per stage the unforced and density rows
that `hce sample` prints and bundles.  The window enumeration reads each
window site's forcing from its bit mask in `lattices.stage_window`.
"""
from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from .blocks import _or_table
from .bounds import LN2, entropy_bernoulli, stage_probabilities, stage_unforced
from .lattices import (
    TorusConfiguration, _torus_slices, build_lattice, earlier_neighbors,
    stage_window,
)

if TYPE_CHECKING:
    from fractions import Fraction

MAX_STRIP_WIDTH = 14
# the most steps any strip width takes, free or periodic: 19 on square, 21
# honeycomb, 29 triangular, 18 kagome, 27 square_moore
_POWER_MAX_ITER = 1000
# square-lattice hard-core entropy per site, a near-truth anchor (not a bound)
PLANE_ENTROPY = 0.4075


# ---------------------------------------------------------------- strips

def _column_units(spec, width: int, boundary: str, dx: int) -> list:
    """Per column bit (site t of cell y is bit y c + t), the bits its dx
    offsets reach in the column dx to the right.  A periodic strip wraps
    dy mod width and drops an offset onto the site itself."""
    c = spec.sites_per_cell
    units = [0] * (width * c)
    for bit in range(width * c):
        y, t = divmod(bit, c)
        for ox, dy, t2 in spec.neighbors[t]:
            y2 = (y + dy) % width if boundary == "periodic" else y + dy
            if ox == dx and 0 <= y2 < width and (dx, y2, t2) != (0, y, t):
                units[bit] |= 1 << (y2 * c + t2)
    return units


def legal_columns(lattice: str, width: int, boundary: str) -> np.ndarray:
    """The strip columns `width` cells high with no two adjacent 1s.

    ValueError naming the width unless it is an integer (numpy integers
    too, never truncated) giving 1..MAX_STRIP_WIDTH bits per column."""
    spec = build_lattice(lattice)
    try:
        width = operator.index(width)
    except TypeError:
        raise ValueError(f"strip width {width!r} is not an integer") from None
    if not 1 <= width * spec.sites_per_cell <= MAX_STRIP_WIDTH:
        raise ValueError(
            f"strip width {width} outside the supported range 1.."
            f"{MAX_STRIP_WIDTH // spec.sites_per_cell} on {lattice}")
    if boundary not in ("free", "periodic"):
        raise ValueError(f"boundary must be free or periodic, "
                         f"got {boundary!r}")
    inside = _or_table(_column_units(spec, width, boundary, 0))
    masks = np.arange(len(inside), dtype=inside.dtype)
    return masks[(inside & masks) == 0]


def _half_columns(own: np.ndarray, forbidden: np.ndarray):
    """Index of each own and forbidden half-column among the distinct ones
    of either kind, and the 0/1 disjointness matrix of those."""
    seen = np.zeros(1 + max(own.max(), forbidden.max()), dtype=bool)
    seen[own] = seen[forbidden] = True
    halves, index = np.flatnonzero(seen), np.cumsum(seen) - 1
    return index[own], index[forbidden], (
        (halves[:, None] & halves[None, :]) == 0).astype(float)


def strip_entropy(lattice: str, width: int, boundary: str = "free") -> float:
    """Entropy per site of an infinite strip `width` cells high.

    Dominant transfer-matrix eigenvalue by power iteration to relative
    tolerance 1e-13.  Column c may precede c' iff f(c) & c' == 0, with
    f(c) the bits the dx = +1 offsets of its 1s reach (f(c) = c on the
    square lattice).  T is never built: halving the columns factors it as
    [f_hi(c) & hi' == 0] [f_lo(c) & lo' == 0], so T v = (D_hi G D_lo)[
    f_hi(c), f_lo(c)], with G the vector scattered onto the grid of
    half-columns (34 x 34 on a square strip 14 high; cells that are not
    legal columns stay 0) and D the half-column disjointness matrices.
    `legal_columns` checks the width and the boundary.
    """
    spec = build_lattice(lattice)
    cols = legal_columns(lattice, width, boundary)
    nbits = int(width) * spec.sites_per_cell
    after = _or_table(_column_units(spec, width, boundary, 1))[cols]
    lo_bits, low = nbits // 2, (1 << nbits // 2) - 1
    ia, fa, d_hi = _half_columns(cols >> lo_bits, after >> lo_bits)
    ib, fb, d_lo = _half_columns(cols & low, after & low)
    # flat indices into the half-column grid: where each column scatters
    # to, and where its forbidden halves (f_hi(c), f_lo(c)) gather from
    put = ia * len(d_lo) + ib
    take = fa * len(d_lo) + fb
    grid = np.zeros((len(d_hi), len(d_lo)))
    flat = grid.reshape(-1)
    v = np.full(len(cols), 1.0 / math.sqrt(len(cols)))
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        flat[put] = v
        w = (d_hi @ grid @ d_lo).reshape(-1)[take]
        lam_new = float(v @ w)
        v = w / math.sqrt(w @ w)
        if abs(lam_new - lam) <= 1e-13 * max(lam_new, 1.0):
            return math.log(lam_new) / nbits
        lam = lam_new
    raise ValueError(
        f"{lattice} strip width {width} ({boundary}): power iteration did "
        f"not reach relative tolerance 1e-13 in {_POWER_MAX_ITER} iterations")


# ---------------------------------------------------------------- sampler

_TILE = 8
# with fewer tile means than this their spread can read 0 (two tiles that
# happen to agree), so smaller tori use the binomial error
_MIN_TILES = 16
# the stage draws pass through one reused buffer of whole torus rows, at
# most this many bytes unless one coloring period of rows is larger
_BAND_BYTES = 1 << 18


def _tile_counts(x: np.ndarray) -> np.ndarray:
    """Number of nonzero sites in each 8 x 8-cell tile of a boolean torus
    array, as an (h/8, w/8) int64 array.  Exact: a tile holds at most
    8 * 8 * 3 = 192 sites (kagome), so the uint8 partial sums cannot wrap."""
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


def fill_in_sample(lattice: str, params, dims, seed: int):
    """Fill a torus sublattice by sublattice with the given stage
    probabilities; a site receives a 1 with its stage probability iff no
    already-placed neighbor carries a 1.

    Returns (TorusConfiguration, rows): per stage an unforced row, then a
    density row, each a dict with keys stage, probability, n_sites,
    metric ("unforced" or "density"), analytic, empirical and stderr (the
    tile-based standard error of the empirical mean).  The seed is
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
    unforced sites, those whose earlier neighbors (`earlier_neighbors` of
    the period position), each ORed into one `blocked` plane quadrant by
    wrapped quadrant, all hold 0; the counts of `values` then grow by the
    stage's unforced sites.  Its draws pass through one reused band of
    whole torus rows, at most _BAND_BYTES on tori up to 10,922 cells wide,
    and are placed in three contiguous passes over the band's rows of
    `values`: `keep` = draw < p_s, `keep` |= the band's sites of the other
    stages (a mask tiled once per stage from `spec.coloring`), `values` &=
    `keep`.  So the stage-s sites keep their 1 where the draw is below p_s
    and every other site keeps its value; the counts then grow by the
    sites placed.  `keep` and the mask take one byte per band site each,
    an eighth of the band apiece.  Nothing torus-sized is allocated but
    `values` itself (one byte per site) and `blocked`, allocated once per
    call, one byte per site of a period position.
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
    # the sublattice planes of `values`:
    # planes[:, oy, :, ox, t][Y, X] is site (X px + ox, Y py + oy, t)
    planes = config.values.reshape(h // py, py, w // px, px, c)
    band = np.empty((min(h, max(1, _BAND_BYTES // (8 * w * c * py)) * py),
                     w, c))
    keep = np.empty(band.shape, dtype=bool)
    blocked = np.empty((h // py, w // px), dtype=bool)
    # the stage of each site of the period, as (py, px, c)
    period_stage = np.transpose(spec.coloring, (1, 2, 0))

    def ones():
        """The 1s of `values`: their number, and per tile if tiled (the
        number is then the sum of the tiles, with no second pass)."""
        if not tiled:
            return np.count_nonzero(config.values), 0
        tiles = _tile_counts(config.values)
        return int(tiles.sum()), tiles

    n_before, tiles_before = 0, 0
    rows = []
    for s, label in enumerate(spec.fill_order):
        mine = np.argwhere(period_stage == s).tolist()  # (oy, ox, t)
        for oy, ox, t in mine:
            blocked.fill(False)
            for nx, ny, t2 in earlier_neighbors(spec, (ox, oy, t)):
                # blocked[Y, X] |= plane[Y + ny // py, X + nx // px]
                for dst, src in _torus_slices(blocked.shape,
                                              ny // py, nx // px):
                    blocked[dst] |= planes[:, ny % py, :, nx % px, t2][src]
            np.logical_not(blocked, out=planes[:, oy, :, ox, t])
        n_unforced, tiles_unforced = ones()
        # True at the band's sites of the other stages, which keep their value
        others = np.tile(period_stage != s, (len(band) // py, w // px, 1))
        for y0 in range(0, h, len(band)):
            draw, kept = band[:h - y0], keep[:h - y0]
            streams[s].random(out=draw)
            np.less(draw, probs[s], out=kept)
            kept |= others[:len(kept)]
            config.values[y0:y0 + len(kept)] &= kept
        n_placed, tiles_placed = ones()
        n_sites = len(mine) * (h // py) * (w // px)
        tile_sites = _tile_sites(spec, mine, h, w) if tiled else None
        density = probs[s] * analytic[s]
        common = {"stage": label, "probability": probs[s], "n_sites": n_sites}
        rows += [
            {**common, "metric": "unforced", "analytic": analytic[s],
             "empirical": int(n_unforced - n_before) / n_sites,
             "stderr": _stderr(tiles_unforced - tiles_before, tile_sites,
                               n_sites, analytic[s])},
            {**common, "metric": "density", "analytic": density,
             "empirical": int(n_placed - n_before) / n_sites,
             "stderr": _stderr(tiles_placed - tiles_before, tile_sites,
                               n_sites, density)}]
        n_before, tiles_before = n_placed, tiles_placed
    return config, rows


# ------------------------------------------------------- window enumeration

def window_probability_exhaustive(lattice: str, params, stage: int) -> float:
    """P(a stage-`stage` site is unforced), by exact enumeration of every
    assignment of its influence window under the sequential measure.

    The window is dependency-closed (every non-initial-stage member has all
    its earlier neighbors inside), which makes the restricted measure the
    exact marginal.  Windows hold 2 to 16 sites.  The weights of all
    assignments are built by doubling in one array: after site j (sites in
    stage order, bit j of the assignment index) its first 2^(j+1) entries
    cover the assignments of sites 0..j, the first half with site j at 0
    and the second at 1, written from the first half before it is scaled.
    An assignment forces a site to 0 where it shares a bit with the site's
    mask of earlier neighbors: the 1-half of each of the mask's bits.
    """
    probs = stage_probabilities(lattice, params)
    _, stages, masks = stage_window(lattice, stage)
    weights = np.ones(1 << (len(masks) - 1))
    # the last mask is the target's: its flags pick the weights summed
    for j, (s, mask) in enumerate(zip(stages, masks)):
        free = np.ones(1 << j, dtype=bool)
        for b in range(j):
            if mask >> b & 1:
                free.reshape(-1, 2, 1 << b)[:, 1] = False
        if j < len(masks) - 1:
            lo, hi = weights[:1 << j], weights[1 << j:2 << j]
            hi.fill(0.0)
            np.multiply(lo, probs[s], out=hi, where=free)
            np.multiply(lo, 1 - probs[s], out=lo, where=free)
    return float(weights[free].sum())


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
    from fractions import Fraction  # loaded only by the exact checks
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
