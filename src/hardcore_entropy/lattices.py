"""The lattice table, and everything derived from it.

Five lattices are supported, named by the strings in `LATTICES`.
`LatticeSpec` is the single description of each: per-cell neighbor offsets
and a periodic stage coloring.  Sublattice labels, the torus side rule, the
hard-core checker and the fill-in rule are all computed from those two
fields, with no per-lattice code.  The fill-in rule is `earlier_neighbors`:
a site stays 0 when a neighbor of an earlier stage carries a 1.  The
sampler reads it on its sublattice planes, and the influence windows of
`stage_window`, from which `bounds` counts every unforced fraction U_s, are
its closures on the infinite plane.

Every site is a plain tuple ``(x, y, t)``: ``t`` is the site within unit
cell ``(x, y)``, and is 0 on the lattices with one site per cell (square,
square_moore, triangular); honeycomb has 2 sites per cell and kagome 3.
The sublattices are named after the fill-in order
circle -> dot -> triangle -> diamond.

triangular uses axial coordinates with neighbor offsets
(+-1,0), (0,+-1), (1,-1), (-1,1); its three sublattices are (x - y) mod 3.
kagome is the line graph of the honeycomb: site (x, y, t) is kagome vertex
t of cell (x, y); every site lies in exactly two triangles and has four
neighbors.  square_moore is the square lattice with the 8-site Chebyshev
neighborhood; its four sublattices are the parity classes (x mod 2, y mod 2).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

FILL_ORDER = ("circle", "dot", "triangle", "diamond")


@dataclass(frozen=True)
class LatticeSpec:
    """Static description of one lattice.

    neighbors[t] lists (dx, dy, t2): site t of cell (x, y) is adjacent to
    site t2 of cell (x + dx, y + dy).  The fill stage of site (x, y, t) is
    coloring[t][y % py][x % px], with (px, py) the coloring's period.
    """

    name: str
    neighbors: tuple
    coloring: tuple

    @property
    def sites_per_cell(self) -> int:
        return len(self.neighbors)

    @property
    def period(self) -> tuple[int, int]:
        return len(self.coloring[0][0]), len(self.coloring[0])

    @cached_property
    def partite_count(self) -> int:
        return 1 + max(s for plane in self.coloring for row in plane
                       for s in row)

    @cached_property
    def fill_order(self) -> tuple[str, ...]:
        return FILL_ORDER[:self.partite_count]


_SPECS = {spec.name: spec for spec in (
    LatticeSpec(
        "square",
        (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)),),
        (((0, 1), (1, 0)),)),
    # Honeycomb: t=0 (A) connects to the three B sites of cells (x,y),
    # (x-1,y), (x,y-1); t=1 (B) is the mirror image.
    LatticeSpec(
        "honeycomb",
        (((0, 0, 1), (-1, 0, 1), (0, -1, 1)),
         ((0, 0, 0), (1, 0, 0), (0, 1, 0))),
        (((0,),), ((1,),))),
    LatticeSpec(
        "triangular",
        (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, -1, 0),
          (-1, 1, 0)),),
        (((0, 1, 2), (2, 0, 1), (1, 2, 0)),)),
    # Kagome via the honeycomb line graph: kagome vertex (x,y,t) = honeycomb
    # edge e_t of cell (x,y) where e0 = A(x,y)-B(x,y), e1 = A(x,y)-B(x-1,y),
    # e2 = A(x,y)-B(x,y-1).  Two vertices are adjacent iff their edges share
    # a honeycomb endpoint, which yields one "A triangle" per cell
    # {e0,e1,e2} and one "B triangle" per cell {e0(x,y), e1(x+1,y), e2(x,y+1)}.
    LatticeSpec(
        "kagome",
        (((0, 0, 1), (0, 0, 2), (1, 0, 1), (0, 1, 2)),
         ((0, 0, 0), (0, 0, 2), (-1, 0, 0), (-1, 1, 2)),
         ((0, 0, 0), (0, 0, 1), (0, -1, 0), (1, -1, 1))),
        (((0,),), ((1,),), ((2,),))),
    LatticeSpec(
        "square_moore",
        (tuple((dx, dy, 0) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
               if (dx, dy) != (0, 0)),),
        (((0, 1), (2, 3)),)),
)}

LATTICES = tuple(_SPECS)


def build_lattice(name: str) -> LatticeSpec:
    if name not in _SPECS:
        raise ValueError(f"unknown lattice {name!r}; "
                         f"expected one of {', '.join(LATTICES)}")
    return _SPECS[name]


def stage_of(spec: LatticeSpec, site) -> int:
    """Fill stage of site (x, y, t) (a pure function of its coordinates)."""
    x, y, t = site
    px, py = spec.period
    return spec.coloring[t][y % py][x % px]


def earlier_neighbors(spec: LatticeSpec, site) -> list:
    """The neighbors of plane site (x, y, t) with an earlier stage, as
    (x + dx, y + dy, t2) in `spec.neighbors` order: a site stays 0 when one
    of them carries a 1."""
    x, y, t = site
    s = stage_of(spec, site)
    return [nb for dx, dy, t2 in spec.neighbors[t]
            if stage_of(spec, nb := (x + dx, y + dy, t2)) < s]


@cache
def stage_window(lattice: str, stage: int) -> tuple:
    """Stage `stage`'s influence window, built once per (lattice, stage), as
    three tuples of equal length: the sites (the window in stage order, then
    the target), their stages and their masks.  The target is the first
    stage-`stage` site of cell (0, 0) in (y, x, t) order, and the window is
    its earlier neighbors, closed under taking theirs.  Assignment i of the
    window gives site j bit j of i; a site's mask holds the bits of its
    earlier neighbors, so i forces it to 0 iff i & mask != 0."""
    spec = build_lattice(lattice)
    if not 1 <= stage < spec.partite_count:
        raise ValueError(f"stage must be in 1..{spec.partite_count - 1}")
    px, py = spec.period
    target = next((x, y, t) for y in range(py) for x in range(px)
                  for t in range(spec.sites_per_cell)
                  if stage_of(spec, (x, y, t)) == stage)
    window, frontier = [], [target]
    while frontier:
        for nb in earlier_neighbors(spec, frontier.pop()):
            if nb not in window:
                window.append(nb)
                frontier.append(nb)
    order = sorted(window, key=lambda site: stage_of(spec, site))
    sites = (*order, target)
    bits = {site: 1 << j for j, site in enumerate(sites)}
    stages = tuple(stage_of(spec, site) for site in sites)
    masks = tuple(sum(bits[nb] for nb in earlier_neighbors(spec, site))
                  for site in sites)
    return sites, stages, masks


@dataclass
class TorusConfiguration:
    """A periodic 0/1 configuration on a finite torus.

    `values` is a boolean array of shape (height, width, sites_per_cell),
    indexed values[y, x, t].
    """

    lattice: str
    values: np.ndarray = field(repr=False)

    @classmethod
    def empty(cls, lattice: str, dims) -> "TorusConfiguration":
        spec = build_lattice(lattice)
        try:
            w, h = map(operator.index, dims)
        except (TypeError, ValueError):
            raise ValueError(
                f"torus sides {dims!r} are not two integers") from None
        if w < 2 or h < 2:
            raise ValueError(
                f"torus dimensions must be at least 2x2, got {w}x{h}")
        px, py = spec.period
        if w % px or h % py:
            raise ValueError(
                f"{spec.name} torus needs side lengths divisible by the "
                f"coloring period {px}x{py}, got {w}x{h}")
        return cls(lattice,
                   np.zeros((h, w, spec.sites_per_cell), dtype=bool))


def _torus_slices(shape, a: int, b: int) -> list:
    """The (destination, source) index pairs, one per quadrant the torus
    wrap cuts an (h, w) plane into, that read src[(Y + a) % h, (X + b) % w]
    into position (Y, X)."""
    def wrap(n, k):
        return (slice(0, n - k), slice(k, n)), (slice(n - k, n), slice(0, k))
    h, w = shape
    return [((yd, xd), (ys, xs))
            for yd, ys in wrap(h, a % h) for xd, xs in wrap(w, b % w)]


def verify_hard_core(config: TorusConfiguration) -> bool:
    """True iff no two adjacent sites both carry 1.  Each edge is read
    once, from the end whose offset to the other has (t2, dy, dx) > (t, 0,
    0), on one contiguous plane per site of the cell (a view of `values`
    when there is one), one wrapped quadrant of a plane at a time."""
    planes = np.ascontiguousarray(np.moveaxis(config.values, -1, 0))
    return not any(
        (planes[t][dst] & planes[t2][src]).any()
        for t, offsets in enumerate(build_lattice(config.lattice).neighbors)
        for dx, dy, t2 in offsets if (t2, dy, dx) > (t, 0, 0)
        for dst, src in _torus_slices(planes.shape[1:], dy, dx))
