"""The lattice table, and everything derived from it.

Five lattices are supported, named by the strings in `LATTICES`.
`LatticeSpec` is the single description of each: per-cell neighbor offsets
and a periodic stage coloring.  Neighbor lists, sublattice labels, the torus
side rule, the hard-core checker, the sampler's sublattice planes and the
influence windows, from which `bounds` counts every unforced fraction U_s,
are all computed from those two fields, with no per-lattice code.

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


def _validate_dims(spec: LatticeSpec, dims) -> tuple[int, int]:
    w, h = int(dims[0]), int(dims[1])
    if w < 2 or h < 2:
        raise ValueError(f"torus dimensions must be at least 2x2, got {w}x{h}")
    px, py = spec.period
    if w % px or h % py:
        raise ValueError(
            f"{spec.name} torus needs side lengths divisible by the "
            f"coloring period {px}x{py}, got {w}x{h}")
    return w, h


def neighbor_sites(spec: LatticeSpec, config_dims, site) -> list:
    """Nearest neighbors of site (x, y, t) on the torus, as a list of sites.

    On very small tori some entries may coincide (parallel edges), but a
    site is never its own neighbor.
    """
    w, h = _validate_dims(spec, config_dims)
    if len(site) != 3 or not all(0 <= c < m for c, m in zip(
            site, (w, h, spec.sites_per_cell))):
        raise ValueError(f"site {site!r} out of range for {spec.name} {w}x{h}")
    x, y, t = site
    return [((x + dx) % w, (y + dy) % h, t2)
            for dx, dy, t2 in spec.neighbors[t]]


def stage_of(spec: LatticeSpec, site) -> int:
    """Fill stage of site (x, y, t) (a pure function of its coordinates)."""
    x, y, t = site
    px, py = spec.period
    return spec.coloring[t][y % py][x % px]


# the torus the influence windows live on: every coloring period divides
# 12, and no window is wide enough to meet itself around it
_WINDOW_DIMS = (12, 12)


def _target_site(spec, stage: int):
    """The first stage-`stage` site scanning from the torus center; every
    stage meets every coloring period, so there is one."""
    w, h = _WINDOW_DIMS
    return next((x, y, t) for y in range(h // 2, h) for x in range(w // 2, w)
                for t in range(spec.sites_per_cell)
                if stage_of(spec, (x, y, t)) == stage)


def influence_window(lattice: str, stage: int) -> tuple:
    """The earlier-stage sites whose values determine whether a stage-`stage`
    site is unforced: its earlier neighbors, closed under taking earlier
    neighbors of everything added."""
    spec = build_lattice(lattice)
    if not 1 <= stage < spec.partite_count:
        raise ValueError(f"stage must be in 1..{spec.partite_count - 1}")
    target = _target_site(spec, stage)
    # the target is no site's earlier neighbor, so it never joins
    window, frontier = [], [target]
    while frontier:
        site = frontier.pop()
        s = stage_of(spec, site)
        for nb in neighbor_sites(spec, _WINDOW_DIMS, site):
            if stage_of(spec, nb) < s and nb not in window:
                window.append(nb)
                frontier.append(nb)
    return target, tuple(window)


@cache
def stage_window(lattice: str, stage: int) -> tuple:
    """The stage's influence window in stage order as (stage, forced)
    pairs, and the target's `forced`, built once per (lattice, stage), the
    arrays read-only.  Assignment i of the sites before a site gives site j
    the value of bit j of i, and forced[i] says it puts a 1 on one of the
    site's earlier-stage neighbors (all in the window)."""
    spec = build_lattice(lattice)
    target, window = influence_window(lattice, stage)
    order = sorted(window, key=lambda site: stage_of(spec, site))
    bits = {site: 1 << j for j, site in enumerate(order)}
    masks = [sum({bits[nb] for nb in neighbor_sites(spec, _WINDOW_DIMS, site)
                  if stage_of(spec, nb) < stage_of(spec, site)})
             for site in (*order, target)]
    forced = [(np.arange(1 << j) & m) != 0 for j, m in enumerate(masks)]
    for f in forced:
        f.flags.writeable = False
    stages = [stage_of(spec, site) for site in order]
    return tuple(zip(stages, forced)), forced[-1]


@dataclass
class TorusConfiguration:
    """A periodic 0/1 configuration on a finite torus.

    `values` has shape (height, width, sites_per_cell), indexed
    values[y, x, t].
    """

    lattice: str
    dims: tuple[int, int]
    values: np.ndarray = field(repr=False)

    @classmethod
    def empty(cls, lattice: str, dims) -> "TorusConfiguration":
        spec = build_lattice(lattice)
        w, h = _validate_dims(spec, dims)
        return cls(lattice, (w, h),
                   np.zeros((h, w, spec.sites_per_cell), dtype=np.int8))


def verify_hard_core(config: TorusConfiguration) -> bool:
    """True iff no two adjacent sites both carry 1.  Each edge is read
    once, from the end whose offset to the other has (t2, dy, dx) > (t, 0,
    0), on one contiguous plane per site of the cell (a view of `values`
    when there is one)."""
    planes = np.ascontiguousarray(np.moveaxis(config.values.view(bool), -1, 0))
    return not any(
        (planes[t] & np.roll(planes[t2], (-dy, -dx), axis=(0, 1))).any()
        for t, offsets in enumerate(build_lattice(config.lattice).neighbors)
        for dx, dy, t2 in offsets if (t2, dy, dx) > (t, 0, 0))
