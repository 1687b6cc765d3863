"""The lattice table, and everything derived from it.

Five lattices are supported.  `LatticeSpec` is the single description of
each: per-cell neighbor offsets and a periodic stage coloring.  Neighbor
lists, sublattice labels, the torus side rule, the stage-index array, the
hard-core checker and the sampler's "some neighbor carries a 1" test are all
computed from those two fields, with no per-lattice code.

Sites are plain tuples.  A lattice with one site per unit cell (SQUARE,
SQUARE_MOORE, TRIANGULAR) uses ``(x, y)``; HONEYCOMB (2 sites per cell) and
KAGOME (3) use ``(x, y, t)``, where ``t`` is the site within cell ``(x, y)``.
The sublattices are named after the fill-in order
circle -> dot -> triangle -> diamond.

TRIANGULAR uses axial coordinates with neighbor offsets
(+-1,0), (0,+-1), (1,-1), (-1,1); its three sublattices are (x - y) mod 3.
KAGOME is the line graph of the honeycomb: site (x, y, t) is kagome vertex
t of cell (x, y); every site lies in exactly two triangles and has four
neighbors.  SQUARE_MOORE is the square lattice with the 8-site Chebyshev
neighborhood; its four sublattices are the parity classes (x mod 2, y mod 2).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

FILL_ORDER = ("circle", "dot", "triangle", "diamond")


class LatticeKind(enum.Enum):
    SQUARE = "square"
    HONEYCOMB = "honeycomb"
    TRIANGULAR = "triangular"
    KAGOME = "kagome"
    SQUARE_MOORE = "square_moore"


@dataclass(frozen=True)
class LatticeSpec:
    """Static description of one lattice.

    neighbors[t] lists (dx, dy, t2): site t of cell (x, y) is adjacent to
    site t2 of cell (x + dx, y + dy).  The fill stage of site (x, y, t) is
    coloring[t][y % py][x % px], with (px, py) the coloring's period.
    """

    kind: LatticeKind
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


_SPECS = {
    LatticeKind.SQUARE: LatticeSpec(
        LatticeKind.SQUARE,
        (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)),),
        (((0, 1), (1, 0)),)),
    # Honeycomb: t=0 (A) connects to the three B sites of cells (x,y),
    # (x-1,y), (x,y-1); t=1 (B) is the mirror image.
    LatticeKind.HONEYCOMB: LatticeSpec(
        LatticeKind.HONEYCOMB,
        (((0, 0, 1), (-1, 0, 1), (0, -1, 1)),
         ((0, 0, 0), (1, 0, 0), (0, 1, 0))),
        (((0,),), ((1,),))),
    LatticeKind.TRIANGULAR: LatticeSpec(
        LatticeKind.TRIANGULAR,
        (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, -1, 0),
          (-1, 1, 0)),),
        (((0, 1, 2), (2, 0, 1), (1, 2, 0)),)),
    # Kagome via the honeycomb line graph: kagome vertex (x,y,t) = honeycomb
    # edge e_t of cell (x,y) where e0 = A(x,y)-B(x,y), e1 = A(x,y)-B(x-1,y),
    # e2 = A(x,y)-B(x,y-1).  Two vertices are adjacent iff their edges share
    # a honeycomb endpoint, which yields one "A triangle" per cell
    # {e0,e1,e2} and one "B triangle" per cell {e0(x,y), e1(x+1,y), e2(x,y+1)}.
    LatticeKind.KAGOME: LatticeSpec(
        LatticeKind.KAGOME,
        (((0, 0, 1), (0, 0, 2), (1, 0, 1), (0, 1, 2)),
         ((0, 0, 0), (0, 0, 2), (-1, 0, 0), (-1, 1, 2)),
         ((0, 0, 0), (0, 0, 1), (0, -1, 0), (1, -1, 1))),
        (((0,),), ((1,),), ((2,),))),
    LatticeKind.SQUARE_MOORE: LatticeSpec(
        LatticeKind.SQUARE_MOORE,
        (tuple((dx, dy, 0) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
               if (dx, dy) != (0, 0)),),
        (((0, 1), (2, 3)),)),
}


def build_lattice(kind: LatticeKind) -> LatticeSpec:
    return _SPECS[kind]


def _validate_dims(spec: LatticeSpec, dims) -> tuple[int, int]:
    w, h = int(dims[0]), int(dims[1])
    if w < 2 or h < 2:
        raise ValueError(f"torus dimensions must be at least 2x2, got {w}x{h}")
    px, py = spec.period
    if w % px or h % py:
        raise ValueError(
            f"{spec.kind.value} torus needs side lengths divisible by the "
            f"coloring period {px}x{py}, got {w}x{h}")
    return w, h


def _split_site(spec: LatticeSpec, site) -> tuple:
    """(x, y, t) of a site; t is 0 on lattices with one site per cell."""
    return tuple(site) + ((0,) if spec.sites_per_cell == 1 else ())


def neighbor_sites(spec: LatticeSpec, config_dims, site) -> list:
    """All nearest neighbors of `site` on the torus, as a list of sites.

    On very small tori some entries may coincide (parallel edges), but a
    site is never its own neighbor.
    """
    w, h = _validate_dims(spec, config_dims)
    coords = _split_site(spec, site)
    if len(coords) != 3 or not all(0 <= c < m for c, m in zip(
            coords, (w, h, spec.sites_per_cell))):
        raise ValueError(
            f"site {site!r} out of range for {spec.kind.value} {w}x{h}")
    x, y, t = coords
    out = [((x + dx) % w, (y + dy) % h, t2) for dx, dy, t2 in spec.neighbors[t]]
    return [s[:2] for s in out] if spec.sites_per_cell == 1 else out


def stage_of(spec: LatticeSpec, site) -> int:
    """Fill stage of a site (a pure function of its coordinates)."""
    x, y, t = _split_site(spec, site)
    px, py = spec.period
    return spec.coloring[t][y % py][x % px]


def stage_index(spec: LatticeSpec, dims) -> np.ndarray:
    """Fill stage of every site, shaped like TorusConfiguration.values."""
    w, h = _validate_dims(spec, dims)
    px, py = spec.period
    # one period of the coloring, indexed (y, x, t)
    cell = np.array(spec.coloring, dtype=np.int8).transpose(1, 2, 0)
    stages = np.tile(cell, (h // py, w // px, 1))
    return stages[..., 0] if spec.sites_per_cell == 1 else stages


def occupied_neighbor(spec: LatticeSpec, values: np.ndarray) -> np.ndarray:
    """Boolean array shaped like `values`: some neighbor carries a 1."""
    # one contiguous (h, w) plane per site of the cell: rolling the strided
    # values[..., t] slices instead is several times slower
    planes = np.ascontiguousarray(np.moveaxis(
        values.reshape(values.shape[:2] + (-1,)), -1, 0), dtype=bool)
    out = np.zeros(planes.shape, dtype=bool)
    for t, offsets in enumerate(spec.neighbors):
        for dx, dy, t2 in offsets:
            # out[t, y, x] |= planes[t2, (y + dy) % h, (x + dx) % w]
            out[t] |= np.roll(planes[t2], (-dy, -dx), axis=(0, 1))
    return np.moveaxis(out, 0, -1).reshape(values.shape)


@dataclass
class TorusConfiguration:
    """A periodic 0/1 configuration on a finite torus.

    `values` has shape (height, width) for the lattices with one site per
    cell and (height, width, sites_per_cell) for honeycomb/kagome, indexed
    values[y, x] / values[y, x, t].
    """

    kind: LatticeKind
    dims: tuple[int, int]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        w, h = _validate_dims(build_lattice(self.kind), self.dims)
        self.dims = (w, h)
        expect = self._shape(self.kind, w, h)
        v = np.asarray(self.values, dtype=np.int8)
        if v.shape != expect:
            raise ValueError(f"values shape {v.shape} != expected {expect}")
        if not np.isin(v, (0, 1)).all():
            raise ValueError("values must be 0/1")
        self.values = v

    @staticmethod
    def _shape(kind, w, h):
        t_max = build_lattice(kind).sites_per_cell
        return (h, w) if t_max == 1 else (h, w, t_max)

    @classmethod
    def empty(cls, kind: LatticeKind, dims) -> "TorusConfiguration":
        w, h = _validate_dims(build_lattice(kind), dims)
        return cls(kind, (w, h), np.zeros(cls._shape(kind, w, h), dtype=np.int8))


def verify_hard_core(config: TorusConfiguration) -> bool:
    """True iff no two adjacent sites both carry 1."""
    g = config.values.astype(bool)
    return not (g & occupied_neighbor(build_lattice(config.kind), g)).any()

