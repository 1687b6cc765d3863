"""Two dense references for `oracles.strip_entropy`.

`strip_entropy` is the square-lattice strip as it was before the matvec
was factored into half-columns and before the columns came from the
lattice table: its own legal columns (no two adjacent 1s, plus the
wrap-around pair on a periodic strip wider than 1), the dense F x F
matrix T[c, c'] = [c & c' == 0] and one gemv per power step.
`oracles.strip_entropy("square", ...)` must agree with it to rounding
(|d| <= 1e-15) and in every printed digit.

`lattice_strip_entropy` works on any lattice from site coordinates: it
lists the sites (x, y, t) of two adjacent columns, joins each to its
neighbours (x + dx, y + dy, t2) of `spec.neighbors` (with y wrapped on a
periodic strip) that lie in those two columns, and takes the largest
eigenvalue of the dense transfer matrix over the independent columns.
"""
import math

import numpy as np

from hardcore_entropy.lattices import build_lattice


def square_columns(width: int, boundary: str = "free") -> np.ndarray:
    masks = np.arange(1 << width, dtype=np.int64)
    ok = (masks & (masks >> 1)) == 0
    if boundary == "periodic" and width > 1:
        ok &= ~((masks & 1).astype(bool)
                & (masks >> (width - 1) & 1).astype(bool))
    return masks[ok]


def strip_entropy(width: int, boundary: str = "free") -> float:
    cols = square_columns(width, boundary)
    t = ((cols[:, None] & cols[None, :]) == 0).astype(float)
    v = np.full(len(cols), 1.0 / math.sqrt(len(cols)))
    lam = 0.0
    for _ in range(1000):
        w = t @ v
        lam_new = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(lam_new - lam) <= 1e-13 * max(lam_new, 1.0):
            return math.log(lam_new) / width
        lam = lam_new
    raise ValueError(f"strip width {width} ({boundary}) did not converge")


def lattice_strip_entropy(lattice: str, width: int,
                          boundary: str = "free") -> float:
    spec = build_lattice(lattice)
    n = width * spec.sites_per_cell
    sites = [(x, y, t) for x in (0, 1) for y in range(width)
             for t in range(spec.sites_per_cell)]
    index = {site: i for i, site in enumerate(sites)}
    edges = set()
    for i, (x, y, t) in enumerate(sites):
        for dx, dy, t2 in spec.neighbors[t]:
            y2 = (y + dy) % width if boundary == "periodic" else y + dy
            j = index.get((x + dx, y2, t2))
            if j is not None and j != i:
                edges.add((min(i, j), max(i, j)))
    # site i of the left column is bit i of a; the right column's bits
    # follow at n..2n-1
    masks = np.arange(1 << n, dtype=np.int64)
    bit = [(masks >> i & 1).astype(bool) for i in range(n)]
    ok = np.ones(1 << n, dtype=bool)
    for i, j in edges:
        if j < n:
            ok &= ~(bit[i] & bit[j])
    cols = masks[ok]
    t = np.ones((len(cols), len(cols)), dtype=bool)
    for i, j in edges:
        if i < n <= j:
            t &= ~np.outer(cols >> i & 1, cols >> (j - n) & 1).astype(bool)
    lam = max(np.linalg.eigvals(t.astype(float)).real)
    return math.log(lam) / n
