"""References for the vectorized block reduction `blocks.reduce_family`:
scalar, one-mask-at-a-time dihedral images, forced odd sites and weak
sites, written straight from their definitions in the `blocks` module
docstring, and the weak-site classes by scipy's graph components."""
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from hardcore_entropy import blocks


def d4_images(n: int, mask: int) -> list[int]:
    """All 8 dihedral images of a mask (with repeats for symmetric masks)."""
    out = []
    for perm in blocks.d4_position_maps(n):
        img = 0
        for i, dest in enumerate(perm):
            if (mask >> i) & 1:
                img |= 1 << dest
        out.append(img)
    return out


def d4_canonical(n: int, mask: int) -> int:
    """Lexicographically smallest dihedral image."""
    return min(d4_images(n, mask))


def corner_positions(n: int) -> frozenset[int]:
    """The four corner positions of an n x n block."""
    return frozenset({0, n - 1, (n - 1) * n, n * n - 1})


def forced_odd_sites(n: int, mask: int) -> int:
    """Bitmask of odd sites forced to 0 by the block's 1s."""
    _, per_pos = blocks._odd_geometry(n)
    forced = 0
    for s in range(n * n):
        if (mask >> s) & 1:
            forced |= per_pos[s]
    return forced


def weak_sites(n: int, mask: int) -> set[int]:
    """Positions whose value cannot change the forced odd set.

    Position s qualifies when every odd neighbor of s is adjacent to a 1 of
    the mask at some position other than s.  Weakness is independent of
    mask[s] by construction.  Corners never qualify: each corner has an odd
    neighbor it alone touches.
    """
    _, per_pos = blocks._odd_geometry(n)
    corners = corner_positions(n)
    out = set()
    for s in range(n * n):
        if s in corners:
            continue
        forced_wo = 0
        for t in range(n * n):
            if t != s and (mask >> t) & 1:
                forced_wo |= per_pos[t]
        if per_pos[s] & ~forced_wo == 0:
            out.add(s)
    return out


def weak_family_by_csgraph(n: int):
    """(class_of, representatives, multiplicities) of the weak-site family:
    the D4 orbits of `reduce_family(n, use_weak=False)` joined by every
    weak toggle, with `scipy.sparse.csgraph.connected_components` finding
    the classes."""
    d4 = blocks.reduce_family(n, use_weak=False)
    orbit = d4.representatives[d4.class_of]
    total = 1 << (n * n)
    masks = np.arange(total)
    _, per_pos = blocks._odd_geometry(n)
    ends = [(np.zeros(0, int), np.zeros(0, int))]
    for s in sorted(set(range(n * n)) - corner_positions(n)):
        forced_wo = np.zeros(total, int)
        for t in range(n * n):
            if t != s:
                forced_wo |= ((masks >> t) & 1) * per_pos[t]
        weak = masks[(per_pos[s] & ~forced_wo) == 0]
        ends.append((orbit[weak], orbit[weak ^ (1 << s)]))
    rows, cols = (np.concatenate(e) for e in zip(*ends))
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)),
                       shape=(total, total))
    _, comp = connected_components(graph, connection="weak")
    _, smallest = np.unique(comp, return_index=True)
    reps, class_of, mult = np.unique(smallest[comp[orbit]],
                                     return_inverse=True, return_counts=True)
    return class_of, reps, mult
