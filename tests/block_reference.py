"""Scalar, one-mask-at-a-time references for the vectorized block
reduction `blocks.reduce_family`: dihedral images, forced odd sites and
weak sites, written straight from their definitions in the `blocks`
module docstring."""
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
    corners = blocks.corner_positions(n)
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
