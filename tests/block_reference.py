"""References for the vectorized block calculus of `blocks` and
`block_bounds`: the odd-site geometry, scalar, one-mask-at-a-time
dihedral images, forced odd sites, their closure and weak sites, written
straight from their definitions in the `blocks` module docstring, the
weak-site classes by scipy's graph components, the cover pairs over every
mask, the block objective with one unforced-count row per odd site, and
the unforced odd density of a tiling."""
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from hardcore_entropy import blocks
from hardcore_entropy.bounds import LN2


def d4_maps(n: int) -> list[list[int]]:
    """The 8 dihedral symmetries as destination maps, maps[g][s] the image
    of position s: k quarter turns (x, y) -> (n-1-y, x), k = 0..3, with or
    without first mirroring x -> n-1-x.  maps[0] is the identity."""
    maps = []
    for mirror in (False, True):
        for k in range(4):
            perm = []
            for y in range(n):
                for x in range(n):
                    xx, yy = (n - 1 - x if mirror else x), y
                    for _ in range(k):
                        xx, yy = n - 1 - yy, xx
                    perm.append(yy * n + xx)
            maps.append(perm)
    return maps


def d4_images(n: int, mask: int) -> list[int]:
    """All 8 dihedral images of a mask (with repeats for symmetric masks)."""
    return [sum(1 << perm[s] for s in range(n * n) if mask >> s & 1)
            for perm in d4_maps(n)]


def d4_canonical(n: int, mask: int) -> int:
    """Lexicographically smallest dihedral image."""
    return min(d4_images(n, mask))


def corner_positions(n: int) -> frozenset[int]:
    """The four corner positions of an n x n block."""
    return frozenset({0, n - 1, (n - 1) * n, n * n - 1})


def odd_neighbors(n: int) -> list[int]:
    """Per position (x, y), row-major: the bitmask of its odd neighbours,
    the sites (i, j) with i in {x-1, x} and j in {y-1, y}, where odd site
    (i, j), i, j in [-1, n), has bit (i+1)(n+1) + (j+1)."""
    return [sum(1 << ((i + 1) * (n + 1) + j + 1)
                for i in (x - 1, x) for j in (y - 1, y))
            for y in range(n) for x in range(n)]


def forced_odd_sites(n: int, mask: int) -> int:
    """Bitmask of odd sites forced to 0 by the block's 1s."""
    per_pos = odd_neighbors(n)
    forced = 0
    for s in range(n * n):
        if (mask >> s) & 1:
            forced |= per_pos[s]
    return forced


def closure(n: int, mask: int) -> int:
    """The positions s whose odd neighbours all lie in the mask's forced
    set: the largest mask that forces the same odd sites."""
    forced = forced_odd_sites(n, mask)
    return sum(1 << s for s, om in enumerate(odd_neighbors(n))
               if om & ~forced == 0)


def weak_sites(n: int, mask: int) -> set[int]:
    """Positions whose value cannot change the forced odd set.

    Position s qualifies when every odd neighbor of s is adjacent to a 1 of
    the mask at some position other than s.  Weakness is independent of
    mask[s] by construction.  Corners never qualify: each corner has an odd
    neighbor it alone touches.
    """
    per_pos = odd_neighbors(n)
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
    per_pos = odd_neighbors(n)
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


def cover_pairs_all_masks(family):
    """(small, big) of `blocks.cover_pairs` from the covers (s, s | 1<<b)
    of every mask s, not only the D4-canonical ones."""
    n2 = family.n * family.n
    masks = np.arange(1 << n2, dtype=np.int64)
    keys = []
    for b in range(n2):
        small = masks[(masks >> b) & 1 == 0]
        cs = family.class_of[small]
        cb = family.class_of[small | (1 << b)]
        keep = cs != cb
        keys.append(cs[keep].astype(np.int64) * family.class_count + cb[keep])
    return np.divmod(np.unique(np.concatenate(keys)), family.class_count)


def unforced_counts_by_site(family):
    """(A, e) over the odd sites of `blocks._odd_sites`, one row per site.

    A[k, c] is the number of class-c members with no 1 next to odd site k,
    so A @ probs gives the probability that one block leaves site k
    unforced.  e[k] = 4 // popcount(mask of k) is the number of blocks
    sharing site k: 1 inside the block, 2 on an edge, 4 at a corner.
    """
    sites = blocks._odd_sites(family.n)
    N = family.n * family.n
    # axis a of the (2,)*N cube is mask bit N-1-a: the members with no
    # 1 next to site k are the face with 0 on the axes of its positions
    cube = family.class_of.reshape((2,) * N)
    a = np.stack([np.bincount(
        cube[tuple(0 if om >> (N - 1 - ax) & 1 else slice(None)
                   for ax in range(N))].ravel(),
        minlength=family.class_count) for om in sites]).astype(float)
    e = np.array([4 // om.bit_count() for om in sites])
    return a, e


def evaluate_by_site(family, probs):
    """(value, gradient, u) of `block_bounds._evaluate` from the per-site
    rows of `unforced_counts_by_site`: a site shared by e blocks is
    unforced with probability q^e and counts q^e / e, so
    u = (1/n^2) sum_k q_k^e_k / e_k."""
    n2 = family.n ** 2
    w = family.multiplicities.astype(float)
    a, e = unforced_counts_by_site(family)
    p = np.asarray(probs, dtype=float)
    logp = np.log(np.maximum(p, 1e-300))
    h = -float(w @ (p * logp)) / n2
    q = a @ p
    u = float((q ** e / e).sum()) / n2
    dh = -w * (logp + 1.0) / n2
    du = a.T @ q ** (e - 1) / n2
    return 0.5 * (h + u * LN2), 0.5 * (dh + LN2 * du), u


def unforced_density(n: int, mask_prob: np.ndarray) -> float:
    """Fraction of odd sites with no occupied even neighbour when the plane
    is tiled by independent n x n blocks with mask probabilities
    `mask_prob`.  Odd site (i + 1/2, j + 1/2), i, j in [0, n), stands for
    its translates; its four neighbours {i, i+1} x {j, j+1} fall into one
    to four blocks, which are all-zero there independently."""
    masks = np.arange(1 << (n * n))
    total = 0.0
    for i in range(n):
        for j in range(n):
            by_block = {}
            for x in (i, i + 1):
                for y in (j, j + 1):
                    block = (x // n, y // n)
                    pos = (y % n) * n + x % n
                    by_block[block] = by_block.get(block, 0) | (1 << pos)
            prob = 1.0
            for pm in by_block.values():
                prob *= mask_prob[(masks & pm) == 0].sum()
            total += prob
    return total / (n * n)
