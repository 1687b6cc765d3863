"""n x n block calculus on the square lattice's even sublattice.

A block is an n x n patch of even sites, encoded as an integer mask with bit
(x, y) at position y*n + x.  All 2^(n^2) masks are legal (even sites are never
lattice-adjacent).  Blocks tile the even sublattice; the odd sites a block
interacts with are the plaquette centers (i + 1/2, j + 1/2) for
i, j in [-1, n), indexed here by (i, j).  An odd site is adjacent to the even
positions {i, i+1} x {j, j+1} that fall inside the block; odd sites on the
block boundary are shared with neighboring blocks.  `_odd_sites(n)` holds
that geometry once, as one position mask per odd site: a block forces the
sites whose mask it meets, and both weakness and the unforced counts of
`_unforced_counts` are read from those masks.  D4 moves the odd-site grid
with the block and classes are D4-invariant, so `_unforced_counts` keeps
the equal unforced counts of one orbit of odd sites once.

Two reductions shrink the 2^(n^2) variables:

* D4: masks related by the dihedral symmetries of the square are identified
  (the maximal-entropy measure is isotropic).  The images come from
  rotating and mirroring the n x n grid of positions, and a mask's orbit is
  named by its smallest image, `_d4_orbit`.  Every whole-mask table is
  built by doubling (`_or_table`, `popcounts`), one write per mask.
* Weak sites: position s is weak in mask b when toggling s keeps the set
  of odd sites the block forces, forced(b) == forced(b ^ 1<<s).
  Equivalently, every odd site adjacent to s is already adjacent to some 1
  of b other than s, so weakness does not depend on b[s].  Corner positions
  have an odd neighbor touching no other position, hence are never weak.
  Classes join masks by D4 images and weak toggles.  Masks forcing the
  same set F are joined through their union, as every mask between them
  forces exactly F, so a class is the D4 images of one level set of
  forced.  Its largest member, the closure, holds the positions with no odd
  neighbor outside F; D4 moves closures with their masks, so each class is
  keyed by the orbit of its closures and labelled by its smallest member.

The quotient family keeps one probability variable per class, stored per
arrangement: the probability of one specific member, entering normalization
as multiplicity * prob.  Classes are numbered in order of their smallest
member, which is their representative.  Each mask is labelled by that
member, so the representatives are the masks labelled by themselves; one
scatter numbers them, and each mask reads the number at its label.  Gathers
use `ndarray.take`, about 3x faster than `t[idx]` with an int32 index.
"""
from __future__ import annotations

import operator
import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .bounds import LN2

CACHE_VERSION = 2
MAX_N = 4  # 2^25 masks at n=5 exceed the supported budget


def _check_n(n: int) -> int:
    try:
        n = operator.index(n)  # an int or numpy integer, never truncated
    except TypeError:
        raise ValueError(f"block side must be an integer, got {n!r}") from None
    if not 1 <= n <= MAX_N:
        raise ValueError(f"block side must be in [1, {MAX_N}], got {n}")
    return n


def popcounts(nbits: int) -> np.ndarray:
    """Number of 1s in every mask 0 .. 2^nbits - 1, built by doubling."""
    out = np.zeros(1 << nbits, dtype=np.int64)
    for b in range(nbits):
        np.add(out[:1 << b], 1, out=out[1 << b:2 << b])
    return out


def _or_table(units) -> np.ndarray:
    """t[..., m] = OR of units[b] over the 1 bits b of m, m < 2^len(units);
    a row units[b] gives one table per column.  Built by doubling: the masks
    in [2^b, 2^(b+1)) are those below 2^b with units[b] ORed in."""
    units = np.asarray(units, dtype=np.int32)  # n <= 4: at most 25 bits
    t = np.zeros(units.shape[1:] + (1 << len(units),), dtype=np.int32)
    for b, u in enumerate(units):
        np.bitwise_or(t[..., :1 << b], u[..., None],
                      out=t[..., 1 << b:2 << b])
    return t


@lru_cache(maxsize=None)
def _d4_sources(n: int) -> tuple:
    """The 7 dihedral symmetries other than the identity, read off the
    rotated and mirrored position grid: image bit j is source bit s[j]."""
    grid = np.arange(n * n).reshape(n, n)
    return tuple(np.rot90(g, k).ravel().tolist()
                 for g in (grid, grid.T) for k in range(4))[1:]


@lru_cache(maxsize=None)
def _d4_orbit(n: int) -> np.ndarray:
    """Smallest D4 image of every mask, read-only.  Unit 1 << s[j] at bit j
    makes the image under the inverse of map s, and D4 holds every inverse."""
    maps = np.vstack([np.arange(n * n), _d4_sources(n)])
    orbit = _or_table(1 << maps.T).min(axis=0)
    orbit.flags.writeable = False
    return orbit


@lru_cache(maxsize=None)
def _odd_sites(n: int) -> tuple:
    """Mask of the block positions adjacent to each odd site (i, j),
    i, j in [-1, n), j fastest: {i, i+1} x {j, j+1} inside the block."""
    return tuple(sum(1 << (y * n + x) for x in (i, i + 1) for y in (j, j + 1)
                     if 0 <= x < n and 0 <= y < n)
                 for i in range(-1, n) for j in range(-1, n))


@dataclass
class BlockFamily:
    """Partition of all n x n masks into equivalence classes."""

    n: int
    use_weak: bool
    class_of: np.ndarray          # mask -> class id, shape 2^(n^2)
    representatives: np.ndarray   # class id -> canonical mask
    multiplicities: np.ndarray    # class id -> member count
    # filled by `_unforced_counts` on first use; perfbench reads this name
    _marginal_count_cache: tuple | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        total = 1 << (self.n * self.n)
        if len(self.class_of) != total:
            raise ValueError("class index length mismatch")
        if int(self.multiplicities.sum()) != total:
            raise ValueError("class multiplicities do not partition the masks")

    @property
    def class_count(self) -> int:
        return len(self.representatives)

    @property
    def free_variables(self) -> int:
        """Independent optimization variables: one per class, minus the
        normalization constraint."""
        return self.class_count - 1


def reduce_family(n: int, use_weak: bool = True) -> BlockFamily:
    """Build the D4 (and optionally weak-site) quotient of all n x n masks."""
    n = _check_n(n)
    N = n * n
    total = 1 << N
    masks = np.arange(total, dtype=np.int32)  # n <= 4: every mask fits
    orbit = _d4_orbit(n)

    if use_weak:
        # forced[m]: the odd sites next to a 1 of m, one bit per site
        sites = _odd_sites(n)
        forced = _or_table([sum(1 << k for k, om in enumerate(sites)
                                if om >> s & 1) for s in range(N)])
        # closure[m]: the complement of the positions next to a site not in
        # forced[m], ORed from one table per half of the odd sites
        h = len(sites) // 2
        lo, hi = _or_table(sites[:h]), _or_table(sites[h:])
        free = np.bitwise_xor(forced, (1 << len(sites)) - 1, out=forced)
        top = np.right_shift(free, h)
        closure = lo.take(np.bitwise_and(free, (1 << h) - 1, out=free))
        np.bitwise_or(closure, hi.take(top), out=closure)
        np.bitwise_xor(closure, total - 1, out=closure)
        key = orbit.take(closure)  # names the class; label it by least member
        label = masks.copy()
        np.minimum.at(label, key, masks)
        orbit = label.take(key)

    # a class's smallest member is the one mask that is its own label
    reps = np.flatnonzero(orbit == masks)
    number = np.empty(total, dtype=np.int32)  # read only at representatives
    number[reps] = np.arange(len(reps))
    class_of = number.take(orbit)
    return BlockFamily(n, use_weak, class_of, reps, np.bincount(class_of))


def save_family(family: BlockFamily, path) -> None:
    """Write the family to `path` as one int32 .npy array: the header
    (CACHE_VERSION, n, use_weak, class count), then class_of,
    representatives and multiplicities.  The array is written to a
    temporary file in the same directory and renamed into place, so a crash
    mid-write never leaves a truncated file under the final name."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    header = [CACHE_VERSION, family.n, family.use_weak, family.class_count]
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, np.concatenate(
                [header, family.class_of, family.representatives,
                 family.multiplicities], dtype=np.int32))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_family(path, n: int, use_weak: bool) -> BlockFamily:
    """Load the (n, use_weak) family that `save_family` wrote, with one
    read; ValueError if the file is unusable or holds another family."""
    path = Path(path)
    try:
        a = np.load(path)
        found = (int(a[0]), int(a[1]), bool(a[2]))
        if found != (CACHE_VERSION, n, use_weak):
            raise ValueError("holds version=%d, n=%d, use_weak=%s" % found)
        reps = 4 + (1 << (n * n))  # where class_of ends
        mults = reps + int(a[3])
        # copies, so the family does not keep the whole file array alive
        fam = BlockFamily(n, use_weak, a[4:reps].astype(np.int32),
                          a[reps:mults].astype(np.int64),
                          a[mults:].astype(np.int64))
        if (fam.class_of[fam.representatives]
                != np.arange(fam.class_count)).any():
            raise ValueError("index mismatch")
    except (OSError, EOFError, LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"unusable family cache {path}: {exc}") from exc
    return fam


def load_or_build_family(n: int, use_weak: bool = True,
                         cache_dir=None) -> BlockFamily:
    """reduce_family with a transparent on-disk cache."""
    if cache_dir is None:
        return reduce_family(n, use_weak)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tag = "weak" if use_weak else "d4"
    path = cache_dir / f"blocks_n{n}_{tag}_v{CACHE_VERSION}.npy"
    if path.exists():
        try:
            return load_family(path, n, use_weak)
        except ValueError as exc:
            warnings.warn(f"rebuilding block family: {exc}")
    fam = reduce_family(n, use_weak)
    save_family(fam, path)
    return fam


def _unforced_counts(family: BlockFamily):
    """(a, e, me, ga, gw, w): the constants of `block_bounds._evaluate`,
    one row per D4 orbit of odd sites, ordered by the orbit's smallest site.

    a[o, c] counts the class-c members with no 1 next to a site of orbit o,
    so a @ probs is the probability that one block leaves it unforced, and
    e[o] = 4 // popcount(its mask) blocks share it: 1, 2 or 4.  Both depend
    on a site only through its mask and classes are D4-invariant, so the m
    sites of an orbit share them: me = m / e of them per block.  w holds the
    class multiplicities; ga = ln 2 m a / 2n^2 and gw = -w / 2n^2 fold in
    the gradient's scale factors to save numpy calls per evaluation.
    """
    if family._marginal_count_cache is None:
        N = family.n * family.n
        odd, maps = _odd_sites(family.n), _d4_sources(family.n + 1)
        size = {}  # orbit size, keyed by the orbit's smallest odd site
        for k in range(len(odd)):
            key = min(k, *(s[k] for s in maps))
            size[key] = size.get(key, 0) + 1
        sites = [odd[k] for k in size]
        m = np.array(list(size.values()), float)
        # axis a of the (2,)*N cube is mask bit N-1-a: the members with no
        # 1 next to a site are the face with 0 on the axes of its positions
        cube = family.class_of.reshape((2,) * N)
        a = np.stack([np.bincount(
            cube[tuple(0 if om >> (N - 1 - ax) & 1 else slice(None)
                       for ax in range(N))].ravel(),
            minlength=family.class_count) for om in sites]).astype(float)
        e = np.array([4 // om.bit_count() for om in sites], float)
        w = family.multiplicities.astype(float)
        family._marginal_count_cache = (
            a, e, m / e, (LN2 / (2 * N)) * m[:, None] * a, w / (-2 * N), w)
    return family._marginal_count_cache


def cover_pairs(family: BlockFamily):
    """Class pairs of masks that differ by one added 1.

    Returns (small, big): small[k] and big[k] are distinct classes holding
    masks s and s | 1<<b, sorted by (small, big).  Covers generate the
    inclusion order: any s subset of t is a chain of
    popcount(t) - popcount(s) <= n^2 covers, so the class-level transitive
    closure of these pairs is the class-level inclusion relation.  On a
    weak-site family a 1 added on a weak site stays inside its class, so no
    pair joins two classes whose optimal probabilities must be equal.

    Classes are unions of D4 orbits, so a symmetry g maps the cover
    (s, s | 1<<b) to (g s, g s | 1<<g(b)), which has the same class pair:
    the covers of the D4-canonical masks alone give every pair.
    """
    n2 = family.n * family.n
    canon = np.flatnonzero(_d4_orbit(family.n) == np.arange(1 << n2))
    keys = []
    for b in range(n2):
        small = canon[(canon >> b) & 1 == 0]
        cs = family.class_of[small]
        cb = family.class_of[small | (1 << b)]
        keep = cs != cb
        keys.append(cs[keep].astype(np.int64) * family.class_count + cb[keep])
    keys = np.sort(np.concatenate(keys))  # np.unique hashes: 5x slower here
    return np.divmod(keys[np.r_[True, keys[1:] != keys[:-1]]],
                     family.class_count)
