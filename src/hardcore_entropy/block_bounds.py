"""Entropy lower bounds from n x n block distributions on the square lattice.

The even sublattice is tiled by independent n x n blocks drawn from a
class-symmetric distribution; odd sites are then filled with fair coins
wherever no neighboring 1 forces a 0.  The per-site entropy of the resulting
measure is

    value = 1/2 [ h + u ln 2 ]

with h the block entropy and u the unforced odd density, both per even
site.  h is the weighted entropy of the class probabilities and u is a
polynomial in them, so the maximum over the class simplex is the fixed
point of a closed-form stationarity map (see `optimize_block_bound`).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import product

import numpy as np

from . import optimize
from .blocks import BlockFamily, _unforced_counts, cover_pairs, popcounts
from .bounds import LN2, BoundReport, _staged_value, optimize_bound

# a cover pair is a violation when p[big] exceeds p[small] by this much
MONOTONICITY_TOL = 1e-6


@dataclass(frozen=True)
class BlockDistribution:
    """Per-class arrangement probabilities over a block family.

    probs[c] is the probability of one specific member of class c, so the
    normalization is sum(multiplicity * probs) = 1, which
    `optimize.on_simplex` checks and then divides by.
    """

    family: BlockFamily
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.family.class_count,):
            raise ValueError(
                f"need {self.family.class_count} class probabilities")
        p = optimize.on_simplex(p, self.family.multiplicities,
                                "class probabilities")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.family.n

    def even_density(self) -> float:
        """Expected fraction of 1s on the even sublattice."""
        fam, n2 = self.family, self.n ** 2
        pops = np.bincount(fam.class_of, weights=popcounts(n2),
                           minlength=fam.class_count)
        return float(pops @ self.probs) / n2

    def mask_probabilities(self) -> np.ndarray:
        """Per-arrangement probability of every raw mask."""
        return self.probs[self.family.class_of]


def _evaluate(family: BlockFamily, probs):
    """(value, gradient in the class probabilities, u) of the block bound.

    value = (h + u ln 2) / 2 with h = -(1/n^2) sum multiplicity * p ln p
    (0 ln 0 = 0) and u the unforced odd density.  An odd site shared by e
    blocks is unforced with probability q^e and counts 1/e, with q = A p;
    the m sites of a D4 orbit o share one row A_o and one e_o
    (`blocks._unforced_counts`), so u = (1/n^2) sum_o m_o q_o^e_o / e_o
    and du/dp = (1/n^2) sum_o m_o q_o^(e_o - 1) A_o.
    """
    a, e, me, ga, gw, _ = _unforced_counts(family)
    p = np.asarray(probs, dtype=float)
    # in place: gradient = gw (ln p + 1) + ln 2 du/dp / 2, h = 2 p.(gw ln p)
    gradient = np.maximum(p, 1e-300)
    np.log(gradient, out=gradient)
    gradient *= gw
    h = 2.0 * float(p.dot(gradient))
    gradient += gw
    q = a.dot(p)  # ndarray.dot skips the dispatch of np.dot and of @
    u = float(me.dot(q ** e)) / family.n ** 2
    gradient += (q ** (e - 1.0)).dot(ga)
    return _staged_value((1.0, u), (h, LN2)), gradient, u


def value_and_gradient(family: BlockFamily, probs):
    """Bound value and its gradient in the class probabilities."""
    value, gradient, _ = _evaluate(family, probs)
    return value, gradient


def bound_value(dist: BlockDistribution) -> float:
    return _evaluate(dist.family, dist.probs)[0]


def block_bound(dist: BlockDistribution) -> BoundReport:
    """Assemble the bound report for a given block distribution."""
    value, _, u = _evaluate(dist.family, dist.probs)
    return BoundReport(
        lattice="square", scheme="block", value=value, n=dist.n,
        params={"class_probabilities": [float(x) for x in dist.probs]},
        densities=(dist.even_density(), u / 2))


def optimize_block_bound(family: BlockFamily, *, tol: float = optimize.TOL,
                         max_iter: int = optimize.MAX_ITER):
    """Maximize the block bound over the class simplex sum(w p) = 1.

    The KKT condition reads ln p_c = ln 2 * n^2 du/dp_c / w_c + const, so
    the maximizer is the fixed point of the Blahut-Arimoto-style map
    p <- normalize_w(exp(ln 2 * n^2 du/dp / w)), run from the uniform
    distribution.  Since 2 n^2 g_c = ln 2 * n^2 du/dp_c - w_c (ln p_c + 1)
    for the gradient g of `value_and_gradient`, the map is evaluated as
    p <- normalize_w(p exp(2 n^2 g / w)).  It stops when the log-space KKT
    residual max_c |p_c (g_c - w_c (g . p))|, the `stationarity` of
    `optimize.maximize`, is at most `tol`, or after `max_iter` steps.
    Returns (distribution, report); the report carries the solver meta.
    """
    w = _unforced_counts(family)[-1]
    scale = 2.0 * family.n ** 2 / w
    p = np.full(family.class_count, 1.0 / w.sum())
    for iterations in range(max_iter + 1):
        _, g = value_and_gradient(family, p)
        stationarity = float(np.abs(p * (g - w * (g @ p))).max())
        if stationarity <= tol or iterations == max_iter:
            break
        e = np.log(p) + scale * g
        e = np.exp(e - e.max())
        p = e / (w @ e)
    res = optimize.OptimizationResult(
        argmax=p, iterations=iterations,
        converged=stationarity <= tol, stationarity=stationarity)
    dist = BlockDistribution(family, p)
    # monotonicity is reported only: a violation marks a suboptimal point,
    # and any class distribution still gives a valid lower bound
    meta = {**res.meta(),
            "monotonicity_violations": len(check_monotonicity(dist))}
    return dist, replace(block_bound(dist), meta=meta)


def check_monotonicity(dist: BlockDistribution
                       ) -> list[tuple[int, int, float, float]]:
    """Inclusion-monotonicity violations of an optimizer output.

    At an optimum, adding 1s to a block can only lower its probability.
    The check runs over `blocks.cover_pairs`, which generate the inclusion
    order, and needs p[small] > p[big] - MONOTONICITY_TOL for each pair.
    Checking covers only, a chain of k <= n^2 covers is held to
    k * MONOTONICITY_TOL rather than MONOTONICITY_TOL.  Returns
    (small_class, big_class, p_small, p_big) per violation.
    """
    small, big = cover_pairs(dist.family)
    ps, pb = dist.probs[small], dist.probs[big]
    bad = ps <= pb - MONOTONICITY_TOL
    return [(int(cs), int(cb), float(a), float(b))
            for cs, cb, a, b in zip(small[bad], big[bad], ps[bad], pb[bad])]


@dataclass(frozen=True)
class DensityProfile:
    """Occupancy distribution of an n x n window of even sites.

    occupancy_probs[k] = P(window holds exactly k ones), k = 0..n^2, put
    on the simplex by `optimize.on_simplex`.
    """

    n: int
    occupancy_probs: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.occupancy_probs, dtype=float)
        if q.shape != (self.n ** 2 + 1,):
            raise ValueError(f"profile needs {self.n ** 2 + 1} entries")
        q = optimize.on_simplex(q, np.ones(len(q)), "occupancy probabilities")
        q.flags.writeable = False
        object.__setattr__(self, "occupancy_probs", q)

    def mean(self) -> float:
        k = np.arange(len(self.occupancy_probs))
        return float(k @ self.occupancy_probs)

    def variance(self) -> float:
        k = np.arange(len(self.occupancy_probs))
        m = self.mean()
        return float((k - m) ** 2 @ self.occupancy_probs)


def _region_pmf(dist: BlockDistribution, region: int) -> np.ndarray:
    """Popcount distribution of mask & region under the block measure."""
    m = dist.n
    masks = np.arange(1 << (m * m), dtype=np.int64)
    return np.bincount(popcounts(m * m)[masks & region],
                       weights=dist.mask_probabilities(),
                       minlength=region.bit_count() + 1)


def density_profile(n: int, generator: BlockDistribution) -> DensityProfile:
    """Occupancy distribution of an n x n even-site window.

    The window is laid over a tiling of independent m x m generator blocks
    (m <= n) at each of the m^2 offsets, or at the single offset (0, 0) when
    m == n, the aligned window.  At each offset the window cuts one region
    out of every block it meets; the region popcount laws convolve, and the
    offsets are averaged uniformly.
    """
    m = generator.n
    if m > n:
        raise ValueError(f"generator side {m} exceeds window side {n}")
    offsets = [(0, 0)] if m == n else list(product(range(m), repeat=2))
    acc = np.zeros(n * n + 1)
    for ox, oy in offsets:
        regions: dict[tuple[int, int], int] = {}
        for x in range(ox, ox + n):
            for y in range(oy, oy + n):
                key = (x // m, y // m)
                regions[key] = regions.get(key, 0) | 1 << (y % m * m + x % m)
        acc += reduce(np.convolve, (_region_pmf(generator, region)
                                    for region in regions.values()))
    return DensityProfile(n, acc / len(offsets))


def equalized_unit_generator(family: BlockFamily, *,
                             tol: float = optimize.TOL,
                             max_iter: int = optimize.MAX_ITER):
    """Single-site generator at the density-equalized square-lattice optimum.

    The raw single-site optimum puts more mass on the odd sublattice than
    the even one, so occupancy profiles built from it are not comparable
    with the larger block optima (whose two densities nearly agree).  The
    fair flat reference is the two-stage scheme whose final coin is chosen
    to equalize the sublattice densities.  Returns (distribution, report).
    """
    if family.n != 1:
        raise ValueError("unit generator needs the 1x1 family")
    rep = optimize_bound("equalized", "square", tol=tol, max_iter=max_iter)
    p = rep.densities[0]
    return BlockDistribution(family, np.array([1.0 - p, p])), rep
