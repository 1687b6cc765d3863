"""Closed-form lower bounds for hard-core topological entropy.

Every bound here comes from a sequential fill-in construction: sublattices
are filled in order, a site staying 0 whenever an already-placed neighbor
carries a 1, and stage s fills its unforced sites, a fraction U_s, with a
law of entropy H_s per site: a coin B(p_s), or three-tile clusters in the
first stage of the three-hex schemes.  `_staged_value`, (1/k) sum_s U_s
H_s over the k stages, is the one formula for every closed, equalized and
three-hex bound.  The coin schemes' U_s are counted from the influence
windows of the lattice table (`_unforced_forms`), the three-hex ones are
`THREE_HEX_UNFORCED`.  All values are nats per full-lattice site.

Each formula is written once and broadcasts: its parameters are floats or
equal-length columns, real or complex, one entry per point, so the
optimizer evaluates a whole batch of points in one call and every entry
is validated.  Nothing casts to float, so a complex-step point carries
its derivative through every formula; the checks read real parts.  The
report builders pass one-row columns, so a report's value is bit-for-bit
the same formula as the optimizer's at the same point (numpy's vectorized
power can round differently from a scalar one).

Convention 0 * ln 0 = 0 throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import optimize
from .optimize import MAX_ITER, TOL
from .lattices import LATTICES, build_lattice, stage_window

LN2 = math.log(2.0)


def _check_prob(p, name: str = "p"):
    """p, a float or an array, real or complex, once the real part of
    every entry is in [0, 1]."""
    a = np.asarray(p).real
    if not (a.min() >= 0.0 and a.max() <= 1.0):
        bad = a[~((a >= 0.0) & (a <= 1.0))].flat[0]
        raise ValueError(f"{name}={bad} outside [0, 1]")
    return p


def _xlogx(p):
    """p ln p entrywise for p, a float or an array, real or complex, whose
    real parts are >= 0; a float gives a numpy scalar, not a 0-d array.
    Entries of real part 0 take the log of 1, so 0 ln 0 = 0 with no
    log(0) warning."""
    return (p * np.log(np.where(np.real(p) > 0, p, 1)))[()]


def entropy_bernoulli(p):
    """Binary entropy -p ln p - (1-p) ln(1-p) in nats, entrywise."""
    p = _check_prob(p)
    return -_xlogx(p) - _xlogx(1.0 - p)


def check_three_hex(pvec) -> np.ndarray:
    """Validate a three-hex occupancy parameter (p0, p1, p2, p3): four
    floats, or four equal-length columns holding one parameter per point.

    p_k is the per-arrangement probability of a three-tile cluster carrying
    exactly k ones; the k=1 and k=2 levels each have 3 arrangements, so the
    normalization is p0 + 3 p1 + 3 p2 + p3 = 1.  Returns the entries as
    one array, real or complex, put on that simplex by
    `optimize.on_simplex`, so that a report passes `BoundReport`'s 1e-12
    checks.
    """
    p = np.array(pvec, dtype=np.result_type(*pvec, 1.0))
    if len(p) != 4:
        raise ValueError(f"three-hex parameter has {len(p)} entries, not 4")
    return optimize.on_simplex(p, (1, 3, 3, 1), "three-hex tiles")


def entropy_three_hex(pvec):
    """Entropy of the three-hex occupancy distribution, per cluster."""
    p0, p1, p2, p3 = check_three_hex(pvec)
    return -(_xlogx(p0) + 3 * _xlogx(p1) + 3 * _xlogx(p2) + _xlogx(p3))


@dataclass(frozen=True)
class BoundReport:
    """One computed lower bound.

    value: nats per full-lattice site.
    params: the parameters the bound was evaluated (or maximized) at.
    densities: per-sublattice 1-densities in fill order.
    lattice: lattice name.
    """

    lattice: str
    scheme: str
    value: float
    params: dict
    densities: tuple
    n: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < -1e-12:
            raise ValueError(f"bound value {self.value} negative")
        for d in self.densities:
            if not -1e-12 <= d <= 1 + 1e-12:
                raise ValueError(f"density {d} outside [0, 1]")

    def as_dict(self) -> dict:
        out = {
            "lattice": self.lattice,
            "scheme": self.scheme,
            "value_nats": self.value,
            "params": dict(self.params),
            "densities": list(self.densities),
        }
        if self.n is not None:
            out["n"] = self.n
        if self.meta:
            out["optimizer"] = dict(self.meta)
        return out


@cache
def _unforced_forms(lattice) -> tuple:
    """U_s for s = 1..k-1 as count forms (N, E, starts), built on first use.

    U_s, the chance that stage s's influence window leaves its target
    unforced, is sum_i N_i prod_t p_t^E[i, t] (1 - p_t)^E[i, k-1+t] over
    the rows i from starts[s - 1]; the N_i are positive integers, so no
    term cancels another.  Row i of `drawn` counts the 1s and 0s per stage
    that window assignment i draws (a forced 0 is drawn by no law), built
    by doubling in stage order, and ok[i] says it puts no 1 on a site that
    an earlier 1 forces to 0.
    """
    k = build_lattice(lattice).partite_count
    forms = []
    for stage in range(1, k):
        sites, target = stage_window(lattice, stage)
        drawn = np.zeros((1, 2 * k - 2), dtype=np.int8)
        ok = np.ones(1, dtype=bool)
        for t, forced in sites:
            zero, one = drawn.copy(), drawn.copy()
            zero[~forced, k - 1 + t] += 1
            one[:, t] += 1
            drawn = np.concatenate([zero, one])
            ok = np.concatenate([ok, ok & ~forced])
        forms.append(np.unique(drawn[ok & ~target], axis=0,
                               return_counts=True))
    exps, counts = (np.concatenate(f) for f in zip(*forms))
    return counts, exps, np.cumsum([0] + [len(n) for _, n in forms[:-1]])


def _unforced(lattice, probs) -> tuple:
    """U_s of every stage s, from the first k - 1 stage probabilities in
    `probs`, floats or columns."""
    counts, exps, starts = _unforced_forms(lattice)
    p = np.array(probs[:len(starts)]).T
    x = np.concatenate([p, 1.0 - p], axis=-1)
    # (points, terms, factors): each point's sums run over its own
    # contiguous row, so a batch row rounds as a one-row call does
    terms = counts * np.multiply.reduce(x[..., None, :] ** exps, axis=-1)
    return (1.0, *np.add.reduceat(terms, starts, axis=-1).T)


# Three-hex: tiles p = (p0, p1, p2, p3) per arrangement, as `check_three_hex`
# returns them, fill the circle sites; a = p0 + 2 p1 + p2 is the chance a
# tile is 0.  Of a cluster's 3 dots one touches only its tiles (p0), two a
# tile of each of three clusters (a^3).  After B(q) on the dots, 3 a (p1 +
# p0 (1-q)) (1 - a q)^2 of its 3 triangle sites stay unforced: P(the two
# dots adjacent only to in-cluster tiles stay 0) times the joint chance of
# the other two boundary dots, over the two arrangements leaving the site
# uncovered; U_s is each count over 3.  The compact variant 3 (p1 + p0
# (1-q)) a^3 (2-q)^2 of some derivations double-counts the shared-dot
# correlation and misses the known optimum.
THREE_HEX_UNFORCED = {
    "honeycomb": lambda p, a, q: (1.0, (p[0] + 2 * a ** 3) / 3),
    "triangular": lambda p, a, q: (
        1.0, (p[0] + 2 * a ** 3) / 3,
        a * (p[1] + p[0] * (1.0 - q)) * (1.0 - a * q) ** 2),
}

_PARAM_NAMES = ("p", "q", "r")


def stage_probabilities(lattice, probs) -> tuple[float, ...]:
    """All k stage probabilities of a k-partite lattice: the k - 1 given
    ones followed by 1/2, or k explicit ones."""
    k = build_lattice(lattice).partite_count
    probs = tuple(float(p) for p in probs)
    if len(probs) == k - 1:
        probs = probs + (0.5,)
    elif len(probs) != k:
        raise ValueError(
            f"{lattice} takes {k - 1} stage probabilities (final stage 1/2) "
            f"or {k} explicit ones, got {len(probs)}")
    for p in probs:
        _check_prob(p, "stage probability")
    return probs


def stage_unforced(lattice, probs) -> tuple[float, ...]:
    """U_s for every stage s, given the stage probabilities (k - 1 of them
    with a final B(1/2) stage, or all k)."""
    return tuple(map(float, _unforced(lattice,
                                      stage_probabilities(lattice, probs))))


def _staged_value(unforced, entropies):
    """(1/k) sum_s U_s H_s over k stages, U_s and H_s floats or columns."""
    return sum(u * h for u, h in zip(unforced, entropies)) / len(entropies)


def _coin_stages(lattice, probs):
    """U_s and H_s = h_B(p_s) of k coin stages B(p_s); p_s in [0, 1]."""
    return _unforced(lattice, probs), [entropy_bernoulli(p) for p in probs]


def _three_hex_stages(lattice, x):
    """U_s and H_s of the three-hex scheme at columns x = (p0, p1, p2, p3)
    on honeycomb or (p0, p1, p2, p3, q) on triangular: the tile stage has
    H3/3 per circle site, and then come B(q) on triangular and B(1/2)."""
    pvec, coins = x[:4], (*x[4:], 0.5)
    p = check_three_hex(pvec)
    return (THREE_HEX_UNFORCED[lattice](p, p[0] + 2 * p[1] + p[2], coins[0]),
            [entropy_three_hex(pvec) / 3, *map(entropy_bernoulli, coins)])


def _one_row(values) -> np.ndarray:
    """Floats as one-row columns, so a report rounds as a batch row does."""
    return np.array(values, dtype=float)[:, None]


def _report(lattice, scheme, params, densities, unforced, entropies):
    """The staged bound's report from one-row columns: the parameters,
    the 1-density d_s of each stage's law, U_s and H_s.  The sublattice
    densities are d_s U_s."""
    def first(v):
        return float(np.ravel(v)[0])
    return BoundReport(
        lattice, scheme, first(_staged_value(unforced, entropies)),
        {k: first(v) for k, v in params.items()},
        tuple(first(d * u) for d, u in zip(densities, unforced)))


def staged_bound(lattice, probs) -> BoundReport:
    """The sequential fill-in bound of a k-partite lattice.

    value = (1/k) sum_s U_s h_B(p_s), where stage s is filled with
    B(p_s) on its unforced sites.  With k - 1 probabilities the final
    stage is B(1/2) (scheme "closed"); an explicit final p' gives the
    scheme "equalized".  Densities are p_s U_s per sublattice.
    """
    given = tuple(probs)
    probs = stage_probabilities(lattice, given)
    cols = _one_row(probs)
    k = len(probs)
    params = dict(zip(_PARAM_NAMES, probs[:k - 1]))
    scheme = "closed"
    if len(given) == k:
        params["p_prime"] = probs[-1]
        scheme = "equalized"
    return _report(lattice, scheme, params, cols, *_coin_stages(lattice, cols))


# ------------------------------------------------------- optimizer drivers

_UNIT = optimize.Box(0.0, 1.0)
_TILES = optimize.Simplex((1.0, 3.0, 3.0, 1.0))


def _closed(lattice):
    k = build_lattice(lattice).partite_count
    return (optimize.Domain([_UNIT] * (k - 1)),
            lambda x: _staged_value(*_coin_stages(lattice, (*x.T, 0.5))),
            lambda x: staged_bound(lattice, x))


def _equalized(lattice, cap):
    """The final stage is B(p') with p' = p / U_1(p), so both sublattice
    densities equal p; p' stays a probability only for p below cap."""
    def stages(p):
        return p, p / _unforced(lattice, (p,))[1]

    return (optimize.Domain([optimize.Box(0.0, cap)]),
            lambda x: _staged_value(*_coin_stages(lattice, stages(x[:, 0]))),
            lambda x: staged_bound(lattice, [v[0] for v in stages(x[:1])]))


def _three_hex(lattice):
    """Three-tile clusters on the circle sites, then coin stages; the tile
    law puts p1 + 2 p2 + p3 ones on a circle site."""
    k = build_lattice(lattice).partite_count

    def report(x):
        cols = _one_row(x)
        p = check_three_hex(cols[:4])
        params = dict(zip(("p0", "p1", "p2", "p3", "q"), (*p, *cols[4:])))
        return _report(lattice, "three-hex", params,
                       (p[1] + 2 * p[2] + p[3], *cols[4:], 0.5),
                       *_three_hex_stages(lattice, cols))

    return (optimize.Domain([_TILES] + [_UNIT] * (k - 2)),
            lambda x: _staged_value(*_three_hex_stages(lattice, x.T)),
            report)


# scheme -> lattice -> (domain, batched value, report at one point)
SCHEMES = {
    "closed": {lattice: _closed(lattice) for lattice in LATTICES},
    "equalized": {"square": _equalized("square", 0.275),
                  "honeycomb": _equalized("honeycomb", 0.317)},
    "three-hex": {lattice: _three_hex(lattice)
                  for lattice in THREE_HEX_UNFORCED},
}


def optimize_bound(scheme, lattice, *, tol: float = TOL,
                   max_iter: int = MAX_ITER) -> BoundReport:
    """Maximize one `SCHEMES` entry; the report carries the solver meta."""
    if lattice not in SCHEMES.get(scheme, ()):
        table = "; ".join(f"{name}: {', '.join(lattices)}"
                          for name, lattices in SCHEMES.items())
        raise ValueError(f"no {scheme} bound on lattice {lattice!r}; "
                         f"supported lattices by scheme: {table}")
    domain, value, report = SCHEMES[scheme][lattice]
    res = optimize.maximize(value, domain, tol=tol, max_iter=max_iter)
    return replace(report(res.argmax), meta=res.meta())
