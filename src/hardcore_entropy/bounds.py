"""Closed-form lower bounds for hard-core topological entropy.

Every bound here comes from a sequential fill-in construction: sublattices
are filled in order with independent Bernoulli entries, a site staying 0
whenever an already-placed neighbor carries a 1, and the final sublattice's
unforced sites contribute ln 2 per site (or h_B(p') when a final Bernoulli
parameter is given).  `staged_bound` is that one formula for every lattice,
fed by the table of unforced fractions U_s in `STAGE_UNFORCED`; the
three-hex bounds fill the first stage with tile clusters instead.  All
values are nats per full-lattice site.

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

import numpy as np
from scipy.special import xlogy

from . import optimize
from .optimize import MAX_ITER, TOL
from .lattices import build_lattice

LN2 = math.log(2.0)


def _check_prob(p, name: str = "p"):
    """p, a float or an array, real or complex, once the real part of
    every entry is in [0, 1]."""
    a = np.asarray(p).real
    if not (a.min() >= 0.0 and a.max() <= 1.0):
        bad = a[~((a >= 0.0) & (a <= 1.0))].flat[0]
        raise ValueError(f"{name}={bad} outside [0, 1]")
    return p


def entropy_bernoulli(p):
    """Binary entropy -p ln p - (1-p) ln(1-p) in nats, entrywise."""
    p = _check_prob(p)
    return -xlogy(p, p) - xlogy(1.0 - p, 1.0 - p)


def check_three_hex(pvec) -> np.ndarray:
    """Validate a three-hex occupancy parameter (p0, p1, p2, p3): four
    floats, or four equal-length columns holding one parameter per point.

    p_k is the per-arrangement probability of a three-tile cluster carrying
    exactly k ones; the k=1 and k=2 levels each have 3 arrangements, so the
    normalization is p0 + 3 p1 + 3 p2 + p3 = 1.  Returns the entries as
    one array, real or complex, the real parts of slightly negative ones
    clipped to 0.  Only real parts are checked.
    """
    p = np.array(pvec, dtype=np.result_type(*pvec, 1.0))
    if len(p) != 4:
        raise ValueError(f"three-hex parameter has {len(p)} entries, not 4")
    rows = p.reshape(4, -1)
    low = rows.real.min(axis=0) < -optimize.PROB_NEG_TOL
    if low.any():
        raise ValueError(f"three-hex entries "
                         f"{rows[:, low.argmax()].real.tolist()} not >= 0")
    total = (rows[0] + 3 * rows[1] + 3 * rows[2] + rows[3]).real
    off = abs(total - 1.0) > optimize.PROB_SUM_TOL
    if off.any():
        raise ValueError(f"three-hex normalization p0+3p1+3p2+p3="
                         f"{total[off.argmax()]} != 1")
    np.maximum(p.real, 0.0, out=p.real)
    return p


def entropy_three_hex(pvec):
    """Entropy of the three-hex occupancy distribution, per cluster."""
    p0, p1, p2, p3 = check_three_hex(pvec)
    return -(xlogy(p0, p0) + 3 * xlogy(p1, p1) + 3 * xlogy(p2, p2)
             + xlogy(p3, p3))


@dataclass(frozen=True)
class BoundReport:
    """One computed lower bound.

    value: nats per full-lattice site.
    params: the parameters the bound was evaluated (or maximized) at.
    densities: per-sublattice 1-densities in fill order.
    lattice: lattice name or scheme label.
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


# U_s: the fraction of stage-s sites left unforced once the earlier stages
# are filled, as a function of all stage probabilities.  An unforced site
# needs every earlier neighbor at 0; s = 1 - (1-p) q is P(a dot site is 0
# given its circle neighbors are).  On the tripartite lattices a stage-2
# site has m neighbors in each earlier stage (triangular 3, kagome 2); the
# last exponent is m, not 2, which would overshoot the triangular optimum.

def _unforced_bipartite(m):
    return lambda probs: (1.0, (1.0 - probs[0]) ** m)


def _unforced_tripartite(m):
    def unforced(probs):
        p, q = probs[0], probs[1]
        dot = (1.0 - p) ** m
        return (1.0, dot, dot * (1.0 - (1.0 - p) * q) ** m)
    return unforced


def _unforced_square_moore(probs):
    p, q, r = probs[0], probs[1], probs[2]
    s = 1.0 - (1.0 - p) * q
    dot = (1.0 - p) ** 2
    return (1.0, dot, dot * s ** 4,
            (1.0 - p) ** 4 * (1.0 - q) ** 2 * (1.0 - s ** 2 * r) ** 2)


STAGE_UNFORCED = {
    "square": _unforced_bipartite(4),
    "honeycomb": _unforced_bipartite(3),
    "triangular": _unforced_tripartite(3),
    "kagome": _unforced_tripartite(2),
    "square_moore": _unforced_square_moore,
}

_PARAM_NAMES = ("p", "q", "r")


def stage_probabilities(lattice, probs) -> tuple[float, ...]:
    """All k stage probabilities of a k-partite lattice: the k - 1 given
    ones followed by 1/2, or k explicit ones."""
    if lattice not in STAGE_UNFORCED:
        raise ValueError(f"no closed-form scheme for lattice {lattice!r}")
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
    probs = stage_probabilities(lattice, probs)
    return STAGE_UNFORCED[lattice](probs)


def _staged_value(lattice, probs):
    """(1/k) sum_s U_s h_B(p_s) at all k stage probabilities, each a float
    or a column; every entry is checked to lie in [0, 1]."""
    unforced = STAGE_UNFORCED[lattice](probs)
    return sum(u * entropy_bernoulli(p)
               for u, p in zip(unforced, probs)) / len(probs)


def _one_row(values) -> np.ndarray:
    """Floats as one-row columns, so a report rounds as a batch row does."""
    return np.array(values, dtype=float)[:, None]


def _report(lattice, scheme, value, params, densities) -> BoundReport:
    """A BoundReport from one-row columns."""
    def first(v):
        return float(np.ravel(v)[0])
    return BoundReport(lattice, scheme, first(value),
                       {k: first(v) for k, v in params.items()},
                       tuple(first(d) for d in densities))


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
    densities = [p * u for p, u in zip(cols, STAGE_UNFORCED[lattice](cols))]
    return _report(lattice, scheme, _staged_value(lattice, cols), params,
                   densities)


def _three_hex_honeycomb(pvec):
    """Value, parameters and densities of `bound_three_hex_honeycomb` at
    four floats or columns."""
    p0, p1, p2, p3 = check_three_hex(pvec)
    a = p0 + 2 * p1 + p2
    unforced_per_cluster = p0 + 2 * a ** 3
    value = (entropy_three_hex(pvec) + unforced_per_cluster * LN2) / 6.0
    circle_density = p1 + 2 * p2 + p3
    dot_density = unforced_per_cluster / 6.0
    return (value, {"p0": p0, "p1": p1, "p2": p2, "p3": p3},
            (circle_density, dot_density))


def _three_hex_triangular(pvec, q):
    """Value, parameters and densities of `bound_three_hex_triangular` at
    floats or columns."""
    p0, p1, p2, p3 = check_three_hex(pvec)
    q = _check_prob(q, "q")
    a = p0 + 2 * p1 + p2
    dot_unforced_per_cluster = p0 + 2 * a ** 3
    tri_unforced_per_cluster = 3 * a * (p1 + p0 * (1.0 - q)) * (1.0 - a * q) ** 2
    value = (entropy_three_hex(pvec)
             + dot_unforced_per_cluster * entropy_bernoulli(q)
             + tri_unforced_per_cluster * LN2) / 9.0
    circle_density = p1 + 2 * p2 + p3
    dot_density = dot_unforced_per_cluster * q / 3.0
    tri_density = tri_unforced_per_cluster / 3.0 / 2.0
    return (value, {"p0": p0, "p1": p1, "p2": p2, "p3": p3, "q": q},
            (circle_density, dot_density, tri_density))


def bound_three_hex_honeycomb(pvec) -> BoundReport:
    """Honeycomb bound from filling one sublattice by independent
    three-tile clusters with occupancy distribution pvec, then B(1/2) on
    unforced dot sites.

    value = 1/6 { H3(pvec) + (p0 + 2 a^3) ln 2 },  a = p0 + 2 p1 + p2.
    Densities per site: circle = p1 + 2 p2 + p3, dot = (p0 + 2 a^3) / 6.
    """
    return _report("honeycomb", "three-hex",
                   *_three_hex_honeycomb(_one_row(pvec)))


def bound_three_hex_triangular(pvec, q: float) -> BoundReport:
    """Triangular bound: three-tile clusters on the circle sublattice,
    B(q) on unforced dots, B(1/2) on unforced triangle sites.

    value = 1/9 { H3(pvec) + (p0 + 2 a^3) h_B(q)
                  + 3 a (p1 + p0 (1-q)) (1 - a q)^2 ln 2 }.

    The last term counts unforced triangle sites per cluster; it is the
    product of P(the two dots adjacent only to in-cluster tiles stay 0)
    with the joint probability of the remaining two boundary dots, summed
    over the two tile arrangements that leave a triangle site uncovered.
    (The compact variant 3 (p1 + p0(1-q)) a^3 (2-q)^2 that appears in some
    derivations double-counts the shared-dot correlation; the regression
    tests show it does not reproduce the known optimum.)
    """
    *pvec, q = _one_row((*pvec, q))
    return _report("triangular", "three-hex",
                   *_three_hex_triangular(pvec, q))


# ------------------------------------------------------- optimizer drivers

# p' = p / U_1(p) stays a probability only below these caps
EQUALIZED_CAPS = {"square": 0.275, "honeycomb": 0.317}

# lattice -> (Bernoulli stages after the cluster simplex, the bound's value
# at the columns p0, p1, p2, p3[, q] of a batch, its report at one point)
THREE_HEX_SCHEMES = {
    "honeycomb": (0, lambda c: _three_hex_honeycomb(c)[0],
                  lambda x: bound_three_hex_honeycomb(x)),
    "triangular": (1, lambda c: _three_hex_triangular(c[:4], c[4])[0],
                   lambda x: bound_three_hex_triangular(x[:4], x[4])),
}

_THREE_HEX_WEIGHTS = (1.0, 3.0, 3.0, 1.0)


def optimize_closed_form(lattice, *, tol: float = TOL,
                         max_iter: int = MAX_ITER) -> BoundReport:
    """Maximize the staged closed-form bound of one lattice over its
    Bernoulli parameters."""
    arity = build_lattice(lattice).partite_count - 1
    domain = optimize.Domain([optimize.Box(0.0, 1.0)] * arity)
    res = optimize.maximize(lambda x: _staged_value(lattice, (*x.T, 0.5)),
                            domain, tol=tol, max_iter=max_iter)
    return replace(staged_bound(lattice, res.argmax), meta=res.meta())


def optimize_equalized(lattice, *, tol: float = TOL,
                       max_iter: int = MAX_ITER) -> BoundReport:
    """Maximize the density-equalized two-stage bound: the final stage is
    B(p') with p' = p / U_1(p), so both sublattice densities equal p."""
    if lattice not in EQUALIZED_CAPS:
        raise ValueError(f"equalized scheme needs a bipartite lattice, "
                         f"got {lattice!r}")

    def stages(p):
        return p, p / STAGE_UNFORCED[lattice]((p,))[1]

    domain = optimize.Domain([optimize.Box(0.0, EQUALIZED_CAPS[lattice])])
    res = optimize.maximize(lambda x: _staged_value(lattice, stages(x[:, 0])),
                            domain, tol=tol, max_iter=max_iter)
    p, p_prime = stages(res.argmax[:1])
    return replace(staged_bound(lattice, (p[0], p_prime[0])), meta=res.meta())


def optimize_three_hex(lattice, *, tol: float = TOL,
                       max_iter: int = MAX_ITER) -> BoundReport:
    """Maximize the three-tile cluster bound over the tile-count simplex
    (plus the dot-stage parameter on the triangular lattice)."""
    if lattice not in THREE_HEX_SCHEMES:
        raise ValueError(f"no three-hex scheme for lattice {lattice!r}")
    boxes, value, report = THREE_HEX_SCHEMES[lattice]
    domain = optimize.Domain([optimize.Simplex(_THREE_HEX_WEIGHTS)]
                             + [optimize.Box(0.0, 1.0)] * boxes)
    res = optimize.maximize(lambda x: value(x.T), domain, tol=tol,
                            max_iter=max_iter)
    return replace(report(res.argmax), meta=res.meta())
