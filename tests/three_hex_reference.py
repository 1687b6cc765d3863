"""References for the three-hex bounds of `bounds`, written per cluster in
scalar floats: over the 6 sites of a honeycomb cluster cell (three circle
sites, three dots) and the 9 of a triangular one (three circle sites,
three dots, three triangle sites).  Each cluster of three circle tiles has
probability p_k per arrangement with k ones, and a = p0 + 2 p1 + p2 is the
chance a given tile is 0.  Entries below 0 by at most
`optimize.PROB_NEG_TOL` are read as 0, as `bounds.check_three_hex` does."""
import math

LN2 = math.log(2.0)


def _xlogx(v: float) -> float:
    return v * math.log(v) if v > 0 else 0.0


def _entries(pvec) -> list[float]:
    return [max(float(v), 0.0) for v in pvec]


def cluster_entropy(p) -> float:
    """H3, the entropy of one cluster's law, in nats."""
    p0, p1, p2, p3 = p
    return -(_xlogx(p0) + 3 * _xlogx(p1) + 3 * _xlogx(p2) + _xlogx(p3))


def honeycomb(pvec) -> tuple[float, tuple[float, ...]]:
    """(value, densities) of the honeycomb bound: clusters, then B(1/2) on
    the unforced dots, p0 + 2 a^3 of them per cluster.

    value = { H3 + (p0 + 2 a^3) ln 2 } / 6; densities circle
    p1 + 2 p2 + p3 and dot (p0 + 2 a^3) / 6.
    """
    p0, p1, p2, p3 = p = _entries(pvec)
    a = p0 + 2 * p1 + p2
    dots = p0 + 2 * a ** 3
    return ((cluster_entropy(p) + dots * LN2) / 6.0,
            (p1 + 2 * p2 + p3, dots / 6.0))


def triangular(pvec, q: float) -> tuple[float, tuple[float, ...]]:
    """(value, densities) of the triangular bound: clusters, B(q) on the
    unforced dots, then B(1/2) on the unforced triangle sites, of which a
    cluster leaves 3 a (p1 + p0 (1-q)) (1 - a q)^2.

    value = { H3 + (p0 + 2 a^3) h_B(q)
              + 3 a (p1 + p0 (1-q)) (1 - a q)^2 ln 2 } / 9;
    densities circle p1 + 2 p2 + p3, dot (p0 + 2 a^3) q / 3 and
    triangle 3 a (p1 + p0 (1-q)) (1 - a q)^2 / 6.
    """
    p0, p1, p2, p3 = p = _entries(pvec)
    a = p0 + 2 * p1 + p2
    dots = p0 + 2 * a ** 3
    triangles = 3 * a * (p1 + p0 * (1.0 - q)) * (1.0 - a * q) ** 2
    h_q = -_xlogx(q) - _xlogx(1.0 - q)
    return ((cluster_entropy(p) + dots * h_q + triangles * LN2) / 9.0,
            (p1 + 2 * p2 + p3, dots * q / 3.0, triangles / 6.0))
