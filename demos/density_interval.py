#!/usr/bin/env python3
"""Bracket the even-sublattice density of the maximal-entropy measure.

A single 1 on the odd sublattice of Z^2 blocks a deterministic share of
its eight surrounding even sites; counting those shares exactly gives a
lower bound 15/8 for the blocking constant c, hence the density upper
bound 1/(2 + 15/8) = 8/31.  Feeding a reference entropy value into the
entropy-vs-density tradeoff pins c from above and closes the interval.
"""
from fractions import Fraction

from hardcore_entropy import oracles

if __name__ == "__main__":
    c_lower = oracles.blocking_constant_lower()
    assert c_lower == Fraction(15, 8)
    print(f"blocking constant lower bound: {c_lower} = {float(c_lower):.4f}")
    print(f"  per-odd-site share: {oracles.blocking_share_per_odd_site()}")

    rho_upper = oracles.density_upper_from_blocking()
    assert rho_upper == Fraction(8, 31)
    print(f"even-density upper bound: {rho_upper} = {float(rho_upper):.5f}")

    # the reference entropy below is the accepted square-lattice value
    # to four decimals; a sharper reference would tighten the interval
    h_ref = oracles.PLANE_ENTROPY
    c_max, rho_min = oracles.blocking_constant_upper(h_ref)
    # c_max above c_lower, and the interval nonempty
    assert c_max > c_lower and rho_min < rho_upper
    print(f"with reference entropy {h_ref}: c_max = {c_max:.4f}")
    print(f"even-density interval: ({rho_min:.5f}, {float(rho_upper):.5f})")

    mid = 0.5 * (rho_min + float(rho_upper))
    print(f"midpoint {mid:.4f} vs accepted density estimate 0.2266")
