"""Acceptance suite: one test per numbered criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers
(visible under -s, or in the captured output on failure), then asserts
the stated tolerance, so `pytest -v` doubles as the acceptance report.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import stage_unforced_reference
from hardcore_entropy import block_bounds, blocks, bounds, oracles
from hardcore_entropy.bounds import (
    LN2,
    entropy_bernoulli,
    entropy_three_hex,
    optimize_bound,
    stage_probabilities,
)
from hardcore_entropy.lattices import (
    LATTICES,
    build_lattice,
    verify_hard_core,
)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


# printed reference rows: optimized value and argmax sublattice densities
TABLE_CLOSED = {
    "square": (0.3924, (0.1702, 0.2370)),
    "honeycomb": (0.4279, (0.2202, 0.2371)),
    "triangular": (0.3253, (0.1457, 0.1559, 0.1517)),
    "kagome": (0.3826, (0.1944, 0.1948, 0.1866)),
    "square_moore": (0.2858, (0.119, 0.127, 0.130, 0.126)),
}

TABLE_THREE_HEX = {
    "honeycomb": (0.4304, (0.2276, 0.2376)),
    "triangular": (0.3265, (0.153, 0.155, 0.151)),
}

TABLE_BLOCK = {
    1: (0.392421, 1e-5, (0.1702, 0.2370)),
    2: (0.39877, 2e-4, (0.1993, 0.2254)),
    3: (0.4014, 5e-4, (0.2073, 0.2254)),
    4: (0.402823, 1e-5, (0.2130, 0.2246)),
}


@pytest.fixture(scope="module")
def block_optima():
    """Optimized block distributions for n = 1..4, with wall times."""
    out = {}
    for n in (1, 2, 3, 4):
        family = blocks.reduce_family(n)
        started = time.perf_counter()
        dist, rep = block_bounds.optimize_block_bound(family)
        out[n] = (dist, rep, time.perf_counter() - started)
    return out


def test_criterion_01_closed_form_table():
    started = time.perf_counter()
    problems = []
    summary = []
    for lattice, (value, densities) in TABLE_CLOSED.items():
        rep = optimize_bound("closed", lattice)
        summary.append(f"{lattice} {rep.value:.4f}")
        if abs(rep.value - value) > 5e-4:
            problems.append(f"{lattice} value {rep.value:.5f} != {value}")
        for got, want in zip(rep.densities, densities):
            if abs(got - want) > 5e-3:
                problems.append(f"{lattice} density {got:.4f} != {want}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        problems.append(f"took {elapsed:.0f}s")
    ok = report(1, not problems,
                f"{', '.join(summary)} in {elapsed:.1f}s"
                + (f"; {problems}" if problems else ""))
    assert ok


def test_criterion_02_typo_regressions():
    # variant of the tripartite closed form with the final exponent
    # fixed at 2 (only correct for the kagome lattice) instead of the
    # coordination-driven 3
    tri = optimize_bound("closed", "triangular")
    p, q = tri.params["p"], tri.params["q"]
    s = 1.0 - (1.0 - p) * q
    wrong_tail = (entropy_bernoulli(p) + (1.0 - p) ** 3
                  * (entropy_bernoulli(q) + s ** 2 * LN2)) / 3.0

    # variant of the triangular cluster bound with the compact but
    # inconsistent third term 3 (p1 + p0(1-q)) a^3 (2-q)^2
    th = optimize_bound("three-hex", "triangular")
    pvec = (th.params["p0"], th.params["p1"], th.params["p2"],
            th.params["p3"])
    qq = th.params["q"]
    a = pvec[0] + 2 * pvec[1] + pvec[2]
    third = 3 * (pvec[1] + pvec[0] * (1 - qq)) * a ** 3 * (2 - qq) ** 2
    wrong_third = (entropy_three_hex(pvec)
                   + (pvec[0] + 2 * a ** 3) * entropy_bernoulli(qq)
                   + third * LN2) / 9.0

    ok = (abs(wrong_tail - 0.344) < 1e-3
          and abs(wrong_tail - 0.3253) > 1e-2
          and abs(wrong_third - 0.505) < 3e-3
          and abs(wrong_third - 0.3265) > 1e-2)
    ok = report(2, ok,
                f"exponent-2 variant {wrong_tail:.5f} (not 0.3253), "
                f"compact-third-term variant {wrong_third:.5f} (not 0.3265)")
    assert ok


def test_criterion_03_three_hex_table():
    started = time.perf_counter()
    problems = []
    summary = []
    for lattice, (value, densities) in TABLE_THREE_HEX.items():
        rep = optimize_bound("three-hex", lattice)
        summary.append(f"{lattice} {rep.value:.4f}")
        if abs(rep.value - value) > 1e-3:
            problems.append(f"{lattice} value {rep.value:.5f} != {value}")
        for got, want in zip(rep.densities, densities):
            if abs(got - want) > 5e-3:
                problems.append(f"{lattice} density {got:.4f} != {want}")
    elapsed = time.perf_counter() - started
    if elapsed >= 300:
        problems.append(f"took {elapsed:.0f}s")
    ok = report(3, not problems,
                f"{', '.join(summary)} in {elapsed:.1f}s"
                + (f"; {problems}" if problems else ""))
    assert ok


def test_criterion_04_block_table(block_optima):
    problems = []
    summary = []
    for n, (value, tol, densities) in TABLE_BLOCK.items():
        _, rep, elapsed = block_optima[n]
        summary.append(f"n={n} {rep.value:.6f} ({elapsed:.1f}s)")
        if abs(rep.value - value) > tol:
            problems.append(f"n={n} value {rep.value:.6f} != {value}±{tol}")
        for got, want in zip(rep.densities, densities):
            if abs(got - want) > 5e-3:
                problems.append(f"n={n} density {got:.4f} != {want}")
    if block_optima[3][2] >= 1800:
        problems.append("n=3 optimization exceeded 30 minutes")
    ok = report(4, not problems,
                ", ".join(summary) + (f"; {problems}" if problems else ""))
    assert ok


def test_criterion_05_reduction_counts():
    started = time.perf_counter()
    free = {}
    for n in (2, 3, 4):
        free[(n, "d4")] = blocks.reduce_family(n, use_weak=False).free_variables
        free[(n, "weak")] = blocks.reduce_family(n, use_weak=True).free_variables
    elapsed = time.perf_counter() - started
    n2_classes = free[(2, "weak")] + 1
    ok = (n2_classes == 6 and free[(2, "weak")] == 5
          and free[(3, "d4")] == 101 and free[(3, "weak")] == 46
          and free[(4, "weak")] == 991 and elapsed < 60)
    ok = report(5, ok,
                f"n=2: {n2_classes} classes/{free[(2, 'weak')]} free, "
                f"n=3: {free[(3, 'd4')]} free d4/{free[(3, 'weak')]} free "
                f"weak, n=4: {free[(4, 'weak')]} free, in {elapsed:.1f}s")
    assert ok


def test_criterion_06_blocking_constants():
    c_lo = oracles.blocking_constant_lower()
    rho_hi = oracles.density_upper_from_blocking()
    c_max, rho_min = oracles.blocking_constant_upper(0.4075)
    ok = (c_lo == Fraction(15, 8)
          and rho_hi == Fraction(8, 31)
          and abs(c_max - 2.6801) <= 1e-3
          and abs(rho_min - 0.21367) <= 1e-4)
    ok = report(6, ok,
                f"c_lower = {c_lo} exact, c_max = {c_max:.4f}, "
                f"interval ({rho_min:.5f}, {rho_hi}) with 8/31 exact")
    assert ok


def test_criterion_07_equalized_optima():
    sq = optimize_bound("equalized", "square")
    hc = optimize_bound("equalized", "honeycomb")
    ok = (abs(sq.value - 0.3921) <= 5e-4
          and abs(sq.densities[0] - 0.2015) <= 5e-3
          and abs(hc.value - 0.427875) <= 5e-4
          and abs(hc.densities[0] - 0.2284) <= 5e-3)
    ok = report(7, ok,
                f"square {sq.value:.4f} at {sq.densities[0]:.4f}, "
                f"honeycomb {hc.value:.6f} at {hc.densities[0]:.4f}")
    assert ok


def test_criterion_08_oracle_checks():
    golden = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    e1 = oracles.strip_entropy("square", 1)
    one_d_ok = abs(e1 - golden) <= 1e-12

    # ln lambda_w is subadditive in w (a hard-core strip restricts to two
    # valid sub-strips), so by Fekete the free per-site value ln(lambda_w)/w
    # is an upper bound on the plane entropy h at every width, with a
    # surface excess w*(ln(lambda_w)/w - h) of 0.0671; a 0.003 window on
    # that raw value needs w >= 23, beyond the 2^14 transfer cap.  The
    # width-12 free matrix promises two things instead: the ratio
    # ln(lambda_12/lambda_11), where the surface term cancels, sits on the
    # plane value, and the free strip lies above it.
    s11 = oracles.strip_entropy("square", 11, boundary="free")
    s12 = oracles.strip_entropy("square", 12, boundary="free")
    inc = 12 * s12 - 11 * s11
    strip_ok = abs(inc - 0.4075) <= 0.003 and s12 >= inc

    rng = np.random.default_rng(2026)
    worst = 0.0
    for lattice in LATTICES:
        arity = build_lattice(lattice).partite_count - 1
        for _ in range(5):
            params = tuple(rng.uniform(0.05, 0.45, size=max(arity, 1)))
            analytic = bounds.stage_unforced(lattice, params)
            hand = stage_unforced_reference.STAGE_UNFORCED[lattice](
                stage_probabilities(lattice, params))
            for stage in range(1, len(analytic)):
                got = oracles.window_probability_exhaustive(lattice, params,
                                                            stage)
                worst = max(worst, abs(got - analytic[stage]),
                            abs(got - hand[stage]))
    windows_ok = worst <= 1e-12

    detail = (f"strip(1) |diff| = {abs(e1 - golden):.1e}; "
              f"strip(12, free) = {s12:.6f}, ln(l12/l11) = {inc:.6f}, "
              f"gap to 0.4075 = {abs(inc - 0.4075):.1e} vs allowed 0.003, "
              f"excess 12*(s12 - inc) = {12 * (s12 - inc):.4f} "
              f"(upper bound needs >= 0); "
              f"windows max |diff| = {worst:.1e}")
    if not strip_ok:
        detail += (" [ln(lambda_w) is subadditive, so the free strip must "
                   "lie on or above the plane value; the ratio cancels the "
                   "0.0671/width surface excess and should land on 0.4075]")
    ok = report(8, one_d_ok and strip_ok and windows_ok, detail)
    assert ok


SAMPLER_RUNS = {
    "square": ((0.1702,), (512, 512)),
    "honeycomb": ((0.2202,), (360, 360)),
    "triangular": ((0.1457, 0.2501), (504, 504)),
    "kagome": ((0.1944, 0.3002), (296, 296)),
    "square_moore": ((0.1189, 0.1623, 0.2628), (512, 512)),
}


def test_criterion_09_sampler_consistency():
    started = time.perf_counter()
    runs = 0
    within = 0
    all_valid = True
    for lattice, (params, dims) in SAMPLER_RUNS.items():
        for seed in range(4):
            config, rows = oracles.fill_in_sample(lattice, params, dims, seed)
            all_valid &= verify_hard_core(config)
            z_ok = True
            for row in rows:
                if row["metric"] == "density" and row["stderr"] > 0:
                    z = abs(row["empirical"] - row["analytic"]) \
                        / row["stderr"]
                    z_ok &= z <= 3.0
            runs += 1
            within += z_ok
    elapsed = time.perf_counter() - started
    ok = all_valid and within >= 19 and runs == 20 and elapsed < 120
    ok = report(9, ok,
                f"{within}/{runs} runs within 3 stderr, hard-core valid "
                f"{'always' if all_valid else 'VIOLATED'}, in {elapsed:.1f}s")
    assert ok


def test_criterion_10_monotonicity_at_optima(block_optima):
    counts = {}
    spread = 0.0
    for n in (2, 3, 4):
        dist, _, _ = block_optima[n]
        family = dist.family
        violations = block_bounds.check_monotonicity(dist)
        counts[n] = (len(blocks.cover_pairs(family)[0]), len(violations))
        # weak-equal blocks share one class variable, so their mask
        # probabilities are identical by construction
        mask_probs = dist.mask_probabilities()
        lo = np.full(family.class_count, np.inf)
        hi = np.full(family.class_count, -np.inf)
        np.minimum.at(lo, family.class_of, mask_probs)
        np.maximum.at(hi, family.class_of, mask_probs)
        spread = max(spread, float((hi - lo).max()))
    ok = all(bad == 0 for _, bad in counts.values()) and spread == 0.0
    ok = report(10, ok,
                ", ".join(f"n={n}: {bad} violations/{total} cover pairs"
                          for n, (total, bad) in counts.items())
                + f", within-class spread {spread}")
    assert ok


def test_criterion_11_profile_shape(block_optima):
    gen1, _ = block_bounds.equalized_unit_generator()
    gen2 = block_optima[2][0]
    gen3 = block_optima[3][0]
    profiles = {g: block_bounds.density_profile(3, gen)
                for g, gen in ((1, gen1), (2, gen2), (3, gen3))}

    density = {g: prof.mean() / 9 for g, prof in profiles.items()}
    flat = max(density.values()) - min(density.values())
    means_ok = flat <= 0.01

    var = {g: prof.variance() for g, prof in profiles.items()}
    order_ok = var[3] > var[2] > var[1]

    diff = (np.asarray(profiles[3].occupancy_probs)
            - np.asarray(profiles[1].occupancy_probs))
    crossing = None
    for k in range(len(diff) - 1):
        if diff[k] < 0.0 <= diff[k + 1]:
            crossing = k
    crossing_ok = crossing in (3, 4)

    ok = report(11, means_ok and order_ok and crossing_ok,
                f"density spread {flat:.4f} (≤0.01), variances "
                f"{var[1]:.3f} < {var[2]:.3f} < {var[3]:.3f}, "
                f"3x3/1x1 crossing between k={crossing} and k={crossing + 1}"
                if crossing is not None else "no crossing found")
    assert ok
