"""Block bound assembly, optimization and profiles."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardcore_entropy import blocks, optimize
from hardcore_entropy.block_bounds import (
    BlockDistribution,
    DensityProfile,
    _evaluate,
    block_bound,
    bound_value,
    check_monotonicity,
    density_profile,
    optimize_block_bound,
    value_and_gradient,
)
from hardcore_entropy.bounds import LN2, staged_bound

from block_reference import evaluate_by_site, unforced_density

FAMILIES = {n: blocks.reduce_family(n) for n in (1, 2, 3)}
# the values the multistart L-BFGS solve reached before the fixed point
LBFGS_VALUES = {3: 0.4014019648354621, 4: 0.4028234215701477}


def central_difference(f, x, h):
    """(f(x + h e_i) - f(x - h e_i)) / 2h for every coordinate i."""
    e = h * np.eye(len(x))
    return np.array([(f(x + ei) - f(x - ei)) / (2 * h) for ei in e])


def random_distribution(n, seed):
    fam = FAMILIES[n]
    rng = np.random.default_rng(seed)
    raw = rng.random(fam.class_count)
    return BlockDistribution(fam, raw / (fam.multiplicities @ raw))


def entropy_and_unforced(dist):
    """Block entropy H and unforced odd density u read off the report,
    whose value is (H + u ln 2) / 2 and whose odd density is u / 2."""
    rep = block_bound(dist)
    u = 2 * rep.densities[1]
    return 2 * rep.value - u * LN2, u


def point_mass(n, mask):
    fam = FAMILIES[n]
    probs = np.zeros(fam.class_count)
    cid = fam.class_of[mask]
    probs[cid] = 1.0 / fam.multiplicities[cid]
    return BlockDistribution(fam, probs)


@pytest.fixture(scope="module")
def optima():
    out = {}
    for n in (1, 2, 3):
        out[n] = optimize_block_bound(FAMILIES[n])
    out[4] = optimize_block_bound(blocks.reduce_family(4))
    return out


class TestDistribution:
    def test_rejects_bad_normalization(self):
        fam = FAMILIES[2]
        with pytest.raises(ValueError, match="sum"):
            BlockDistribution(fam, np.full(6, 0.2))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="sum"):
            BlockDistribution(FAMILIES[2], [np.nan, 0, 0, 0, 0, 0])

    def test_rejects_negative(self):
        fam = FAMILIES[1]
        with pytest.raises(ValueError, match="negative"):
            BlockDistribution(fam, np.array([1.5, -0.5]))

    def test_probs_immutable(self):
        dist = random_distribution(2, 0)
        with pytest.raises(ValueError):
            dist.probs[0] = 0.5

    def test_weak_class_members_share_probability(self):
        # the quotient construction makes the equal-probability property
        # structural: every member of a class reads the same entry
        fam = FAMILIES[3]
        dist = random_distribution(3, 1)
        m = (1 << 1) | (1 << 3) | (1 << 5) | (1 << 7)  # four edge midpoints
        mp = dist.mask_probabilities()
        assert fam.class_of[m] == fam.class_of[m | (1 << 4)]
        assert mp[m] == mp[m | (1 << 4)]


def _full_mask_mass(n, mass):
    """All of `mass` on the class of the block of n^2 ones."""
    fam = FAMILIES[n]
    probs = np.zeros(fam.class_count)
    probs[fam.class_of[(1 << n * n) - 1]] = mass
    return fam, probs


@pytest.mark.parametrize("fam, probs", [
    (FAMILIES[1], [0.0, 1.0 + 5e-11]),
    (FAMILIES[1], [-1e-12, 1.0 + 1e-12]),
    _full_mask_mass(2, 1.0 + 5e-11),
])
def test_block_report_at_accepted_points(fam, probs):
    """A point `BlockDistribution` accepts, its weighted sum off 1 by up to
    PROB_SUM_TOL or an entry a hair below 0, gives a report within
    `BoundReport`'s 1e-12 gates: unscaled, the first and third read a
    bound value of -2.5e-11 and -6.25e-12, and the second one of -5e-13."""
    dist = BlockDistribution(fam, probs)
    rep = block_bound(dist)
    assert rep.value >= 0.0
    assert max(rep.densities) <= 1.0
    assert fam.multiplicities @ dist.probs == pytest.approx(1.0, abs=1e-15)


@st.composite
def _near_simplex(draw, weights):
    """A point of the weights' simplex moved as far as `on_simplex`
    allows: its zero entries pushed below 0 by less than PROB_NEG_TOL and
    the whole scaled by 1 +- less than PROB_SUM_TOL."""
    k = len(weights)
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k,
                                 max_size=k)))
    raw[draw(st.integers(0, k - 1))] += draw(st.floats(1e-3, 1.0))
    point = raw / (weights @ raw)
    push = np.array(draw(st.lists(
        st.floats(0.0, 0.99 * optimize.PROB_NEG_TOL), min_size=k,
        max_size=k)))
    point[point == 0] -= push[point == 0]
    tol = 0.99 * optimize.PROB_SUM_TOL
    return point * (1.0 + draw(st.floats(-tol, tol)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_accepted_block_points_give_reports(data):
    n = data.draw(st.integers(1, 3))
    fam = FAMILIES[n]
    dist = BlockDistribution(fam, data.draw(_near_simplex(
        fam.multiplicities.astype(float))))
    rep = block_bound(dist)
    assert rep.value >= -1e-12
    assert all(-1e-12 <= d <= 1 + 1e-12 for d in rep.densities)
    assert fam.multiplicities @ dist.probs == pytest.approx(1.0, abs=1e-14)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_accepted_profiles_have_mean_in_range(data):
    n = data.draw(st.integers(1, 3))
    prof = DensityProfile(n, data.draw(_near_simplex(np.ones(n * n + 1))))
    assert 0.0 <= prof.mean() <= n * n
    assert prof.occupancy_probs.sum() == pytest.approx(1.0, abs=1e-14)


class TestEntropyTerm:
    def test_n2_symbolic(self):
        dist = random_distribution(2, 2)
        p0, p1, p2a, p2d, p3, p4 = dist.probs
        want = -(p0 * math.log(p0) + 4 * p1 * math.log(p1)
                 + 4 * p2a * math.log(p2a) + 2 * p2d * math.log(p2d)
                 + 4 * p3 * math.log(p3) + p4 * math.log(p4)) / 4
        assert entropy_and_unforced(dist)[0] == pytest.approx(want, abs=1e-14)

    def test_point_mass_zero(self):
        assert entropy_and_unforced(point_mass(2, 0))[0] == 0.0

    def test_n1_is_binary_entropy(self):
        fam = FAMILIES[1]
        for p in (0.1, 0.25, 0.5):
            dist = BlockDistribution(fam, np.array([1 - p, p]))
            want = -(p * math.log(p) + (1 - p) * math.log(1 - p))
            assert entropy_and_unforced(dist)[0] == pytest.approx(want,
                                                                  abs=1e-14)


class TestUnforcedDensity:
    def test_n2_symbolic(self):
        dist = random_distribution(2, 3)
        p0, p1, p2a, p2d, p3, p4 = dist.probs
        domino = p0 + 2 * p1 + p2a
        corner = p0 + 3 * p1 + 2 * p2a + p2d + p3
        want = (p0 + 2 * domino ** 2 + corner ** 4) / 4
        assert entropy_and_unforced(dist)[1] == pytest.approx(want, abs=1e-14)

    def test_point_mass_extremes(self):
        assert entropy_and_unforced(point_mass(2, 0))[1] == pytest.approx(1.0)
        assert entropy_and_unforced(point_mass(2, 0b1111))[1] == \
            pytest.approx(0.0)
        assert block_bound(point_mass(3, 0)).value == pytest.approx(LN2 / 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("use_weak", [True, False])
    def test_against_tiling_reference(self, n, use_weak):
        # each odd site's neighbours grouped by the block they fall in, with
        # no pairing of D4-image marginals
        fam = blocks.reduce_family(n, use_weak)
        raw = np.random.default_rng(10 + n).random(fam.class_count)
        probs = raw / (fam.multiplicities @ raw)
        want = unforced_density(n, probs[fam.class_of])
        assert abs(_evaluate(fam, probs)[2] - want) <= 1e-15

    def test_n3_against_tiling_monte_carlo(self):
        # independent oracle: tile a torus with independent blocks and count
        # odd sites having no occupied even neighbor
        dist = random_distribution(3, 4)
        u = entropy_and_unforced(dist)[1]
        rng = np.random.default_rng(99)
        B, n = 256, 3
        draws = rng.choice(512, size=(B, B), p=dist.mask_probabilities())
        grid = np.zeros((n * B, n * B), dtype=np.int8)
        for y in range(n):
            for x in range(n):
                grid[y::n, x::n] = (draws >> (y * n + x)) & 1
        covered = grid.astype(np.int32)
        covered = covered + np.roll(covered, -1, axis=1)
        covered = covered + np.roll(covered, -1, axis=0)
        u_hat = float((covered == 0).mean())
        assert u_hat == pytest.approx(u, abs=0.005)


class TestBoundAndGradient:
    def test_n1_equals_bipartite_closed_form(self):
        fam = FAMILIES[1]
        for p in np.linspace(0.0, 1.0, 11):
            dist = BlockDistribution(fam, np.array([1 - p, p]))
            want = staged_bound("square", (float(p),))
            assert block_bound(dist).value == pytest.approx(want.value,
                                                            abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        # probe away from the simplex boundary, where p ln p is too curved
        # for central differences at h=1e-6
        for n, seed in ((2, 5), (3, 6)):
            fam = FAMILIES[n]
            rng = np.random.default_rng(seed)
            raw = 0.2 + rng.random(fam.class_count)
            x = raw / (fam.multiplicities @ raw)
            fd = central_difference(
                lambda p, f=fam: value_and_gradient(f, p)[0], x, 1e-6)
            g = value_and_gradient(fam, x)[1]
            assert (np.abs(g - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-6

    @pytest.mark.parametrize("n,use_weak,coords", [
        (1, True, None), (4, True, None), (4, False, 300)])
    def test_gradient_matches_relative_step(self, n, use_weak, coords):
        # at n=4 p is about 1.5e-5, where p ln p is too curved for a fixed
        # h=1e-6; step each coordinate by 1e-4 of itself instead
        fam = blocks.reduce_family(n, use_weak)
        rng = np.random.default_rng(11 + n)
        raw = 0.2 + rng.random(fam.class_count)
        x = raw / (fam.multiplicities @ raw)
        idx = np.arange(fam.class_count) if coords is None else \
            np.sort(rng.choice(fam.class_count, coords, replace=False))
        g = value_and_gradient(fam, x)[1][idx]
        fd = np.empty(len(idx))
        for j, i in enumerate(idx):
            step = np.zeros_like(x)
            step[i] = 1e-4 * x[i]
            fd[j] = (value_and_gradient(fam, x + step)[0]
                     - value_and_gradient(fam, x - step)[0]) / (2 * step[i])
        assert (np.abs(g - fd) / np.maximum(1.0, np.abs(fd))).max() < 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("use_weak", [True, False])
    def test_orbit_rows_match_per_site_rows(self, n, use_weak):
        # one row per D4 orbit of odd sites against one row per site, at
        # interior points and at points with zero or point-mass entries
        fam = blocks.reduce_family(n, use_weak)
        rng = np.random.default_rng(20 + n)
        points = [rng.dirichlet(np.full(fam.class_count, c))
                  for c in (0.05, 1.0, 20.0)]
        sparse = rng.random(fam.class_count)
        sparse[rng.random(fam.class_count) < 0.7] = 0.0
        empty = np.zeros(fam.class_count)  # point mass on the empty block
        sparse[fam.class_of[0]] = empty[fam.class_of[0]] = 1.0
        points += [sparse, empty]
        for raw in points:
            p = raw / (fam.multiplicities @ raw)
            value, gradient, u = _evaluate(fam, p)
            ref_value, ref_gradient, ref_u = evaluate_by_site(fam, p)
            assert abs(value - ref_value) <= 1e-15
            assert abs(u - ref_u) <= 1e-15
            assert np.abs(gradient - ref_gradient).max() <= \
                1e-14 * np.abs(ref_gradient).max()

    def test_value_consistent_with_assembly(self):
        dist = random_distribution(3, 7)
        v, _ = value_and_gradient(dist.family, dist.probs)
        assert v == block_bound(dist).value == bound_value(dist)

    def test_report_shape(self):
        rep = block_bound(random_distribution(2, 8))
        assert rep.lattice == "square" and rep.scheme == "block"
        assert rep.n == 2
        d = rep.as_dict()
        assert d["n"] == 2
        assert len(d["params"]["class_probabilities"]) == 6


def _f8_digest(arrays):
    """SHA-256 of the little-endian float64 bytes of the arrays in turn."""
    return hashlib.sha256(b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays
    )).hexdigest()


# per weak family n: value_and_gradient at three Dirichlet points of seed
# 40 + n (values as float.hex, one digest of the three gradients), then
# the fixed point's value, iterations and probabilities
EVALUATION_PINS = [
    (1, ("0x1.8aeea2c3c9f96p-2", "0x1.68c6a0fa92fd2p-2",
         "0x1.57d6637018ebbp-4"),
     "f34693dc1bc64bff11798192c29c567fec3a06cbb80c8d453ba31794fbcffc69",
     "0x1.91d6d83a67596p-2", 83,
     "6965def8c9eca9923294b78bb1b824f9e77cc895fc30f8048fdcf0d0e9da4033"),
    (2, ("0x1.6ded04fd031c7p-2", "0x1.5440f546079d9p-2",
         "0x1.7715aa1a5b0c7p-2"),
     "c2e6e966ccbc6c349fac81b59f7d10dd0c5e3ed925d62ddca2b448b470ba14b2",
     "0x1.98571cee93568p-2", 41,
     "802e8f7ccd107d724d293b7916c5d651499f809b79539cfd0aa60087d8c4350e"),
    (3, ("0x1.64dd2df24feb0p-2", "0x1.6b6a88ecaf7e9p-2",
         "0x1.6cce1a47be6a3p-2"),
     "7cd4e484efcd82ad45fe7fc3f67c2afb2a3837dc5011b15f37a7181032ca82ba",
     "0x1.9b091dde12e68p-2", 29,
     "e3a1df52df17662fe198b077c904dfe90124fb020d8b864e05fe3a61c303698f"),
    (4, ("0x1.7802552a93a3ep-2", "0x1.770f6b2b81012p-2",
         "0x1.77e911e593632p-2"),
     "4cee1eee519bedbd41236771aa5b91659139e3b9fa230513e2737696bcc603d1",
     "0x1.9c7dbe36d59f0p-2", 23,
     "601bdb4d7da645fc6b8f91f1fcef7509e9638250f20eed73d54455cf1abbd0e5"),
]


@pytest.mark.parametrize("n,values,gradients,value,iterations,probs",
                         EVALUATION_PINS,
                         ids=[f"n{pin[0]}" for pin in EVALUATION_PINS])
def test_evaluation_bits_pinned(optima, n, values, gradients, value,
                                iterations, probs):
    # an arithmetic reordering that no tolerance sees moves these bits
    dist, rep = optima[n]
    fam = dist.family
    for f in (fam, blocks.reduce_family(n, use_weak=False)):
        assert (f.class_of.dtype, f.representatives.dtype,
                f.multiplicities.dtype) == (np.int32, np.int64, np.int64)
    rng = np.random.default_rng(40 + n)
    got = [value_and_gradient(fam, raw / fam.multiplicities)
           for raw in rng.dirichlet(np.ones(fam.class_count), size=3)]
    assert tuple(v.hex() for v, _ in got) == values
    assert _f8_digest(g for _, g in got) == gradients
    assert (rep.value.hex(), rep.meta["iterations"]) == (value, iterations)
    assert _f8_digest([dist.probs]) == probs


class TestOptima:
    def test_n1(self, optima):
        _, rep = optima[1]
        assert rep.value == pytest.approx(0.392421, abs=1e-5)
        assert rep.densities[0] == pytest.approx(0.1702, abs=5e-3)
        assert rep.densities[1] == pytest.approx(0.2370, abs=5e-3)

    def test_n2(self, optima):
        _, rep = optima[2]
        assert rep.value == pytest.approx(0.39877, abs=2e-4)
        assert rep.densities[0] == pytest.approx(0.1993, abs=5e-3)
        assert rep.densities[1] == pytest.approx(0.2254, abs=5e-3)

    def test_n3(self, optima):
        _, rep = optima[3]
        assert rep.value == pytest.approx(0.4014, abs=5e-4)
        assert rep.densities[0] == pytest.approx(0.2073, abs=5e-3)
        assert rep.densities[1] == pytest.approx(0.2254, abs=5e-3)
        assert rep.meta["converged"]

    def test_refinement_monotonicity(self, optima):
        v1, v2, v3 = (optima[n][1].value for n in (1, 2, 3))
        assert v1 < v2 < v3


class TestFixedPoint:
    def test_converged_within_tol(self, optima):
        for n in (1, 2, 3, 4):
            meta = optima[n][1].meta
            assert meta["converged"] is True
            assert meta["stationarity"] <= optimize.TOL

    def test_iteration_budget(self, optima):
        # a work counter, not a wall time, guards the speed of the solve:
        # from the uniform start the map needs 23 to 83 steps at n = 1..4
        for n in (1, 2, 3, 4):
            assert optima[n][1].meta["iterations"] <= 200

    def test_not_below_lbfgs(self, optima):
        for n, value in LBFGS_VALUES.items():
            assert optima[n][1].value >= value - 1e-15

    def test_local_maximum(self, optima):
        # 200 feasible perturbations of relative size 1e-4 on the weighted
        # simplex; none may raise the bound
        rng = np.random.default_rng(2024)
        for n in (2, 3, 4):
            dist, rep = optima[n]
            w = dist.family.multiplicities
            for _ in range(200):
                d = rng.standard_normal(len(w))
                q = dist.probs * (1.0 + 1e-4 * d / np.abs(d).max())
                q /= w @ q
                assert bound_value(BlockDistribution(dist.family, q)) \
                    < rep.value

    def test_max_iter_caps_the_map(self):
        _, rep = optimize_block_bound(FAMILIES[3], max_iter=3)
        assert rep.meta["iterations"] == 3
        assert rep.meta["converged"] is False
        assert rep.meta["stationarity"] > optimize.TOL


class TestMonotonicity:
    def test_no_violations_at_optima(self, optima):
        for n in (2, 3):
            dist, _ = optima[n]
            assert check_monotonicity(dist) == []

    def test_pair_census(self):
        # cover pairs: masks differing by one added 1
        assert len(blocks.cover_pairs(FAMILIES[2])[0]) == 6
        assert len(blocks.cover_pairs(FAMILIES[3])[0]) == 163

    def test_adversarial_violation_detected(self):
        fam = FAMILIES[2]
        probs = np.zeros(6)
        probs[fam.class_of[0]] = 0.1
        probs[fam.class_of[0b1111]] = 0.9
        viol = check_monotonicity(BlockDistribution(fam, probs))
        assert any(cs == fam.class_of[0b0111] and cb == fam.class_of[0b1111]
                   for cs, cb, _, _ in viol)

    def test_uniform_is_clean(self):
        fam = FAMILIES[3]
        uniform = BlockDistribution(fam, np.full(fam.class_count, 2.0 ** -9))
        viol = check_monotonicity(uniform)
        assert viol == []


class TestDensityProfile:
    def test_same_n_aggregation(self, optima):
        dist, rep = optima[3]
        prof = density_profile(3, dist)
        assert prof.occupancy_probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert prof.mean() / 9 == pytest.approx(rep.densities[0], abs=1e-12)

    def test_one_by_one_generator_is_binomial(self, optima):
        from scipy.stats import binom
        dist, _ = optima[1]
        p = float(dist.probs[FAMILIES[1].class_of[1]])
        prof = density_profile(3, dist)
        np.testing.assert_allclose(prof.occupancy_probs, binom.pmf(range(10), 9, p),
                                   atol=1e-13)
        assert prof.occupancy_probs[0] == pytest.approx((1 - p) ** 9, abs=1e-13)

    def test_cross_size_mean_identity(self, optima):
        # window mean per site equals the generator's even density no matter
        # how the window cuts the tiling
        for m in (1, 2):
            dist, rep = optima[m]
            prof = density_profile(3, dist)
            assert prof.mean() / 9 == pytest.approx(rep.densities[0],
                                                    abs=1e-12)

    def test_variance_ordering(self, optima):
        profs = [density_profile(3, optima[m][0]) for m in (1, 2, 3)]
        v1, v2, v3 = (p.variance() for p in profs)
        assert v1 < v2 < v3

    def test_cross_size_against_sliding_window_monte_carlo(self, optima):
        dist, _ = optima[2]
        want = density_profile(3, dist).occupancy_probs
        rng = np.random.default_rng(12345)
        B, m = 192, 2
        draws = rng.choice(16, size=(B, B), p=dist.mask_probabilities())
        grid = np.zeros((m * B, m * B), dtype=np.int32)
        for y in range(m):
            for x in range(m):
                grid[y::m, x::m] = (draws >> (y * m + x)) & 1
        pops = sum(np.roll(np.roll(grid, -dx, axis=1), -dy, axis=0)
                   for dx in range(3) for dy in range(3))
        got = np.bincount(pops.ravel(), minlength=10) / pops.size
        np.testing.assert_allclose(got, want, atol=0.01)

    def test_cross_size_against_exact_enumeration(self):
        # every joint mask of the four 2x2 blocks a 3x3 window can meet,
        # laid out on a 4x4 grid of even sites and weighted by the product
        # of the mask probabilities, at each of the 4 window offsets
        dist = random_distribution(2, 5)
        joint = np.indices((16,) * 4).reshape(4, -1)  # block (bx, by): 2by+bx
        weight = np.prod(dist.mask_probabilities()[joint], axis=0)
        site = {(x, y): (joint[2 * (y // 2) + x // 2] >> 2 * (y % 2) + x % 2)
                & 1 for x in range(4) for y in range(4)}
        want = np.zeros(10)
        for ox in (0, 1):
            for oy in (0, 1):
                pops = sum(site[ox + dx, oy + dy]
                           for dx in range(3) for dy in range(3))
                want += np.bincount(pops, weights=weight, minlength=10)
        np.testing.assert_allclose(density_profile(3, dist).occupancy_probs,
                                   want / 4, rtol=0, atol=1e-13)

    def test_rejects_generator_larger_than_window(self, optima):
        with pytest.raises(ValueError, match="exceeds"):
            density_profile(2, optima[3][0])

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="entries"):
            DensityProfile(2, np.ones(3) / 3)
        with pytest.raises(ValueError, match="not a distribution"):
            DensityProfile(1, np.array([0.7, 0.7]))

    def test_profile_rejects_nan(self):
        with pytest.raises(ValueError, match="not a distribution"):
            DensityProfile(1, np.array([np.nan, 0.0]))


def test_equalized_unit_generator():
    from hardcore_entropy.block_bounds import equalized_unit_generator

    gen, rep = equalized_unit_generator(FAMILIES[1])
    assert rep.meta["converged"] and rep.scheme == "equalized"
    assert gen.even_density() == pytest.approx(0.2015, abs=5e-4)
    prof = density_profile(3, gen)
    assert prof.mean() / 9 == pytest.approx(gen.even_density(), abs=1e-12)
    # sits between the plain single-site curve and the block optima
    assert 1.27 < prof.variance() < 1.83
    with pytest.raises(ValueError):
        equalized_unit_generator(FAMILIES[2])
