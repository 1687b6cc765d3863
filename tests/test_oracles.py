"""Transfer matrices, fill-in sampler, window enumeration, blocking shares."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sampler_reference
from hardcore_entropy import bounds, oracles
from hardcore_entropy.lattices import LATTICES, build_lattice, verify_hard_core
from hardcore_entropy import cli
from hardcore_entropy.oracles import (
    PLANE_ENTROPY,
    blocking_constant_lower,
    blocking_constant_upper,
    blocking_share_per_odd_site,
    density_upper_from_blocking,
    entropy_1d,
    fill_in_sample,
    influence_window,
    legal_columns,
    strip_entropy,
    window_probability_exhaustive,
)

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
# torus sizes for the sampler: 8 x 8 tile grids of 16 tiles or more
# (24x48, 8x128, 48x24, 32x32) and untiled ones
SAMPLE_DIMS = ((24, 48), (6, 6), (8, 128), (48, 24), (12, 18), (32, 32),
               (30, 12), (2, 2))


@st.composite
def _sample_cases(draw):
    """(lattice, stage probabilities, dims) with dims a valid torus."""
    lattice = draw(st.sampled_from(LATTICES))
    spec = build_lattice(lattice)
    k = spec.partite_count - draw(st.sampled_from((0, 1)))
    params = tuple(draw(st.floats(0.05, 0.45)) for _ in range(k))
    px, py = spec.period
    dims = draw(st.sampled_from(
        [(w, h) for w, h in SAMPLE_DIMS if w % px == 0 and h % py == 0]))
    return lattice, params, dims


def _blocking_constant_lower_by_fractions():
    """blocking_constant_lower as a sum of Fractions, credit by credit."""
    ring, triples = oracles._blocking_geometry()
    index = {e: i for i, e in enumerate(ring)}
    total = Fraction(0)
    for bits in range(1 << len(ring)):
        credit = Fraction(0)
        for others in triples:
            k = sum((bits >> index[e]) & 1 for e in others)
            credit += Fraction(1, 1 + k)
        total += credit
    return total / (1 << len(ring))


class TestOneDimensional:
    def test_value(self):
        assert entropy_1d() == pytest.approx(0.4812118250596, abs=1e-12)
        assert entropy_1d() == pytest.approx(math.log(GOLDEN_RATIO), abs=1e-14)

    def test_eigenvalue_is_golden_ratio(self):
        assert math.exp(entropy_1d()) == pytest.approx(GOLDEN_RATIO, abs=1e-14)

    def test_width_one_strip_coincides(self):
        assert strip_entropy(1) == pytest.approx(entropy_1d(), abs=1e-12)


class TestStrips:
    def test_legal_column_counts_are_fibonacci(self):
        fib = [1, 2, 3, 5, 8, 13, 21, 34]
        for w, f in zip(range(1, 7), fib[1:]):
            assert len(legal_columns(w)) == f

    def test_width_two_free(self):
        # 3 legal columns (00, 01, 10); dominant eigenvalue 1 + sqrt(2)
        assert strip_entropy(2) == pytest.approx(math.log(1 + math.sqrt(2)) / 2,
                                                 abs=1e-12)

    def test_width_twelve_free(self):
        h = strip_entropy(12)
        assert h == pytest.approx(0.4130830372, abs=1e-9)

    def test_width_fourteen_free(self):
        assert strip_entropy(14) == pytest.approx(0.4122847607, abs=1e-9)

    def test_free_ratio_cancels_surface_excess(self):
        # ln(lambda_w / lambda_{w-1}) drops the surface term and sits on
        # ln kappa; the free per-site value stays above by 0.0671/width
        ln_kappa = 0.4074951013
        for w in range(10, 15):
            s = strip_entropy(w)
            ratio = w * s - (w - 1) * strip_entropy(w - 1)
            assert ratio == pytest.approx(ln_kappa, abs=1e-9)
            assert 0.066 <= w * (s - ratio) <= 0.068

    def test_width_twelve_periodic(self):
        h = strip_entropy(12, "periodic")
        assert h == pytest.approx(0.4074963771, abs=1e-9)
        assert abs(h - PLANE_ENTROPY) < 3e-3

    def test_monotone_decreasing_in_width(self):
        hs = [strip_entropy(w) for w in range(1, 13)]
        assert all(a >= b - 1e-12 for a, b in zip(hs, hs[1:]))
        assert all(h > 0.4075 - 1e-3 for h in hs)

    def test_periodic_below_free(self):
        for w in (8, 12):
            assert strip_entropy(w, "periodic") < strip_entropy(w)

    def test_closed_form_bounds_below_strip(self):
        ceiling = strip_entropy(12)
        for p in np.linspace(0.01, 0.6, 8):
            assert bounds.staged_bound("square", (float(p),)).value < ceiling

    def test_width_validation(self):
        for w in (0, 15, -3):
            with pytest.raises(ValueError, match="width"):
                strip_entropy(w)
        with pytest.raises(ValueError, match="boundary"):
            strip_entropy(4, "helical")


class TestWindows:
    def test_window_sizes(self):
        sizes = {
            ("square", 1): 4,
            ("honeycomb", 1): 3,
            ("triangular", 1): 3,
            ("triangular", 2): 9,
            ("kagome", 2): 6,
            ("square_moore", 3): 16,
        }
        for (lattice, stage), want in sizes.items():
            _, window = influence_window(lattice, stage)
            assert len(window) == want, (lattice, stage)

    @pytest.mark.parametrize("lattice",
                             ["triangular", "kagome", "square_moore"])
    def test_matches_closed_forms_at_random_points(self, lattice):
        rng = np.random.default_rng(2026)
        for _ in range(5):
            p, q, r = rng.uniform(0.05, 0.45, 3)
            s = 1 - (1 - p) * q
            if lattice == "triangular":
                got = window_probability_exhaustive(lattice, (p, q), 2)
                want = (1 - p) ** 3 * s ** 3
            elif lattice == "kagome":
                got = window_probability_exhaustive(lattice, (p, q), 2)
                want = (1 - p) ** 2 * s ** 2
            else:
                got = window_probability_exhaustive(lattice, (p, q, r), 3)
                want = (1 - p) ** 4 * (1 - q) ** 2 * (1 - s ** 2 * r) ** 2
            assert got == pytest.approx(want, abs=1e-12)

    def test_square_and_honeycomb_single_stage(self):
        p = 0.1702
        got = window_probability_exhaustive("square", (p,), 1)
        assert got == pytest.approx((1 - p) ** 4, abs=1e-14)
        got = window_probability_exhaustive("honeycomb", (0.2284,), 1)
        assert got == pytest.approx((1 - 0.2284) ** 3, abs=1e-14)

    def test_moore_middle_stage(self):
        p, q, r = 0.1189, 0.1623, 0.2628
        got = window_probability_exhaustive("square_moore",
                                            (p, q, r), 2)
        s = 1 - (1 - p) * q
        assert got == pytest.approx((1 - p) ** 2 * s ** 4, abs=1e-12)

    def test_stage_bounds_checked(self):
        with pytest.raises(ValueError, match="stage"):
            influence_window("square", 2)
        with pytest.raises(ValueError, match="stage"):
            influence_window("square", 0)


class TestSampler:
    CASES = [
        ("square", (0.1702,), (128, 128)),
        ("honeycomb", (0.2284,), (96, 96)),
        ("triangular", (0.1457, 0.2501), (96, 96)),
        ("kagome", (0.1944, 0.3002), (96, 96)),
        ("square_moore", (0.1189, 0.1623, 0.2628), (128, 128)),
    ]

    @pytest.mark.parametrize("lattice,params,dims", CASES,
                             ids=[c[0] for c in CASES])
    def test_hard_core_and_stats(self, lattice, params, dims):
        config, stats = fill_in_sample(lattice, params, dims, seed=7)
        assert verify_hard_core(config)
        assert len(stats) == len(params) + 1
        assert stats[0].unforced_empirical == 1.0
        for st in stats:
            assert st.n_sites > 0
            assert 0 <= st.density_empirical <= 1
            if st.unforced_stderr:
                sig = abs(st.unforced_empirical - st.unforced_analytic)
                assert sig < 5 * st.unforced_stderr
            sig = abs(st.density_empirical - st.density_analytic)
            assert sig < 5 * max(st.density_stderr, 1e-9)

    @pytest.mark.parametrize("shape", [(32, 32, 1), (32, 64, 3), (64, 40, 2)])
    def test_tile_stderr_matches_per_tile_float_means(self, shape):
        rng = np.random.default_rng(sum(shape))
        indicator = rng.random(shape) < 0.3
        where = rng.random(shape) < 0.7
        means = []
        for y in range(0, shape[0], 8):
            for x in range(0, shape[1], 8):
                tile = np.s_[y:y + 8, x:x + 8]
                means.append((indicator[tile] * where[tile]).astype(float).sum()
                             / where[tile].astype(float).sum())
        want = float(np.std(means, ddof=1)) / math.sqrt(len(means))
        hits = indicator & where
        got = oracles._stderr(hits, oracles._tile_counts(where),
                              int(where.sum()), 0.3)
        assert got == want

    def test_tile_counts_hold_full_tiles(self):
        # 8 * 8 * 3 = 192 sites per tile: the largest count, no wrap-around
        counts = oracles._tile_counts(np.ones((16, 24, 3), dtype=bool))
        assert counts.shape == (2, 3)
        assert (counts == 192).all()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(case=_sample_cases(), seed=st.integers(0, 2 ** 32 - 1))
    @example(case=("triangular", (0.3, 0.2), (24, 48)), seed=1)
    @example(case=("kagome", (0.1, 0.4), (6, 6)), seed=2)
    @example(case=("square", (0.45,), (8, 128)), seed=3)
    @example(case=("square_moore", (0.05, 0.2, 0.45), (8, 128)), seed=4)
    def test_statistics_match_reference_sampler(self, case, seed):
        lattice, params, dims = case
        config, stats = fill_in_sample(lattice, params, dims, seed)
        want_config, want_stats = sampler_reference.fill_in_sample(
            lattice, params, dims, seed)
        assert stats == want_stats
        assert config.values.dtype == want_config.values.dtype
        np.testing.assert_array_equal(config.values, want_config.values)

    def test_deterministic_per_seed(self):
        a, _ = fill_in_sample("square", (0.2,), (64, 64), seed=3)
        b, _ = fill_in_sample("square", (0.2,), (64, 64), seed=3)
        c, _ = fill_in_sample("square", (0.2,), (64, 64), seed=4)
        np.testing.assert_array_equal(a.values, b.values)
        assert (a.values != c.values).any()

    def test_explicit_final_stage_probability(self):
        # equalized variant: final stage gets its own parameter, not 1/2
        config, stats = fill_in_sample("square", (0.2015, 0.4423),
                                       (128, 128), seed=11)
        assert verify_hard_core(config)
        assert stats[1].probability == 0.4423
        assert stats[1].density_analytic == pytest.approx(
            0.4423 * (1 - 0.2015) ** 4)

    def test_arity_checked(self):
        with pytest.raises(ValueError, match="stage probabilities"):
            fill_in_sample("triangular", (0.1,), (12, 12), seed=0)
        with pytest.raises(ValueError, match="outside"):
            fill_in_sample("square", (1.2,), (12, 12), seed=0)

    def test_stats_rows_schema(self):
        _, stats = fill_in_sample("square", (0.2,), (32, 32), seed=0)
        rows = [r for st in stats for r in st.rows()]
        assert len(rows) == 4
        for row in rows:
            assert {"stage", "metric", "analytic", "empirical", "stderr",
                    "n_sites"} <= set(row)

    def test_analytic_fractions_known_points(self):
        p = 0.1702
        assert bounds.stage_unforced("square", (p,)) == \
            pytest.approx((1.0, (1 - p) ** 4))
        p, q = 0.1457, 0.2501
        frac = bounds.stage_unforced("triangular", (p, q))
        assert frac[2] == pytest.approx(0.3032, abs=5e-4)


class TestBlockingConstants:
    def test_lower_is_exact(self):
        assert blocking_constant_lower() == Fraction(15, 8)

    def test_lower_matches_fraction_sum(self):
        assert blocking_constant_lower() == \
            _blocking_constant_lower_by_fractions()

    def test_per_odd_share(self):
        assert blocking_share_per_odd_site() == Fraction(15, 32)
        # E[1/(1+Binomial(3,1/2))] by direct expectation
        want = Fraction(1, 8) * (1 + Fraction(3, 2) + 1 + Fraction(1, 4))
        assert blocking_share_per_odd_site() == want

    def test_density_upper(self):
        assert density_upper_from_blocking() == Fraction(8, 31)

    def test_upper_constant_and_density(self):
        c_max, rho_min = blocking_constant_upper(0.4075)
        assert c_max == pytest.approx(2.6801, abs=1e-3)
        assert rho_min == pytest.approx(0.21367, abs=1e-4)
        assert rho_min == pytest.approx(1 / (2 + c_max), abs=1e-12)

    def test_interval_ordering(self):
        _, rho_min = blocking_constant_upper(0.4075)
        assert rho_min < float(density_upper_from_blocking())

    def test_h_ref_validation(self):
        with pytest.raises(ValueError, match="outside"):
            blocking_constant_upper(0.8)
        with pytest.raises(ValueError, match="no root"):
            blocking_constant_upper(0.05)


class TestReferenceConstants:
    def test_values(self):
        assert PLANE_ENTROPY == 0.4075
        # the one literature value is every default reference entropy
        assert cli.OPTIONS["href"].default == PLANE_ENTROPY
        assert blocking_constant_upper() == \
            blocking_constant_upper(PLANE_ENTROPY)
