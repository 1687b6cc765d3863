"""Transfer matrices, fill-in sampler, window enumeration, blocking shares."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sampler_reference
import stage_unforced_reference
import strip_reference
import window_reference
from hardcore_entropy import bounds, oracles
from hardcore_entropy.lattices import (
    LATTICES, build_lattice, stage_window, verify_hard_core,
)
from hardcore_entropy import cli
from hardcore_entropy.block_bounds import optimize_block_bound
from hardcore_entropy.blocks import reduce_family
from hardcore_entropy.oracles import (
    MAX_STRIP_WIDTH,
    PLANE_ENTROPY,
    blocking_constant_lower,
    blocking_constant_upper,
    blocking_share_per_odd_site,
    density_upper_from_blocking,
    fill_in_sample,
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
    # the square strip one cell high is the 1-D chain, whose transfer
    # matrix [[1, 1], [1, 0]] has the golden ratio as its eigenvalue
    def test_value(self):
        h = strip_entropy("square", 1)
        assert h == pytest.approx(0.4812118250596, abs=1e-12)
        assert h == pytest.approx(math.log(GOLDEN_RATIO), abs=1e-14)

    def test_eigenvalue_is_golden_ratio(self):
        assert math.exp(strip_entropy("square", 1)) == pytest.approx(
            GOLDEN_RATIO, abs=1e-14)

    def test_width_one_strip_coincides(self):
        chain = np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 0.0]]))[-1]
        assert strip_entropy("square", 1) == pytest.approx(math.log(chain),
                                                           abs=1e-12)
        # the periodic offsets land on the site itself and are dropped
        assert strip_entropy("square", 1, "periodic") == strip_entropy(
            "square", 1)


# the free strip at the widest width, and the ceiling it sets above the
# plane entropy: ln lambda_w is subadditive in w (an independent set of a
# (w1 + w2)-strip restricts to one of each part), so by Fekete's lemma
# ln lambda_w / (w sites_per_cell) >= h at every width
FREE_CEILINGS = {"square": (14, 0.4122847607), "honeycomb": (7, 0.4440300740),
                 "triangular": (14, 0.3412300796), "kagome": (4, 0.4024470079),
                 "square_moore": (14, 0.3043178124)}
# the most power steps any width takes, free or periodic, and one width
# that needs all of them (the _POWER_MAX_ITER comment)
POWER_STEPS = {"square": (19, 13, "free"), "honeycomb": (21, 7, "periodic"),
               "triangular": (29, 14, "free"), "kagome": (18, 1, "periodic"),
               "square_moore": (27, 3, "periodic")}


def _widths(lattice):
    return range(1, MAX_STRIP_WIDTH // build_lattice(lattice).sites_per_cell
                 + 1)


class TestStrips:
    def test_legal_column_counts_are_fibonacci(self):
        fib = [1, 2, 3, 5, 8, 13, 21, 34]
        for w, f in zip(range(1, 7), fib[1:]):
            assert len(legal_columns("square", w, "free")) == f

    def test_square_columns_match_reference(self):
        for boundary in ("free", "periodic"):
            for w in _widths("square"):
                assert np.array_equal(
                    legal_columns("square", w, boundary),
                    strip_reference.square_columns(w, boundary)), w

    def test_width_two_free(self):
        # 3 legal columns (00, 01, 10); dominant eigenvalue 1 + sqrt(2)
        assert strip_entropy("square", 2) == pytest.approx(
            math.log(1 + math.sqrt(2)) / 2, abs=1e-12)

    def test_width_twelve_free(self):
        h = strip_entropy("square", 12)
        assert h == pytest.approx(0.4130830372, abs=1e-9)

    def test_width_fourteen_free(self):
        assert strip_entropy("square", 14) == pytest.approx(0.4122847607,
                                                            abs=1e-9)

    def test_free_ratio_cancels_surface_excess(self):
        # ln(lambda_w / lambda_{w-1}) drops the surface term and sits on
        # ln kappa; the free per-site value stays above by 0.0671/width
        ln_kappa = 0.4074951013
        for w in range(10, 15):
            s = strip_entropy("square", w)
            ratio = w * s - (w - 1) * strip_entropy("square", w - 1)
            assert ratio == pytest.approx(ln_kappa, abs=1e-9)
            assert 0.066 <= w * (s - ratio) <= 0.068

    def test_width_twelve_periodic(self):
        h = strip_entropy("square", 12, "periodic")
        assert h == pytest.approx(0.4074963771, abs=1e-9)
        assert abs(h - PLANE_ENTROPY) < 3e-3

    def test_monotone_decreasing_in_width(self):
        hs = [strip_entropy("square", w) for w in range(1, 13)]
        assert all(a >= b - 1e-12 for a, b in zip(hs, hs[1:]))
        assert all(h > 0.4075 - 1e-3 for h in hs)

    def test_periodic_below_free(self):
        for w in (8, 12):
            assert strip_entropy("square", w, "periodic") < strip_entropy(
                "square", w)

    def test_closed_form_bounds_below_strip(self):
        ceiling = strip_entropy("square", 12)
        for p in np.linspace(0.01, 0.6, 8):
            assert bounds.staged_bound("square", (float(p),)).value < ceiling

    def test_width_validation(self):
        for lattice, widths in (("square", (0, 15, -3)),
                                ("honeycomb", (0, 8)), ("kagome", (5,))):
            for w in widths:
                with pytest.raises(ValueError, match="width"):
                    strip_entropy(lattice, w)
        with pytest.raises(ValueError, match="boundary"):
            strip_entropy("square", 4, "helical")
        with pytest.raises(ValueError, match="unknown lattice"):
            strip_entropy("hexagonal", 4)
        # never truncated: 2.7 must not answer with the width-2 strip
        for w in (2.7, 2.0, "2"):
            for f in (strip_entropy, lambda lattice, w: legal_columns(
                    lattice, w, "free")):
                with pytest.raises(ValueError,
                                   match=f"strip width {w!r} is not"):
                    f("square", w)
        # numpy integers are integers
        assert strip_entropy("square", np.int64(6)) == strip_entropy(
            "square", 6)
        np.testing.assert_array_equal(
            legal_columns("kagome", np.int32(2), "free"),
            legal_columns("kagome", 2, "free"))

    def test_legal_columns_rejects_unknown_boundary(self):
        with pytest.raises(ValueError,
                           match="boundary must be free or periodic"):
            legal_columns("square", 4, "helical")

    @pytest.mark.parametrize("boundary", ["free", "periodic"])
    def test_matches_dense_reference(self, boundary):
        for w in range(1, MAX_STRIP_WIDTH + 1):
            got = strip_entropy("square", w, boundary)
            want = strip_reference.strip_entropy(w, boundary)
            assert f"{got:.12f}" == f"{want:.12f}", w
            assert abs(got - want) <= 1e-15, w

    @pytest.mark.parametrize("lattice", LATTICES)
    def test_matches_coordinate_reference(self, lattice):
        # every width up to 10 column sites, against the dense matrix
        # built from site coordinates
        c = build_lattice(lattice).sites_per_cell
        for boundary in ("free", "periodic"):
            for w in range(1, 10 // c + 1):
                got = strip_entropy(lattice, w, boundary)
                want = strip_reference.lattice_strip_entropy(lattice, w,
                                                             boundary)
                assert abs(got - want) <= 1e-12, (w, boundary)

    @pytest.mark.parametrize("lattice", LATTICES)
    def test_free_ceiling(self, lattice):
        width, ceiling = FREE_CEILINGS[lattice]
        assert max(_widths(lattice)) == width
        assert strip_entropy(lattice, width) == pytest.approx(ceiling,
                                                              abs=1e-9)

    def test_every_bound_below_its_free_ceiling(self):
        values = [(lattice, bounds.optimize_bound(scheme, lattice).value)
                  for scheme, table in bounds.SCHEMES.items()
                  for lattice in table]
        values += [("square", optimize_block_bound(reduce_family(n))[1].value)
                    for n in (1, 2, 3, 4)]
        for lattice, value in values:
            width, _ = FREE_CEILINGS[lattice]
            assert value <= strip_entropy(lattice, width) + 1e-9, lattice

    def test_power_iteration_cap(self, monkeypatch):
        # the _POWER_MAX_ITER comment: on each lattice every width
        # converges within its step count, and the width named needs all
        for lattice, (steps, width, boundary) in POWER_STEPS.items():
            monkeypatch.setattr(oracles, "_POWER_MAX_ITER", steps)
            for b in ("free", "periodic"):
                for w in _widths(lattice):
                    strip_entropy(lattice, w, b)
            monkeypatch.setattr(oracles, "_POWER_MAX_ITER", steps - 1)
            with pytest.raises(ValueError,
                               match=f"in {steps - 1} iterations"):
                strip_entropy(lattice, width, boundary)


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
            window = stage_window(lattice, stage)[0][:-1]
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
            # the count forms and the hand-written reference, at all stages
            probs = (p, q, r)[:build_lattice(lattice).partite_count - 1]
            hand = stage_unforced_reference.STAGE_UNFORCED[lattice](
                probs + (0.5,))
            counted = bounds.stage_unforced(lattice, probs)
            assert counted[-1] == pytest.approx(got, abs=1e-12)
            for stage in range(1, len(probs) + 1):
                got = window_probability_exhaustive(lattice, probs, stage)
                assert got == pytest.approx(hand[stage], abs=1e-12)
                assert got == pytest.approx(counted[stage], abs=1e-12)

    def test_square_and_honeycomb_single_stage(self):
        p = 0.1702
        got = window_probability_exhaustive("square", (p,), 1)
        assert got == pytest.approx((1 - p) ** 4, abs=1e-14)
        got = window_probability_exhaustive("honeycomb", (0.2284,), 1)
        assert got == pytest.approx((1 - 0.2284) ** 3, abs=1e-14)
        for lattice, p in (("square", 0.1702), ("honeycomb", 0.2284)):
            got = window_probability_exhaustive(lattice, (p,), 1)
            hand = stage_unforced_reference.STAGE_UNFORCED[lattice]((p, 0.5))
            assert got == pytest.approx(hand[1], abs=1e-14)
            counted = bounds.stage_unforced(lattice, (p,))
            assert got == pytest.approx(counted[1], abs=1e-14)

    def test_moore_middle_stage(self):
        p, q, r = 0.1189, 0.1623, 0.2628
        got = window_probability_exhaustive("square_moore",
                                            (p, q, r), 2)
        s = 1 - (1 - p) * q
        assert got == pytest.approx((1 - p) ** 2 * s ** 4, abs=1e-12)
        hand = stage_unforced_reference.STAGE_UNFORCED["square_moore"](
            (p, q, r, 0.5))
        assert got == pytest.approx(hand[2], abs=1e-12)
        assert got == pytest.approx(
            bounds.stage_unforced("square_moore", (p, q, r))[2], abs=1e-12)

    @pytest.mark.parametrize("lattice", LATTICES)
    def test_matches_reference_enumeration(self, lattice):
        spec = build_lattice(lattice)
        rng = np.random.default_rng(sum(map(ord, lattice)))
        for k in (spec.partite_count - 1, spec.partite_count):
            for _ in range(4):
                params = tuple(float(x) for x in rng.uniform(0.05, 0.45, k))
                for stage in range(1, spec.partite_count):
                    got = window_probability_exhaustive(lattice, params, stage)
                    want = window_reference.window_probability_exhaustive(
                        lattice, params, stage)
                    assert got == want, (params, stage)

    def test_peak_memory_per_assignment(self):
        # the weights (8 bytes per assignment) and their flags (1 byte),
        # with room to spare: a second weight array would add 8
        params = (0.1189, 0.1623, 0.2628)
        window_probability_exhaustive("square_moore", params, 3)
        tracemalloc.start()
        try:
            window_probability_exhaustive("square_moore", params, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stage_window("square_moore", 3)[0]) - 1 == 16
        assert peak / (1 << 16) <= 12

    def test_stage_bounds_checked(self):
        with pytest.raises(ValueError, match="stage"):
            stage_window("square", 2)
        with pytest.raises(ValueError, match="stage"):
            stage_window("square", 0)


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
        config, rows = fill_in_sample(lattice, params, dims, seed=7)
        assert verify_hard_core(config)
        assert len(rows) == 2 * (len(params) + 1)
        unforced, density = rows[::2], rows[1::2]
        assert {r["metric"] for r in unforced} == {"unforced"}
        assert {r["metric"] for r in density} == {"density"}
        assert unforced[0]["empirical"] == 1.0
        for u, d in zip(unforced, density):
            assert u["n_sites"] > 0
            assert 0 <= d["empirical"] <= 1
            if u["stderr"]:
                sig = abs(u["empirical"] - u["analytic"])
                assert sig < 5 * u["stderr"]
            sig = abs(d["empirical"] - d["analytic"])
            assert sig < 5 * max(d["stderr"], 1e-9)

    @pytest.mark.parametrize("shape", [(32, 32, 1), (32, 64, 3), (64, 40, 2),
                                       (48, 72, 1)])
    def test_tile_stderr_matches_per_tile_float_means(self, shape):
        rng = np.random.default_rng(sum(shape))
        indicator = rng.random(shape) < 0.3

        def float_loop_stderr(where):
            means = []
            for y in range(0, shape[0], 8):
                for x in range(0, shape[1], 8):
                    tile = np.s_[y:y + 8, x:x + 8]
                    means.append((indicator[tile] * where[tile]).astype(
                        float).sum() / where[tile].astype(float).sum())
            return float(np.std(means, ddof=1)) / math.sqrt(len(means))

        where = rng.random(shape) < 0.7
        got = oracles._stderr(oracles._tile_counts(indicator & where),
                              oracles._tile_counts(where),
                              int(where.sum()), 0.3)
        assert got == float_loop_stderr(where)
        # the stages of every lattice whose cell and coloring period fit,
        # with their tile site counts read off the sublattice planes
        h, w, c = shape
        specs = [spec for spec in map(build_lattice, LATTICES)
                 if spec.sites_per_cell == c
                 and not (w % spec.period[0] or h % spec.period[1])]
        assert specs
        for spec in specs:
            px, py = spec.period
            stages = sampler_reference.stage_index(spec, (w, h))
            for s in range(spec.partite_count):
                mine = [(oy, ox, t) for oy, ox, t in np.ndindex(py, px, c)
                        if spec.coloring[t][oy][ox] == s]
                where = stages == s
                got = oracles._stderr(
                    oracles._tile_counts(indicator & where),
                    oracles._tile_sites(spec, mine, h, w),
                    int(where.sum()), 0.3)
                assert got == float_loop_stderr(where), (spec.name, s)

    def test_tile_counts_hold_full_tiles(self):
        # 8 * 8 * 3 = 192 sites per tile: the largest count, no wrap-around
        counts = oracles._tile_counts(np.ones((16, 24, 3), dtype=bool))
        assert counts.shape == (2, 3)
        assert (counts == 192).all()
        # every lattice's planes together fill each tile, also where the
        # period-3 planes of triangular cross tiles at offsets 1 and 2
        w, h = 24, 48
        for lattice in LATTICES:
            spec = build_lattice(lattice)
            px, py = spec.period
            sites = oracles._tile_sites(
                spec, np.ndindex(py, px, spec.sites_per_cell), h, w)
            assert sites.shape == (h // 8, w // 8)
            assert (sites == 64 * spec.sites_per_cell).all(), lattice

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(case=_sample_cases(), seed=st.integers(0, 2 ** 32 - 1))
    @example(case=("triangular", (0.3, 0.2), (24, 48)), seed=1)
    @example(case=("kagome", (0.1, 0.4), (6, 6)), seed=2)
    @example(case=("square", (0.45,), (8, 128)), seed=3)
    @example(case=("square_moore", (0.05, 0.2, 0.45), (8, 128)), seed=4)
    # 200 rows in draw bands of 68, the last one short
    @example(case=("square_moore", (0.1, 0.2, 0.3), (480, 200)), seed=5)
    # 40 rows in one band, which has room for 256
    @example(case=("honeycomb", (0.3,), (64, 40)), seed=6)
    # period 3: tiles cut the planes at offsets oy, ox > 0, and 96 rows
    # pass in bands of 66 and 30
    @example(case=("triangular", (0.2, 0.35), (480, 96)), seed=7)
    @example(case=("kagome", (0.1944, 0.3002), (480, 480)), seed=8)
    def test_statistics_match_reference_sampler(self, case, seed):
        lattice, params, dims = case
        config, rows = fill_in_sample(lattice, params, dims, seed)
        want_config, want_rows = sampler_reference.fill_in_sample(
            lattice, params, dims, seed)
        assert rows == want_rows
        assert config.values.dtype == want_config.values.dtype
        np.testing.assert_array_equal(config.values, want_config.values)

    @pytest.mark.parametrize("lattice,params", [c[:2] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_peak_memory_per_site(self, lattice, params):
        # nothing torus-sized but `values` (1 byte per site): a float64
        # draw per site (8 bytes) would not fit.  numpy.random is loaded
        # first, so the trace does not count its lazy import
        np.random.default_rng(0)
        tracemalloc.start()
        try:
            config, _ = fill_in_sample(lattice, params, (480, 480), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / config.values.size <= 4

    def test_draws_in_few_bands(self, monkeypatch):
        # a stage draws its rows in bands of the most whole coloring
        # periods whose float64s fit in _BAND_BYTES: on a 480x480 square
        # torus 68 rows, so at most 8 draw calls per stage
        h, w, py = 480, 480, 2
        band_rows = max(1, oracles._BAND_BYTES // (8 * w * py)) * py
        assert (band_rows, math.ceil(h / band_rows)) == (68, 8)
        real, draws = np.random.default_rng, []

        class Counting:
            def __init__(self, seed):
                self.gen, self.sizes = real(seed), []
                draws.append(self.sizes)

            def random(self, *, out):
                self.sizes.append(out.nbytes)
                return self.gen.random(out=out)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        fill_in_sample("square", (0.2,), (w, h), seed=0)
        assert len(draws) == 2
        for sizes in draws:
            assert 0 < len(sizes) <= math.ceil(h / band_rows)
            assert sum(sizes) == 8 * h * w
            assert max(sizes) <= oracles._BAND_BYTES

    def test_deterministic_per_seed(self):
        a, _ = fill_in_sample("square", (0.2,), (64, 64), seed=3)
        b, _ = fill_in_sample("square", (0.2,), (64, 64), seed=3)
        c, _ = fill_in_sample("square", (0.2,), (64, 64), seed=4)
        np.testing.assert_array_equal(a.values, b.values)
        assert (a.values != c.values).any()

    def test_explicit_final_stage_probability(self):
        # equalized variant: final stage gets its own parameter, not 1/2
        config, rows = fill_in_sample("square", (0.2015, 0.4423),
                                      (128, 128), seed=11)
        assert verify_hard_core(config)
        dot_density = rows[3]
        assert (dot_density["stage"], dot_density["metric"]) == \
            ("dot", "density")
        assert dot_density["probability"] == 0.4423
        assert dot_density["analytic"] == pytest.approx(
            0.4423 * (1 - 0.2015) ** 4)

    def test_arity_checked(self):
        with pytest.raises(ValueError, match="stage probabilities"):
            fill_in_sample("triangular", (0.1,), (12, 12), seed=0)
        with pytest.raises(ValueError, match="outside"):
            fill_in_sample("square", (1.2,), (12, 12), seed=0)

    def test_stats_rows_schema(self):
        _, rows = fill_in_sample("square", (0.2,), (32, 32), seed=0)
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

    @pytest.mark.parametrize("h_ref", [0.2, 0.33, 0.4075, 0.45, 0.6, 0.69])
    def test_bisection_matches_scipy_bisect(self, h_ref):
        from scipy.optimize import bisect

        def gap(c):
            rho = 1.0 / (2.0 + c)
            return (0.5 * (bounds.entropy_bernoulli(rho) + 2 * rho * bounds.LN2)
                    - h_ref)

        c_max, rho_min = blocking_constant_upper(h_ref)
        assert c_max == bisect(gap, 0.0, 20.0, xtol=1e-8)
        assert type(c_max) is float and rho_min == 1.0 / (2.0 + c_max)

    def test_interval_ordering(self):
        _, rho_min = blocking_constant_upper(0.4075)
        assert rho_min < float(density_upper_from_blocking())

    def test_h_ref_validation(self):
        from scipy.optimize import bisect

        with pytest.raises(ValueError, match="outside"):
            blocking_constant_upper(0.8)
        # c_max > 20: the bracket doubles from 20 to 80
        def gap(c):
            rho = 1.0 / (2.0 + c)
            return (0.5 * (bounds.entropy_bernoulli(rho) + 2 * rho * bounds.LN2)
                    - 0.05)

        c_max, _ = blocking_constant_upper(0.05)
        assert c_max == bisect(gap, 0.0, 80.0, xtol=1e-8)
        assert c_max == pytest.approx(63.626, abs=1e-3)
        # only a bracket that overflows to inf has no root
        with pytest.raises(ValueError, match="no root"):
            blocking_constant_upper(1e-310)


class TestReferenceConstants:
    def test_values(self):
        assert PLANE_ENTROPY == 0.4075
        # the one literature value is every default reference entropy
        assert cli.OPTIONS["href"].default == PLANE_ENTROPY
        assert blocking_constant_upper() == \
            blocking_constant_upper(PLANE_ENTROPY)
