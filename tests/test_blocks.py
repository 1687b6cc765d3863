"""Block symmetry/weak-site reduction, the family cache, and marginals."""
import hashlib
import itertools
import time

import numpy as np
import pytest

from hardcore_entropy import block_bounds, blocks
from hardcore_entropy.blocks import (
    BlockFamily,
    cover_pairs,
    load_family,
    load_or_build_family,
    reduce_family,
    save_family,
)

from block_reference import (
    closure,
    corner_positions,
    cover_pairs_all_masks,
    d4_canonical,
    d4_images,
    d4_maps,
    forced_odd_sites,
    odd_neighbors,
    weak_family_by_csgraph,
    weak_sites,
)


def bit(n, x, y):
    return 1 << (y * n + x)


def members(fam, cid):
    return np.nonzero(fam.class_of == cid)[0]


def mask_sample(n):
    """Every mask for n <= 3, or 2,000 seeded random n=4 masks."""
    if n <= 3:
        return range(1 << n * n)
    rng = np.random.default_rng(20)
    return [int(m) for m in rng.integers(0, 1 << 16, size=2000)]


class TestEnumeration:
    def test_rejects_bad_n(self):
        # a side that is not an integer is never truncated: 2.7 is not 2
        for n in (0, 5, 2.7, 2.0, "2"):
            with pytest.raises(ValueError, match="block side"):
                reduce_family(n)

    def test_accepts_numpy_integers(self):
        fam = reduce_family(np.int64(2))
        assert type(fam.n) is int and fam.class_count == 6


class TestD4:
    def test_sources_are_the_other_seven(self):
        # _d4_sources maps image bits to source bits; D4 holds the inverse
        # of each map, so with the identity they are the reference's 8
        for n in (2, 3, 4):
            identity = tuple(range(n * n))
            sources = {tuple(src) for src in blocks._d4_sources(n)}
            assert len(sources) == 7 and identity not in sources
            assert sources | {identity} == {tuple(g) for g in d4_maps(n)}

    def test_maps_are_permutations(self):
        for n in (1, 2, 3, 4):
            assert len(blocks._d4_sources(n)) == 7
            for src in blocks._d4_sources(n):
                assert sorted(src) == list(range(n * n))

    def test_canonical_idempotent(self):
        for m in range(512):
            c = d4_canonical(3, m)
            assert d4_canonical(3, c) == c
            assert c <= m
            assert c in d4_images(3, m)

    def test_rotation_of_corner(self):
        # single 1 at (0,0) visits all four corners under rotation
        imgs = set(d4_images(3, bit(3, 0, 0)))
        assert imgs == {bit(3, 0, 0), bit(3, 2, 0), bit(3, 0, 2), bit(3, 2, 2)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orbit_is_smallest_image(self, n):
        orbit = blocks._d4_orbit(n)
        assert orbit.shape == (1 << n * n,)
        sample = mask_sample(4) if n == 4 else range(1 << n * n)
        assert [int(orbit[m]) for m in sample] == \
            [min(d4_images(n, m)) for m in sample]


class TestOrbitTable:
    def test_built_once_and_read_only(self):
        blocks._d4_orbit.cache_clear()
        for use_weak in (True, False):
            cover_pairs(reduce_family(3, use_weak))
        assert blocks._d4_orbit.cache_info().misses == 1
        orbit = blocks._d4_orbit(3)
        assert blocks._d4_orbit(3) is orbit
        with pytest.raises(ValueError, match="read-only"):
            orbit[0] = 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_results_from_a_fresh_and_a_cached_table(self, n,
                                                          monkeypatch):
        def results():
            out = []
            for use_weak in (True, False):
                fam = reduce_family(n, use_weak)
                out += [fam.class_of, fam.representatives,
                        fam.multiplicities, *cover_pairs(fam)]
            return out

        with monkeypatch.context() as m:  # a new writable table every call
            m.setattr(blocks, "_d4_orbit", blocks._d4_orbit.__wrapped__)
            fresh = results()
        for cached in (results(), results()):
            for want, got in zip(fresh, cached, strict=True):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


class TestOrTable:
    @pytest.mark.parametrize("length", range(11))
    def test_matches_per_mask_or(self, length):
        # length 0 is the one-entry table [0]
        rng = np.random.default_rng(100 + length)
        units = [int(u) for u in rng.integers(0, 1 << 25, size=length)]
        want = []
        for m in range(1 << length):
            acc = 0
            for b, u in enumerate(units):
                if m >> b & 1:
                    acc |= u
            want.append(acc)
        assert blocks._or_table(units).tolist() == want

    def test_unit_rows_give_one_table_per_column(self):
        rng = np.random.default_rng(99)
        units = rng.integers(0, 1 << 25, size=(6, 3))
        np.testing.assert_array_equal(
            blocks._or_table(units),
            [blocks._or_table(col.tolist()) for col in units.T])


class TestPopcounts:
    @pytest.mark.parametrize("nbits", range(17))
    def test_bit_counts(self, nbits):
        got = blocks.popcounts(nbits)
        assert got.dtype == np.int64
        assert got.tolist() == [m.bit_count() for m in range(1 << nbits)]


class TestWeakSites:
    def test_corners_never_weak(self):
        for m in (0, 0b1111, 0b1010101):
            assert not (weak_sites(3, m) & corner_positions(3))

    def test_empty_mask_has_none(self):
        assert weak_sites(3, 0) == set()

    def test_center_weak_with_four_edge_midpoints(self):
        # 1s at (1,0), (0,1), (2,1), (1,2): every odd plaquette around the
        # center already touches one of them
        m = bit(3, 1, 0) | bit(3, 0, 1) | bit(3, 2, 1) | bit(3, 1, 2)
        assert weak_sites(3, m) == {4}
        # toggling the weak site preserves the forced odd set
        assert forced_odd_sites(3, m) == forced_odd_sites(3, m | bit(3, 1, 1))

    def test_weakness_independent_of_own_value(self):
        for m in range(512):
            for s in weak_sites(3, m):
                assert s in weak_sites(3, m ^ (1 << s))

    def test_n2_has_no_weak_sites(self):
        # every position of a 2x2 block is a corner
        for m in range(16):
            assert weak_sites(2, m) == set()

    @pytest.mark.parametrize("n", [3, 4])
    def test_weak_iff_toggle_keeps_forced_set(self, n):
        # the predicate reduce_family evaluates, against the
        # every-odd-neighbour wording of weak_sites; corners included
        for m in mask_sample(n):
            weak = weak_sites(n, m)
            forced = forced_odd_sites(n, m)
            for s in range(n * n):
                keeps = forced_odd_sites(n, m ^ (1 << s)) == forced
                assert (s in weak) == keeps, (m, s)

    @pytest.mark.parametrize("n", [3, 4])
    def test_weak_sites_are_d4_equivariant(self, n):
        # s weak in m iff g(s) weak in g(m): the lemma that lets
        # reduce_family draw toggle edges from D4-canonical masks alone
        maps = d4_maps(n)
        for m in mask_sample(n):
            weak = weak_sites(n, m)
            for g, image in zip(maps, d4_images(n, m)):
                assert weak_sites(n, image) == {g[s] for s in weak}, (m, g)


class TestReduceFamily:
    @pytest.mark.parametrize("n,use_weak,classes", [
        (1, True, 2),
        (1, False, 2),
        (2, True, 6),
        (2, False, 6),
        (3, False, 102),
        (3, True, 47),
        (4, False, 8548),
        (4, True, 992),
    ])
    def test_class_counts(self, n, use_weak, classes):
        fam = reduce_family(n, use_weak=use_weak)
        assert fam.class_count == classes
        assert fam.free_variables == classes - 1
        assert fam.class_of.dtype == np.int32
        assert fam.representatives.dtype == np.int64
        assert fam.multiplicities.dtype == np.int64
        np.testing.assert_array_equal(fam.multiplicities,
                                      np.bincount(fam.class_of))
        assert int(fam.multiplicities.sum()) == 1 << (n * n)
        # classes are numbered by their smallest member, the representative
        assert (np.diff(fam.representatives) > 0).all()
        np.testing.assert_array_equal(fam.class_of[fam.representatives],
                                      np.arange(classes))

    def test_n4_counts_and_speed(self):
        t0 = time.perf_counter()
        fam = reduce_family(4, use_weak=True)
        assert time.perf_counter() - t0 < 1.0
        assert fam.class_count == 992
        assert fam.free_variables == 991

    @pytest.mark.parametrize("use_weak,classes,digest", [
        (True, 992,
         "d103783b98228d6a39784c69ebe3762b8e50a930f3b6d7329e813aae23508650"),
        (False, 8548,
         "a2630dec5720add86c7e68970ceb1d122c48c8f7a28ebd6955b302df95fcbfda"),
    ])
    def test_n4_class_index_pinned(self, use_weak, classes, digest):
        # SHA-256 of the little-endian int32 class index, as cached on disk
        fam = reduce_family(4, use_weak=use_weak)
        assert fam.class_count == classes
        raw = np.ascontiguousarray(fam.class_of, dtype="<i4").tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_d4_family_is_canonical_image(self, n):
        # without weak merges, two masks share a class exactly when they
        # have the same smallest dihedral image
        fam = reduce_family(n, use_weak=False)
        sample = np.array(mask_sample(4) if n == 4 else range(1 << n * n))
        canon = np.array([d4_canonical(n, m) for m in sample])
        np.testing.assert_array_equal(
            fam.representatives[fam.class_of[sample]], canon)
        if n < 4:  # every mask
            same_class = fam.class_of[:, None] == fam.class_of[None, :]
            np.testing.assert_array_equal(same_class,
                                          canon[:, None] == canon[None, :])

    def test_representatives_are_lex_min_members(self):
        fam = reduce_family(3, use_weak=True)
        for cid, rep in enumerate(fam.representatives):
            mem = members(fam, cid)
            assert rep == mem.min()
            assert len(mem) == fam.multiplicities[cid]

    def test_n2_orbit_census(self):
        fam = reduce_family(2)
        reps = fam.representatives.tolist()
        mult = fam.multiplicities.tolist()
        assert reps == [0b0, 0b1, 0b11, 0b110, 0b111, 0b1111]
        assert mult == [1, 4, 4, 2, 4, 1]

    def test_matches_brute_force_closure(self):
        # independent oracle: saturate each mask's orbit under all dihedral
        # images and single weak-site toggles, via BFS over raw masks
        for n in (2, 3):
            fam = reduce_family(n, use_weak=True)
            seen = {}
            next_id = 0
            for m0 in range(1 << (n * n)):
                if m0 in seen:
                    continue
                frontier = [m0]
                orbit = {m0}
                while frontier:
                    m = frontier.pop()
                    nbrs = d4_images(n, m)
                    nbrs += [m ^ (1 << s) for s in weak_sites(n, m)]
                    for mm in nbrs:
                        if mm not in orbit:
                            orbit.add(mm)
                            frontier.append(mm)
                for mm in orbit:
                    seen[mm] = next_id
                next_id += 1
            assert next_id == fam.class_count
            for m in range(1 << (n * n)):
                same = seen[m] == seen[fam.representatives[fam.class_of[m]]]
                assert same, f"mask {m} misclassified at n={n}"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_weak_classes_match_csgraph_components(self, n):
        fam = reduce_family(n, use_weak=True)
        class_of, reps, mult = weak_family_by_csgraph(n)
        np.testing.assert_array_equal(fam.class_of, class_of)
        np.testing.assert_array_equal(fam.representatives, reps)
        np.testing.assert_array_equal(fam.multiplicities, mult)

    def test_forcing_constant_on_weak_classes(self):
        # the whole point of the reduction: members of one weak class force
        # the same odd sites up to a dihedral symmetry
        fam = reduce_family(3, use_weak=True)
        for cid in range(20):
            want = sorted(
                bin(forced_odd_sites(3, im)).count("1")
                for im in d4_images(3, int(fam.representatives[cid])))
            for m in members(fam, cid).tolist():
                got = sorted(bin(forced_odd_sites(3, im)).count("1")
                             for im in d4_images(3, m))
                assert got == want


class TestClosure:
    """A weak class is the D4 images of one level set of the forced set,
    and the closure is the largest member of that level set."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_same_class_iff_closures_share_an_orbit(self, n):
        fam = reduce_family(n, use_weak=True)
        sample = np.array(mask_sample(n))
        key = np.array([d4_canonical(n, closure(n, int(m))) for m in sample])
        cls = fam.class_of[sample]
        np.testing.assert_array_equal(cls[:, None] == cls[None, :],
                                      key[:, None] == key[None, :])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closure_lies_in_the_class(self, n):
        fam = reduce_family(n, use_weak=True)
        for m in mask_sample(n):
            c = closure(n, m)
            assert c & m == m
            assert forced_odd_sites(n, c) == forced_odd_sites(n, m)
            assert fam.class_of[c] == fam.class_of[m], m


def reference_odd_sites(n):
    """Position mask of each odd site, transposed from `odd_neighbors`."""
    per_pos = odd_neighbors(n)
    return [sum(1 << s for s, om in enumerate(per_pos) if om >> k & 1)
            for k in range((n + 1) ** 2)]


class TestOddSites:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_transpose_of_reference_geometry(self, n):
        assert blocks._odd_sites(n) == tuple(reference_odd_sites(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sharing_census(self, n):
        # (n-1)^2 interior sites, 4(n-1) edge sites shared by two blocks
        # and 4 corner sites shared by four, m = me * e sites per orbit
        _, e, me = blocks._unforced_counts(reduce_family(n))[:3]
        m = me * e
        assert m.tolist() == {1: [4], 2: [4, 4, 1], 3: [4, 8, 4],
                              4: [4, 8, 4, 4, 4, 1]}[n]
        assert m.sum() == (n + 1) ** 2
        assert [m[e == k].sum() for k in (1, 2, 4)] == \
            [(n - 1) ** 2, 4 * (n - 1), 4]


def reference_orbits(n):
    """Odd sites grouped by D4 orbit, in the order of their smallest site:
    site (i, j) is position (j + 1, i + 1) of the (n+1) x (n+1) grid that
    `d4_maps(n + 1)` moves."""
    orbits = {}
    for k in range((n + 1) ** 2):
        orbits.setdefault(min(g[k] for g in d4_maps(n + 1)), []).append(k)
    return [orbits[key] for key in sorted(orbits)]


def zero_marginals(fam, probs):
    """All-zero probabilities of the interior plaquettes, boundary dominoes
    and corner sites of one block: each orbit's unforced count A_o @ probs,
    spread over the orbit's sites and split by the number of positions
    each site touches."""
    q = blocks._unforced_counts(fam)[0] @ probs
    per_site = np.empty((fam.n + 1) ** 2)
    for o, sites in enumerate(reference_orbits(fam.n)):
        per_site[sites] = q[o]
    size = np.array([om.bit_count() for om in reference_odd_sites(fam.n)])
    return per_site[size == 4], per_site[size == 2], per_site[size == 1]


class TestMarginalCounts:
    def test_n2_closed_forms(self):
        fam = reduce_family(2)
        rng = np.random.default_rng(7)
        raw = rng.random(6)
        probs = raw / (fam.multiplicities @ raw)
        p0, p1, p2a, p2d, p3, p4 = probs
        interior, dominoes, corners = zero_marginals(fam, probs)
        # single interior plaquette: only the empty block leaves it clear
        assert interior.shape == (1,)
        assert interior[0] == pytest.approx(p0, abs=1e-14)
        # each domino is clear for the empty block, two of the four single-1
        # blocks, and the opposite adjacent pair
        assert dominoes.shape == (4,)
        np.testing.assert_allclose(dominoes, p0 + 2 * p1 + p2a, atol=1e-14)
        # each corner site is 0 in 8 of the 16 blocks
        assert corners.shape == (4,)
        np.testing.assert_allclose(
            corners, p0 + 3 * p1 + 2 * p2a + p2d + p3, atol=1e-14)

    def test_point_mass_on_empty_block(self):
        fam = reduce_family(3, use_weak=True)
        probs = np.zeros(fam.class_count)
        probs[fam.class_of[0]] = 1.0
        interior, dominoes, corners = zero_marginals(fam, probs)
        assert interior.shape == (4,)
        assert dominoes.shape == (8,)
        np.testing.assert_allclose(interior, 1.0)
        np.testing.assert_allclose(dominoes, 1.0)
        np.testing.assert_allclose(corners, 1.0)

    # the marginals are taken of a `block_bounds.BlockDistribution`, which
    # validates the class probabilities
    def test_rejects_unnormalized(self):
        fam = reduce_family(2)
        with pytest.raises(ValueError, match="sum"):
            block_bounds.BlockDistribution(fam, np.full(6, 0.1))
        with pytest.raises(ValueError, match="negative"):
            probs = np.array([1.5, -0.5 / 4, 0, 0, 0, 0])
            block_bounds.BlockDistribution(fam, probs)

    def test_rejects_wrong_length(self):
        fam = reduce_family(2)
        with pytest.raises(ValueError, match="class probabilities"):
            block_bounds.BlockDistribution(fam, np.ones(5))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_marginals_against_direct_enumeration(self, n):
        # every member site of each orbit, by its own position mask, has
        # the orbit's row and the orbit's sharing number
        fam = reduce_family(n, use_weak=True)
        rng = np.random.default_rng(3)
        raw = rng.random(fam.class_count)
        probs = raw / (fam.multiplicities @ raw)
        mask_prob = probs[fam.class_of]
        a, e = blocks._unforced_counts(fam)[:2]
        orbits = reference_orbits(n)
        assert len(a) == len(e) == len(orbits)
        q = a @ probs
        sites = reference_odd_sites(n)
        masks = np.arange(1 << (n * n))
        for o, members in enumerate(orbits):
            for k in members:
                want = mask_prob[(masks & sites[k]) == 0].sum()
                assert abs(q[o] - want) <= 1e-12
                assert e[o] == 4 // sites[k].bit_count()


def class_closure(k, small, big):
    """Transitive closure of a relation on k classes, as a k x k matrix."""
    rel = np.zeros((k, k), dtype=np.int64)
    rel[small, big] = 1
    while True:
        grown = ((rel + rel @ rel) > 0).astype(np.int64)
        if (grown == rel).all():
            return rel.astype(bool)
        rel = grown


class TestCoverPairs:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("use_weak", [True, False])
    def test_closure_is_inclusion_relation(self, n, use_weak):
        fam = reduce_family(n, use_weak=use_weak)
        masks = np.arange(1 << (n * n))
        sub, sup = np.nonzero((masks[:, None] & ~masks[None, :]) == 0)
        want = np.zeros((fam.class_count,) * 2, dtype=bool)
        want[fam.class_of[sub], fam.class_of[sup]] = True
        np.fill_diagonal(want, False)
        small, big = cover_pairs(fam)
        got = class_closure(fam.class_count, small, big)
        np.fill_diagonal(got, False)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n,use_weak,count,equal", [
        (2, True, 6, 0), (2, False, 6, 0),
        (3, True, 163, 0), (3, False, 339, 73),
        (4, True, 7707, 0), (4, False, 66024, 18624),
    ])
    def test_counts(self, n, use_weak, count, equal):
        # `equal` counts the pairs whose classes lie in one weak class, so
        # their optimal probabilities coincide: a weak family has none
        fam = reduce_family(n, use_weak=use_weak)
        small, big = cover_pairs(fam)
        assert len(small) == len(big) == count
        assert (small != big).all()
        weak = reduce_family(n, use_weak=True).class_of
        eq = (weak[fam.representatives[small]]
              == weak[fam.representatives[big]])
        assert int(eq.sum()) == equal

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("use_weak", [True, False])
    def test_canonical_covers_match_all_masks(self, n, use_weak):
        # covers of the D4-canonical masks alone give every class pair
        fam = reduce_family(n, use_weak=use_weak)
        got, want = cover_pairs(fam), cover_pairs_all_masks(fam)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def test_n4_speed(self):
        fam = reduce_family(4)
        t0 = time.perf_counter()
        cover_pairs(fam)
        assert time.perf_counter() - t0 < 1.0

    def test_chain_elements_are_covers(self):
        fam = reduce_family(2)
        by_rep = {int(r): i for i, r in enumerate(fam.representatives)}
        small, big = cover_pairs(fam)
        pairs = set(zip(small.tolist(), big.tolist()))
        chain = [0b0, 0b1, 0b11, 0b111, 0b1111]
        for a, b in itertools.pairwise(chain):
            assert (by_rep[a], by_rep[b]) in pairs


class TestCache:
    def test_round_trip(self, tmp_path):
        fam = reduce_family(3, use_weak=True)
        path = tmp_path / "fam.npy"
        save_family(fam, path)
        back = load_family(path, fam.n, fam.use_weak)
        assert back.n == 3 and back.use_weak
        np.testing.assert_array_equal(back.class_of, fam.class_of)
        np.testing.assert_array_equal(back.representatives, fam.representatives)
        np.testing.assert_array_equal(back.multiplicities, fam.multiplicities)
        for got, want in ((back.class_of, fam.class_of),
                          (back.representatives, fam.representatives),
                          (back.multiplicities, fam.multiplicities)):
            assert got.dtype == want.dtype

    def test_load_or_build_uses_cache(self, tmp_path):
        fam1 = load_or_build_family(2, cache_dir=tmp_path)
        files = list(tmp_path.glob("*.npy"))
        assert len(files) == 1
        fam2 = load_or_build_family(2, cache_dir=tmp_path)
        np.testing.assert_array_equal(fam1.class_of, fam2.class_of)

    def test_corrupt_cache_raises_then_rebuilds(self, tmp_path):
        fam = load_or_build_family(2, cache_dir=tmp_path)
        path = next(tmp_path.glob("*.npy"))
        path.write_bytes(b"not an array")
        with pytest.raises(ValueError, match="unusable"):
            load_family(path, fam.n, fam.use_weak)
        with pytest.warns(UserWarning, match="rebuilding"):
            back = load_or_build_family(2, cache_dir=tmp_path)
        np.testing.assert_array_equal(back.class_of, fam.class_of)

    @pytest.mark.parametrize("damage", ["half", "empty", "matrix"])
    def test_truncated_or_empty_cache_rebuilds(self, tmp_path, damage):
        fam = load_or_build_family(2, cache_dir=tmp_path)
        path = next(tmp_path.glob("*.npy"))
        data = path.read_bytes()
        if damage == "matrix":  # a whole .npy array, but not one row
            np.save(path, np.zeros((2, 2), dtype=np.int32))
        else:
            path.write_bytes(data[:len(data) // 2] if damage == "half" else b"")
        with pytest.raises(ValueError, match="unusable"):
            load_family(path, 2, True)
        with pytest.warns(UserWarning, match="rebuilding"):
            back = load_or_build_family(2, cache_dir=tmp_path)
        np.testing.assert_array_equal(back.class_of, fam.class_of)
        assert load_family(path, 2, True).class_count == fam.class_count

    def test_cache_of_another_family_rejected(self, tmp_path):
        path = tmp_path / f"blocks_n3_weak_v{blocks.CACHE_VERSION}.npy"
        save_family(reduce_family(2), path)
        held = f"holds version={blocks.CACHE_VERSION}, n=2, use_weak=True"
        with pytest.raises(ValueError, match=held):
            load_family(path, 3, True)
        with pytest.raises(ValueError, match=held):
            load_family(path, 2, False)
        with pytest.warns(UserWarning, match="rebuilding"):
            back = load_or_build_family(3, cache_dir=tmp_path)
        assert back.n == 3 and back.class_count == 47
        assert load_family(path, 3, True).class_count == 47

    def test_out_of_range_representative_rejected(self, tmp_path):
        fam = reduce_family(2)
        path = tmp_path / "fam.npy"
        save_family(BlockFamily(2, True, fam.class_of,
                                fam.representatives + 100,
                                fam.multiplicities), path)
        with pytest.raises(ValueError, match="out of bounds"):
            load_family(path, 2, True)

    def test_misplaced_representative_rejected(self, tmp_path):
        fam = reduce_family(2)
        path = tmp_path / "fam.npy"
        save_family(BlockFamily(2, True, fam.class_of,
                                fam.representatives[::-1],
                                fam.multiplicities), path)
        with pytest.raises(ValueError, match="index mismatch"):
            load_family(path, 2, True)

    def test_interrupted_save_keeps_cache_consistent(self, tmp_path,
                                                     monkeypatch):
        fam = reduce_family(2)
        path = tmp_path / "fam.npy"
        real_save = np.save

        def save_dies_midway(file, arr, **kwargs):
            file.write(b"\x93NUMPY truncated array")
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", save_dies_midway)
        with pytest.raises(OSError, match="disk full"):
            save_family(fam, path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # no temporary left behind

        # a failed overwrite leaves the earlier valid cache loadable
        monkeypatch.setattr(np, "save", real_save)
        save_family(fam, path)
        monkeypatch.setattr(np, "save", save_dies_midway)
        with pytest.raises(OSError, match="disk full"):
            save_family(reduce_family(2, use_weak=False), path)
        back = load_family(path, fam.n, fam.use_weak)
        assert back.use_weak
        np.testing.assert_array_equal(back.class_of, fam.class_of)
        assert [p.name for p in tmp_path.iterdir()] == ["fam.npy"]

    def test_partition_violation_rejected(self, tmp_path):
        fam = reduce_family(2)
        path = tmp_path / "fam.npy"
        bad = BlockFamily.__new__(BlockFamily)
        bad.n = fam.n
        bad.use_weak = fam.use_weak
        bad.class_of = fam.class_of
        bad.representatives = fam.representatives
        bad.multiplicities = fam.multiplicities.copy()
        bad.multiplicities[0] += 1
        save_family(bad, path)
        assert path.exists()
        with pytest.raises(ValueError, match="do not partition the masks"):
            load_family(path, fam.n, fam.use_weak)
