import itertools

import numpy as np
import pytest

from hardcore_entropy import lattices
from hardcore_entropy.lattices import (
    LATTICES, TorusConfiguration, build_lattice, neighbor_sites,
    stage_of, verify_hard_core,
)
from sampler_reference import stage_index


def _sites(lattice, dims):
    """Every site (x, y, t) of the torus."""
    shape = TorusConfiguration.empty(lattice, dims).values.shape
    for y, x, t in np.ndindex(shape):
        yield x, y, t


def _at(site):
    """The index of site (x, y, t) into TorusConfiguration.values."""
    x, y, t = site
    return y, x, t

# Smallest tori with exhaustively checkable configuration spaces.
SMALL_DIMS = {
    "square": (4, 4),
    "square_moore": (4, 4),
    "honeycomb": (2, 2),
    "kagome": (2, 2),
    "triangular": (3, 3),
}


# Reference data: coordination number, and per stage the number of
# neighbors a site has in earlier stages (all of which must carry 0 for it
# to be unforced).
COORDINATION = {
    "square": 4,
    "honeycomb": 3,
    "triangular": 6,
    "kagome": 4,
    "square_moore": 8,
}
EARLIER_NEIGHBORS = {
    "square": (0, 4),
    "honeycomb": (0, 3),
    "triangular": (0, 3, 6),
    "kagome": (0, 2, 4),
    "square_moore": (0, 2, 6, 8),
}


def test_spec_table():
    for lattice, earlier in EARLIER_NEIGHBORS.items():
        spec = build_lattice(lattice)
        parts = len(earlier)
        assert spec.partite_count == parts
        assert len(spec.fill_order) == parts
        dims = tuple(2 * d for d in SMALL_DIMS[lattice])
        counts = {}
        for site in _sites(lattice, dims):
            nbrs = neighbor_sites(spec, dims, site)
            assert len(nbrs) == COORDINATION[lattice]
            stage = stage_of(spec, site)
            n_earlier = sum(stage_of(spec, o) < stage for o in nbrs)
            counts.setdefault(stage, set()).add(n_earlier)
        # constant over every site of a stage
        assert counts == {s: {c} for s, c in enumerate(earlier)}


def test_kagome_is_line_graph_of_honeycomb():
    # kagome vertex (x, y, t) is the honeycomb edge from A site (x, y, 0)
    # to its t-th neighbor; two vertices are adjacent iff the edges meet
    dims = (4, 4)
    honey = build_lattice("honeycomb")
    kagome = build_lattice("kagome")
    edge = {}
    for x, y, t in _sites("kagome", dims):
        b = neighbor_sites(honey, dims, (x, y, 0))[t]
        edge[(x, y, t)] = frozenset({(x, y, 0), b})
    assert len(set(edge.values())) == len(edge)  # a bijection onto edges
    for v, e in edge.items():
        line_nbrs = {u for u, f in edge.items() if u != v and e & f}
        assert set(neighbor_sites(kagome, dims, v)) == line_nbrs


def test_fill_order_labels():
    order = ("circle", "dot", "triangle", "diamond")
    for lattice in LATTICES:
        spec = build_lattice(lattice)
        assert spec.fill_order == order[:spec.partite_count]


def test_square_neighbors_explicit():
    spec = build_lattice("square")
    nbrs = set(neighbor_sites(spec, (6, 6), (0, 0, 0)))
    assert nbrs == {(1, 0, 0), (5, 0, 0), (0, 1, 0), (0, 5, 0)}


def test_moore_neighbors_chebyshev():
    spec = build_lattice("square_moore")
    nbrs = neighbor_sites(spec, (6, 6), (2, 2, 0))
    assert len(nbrs) == 8
    for x, y, t in nbrs:
        assert max(abs(x - 2), abs(y - 2)) == 1 and t == 0


def test_honeycomb_three_neighbors():
    spec = build_lattice("honeycomb")
    for t in (0, 1):
        assert len(neighbor_sites(spec, (4, 4), (1, 1, t))) == 3


def test_out_of_range_site_rejected():
    spec = build_lattice("square")
    with pytest.raises(ValueError):
        neighbor_sites(spec, (4, 4), (4, 0, 0))
    with pytest.raises(ValueError):
        neighbor_sites(build_lattice("kagome"), (4, 4), (0, 0, 3))


@pytest.mark.parametrize("lattice", LATTICES)
def test_neighbor_symmetry_degree_partiteness(lattice):
    spec = build_lattice(lattice)
    # large enough: no parallel edges
    dims = tuple(2 * d for d in SMALL_DIMS[lattice])
    for site in _sites(lattice, dims):
        nbrs = neighbor_sites(spec, dims, site)
        assert len(nbrs) == COORDINATION[lattice]
        assert len(set(nbrs)) == COORDINATION[lattice]
        assert site not in nbrs
        for other in nbrs:
            # involution symmetry
            assert site in neighbor_sites(spec, dims, other)
            # every edge crosses sublattices
            assert stage_of(spec, other) != stage_of(spec, site)


@pytest.mark.parametrize("lattice", LATTICES)
def test_dims_validation(lattice):
    with pytest.raises(ValueError):
        TorusConfiguration.empty(lattice, (1, 4))
    if lattice in ("square", "square_moore"):
        with pytest.raises(ValueError):
            TorusConfiguration.empty(lattice, (5, 4))
    if lattice == "triangular":
        with pytest.raises(ValueError):
            TorusConfiguration.empty(lattice, (4, 6))


def _config_from_bits(lattice, dims, bits, sites):
    cfg = TorusConfiguration.empty(lattice, dims)
    for i, site in enumerate(sites):
        cfg.values[_at(site)] = (bits >> i) & 1
    return cfg


def _scan_violation(spec, dims, cfg, sites):
    # independent route: exhaustive pairwise adjacency scan
    for site in sites:
        if cfg.values[_at(site)]:
            for other in neighbor_sites(spec, dims, site):
                if cfg.values[_at(other)]:
                    return True
    return False


@pytest.mark.parametrize("lattice", LATTICES)
def test_checker_matches_exhaustive_scan(lattice):
    spec = build_lattice(lattice)
    dims = SMALL_DIMS[lattice]
    sites = list(_sites(lattice, dims))
    total = 1 << len(sites)
    # cap the sweep for the 16-site tori; full sweep elsewhere
    if total > 4096:
        rng = np.random.default_rng(0)
        pool = np.unique(np.concatenate([
            np.arange(512), rng.integers(0, total, 3500), [total - 1]]))
    else:
        pool = range(total)
    for bits in pool:
        cfg = _config_from_bits(lattice, dims, int(bits), sites)
        assert verify_hard_core(cfg) == (not _scan_violation(spec, dims, cfg, sites))


def test_verify_trivial_cases():
    cfg = TorusConfiguration.empty("square", (4, 4))
    assert verify_hard_core(cfg)
    cfg.values[2, 1, 0] = 1
    assert verify_hard_core(cfg)
    cfg.values[2, 2, 0] = 1
    assert not verify_hard_core(cfg)


def test_stage_index_counts():
    spec = build_lattice("square")
    cfg = TorusConfiguration.empty("square", (4, 4))
    circle = stage_index(spec, cfg.dims) == 0
    assert cfg.values[circle].mean() == 0.0
    # fully occupy the even sublattice
    for site in _sites("square", cfg.dims):
        if stage_of(spec, site) == 0:
            cfg.values[_at(site)] = 1
    assert verify_hard_core(cfg)
    assert cfg.values[circle].mean() == 1.0
    assert cfg.values[~circle].mean() == 0.0


@pytest.mark.parametrize("lattice", LATTICES)
def test_stage_index_matches_stage_of(lattice):
    # stage_index, the array form the reference sampler uses, agrees with
    # stage_of site by site, and per-stage densities read off it are
    # direct counts
    spec = build_lattice(lattice)
    dims = SMALL_DIMS[lattice]
    rng = np.random.default_rng(1)
    cfg = TorusConfiguration.empty(lattice, dims)
    sites = list(_sites(lattice, dims))
    # random legal configuration by rejection of conflicting placements
    for site in sites:
        if rng.random() < 0.3:
            if not any(cfg.values[_at(o)]
                       for o in neighbor_sites(spec, dims, site)):
                cfg.values[_at(site)] = 1
    assert verify_hard_core(cfg)
    stages = stage_index(spec, dims)
    assert stages.shape == cfg.values.shape
    for site in sites:
        assert stages[_at(site)] == stage_of(spec, site)
    for s in range(spec.partite_count):
        members = [site for site in sites if stage_of(spec, site) == s]
        direct = sum(cfg.values[_at(site)] for site in members) / len(members)
        assert cfg.values[stages == s].mean() == pytest.approx(direct,
                                                               abs=1e-12)


@pytest.mark.parametrize("lattice", LATTICES)
def test_influence_windows_do_not_wrap(lattice, monkeypatch):
    # no window meets itself around the 12 x 12 torus: on a 24 x 24 one
    # every window holds the same sites, at the same offsets from its
    # target and in the same order
    def offsets(stage):
        target, window = lattices.influence_window(lattice, stage)
        w, h = lattices._WINDOW_DIMS
        return stage_of(spec, target), [
            ((x - target[0] + w // 2) % w - w // 2,
             (y - target[1] + h // 2) % h - h // 2, t)
            for x, y, t in window]

    spec = build_lattice(lattice)
    stages = range(1, spec.partite_count)
    small = [offsets(stage) for stage in stages]
    monkeypatch.setattr(lattices, "_WINDOW_DIMS", (24, 24))
    assert [offsets(stage) for stage in stages] == small
    assert [s for s, _ in small] == list(stages)


@pytest.mark.parametrize("lattice", LATTICES)
def test_checker_reads_every_edge(lattice):
    # one planted adjacent pair, for every site of the cell and neighbor
    # offset, at corners where the pair wraps around the torus and inside:
    # the checker reads each edge in one orientation only, so dropping an
    # offset lets one of these pairs through
    spec = build_lattice(lattice)
    dims = (24, 24)
    for x, y in ((0, 0), (23, 23), (11, 5)):
        for t, offsets in enumerate(spec.neighbors):
            for dx, dy, t2 in offsets:
                near = ((x + dx) % 24, (y + dy) % 24, t2)
                far = ((x + dx + 12) % 24, (y + dy + 12) % 24, t2)
                for other, legal in ((near, False), (far, True)):
                    cfg = TorusConfiguration.empty(lattice, dims)
                    cfg.values[_at((x, y, t))] = 1
                    cfg.values[_at(other)] = 1
                    assert verify_hard_core(cfg) is legal
