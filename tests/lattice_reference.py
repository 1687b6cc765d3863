"""Torus neighbor lists, the route the lattice tests check the table by:
`lattices` itself works on the infinite plane (`earlier_neighbors`) and
on whole sublattice planes, and has no site-by-site torus view."""


def neighbor_sites(spec, dims, site) -> list:
    """Nearest neighbors of site (x, y, t) on a w x h torus, as a list of
    sites.  On very small tori some entries may coincide (parallel edges),
    but a site is never its own neighbor."""
    w, h = dims
    x, y, t = site
    return [((x + dx) % w, (y + dy) % h, t2)
            for dx, dy, t2 in spec.neighbors[t]]
