#!/usr/bin/env python3
"""Occupancy profiles of the block optima, and strip-entropy convergence.

Part 1 slides a 3x3 window over the even sublattice under three trial
measures (the equalized single-site scheme and the optimized 2x2/3x3
block schemes) and prints the distribution of the number of 1's seen.
The means agree to within 0.01 while the variances grow with block
size, and the 3x3 curve overtakes the flat one between k=3 and k=4.

Part 2 tabulates transfer-matrix strip entropies.  Free-boundary strips
decrease toward the plane value with a ~1/width surface excess;
periodic strips land much closer at the same width.  The widest free
strip of each lattice (at most 14 sites a column) is a ceiling on its
plane entropy, above every bound the package computes.
"""
from hardcore_entropy import blocks, block_bounds, bounds, oracles
from hardcore_entropy.lattices import LATTICES, build_lattice

if __name__ == "__main__":
    gens = {}
    gens[1], _ = block_bounds.equalized_unit_generator(blocks.reduce_family(1))
    for n in (2, 3):
        family = blocks.reduce_family(n)
        gens[n], _ = block_bounds.optimize_block_bound(family)

    profiles = {g: block_bounds.density_profile(3, gen)
                for g, gen in gens.items()}
    print("k   " + "".join(f"  gen {g}x{g}  " for g in sorted(profiles)))
    for k in range(10):
        row = "".join(f"{profiles[g].occupancy_probs[k]:9.5f} "
                      for g in sorted(profiles))
        print(f"{k:<3} {row}")
    for g, prof in sorted(profiles.items()):
        print(f"generator {g}: mean {prof.mean():.4f} "
              f"(density {prof.mean() / 9:.4f}), "
              f"variance {prof.variance():.4f}")

    print()
    print("width   free        periodic")
    for w in range(2, 13, 2):
        free = oracles.strip_entropy("square", w, boundary="free")
        per = oracles.strip_entropy("square", w, boundary="periodic")
        print(f"{w:<7} {free:.8f}  {per:.8f}")
    print("accepted plane value: 0.4075")

    print()
    print("lattice       width  free ceiling  best staged bound")
    for lattice in LATTICES:
        width = (oracles.MAX_STRIP_WIDTH
                 // build_lattice(lattice).sites_per_cell)
        best = max(bounds.optimize_bound(scheme, lattice).value
                   for scheme, table in bounds.SCHEMES.items()
                   if lattice in table)
        print(f"{lattice:<13} {width:>5}  "
              f"{oracles.strip_entropy(lattice, width):.6f}      {best:.6f}")
