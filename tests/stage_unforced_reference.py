"""The hand-written U_s forms the staged bounds used before `bounds`
derived them from the influence windows, one per lattice, written from
the neighbor counts.  A third route to every U_s, beside the count forms
of `bounds` and the float enumeration of
`oracles.window_probability_exhaustive`.  Each takes all k stage
probabilities and returns the k fractions; the constants are integers, so
the forms evaluate floats, columns or, exactly, `Fraction`s."""

# U_s: the fraction of stage-s sites left unforced once the earlier stages
# are filled, as a function of all stage probabilities.  An unforced site
# needs every earlier neighbor at 0; s = 1 - (1-p) q is P(a dot site is 0
# given its circle neighbors are).  On the tripartite lattices a stage-2
# site has m neighbors in each earlier stage (triangular 3, kagome 2); the
# last exponent is m, not 2, which would overshoot the triangular optimum.


def _unforced_bipartite(m):
    return lambda probs: (1, (1 - probs[0]) ** m)


def _unforced_tripartite(m):
    def unforced(probs):
        p, q = probs[0], probs[1]
        dot = (1 - p) ** m
        return (1, dot, dot * (1 - (1 - p) * q) ** m)
    return unforced


def _unforced_square_moore(probs):
    p, q, r = probs[0], probs[1], probs[2]
    s = 1 - (1 - p) * q
    dot = (1 - p) ** 2
    return (1, dot, dot * s ** 4,
            (1 - p) ** 4 * (1 - q) ** 2 * (1 - s ** 2 * r) ** 2)


STAGE_UNFORCED = {
    "square": _unforced_bipartite(4),
    "honeycomb": _unforced_bipartite(3),
    "triangular": _unforced_tripartite(3),
    "kagome": _unforced_tripartite(2),
    "square_moore": _unforced_square_moore,
}
