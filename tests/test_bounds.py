from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import stage_unforced_reference
import three_hex_reference
from hardcore_entropy import bounds, optimize
from hardcore_entropy.bounds import (
    LN2, BoundReport, entropy_bernoulli, entropy_three_hex, stage_unforced,
    staged_bound,
)
from hardcore_entropy.lattices import LATTICES, build_lattice
from hardcore_entropy.oracles import (
    fill_in_sample, influence_window, window_probability_exhaustive,
)

# Known optimized values and densities (frozen reference table).
KNOWN_CLOSED = {
    "square": (0.3924, (0.1702, 0.2370)),
    "honeycomb": (0.4279, (0.2202, 0.2371)),
    "triangular": (0.3253, (0.1457, 0.1559, 0.1517)),
    "kagome": (0.3826, (0.1944, 0.1948, 0.1866)),
    "square_moore": (0.2858, (0.119, 0.127, 0.130, 0.126)),
}


def equalized(lattice, p):
    """Bipartite bound with the final stage at p' = p / U_1(p)."""
    return staged_bound(lattice, (p, p / stage_unforced(lattice, (p,))[1]))


def test_entropy_bernoulli_basics():
    assert entropy_bernoulli(0.5) == pytest.approx(LN2, abs=1e-15)
    assert entropy_bernoulli(0.0) == 0.0
    assert entropy_bernoulli(1.0) == 0.0
    # direct evaluation; consistent with the square-lattice bound value
    # 0.3924 = (0.45620 + 0.8298^4 ln 2) / 2
    assert entropy_bernoulli(0.1702) == pytest.approx(0.45620, abs=5e-6)
    with pytest.raises(ValueError):
        entropy_bernoulli(-0.01)
    with pytest.raises(ValueError):
        entropy_bernoulli(1.01)


def test_xlogx_matches_scipy_xlogy():
    from scipy.special import xlogy

    real = np.concatenate([[0.0, 1.0, 5e-324, 1e-300, 0.5],
                           np.linspace(0.0, 1.0, 1001)])
    np.testing.assert_allclose(bounds._xlogx(real), xlogy(real, real),
                               rtol=1e-15, atol=0)
    assert bounds._xlogx(0.0) == bounds._xlogx(1.0) == 0.0
    # complex-step points: the real part is the value, the imaginary part
    # over the step the derivative ln p + 1
    step = 1e-170
    point = real[real > 0] + 1j * step
    got, want = bounds._xlogx(point), xlogy(point, point)
    np.testing.assert_allclose(got.real, want.real, rtol=1e-15, atol=0)
    np.testing.assert_allclose(got.imag / step, want.imag / step,
                               rtol=1e-15, atol=1e-14)
    # a float gives a numpy scalar, which a JSON bundle can hold
    assert type(bounds._xlogx(0.25)) is np.float64
    assert type(entropy_bernoulli(0.25)) is np.float64


def test_bound_bipartite_reference_points():
    rep = staged_bound("square", (0.1702,))
    assert rep.value == pytest.approx(0.3924, abs=5e-5)
    assert rep.densities == pytest.approx((0.1702, 0.2370), abs=5e-4)
    rep = staged_bound("honeycomb", (0.2202,))
    assert rep.value == pytest.approx(0.4279, abs=5e-5)
    assert rep.densities == pytest.approx((0.2202, 0.2371), abs=5e-4)


def test_bound_bipartite_degenerate():
    rep = staged_bound("square", (0.0,))
    assert rep.value == pytest.approx(0.5 * LN2, abs=1e-15)
    assert rep.densities == (0.0, 0.5)


def test_bound_tripartite_reference_points():
    rep = staged_bound("triangular", (0.1457, 0.2501))
    assert rep.value == pytest.approx(0.3253, abs=5e-5)
    assert rep.densities == pytest.approx((0.1457, 0.1559, 0.1517), abs=5e-4)
    rep = staged_bound("kagome", (0.1944, 0.3002))
    assert rep.value == pytest.approx(0.3826, abs=5e-5)
    assert rep.densities == pytest.approx((0.1944, 0.1948, 0.1866), abs=5e-4)


def test_bound_tripartite_degenerate():
    rep = staged_bound("triangular", (0.0, 0.0))
    assert rep.value == pytest.approx(LN2 / 3.0, abs=1e-15)


def test_bound_square_moore_reference_point():
    # q, r recovered from the printed 3-decimal densities, so the evaluated
    # point sits slightly off the exact argmax
    rep = staged_bound("square_moore", (0.119, 0.1636, 0.3122))
    assert rep.value == pytest.approx(0.2858, abs=1e-4)
    assert rep.densities == pytest.approx((0.119, 0.127, 0.130, 0.126), abs=5e-3)
    rep0 = staged_bound("square_moore", (0.0, 0.0, 0.0))
    assert rep0.value == pytest.approx(LN2 / 4.0, abs=1e-15)


def test_equalized_bipartite():
    # square optimum sits near joint density 0.2015
    rep = equalized("square", 0.2015)
    assert rep.value == pytest.approx(0.3921, abs=5e-5)
    assert rep.densities == pytest.approx((0.2015, 0.2015), abs=1e-15)
    rep = equalized("honeycomb", 0.2284)
    assert rep.value == pytest.approx(0.427875, abs=5e-5)
    assert equalized("square", 0.0).value == 0.0


def test_equalized_infeasible():
    # p (1-p)^-4 crosses 1 near p = 0.2755
    assert 0.275 / stage_unforced("square", (0.275,))[1] < 1.0
    with pytest.raises(ValueError, match="outside"):
        equalized("square", 0.30)


def test_staged_bound_params_and_scheme():
    rep = staged_bound("square_moore", (0.1, 0.2, 0.3))
    assert (rep.lattice, rep.scheme) == ("square_moore", "closed")
    assert rep.params == {"p": 0.1, "q": 0.2, "r": 0.3}
    rep = staged_bound("square", (0.2, 0.4))
    assert (rep.lattice, rep.scheme) == ("square", "equalized")
    assert rep.params == {"p": 0.2, "p_prime": 0.4}
    with pytest.raises(ValueError, match="stage probabilities"):
        staged_bound("square", (0.1, 0.2, 0.3))
    with pytest.raises(ValueError, match="unknown lattice 'hexagonal'"):
        staged_bound("hexagonal", (0.1,))


_UNIT = st.floats(0.0, 1.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lattice=st.sampled_from(LATTICES),
       probs=st.lists(_UNIT, min_size=4, max_size=4),
       explicit_final=st.booleans())
def test_staged_bound_matches_window_oracle(lattice, probs, explicit_final):
    """The one formula against the geometry: U_s from exhaustive window
    enumeration, assembled as (1/k) sum_s U_s h_B(p_s)."""
    k = build_lattice(lattice).partite_count
    given = tuple(probs[:k if explicit_final else k - 1])
    stage_probs = given if explicit_final else given + (0.5,)
    unforced = [1.0] + [window_probability_exhaustive(lattice, given, s)
                        for s in range(1, k)]
    rep = staged_bound(lattice, given)
    want = sum(u * entropy_bernoulli(p)
               for u, p in zip(unforced, stage_probs)) / k
    assert rep.value == pytest.approx(want, abs=1e-12)
    assert rep.densities == pytest.approx(
        [p * u for p, u in zip(stage_probs, unforced)], abs=1e-12)
    # the third route, the hand-written forms
    assert unforced == pytest.approx(
        stage_unforced_reference.STAGE_UNFORCED[lattice](stage_probs),
        abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(lattice=st.sampled_from(LATTICES),
       probs=st.lists(_UNIT, min_size=4, max_size=4))
@example(lattice="square_moore", probs=[0.0, 1e-9, 1.0 - 1e-9, 0.0])
@example(lattice="triangular", probs=[1e-200, 1.0, 0.5, 0.0])
def test_unforced_forms_match_hand_reference(lattice, probs):
    """Every U_s counted from its window is the hand-written form within
    1e-14 relative, on every lattice and stage.  The hand forms are
    evaluated exactly on `Fraction`s: in floats their differences such as
    1 - s^2 r lose relative precision where they nearly cancel.  The 1e-300
    floor covers the terms that underflow."""
    k = build_lattice(lattice).partite_count
    probs = tuple(probs[:k])
    want = stage_unforced_reference.STAGE_UNFORCED[lattice](
        tuple(map(Fraction, probs)))
    got = stage_unforced(lattice, probs)
    assert len(got) == k
    for u, w in zip(got, want):
        assert abs(Fraction(u) - w) <= Fraction(1e-14) * w + Fraction(1e-300)


_BATCH = st.lists(st.lists(_UNIT, min_size=5, max_size=5),
                  min_size=1, max_size=11)
_OUT_OF_RANGE = st.sampled_from([-1e-9, 1.0 + 1e-9, -0.5, 2.0, np.nan])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(lattice=st.sampled_from(LATTICES), explicit_final=st.booleans(),
       batch=_BATCH, bad_row=st.integers(0, 10), bad_stage=st.integers(0, 3),
       bad=_OUT_OF_RANGE)
def test_batched_staged_value_matches_staged_bound(
        lattice, explicit_final, batch, bad_row, bad_stage, bad):
    """Row i of the batched formula is the scalar bound's value exactly,
    and one out-of-range row fails the whole batch."""
    k = build_lattice(lattice).partite_count
    width = k if explicit_final else k - 1
    x = np.array(batch)[:, :width]  # the optimizer's (m, size) layout
    final = () if explicit_final else (0.5,)
    values = bounds._staged_value(*bounds._coin_stages(lattice,
                                                       (*x.T, *final)))
    assert values.shape == (len(x),)
    for row, value in zip(x, values):
        assert value == staged_bound(lattice, tuple(row)).value
    x[bad_row % len(x), bad_stage % width] = bad
    with pytest.raises(ValueError, match="outside"):
        bounds._staged_value(*bounds._coin_stages(lattice, (*x.T, *final)))


_ENTRIES = [(scheme, lattice) for scheme, lattices in bounds.SCHEMES.items()
            for lattice in lattices]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(entry=st.sampled_from(_ENTRIES),
       t=st.lists(st.lists(st.floats(-40.0, 40.0), min_size=5, max_size=5),
                  min_size=1, max_size=11))
def test_batched_scheme_value_is_the_report_formula(entry, t):
    """At feasible points mapped from random unconstrained rows, row i of
    each scheme's batched value is its report's value at row i exactly:
    the report is the optimizer's formula."""
    domain, value, report = bounds.SCHEMES[entry[0]][entry[1]]
    x = domain.to_interior(np.array(t)[:, :domain.size])
    values = value(x)
    assert values.shape == (len(x),)
    for row, v in zip(x, values):
        assert v == report(row).value


@settings(derandomize=True, deadline=None, max_examples=150)
@given(lattice=st.sampled_from(sorted(bounds.SCHEMES["three-hex"])),
       batch=_BATCH, bad_row=st.integers(0, 10), bad_column=st.integers(0, 5))
def test_batched_three_hex_rejects_infeasible_rows(lattice, batch, bad_row,
                                                   bad_column):
    """One infeasible row fails the whole batch of the three-hex formula."""
    domain, value, _ = bounds.SCHEMES["three-hex"][lattice]
    x = np.array(batch)[:, :domain.size]
    total = x[:, 0] + 3 * x[:, 1] + 3 * x[:, 2] + x[:, 3]
    assume((total > 0).all())
    x[:, :4] /= total[:, None]
    assert value(x).shape == (len(x),)
    # a negative p_k or q, or (past the last column) p off its simplex
    i = bad_row % len(x)
    if bad_column < x.shape[1]:
        x[i, bad_column] = -1e-9
    else:
        x[i, :4] *= 1.0 + 1e-9
    with pytest.raises(ValueError):
        value(x)


def three_hex_bound(lattice, *point):
    """The three-hex report at (p0, p1, p2, p3), and q on triangular."""
    return bounds.SCHEMES["three-hex"][lattice][2](point)


_TILE_WEIGHTS = np.array([1.0, 3.0, 3.0, 1.0])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(lattice=st.sampled_from(sorted(bounds.SCHEMES["three-hex"])),
       raw=st.lists(_UNIT, min_size=4, max_size=4), q=_UNIT,
       negative=st.one_of(st.none(), st.tuples(
           st.integers(0, 3), st.floats(-optimize.PROB_NEG_TOL, 0.0,
                                        exclude_max=True))))
@example(lattice="honeycomb", raw=[1.0, 0.0, 0.0, 0.0], q=0.0, negative=None)
@example(lattice="triangular", raw=[1.0, 0.0, 0.0, 0.0], q=0.0,
         negative=None)
@example(lattice="triangular", raw=[1.0, 0.0, 0.0, 0.0], q=1.0,
         negative=None)
@example(lattice="triangular", raw=[0.3, 0.1, 0.05, 0.2], q=1.0,
         negative=None)
@example(lattice="triangular", raw=[0.6, 0.1, 0.02, 0.03], q=0.25,
         negative=(2, -optimize.PROB_NEG_TOL))
@example(lattice="honeycomb", raw=[0.5, 0.1, 0.05, 0.02], q=0.5,
         negative=(0, -optimize.PROB_NEG_TOL))
def test_three_hex_staged_bound_is_the_per_cluster_form(lattice, raw, q,
                                                        negative):
    """The staged three-hex report is the per-cluster /6 and /9 form of
    `three_hex_reference` within 1e-15 at feasible (pvec, q), entries a
    hair below 0 read as 0, with the p0..p3 (and q) parameters and one
    density per sublattice."""
    pvec = np.array(raw)
    if negative is not None:
        # entry i a hair below 0, so the entries read as 0 sum to 1 and
        # the row's own sum is within PROB_SUM_TOL of 1
        i, v = negative
        pvec[i] = 0.0
    total = _TILE_WEIGHTS @ pvec
    assume(total > 0)
    pvec /= total
    if negative is not None:
        pvec[i] = v
    names = ("p0", "p1", "p2", "p3")
    if lattice == "honeycomb":
        rep = three_hex_bound(lattice, *pvec)
        value, densities = three_hex_reference.honeycomb(pvec)
    else:
        rep = three_hex_bound(lattice, *pvec, q)
        value, densities = three_hex_reference.triangular(pvec, q)
        names += ("q",)
    assert abs(rep.value - value) <= 1e-15
    assert len(rep.densities) == len(densities)
    np.testing.assert_allclose(rep.densities, densities, rtol=0, atol=1e-15)
    assert tuple(rep.params) == names
    # the entries read as 0, divided by their weighted total
    tiles = np.maximum(pvec, 0.0)
    tiles /= tiles[0] + 3 * tiles[1] + 3 * tiles[2] + tiles[3]
    assert rep.params == dict(zip(names, (*tiles, q)))


def test_three_hex_param_validation():
    with pytest.raises(ValueError):
        entropy_three_hex((0.5, 0.1, 0.1, 0.1))  # not normalized
    with pytest.raises(ValueError):
        entropy_three_hex((1.3, -0.1, 0.0, 0.0))


@pytest.mark.parametrize("lattice", sorted(bounds.SCHEMES["three-hex"]))
@pytest.mark.parametrize("pvec", [(0.0, 0.0, 0.0, 1.0 + 5e-11),
                                  (0.0, -1e-12, 1e-12, 1.0)])
def test_three_hex_report_at_accepted_points(lattice, pvec):
    """A point `check_three_hex` accepts, its sum off 1 by up to
    PROB_SUM_TOL or an entry a hair below 0, gives a report within
    `BoundReport`'s 1e-12 gates: unscaled, these read a bound value of
    -8.3e-12 and a density of 1 + 2e-12."""
    rep = three_hex_bound(lattice, *pvec, *(0.3,) * (lattice != "honeycomb"))
    tiles = [rep.params[name] for name in ("p0", "p1", "p2", "p3")]
    assert _TILE_WEIGHTS @ tiles == pytest.approx(1.0, abs=1e-15)
    assert rep.value >= 0.0
    assert max(rep.densities) <= 1.0


def test_three_hex_rejects_nan():
    # abs(nan - 1) > tol is False: the normalization must fail NaN itself
    with pytest.raises(ValueError, match="not a distribution"):
        bounds.check_three_hex([np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="not a distribution"):
        bounds.check_three_hex(np.array([[1.0, np.nan], [0, 0], [0, 0],
                                         [0, 0]]))


def _normalize_three_hex(pvec):
    total = pvec[0] + 3 * pvec[1] + 3 * pvec[2] + pvec[3]
    return tuple(v / total for v in pvec)


def test_three_hex_honeycomb_reference_point():
    # printed values are rounded (they sum to 0.999); rescale onto the simplex
    rep = three_hex_bound(
        "honeycomb", *_normalize_three_hex((0.504, 0.110, 0.048, 0.021)))
    assert rep.value == pytest.approx(0.4304, abs=2e-4)
    assert rep.densities == pytest.approx((0.2276, 0.2376), abs=5e-3)


def test_three_hex_honeycomb_degenerate():
    rep = three_hex_bound("honeycomb", 1.0, 0.0, 0.0, 0.0)
    assert rep.value == pytest.approx(0.5 * LN2, abs=1e-15)
    assert rep.value == pytest.approx(staged_bound("honeycomb", (0.0,)).value,
                                      abs=1e-15)


def test_three_hex_triangular_reference_point():
    rep = three_hex_bound(
        "triangular", *_normalize_three_hex((0.64, 0.092, 0.025, 0.010)),
        0.25)
    assert rep.value == pytest.approx(0.3265, abs=2e-4)
    assert rep.densities == pytest.approx((0.153, 0.155, 0.151), abs=5e-3)


def test_three_hex_triangular_reduces_to_tripartite():
    # single-tile limit: cluster scheme with empty clusters = plain scheme
    for q in np.linspace(0.0, 1.0, 11):
        lhs = three_hex_bound("triangular", 1.0, 0.0, 0.0, 0.0, q).value
        rhs = staged_bound("triangular", (0.0, q)).value
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_three_hex_triangular_degenerate_q1():
    rep = three_hex_bound("triangular", 1.0, 0.0, 0.0, 0.0, 1.0)
    # every unforced dot occupied: the triangle stage contributes nothing
    assert rep.value == pytest.approx(0.0, abs=1e-12)


def test_bounds_stay_below_reference_estimates():
    reference = {"square": 0.4075, "honeycomb": 0.4360, "triangular": 0.3332}
    rng = np.random.default_rng(2)
    for _ in range(50):
        p, q = rng.random(2) * 0.9
        for rep in (staged_bound("square", (p,)),
                    equalized("square", min(p, 0.27))):
            assert 0.0 <= rep.value <= reference["square"]
        assert staged_bound("honeycomb", (p,)).value <= reference["honeycomb"]
        assert staged_bound("triangular", (p, q)).value <= reference["triangular"]
        assert 0.0 <= staged_bound("kagome", (p, q)).value <= LN2
        assert 0.0 <= staged_bound("square_moore",
                                   (p, q, rng.random())).value <= LN2


def test_report_shape():
    rep = staged_bound("square", (0.1,))
    assert isinstance(rep, BoundReport)
    assert rep.lattice == "square"
    assert len(rep.densities) == 2
    d = rep.as_dict()
    assert set(d) >= {"lattice", "scheme", "value_nats", "params", "densities"}


# ------------------------------------------------------- optimizer drivers

from hardcore_entropy.bounds import optimize_bound  # noqa: E402


@pytest.mark.parametrize("lattice", sorted(KNOWN_CLOSED))
def test_closed_optimum_recovers_table(lattice):
    value, densities = KNOWN_CLOSED[lattice]
    rep = optimize_bound("closed", lattice)
    assert rep.value == pytest.approx(value, abs=5e-4)
    assert rep.densities == pytest.approx(densities, abs=5e-3)
    assert rep.meta["converged"]


def test_equalized_optimum_recovers_table():
    sq = optimize_bound("equalized", "square")
    assert sq.value == pytest.approx(0.3921, abs=5e-4)
    assert sq.densities[0] == pytest.approx(sq.densities[1], abs=1e-9)
    assert sq.densities[0] == pytest.approx(0.2015, abs=5e-3)
    hc = optimize_bound("equalized", "honeycomb")
    assert hc.value == pytest.approx(0.427875, abs=5e-4)
    assert hc.densities[0] == pytest.approx(0.2284, abs=5e-3)


def test_three_hex_optimum_recovers_table():
    hc = optimize_bound("three-hex", "honeycomb")
    assert hc.value == pytest.approx(0.4304, abs=1e-3)
    tri = optimize_bound("three-hex", "triangular")
    assert tri.value == pytest.approx(0.3265, abs=1e-3)
    # cluster bound must beat the single-site scheme it refines
    assert hc.value > optimize_bound("closed", "honeycomb").value
    assert tri.value > optimize_bound("closed", "triangular").value


def test_optimizer_driver_rejects_wrong_lattice():
    for call in (lambda: optimize_bound("closed", "hexagonal"),
                 lambda: build_lattice("hexagonal"),
                 lambda: stage_unforced("hexagonal", (0.1,)),
                 lambda: staged_bound("hexagonal", (0.1,)),
                 lambda: fill_in_sample("hexagonal", (0.1,), (8, 8), 0),
                 lambda: influence_window("hexagonal", 1),
                 lambda: window_probability_exhaustive("hexagonal", (0.1,),
                                                       1)):
        with pytest.raises(ValueError):
            call()
    # an unknown scheme, or a lattice the scheme lacks, names the
    # lattices every scheme supports
    supported = "closed: square, honeycomb, triangular, kagome, square_moore"
    for scheme, lattice in (("equalized", "triangular"),
                            ("three-hex", "square"), ("block", "square"),
                            ("closed", "hexagonal")):
        with pytest.raises(ValueError, match=supported) as info:
            optimize_bound(scheme, lattice)
        assert "equalized: square, honeycomb" in str(info.value)
        assert "three-hex: honeycomb, triangular" in str(info.value)
