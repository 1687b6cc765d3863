import functools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import three_hex_reference
from hardcore_entropy import bounds, cli, optimize
from hardcore_entropy.bounds import (
    SCHEMES, _one_row, _report, _staged_value, staged_bound,
)
from hardcore_entropy.optimize import (
    STEP, Box, Domain, Simplex, maximize,
)

UNIT = Domain((Box(0.0, 1.0),))


def value_at(objective, res):
    """The objective at the argmax, which is what a bound report reads."""
    return objective(res.argmax[None])[0]


def scheme_value(scheme, lattice):
    """The batched objective `optimize_bound` maximizes."""
    stages = SCHEMES[scheme][lattice][1]
    return lambda x: _staged_value(*stages(x.T)[2:])


def closed(lattice):
    """The batched closed-form objective `optimize_bound` maximizes."""
    return scheme_value("closed", lattice)


def three_hex(lattice):
    """The batched three-hex objective `optimize_bound` maximizes."""
    return scheme_value("three-hex", lattice)


def test_quadratic_box():
    def obj(x):
        return -(x[:, 0] - 0.3) ** 2

    res = maximize(obj, UNIT)
    assert res.argmax[0] == pytest.approx(0.3, abs=1e-7)
    assert value_at(obj, res) == pytest.approx(0.0, abs=1e-12)
    assert res.converged


def test_converged_is_stationarity_within_tol():
    # stopped early and run to completion
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)),))

    def obj(x):
        return -(x * np.log(x)).sum(axis=1)

    tol = 1e-9
    for max_iter in (1, 2000):
        res = maximize(obj, dom, tol=tol, max_iter=max_iter)
        assert res.converged == (res.stationarity <= tol)
        assert res.converged == (max_iter > 1)


def test_entropy_simplex_uniform():
    def obj(x):
        return -(x * np.log(x)).sum(axis=1)

    res = maximize(obj, Domain((Simplex((1.0,) * 4),)))
    assert np.allclose(res.argmax, 0.25, atol=1e-6)
    assert value_at(obj, res) == pytest.approx(math.log(4), abs=1e-10)


def test_weighted_simplex_constraint_holds():
    w = (1.0, 4.0, 4.0, 2.0, 4.0, 1.0)
    dom = Domain((Simplex(w),))
    res = maximize(lambda x: -(x ** 2).sum(axis=1), dom)
    assert abs(np.dot(w, res.argmax) - 1.0) < 1e-10
    assert (res.argmax > 0).all()


@settings(derandomize=True, deadline=None)
@given(wc=st.lists(st.tuples(st.floats(0.5, 4.0), st.floats(-2.0, 2.0)),
                   min_size=2, max_size=5))
# an uncapped second step lands where three of the five entries are below
# 1e-80: the t-gradient there reads converged at 3.05, short of the 3.36
# maximum
@example(wc=[(0.50925, 1.54444), (4.0, -1.46618), (0.94954, 0.0),
             (0.50925, 1.54444), (4.0, 0.0)])
# at t-gradient 5e-9 every step that still moves t lowers the rounded value
@example(wc=[(0.77, -1.47), (2.21, 0.02), (1.24, 1.14)])
def test_weighted_entropy_plus_linear_optimum(wc):
    """On Simplex(w), -sum_i w_i x_i ln x_i + c.x peaks at
    x_i proportional to exp(c_i / w_i) (Lagrange: w_i (ln x_i + 1) + lambda
    w_i = c_i)."""
    w, c = (np.array(v) for v in zip(*wc))

    def obj(x):
        return -(w * x * np.log(x)).sum(axis=1) + x @ c

    res = maximize(obj, Domain((Simplex(tuple(w)),)))
    peak = np.exp(c / w) / (w @ np.exp(c / w))
    assert res.converged
    np.testing.assert_allclose(res.argmax, peak, rtol=0, atol=1e-6)


@settings(derandomize=True, deadline=None)
@given(boxes=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.5, 5.0),
                                st.floats(0.1, 0.9)), min_size=1, max_size=5),
       mix=st.lists(st.floats(-1.0, 1.0), min_size=25, max_size=25))
def test_concave_quadratic_box_optimum(boxes, mix):
    """On a product of random boxes, -(x - p).A(x - p) with A positive
    definite peaks at its p inside the boxes."""
    lo, width, frac = (np.array(v) for v in zip(*boxes))
    d = len(boxes)
    m = np.array(mix[:d * d]).reshape(d, d)
    a = m @ m.T + 0.5 * np.eye(d)
    peak = lo + frac * width

    def obj(x):
        return -np.einsum("mi,ij,mj->m", x - peak, a, x - peak)

    res = maximize(obj, Domain(tuple(Box(b, b + h)
                                     for b, h in zip(lo, width))))
    assert res.converged
    np.testing.assert_allclose(res.argmax, peak, rtol=0, atol=1e-6)


def test_determinism_bit_for_bit():
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)), Box(0.0, 1.0)))

    def obj(x):
        return -(x[:, :4] ** 2).sum(axis=1) - (x[:, 4] - 0.4) ** 2

    a = maximize(obj, dom)
    b = maximize(obj, dom)
    assert a.iterations > 0
    assert np.array_equal(a.argmax, b.argmax)
    assert a.iterations == b.iterations
    assert a.stationarity == b.stationarity


def test_non_finite_objective_reports_point():
    with pytest.raises(ValueError, match="non-finite"):
        maximize(lambda x: np.full(len(x), np.nan), UNIT)


def test_non_finite_row_is_named():
    # rows 1 and 2 of the first batch, the steps along t_2 and t_3, are
    # bad; the error names the real point of the first of them
    dom = Domain((Box(0.0, 1.0), Box(0.0, 1.0), Box(0.0, 2.0)))

    def obj(x):
        return np.where(np.arange(len(x)) >= 1, np.inf, 0.0)

    center = np.array([0.5, 0.5, 1.0])
    with pytest.raises(ValueError) as err:
        maximize(obj, dom)
    assert str(err.value) == \
        f"objective returned non-finite value inf at {center}"


def recorded(objective, calls):
    """`objective`, appending each call's rows and values to `calls`."""
    def call(x):
        calls.append((x, objective(x)))
        return calls[-1][1]
    return call


def test_one_objective_call_per_evaluation():
    """One call on d complex-step rows per evaluation, and no other call:
    the result is the real part of the last accepted evaluation."""
    calls = []
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)), Box(0.0, 1.0)))

    def obj(x):
        return -(x[:, :4] ** 2).sum(axis=1) - (x[:, 4] - 0.4) ** 2

    res = maximize(recorded(obj, calls), dom)
    assert res.converged and res.iterations > 0
    assert [len(x) for x, _ in calls] == [5] * len(calls)
    assert len(calls) > res.iterations
    x, v = calls[-1]
    assert value_at(obj, res) == v[0].real
    assert np.array_equal(res.argmax, x[0].real)


def test_frozen_start_is_not_moved():
    # the center of a symmetric objective is stationary from the start:
    # the solve stops after evaluating it, and the center is the result
    def obj(x):
        return -(x[:, 0] - 0.5) ** 2

    calls = []
    res = maximize(recorded(obj, calls), UNIT)
    assert len(calls) == 1
    assert res.argmax[0] == 0.5 and value_at(obj, res) == 0.0
    assert res.stationarity == 0.0 and res.iterations == 0 and res.converged


def test_table_objective_calls_work_counter(monkeypatch, capsys):
    """The closed, equalized and three-hex tables (9 solves) take one
    `maximize` each and at most 100 mappings by Domain.to_interior of at
    most 260 rows in all: one per evaluation, the argmax being the real
    part of one.  Central differences with a separate center and
    last-iterate evaluation took 111 maps of 663 rows."""
    rows, solves = [], []
    to_interior, maximize_ = Domain.to_interior, optimize.maximize

    def counted(self, t):
        rows.append(len(np.atleast_2d(t)))
        return to_interior(self, t)

    def counted_maximize(*args, **kwargs):
        solves.append(maximize_(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(Domain, "to_interior", counted)
    monkeypatch.setattr(optimize, "maximize", counted_maximize)
    for scheme in ("closed", "equalized", "three-hex"):
        assert cli.main(["bound", "--scheme", scheme, "--lattice", "all"]) == 0
    assert len(solves) == 9 and all(r.converged for r in solves)
    assert len(rows) <= 100
    assert sum(rows) <= 260


def test_out_of_range_probe_row_raises():
    # only the real part of a complex-step row is checked: a row just
    # below 1 passes whatever its step, one just past 1 is rejected, also
    # inside an optimizer batch (the start maps to p = 1 + 1e-9)
    objective = closed("square")
    inside = np.array([[0.3 + 1j * STEP], [1.0 - 1e-9 + 1j]])
    assert np.iscomplexobj(objective(inside))
    with pytest.raises(ValueError, match="outside"):
        objective(np.array([[0.3 + 1j * STEP], [1.0 + 1e-9 + 1j * STEP]]))
    dom = Domain((Box(1.0 + 1e-9 - 0.5, 1.0 + 1e-9 + 0.5),))
    assert dom.to_interior(np.zeros(1))[0] > 1.0
    with pytest.raises(ValueError, match="outside"):
        maximize(objective, dom)


def test_gradient_check_bipartite():
    def obj(x):
        return staged_bound("square", x).value

    def grad(x):
        p = x[0]
        # d/dp [ (h_B(p) + (1-p)^4 ln 2) / 2 ]
        return np.array([0.5 * (math.log((1 - p) / p)
                                - 4 * (1 - p) ** 3 * math.log(2))])

    x = np.array([0.2])
    h = 1e-6
    fd = (obj(x + h) - obj(x - h)) / (2 * h)
    np.testing.assert_allclose(grad(x), [fd], rtol=0, atol=1e-5)


@functools.cache
def driver_solves():
    """(objective, domain, evaluations) of the nine table solves: the
    batched objective and the domain each driver hands to `maximize`, and
    for each objective call of its solve the unconstrained rows mapped and
    the values returned."""
    solves, mapped = [], []
    maximize_, to_interior = optimize.maximize, Domain.to_interior

    def record_maximize(objective, domain, **kwargs):
        evaluations = []

        def call(x):
            evaluations.append((mapped[-1], objective(x)))
            return evaluations[-1][1]

        solves.append((objective, domain, evaluations))
        return maximize_(call, domain, **kwargs)

    def record_to_interior(self, t):
        mapped.append(t)
        return to_interior(self, t)

    with mock.patch.object(optimize, "maximize", record_maximize), \
            mock.patch.object(Domain, "to_interior", record_to_interior):
        for scheme, lattices in SCHEMES.items():
            for lattice in lattices:
                bounds.optimize_bound(scheme, lattice)
    assert len(solves) == 9 and all(s[2] for s in solves)
    return solves


def check_complex_step(objective, domain, t, v):
    """v, the values at the complex-step rows of t, holds the real formula
    at t and, over STEP, its central difference."""
    d = domain.size
    h = 1e-6
    w = objective(domain.to_interior(
        t + h * np.vstack([np.zeros(d), np.eye(d), -np.eye(d)])))
    assert v[0].real == pytest.approx(w[0], rel=0, abs=1e-15)
    np.testing.assert_allclose(
        v.imag / STEP, (w[1:d + 1] - w[d + 1:]) / (2 * h), rtol=0, atol=1e-8)


def test_solves_evaluate_complex_steps():
    """Every objective call of the nine table solves is on the d rows
    t + i STEP e_k of one real t, so it reads the value and the
    t-gradient at t."""
    for objective, domain, evaluations in driver_solves():
        d = domain.size
        for rows, v in evaluations:
            t = rows[0].real
            assert np.array_equal(rows, t + 1j * STEP * np.eye(d))
            check_complex_step(objective, domain, t, v)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(solve=st.integers(0, 8),
       t=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
       far=st.lists(st.booleans(), min_size=5, max_size=5))
def test_complex_step_gradient_matches_central_difference(solve, t, far):
    """At random t, the complex-step rows the solves evaluate give each
    driver objective's real formula and its central difference.  Complex
    rows map to finite points whose real part is the real map: within two
    ulps at t (a complex quotient multiplies by the reciprocal of its
    denominator), and exactly at |t| = 800."""
    objective, domain, _ = driver_solves()[solve]
    d = domain.size
    t = np.array(t[:d])
    steps = 1j * STEP * np.eye(d)
    z = domain.to_interior(t + steps)
    check_complex_step(objective, domain, t, objective(z))
    assert np.isfinite(z).all()
    np.testing.assert_allclose(
        z.real, np.broadcast_to(domain.to_interior(t), z.shape),
        rtol=4.5e-16, atol=0)
    t = np.where(far[:d], 800.0, -800.0)
    z = domain.to_interior(t + steps)
    assert np.isfinite(z).all()
    assert (z.real == domain.to_interior(t)).all()


def test_projected_gradient_small_at_three_hex_optimum():
    w = np.array([1.0, 3.0, 3.0, 1.0])
    res = maximize(three_hex("honeycomb"), Domain((Simplex(tuple(w)),)))

    def obj(x):
        # probes are rescaled back onto the simplex, where the bound is
        # defined
        stages = SCHEMES["three-hex"]["honeycomb"][1]
        return _report("honeycomb", "three-hex",
                       *stages(_one_row(x / (w @ x)))).value

    opt = np.asarray(res.argmax)
    g = np.empty(4)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        g[i] = (obj(opt + e) - obj(opt - e)) / (2 * h)
    # the x-space gradient projected onto the simplex's tangent plane
    pg = g - w * (g @ w) / (w @ w)
    assert np.linalg.norm(pg) < 1e-4


# The six single-parameter-family optima; each must be recovered within
# 5e-4 in value and 5e-3 in parameters, in under 10 seconds.
RECOVERY_CASES = [
    ("square", closed("square"),
     Domain((Box(0.0, 1.0),)), 0.3924, [0.1702]),
    ("honeycomb", closed("honeycomb"),
     Domain((Box(0.0, 1.0),)), 0.4279, [0.2202]),
    ("triangular", closed("triangular"),
     Domain((Box(0.0, 1.0), Box(0.0, 1.0))), 0.3253, [0.1457, 0.2501]),
    ("kagome", closed("kagome"),
     Domain((Box(0.0, 1.0), Box(0.0, 1.0))), 0.3826, [0.1944, 0.3002]),
    ("square_moore", closed("square_moore"),
     Domain((Box(0.0, 1.0),) * 3), 0.2858, [0.119, 0.1636, 0.3122]),
    ("three_hex_honeycomb", three_hex("honeycomb"),
     Domain((Simplex((1.0, 3.0, 3.0, 1.0)),)), 0.4304,
     [0.504, 0.110, 0.048, 0.021]),
]


@pytest.mark.parametrize("name,obj,dom,val,params",
                         RECOVERY_CASES, ids=[c[0] for c in RECOVERY_CASES])
def test_known_optimum_recovery(name, obj, dom, val, params):
    t0 = time.monotonic()
    res = maximize(obj, dom)
    assert time.monotonic() - t0 < 10.0
    assert value_at(obj, res) == pytest.approx(val, abs=5e-4)
    assert np.asarray(res.argmax) == pytest.approx(np.asarray(params), abs=5e-3)
    i = 0
    for c in dom.components:
        xi = res.argmax[i:i + c.size]
        if isinstance(c, Box):
            assert c.lo <= xi[0] <= c.hi
        else:
            assert (xi >= 0).all() and abs(np.dot(c.weights, xi) - 1) < 1e-10
        i += c.size


def _equalized_value(lattice):
    """The batched equalized objective `optimize_bound` maximizes."""
    return scheme_value("equalized", lattice)


def test_equalized_optima_recovered():
    # equalization is only feasible up to p about 0.2755 on the square
    obj = _equalized_value("square")
    res = maximize(obj, Domain((Box(0.0, 0.275),)))
    assert value_at(obj, res) == pytest.approx(0.3921, abs=5e-4)
    assert res.argmax[0] == pytest.approx(0.2015, abs=5e-3)
    # honeycomb equalization feasible while p (1-p)^-3 <= 1, i.e. p <= 0.3177
    obj = _equalized_value("honeycomb")
    res = maximize(obj, Domain((Box(0.0, 0.317),)))
    assert value_at(obj, res) == pytest.approx(0.427875, abs=5e-4)
    assert res.argmax[0] == pytest.approx(0.2284, abs=5e-3)


def test_three_hex_triangular_joint_recovery():
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)), Box(0.0, 1.0)))
    obj = three_hex("triangular")
    res = maximize(obj, dom)
    assert value_at(obj, res) == pytest.approx(0.3265, abs=5e-4)
    assert res.argmax[4] == pytest.approx(0.25, abs=1e-2)


def test_rejected_variant_formulas_fail_reference_values():
    """The squared-tail tripartite variant and the cubic-tail three-hex
    variant must NOT reproduce the known optima (regression guard for the
    corrected formulas)."""
    from hardcore_entropy.bounds import LN2, entropy_bernoulli

    def tripartite_squared_tail(p, q):
        return (entropy_bernoulli(p) + (1 - p) ** 3
                * (entropy_bernoulli(q) + (1 - (1 - p) * q) ** 2 * LN2)) / 3.0

    # at the reference argmax the variant reads 0.344, not 0.3253
    at_ref = tripartite_squared_tail(0.1457, 0.2501)
    assert at_ref == pytest.approx(0.344, abs=1e-3)

    def obj(x):
        return tripartite_squared_tail(*x.T)

    res = maximize(obj, Domain((Box(0.0, 1.0), Box(0.0, 1.0))))
    assert value_at(obj, res) >= at_ref - 1e-9
    assert abs(value_at(obj, res) - 0.3253) > 5e-3

    def three_hex_cubic_tail(x):
        pvec, q = tuple(x[:4]), x[4]
        p0, p1 = pvec[0], pvec[1]
        a = p0 + 2 * p1 + pvec[2]
        return (three_hex_reference.cluster_entropy(pvec)
                + (p0 + 2 * a ** 3) * entropy_bernoulli(q)
                + 3 * (p1 + p0 * (1 - q)) * a ** 3 * (2 - q) ** 2 * LN2) / 9.0

    ref = np.array([0.64, 0.092, 0.025, 0.010])
    ref = ref / (np.array([1, 3, 3, 1]) @ ref)
    at_ref = three_hex_cubic_tail(np.append(ref, 0.25))
    assert at_ref == pytest.approx(0.505, abs=5e-3)
    assert abs(at_ref - 0.3265) > 0.05
