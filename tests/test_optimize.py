import functools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardcore_entropy import bounds, cli, optimize
from hardcore_entropy.bounds import (
    STAGE_UNFORCED, THREE_HEX_SCHEMES, bound_three_hex_honeycomb,
    staged_bound,
)
from hardcore_entropy.optimize import (
    STEP, Box, Domain, Simplex, maximize,
)

UNIT = Domain((Box(0.0, 1.0),))


def closed(lattice):
    """The batched closed-form objective `optimize_closed_form` maximizes."""
    return lambda x: bounds._staged_value(lattice, (*x.T, 0.5))


def three_hex(lattice):
    """The batched three-hex objective `optimize_three_hex` maximizes."""
    value = THREE_HEX_SCHEMES[lattice][1]
    return lambda x: value(x.T)


def test_quadratic_box():
    res = maximize(lambda x: -(x[:, 0] - 0.3) ** 2, UNIT)
    assert res.argmax[0] == pytest.approx(0.3, abs=1e-7)
    assert res.value == pytest.approx(0.0, abs=1e-12)
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
    dom = Domain((Simplex((1.0,) * 4),))
    res = maximize(lambda x: -(x * np.log(x)).sum(axis=1), dom)
    assert np.allclose(res.argmax, 0.25, atol=1e-6)
    assert res.value == pytest.approx(math.log(4), abs=1e-10)


def test_weighted_simplex_constraint_holds():
    w = (1.0, 4.0, 4.0, 2.0, 4.0, 1.0)
    dom = Domain((Simplex(w),))
    res = maximize(lambda x: -(x ** 2).sum(axis=1), dom)
    assert abs(np.dot(w, res.argmax) - 1.0) < 1e-10
    assert (res.argmax > 0).all()


def test_determinism_bit_for_bit():
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)), Box(0.0, 1.0)))

    def obj(x):
        return -(x[:, :4] ** 2).sum(axis=1) - (x[:, 4] - 0.4) ** 2

    a = maximize(obj, dom)
    b = maximize(obj, dom)
    assert a.iterations > 0
    assert a.value == b.value
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


def record_solves(monkeypatch):
    """A list that collects the result of each L-BFGS solve."""
    solves = []
    minimize = optimize.minimize

    def counted(fun, x0, **kwargs):
        solves.append(minimize(fun, x0, **kwargs))
        return solves[-1]

    monkeypatch.setattr(optimize, "minimize", counted)
    return solves


def test_one_objective_call_per_evaluation(monkeypatch):
    """One call on d complex-step rows per L-BFGS evaluation, and no
    other call."""
    calls, solves = [], record_solves(monkeypatch)
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)), Box(0.0, 1.0)))

    def obj(x):
        calls.append(len(x))
        return -(x[:, :4] ** 2).sum(axis=1) - (x[:, 4] - 0.4) ** 2

    res = maximize(obj, dom)
    assert res.converged and len(solves) == 1
    assert res.iterations == solves[0].nit > 0
    assert calls == [5] * solves[0].nfev


def test_frozen_start_is_not_moved(monkeypatch):
    # the center of a symmetric objective is stationary from the start:
    # L-BFGS stops after evaluating it, and the center is the result
    solves = record_solves(monkeypatch)
    res = maximize(lambda x: -(x[:, 0] - 0.5) ** 2, UNIT)
    assert len(solves) == 1
    assert solves[0].nit == 0 and solves[0].nfev == 1
    assert res.argmax[0] == 0.5 and res.value == 0.0
    assert res.stationarity == 0.0 and res.iterations == 0 and res.converged


def test_table_objective_calls_work_counter(monkeypatch, capsys):
    """The closed, equalized and three-hex tables (9 solves) take one
    L-BFGS solve each and at most 100 mappings by Domain.to_interior of
    at most 260 rows in all: one per L-BFGS evaluation and one per
    argmax.  Central differences with a separate center and last-iterate
    evaluation took 111 maps of 663 rows."""
    rows, solves = [], record_solves(monkeypatch)
    to_interior = Domain.to_interior

    def counted(self, t):
        rows.append(len(np.atleast_2d(t)))
        return to_interior(self, t)

    monkeypatch.setattr(Domain, "to_interior", counted)
    for scheme in ("closed", "equalized", "three-hex"):
        assert cli.main(["bound", "--scheme", scheme, "--lattice", "all"]) == 0
    assert len(solves) == 9
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
    """(objective, domain, fun) of the nine table solves: the batched
    objective and the domain each driver hands to `maximize`, and the
    function `maximize` hands to L-BFGS-B."""
    solves = []
    maximize_, minimize_ = optimize.maximize, optimize.minimize

    def record_maximize(objective, domain, **kwargs):
        solves.append([objective, domain])
        return maximize_(objective, domain, **kwargs)

    def record_minimize(fun, x0, **kwargs):
        solves[-1].append(fun)
        return minimize_(fun, x0, **kwargs)

    with mock.patch.object(optimize, "maximize", record_maximize), \
            mock.patch.object(optimize, "minimize", record_minimize):
        for lattice in STAGE_UNFORCED:
            bounds.optimize_closed_form(lattice)
        for lattice in bounds.EQUALIZED_CAPS:
            bounds.optimize_equalized(lattice)
        for lattice in THREE_HEX_SCHEMES:
            bounds.optimize_three_hex(lattice)
    assert len(solves) == 9 and all(len(s) == 3 for s in solves)
    return solves


@settings(derandomize=True, deadline=None, max_examples=200)
@given(solve=st.integers(0, 8),
       t=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
       far=st.lists(st.booleans(), min_size=5, max_size=5))
def test_complex_step_gradient_matches_central_difference(solve, t, far):
    """At random t, the value and gradient L-BFGS-B sees for each driver
    objective are its real formula and its central difference.  Complex
    rows map to finite points whose real part is the real map: within two
    ulps at t (a complex quotient multiplies by the reciprocal of its
    denominator), and exactly at |t| = 800."""
    objective, domain, fun = driver_solves()[solve]
    d = domain.size
    t = np.array(t[:d])
    f, g = fun(t)
    h = 1e-6
    v = objective(domain.to_interior(
        t + h * np.vstack([np.zeros(d), np.eye(d), -np.eye(d)])))
    assert -f == pytest.approx(v[0], rel=0, abs=1e-15)
    np.testing.assert_allclose(-g, (v[1:d + 1] - v[d + 1:]) / (2 * h),
                               rtol=0, atol=1e-8)
    steps = 1j * STEP * np.eye(d)
    z = domain.to_interior(t + steps)
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
        return bound_three_hex_honeycomb(tuple(x / (w @ x))).value

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
    assert res.value == pytest.approx(val, abs=5e-4)
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
    """The batched objective `optimize_equalized` maximizes."""
    def value(x):
        p = x[:, 0]
        return bounds._staged_value(
            lattice, (p, p / STAGE_UNFORCED[lattice]((p,))[1]))
    return value


def test_equalized_optima_recovered():
    # equalization is only feasible up to p about 0.2755 on the square
    res = maximize(_equalized_value("square"),
                   Domain((Box(0.0, 0.275),)))
    assert res.value == pytest.approx(0.3921, abs=5e-4)
    assert res.argmax[0] == pytest.approx(0.2015, abs=5e-3)
    # honeycomb equalization feasible while p (1-p)^-3 <= 1, i.e. p <= 0.3177
    res = maximize(_equalized_value("honeycomb"),
                   Domain((Box(0.0, 0.317),)))
    assert res.value == pytest.approx(0.427875, abs=5e-4)
    assert res.argmax[0] == pytest.approx(0.2284, abs=5e-3)


def test_three_hex_triangular_joint_recovery():
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)), Box(0.0, 1.0)))
    res = maximize(three_hex("triangular"), dom)
    assert res.value == pytest.approx(0.3265, abs=5e-4)
    assert res.argmax[4] == pytest.approx(0.25, abs=1e-2)


def test_rejected_variant_formulas_fail_reference_values():
    """The squared-tail tripartite variant and the cubic-tail three-hex
    variant must NOT reproduce the known optima (regression guard for the
    corrected formulas)."""
    from hardcore_entropy.bounds import LN2, entropy_bernoulli, entropy_three_hex

    def tripartite_squared_tail(p, q):
        return (entropy_bernoulli(p) + (1 - p) ** 3
                * (entropy_bernoulli(q) + (1 - (1 - p) * q) ** 2 * LN2)) / 3.0

    # at the reference argmax the variant reads 0.344, not 0.3253
    at_ref = tripartite_squared_tail(0.1457, 0.2501)
    assert at_ref == pytest.approx(0.344, abs=1e-3)
    res = maximize(lambda x: tripartite_squared_tail(*x.T),
                   Domain((Box(0.0, 1.0), Box(0.0, 1.0))))
    assert res.value >= at_ref - 1e-9
    assert abs(res.value - 0.3253) > 5e-3

    def three_hex_cubic_tail(x):
        pvec, q = tuple(x[:4]), x[4]
        p0, p1 = pvec[0], pvec[1]
        a = p0 + 2 * p1 + pvec[2]
        return (entropy_three_hex(pvec)
                + (p0 + 2 * a ** 3) * entropy_bernoulli(q)
                + 3 * (p1 + p0 * (1 - q)) * a ** 3 * (2 - q) ** 2 * LN2) / 9.0

    ref = np.array([0.64, 0.092, 0.025, 0.010])
    ref = ref / (np.array([1, 3, 3, 1]) @ ref)
    at_ref = three_hex_cubic_tail(np.append(ref, 0.25))
    assert at_ref == pytest.approx(0.505, abs=5e-3)
    assert abs(at_ref - 0.3265) > 0.05
