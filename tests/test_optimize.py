import math
import time

import numpy as np
import pytest

from hardcore_entropy import bounds, cli, optimize
from hardcore_entropy.bounds import (
    bound_three_hex_honeycomb, bound_three_hex_triangular, stage_unforced,
    staged_bound,
)
from hardcore_entropy.optimize import (
    FD_STEP, Box, Domain, OptimizationResult, Simplex, maximize,
)

UNIT = Domain((Box(0.0, 1.0),))


def rows(f):
    """A batched objective from one that takes a single point."""
    return lambda x: np.array([f(xi) for xi in x])


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
    assert a.gradient_norm_at_solution == b.gradient_norm_at_solution


def test_non_finite_objective_reports_point():
    with pytest.raises(ValueError, match="non-finite"):
        maximize(lambda x: np.full(len(x), np.nan), UNIT)


def test_non_finite_row_is_named():
    # rows 3 and 4 of the first batch, the -FD_STEP probes, are bad; the
    # error names the first of them
    dom = Domain((Box(0.0, 1.0), Box(0.0, 1.0)))
    first_bad = dom.to_interior(np.array([-FD_STEP, 0.0]))

    def obj(x):
        return np.where(np.arange(len(x)) >= 3, np.inf, 0.0)

    with pytest.raises(ValueError) as err:
        maximize(obj, dom)
    assert str(err.value) == \
        f"objective returned non-finite value inf at {first_bad}"


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
    """One call on the 2d + 1 rows of the center, one per L-BFGS
    evaluation, one more at the solve's last iterate, then one call on 2d
    rows for the x-space gradient norm."""
    calls, solves = [], record_solves(monkeypatch)
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)), Box(0.0, 1.0)))

    def obj(x):
        calls.append(len(x))
        return -(x[:, :4] ** 2).sum(axis=1) - (x[:, 4] - 0.4) ** 2

    res = maximize(obj, dom)
    assert res.converged and len(solves) == 1
    assert res.iterations == solves[0].nit > 0
    assert calls == [11] * (solves[0].nfev + 2) + [10]


def test_frozen_start_is_not_moved(monkeypatch):
    # the center of a symmetric objective is stationary from the start:
    # L-BFGS never runs, and the center is the result
    solves = record_solves(monkeypatch)
    res = maximize(lambda x: -(x[:, 0] - 0.5) ** 2, UNIT)
    assert solves == []
    assert res.argmax[0] == 0.5 and res.value == 0.0
    assert res.stationarity == 0.0 and res.iterations == 0 and res.converged


def test_table_objective_calls_work_counter(monkeypatch, capsys):
    """The closed, equalized and three-hex tables (9 solves) take one
    L-BFGS solve each and at most 120 objective evaluations in all, each
    one mapping of probe points by Domain.to_interior; 16 starts per
    solve took 288 maps."""
    maps, solves = [], record_solves(monkeypatch)
    to_interior = Domain.to_interior

    def counted(self, t):
        maps.append(len(t))
        return to_interior(self, t)

    monkeypatch.setattr(Domain, "to_interior", counted)
    for scheme in ("closed", "equalized", "three-hex"):
        assert cli.main(["bound", "--scheme", scheme, "--lattice", "all"]) == 0
    assert len(solves) == 9
    assert len(maps) <= 120


def test_out_of_range_probe_row_raises():
    # the start maps to p = 1 - 1e-7, inside [0, 1]; its +FD_STEP probe
    # maps to about 1 + 9e-7, and the staged formula rejects that row
    dom = Domain((Box(-1.0 - 1e-7, 3.0 - 1e-7),))
    assert dom.to_interior(np.zeros(1))[0] <= 1.0
    with pytest.raises(ValueError, match="outside"):
        maximize(lambda x: bounds._staged_value("square", (x[:, 0], 0.5)),
                 dom)


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


def test_projected_gradient_small_at_three_hex_optimum():
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)),))

    def obj(x):
        return bound_three_hex_honeycomb(tuple(x)).value

    res = maximize(rows(obj), dom)
    opt = np.asarray(res.argmax)
    g = np.empty(4)
    h = 1e-6
    # probes are rescaled back onto the simplex, where the bound is defined
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        g[i] = (obj(dom.renormalize(opt + e))
                - obj(dom.renormalize(opt - e))) / (2 * h)
    pg = dom.projected_gradient(opt, g)
    assert np.linalg.norm(pg) < 1e-4
    assert res.gradient_norm_at_solution < 1e-4


# The six single-parameter-family optima; each must be recovered within
# 5e-4 in value and 5e-3 in parameters, in under 10 seconds.
RECOVERY_CASES = [
    ("square", lambda x: staged_bound("square", x).value,
     Domain((Box(0.0, 1.0),)), 0.3924, [0.1702]),
    ("honeycomb", lambda x: staged_bound("honeycomb", x).value,
     Domain((Box(0.0, 1.0),)), 0.4279, [0.2202]),
    ("triangular", lambda x: staged_bound("triangular", x).value,
     Domain((Box(0.0, 1.0), Box(0.0, 1.0))), 0.3253, [0.1457, 0.2501]),
    ("kagome", lambda x: staged_bound("kagome", x).value,
     Domain((Box(0.0, 1.0), Box(0.0, 1.0))), 0.3826, [0.1944, 0.3002]),
    ("square_moore", lambda x: staged_bound("square_moore", x).value,
     Domain((Box(0.0, 1.0),) * 3), 0.2858, [0.119, 0.1636, 0.3122]),
    ("three_hex_honeycomb",
     lambda x: bound_three_hex_honeycomb(tuple(x)).value,
     Domain((Simplex((1.0, 3.0, 3.0, 1.0)),)), 0.4304,
     [0.504, 0.110, 0.048, 0.021]),
]


@pytest.mark.parametrize("name,obj,dom,val,params",
                         RECOVERY_CASES, ids=[c[0] for c in RECOVERY_CASES])
def test_known_optimum_recovery(name, obj, dom, val, params):
    t0 = time.monotonic()
    res = maximize(rows(obj), dom)
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
    def value(x):
        p = x[0]
        return staged_bound(lattice,
                            (p, p / stage_unforced(lattice, (p,))[1])).value
    return value


def test_equalized_optima_recovered():
    # equalization is only feasible up to p about 0.2755 on the square
    res = maximize(rows(_equalized_value("square")),
                   Domain((Box(0.0, 0.275),)))
    assert res.value == pytest.approx(0.3921, abs=5e-4)
    assert res.argmax[0] == pytest.approx(0.2015, abs=5e-3)
    # honeycomb equalization feasible while p (1-p)^-3 <= 1, i.e. p <= 0.3177
    res = maximize(rows(_equalized_value("honeycomb")),
                   Domain((Box(0.0, 0.317),)))
    assert res.value == pytest.approx(0.427875, abs=5e-4)
    assert res.argmax[0] == pytest.approx(0.2284, abs=5e-3)


def test_three_hex_triangular_joint_recovery():
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)), Box(0.0, 1.0)))
    res = maximize(
        rows(lambda x: bound_three_hex_triangular(tuple(x[:4]), x[4]).value),
        dom)
    assert res.value == pytest.approx(0.3265, abs=5e-4)
    assert res.argmax[4] == pytest.approx(0.25, abs=1e-2)


def test_rejected_variant_formulas_fail_reference_values():
    """The squared-tail tripartite variant and the cubic-tail three-hex
    variant must NOT reproduce the known optima (regression guard for the
    corrected formulas)."""
    from hardcore_entropy.bounds import LN2, entropy_bernoulli, entropy_three_hex

    def tripartite_squared_tail(x):
        p, q = x
        return (entropy_bernoulli(p) + (1 - p) ** 3
                * (entropy_bernoulli(q) + (1 - (1 - p) * q) ** 2 * LN2)) / 3.0

    # at the reference argmax the variant reads 0.344, not 0.3253
    at_ref = tripartite_squared_tail([0.1457, 0.2501])
    assert at_ref == pytest.approx(0.344, abs=1e-3)
    res = maximize(rows(tripartite_squared_tail),
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
