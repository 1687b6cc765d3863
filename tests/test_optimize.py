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
    FD_STEP, SPREAD, Box, Domain, OptimizationResult, Simplex, _start_points,
    maximize,
)

UNIT = Domain((Box(0.0, 1.0),))


def rows(f):
    """A batched objective from one that takes a single point."""
    return lambda x: np.array([f(xi) for xi in x])


def test_quadratic_box():
    res = maximize(lambda x: -(x[:, 0] - 0.3) ** 2, UNIT, starts=4)
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
        res = maximize(obj, dom, tol=tol, starts=2, max_iter=max_iter)
        assert res.converged == (res.stationarity <= tol)
        assert res.converged == (max_iter > 1)


def test_start_that_met_stopping_rule_wins():
    # x = 1/2 is a stationary local maximum (value 0); the values rise
    # towards x = 1 (1/4), but starts cut short there have not converged
    def obj(x):
        u = x[:, 0] - 0.5
        return u * u * (4 * u - 1)

    short = maximize(obj, UNIT, starts=4, max_iter=2)
    assert short.converged and short.value == 0.0
    full = maximize(obj, UNIT, starts=4)
    assert full.converged and full.value == pytest.approx(0.25, abs=1e-8)


def test_start_points_center_then_seeded_uniform():
    pts = np.array(_start_points(5, 16, seed=3))
    assert pts.shape == (16, 5)
    assert (pts[0] == 0.0).all()
    assert (np.abs(pts[1:]) <= SPREAD).all()
    assert len(np.unique(pts, axis=0)) == 16
    np.testing.assert_array_equal(pts, _start_points(5, 16, seed=3))
    assert not np.array_equal(pts, _start_points(5, 16, seed=4))
    assert len(_start_points(5, 1, seed=3)) == 1
    assert (_start_points(5, 1, seed=3)[0] == 0.0).all()


def test_entropy_simplex_uniform():
    dom = Domain((Simplex((1.0,) * 4),))
    res = maximize(lambda x: -(x * np.log(x)).sum(axis=1), dom, starts=4)
    assert np.allclose(res.argmax, 0.25, atol=1e-6)
    assert res.value == pytest.approx(math.log(4), abs=1e-10)


def test_weighted_simplex_constraint_holds():
    w = (1.0, 4.0, 4.0, 2.0, 4.0, 1.0)
    dom = Domain((Simplex(w),))
    res = maximize(lambda x: -(x ** 2).sum(axis=1), dom, starts=2)
    assert abs(np.dot(w, res.argmax) - 1.0) < 1e-10
    assert (res.argmax > 0).all()


def test_determinism_bit_for_bit():
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)), Box(0.0, 1.0)))

    def obj(x):
        return -(x[:, :4] ** 2).sum(axis=1) - (x[:, 4] - 0.4) ** 2

    a = maximize(obj, dom, seed=7, starts=8)
    b = maximize(obj, dom, seed=7, starts=8)
    assert a.value == b.value
    assert np.array_equal(a.argmax, b.argmax)
    assert a.iterations == b.iterations


def test_non_finite_objective_reports_point():
    with pytest.raises(ValueError, match="non-finite"):
        maximize(lambda x: np.full(len(x), np.nan), UNIT, starts=1)


def test_non_finite_row_is_named():
    # rows 3 and 4 of the first batch, the -FD_STEP probes, are bad; the
    # error names the first of them
    dom = Domain((Box(0.0, 1.0), Box(0.0, 1.0)))
    first_bad = dom.to_interior(np.array([-FD_STEP, 0.0]))

    def obj(x):
        return np.where(np.arange(len(x)) >= 3, np.inf, 0.0)

    with pytest.raises(ValueError) as err:
        maximize(obj, dom, starts=1)
    assert str(err.value) == \
        f"objective returned non-finite value inf at {first_bad}"


def record_passes(monkeypatch, d):
    """A list that collects (stacked starts, nfev) of each L-BFGS pass of
    dimension-d solves."""
    passes = []
    minimize = optimize.minimize

    def counted(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        passes.append((len(x0) // d, res.nfev))
        return res

    monkeypatch.setattr(optimize, "minimize", counted)
    return passes


def test_one_objective_call_per_evaluation(monkeypatch):
    """One call on the 2d + 1 rows of every start, then one call on the
    k (2d + 1) rows of the k stacked starts per L-BFGS evaluation of each
    pass, then one call on 2d rows for the x-space gradient norm."""
    calls, passes = [], record_passes(monkeypatch, 5)
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)), Box(0.0, 1.0)))

    def obj(x):
        calls.append(len(x))
        return -(x[:, :4] ** 2).sum(axis=1) - (x[:, 4] - 0.4) ** 2

    res = maximize(obj, dom, starts=3)
    assert res.converged and res.starts_converged == 3
    assert passes and passes[0][0] == 3
    assert calls[0] == 3 * 11 and calls[-1] == 10
    assert calls[1:-1] == [k * 11 for k, nfev in passes for _ in range(nfev)]


def test_frozen_start_is_not_moved(monkeypatch):
    # the center of a symmetric objective is stationary from the start:
    # it is never handed to L-BFGS, and only the other starts are stacked
    passes = record_passes(monkeypatch, 1)
    res = maximize(lambda x: -(x[:, 0] - 0.5) ** 2, UNIT, starts=4)
    assert passes[0][0] == 3
    assert res.argmax[0] == 0.5 and res.value == 0.0
    assert res.stationarity == 0.0 and res.starts_converged == 4


def test_retry_pass_converges_starts_left_above_tol(monkeypatch):
    # at seed 0 the stacked three-hex triangular solve stops its first
    # pass on the summed value with some blocks just above tol; a fresh
    # stacked pass on those starts alone brings every start within tol
    passes = record_passes(monkeypatch, 5)
    rep = bounds.optimize_three_hex("triangular", seed=0)
    assert len(passes) == 2 and passes[0][0] == 16
    assert 0 < passes[1][0] < 16
    assert rep.meta["starts_converged"] == 16 and rep.meta["converged"]


def test_table_objective_calls_work_counter(monkeypatch, capsys):
    """The closed, equalized and three-hex tables at --seed 1 (9 solves of
    16 starts) stay within 400 objective evaluations, each one mapping of
    probe points by Domain.to_interior, and far below one L-BFGS run per
    start (1,712 evaluations, 144 runs)."""
    maps, passes = [], record_passes(monkeypatch, 1)
    to_interior = Domain.to_interior

    def counted(self, t):
        maps.append(len(t))
        return to_interior(self, t)

    monkeypatch.setattr(Domain, "to_interior", counted)
    for scheme in ("closed", "equalized", "three-hex"):
        assert cli.main(["bound", "--scheme", scheme, "--lattice", "all",
                         "--seed", "1"]) == 0
    assert len(maps) <= 400
    assert len(passes) <= 27


def test_out_of_range_probe_row_raises():
    # the start maps to p = 1 - 1e-7, inside [0, 1]; its +FD_STEP probe
    # maps to about 1 + 9e-7, and the staged formula rejects that row
    dom = Domain((Box(-1.0 - 1e-7, 3.0 - 1e-7),))
    assert dom.to_interior(np.zeros(1))[0] <= 1.0
    with pytest.raises(ValueError, match="outside"):
        maximize(lambda x: bounds._staged_value("square", (x[:, 0], 0.5)),
                 dom, starts=1)


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

    res = maximize(rows(obj), dom, seed=0, starts=8)
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
    res = maximize(rows(obj), dom, seed=0, starts=16)
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
                   Domain((Box(0.0, 0.275),)), starts=8)
    assert res.value == pytest.approx(0.3921, abs=5e-4)
    assert res.argmax[0] == pytest.approx(0.2015, abs=5e-3)
    # honeycomb equalization feasible while p (1-p)^-3 <= 1, i.e. p <= 0.3177
    res = maximize(rows(_equalized_value("honeycomb")),
                   Domain((Box(0.0, 0.317),)), starts=8)
    assert res.value == pytest.approx(0.427875, abs=5e-4)
    assert res.argmax[0] == pytest.approx(0.2284, abs=5e-3)


def test_three_hex_triangular_joint_recovery():
    dom = Domain((Simplex((1.0, 3.0, 3.0, 1.0)), Box(0.0, 1.0)))
    res = maximize(
        rows(lambda x: bound_three_hex_triangular(tuple(x[:4]), x[4]).value),
        dom, seed=0, starts=16)
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
                   Domain((Box(0.0, 1.0), Box(0.0, 1.0))), starts=8)
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
