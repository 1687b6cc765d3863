"""Deterministic maximization over products of boxes and weighted
probability simplices.

Constrained components are mapped to unconstrained coordinates so a
quasi-Newton method applies directly:

* Box(lo, hi): x = lo + (hi - lo) * sigmoid(t).
* Simplex(weights w): x_i = exp(t_i) / sum_j w_j exp(t_j), which satisfies
  sum_i w_i x_i = 1 with x_i > 0.  The three-hex bounds range over such a
  simplex of tile-count probabilities, with weights 1, 3, 3, 1.

Objectives are batched and complex-safe: an objective takes an (m, size)
array of points, one per row, and returns their m values, and every
formula it applies is analytic.  A point t is evaluated by a complex step
(Squire & Trapp 1998): one objective call on the d rows t + i h e_k
(h = STEP), mapped to x.  The real part of a row's value is the value at
t, and the imaginary part of row k over h is d objective/d t_k, exact to
rounding since nothing is subtracted.

One stopping rule: the solve stops when the inf-norm of that gradient is
at most `tol`, and a result is converged exactly when that norm (its
`stationarity`) is.  On a simplex d/dt_i = x_i (g_i - lambda w_i), the
log-space KKT residual, so coordinates of tiny probability weigh in at
their own scale.

One start: L-BFGS-B runs once from the domain center t = 0 and stops
there after one evaluation if the center already meets the rule.  The
bounds maximized here are smooth closed forms of at most five
parameters, and the center converges each of them.  No second method
runs after L-BFGS, and nothing is random, so results are reproducible
bit-for-bit for a fixed (objective, domain, settings).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

BOX_EPS = 1e-12
# the one stationarity tolerance: inf-norm of d objective/d t
TOL = 1e-9
# the complex step.  STEP**2 underflows to 0, so a product of two stepped
# quantities adds nothing to the real part, which stays the value at the
# real point (with 1e-30, -(x - 0.5)**2 would read 6.25e-62 at x = 0.5)
STEP = 1e-170
MAX_ITER = 2000  # L-BFGS iteration cap
# how far a probability vector may stray from its simplex: sum and entries
PROB_SUM_TOL = 1e-10
PROB_NEG_TOL = 1e-12


@dataclass(frozen=True)
class Box:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"box needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class Simplex:
    """Points x >= 0 with sum_i weights_i * x_i = 1."""

    weights: tuple

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if len(w) < 1 or any(v <= 0 for v in w):
            raise ValueError("simplex weights must be positive")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class Domain:
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("empty domain")
        for c in comps:
            if not isinstance(c, (Box, Simplex)):
                raise TypeError(f"unsupported component {c!r}")
        object.__setattr__(self, "components", comps)

    @property
    def size(self) -> int:
        return sum(c.size for c in self.components)

    def to_interior(self, t: np.ndarray) -> np.ndarray:
        """Map unconstrained coordinates to feasible interior points, row
        by row along the last axis; complex t gives complex points."""
        x = np.empty(t.shape, np.result_type(t, float))
        i = 0
        for c in self.components:
            ti, xi = t[..., i:i + c.size], x[..., i:i + c.size]
            if isinstance(c, Box):
                # exp(-t) is inf below t of about -709: s is then 0, and
                # the clip below lifts the point to lo + BOX_EPS
                with np.errstate(over="ignore"):
                    s = 1.0 / (1.0 + np.exp(-ti))
                xi[...] = c.lo + (c.hi - c.lo) * s
                np.clip(xi.real, c.lo + BOX_EPS, c.hi - BOX_EPS, out=xi.real)
            else:
                e = np.exp(ti - ti.real.max(axis=-1, keepdims=True))
                # a row sum of products, not a matrix product, so a row
                # rounds the same alone as in a batch
                xi[...] = e / (e * c.weights).sum(axis=-1, keepdims=True)
            i += c.size
        return x


@dataclass
class OptimizationResult:
    argmax: np.ndarray
    value: float
    iterations: int
    converged: bool
    stationarity: float

    def meta(self) -> dict:
        """The optimizer fields a bound report carries into its bundle."""
        return {"iterations": self.iterations, "converged": self.converged,
                "stationarity": self.stationarity}


def maximize(objective, domain: Domain, *, tol: float = TOL,
             max_iter: int = MAX_ITER) -> OptimizationResult:
    """Maximize `objective` over `domain` by one L-BFGS-B solve from the
    domain center.

    objective takes an (m, domain.size) array of points, one per row, and
    returns their m values; it must accept complex points.  Evaluating a
    point t is one call on the d rows t + i STEP e_k, mapped into the
    domain: the real part of any row's value is the value at t, and the
    imaginary parts over STEP are the exact t-gradient.  The solve takes at
    most `max_iter` steps; `stationarity` is the inf-norm of the t-gradient
    at its last iterate, and the result is converged exactly when that is
    at most `tol`.  A center already within `tol` is the result after one
    evaluation.  A non-finite value in any row raises ValueError naming
    that row's real point.
    """
    d = domain.size
    steps = 1j * STEP * np.eye(d)

    def neg(t):
        """Minus the value and minus the t-gradient (d,) at t (d,)."""
        x = domain.to_interior(t + steps)
        v = np.asarray(objective(x))
        bad = ~np.isfinite(v)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"objective returned non-finite value {v[i]} at {x[i].real}")
        return -v[0].real, -v.imag / STEP

    # ftol = 0: only the gradient test (gtol) ends the solve normally
    res = minimize(neg, np.zeros(d), jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iter, "ftol": 0.0, "gtol": tol,
                            "maxcor": 20})
    stationarity = float(np.abs(res.jac).max())
    return OptimizationResult(
        argmax=domain.to_interior(res.x), value=float(-res.fun),
        iterations=int(res.nit), converged=stationarity <= tol,
        stationarity=stationarity)
