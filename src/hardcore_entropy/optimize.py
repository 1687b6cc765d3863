"""Deterministic maximization over products of boxes and weighted
probability simplices.

Constrained components are mapped to unconstrained coordinates so a
quasi-Newton method applies directly:

* Box(lo, hi): x = lo + (hi - lo) * sigmoid(t).
* Simplex(weights w): x_i = exp(t_i) / sum_j w_j exp(t_j), which satisfies
  sum_i w_i x_i = 1 with x_i > 0.  The three-hex bounds range over such a
  simplex of tile-count probabilities, with weights 1, 3, 3, 1.

Objectives are batched: an objective takes an (m, size) array of points,
one per row, and returns their m values.  A point t is evaluated on the
2d + 1 rows t, t + h e_1, ..., t + h e_d, t - h e_1, ..., t - h e_d
(h = FD_STEP), mapped to x, in one objective call; row 0 is the value and
the central difference of the other rows is d objective/d t.

One stopping rule: the solve stops when the inf-norm of that gradient is
at most `tol`, and a result is converged exactly when that norm (its
`stationarity`) is.  On a simplex d/dt_i = x_i (g_i - lambda w_i), the
log-space KKT residual, so coordinates of tiny probability weigh in at
their own scale.

One start: L-BFGS-B runs once from the domain center t = 0, unless the
center already meets the rule.  The bounds maximized here are smooth
closed forms of at most five parameters, and the center converges each
of them.  No second method runs after L-BFGS, and nothing is random, so
results are reproducible bit-for-bit for a fixed (objective, domain,
settings).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

BOX_EPS = 1e-12
# the one stationarity tolerance: inf-norm of d objective/d t
TOL = 1e-9
FD_STEP = 1e-6
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
        by row along the last axis."""
        x = np.empty_like(t, dtype=float)
        i = 0
        for c in self.components:
            ti = t[..., i:i + c.size]
            if isinstance(c, Box):
                s = 1.0 / (1.0 + np.exp(-ti[..., 0]))
                x[..., i] = np.clip(c.lo + (c.hi - c.lo) * s,
                                    c.lo + BOX_EPS, c.hi - BOX_EPS)
            else:
                e = np.exp(ti - ti.max(axis=-1, keepdims=True))
                # a row sum of products, not a matrix product, so a row
                # rounds the same alone as in a batch
                x[..., i:i + c.size] = e / (e * c.weights).sum(
                    axis=-1, keepdims=True)
            i += c.size
        return x

    def renormalize(self, x) -> np.ndarray:
        """x with each simplex block of each row rescaled to weighted sum 1."""
        x = np.array(x, dtype=float)
        i = 0
        for c in self.components:
            if isinstance(c, Simplex):
                block = x[..., i:i + c.size]
                block /= (block * c.weights).sum(axis=-1, keepdims=True)
            i += c.size
        return x

    def projected_gradient(self, x, g) -> np.ndarray:
        """Gradient projected onto the feasible directions at an interior x."""
        pg = np.array(g, dtype=float)
        i = 0
        for c in self.components:
            if isinstance(c, Simplex):
                w = np.asarray(c.weights)
                gi = pg[i:i + c.size]
                pg[i:i + c.size] = gi - w * (gi @ w) / (w @ w)
            i += c.size
        return pg


@dataclass
class OptimizationResult:
    argmax: np.ndarray
    value: float
    iterations: int
    converged: bool
    stationarity: float
    gradient_norm_at_solution: float

    def meta(self) -> dict:
        """The optimizer fields a bound report carries into its bundle."""
        return {"iterations": self.iterations, "converged": self.converged,
                "stationarity": self.stationarity,
                "gradient_norm": self.gradient_norm_at_solution}


def maximize(objective, domain: Domain, *, tol: float = TOL,
             max_iter: int = MAX_ITER) -> OptimizationResult:
    """Maximize `objective` over `domain` by L-BFGS from the domain center.

    objective takes an (m, domain.size) array of points, one per row, and
    returns their m values.  Evaluating a point t is one call on the rows
    t and t +- FD_STEP e_i, mapped into the domain.  The center t = 0 is
    evaluated first; unless it is already within `tol`, one L-BFGS-B solve
    of at most `max_iter` steps runs from it, and its last iterate is
    evaluated once more.  `stationarity` is the inf-norm of the t-gradient
    there, and the result is converged exactly when it is at most `tol`.
    The x-space projected-gradient norm is reported alongside, from one
    more call on difference probes rescaled back onto each simplex.  A
    non-finite value in any row raises ValueError naming that row's point.
    """
    d = domain.size
    # row 0 is the point itself, rows 1..2d its +- FD_STEP probes
    offsets = FD_STEP * np.vstack([np.zeros(d), np.eye(d), -np.eye(d)])

    def values(x):
        v = np.asarray(objective(x), dtype=float)
        bad = ~np.isfinite(v)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"objective returned non-finite value {v[i]} at {x[i]}")
        return v

    def evaluate(t):
        """The value and the t-gradient (d,) at t (d,)."""
        v = values(domain.to_interior(t + offsets))
        return v[0], (v[1:d + 1] - v[d + 1:]) / (2 * FD_STEP)

    def neg(t):
        f, g = evaluate(t)
        return -f, -g

    t = np.zeros(d)
    f, g = evaluate(t)
    iterations = 0
    if np.abs(g).max() > tol:
        # ftol = 0: only the gradient test (gtol) ends the solve normally
        res = minimize(neg, t, jac=True, method="L-BFGS-B",
                       options={"maxiter": max_iter, "ftol": 0.0,
                                "gtol": tol, "maxcor": 20})
        t, iterations = res.x, res.nit
        f, g = evaluate(t)
    stationarity = float(np.abs(g).max())
    x = domain.to_interior(t)
    v = values(domain.renormalize(x + offsets[1:]))
    gx = (v[:d] - v[d:]) / (2 * FD_STEP)
    gnorm = float(np.linalg.norm(domain.projected_gradient(x, gx)))
    return OptimizationResult(
        argmax=x, value=float(f), iterations=int(iterations),
        converged=stationarity <= tol, stationarity=stationarity,
        gradient_norm_at_solution=gnorm)
