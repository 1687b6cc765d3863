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

One solve: BFGS runs from the domain center t = 0, so a center that
meets the rule is the result after one evaluation.  A solve that cannot
meet it, within `max_iter` steps or before a halved step no longer moves
t, is not converged.  Nothing is random, so results are reproducible
bit-for-bit for a fixed (objective, domain, settings).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOX_EPS = 1e-12
# the one stationarity tolerance: inf-norm of d objective/d t
TOL = 1e-9
# the complex step.  STEP**2 underflows to 0, so a product of two stepped
# quantities adds nothing to the real part, which stays the value at the
# real point (with 1e-30, -(x - 0.5)**2 would read 6.25e-62 at x = 0.5)
STEP = 1e-170
MAX_ITER = 2000  # BFGS step cap
# how far a probability vector may stray from its simplex: sum and entries
PROB_SUM_TOL = 1e-10
PROB_NEG_TOL = 1e-12


def on_simplex(p, weights, what: str) -> np.ndarray:
    """The one feasibility contract for a probability array p: entries
    along the first axis, one column per point, real or complex.  Raises
    ValueError unless every real part is >= -PROB_NEG_TOL and, after they
    are clipped at 0, the real part of sum_i weights_i p_i, summed in entry
    order, is within PROB_SUM_TOL of 1.  Returns a copy, clipped and
    divided by that total: complex for complex-step columns, an analytic
    map, so the derivative is that of the normalized point."""
    p = np.array(p, dtype=np.result_type(p, 1.0))
    if (p.real < -PROB_NEG_TOL).any():
        raise ValueError(f"{what} not a distribution: negative entry "
                         f"{p.real.min()}")
    np.maximum(p.real, 0.0, out=p.real)
    total = np.cumsum((p.T * weights).T, axis=0)[-1:]
    bad = ~(abs(total.real - 1.0) <= PROB_SUM_TOL)  # NaN fails too
    if bad.any():
        raise ValueError(f"{what} not a distribution: weighted sum "
                         f"{total.real[bad][0]} != 1")
    p /= total
    return p


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
    """Maximize `objective` over `domain` by BFGS from the domain center.

    objective takes an (m, domain.size) array of points, one per row, and
    returns their m values; it must accept complex points.  Evaluating a
    point t is one call on the d rows t + i STEP e_k, mapped into the
    domain: the real part of any row's value is the value at t, and the
    imaginary parts over STEP are the exact t-gradient.  The inverse
    curvature starts at I / max(|g|_inf, tol), and no step moves a
    coordinate of t by more than 1: a longer one can land where the map
    saturates and the t-gradient vanishes short of a maximum.  A step is
    halved until the value does not fall, by f_new - f or by the
    trapezoid rule s.(g + g_new) / 2, exact on a quadratic, which still
    resolves a rise below the rounding of f near the maximum.  A pair with
    s.y <= 0 leaves the curvature as it is.  `stationarity` is the
    inf-norm of the t-gradient at the last accepted point, and the result
    is converged exactly when that is at most `tol`.  A non-finite value
    in any row raises ValueError naming that row's real point.
    """
    d = domain.size
    steps = 1j * STEP * np.eye(d)

    def evaluate(t):
        """The value, the t-gradient (d,) and the real point at t (d,)."""
        x = domain.to_interior(t + steps)
        v = np.asarray(objective(x))
        bad = ~np.isfinite(v)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"objective returned non-finite value {v[i]} at {x[i].real}")
        return v[0].real, v.imag / STEP, x[0].real

    t = np.zeros(d)
    f, g, x = evaluate(t)
    inverse = np.eye(d) / max(np.abs(g).max(), tol)
    iterations = 0
    while np.abs(g).max() > tol and iterations < max_iter:
        step = inverse @ g
        step /= max(1.0, np.abs(step).max())
        while not np.array_equal(t + step, t):
            f_new, g_new, x_new = evaluate(t + step)
            if f_new >= f or step @ (g + g_new) >= 0:
                break
            step /= 2
        else:
            break  # the value falls along every step that still moves t
        y = g - g_new
        sy = step @ y
        if sy > 0:
            v = np.eye(d) - np.outer(step, y) / sy
            inverse = v @ inverse @ v.T + np.outer(step, step) / sy
        t, f, g, x = t + step, f_new, g_new, x_new
        iterations += 1
    stationarity = float(np.abs(g).max())
    return OptimizationResult(
        argmax=x, value=float(f), iterations=iterations,
        converged=stationarity <= tol, stationarity=stationarity)
