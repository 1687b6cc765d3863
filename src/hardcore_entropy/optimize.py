"""Deterministic multistart maximization over products of boxes and
weighted probability simplices.

Constrained components are mapped to unconstrained coordinates so a
quasi-Newton method applies directly:

* Box(lo, hi): x = lo + (hi - lo) * sigmoid(t).
* Simplex(weights w): x_i = exp(t_i) / sum_j w_j exp(t_j), which satisfies
  sum_i w_i x_i = 1 with x_i > 0.  The three-hex bounds range over such a
  simplex of tile-count probabilities, with weights 1, 3, 3, 1.

Objectives are batched: an objective takes an (m, size) array of points,
one per row, and returns their m values.  A start at t is evaluated on
the 2d + 1 rows t, t + h e_1, ..., t + h e_d, t - h e_1, ..., t - h e_d
(h = FD_STEP), mapped to x; row 0 is the value and the central difference
of the other rows is d objective/d t.  All starts evaluated together make
one objective call.

One stopping rule: a start stops when the inf-norm of that gradient is at
most `tol`, and a result is converged exactly when that norm (its
`stationarity`) is.  On a simplex d/dt_i = x_i (g_i - lambda w_i), the
log-space KKT residual, so coordinates of tiny probability weigh in at
their own scale.

The starts run as one stacked solve.  A start that meets the rule at its
first evaluation is frozen there.  L-BFGS-B minimizes minus the sum of the
other starts' values over their stacked k*d coordinates; the sum
separates, so each d-block of its gradient is one start's own, and the
gtol test on the whole vector is the rule on every block.  Rounding in
the sum can stop a pass (no decrease in the sum, or a failed line
search) with some blocks just above `tol`; those starts are solved again
in a retry pass, a fresh stacked problem with fresh L-BFGS memory.  No
second method runs after L-BFGS; among the multistart results, one that
met the stopping rule outranks one that did not.

Multistart initial points are the domain center (t = 0), then uniform draws
in [-SPREAD, SPREAD]^d from numpy's generator seeded with `seed`, so results
are reproducible bit-for-bit for a fixed (objective, domain, settings, seed).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

BOX_EPS = 1e-12
# the one stationarity tolerance: inf-norm of d objective/d t
TOL = 1e-9
FD_STEP = 1e-6
STARTS = 16
MAX_ITER = 2000  # L-BFGS iteration cap per start
SPREAD = 2.5  # half-width of the t-cube holding the non-center starts
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
    starts_used: int
    starts_converged: int
    converged: bool
    stationarity: float
    gradient_norm_at_solution: float

    def meta(self) -> dict:
        """The optimizer fields a bound report carries into its bundle."""
        return {"iterations": self.iterations, "starts": self.starts_used,
                "starts_converged": self.starts_converged,
                "converged": self.converged, "stationarity": self.stationarity,
                "gradient_norm": self.gradient_norm_at_solution}


def _start_points(dim, starts, seed):
    """The center t = 0, then starts - 1 seeded points in the SPREAD cube."""
    u = np.random.default_rng(seed).random((starts - 1, dim))
    return np.vstack([np.zeros(dim), SPREAD * (2.0 * u - 1.0)])


def maximize(objective, domain: Domain, *, tol: float = TOL,
             max_iter: int = MAX_ITER, seed: int = 0,
             starts: int = STARTS) -> OptimizationResult:
    """Maximize `objective` over `domain` by multistart L-BFGS.

    objective takes an (m, domain.size) array of points, one per row, and
    returns their m values.  Evaluating k starts is one call on the rows
    t and t +- FD_STEP e_i of each start, mapped into the domain.  All
    starts are evaluated once first, and a start already within `tol` is
    frozen.  The others are solved as one stacked, separable L-BFGS
    problem (minus the sum of their values), then the starts left above
    `tol` again as a fresh stacked problem, until none is left, a pass
    converges none, or `max_iter` steps are spent: each start takes at
    most `max_iter` steps.  A start's `stationarity` is the inf-norm of
    its own block of the t-gradient, and the result is converged exactly
    when the winner's is at most `tol`.  The x-space projected-gradient
    norm is reported alongside, from one more call on difference probes
    rescaled back onto each simplex.  Multistart winner is the best value
    among the starts that met the stopping rule (among all starts if none
    did), ties broken by lowest start index.  A non-finite value in any
    row raises ValueError naming that row's point.
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
        """Values (k,) and t-gradients (k, d) of the k starts t (k, d)."""
        x = domain.to_interior(t[:, None, :] + offsets).reshape(-1, d)
        v = values(x).reshape(len(t), 2 * d + 1)
        return v[:, 0].copy(), (v[:, 1:d + 1] - v[:, d + 1:]) / (2 * FD_STEP)

    t = _start_points(d, starts, seed)
    f, g = evaluate(t)
    pending = np.flatnonzero(np.abs(g).max(axis=1) > tol)
    spent = nit_total = 0
    while len(pending) and spent < max_iter:
        seen = {}

        def neg(z):
            fz, gz = evaluate(z.reshape(-1, d))
            seen[z.tobytes()] = fz, gz
            return -fz.sum(), -gz.ravel()

        # ftol = 0: only the gradient test (gtol), on every block at once,
        # ends a pass normally; rounding in the summed value can stop it
        # early with some blocks just above tol
        res = minimize(neg, t[pending].ravel(), jac=True, method="L-BFGS-B",
                       options={"maxiter": max_iter - spent, "ftol": 0.0,
                                "gtol": tol, "maxcor": 20})
        spent += res.nit
        nit_total += res.nit * len(pending)
        # res.x is a point the pass evaluated: its last iterate
        t[pending] = res.x.reshape(-1, d)
        f[pending], g[pending] = seen[res.x.tobytes()]
        left = pending[np.abs(g[pending]).max(axis=1) > tol]
        if len(left) == len(pending):
            break
        pending = left

    stationarity = np.abs(g).max(axis=1)
    done = stationarity <= tol
    best = 0
    for i in range(1, starts):
        # at the optimum, starts agree to within rounding; a start that
        # met the stopping rule outranks one that did not
        if done[i] > done[best] or (done[i] == done[best]
                                    and f[i] > f[best] + 1e-15):
            best = i
    x_best = domain.to_interior(t[best])
    v = values(domain.renormalize(x_best + offsets[1:]))
    gx = (v[:d] - v[d:]) / (2 * FD_STEP)
    gnorm = float(np.linalg.norm(domain.projected_gradient(x_best, gx)))
    return OptimizationResult(
        argmax=x_best, value=float(f[best]), iterations=int(nit_total),
        starts_used=starts, starts_converged=int(done.sum()),
        converged=bool(done[best]), stationarity=float(stationarity[best]),
        gradient_norm_at_solution=gnorm)
