"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces public functions of the package's modules with
wrappers that open a span on entry and close it on exit, and restores the
originals on ``uninstall()``.  Spans nest along the call stack.  When a
span closes, its duration goes to its name's total (only when no enclosing
span has the same name, so nested calls are not counted twice), its
duration minus its children's goes to its name's self time, and hooks add
work counts read from the call's arguments and result.  ``end_op(scale)``
rescales an op's span times to the host's nominal speed, as the harness
does for op wall times.  Nothing under ``src/`` knows about the tracer.

A name a module imported from another module (``from .blocks import
boundary_marginals``) is a second reference to the same function, so each
wrapper is set on every module that holds the original.  A hook whose
function a later version of the package no longer has is skipped and
reported, and its metrics read 0.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict

from hardcore_entropy import (
    block_bounds,
    blocks,
    bounds,
    cli,
    lattices,
    optimize,
    oracles,
)

MODULES = (cli, blocks, block_bounds, optimize, bounds, oracles, lattices)

FORMULAS = ("bound_bipartite", "bound_tripartite", "bound_square_moore",
            "bound_equalized_bipartite", "bound_three_hex_honeycomb",
            "bound_three_hex_triangular")


class _Span:
    __slots__ = ("name", "start", "child_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.children = []
        self.start = time.perf_counter()


class Tracer:
    def __init__(self):
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._op_total_s = defaultdict(float)
        self._op_self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.skipped = []
        self._stack = []
        self._patches = []
        self._build()

    # ---------------------------------------------------------- spans

    def _close(self, span: _Span) -> None:
        dur = time.perf_counter() - span.start
        self._stack.pop()
        self.calls[span.name] += 1
        self._op_self_s[span.name] += dur - span.child_s
        if all(s.name != span.name for s in self._stack):
            self._op_total_s[span.name] += dur
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += dur
            parent.children.append(span.name)

    def _spanned(self, fn, name, after=None):
        """Wrap fn in a span; ``name`` is a string or a function of the
        call's arguments; ``after(span, args, kwargs, result)`` runs on
        success."""
        def wrapper(*args, **kwargs):
            span = _Span(name if isinstance(name, str) else name(args, kwargs))
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, key, amount=lambda result: 1):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += amount(result)
            return result
        return wrapper

    def _patch(self, module, attr, make_wrapper) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.skipped.append(f"{module.__name__}.{attr}")
            return
        wrapped = make_wrapper(original)
        for mod in MODULES:
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original, wrapped))

    # ---------------------------------------------------------- hooks

    def _cache_outcome(self, span, args, kwargs, result):
        kids = set(span.children)
        if "blocks.load" in kids:
            key = "cache_rebuilds" if "blocks.reduce" in kids else "cache_hits"
            self.counts[key] += 1
        elif "blocks.save" in kids:
            self.counts["cache_misses"] += 1

    def _reduced(self, span, args, kwargs, result):
        self.counts["masks"] += 1 << (result.n * result.n)
        self.counts["classes"] += result.class_count

    def _saved(self, span, args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[1]
        self.counts["cache_bytes"] += os.path.getsize(path)

    @staticmethod
    def _marginals_name(default):
        # the first call on a family builds its marginal-count matrices
        def name(args, kwargs):
            family = kwargs.get("family", args[0] if args else None)
            if getattr(family, "_marginal_count_cache", None) is None:
                return "blocks.marginals"
            return default
        return name

    def _vg_called(self, span, args, kwargs, result):
        self.counts["vg_calls"] += 1

    def _maximized(self, span, args, kwargs, result):
        self.counts["converged"] += bool(result.converged)

    def _minimize(self, fn):
        def wrapper(fun, x0, *args, **kwargs):
            method = kwargs.get("method", args[1] if len(args) > 1 else None)
            kind = {"L-BFGS-B": "lbfgs", "Nelder-Mead": "nm"}.get(method,
                                                                  "other")
            first = []
            if kind == "nm":
                inner = fun

                def fun(t, *a):
                    v = inner(t, *a)
                    if not first:
                        first.append(v)
                    return v
            span = _Span(f"optimize.{kind}")
            self._stack.append(span)
            try:
                res = fn(fun, x0, *args, **kwargs)
            finally:
                self._close(span)
            self.counts[f"{kind}_nit"] += int(getattr(res, "nit", 0))
            self.counts[f"{kind}_nfev"] += int(getattr(res, "nfev", 0))
            if kind == "nm" and first and res.fun < first[0]:
                self.counts["nm_gains"] += 1
            return res
        return wrapper

    def _window_closure(self, result):
        # counted only when the enumeration itself asked for its window
        inside = self._stack and self._stack[-1].name == "oracles.window"
        return 2 ** len(result[1]) if inside else 0

    def _sampled(self, span, args, kwargs, result):
        self.counts["sampler_sites"] += result[0].values.size

    # ---------------------------------------------------------- install

    def _build(self) -> None:
        p, s, c = self._patch, self._spanned, self._counted
        p(cli, "main", lambda f: s(f, "cli.main"))
        p(blocks, "reduce_family", lambda f: s(f, "blocks.reduce", self._reduced))
        p(blocks, "load_or_build_family",
          lambda f: s(f, "blocks.load_or_build", self._cache_outcome))
        p(blocks, "load_family", lambda f: s(f, "blocks.load"))
        p(blocks, "save_family", lambda f: s(f, "blocks.save", self._saved))
        p(blocks, "boundary_marginals",
          lambda f: s(f, self._marginals_name("blocks.boundary_marginals")))
        p(block_bounds, "value_and_gradient",
          lambda f: s(f, self._marginals_name("block_bounds.vg"),
                      self._vg_called))
        p(block_bounds, "optimize_block_bound",
          lambda f: s(f, "block_bounds.optimize"))
        p(optimize, "maximize", lambda f: s(f, "optimize.maximize",
                                            self._maximized))
        p(optimize, "minimize", self._minimize)
        p(bounds, "optimize_closed_form", lambda f: s(f, "bounds.closed"))
        p(bounds, "optimize_equalized", lambda f: s(f, "bounds.equalized"))
        p(bounds, "optimize_three_hex", lambda f: s(f, "bounds.three_hex"))
        for name in FORMULAS:
            p(bounds, name, lambda f: c(f, "formula_calls"))
        p(oracles, "strip_entropy", lambda f: s(f, "oracles.strip"))
        p(oracles, "legal_columns", lambda f: c(f, "strip_states", len))
        p(oracles, "window_probability_exhaustive",
          lambda f: s(f, "oracles.window"))
        p(oracles, "influence_window",
          lambda f: c(f, "window_assignments", self._window_closure))
        p(oracles, "fill_in_sample",
          lambda f: s(f, "oracles.sampler", self._sampled))
        for name in ("blocking_constant_lower", "blocking_constant_upper",
                     "density_upper_from_blocking"):
            p(oracles, name, lambda f: s(f, "oracles.blocking"))
        p(lattices, "verify_hard_core",
          lambda f: s(f, "lattices.hardcore_check"))

    def end_op(self, scale: float) -> None:
        """Add the op's span times, multiplied by ``scale``, to the totals."""
        for op, acc in ((self._op_total_s, self.total_s),
                        (self._op_self_s, self.self_s)):
            for name, seconds in op.items():
                acc[name] += seconds * scale
            op.clear()

    def install(self) -> None:
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    # ---------------------------------------------------------- metrics

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}: totals per op over
        ``ops`` traced ops, and means and ratios, which read 0 when
        nothing was counted."""
        t, n, k = self.total_s, self.calls, self.counts

        def per_op(v, unit):
            return (v / ops, unit)

        def ratio(num, den, unit, scale=1.0):
            return ((num / den * scale) if den else 0.0, unit)

        return {
            "cli.main_s": per_op(t["cli.main"], "s/op"),
            "cli.self_s": per_op(self.self_s["cli.main"], "s/op"),
            "blocks.reduce_calls": per_op(n["blocks.reduce"], "count/op"),
            "blocks.reduce_s": per_op(t["blocks.reduce"], "s/op"),
            "blocks.masks": per_op(k["masks"], "count/op"),
            "blocks.classes": per_op(k["classes"], "count/op"),
            "blocks.marginals_s": per_op(t["blocks.marginals"], "s/op"),
            "blocks.cache_hits": per_op(k["cache_hits"], "count/op"),
            "blocks.cache_misses": per_op(k["cache_misses"], "count/op"),
            "blocks.cache_rebuilds": per_op(k["cache_rebuilds"], "count/op"),
            "blocks.cache_load_s": per_op(t["blocks.load"], "s/op"),
            "blocks.cache_save_s": per_op(t["blocks.save"], "s/op"),
            "blocks.cache_bytes": per_op(k["cache_bytes"], "B/op"),
            "block_bounds.vg_calls": per_op(k["vg_calls"], "count/op"),
            "block_bounds.vg_s": per_op(t["block_bounds.vg"], "s/op"),
            "block_bounds.vg_us": ratio(t["block_bounds.vg"],
                                        n["block_bounds.vg"], "us", 1e6),
            "block_bounds.optimize_s": per_op(t["block_bounds.optimize"],
                                              "s/op"),
            "optimize.maximize_calls": per_op(n["optimize.maximize"],
                                              "count/op"),
            "optimize.maximize_s": per_op(t["optimize.maximize"], "s/op"),
            "optimize.lbfgs_runs": per_op(n["optimize.lbfgs"], "count/op"),
            "optimize.lbfgs_nit": per_op(k["lbfgs_nit"], "count/op"),
            "optimize.lbfgs_nfev": per_op(k["lbfgs_nfev"], "count/op"),
            "optimize.lbfgs_s": per_op(t["optimize.lbfgs"], "s/op"),
            "optimize.nm_runs": per_op(n["optimize.nm"], "count/op"),
            "optimize.nm_nit": per_op(k["nm_nit"], "count/op"),
            "optimize.nm_nfev": per_op(k["nm_nfev"], "count/op"),
            "optimize.nm_s": per_op(t["optimize.nm"], "s/op"),
            "optimize.nm_gain_ratio": ratio(k["nm_gains"], n["optimize.nm"],
                                            "ratio"),
            "optimize.converged_ratio": ratio(k["converged"],
                                              n["optimize.maximize"], "ratio"),
            "bounds.closed_s": per_op(t["bounds.closed"], "s/op"),
            "bounds.equalized_s": per_op(t["bounds.equalized"], "s/op"),
            "bounds.three_hex_s": per_op(t["bounds.three_hex"], "s/op"),
            "bounds.formula_calls": per_op(k["formula_calls"], "count/op"),
            "oracles.strip_s": per_op(t["oracles.strip"], "s/op"),
            "oracles.strip_states": per_op(k["strip_states"], "count/op"),
            "oracles.window_s": per_op(t["oracles.window"], "s/op"),
            "oracles.window_assignments": per_op(k["window_assignments"],
                                                 "count/op"),
            "oracles.sampler_s": per_op(t["oracles.sampler"], "s/op"),
            "oracles.sampler_sites": per_op(k["sampler_sites"], "count/op"),
            "oracles.sampler_ns_per_site": ratio(t["oracles.sampler"],
                                                 k["sampler_sites"], "ns",
                                                 1e9),
            "oracles.blocking_s": per_op(t["oracles.blocking"], "s/op"),
            "lattices.hardcore_checks": per_op(n["lattices.hardcore_check"],
                                               "count/op"),
            "lattices.hardcore_check_s": per_op(t["lattices.hardcore_check"],
                                                "s/op"),
        }
