"""Span and counter wrappers installed around twlab's public calls.

The wrappers live in the benchmark, not in twlab: `install` replaces each
function where its caller looks it up (a module attribute, a name a module
imported from another, or a class attribute) and `uninstall` puts the
originals back. Three kinds of wrapper exist:

* span: records (id, parent, op, name, start, end) for every call;
* timed: accumulates calls and time without a record per call, for calls
  too frequent to span (Hermite evaluations, Painleve table lookups);
* counted: counts calls only (the RHS evaluators and DistTable.cdf), so
  their time stays in the caller's self time.

Self time of a name is the time of its calls minus the time covered by the
wrapped calls made inside them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """In-memory span store with per-name call, total and self times."""

    def __init__(self):
        self.spans = []           # (id, parent, op, name, start, end)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []          # [name, start, child_time, span_id]
        self._next_id = 1
        self.op = 0
        self.enabled = True

    # -- recording ---------------------------------------------------------

    def _enter(self, name, record):
        sid = 0
        if record:
            sid = self._next_id
            self._next_id += 1
        frame = [name, _clock(), 0.0, sid]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = _clock()
        self._stack.pop()
        name, start, child, sid = frame
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if sid:
            parent = next((f[3] for f in reversed(self._stack) if f[3]), 0)
            self.spans.append((sid, parent, self.op, name, start, end))

    def span(self, name):
        """Context manager recording one span (used for benchmark ops)."""
        return _SpanContext(self, name)

    def wrap(self, name, fn, record=True, result_hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, record)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if result_hook is not None:
                result_hook(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ------------------------------------------------------------

    def summary(self):
        names = sorted(set(self.calls) | set(self.counts))
        return {
            n: {
                "calls": self.calls.get(n, 0) or self.counts.get(n, 0),
                "total_s": self.total.get(n, 0.0),
                "self_s": self.self_time.get(n, 0.0),
            }
            for n in names
        }

    def write(self, path, extra=None):
        payload = {
            "fields": ["id", "parent", "op", "name", "start", "end"],
            "spans": self.spans,
            "layers": self.summary(),
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._enter(self.name, True)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame)
        return False


# ---------------------------------------------------------------------------
# Installation into twlab
# ---------------------------------------------------------------------------

def _newton_hook(tracer, args, kwargs, sol):
    tracer.counts["painleve2.newton_iterations"] += sol.newton_iterations


def _nodes_hook(tracer, args, kwargs, sol):
    tracer.counts["rk.solve_rk_nodes"] += len(sol.t)


def _rows_hook(tracer, args, kwargs, table):
    tracer.counts["distribution.tabulate_rows"] += len(table.t)


def install(tracer):
    """Wrap twlab's public calls; returns the list of patches to undo."""
    from twlab import auxsys, distribution, laxframe, oracles, painleve2, rk, specfun
    from twlab import asymptotics

    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    airy_grid = tracer.wrap("specfun.airy_grid", specfun.airy_grid)
    patch(specfun, "airy_grid", airy_grid)
    patch(oracles, "airy_grid", airy_grid)
    gauss = tracer.wrap("specfun.gauss_legendre", specfun.gauss_legendre)
    patch(specfun, "gauss_legendre", gauss)
    patch(oracles, "gauss_legendre", gauss)
    patch(asymptotics, "gauss_legendre", gauss)

    patch(painleve2, "solve_hastings_mcleod",
          tracer.wrap("painleve2.solve", painleve2.solve_hastings_mcleod,
                      result_hook=_newton_hook))
    fast_eval = painleve2.fast_eval

    def counting_fast_eval(solution):
        return tracer.counted("painleve2.rhs_evals", fast_eval(solution))

    patch(painleve2, "fast_eval", counting_fast_eval)
    sol_cls = painleve2.Painleve2Solution
    patch(sol_cls, "eval", tracer.wrap("painleve2.eval", sol_cls.eval, record=False))
    patch(sol_cls, "omega_smooth",
          tracer.wrap("painleve2.eval", sol_cls.omega_smooth, record=False))

    solve_rk = tracer.wrap("rk.solve_rk", rk.solve_rk, result_hook=_nodes_hook)
    patch(rk, "solve_rk", solve_rk)
    patch(auxsys, "solve_rk", solve_rk)
    patch(rk.HermiteTable, "__call__",
          tracer.wrap("rk.hermite", rk.HermiteTable.__call__, record=False))

    for attr in ("integrate_linear", "integrate_nonlinear",
                 "reconstruct_params", "compatibility_residuals"):
        patch(auxsys, attr, tracer.wrap(f"auxsys.{attr}", getattr(auxsys, attr)))

    patch(distribution, "log_F6",
          tracer.wrap("distribution.log_F6", distribution.log_F6, record=False))
    patch(distribution, "log_F2",
          tracer.wrap("distribution.log_F2", distribution.log_F2, record=False))
    patch(distribution, "tabulate",
          tracer.wrap("distribution.tabulate", distribution.tabulate,
                      result_hook=_rows_hook))
    patch(distribution, "quantile",
          tracer.wrap("distribution.quantile", distribution.quantile))
    patch(distribution.DistTable, "cdf",
          tracer.counted("distribution.cdf", distribution.DistTable.cdf))

    patch(laxframe, "psi11_field",
          tracer.wrap("laxframe.psi11_field", laxframe.psi11_field))
    patch(laxframe, "edge_pde_residual",
          tracer.wrap("laxframe.edge_pde_residual", laxframe.edge_pde_residual))
    patch(laxframe, "zero_curvature_residual",
          tracer.wrap("laxframe.zero_curvature", laxframe.zero_curvature_residual))

    patch(oracles, "sample_edge",
          tracer.wrap("oracles.sample_edge", oracles.sample_edge))
    patch(oracles, "ks_distance",
          tracer.wrap("oracles.ks_distance", oracles.ks_distance))
    patch(oracles, "airy_kernel_fredholm",
          tracer.wrap("oracles.fredholm", oracles.airy_kernel_fredholm))
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric name -> (kind, source): "self" is self time of a wrapped name,
# "calls" its call count, "count" a counter kept by a hook or counted wrapper
LAYER_METRICS = {
    "specfun.airy_grid_s": ("self", "specfun.airy_grid"),
    "specfun.airy_grid_calls": ("calls", "specfun.airy_grid"),
    "specfun.gauss_legendre_s": ("self", "specfun.gauss_legendre"),
    "specfun.gauss_legendre_calls": ("calls", "specfun.gauss_legendre"),
    "painleve2.solve_s": ("self", "painleve2.solve"),
    "painleve2.newton_iterations": ("count", "painleve2.newton_iterations"),
    "painleve2.rhs_evals": ("count", "painleve2.rhs_evals"),
    "painleve2.eval_s": ("self", "painleve2.eval"),
    "painleve2.eval_calls": ("calls", "painleve2.eval"),
    "rk.solve_rk_s": ("self", "rk.solve_rk"),
    "rk.solve_rk_nodes": ("count", "rk.solve_rk_nodes"),
    "rk.hermite_s": ("self", "rk.hermite"),
    "rk.hermite_calls": ("calls", "rk.hermite"),
    "auxsys.integrate_linear_s": ("self", "auxsys.integrate_linear"),
    "auxsys.integrate_nonlinear_s": ("self", "auxsys.integrate_nonlinear"),
    "auxsys.reconstruct_params_s": ("self", "auxsys.reconstruct_params"),
    "auxsys.reconstruct_params_calls": ("calls", "auxsys.reconstruct_params"),
    "auxsys.compatibility_residuals_s": ("self", "auxsys.compatibility_residuals"),
    "distribution.log_F6_s": ("self", "distribution.log_F6"),
    "distribution.log_F6_calls": ("calls", "distribution.log_F6"),
    "distribution.tabulate_s": ("self", "distribution.tabulate"),
    "distribution.tabulate_rows": ("count", "distribution.tabulate_rows"),
    "distribution.log_F2_s": ("self", "distribution.log_F2"),
    "distribution.log_F2_calls": ("calls", "distribution.log_F2"),
    "distribution.quantile_s": ("self", "distribution.quantile"),
    "distribution.cdf_calls": ("count", "distribution.cdf"),
    "laxframe.psi11_field_s": ("self", "laxframe.psi11_field"),
    "laxframe.edge_pde_residual_s": ("self", "laxframe.edge_pde_residual"),
    "laxframe.zero_curvature_s": ("self", "laxframe.zero_curvature"),
    "oracles.sample_edge_s": ("self", "oracles.sample_edge"),
    "oracles.ks_distance_s": ("self", "oracles.ks_distance"),
    "oracles.fredholm_s": ("self", "oracles.fredholm"),
    "oracles.fredholm_calls": ("calls", "oracles.fredholm"),
    "cli.self_s": ("self", "cli.main"),
    "cli.artifact_bytes": ("count", "cli.artifact_bytes"),
}


def layer_values(tracer, rounds):
    """Every per-layer metric, per workload round."""
    out = {}
    for metric, (kind, src) in LAYER_METRICS.items():
        if kind == "self":
            v = tracer.self_time.get(src, 0.0)
        elif kind == "calls":
            v = tracer.calls.get(src, 0)
        else:
            v = tracer.counts.get(src, 0)
        out[metric] = v / rounds
    return out
