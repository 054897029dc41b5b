"""The two workloads: set-up, their rounds, the probes, and the checks.

Every untraced run reports every end-to-end metric, so each workload also
measures the metrics of the other one with a few probes, interleaved with
its own rounds and with the set-up repeats:

* solve-verify: a round is a cold `tw-table` for beta = 6 and for beta = 2
  through the CLI, then one verify-pde plus verify-identities pass on the
  set-up solve. Probe: one 4096-sample block of the beta = 6 edge sampler.
* query-oracle: a round is batches of eval_F6, eval_F2, quantile and
  tabulate calls, one 4096-sample block of the beta = 2 edge sampler, and
  a slice of criterion 8's Fredholm grid. Probe: a solve-verify round.

In solve-verify, untraced, a tick (one small batch of each query call and a
few Fredholm evaluations) follows every step, so the short metrics are
sampled throughout the run.

Each time metric is the median of its samples and each rate the work done
over the time taken by all its batches; the samples are spread over the run.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
import time

import numpy as np

from twlab import auxsys, cli, distribution, laxframe, oracles, painleve2
from twlab.errors import TwlabError

import checks
import refs

clock = time.perf_counter

# verification settings of the HM and aux solves (criteria 2-8)
HM_ARGS = dict(t_min=-13.0, t_max=13.0, n=52001, tol=1e-11)
AUX_ARGS = dict(t_start=12.0, t_end=-11.0)
CLI_CONFIG = {"hm": HM_ARGS, "aux": AUX_ARGS}
TABLE_GRID = "-4.5:3.5:0.02"
TABLE_T = -4.5 + 0.02 * np.arange(401)

SETUP_REPEATS = 3
PROBE_CYCLES = 2          # rounds followed by a probe of the other workload

# query batches (one round runs QUERY_BATCHES of each)
QUERY_BATCHES = 2
F6_BATCH = 100
F2_BATCH = 1000
QUANTILE_BATCH = 15
TABULATE_ROWS = 401
F2_CHECKED = 4            # eval_F2 values per batch checked against Nystrom
Q2_ROUTE_CHECKED = 1      # eval_F6 values per batch checked against the q2 route
Q2_ROUTE_MIN_T = -1.9     # right of the q2 zero, where the q2 route applies

# edge sampling and the determinant (criterion 8: n = 400, 20000 samples)
EDGE_N = 400
EDGE_BLOCK = 4096         # the sampler's own block size
KS_ROUNDS = 5             # 5 x 4096 >= criterion 8's 20000 samples
FRED_GRID = np.linspace(-9.0, 4.5, 271)
FRED_M = 120
FRED_BATCH = 18
LAMBDA_CHECKED = 8        # samples per block checked against LAPACK
TICK_FRED_POINTS = 6

# verify pass (criterion 6 grid and the verify-identities inputs)
PDE_STEP = 1.0 / 64.0
PDE_X = -3.0 + PDE_STEP * np.arange(385)
PDE_T = -5.0 + PDE_STEP * np.arange(385)
TRAJECTORY_T = np.linspace(-10.0, 8.0, 37)
IDENTITY_TUPLES = 1000
IDENTITY_SEED = 7

STREAMS = {"query": 1, "edge": 2, "tick": 4, "probe-edge": 5}

METRICS = ("table6_s", "table2_s", "verify_s", "f6_evals_per_s",
           "f2_evals_per_s", "quantiles_per_s", "tabulate6_rows_per_s",
           "edge_samples_per_s", "fredholm_evals_per_s")


class Run:
    """State of one benchmark run: inputs, solved objects, samples, tallies."""

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures = []      # check failures: an output is wrong
        self.errors = []        # operations that raised or exited nonzero
        self.figures = {}
        self.samples = {m: [] for m in METRICS}
        self.hm = self.aux = self.table6 = None
        self.edge2 = []         # beta = 2 edge samples for the KS gate
        self.edge6 = []         # beta = 6 edge samples for the KS figure
        self.fred = {}          # Fredholm values on FRED_GRID by index
        self.config_path = os.path.join(out_dir, "verification.json")
        with open(self.config_path, "w") as fh:
            json.dump(CLI_CONFIG, fh)
        self._det_cache = {}

    def rng(self, stream, index):
        return np.random.default_rng([self.seed, STREAMS[stream], index])

    def record(self, metric, seconds, items=None):
        """A time sample, or for a rate metric (items, seconds) of one batch."""
        self.samples[metric].append(seconds if items is None else (items, seconds))

    def paused(self):
        return _Paused(self.tracer)

    def op(self, name):
        """Span around one workload operation (a no-op untraced)."""
        if self.tracer is None:
            return _NoSpan()
        self.tracer.op += 1
        return self.tracer.span(name)

    def call(self, fn, *args, **kwargs):
        """One program operation; a twlab error counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except TwlabError as exc:
            self.fail(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def expect(self, failures, figure=None, value=None):
        if figure is not None:
            self.figures[figure] = max(self.figures.get(figure, 0.0), value)
        self.failures.extend(failures)

    def airy_det(self, t):
        t = float(t)
        if t not in self._det_cache:
            self._det_cache[t] = refs.airy_det(t)
        return self._det_cache[t]

    def metrics(self):
        """Times: the median sample. Rates: work done over time taken, summed
        over the run's batches."""
        out = {}
        for m, v in self.samples.items():
            if m.endswith("_per_s"):
                out[m] = sum(n for n, _ in v) / sum(dt for _, dt in v)
            else:
                out[m] = statistics.median(v)
        return out


class _Paused:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.enabled = False

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.enabled = True
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def max_err(a, b):
    return float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float))))


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup(run):
    """Solve HM and the linear aux route, tabulate F6; returns seconds."""
    t0 = clock()
    hm = painleve2.solve_hastings_mcleod(**HM_ARGS)
    aux = auxsys.integrate_linear(hm, **AUX_ARGS)
    table6 = distribution.tabulate(hm, aux, 6, TABLE_T)
    elapsed = clock() - t0
    run.hm, run.aux, run.table6 = hm, aux, table6
    return elapsed


# ---------------------------------------------------------------------------
# Cold table builds through the CLI
# ---------------------------------------------------------------------------

def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = np.array(rows[1:], dtype=float).T
    return dict(zip(rows[0], cols))


def build_table(run, beta):
    """One cold `twlab tw-table` at the verification settings."""
    out = os.path.join(run.out_dir, f"tw{beta}")
    argv = ["tw-table", "--config", run.config_path, "--beta", str(beta),
            f"--t={TABLE_GRID}", "--out", out]
    main = cli.main
    if run.tracer is not None:
        main = run.tracer.wrap("cli.main", cli.main)
    with run.op(f"tw-table-beta{beta}"):
        t0 = clock()
        status = run.call(main, argv)
        run.record(f"table{beta}_s", clock() - t0)
    if status != 0:
        run.fail(f"tw-table --beta {beta} exited with status {status}")
        return
    with run.paused():
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        if run.tracer is not None:
            run.tracer.counts["cli.artifact_bytes"] += sum(
                a["bytes"] for a in manifest["artifacts"])
        run.expect(checks.manifest_ok(status, manifest, out))
        tab = _read_table(os.path.join(out, f"tw{beta}.csv"))
        if beta == 2:
            ref = [run.airy_det(t) for t in tab["t"]]
            run.expect(checks.within("tw2.csv F vs Nystrom", tab["F"], ref, 1e-10),
                       "tw2_vs_nystrom", max_err(tab["F"], ref))
        else:
            run.expect(checks.cdf_shape("tw6.csv", tab["t"], tab["F"]))
            run.expect(checks.pdf_shape("tw6.csv", tab["t"], tab["F"], tab["pdf"]))
            run.expect(checks.tail_slope(tab["t"], tab["logF"], distribution.SCALE_T,
                                         -8.0, refs.tail_slope_internal(-8.0)))


# ---------------------------------------------------------------------------
# The verify pass: the work of verify-pde and verify-identities
# ---------------------------------------------------------------------------

def _verify_work(run):
    hm, aux = run.hm, run.aux
    fld = laxframe.psi11_field(hm, aux, PDE_X, PDE_T)
    r1 = laxframe.edge_pde_residual(fld, stride=1)
    r2 = laxframe.edge_pde_residual(fld, stride=2)
    aux_bad = auxsys.integrate_nonlinear(hm, **AUX_ARGS, b_constraint_scale=1.0)
    fld_bad = laxframe.psi11_field(hm, aux_bad, PDE_X, PDE_T)
    rb = laxframe.edge_pde_residual(fld_bad, stride=1)

    # the tuples verify-identities checks: its generator, seeded with 7
    rng = np.random.default_rng(IDENTITY_SEED)
    worst = dict.fromkeys(checks.IDENTITY_GATES, 0.0)
    for _ in range(IDENTITY_TUPLES):
        t = rng.uniform(-8, 4)
        q2 = rng.uniform(-0.95, 0.95)
        alpha = rng.uniform(-2, 2)
        u = rng.uniform(0.2, 2.0)
        ut = rng.uniform(-2, 2)
        r = auxsys.eval_r_and_integrals(auxsys.params_from_state(t, u, ut, q2, alpha))
        worst["r2_plus_t_half"] = max(worst["r2_plus_t_half"], abs(r.r2 + t / 2))
        worst["r1_minus_half_1_plus_q2"] = max(
            worst["r1_minus_half_1_plus_q2"], abs(r.r1 - (1 + q2) / 2))
    for tv in TRAJECTORY_T:
        p = auxsys.reconstruct_params(aux, hm, float(tv))
        r = auxsys.eval_r_and_integrals(p)
        worst["i0"] = max(worst["i0"], abs(r.i0))
        worst["b_constraint"] = max(worst["b_constraint"], abs(p.b - 2 * p.e1 / 3))
        worst["c_constraint"] = max(worst["c_constraint"], abs(p.c + p.e2 / 3))
        res = auxsys.compatibility_residuals(aux, hm, float(tv))
        worst["compatibility"] = max(worst["compatibility"], max(res.values()))
    worst["zero_curvature"] = max(
        laxframe.zero_curvature_residual(aux, hm, x, -4.0) for x in (-2.0, 0.0, 2.0))
    return r1, r2, rb, worst


def verify_pass(run):
    with run.op("verify-pass"):
        t0 = clock()
        out = run.call(_verify_work, run)
        run.record("verify_s", clock() - t0)
    if out is None:
        return
    r1, r2, rb, worst = out
    run.expect(checks.pde_gates(r1, r2, rb))
    run.expect(checks.identity_gates(worst))
    run.expect([], "pde_residual", r1)
    run.expect([], "richardson_ratio", r2 / r1)
    run.expect([], "inflation", rb / r1)
    for k, v in worst.items():
        run.expect([], f"identity_{k}", v)


def solve_verify_steps(run, index):
    return [lambda: build_table(run, 6), lambda: build_table(run, 2),
            lambda: verify_pass(run)]


# ---------------------------------------------------------------------------
# Queries on the set-up solve
# ---------------------------------------------------------------------------

def _timed_batch(run, name, metric, fn, args_list, items=None):
    with run.op(name):
        t0 = clock()
        out = [run.call(fn, *args) for args in args_list]
        run.record(metric, clock() - t0, items or len(args_list))
    return out


def query_round(run, index, stream="query", batches=QUERY_BATCHES):
    rng = run.rng(stream, index)
    hm, aux, table6 = run.hm, run.aux, run.table6
    for _ in range(batches):
        t6 = rng.uniform(-4.5, 3.5, F6_BATCH)
        t2 = rng.uniform(-8.0, 4.0, F2_BATCH)
        ps = rng.uniform(0.01, 0.99, QUANTILE_BATCH)
        grid = rng.uniform(-4.5, -4.48) + 0.02 * np.arange(TABULATE_ROWS)
        f6 = _timed_batch(run, "eval_F6-batch", "f6_evals_per_s",
                          distribution.eval_F6, [(hm, aux, t) for t in t6])
        f2 = _timed_batch(run, "eval_F2-batch", "f2_evals_per_s",
                          distribution.eval_F2, [(hm, t) for t in t2])
        qs = _timed_batch(run, "quantile-batch", "quantiles_per_s",
                          distribution.quantile, [(table6, p) for p in ps])
        (dense,) = _timed_batch(run, "tabulate", "tabulate6_rows_per_s",
                                distribution.tabulate, [(hm, aux, 6, grid)],
                                items=TABULATE_ROWS)
        if None in f6 or None in f2 or None in qs or dense is None:
            continue
        with run.paused():
            _check_queries(run, t6, f6, t2, f2, ps, qs, dense)


def _check_queries(run, t6, f6, t2, f2, ps, qs, dense):
    hm, aux = run.hm, run.aux
    ref2 = [run.airy_det(t) for t in t2[:F2_CHECKED]]
    run.expect(checks.within("eval_F2 vs Nystrom", f2[:F2_CHECKED], ref2, 1e-10),
               "eval_F2_vs_nystrom", max_err(f2[:F2_CHECKED], ref2))
    right = np.nonzero(t6 > Q2_ROUTE_MIN_T)[0][:Q2_ROUTE_CHECKED]
    q2r = [distribution.eval_F6_q2route(hm, aux, t6[i]) for i in right]
    got = [f6[i] for i in right]
    if got:
        run.expect(checks.within("eval_F6 vs q2 route", got, q2r, 1e-12),
                   "eval_F6_vs_q2route", max_err(got, q2r))
    back = [distribution.eval_F6(hm, aux, q) for q in qs]
    run.expect(checks.within("F6(quantile(p)) - p", back, ps, 1e-8),
               "quantile_roundtrip", max_err(back, ps))
    run.expect(checks.cdf_shape("eval_F6", t6, f6))
    run.expect(checks.cdf_shape("dense F6 table", dense.t, dense.F))
    run.expect(checks.pdf_shape("dense F6 table", dense.t, dense.F, dense.pdf))


# ---------------------------------------------------------------------------
# Oracles: edge sampling and the Airy determinant
# ---------------------------------------------------------------------------

def edge_block(run, beta, count, seed):
    with run.op(f"sample_edge-beta{beta}"):
        t0 = clock()
        s = run.call(oracles.sample_edge, EDGE_N, float(beta), count, seed)
        run.record("edge_samples_per_s", clock() - t0, count)
    if s is None:
        return None
    with run.paused():
        idx = np.sort(np.random.default_rng(seed).choice(count, LAMBDA_CHECKED,
                                                         replace=False))
        ref = refs.edge_lambda_max(EDGE_N, float(beta), count, seed, idx)
        run.expect(checks.within(f"lambda_max beta={beta}", s.lambda_max[idx], ref,
                                 1e-10), "lambda_max_vs_lapack",
                   max_err(s.lambda_max[idx], ref))
    return s


def fredholm_batches(run, indices):
    for part in np.array_split(indices, max(1, len(indices) // FRED_BATCH)):
        grid = FRED_GRID[part]
        vals = _timed_batch(run, "fredholm-batch", "fredholm_evals_per_s",
                            oracles.airy_kernel_fredholm,
                            [(t, FRED_M) for t in grid])
        if None in vals:
            continue
        run.fred.update(zip(part.tolist(), vals))
        with run.paused():
            ref = [run.airy_det(t) for t in grid]
            run.expect(checks.within("fredholm vs Nystrom", vals, ref, 1e-10),
                       "fredholm_vs_nystrom", max_err(vals, ref))
            f2 = [distribution.eval_F2(run.hm, t) for t in grid]
            run.expect(checks.within("fredholm vs eval_F2", vals, f2, 1e-8),
                       "fredholm_vs_eval_F2", max_err(vals, f2))


def oracle_part(run, index):
    seed = int(run.rng("edge", index).integers(0, 2**31))
    s2 = edge_block(run, 2, EDGE_BLOCK, seed)
    if s2 is not None:
        run.edge2.append(s2.samples)
    slices = np.array_split(np.arange(len(FRED_GRID)), KS_ROUNDS)
    fredholm_batches(run, slices[index % KS_ROUNDS])


def ks2_check(run):
    """KS(beta = 2) once criterion 8's sample count has been drawn."""
    if len(run.fred) < len(FRED_GRID) or len(run.edge2) < KS_ROUNDS:
        run.fail("KS check: missing samples or Fredholm values")
        return
    with run.paused():
        vals = [run.fred[i] for i in range(len(FRED_GRID))]
        ref_table = distribution.table_from_values(2, FRED_GRID, vals)
    with run.op("ks_distance"):
        ks2 = run.call(oracles.ks_distance, np.concatenate(run.edge2[:KS_ROUNDS]),
                       ref_table.cdf)
    if ks2 is not None:
        run.expect(checks.ks_bound(ks2), "ks_beta2", ks2)


def ks6_figure(run):
    """KS(beta = 6) against the set-up F6 table: reported, not gated."""
    with run.op("ks_distance"):
        ks6 = run.call(oracles.ks_distance, np.concatenate(run.edge6), run.table6.cdf)
    if ks6 is not None:
        run.expect([], "ks_beta6_not_gated", ks6)


def query_oracle_steps(run, index):
    steps = [lambda: query_round(run, index), lambda: oracle_part(run, index)]
    if index == KS_ROUNDS - 1:
        steps.append(lambda: ks2_check(run))
    return steps


def edge_probe_steps(run, index):
    """A beta = 6 edge block for the solve-verify workload; the last probe
    also takes KS(beta = 6) over all of them."""
    seed = int(run.rng("probe-edge", index).integers(0, 2**31))

    def block():
        s6 = edge_block(run, 6, EDGE_BLOCK, seed)
        if s6 is not None:
            run.edge6.append(s6.samples)
        if index == PROBE_CYCLES - 1 and run.edge6:
            ks6_figure(run)

    return [block]


def tick(run, index):
    """One small query and Fredholm batch between the long operations of an
    untraced run, so that the short metrics are sampled throughout it."""
    query_round(run, index, stream="tick", batches=1)
    fredholm_batches(run, run.rng("tick", index).choice(
        len(FRED_GRID), TICK_FRED_POINTS, replace=False))


# ---------------------------------------------------------------------------
# Workload table and the run loop
# ---------------------------------------------------------------------------

WORKLOADS = {
    # name: (steps of a round, probe steps for the other workload's
    # metrics, minimum rounds, whether ticks follow the steps; query-oracle's
    # own rounds sample the short metrics)
    "solve-verify": (solve_verify_steps, edge_probe_steps, 2, True),
    "query-oracle": (query_oracle_steps, solve_verify_steps, KS_ROUNDS, False),
}


def run_rounds(run, workload, seconds, setups=None):
    """Whole rounds until `seconds` of round time have passed, at least the
    workload's minimum. With a list of set-up times (an untraced run), the
    probes and the remaining set-up repeats follow the first rounds, and in
    solve-verify a tick follows every step. Returns (rounds, seconds spent
    in rounds)."""
    round_steps, probe_steps, min_rounds, ticking = WORKLOADS[workload]
    untraced = setups is not None
    rounds, busy, ticks = 0, 0.0, 0
    while rounds < min_rounds or busy < seconds:
        for step in round_steps(run, rounds):
            t0 = clock()
            step()
            busy += clock() - t0
            if untraced and ticking:
                tick(run, ticks)
                ticks += 1
        if untraced:
            extra = probe_steps(run, rounds) if rounds < PROBE_CYCLES else []
            if len(setups) < SETUP_REPEATS:
                extra.append(lambda: setups.append(setup(run)))
            for step in extra:
                step()
                if ticking:
                    tick(run, ticks)
                    ticks += 1
        rounds += 1
    return rounds, busy
