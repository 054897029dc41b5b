"""Command-line orchestration: solve, tabulate, verify, sample, compare.

A run is described by a single JSON config document (unknown keys are
rejected, not ignored); every subcommand writes its artifacts plus a
manifest with content hashes, versions, and the measured residuals. Exit
status: 0 all asserted tolerances met, 1 a tolerance or runtime failure,
2 a configuration error. Errors are mirrored as machine-readable JSON on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, asymptotics, auxsys, distribution, laxframe, oracles, painleve2
from .errors import ParseError, TwlabError


def _scipy_version() -> str:
    import scipy

    return scipy.__version__


@dataclass
class HmOptions:
    t_min: float = -12.0
    t_max: float = 8.0
    n: int = 4000
    tol: float = 1e-10


@dataclass
class AuxOptions:
    t_start: float | None = None   # defaults to hm.t_max at run time
    t_end: float | None = None     # defaults to hm.t_min + 0.5
    tol: float = 1e-13


@dataclass
class OracleOptions:
    n: int = 400
    count: int = 20000
    seed: int = 1234


@dataclass
class RunConfig:
    command: str = ""
    hm: HmOptions = field(default_factory=HmOptions)
    aux: AuxOptions = field(default_factory=AuxOptions)
    oracle: OracleOptions = field(default_factory=OracleOptions)
    beta: int = 2
    t_grid: str = "-4:4:0.1"
    m: int = 120
    window: str = "-9:-6"
    grid_step: float = 1.0 / 64.0
    out: str = "out"
    format: str = "csv"

    def validate(self):
        for name, val in (("hm.tol", self.hm.tol), ("aux.tol", self.aux.tol)):
            if val <= 0:
                raise ParseError(f"{name} must be positive")
        if self.format not in ("csv", "json"):
            raise ParseError(f"unknown format {self.format!r}")
        return self


_SECTION_TYPES = {"hm": HmOptions, "aux": AuxOptions, "oracle": OracleOptions}


def _apply_section(obj, data: dict, prefix: str):
    known = {f.name for f in dataclasses.fields(obj)}
    for key, val in data.items():
        if key not in known:
            raise ParseError(f"unknown key '{prefix}{key}'")
        setattr(obj, key, val)
    return obj


def load_config(path) -> RunConfig:
    """Parse a JSON config; unknown keys are errors, defaults fill the rest."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"config parse error: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ParseError("config root must be an object")
    cfg = RunConfig()
    top_known = {f.name for f in dataclasses.fields(RunConfig)}
    for key, val in raw.items():
        if key not in top_known:
            raise ParseError(f"unknown key {key!r}")
        if key in _SECTION_TYPES:
            if not isinstance(val, dict):
                raise ParseError(f"section {key!r} must be an object")
            _apply_section(getattr(cfg, key), val, f"{key}.")
        else:
            setattr(cfg, key, val)
    return cfg.validate()


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_grid(spec: str) -> np.ndarray:
    """'a:b:step' -> uniform inclusive grid."""
    try:
        a, b, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ParseError(f"bad grid spec {spec!r} (want a:b:step)") from exc
    if step <= 0 or b <= a:
        raise ParseError(f"bad grid spec {spec!r}: need a < b, step > 0")
    count = int(round((b - a) / step))
    return a + step * np.arange(count + 1)


def parse_window(spec: str) -> tuple[float, float]:
    try:
        a, b = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ParseError(f"bad window spec {spec!r} (want lo:hi)") from exc
    if a >= b:
        raise ParseError(f"bad window spec {spec!r}: need lo < hi")
    return a, b


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


class Manifest:
    def __init__(self, cfg: RunConfig, out_dir: str):
        self.out_dir = out_dir
        self.data = {
            "command": cfg.command,
            "config": config_to_dict(cfg),
            "versions": {
                "twlab": __version__,
                "numpy": np.__version__,
                "scipy": _scipy_version(),
                "python": sys.version.split()[0],
            },
            "artifacts": [],
            "results": {},
            "status": "ok",
        }

    def add_artifact(self, path):
        self.data["artifacts"].append(
            {"path": os.path.basename(path), "sha256": _sha256(path),
             "bytes": os.path.getsize(path)}
        )

    def write(self):
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _solve_hm(cfg: RunConfig) -> painleve2.Painleve2Solution:
    return painleve2.solve_hastings_mcleod(
        t_min=cfg.hm.t_min, t_max=cfg.hm.t_max, n=cfg.hm.n, tol=cfg.hm.tol
    )


def _solve_aux(cfg: RunConfig, hm) -> auxsys.AuxSolution:
    t_start = cfg.aux.t_start if cfg.aux.t_start is not None else hm.t_max
    t_end = cfg.aux.t_end if cfg.aux.t_end is not None else hm.t_min + 0.5
    return auxsys.integrate_linear(
        hm, t_start=t_start, t_end=t_end, tol=cfg.aux.tol
    )


def _aux_work(aux) -> dict:
    """The aux route's work counters, as the manifest records them."""
    return {"rhs_calls": aux.rhs_calls, "steps": aux.steps,
            "step_shrinks": aux.step_shrinks}


# --------------------------- subcommands -----------------------------------

def _cmd_hm_solve(cfg, man):
    hm = _solve_hm(cfg)
    path = os.path.join(cfg.out, "hm.csv")
    painleve2.export_csv(hm, path)
    man.add_artifact(path)
    man.data["results"] = {
        "newton_iterations": hm.newton_iterations,
        "coarse_newton_iterations": hm.coarse_newton_iterations,
        "final_update": hm.final_update,
        "u_positive": bool((hm.u > 0).all()),
    }
    return 0 if hm.final_update < cfg.hm.tol and (hm.u > 0).all() else 1


def _cmd_aux_solve(cfg, man):
    hm = _solve_hm(cfg)
    aux = _solve_aux(cfg, hm)
    path = os.path.join(cfg.out, "aux.csv")
    auxsys.export_csv(aux, path)
    man.add_artifact(path)
    diag = os.path.join(cfg.out, "aux_diagnostics.json")
    auxsys.export_diagnostics(aux, diag)
    man.add_artifact(diag)
    q2_end = float(aux.q2_at(aux.t_start))
    man.data["results"] = {
        "q2_at_start": q2_end,
        "events": len(aux.diagnostics),
        **_aux_work(aux),
    }
    return 0 if abs(q2_end + 1.0) < 1e-8 else 1


def _cmd_tw_table(cfg, man):
    hm = _solve_hm(cfg)
    grid = parse_grid(cfg.t_grid)
    work = {"newton_iterations": hm.newton_iterations,
            "coarse_newton_iterations": hm.coarse_newton_iterations}
    if cfg.beta == 2:
        table = distribution.tabulate(hm, None, 2, grid)
    else:
        aux = _solve_aux(cfg, hm)
        work.update(_aux_work(aux))
        table = distribution.tabulate(hm, aux, 6, grid)
    path = os.path.join(cfg.out, f"tw{cfg.beta}.csv")
    table.export_csv(path)
    man.add_artifact(path)
    meta = os.path.join(cfg.out, f"tw{cfg.beta}_metadata.json")
    table.export_metadata(meta)
    man.add_artifact(meta)
    monotone = distribution.is_effectively_monotone(table.F)
    man.data["results"] = {"monotone": monotone, "rows": len(grid), **work}
    return 0 if monotone else 1


def _verification_inputs():
    hm = painleve2.solve_hastings_mcleod(-13.0, 13.0, 52001, 1e-11)
    aux = auxsys.integrate_linear(hm, t_start=12.0, t_end=-11.0)
    return hm, aux


def _cmd_verify_identities(cfg, man):
    hm, aux = _verification_inputs()
    rng = np.random.default_rng(7)
    worst = {"r2_plus_t_half": 0.0, "r1_minus_half_1_plus_q2": 0.0, "i1": 0.0,
             "i2": 0.0}
    for _ in range(1000):
        t = rng.uniform(-8, 4)
        q2 = rng.uniform(-0.95, 0.95)
        alpha = rng.uniform(-2, 2)
        u = rng.uniform(0.2, 2.0)
        ut = rng.uniform(-2, 2)
        p = auxsys.params_from_state(t, u, ut, q2, alpha)
        r = auxsys.eval_r_and_integrals(p)
        worst["r2_plus_t_half"] = max(worst["r2_plus_t_half"], abs(r.r2 + t / 2))
        worst["r1_minus_half_1_plus_q2"] = max(
            worst["r1_minus_half_1_plus_q2"], abs(r.r1 - (1 + q2) / 2)
        )
        worst["i1"] = max(worst["i1"], abs(r.i1))
        worst["i2"] = max(worst["i2"], abs(r.i2))

    ts = np.linspace(-10.0, 8.0, 37)
    traj = {"i0": 0.0, "b_constraint": 0.0, "c_constraint": 0.0}
    rumsys = {k: 0.0 for k in ("e1", "e2", "e3", "q0", "q1", "q2")}
    for tv in ts:
        p = auxsys.reconstruct_params(aux, hm, float(tv))
        r = auxsys.eval_r_and_integrals(p)
        traj["i0"] = max(traj["i0"], abs(r.i0))
        traj["b_constraint"] = max(traj["b_constraint"], abs(p.b - 2 * p.e1 / 3))
        traj["c_constraint"] = max(traj["c_constraint"], abs(p.c + p.e2 / 3))
        res = auxsys.compatibility_residuals(aux, hm, float(tv))
        for k in rumsys:
            rumsys[k] = max(rumsys[k], res[k])
    zc = max(
        laxframe.zero_curvature_residual(aux, hm, x, -4.0) for x in (-2.0, 0.0, 2.0)
    )
    report = {
        "random_tuples": worst,
        "trajectory": traj,
        "compatibility": rumsys,
        "zero_curvature_at_t_minus4": zc,
    }
    path = os.path.join(cfg.out, "identities.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    man.add_artifact(path)
    man.data["results"] = report
    ok = (
        worst["r2_plus_t_half"] <= 1e-12
        and worst["r1_minus_half_1_plus_q2"] <= 1e-12
        and traj["i0"] <= 1e-8
        and traj["b_constraint"] <= 1e-7
        and traj["c_constraint"] <= 1e-7
        and max(rumsys.values()) <= 1e-6
        and zc <= 1e-6
    )
    return 0 if ok else 1


def _cmd_verify_pde(cfg, man):
    hm, aux = _verification_inputs()
    step = cfg.grid_step
    xg = parse_grid(f"-3:3:{step}")
    tg = parse_grid(f"-5:1:{step}")
    fld = laxframe.psi11_field(hm, aux, xg, tg)
    r1 = laxframe.edge_pde_residual(fld, stride=1)
    r2 = laxframe.edge_pde_residual(fld, stride=2)
    aux_bad = auxsys.integrate_nonlinear(
        hm, t_start=12.0, t_end=-11.0, b_constraint_scale=1.0
    )
    fld_bad = laxframe.psi11_field(hm, aux_bad, xg, tg)
    rb = laxframe.edge_pde_residual(fld_bad, stride=1)
    report = {
        "residual": r1,
        "residual_coarse": r2,
        "richardson_ratio": r2 / r1,
        "negative_control_residual": rb,
        "negative_control_work": _aux_work(aux_bad),
        "inflation": rb / r1,
        "grid_step": step,
        "sweep_substeps": fld.substeps,
        "sweep_start": fld.sweep_start,
        "series_terms": laxframe.SERIES_TERMS,
    }
    path = os.path.join(cfg.out, "pde_report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    man.add_artifact(path)
    field_csv = os.path.join(cfg.out, "field_coarse.csv")
    sub = laxframe.PsiField(
        x_ext=fld.x_ext[::8], t_ext=fld.t_ext[::8], x_int=fld.x_int[::8],
        t_int=fld.t_int[::8], w=fld.w[:, ::8, ::8], psi11=fld.psi11[::8, ::8],
        substeps=fld.substeps, sweep_start=fld.sweep_start,
    )
    sub.export_csv(field_csv)
    man.add_artifact(field_csv)
    man.data["results"] = report
    return 0 if pde_gates_ok(r1, r2, rb, step) else 1


def pde_gates_ok(r1, r2, rb, step) -> bool:
    """Criterion 6 at grid step `step`. The O(h^2) targets are stated at
    step 1/64 and rescaled for coarser runs (the control violation is
    h-independent)."""
    scale = (step * 64.0) ** 2
    lo, hi = laxframe.RICHARDSON_WINDOW
    return r1 <= 1e-3 * scale and lo <= r2 / r1 <= hi and rb / r1 >= 1e3 / scale


def _cmd_mc_edge(cfg, man):
    s = oracles.sample_edge(cfg.oracle.n, float(cfg.beta), cfg.oracle.count,
                            cfg.oracle.seed)
    if cfg.beta == 2:
        grid = np.linspace(-9.0, 4.0, 261)
        Fg = np.array([oracles.airy_kernel_fredholm(x, cfg.m) for x in grid])
        ref = distribution.table_from_values(2, grid, Fg)
        ks = oracles.ks_distance(s, ref.cdf)
        bound = 0.02
    else:
        hm = _solve_hm(cfg)
        aux = _solve_aux(cfg, hm)
        lo = max(-4.5, (aux.t_end + 0.3) / distribution.SCALE_T)
        grid = np.linspace(lo, 3.5, 257)
        table = distribution.tabulate(hm, aux, 6, grid)
        ks = oracles.ks_distance(s, table.cdf)
        bound = 0.03
    path = os.path.join(cfg.out, f"edge_beta{cfg.beta}.csv")
    s.export_csv(path)
    man.add_artifact(path)
    summary = os.path.join(cfg.out, f"edge_beta{cfg.beta}_summary.json")
    s.export_summary(summary, ks=ks)
    man.add_artifact(summary)
    man.data["results"] = {"ks": ks, "bound": bound}
    return 0 if ks <= bound else 1


def _cmd_fredholm_f2(cfg, man):
    grid = parse_grid(cfg.t_grid)
    vals = np.array([oracles.airy_kernel_fredholm(tv, cfg.m) for tv in grid])
    path = os.path.join(cfg.out, "fredholm_f2.csv")
    with open(path, "w", newline="") as fh:
        fh.write("t,F2\n")
        for tv, v in zip(grid, vals):
            fh.write(f"{tv:.17g},{v:.17g}\n")
    man.add_artifact(path)
    man.data["results"] = {"rows": len(grid), "m": cfg.m}
    return 0


def _cmd_tails_compare(cfg, man):
    lo, hi = parse_window(cfg.window)
    beta = cfg.beta
    if beta == 2:
        hm = painleve2.solve_hastings_mcleod(min(-13.0, lo - 1.5), 13.0,
                                             int((13 - min(-13.0, lo - 1.5)) / 5e-4) + 1,
                                             1e-11)
        coef = [float(x) for x in asymptotics.exact_tail_coefficients(2)]
        coefficients = (coef[0], coef[1] * np.sqrt(2.0), coef[2])
        c0_est, drift = asymptotics.extract_constant(
            lambda tv: distribution.log_F2(hm, tv), coefficients, (lo, hi)
        )
    elif beta == 6:
        t_int_lo = distribution.SCALE_T * lo - 1.0
        t_min = min(-13.0, t_int_lo - 1.0)
        hm = painleve2.solve_hastings_mcleod(
            t_min, 13.0, int((13 - t_min) / 5e-4) + 1, 1e-11
        )
        aux = auxsys.integrate_linear(hm, t_start=12.0, t_end=t_int_lo)
        coef = [float(x) for x in asymptotics.exact_tail_coefficients(6)]
        coefficients = (coef[0], coef[1] * np.sqrt(2.0), coef[2])
        c0_est, drift = asymptotics.extract_constant(
            lambda tv: distribution.log_F6(hm, aux, tv), coefficients, (lo, hi)
        )
    else:
        raise ParseError("tails-compare: beta must be 2 or 6")
    report = {
        "beta": beta,
        "window": [lo, hi],
        "c0_formula": asymptotics.eval_c0(float(beta)),
        "c0_extracted": c0_est,
        "drift": drift,
    }
    path = os.path.join(cfg.out, f"tails_beta{beta}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    man.add_artifact(path)
    man.data["results"] = report
    return 0


_COMMANDS = {
    "hm-solve": _cmd_hm_solve,
    "aux-solve": _cmd_aux_solve,
    "tw-table": _cmd_tw_table,
    "verify-identities": _cmd_verify_identities,
    "verify-pde": _cmd_verify_pde,
    "mc-edge": _cmd_mc_edge,
    "fredholm-f2": _cmd_fredholm_f2,
    "tails-compare": _cmd_tails_compare,
}


def run(cfg: RunConfig) -> int:
    """Execute a configured command; returns the process exit status."""
    if cfg.command not in _COMMANDS:
        raise ParseError(f"unknown command {cfg.command!r}")
    os.makedirs(cfg.out, exist_ok=True)
    man = Manifest(cfg, cfg.out)
    status = _COMMANDS[cfg.command](cfg, man)
    man.data["status"] = "ok" if status == 0 else "tolerance-violation"
    man.write()
    return status


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twlab",
        description="Tracy-Widom beta=6 computation and verification toolkit",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--beta", type=int, choices=(2, 6))
    ap.add_argument("--t", dest="t_grid", help="grid spec a:b:step")
    ap.add_argument("--window", help="fit window lo:hi")
    ap.add_argument("--m", type=int, help="quadrature order for the determinant")
    ap.add_argument("--grid-step", type=float, help="PDE grid step (external units)")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--count", type=int)
    ap.add_argument("--n", type=int, help="matrix size (mc-edge) ")
    return ap


def _normalize_argv(argv):
    """Join '--t -4:4:0.1' style pairs so leading-minus values parse."""
    if argv is None:
        return None
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--t", "--window") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    import sys as _sys

    argv = _normalize_argv(argv if argv is not None else _sys.argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg.command = args.command
        if args.out:
            cfg.out = args.out
        if args.beta is not None:
            cfg.beta = args.beta
        if args.t_grid:
            cfg.t_grid = args.t_grid
        if args.window:
            cfg.window = args.window
        if args.m is not None:
            cfg.m = args.m
        if args.grid_step is not None:
            cfg.grid_step = args.grid_step
        if args.seed is not None:
            cfg.oracle.seed = args.seed
        if args.count is not None:
            cfg.oracle.count = args.count
        if args.n is not None:
            cfg.oracle.n = args.n
        cfg.validate()
        return run(cfg)
    except ParseError as exc:
        payload = {"error": "config", "message": str(exc),
                   "line": exc.line, "column": exc.column}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 2
    except TwlabError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
