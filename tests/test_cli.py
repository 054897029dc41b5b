import csv
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import pytest

from twlab import cli, distribution, oracles, painleve2
from twlab.errors import ParseError


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, {"command": "hm-solve"}))
    assert cfg.hm.t_min == -12.0
    assert cfg.hm.t_max == 8.0
    assert cfg.hm.n == 4000
    assert cfg.hm.tol == 1e-10


def test_config_round_trip(tmp_path):
    payload = {
        "command": "tw-table",
        "beta": 6,
        "hm": {"t_min": -13.0, "n": 52001},
        "oracle": {"seed": 99},
        "t_grid": "-3:1:0.5",
    }
    cfg = cli.load_config(write_config(tmp_path, payload))
    out = tmp_path / "saved.json"
    cli.save_config(cfg, out)
    cfg2 = cli.load_config(out)
    assert cfg == cfg2
    out2 = tmp_path / "saved2.json"
    cli.save_config(cfg2, out2)
    assert open(out).read() == open(out2).read()


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ParseError, match="betta"):
        cli.load_config(write_config(tmp_path, {"command": "hm-solve", "betta": 2}))
    with pytest.raises(ParseError, match="hm.bogus"):
        cli.load_config(
            write_config(tmp_path, {"command": "hm-solve", "hm": {"bogus": 1}})
        )


@pytest.mark.parametrize("command, payload", [
    ("fredholm-f2", {"m": 60.5}),
    ("fredholm-f2", {"m": 60.0}),
    ("hm-solve", {"hm": {"n": 4000.0}}),
    ("mc-edge", {"oracle": {"n": 60.5}}),
    ("mc-edge", {"oracle": {"count": "50"}}),
])
def test_wrong_value_type_is_a_config_error(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, payload)
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    key = next(iter(payload))
    name = key if key == "m" else f"{key}.{next(iter(payload[key]))}"
    assert err["error"] == "config" and f"'{name}'" in err["message"]
    assert not (tmp_path / "o").exists()


def test_value_types_per_field(tmp_path):
    # an int field takes an int but not a bool; a float field takes an int
    # or a float; float | None also takes null; a str field takes a str
    cfg = cli.config_from_dict({"m": 60, "grid_step": 1, "hm": {"tol": 1e-9},
                                "aux": {"t_start": None, "t_end": -11}})
    assert (cfg.m, cfg.grid_step, cfg.hm.tol, cfg.aux.t_start) == (60, 1, 1e-9, None)
    for bad in ({"m": True}, {"grid_step": "0.1"}, {"hm": {"tol": None}},
                {"aux": {"tol": False}}, {"t_grid": 1}, {"oracle": {"seed": 1.5}}):
        with pytest.raises(ParseError, match="must be"):
            cli.config_from_dict(bad)


@pytest.mark.parametrize("command, artifact", [("tw-table", "tw4.csv"),
                                               ("mc-edge", "edge_beta4.csv")])
def test_unsupported_config_beta_is_a_config_error(tmp_path, capsys, command, artifact):
    # --beta is limited to 2 and 6 on the command line; a config's beta too
    cfg = write_config(tmp_path, {"beta": 4})
    out = tmp_path / "o"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "beta" in err["message"]
    assert not (out / artifact).exists()


@pytest.mark.parametrize("argv, payload, error", [
    (["tw-table", "--beta", "2"], {"hm": {"tol": 1e-3}}, "BadInterval"),
    (["tw-table", "--beta", "2"], {"hm": {"tol": 1.0}}, "BadInterval"),
    (["tw-table", "--beta", "2"], {"hm": {"tol": float("inf")}}, "config"),
    (["tw-table", "--beta", "2"], {"hm": {"tol": float("nan")}}, "config"),
    (["tw-table", "--beta", "6"], {"aux": {"tol": float("nan")}}, "config"),
    (["mc-edge", "--beta", "2"], {"oracle": {"count": -5}}, "BadInterval"),
    (["mc-edge", "--beta", "2"], {"oracle": {"count": 0}}, "BadInterval"),
    (["mc-edge", "--beta", "2"], {"oracle": {"seed": -1}}, "BadInterval"),
    (["mc-edge", "--beta", "2"], {"oracle": {"n": 100000}}, "BadInterval"),
    (["fredholm-f2"], {"m": 100000}, "BadInterval"),
], ids=["hm-tol-1e-3", "hm-tol-1", "hm-tol-inf", "hm-tol-nan", "aux-tol-nan", "count-neg",
        "count-0", "seed-neg", "n-1e5", "m-1e5"])
def test_out_of_range_setting_is_one_json_error(tmp_path, capsys, argv, payload, error):
    # a tolerance that cannot give the stated table, and an oracle size or
    # seed out of range, each fail before any solve, draw or allocation
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "o"
    rc = cli.main(argv + ["--config", str(cfg), "--out", str(out)])
    assert rc == (2 if error == "config" else 1)
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == error
    assert not out.exists() or not any(out.iterdir())


def test_format_key_rejected(tmp_path, capsys):
    # artifacts have one format (write_csv, write_json); naming one is an
    # unknown key
    cfg = write_config(tmp_path, {"command": "hm-solve", "format": "csv"})
    rc = cli.main(["hm-solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "'format'" in err["message"]
    assert not (tmp_path / "o").exists()


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"command": "hm-solve",\n  "beta" 2}\n')
    with pytest.raises(ParseError) as err:
        cli.load_config(path)
    assert err.value.line == 2


def test_grid_and_window_parsing():
    grid = cli.parse_grid("-4:4:0.1")
    assert len(grid) == 81
    assert grid[0] == -4.0 and abs(grid[-1] - 4.0) < 1e-12
    assert cli.parse_window("-9:-6") == (-9.0, -6.0)
    with pytest.raises(ParseError):
        cli.parse_grid("4:-4:0.1")
    with pytest.raises(ParseError):
        cli.parse_window("-6")


def test_grid_step_must_divide_the_span(tmp_path):
    # an inclusive grid cannot end at b when the step does not divide
    # b - a: these two would end at 4.1 and at 0.8
    for spec in ("-4:4:0.3", "0:1:0.4"):
        with pytest.raises(ParseError, match="does not divide"):
            cli.parse_grid(spec)
    assert cli.main(["tw-table", "--t=-4:4:0.3", "--out", str(tmp_path)]) == 2


# every grid spec of the README, the tests and perfbench, and verify-pde's
# x and t grids at the steps in use, with a digest of the array each gave
# before steps had to divide the span
_GRID_DIGESTS = {
    "-4:4:0.1": "dcb9b4c047765b1f",
    "-4:2:0.05": "d08aef553efa8876",
    "-6:4:0.25": "04a94c59d5534fca",
    "-4.5:3.5:0.02": "9b0631f9e87c49fc",
    "-3:1:0.5": "c416b2d6b149c626",
    "-2:2:1": "e6b8b965cc8e918e",
    "-4:4:0.5": "86fe87f510ca51b4",
    "-3:2:0.5": "f3d06c300c5d14c2",
    "-3:3:0.25": "2868c20ae4a229f8",
    "-5:1:0.25": "e7675c18bb269d4e",
    "-3:3:0.0625": "d09df019daeb6395",
    "-5:1:0.0625": "de377072c516074c",
    "-3:3:0.015625": "0dfc27bc4b95856f",
    "-5:1:0.015625": "8910c076d52fead8",
}


@pytest.mark.parametrize("spec", sorted(_GRID_DIGESTS))
def test_grid_specs_in_use_parse_bit_for_bit(spec):
    digest = hashlib.sha256(cli.parse_grid(spec).tobytes()).hexdigest()[:16]
    assert digest == _GRID_DIGESTS[spec]


def test_main_exit_code_on_config_error(tmp_path, capsys):
    rc = cli.main(["hm-solve", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def test_fredholm_f2_run(tmp_path):
    rc = cli.main(
        ["fredholm-f2", "--out", str(tmp_path), "--t=-2:2:1", "--m", "60"]
    )
    assert rc == 0
    man = json.load(open(tmp_path / "manifest.json"))
    assert man["status"] == "ok"
    art = {a["path"]: a for a in man["artifacts"]}
    assert "fredholm_f2.csv" in art
    # manifest hash matches recomputation
    assert art["fredholm_f2.csv"]["sha256"] == cli._sha256(tmp_path / "fredholm_f2.csv")


def test_hm_solve_run_and_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        {"command": "hm-solve", "hm": {"t_min": -12.0, "t_max": 8.0, "n": 4001}},
    )
    rc = cli.main(["hm-solve", "--config", str(cfg), "--out", str(tmp_path / "a")])
    rc2 = cli.main(["hm-solve", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert rc == 0 and rc2 == 0
    a = open(tmp_path / "a" / "hm.csv", "rb").read()
    b = open(tmp_path / "b" / "hm.csv", "rb").read()
    assert a == b
    assert a.startswith(b"t,u,ut,omega\n")
    # 4001 points: the grid 16 times coarser would be too small, so Newton
    # starts on this grid
    res = json.load(open(tmp_path / "a" / "manifest.json"))["results"]
    assert res["coarse_newton_iterations"] == 0
    assert 1 <= res["newton_iterations"] <= 50


def test_hm_solve_records_coarse_stage(tmp_path):
    # 32001 points: Newton starts from the solve on 2001 points
    cfg = write_config(
        tmp_path,
        {"command": "hm-solve", "hm": {"t_min": -12.0, "t_max": 8.0, "n": 32001}},
    )
    assert cli.main(["hm-solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    res = json.load(open(tmp_path / "manifest.json"))["results"]
    assert res["coarse_newton_iterations"] >= 1
    assert 1 <= res["newton_iterations"] <= 2
    assert res["final_update"] < 1e-11


def test_tw_table_beta2_run(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "tw-table",
            "beta": 2,
            "t_grid": "-4:4:0.5",
            "hm": {"n": 4001},
        },
    )
    rc = cli.main(["tw-table", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    man = json.load(open(tmp_path / "o" / "manifest.json"))
    assert man["results"]["monotone"] is True
    assert 1 <= man["results"]["newton_iterations"] <= 50
    assert man["results"]["coarse_newton_iterations"] == 0
    assert "steps" not in man["results"]
    rows = open(tmp_path / "o" / "tw2.csv").read().strip().split("\n")
    assert rows[0] == "t,F,logF,pdf"
    assert len(rows) == 18


def test_aux_solve_run(tmp_path):
    cfg = write_config(tmp_path, {"command": "aux-solve", "hm": {"n": 4001}})
    rc = cli.main(["aux-solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    diag = json.load(open(tmp_path / "o" / "aux_diagnostics.json"))
    assert any(e["event"] == "q2-zero" for e in diag["events"])
    man = json.load(open(tmp_path / "o" / "manifest.json"))
    work = {k: diag[k] for k in ("rhs_calls", "steps", "step_shrinks")}
    assert {k: man["results"][k] for k in work} == work
    # the route [8, -11.5] starts at 98 steps of 0.2 and shrinks once
    assert work["step_shrinks"] == 1
    assert work["rhs_calls"] == 16 * (98 + work["steps"])


def test_tw_table_beta6_records_solver_work(tmp_path):
    cfg = write_config(tmp_path, {"command": "tw-table", "hm": {"n": 4001}})
    rc = cli.main(["tw-table", "--config", str(cfg), "--beta", "6",
                   "--t=-3:2:0.5", "--out", str(tmp_path / "o")])
    assert rc == 0
    res = json.load(open(tmp_path / "o" / "manifest.json"))["results"]
    assert res["rows"] == 11 and res["monotone"] is True
    assert 1 <= res["newton_iterations"] <= 50
    assert res["coarse_newton_iterations"] == 0
    assert res["steps"] > 390 and res["step_shrinks"] >= 1
    assert res["rhs_calls"] > 16 * res["steps"]


def test_tw_table_beta6_step_failure_is_reported_as_such(tmp_path, capsys):
    # at n = 2501 on [-12, 13] the linear route fails its error test at the
    # right end; that is a StepFailure at t = 13, not a q2 pole
    cfg = write_config(tmp_path, {"hm": {"t_max": 13.0, "n": 2501}})
    rc = cli.main(["tw-table", "--config", str(cfg), "--beta", "6",
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StepFailure" and "t=13.0" in err["message"]


def test_mc_edge_run_reports_ks(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "mc-edge",
            "beta": 2,
            "hm": {"n": 4001},
            "oracle": {"n": 100, "count": 2000, "seed": 7},
            "m": 60,
        },
    )
    rc = cli.main(["mc-edge", "--config", str(cfg), "--out", str(tmp_path / "o")])
    man = json.load(open(tmp_path / "o" / "manifest.json"))
    ks = man["results"]["ks"]
    assert 0.0 < ks < 0.2
    assert (rc == 0) == (ks <= man["results"]["bound"])
    summary = json.load(open(tmp_path / "o" / "edge_beta2_summary.json"))
    assert summary["count"] == 2000 and summary["seed"] == 7


def test_mc_edge_beta2_skips_hastings_mcleod(tmp_path, monkeypatch):
    # beta = 2 compares against the Airy determinant alone, so the run
    # must neither solve Painleve II nor depend on that solve
    def no_solve(*args, **kwargs):
        raise AssertionError("mc-edge --beta 2 solved Hastings-McLeod")

    monkeypatch.setattr(painleve2, "solve_hastings_mcleod", no_solve)
    out = tmp_path / "o"
    rc = cli.main(["mc-edge", "--beta", "2", "--n", "100", "--count", "2000",
                   "--seed", "1234", "--m", "60", "--out", str(out)])
    assert rc == 0
    s = oracles.sample_edge(100, 2.0, 2000, 1234)
    grid = np.linspace(-9.0, 4.0, 261)
    ref = distribution.table_from_values(
        2, grid, np.array([oracles.airy_kernel_fredholm(x, 60) for x in grid]))
    with open(out / "edge_beta2.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "lambda_max", "scaled_s"]
    index, lambda_max, scaled = np.array(rows[1:], dtype=float).T
    assert np.array_equal(index, np.arange(2000))
    assert np.array_equal(lambda_max, s.lambda_max)
    assert np.array_equal(scaled, s.samples)
    assert json.load(open(out / "edge_beta2_summary.json")) == {
        "n": 100, "beta": 2.0, "count": 2000, "seed": 1234,
        "block_rows": s.block_rows, "laguerre_rounds": s.laguerre_rounds,
        "ks": oracles.ks_distance(s, ref.cdf),
    }


def test_tails_compare_beta2(tmp_path):
    rc = cli.main(
        ["tails-compare", "--beta", "2", "--window=-9:-7", "--out", str(tmp_path)]
    )
    assert rc == 0
    rep = json.load(open(tmp_path / "tails_beta2.json"))
    # zeta'(-1) + log(2)/24, 30 digits
    assert abs(rep["c0_formula"] - (-0.136540011177119874654868321849)) <= 1e-12
    assert abs(rep["c0_extracted"] - rep["c0_formula"]) < 5e-3
    assert "drift" in rep


def test_verify_pde_coarse(tmp_path):
    rc = cli.main(
        ["verify-pde", "--grid-step", str(1.0 / 16.0), "--out", str(tmp_path)]
    )
    assert rc == 0
    rep = json.load(open(tmp_path / "pde_report.json"))
    assert rep["residual"] < 1e-3 * 16.0
    assert 3.0 < rep["richardson_ratio"] < 5.0
    assert rep["inflation"] > 50.0
    # the series start at x = 10, 16 terms; 2088 Magnus substeps to x = -3
    # at step 1/16
    assert (rep["sweep_start"], rep["series_terms"]) == (10.0, 16)
    assert rep["sweep_substeps"] == 2088
    # the negative control's route, b_constraint_scale = 1 on [-11, 12]: 280
    # DOP853 steps and 7 rejected, so 2 + 15 RHS calls per step + 12 per
    # rejection
    work = rep["negative_control_work"]
    assert work == {"rhs_calls": 4286, "steps": 280, "step_shrinks": 0}


def test_verify_pde_gate_uses_richardson_window():
    # residual 1e-4 and inflation 1e4 pass; only the ratio varies
    r1, rb = 1e-4, 1.0
    assert cli.pde_gates_ok(r1, 3.57 * r1, rb, 1.0 / 64.0)
    assert not cli.pde_gates_ok(r1, 3.2 * r1, rb, 1.0 / 64.0)
    assert not cli.pde_gates_ok(r1, 4.6 * r1, rb, 1.0 / 64.0)
    assert not cli.pde_gates_ok(r1, 3.2 * r1, rb, 1.0 / 16.0)


def test_verify_identities_run(tmp_path):
    rc = cli.main(["verify-identities", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.load(open(tmp_path / "identities.json"))
    assert rep["random_tuples"]["r2_plus_t_half"] <= 1e-12
    assert rep["trajectory"]["i0"] <= 1e-8
    assert max(rep["compatibility"].values()) <= 1e-6
    assert rep["zero_curvature_at_t_minus4"] <= 1e-6


def test_spec_style_flag_forms(tmp_path):
    # space-separated values with a leading minus are accepted
    rc = cli.main(
        ["fredholm-f2", "--out", str(tmp_path / "f"), "--t", "-2:2:1", "--m", "60"]
    )
    assert rc == 0


def test_tails_compare_beta6_shallow(tmp_path):
    rc = cli.main(
        ["tails-compare", "--beta", "6", "--window", "-5.6:-4.8",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    rep = json.load(open(tmp_path / "tails_beta6.json"))
    assert rep["beta"] == 6
    assert np.isfinite(rep["c0_extracted"]) and np.isfinite(rep["drift"])


def test_module_run_without_runtime_warning():
    # `python -m twlab.cli` must not find twlab.cli already imported by the package
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "twlab.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
