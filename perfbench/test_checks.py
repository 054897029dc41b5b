"""Each output check rejects a deliberately perturbed value.

    python3 -m pytest perfbench/test_checks.py
"""

import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import refs  # noqa: E402
import tracer  # noqa: E402

SCALE_T = 3.0 ** (2.0 / 3.0)


def test_within():
    ref = np.array([0.1, 0.5, 0.9])
    assert checks.within("x", ref + 5e-11, ref, 1e-10) == []
    assert checks.within("x", ref + [0, 2e-10, 0], ref, 1e-10)
    assert checks.within("x", ref + [0, np.nan, 0], ref, 1e-10)


def _manifest(tmp_path, status="ok"):
    path = tmp_path / "tw6.csv"
    path.write_text("t,F\n0,0.5\n")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"status": status,
            "artifacts": [{"path": "tw6.csv", "sha256": digest, "bytes": 12}]}


def test_manifest_ok(tmp_path):
    assert checks.manifest_ok(0, _manifest(tmp_path), tmp_path) == []
    assert checks.manifest_ok(1, _manifest(tmp_path), tmp_path)
    assert checks.manifest_ok(0, _manifest(tmp_path, "tolerance-violation"), tmp_path)
    assert checks.manifest_ok(0, {"status": "ok", "artifacts": []}, tmp_path)
    man = _manifest(tmp_path)
    (tmp_path / "tw6.csv").write_text("t,F\n0,0.6\n")
    assert checks.manifest_ok(0, man, tmp_path)


def _cdf():
    t = np.linspace(-2.0, 6.0, 400)
    F = np.exp(-np.exp(-2.0 * t))
    return t, F, 2.0 * np.exp(-2.0 * t) * F


def test_cdf_shape():
    t, F, _ = _cdf()
    assert checks.cdf_shape("F", t, F) == []
    # roundoff-level excess and steps inside the saturated top are allowed
    top = F.copy()
    top[-3:] = [1.0 + 2.2e-16, 1.0, 1.0 + 2.2e-16]
    assert checks.cdf_shape("F", t, top) == []
    # scattered points are checked in sorted order
    order = np.random.default_rng(0).permutation(len(t))
    assert checks.cdf_shape("F", t[order], F[order]) == []

    dip = F.copy()
    dip[100] = dip[99]
    assert checks.cdf_shape("F", t, dip)
    for excess in (1e-9, 1e-15):
        over = F.copy()
        over[-1] = 1.0 + excess
        assert checks.cdf_shape("F", t, over)
    zero = F.copy()
    zero[0] = 0.0
    assert checks.cdf_shape("F", t, zero)


def _table(F, h):
    d = np.empty_like(F)
    d[2:-2] = (F[:-4] - 8 * F[1:-3] + 8 * F[3:-1] - F[4:]) / (12 * h)
    d[:2], d[-2:] = d[2], d[-3]
    return np.maximum(d, 0.0)


def test_pdf_shape():
    t, F, _ = _cdf()
    h = t[1] - t[0]
    pdf = _table(F, h)
    assert checks.pdf_shape("F", t, F, pdf) == []
    # the pdf column is clamped at 0, so only the derivative of F shows a dip
    wavy = F - 1e-4 * np.sin(40 * t)
    assert checks.pdf_shape("F", t, wavy, _table(wavy, h))
    off = pdf.copy()
    off[50] += 1e-9
    assert checks.pdf_shape("F", t, F, off)


def _exact_logF(t_ext):
    # antiderivative of refs.tail_slope_internal in the internal variable
    s = -SCALE_T * np.asarray(t_ext)
    return -(s**3) / 36.0 + (2.0 * math.sqrt(2.0) / 9.0) * s**1.5 + np.log(s) / 24.0


def test_tail_slope():
    t = -4.5 + 0.02 * np.arange(60)
    exact = refs.tail_slope_internal(-8.0)
    assert checks.tail_slope(t, _exact_logF(t), SCALE_T, -8.0, exact) == []
    bent = _exact_logF(t) + 0.03 * SCALE_T * t   # slope off by 0.03
    assert checks.tail_slope(t, bent, SCALE_T, -8.0, exact)


def test_pde_gates():
    assert checks.pde_gates(6.4e-4, 3.57 * 6.4e-4, 0.94) == []
    assert checks.pde_gates(2e-3, 3.57 * 2e-3, 10.0)           # residual
    assert checks.pde_gates(6.4e-4, 3.2 * 6.4e-4, 0.94)        # ratio low
    assert checks.pde_gates(6.4e-4, 4.6 * 6.4e-4, 0.94)        # ratio high
    assert checks.pde_gates(6.4e-4, 3.57 * 6.4e-4, 0.5)        # inflation


def test_identity_gates():
    good = {k: tol / 10 for k, tol in checks.IDENTITY_GATES.items()}
    assert checks.identity_gates(good) == []
    for k, tol in checks.IDENTITY_GATES.items():
        assert checks.identity_gates({**good, k: 2 * tol})
        assert checks.identity_gates({**good, k: float("nan")})


def test_ks_bound():
    assert checks.ks_bound(0.0072) == []
    assert checks.ks_bound(0.0201)


def test_airy_det_reference():
    # F2(-2), recorded from this rule (see README: copied references);
    # twlab's determinant oracle gives the same value to 1.3e-14
    assert refs.airy_det(-2.0) == pytest.approx(0.41322414250510875, abs=1e-12)
    assert 1.0 - refs.airy_det(6.0) < 1e-6


def test_edge_reference_rebuilds_the_sampler_draws():
    from twlab import oracles

    count = refs.SAMPLE_BLOCK + 5      # second block is a partial one
    idx = np.array([0, 7, refs.SAMPLE_BLOCK - 1, refs.SAMPLE_BLOCK + 4])
    lam = refs.edge_lambda_max(50, 6.0, count, 11, idx)
    got = oracles.sample_edge(50, 6.0, count, 11).lambda_max[idx]
    assert np.max(np.abs(lam - got)) <= 1e-10
    other = refs.edge_lambda_max(50, 6.0, count, 12, idx)
    assert np.max(np.abs(other - got)) > 1e-3


def test_self_time_excludes_wrapped_children(tmp_path):
    tr = tracer.Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])        # outer in, inner in/out, outer out
    tracer._clock = lambda: next(clock)
    try:
        inner = tr.wrap("inner", lambda: None)
        outer = tr.wrap("outer", lambda: inner())
        outer()
    finally:
        tracer._clock = tracer.time.perf_counter
    assert tr.total["outer"] == 10.0 and tr.self_time["outer"] == 8.0
    assert tr.self_time["inner"] == 2.0
    (span_inner, span_outer) = tr.spans
    assert span_inner[1] == span_outer[0]       # parent id
    path = tmp_path / "spans.json"
    tr.write(path)
    assert json.loads(path.read_text())["layers"]["outer"]["self_s"] == 8.0
