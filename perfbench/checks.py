"""Output checks. Each returns a list of failure messages; empty means pass.

The checks take plain values and arrays so that the benchmark's tests can
feed each one a deliberately perturbed value and see it rejected.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# criterion 6 and the gates `twlab verify-identities` applies
PDE_RESIDUAL_MAX = 1e-3
RICHARDSON_WINDOW = (3.5, 4.5)
INFLATION_MIN = 1e3
IDENTITY_GATES = {
    "r2_plus_t_half": 1e-12,
    "r1_minus_half_1_plus_q2": 1e-12,
    "i0": 1e-8,
    "b_constraint": 1e-7,
    "c_constraint": 1e-7,
    "compatibility": 1e-6,
    "zero_curvature": 1e-6,
}
# log_F6 comes out a few ulps above 0 in the saturated right tail, where F
# then reads 1 + 1 ulp; the check allows 4 ulps
F_ABOVE_ONE = 4 * np.finfo(float).eps
# criterion 7: |slope - exact tail slope| at internal t = -8
TAIL_SLOPE_BOUND = 3.0 * 8.0**-2.5
# criterion 8
KS2_MAX = 0.02


def within(name, got, ref, tol):
    """max |got - ref| <= tol, elementwise."""
    err = float(np.max(np.abs(np.asarray(got, float) - np.asarray(ref, float))))
    if not err <= tol:
        return [f"{name}: max error {err:.3e} > {tol:.0e}"]
    return []


def manifest_ok(status, manifest, out_dir):
    """Exit status 0, manifest status ok, and artifact hashes that match."""
    bad = []
    if status != 0:
        bad.append(f"exit status {status}")
    if manifest.get("status") != "ok":
        bad.append(f"manifest status {manifest.get('status')!r}")
    if not manifest.get("artifacts"):
        bad.append("manifest lists no artifacts")
    for art in manifest.get("artifacts", []):
        with open(os.path.join(out_dir, art["path"]), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest != art["sha256"]:
            bad.append(f"sha256 mismatch for {art['path']}")
    return bad


def cdf_shape(name, t, F, saturation=1e-12):
    """F over sorted t lies in (0, 1] and increases, in the sense of
    twlab's is_effectively_monotone: double precision cannot tell CDF values
    apart within `saturation` of 1, so there F may step down by at most
    `saturation`, and strict increase is required only below it. F may
    exceed 1 by a few ulps, no more."""
    F = np.asarray(F, float)[np.argsort(t, kind="stable")]
    bad = []
    if not (np.all(F > 0.0) and np.all(F <= 1.0 + F_ABOVE_ONE)):
        bad.append(f"{name}: F outside (0, 1]")
    d = np.diff(F)
    live = (F[:-1] < 1.0 - saturation) & (F[1:] < 1.0 - saturation)
    if not (np.all(d[live] > 0) and np.all(d >= -saturation)):
        bad.append(f"{name}: F not increasing")
    return bad


def diff5(y, h):
    """5-point central differences of y on a uniform grid of step h, at the
    interior points y[2:-2]."""
    return (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)


def pdf_shape(name, t, F, pdf, slack=1e-12):
    """On a uniform grid, the 5-point derivative of F, taken here and not
    clamped, is >= -slack (roundoff where F is saturated at 1), and the pdf
    column equals it, clamped at 0, at the interior points."""
    t = np.asarray(t, float)
    F = np.asarray(F, float)
    d = diff5(F, t[1] - t[0])
    bad = []
    if not np.all(d >= -slack):
        bad.append(f"{name}: derivative of F down to {d.min():.3e}")
    err = float(np.max(np.abs(np.asarray(pdf, float)[2:-2] - np.maximum(d, 0.0))))
    if not err <= slack:
        bad.append(f"{name}: pdf column off the derivative of F by {err:.3e}")
    return bad


def tail_slope(t_ext, logF, scale, t_int, exact):
    """Slope of log F in the internal variable at t_int, from tabulated
    external-grid values by 5-point differences, against the exact slope."""
    t_ext = np.asarray(t_ext, float)
    logF = np.asarray(logF, float)
    d = diff5(logF, t_ext[1] - t_ext[0])
    slope = np.interp(t_int / scale, t_ext[2:-2], d) / scale
    err = abs(slope - exact)
    if not err <= TAIL_SLOPE_BOUND:
        return [f"tail slope at t={t_int}: error {err:.3e} > {TAIL_SLOPE_BOUND:.3e}"]
    return []


def pde_gates(residual, residual_coarse, negative_control):
    bad = []
    ratio = residual_coarse / residual
    if not residual <= PDE_RESIDUAL_MAX:
        bad.append(f"PDE residual {residual:.3e} > {PDE_RESIDUAL_MAX}")
    lo, hi = RICHARDSON_WINDOW
    if not lo <= ratio <= hi:
        bad.append(f"Richardson ratio {ratio:.3f} outside [{lo}, {hi}]")
    if not negative_control / residual >= INFLATION_MIN:
        bad.append(f"negative control inflation {negative_control / residual:.0f} "
                   f"< {INFLATION_MIN:.0f}")
    return bad


def identity_gates(worst):
    return [
        f"identity {k}: {worst[k]:.3e} > {tol:.0e}"
        for k, tol in IDENTITY_GATES.items()
        if not worst[k] <= tol
    ]


def ks_bound(ks):
    if not ks <= KS2_MAX:
        return [f"KS(beta=2) {ks:.4f} > {KS2_MAX}"]
    return []
