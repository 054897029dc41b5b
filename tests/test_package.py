import importlib
import importlib.util
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import twlab

MODULES = ["twlab"] + [f"twlab.{m.name}" for m in pkgutil.iter_modules(twlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a stale name in __all__ would make `from <module> import *` raise
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_import_leaves_scipy_integrate_out():
    # twlab holds DOP853's tableau itself; scipy.integrate would also load
    # optimize, sparse and spatial (~20 MB, ~0.2 s of every command)
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.spatial"]
    code = f"import sys, twlab; print([m for m in {heavy!r} if m in sys.modules])"
    src = pathlib.Path(twlab.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src)
    assert out.stdout.strip() == "[]"


def _namespaces():
    """Every twlab module and the classes it defines."""
    out = []
    for name in MODULES:
        mod = importlib.import_module(name)
        out.append(mod)
        out += [v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__ == name]
    return out


def test_benchmark_tracer_installs_and_restores(hm):
    # perfbench/tracer.py wraps twlab's calls by name (painleve2.fast_eval,
    # Painleve2Solution.omega_smooth, ...): each name must exist, the
    # wrappers must see the calls, and uninstall must restore every name
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = [(ns, dict(vars(ns))) for ns in _namespaces()]
    tr = tracer.Tracer()
    patches = tracer.install(tr)
    try:
        assert {id(o) for o, _, _ in patches} <= {id(ns) for ns, _ in before}
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original
        twlab.painleve2.fast_eval(hm)(0.0)
        hm.omega_smooth(0.0)
        twlab.distribution.log_F2(hm, 0.0)
    finally:
        tracer.uninstall(patches)
    assert tr.counts["painleve2.rhs_evals"] == 1
    assert tr.calls["painleve2.eval"] == tr.calls["distribution.log_F2"] == 1
    for ns, names in before:
        now = vars(ns)
        assert set(now) == set(names)
        assert all(now[k] is v for k, v in names.items()), ns
