"""twlab benchmark: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload query-oracle --seed 1 --seconds 5 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: every
end-to-end metric untraced (--trace 0), every per-layer metric traced
(--trace 1). Without --workload it runs every workload untraced and traced,
each in its own process, prints all metrics by name with their units and
the tracing overhead, and exits nonzero if any output was wrong.

Run it from the root of a twlab source tree; the package is imported from
src/ of that tree and outputs go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One caller, no helper threads: numpy's BLAS and twlab's table pool.
THREAD_ENV = {
    "TWLAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

WORKLOADS = ("solve-verify", "query-oracle")
DEFAULT_SEED = 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(name, seed, seconds, trace):
    import workloads as wl
    import tracer as tr

    out_dir = os.path.join(OUT, name)
    os.makedirs(out_dir, exist_ok=True)
    spec = load_spec()
    run = wl.Run(seed, out_dir)
    setups = [wl.setup(run)]

    if trace:
        run.tracer = tr.Tracer()
        patches = tr.install(run.tracer)
        try:
            rounds, busy = wl.run_rounds(run, name, seconds)
        finally:
            tr.uninstall(patches)
        values = tr.layer_values(run.tracer, rounds)
        run.tracer.write(os.path.join(out_dir, f"spans-seed{seed}.json"), extra={
            "workload": name, "seed": seed, "rounds": rounds,
            "round_s": busy / rounds, "per_round": values})
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        rounds, busy = wl.run_rounds(run, name, seconds, setups)
        values = run.metrics()
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    detail = {
        "workload": name, "seed": seed, "trace": trace,
        "rounds": rounds, "round_s": busy / rounds,
        "figures": run.figures, "check_failures": run.failures,
        "errors": run.errors, "samples": run.samples, "setups": setups,
    }
    print(json.dumps({"detail": detail}))
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def run_all(seed, seconds):
    """Every workload untraced then traced, each in its own process."""
    ok = True
    for name in WORKLOADS:
        rows = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: exited with {proc.returncode}")
                ok = False
                continue
            lines = proc.stdout.strip().splitlines()
            rows[trace] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
        for trace, (detail, result) in sorted(rows.items()):
            ok = ok and result["correct"] and result["failed"] == 0
            print(f"== {name} trace={trace}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}  "
                  f"rounds={detail['rounds']}")
            for metric, v in result["metrics"].items():
                print(f"   {metric:34s} {v['value']:14.6g} {v['unit']}")
            for fig, v in sorted(detail["figures"].items()):
                print(f"   check {fig:28s} {v:14.3e}")
            for msg in detail["check_failures"] + detail["errors"]:
                print(f"   FAIL {msg}")
        if len(rows) == 2:
            overhead = rows[1][0]["round_s"] / rows[0][0]["round_s"] - 1.0
            print(f"   tracing overhead {100 * overhead:+.1f}% "
                  f"(round time traced vs untraced)")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="round time to measure (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twlab", "__init__.py")):
        sys.stderr.write(f"perfbench: no twlab sources under {SRC}\n")
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds)
    result = run_workload(args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [SRC, HERE]
    raise SystemExit(main())
