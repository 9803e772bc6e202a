"""raydepth benchmark: runs a named workload through the public entry points,
checks every step's outputs, and prints each metric with its unit.

    python3 perfbench/run.py                        # all workloads, one process each
    python3 perfbench/run.py --workload train_desk --seed 3 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation in
the program.  ``--trace 1`` runs half the time untraced and half traced
and reports the per-layer metrics of ``perfbench/layers.py``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results (environment, samples, self
times) go to ``.perfbench_out/`` at the repository root, spans of a traced
run alongside as ``.npz``.
"""

import time

T0 = time.perf_counter()  # set-up is measured from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("train_desk", "infer_2x", "gradcheck_tiny")
# Fresh-process set-ups per run; setup_s is their median.
SETUP_RUNS = 3
# The untraced phase runs at least this many steps, however short --seconds
# is, so that at least P90_TAIL samples lie beyond its p90 (11 of 110).
MIN_STEPS = 110
P90_TAIL = 10
# Relative float64 tolerance on losses and MAE against references.json.
REFERENCE_RTOL = 1e-9

END_TO_END_UNITS = {
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, help="omit to run every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded (None if not found)."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            cpu_max = f.read().strip()
    except OSError:
        cpu_max = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "machine": platform.machine(),
    }


def quantiles(ms):
    import numpy as np

    p50, p90 = np.percentile(ms, [50, 90])
    return float(p50), float(p90), int((ms > p90).sum())


def reference_check(workload, run):
    """Compare the first steps of ``run`` with the shipped references."""
    with open(os.path.join(HERE, "references.json")) as f:
        refs = json.load(f).get(workload.name, {})
    expected = refs.get(str(workload.seed))
    if expected is None:
        return None
    key, _ = workload.reference
    got = [o.get(key) for o in run.outputs[: len(expected)]]
    bad = [
        (i, g, e)
        for i, (g, e) in enumerate(zip(got, expected))
        if g is None or abs(g - e) > REFERENCE_RTOL * max(abs(e), 1e-300)
    ]
    return {"key": key, "compared": len(got), "mismatches": bad[:5], "ok": not bad}


def setup_in_fresh_process(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args):
    import numpy as np

    import layers
    import raydepth
    import spans
    import workloads

    if not os.path.abspath(raydepth.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"raydepth imported from {raydepth.__file__}, not from {SRC}")
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer is None:
            workload.setup()
            workloads.measure(workload, max_steps=workload.warmup_steps)
        else:
            with tracer.installed():
                workload.setup()
                workloads.measure(workload, max_steps=workload.warmup_steps)
        if args.setup_only:
            first = workloads.measure(workload, max_steps=0)
            print(json.dumps({"setup_s": first.stopped_at - T0}))
            return 0
        if tracer is None:
            seconds, min_steps = args.seconds, MIN_STEPS
        else:
            seconds, min_steps = args.seconds / 2, workload.warmup_steps
        run = workloads.measure(workload, seconds=seconds, min_steps=min_steps)
        setup_s = run.starts[0] - T0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = None
        if tracer is not None:
            tracer.step = spans.PRE_STEP
            traced = workloads.measure(workload, seconds=seconds, min_steps=min_steps, tracer=tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [run] if traced is None else [run, traced]
    attempted = sum(r.steps for r in runs)
    failed = sum(len(r.failed) for r in runs)
    reasons = [reason for r in runs for reason in r.reasons]
    reference = reference_check(workload, run)
    checks = {"steps": failed == 0, "reference": reference is None or reference["ok"]}
    ms = run.step_ms()
    p50, p90, beyond = quantiles(ms)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "samples": len(ms),
        "p90_samples_beyond": beyond,
        "check_s": run.check_s,
        "phase_wall_s": run.wall_s(),
        "failed_ops_ratio": failed / max(attempted, 1),
        "gradcheck_probes_at_a_kink": sum(1 for r in runs for o in r.outputs if o.get("kink")),
        "failure_reasons": reasons,
        "reference": reference,
    }
    if traced is None:
        setups = [setup_s] + [setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]
        result["setup_s_samples"] = setups
        values = {
            "step_ms_p50": p50,
            "step_ms_p90": p90,
            "steps_per_s": run.steps_per_s(),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        checks["p90_tail"] = beyond >= P90_TAIL
    else:
        summary = tracer.summary(traced.steps)
        traced_ms = traced.step_ms()
        values = layers.layer_values(summary, tracer, ms, traced_ms)
        units = {name: unit for name, unit, *_ in layers.LAYERS}
        n = min(run.steps, traced.steps)
        same = [a for a, b in zip(run.outputs[:n], traced.outputs[:n]) if a != b]
        step_mean = float(np.mean(summary["step_ms"])) if traced.steps else 0.0
        checks["traced_equals_untraced"] = not same
        checks["memory_claim"] = not tracer.violations
        checks["spans_closed_and_nested"] = tracer.malformed_spans() == 0
        result.update(
            traced_step_ms_p50=float(np.median(traced_ms)),
            untraced_step_ms_p50=p50,
            traced_samples=len(traced_ms),
            compared_outputs=n,
            memory_claim_violations=tracer.violations[:5],
            self_ms=summary["self_ms"],
            self_sum_ms=summary["self_sum_ms"],
            traced_step_ms_mean=step_mean,
        )
    result["checks"] = checks
    correct = all(checks.values())
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result["metrics"] = metrics

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1)
    if tracer is not None:
        tracer.save(stem + "-spans.npz")

    print_report(result, values, units, traced is not None)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def print_report(result, values, units, traced):
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    n, beyond = result["samples"], result["p90_samples_beyond"]
    print(f"steps timed: {n}; samples beyond p90: {beyond}")
    print(f"benchmark checks between steps: {result['check_s']:.4f} s of the phase's"
          f" {result['phase_wall_s']:.4f} s, left out of steps_per_s")
    print(f"failed_ops_ratio {result['failed_ops_ratio']:.6g} (1)")
    if result["gradcheck_probes_at_a_kink"]:
        print(f"probes at a kink (one-sided slope matches reverse mode): {result['gradcheck_probes_at_a_kink']}")
    for reason in result["failure_reasons"]:
        print(f"  FAILED {reason}")
    for key, ok in result["checks"].items():
        print(f"check {key}: {'ok' if ok else 'FAILED'}")
    if traced:
        print(f"layer self times inside steps (ms/step), sum {result['self_sum_ms']:.4f}"
              f" vs traced step mean {result['traced_step_ms_mean']:.4f}:")
        for name, v in sorted(result["self_ms"].items(), key=lambda kv: -kv[1]):
            if v > 0:
                print(f"  {name:36s} {v:10.4f}")
        print(f"traced step_ms_p50 {result['traced_step_ms_p50']:.4f} ms, untraced"
              f" {result['untraced_step_ms_p50']:.4f} ms")
    for name in units:
        print(f"{name} {values[name]:.6g} {units[name]}")


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "raydepth", "__init__.py")):
        print(f"error: no raydepth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
