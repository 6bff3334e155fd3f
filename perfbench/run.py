"""qeswell benchmark: closed-loop runs of the tables and algebra workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {tables,algebra} --seed N \\
        --seconds S --trace {0,1}

One client in one process sends each operation after the previous one has
completed.  Operations come in seeded blocks (see ``workloads.py``); the run
measures whole blocks, and starts another only while it is expected to end
within ``--seconds``, so at least one block is always measured.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same operations untraced and then traced, requires bitwise-equal
outputs, and reports the per-layer metrics plus the tracing overhead.  The
last line of standard output is the result object; the lines before it are
a detailed report (environment, the metric names of the workload, layer
shares), which is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GRID_ENV_VAR = "QES_GRID_POINTS"
SETUP_REPEATS = 3
# a fresh interpreter through ``import qeswell`` and a first small call
SETUP_SNIPPET = (
    "import qeswell.cli, sys; sys.exit(qeswell.cli.main(['spectrum', '--geometry', 'hyp', "
    "'--family', 'tf1', '--gamma', '2', '--eta', '2', '--order', '2', '--method', 'all', "
    "'--format', 'json']))"
)
# the names each workload's end-to-end metrics carry in the detailed report
WORKLOAD_METRICS = {
    "tables": {"op_s_p50": ("tables_s", "s", 1.0)},
    "algebra": {
        "op_s_p50": ("spectrum_ms_p50", "ms", 1e3),
        "op_s_p90": ("spectrum_ms_p90", "ms", 1e3),
        "ops_per_min": ("spectra_per_s", "1/s", 1 / 60),
    },
}


def _cap_blas_threads(nproc: int) -> dict:
    """Cap BLAS/OpenMP pools at ``nproc``; must run before numpy is imported."""
    caps = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
        caps[var] = nproc
    return caps


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def highest_supported_percentile(n: int) -> int | None:
    """Largest whole percentile with at least ten samples beyond it."""
    if n <= 10:
        return None
    return int(100 * (n - 10) / n)


def measure_setup(env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def closed_loop(stream, seconds: float, execute) -> list:
    """Run whole blocks from ``stream`` while the next is expected to fit."""
    records = []
    block_times = []
    start = time.perf_counter()
    for block in stream:
        began = time.perf_counter()
        records.extend(execute(op) for op in block)
        block_times.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(block_times) > seconds:
            return records


def make_executor(workloads, checker, tracer=None):
    def execute(op):
        if tracer is not None:
            tracer.op += 1
        start = time.perf_counter()
        try:
            output = workloads.timed_call(op)
        except Exception as exc:  # counted as a failed operation
            output = exc
        elapsed = time.perf_counter() - start
        failure = checker(op, output)
        digest = repr(output) if isinstance(output, Exception) else workloads.fingerprint(op, output)
        return {"op": op, "seconds": elapsed, "failure": failure, "digest": digest}
    return execute


def end_to_end(records, setup_times) -> dict:
    times = [r["seconds"] for r in records]
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "op_s_p50": (statistics.median(times), "s", len(times)),
        "op_s_p90": (percentile(times, 90), "s", len(times)),
        "ops_per_min": (60.0 * len(times) / sum(times), "1/min", len(times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def named_metrics(workload: str, e2e: dict, records) -> dict:
    """The end-to-end metrics under the names this workload reports them by."""
    out = {}
    for key, (name, unit, scale) in WORKLOAD_METRICS[workload].items():
        value, _, n = e2e[key]
        out[name] = {"value": value * scale, "unit": unit, "samples": n}
    times = [r["seconds"] for r in records]
    q = highest_supported_percentile(len(times))
    name, value = (f"op_s_p{q}", percentile(times, q)) if q else ("op_s_max", max(times))
    out[name] = {"value": value, "unit": "s", "samples": len(times)}
    for key in ("setup_s", "peak_rss_mb"):
        value, unit, n = e2e[key]
        out[key] = {"value": value, "unit": unit, "samples": n}
    failed = sum(1 for r in records if r["failure"])
    out["fail_frac"] = {"value": failed / len(records), "unit": "failed/attempted", "samples": len(records)}
    return out


def environment(args, caps, grid_var_was_set) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_thread_cap": caps,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        f"{GRID_ENV_VAR}_unset": GRID_ENV_VAR not in os.environ,
        f"{GRID_ENV_VAR}_was_set_by_caller": grid_var_was_set,
    }


def _import_program():
    """Import qeswell from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "qeswell" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no qeswell sources under {src}")
    sys.path.insert(0, str(src))
    import qeswell

    if Path(qeswell.__file__).resolve().parent != (src / "qeswell").resolve():
        raise SystemExit(f"benchmark: imported qeswell from {qeswell.__file__}, not from {src}")


def run_untraced(args, workloads, checker) -> tuple[dict, list, dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    setup_times = measure_setup(env)
    records = closed_loop(workloads.blocks(args.workload, args.seed), args.seconds,
                          make_executor(workloads, checker))
    e2e = end_to_end(records, setup_times)
    detail = {
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "metrics_by_workload_name": named_metrics(args.workload, e2e, records),
    }
    return {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}, records, detail


def run_traced(args, workloads, checker, tracing) -> tuple[dict, list, dict]:
    """Untraced pass, then the same operations traced; outputs must match bitwise."""
    untraced = closed_loop(workloads.blocks(args.workload, args.seed), args.seconds / 2,
                           make_executor(workloads, checker))
    tracer = tracing.Tracer()
    with tracer:
        traced = [make_executor(workloads, checker, tracer)(r["op"]) for r in untraced]
    leftover = tracing.installed_wrappers()
    if leftover:
        raise SystemExit(f"benchmark: wrappers left installed: {leftover}")
    identical = all(a["digest"] == b["digest"] for a, b in zip(untraced, traced))
    layer, layer_self_s = tracing.layer_metrics(tracer.spans, len(traced))
    busy = sum(r["seconds"] for r in traced)
    layer["trace.overhead_s"] = ((busy - sum(r["seconds"] for r in untraced)) / len(traced), "s/op")
    layer["fail_frac"] = (sum(1 for r in traced if r["failure"]) / len(traced), "failed/attempted")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    detail = {
        "per_layer": metrics,
        "layer_self_share": {k: v / busy for k, v in layer_self_s.items()},
        "spans": len(tracer.spans),
        "outputs_bitwise_identical": identical,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op, "error": s.error}) + "\n")
    return metrics, traced, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_METRICS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    caps = _cap_blas_threads(len(os.sched_getaffinity(0)))
    grid_var_was_set = os.environ.pop(GRID_ENV_VAR, None) is not None
    _import_program()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    checker = workloads.Checker(ROOT)
    if args.trace:
        metrics, records, detail = run_traced(args, workloads, checker, tracing)
        correct = detail["outputs_bitwise_identical"]
    else:
        metrics, records, detail = run_untraced(args, workloads, checker)
        correct = True
    failures = [f"{r['op'].describe()}: {r['failure']}" for r in records if r["failure"]]
    detail.update(workload=args.workload, failures=failures,
                  environment=environment(args, caps, grid_var_was_set))
    text = json.dumps(detail, indent=1, sort_keys=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
