"""rdblowup benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload blowup-flat3d --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py):
  blowup-flat3d  CLI `sandwich` runs, 16^3, exact blow-up time known
  heat-robin3d   library `simulate` of exact Robin heat modes, 40^3
  bounds-sweep   many small CLI `check` / `bounds` runs over seeded configs

BENCHMARK.json lists the first two.  bounds-sweep runs the same way but
is left out of that list: a third workload's runs would not fit the time
the benchmark's runs are given, and its short, interpreter-bound ops are
the ones the machine's drift moves most.

Each workload runs a fixed number of ops, round(seconds / (nominal op
time + calibration time per op)), so both sides of a comparison do the
same work; at the commit that defined the benchmark that takes about
--seconds.  Set-up (importing rdblowup in a fresh interpreter, generating
the inputs and one small warm-up op) is repeated five times and its median
reported as setup_s.  Every op is checked against independent references
(reference.py) outside the timed region.

The machine is a few cores of a shared host whose speed drifts by 20% or
more within minutes, so op times are scaled by the machine's speed at the
time: the reference kernel of calibrate.py is timed before the first op
and after every op (short ops: every batch of about a second of them),
and each op's wall time t becomes t * (ref / k)^e, where k is the mean
kernel time around its batch, ref the kernel time when the benchmark was
defined, and e the workload's elasticity, the measured slope of log t on
log k (workloads.py).  The kernel uses numpy only, so a change to rdblowup
moves the scaled times as it moves the wall times, while a drift of the
machine's speed moves t and k together and largely cancels.

Set-up is scaled the same way, by the mean of the kernel times just
before and just after it.

--trace 0 reports the end-to-end metrics: setup_s, run_scaled_s (sum of
scaled op times), ops_per_scaled_s and peak_rss_mb.  The median scaled op
time (op_latency_p50_scaled_ms), the unscaled wall times (run_wall_s,
ops_per_s, op_latency_p50_ms, op_latency_p90_ms, and the set-up's wall_s)
and the kernel times are in the detail line: a run of 4 to 7 long ops has
too few samples for a steady median or any higher percentile.
--trace 1 runs the first half of the ops once untraced and once with the
timing shims of shims.py installed, and reports the per-layer metrics per
traced op, the tracing overhead (wall time), and per-call timings
(percall.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units come
from BENCHMARK.json.  The line before it, starting with "detail ", holds
everything else: environment, accuracy, failure reasons, known-defect
probes and the span table.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import rdblowup, rdblowup.cli; "
                "print(time.perf_counter() - t)")


def import_seconds():
    """Time `import rdblowup` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment():
    import numpy
    import scipy
    try:
        l3 = (Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
              .read_text().strip())
    except OSError:
        l3 = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "l3": l3,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def run_ops(wl, ops, calibrator=None, before=None, tracer=None):
    """Run and check each op; return (latencies, reasons, bytes written,
    kernel seconds around each op's batch).  `before` is the kernel time
    just before the first op; without a calibrator the kernel list is
    empty."""
    latencies, reasons, written, kernel_s = [], [], [], []
    batch = wl.batch_ops()
    for first in range(0, len(ops), batch):
        chunk = ops[first:first + batch]
        for op in chunk:
            wl.prepare(op)
            start = perf_counter()
            result = wl.run(op, tracer)
            latencies.append(perf_counter() - start)
            reasons.append(wl.check(op, result))
            written.append(wl.bytes_written(op))
        if calibrator:
            after = calibrator.seconds()
            kernel_s.extend([(before + after) / 2] * len(chunk))
            before = after
    return latencies, reasons, written, kernel_s


def end_to_end(latencies, kernel_s, scale, setup_s):
    scaled = [t * scale(k) for t, k in zip(latencies, kernel_s)]
    wall = sum(latencies)
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    return {
        "setup_s": (setup_s, "s"),
        "run_scaled_s": (sum(scaled), "s"),
        "ops_per_scaled_s": (len(scaled) / sum(scaled), "1/s"),
        "op_latency_p50_scaled_ms": (1e3 * statistics.median(scaled), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "run_wall_s": (wall, "s"),
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_latency_p90_ms": (1e3 * p90, "ms"),
        "kernel_ms": (1e3 * statistics.median(kernel_s), "ms"),
    }


def calibration_s(wl):
    """Reference-kernel time per op, at the speed when the benchmark was
    defined."""
    _, _, repeats, ref_s = wl.calibration
    return (1 if wl.quick else repeats) * ref_s / wl.batch_ops()


def select(spec_metrics, measured, absent):
    """Metrics named in BENCHMARK.json; a missing one reads 0 and is
    listed as absent."""
    out = {}
    for metric in spec_metrics:
        value, _ = measured.get(metric["name"], (None, None))
        if value is None:
            absent.append(metric["name"])
            value = 0.0
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small meshes and one set-up, to exercise the harness")
    args = parser.parse_args(argv)

    if not (SRC / "rdblowup" / "__init__.py").is_file():
        print(f"rdblowup sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import percall
    import rdblowup
    import rdblowup.cli  # noqa: F401  (CLI ops call rdblowup.cli.main)
    from calibrate import Calibrator
    from shims import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    n, steps, kernel_repeats, ref_s = WORKLOADS[args.workload].calibration
    calibrator = Calibrator(n, steps, 1 if args.quick else kernel_repeats)
    kernel_before_setup = calibrator.seconds()
    repeats = 1 if args.quick else SETUP_REPEATS
    import_s = statistics.median(import_seconds() for _ in range(repeats))
    setup_times, warm_reasons = [], []
    for _ in range(repeats):
        start = perf_counter()
        wl = WORKLOADS[args.workload](rdblowup, work, args.seed, args.quick)
        ops = wl.generate(max(1, round(args.seconds / (wl.op_seconds() + calibration_s(wl)))))
        warm_reasons.append(wl.warm_up())
        setup_times.append(perf_counter() - start)
    kernel_after_setup = calibrator.seconds()
    setup_wall_s = import_s + statistics.median(setup_times)

    def scale(k):
        return (ref_s / k) ** wl.elasticity

    setup_s = setup_wall_s * scale((kernel_before_setup + kernel_after_setup) / 2)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "quick": args.quick, "env": environment(), "setup": {
                  "import_s": import_s, "generate_and_warm_up_s": setup_times,
                  "wall_s": setup_wall_s,
                  "kernel_s": [kernel_before_setup, kernel_after_setup]}}
    absent = []
    if args.trace:
        k = max(1, len(ops) // 2)
        plain, reasons, _, _ = run_ops(wl, ops[:k])
        tracer = Tracer()
        with tracer:
            traced, traced_reasons, written, _ = run_ops(wl, ops[:k], tracer=tracer)
        reasons += traced_reasons
        measured = tracer.layer_metrics(k)
        per_call, missing = percall.measure(rdblowup, args.quick)
        measured.update(per_call)
        measured.update({
            "cli.bytes_written": (statistics.fmean(written), "B"),
            "trace.ops": (float(k), "count"),
            "trace.untraced_run_wall_s": (sum(plain), "s"),
            "trace.traced_run_wall_s": (sum(traced), "s"),
            "trace.overhead_s": (sum(traced) - sum(plain), "s"),
        })
        absent += tracer.absent + missing
        detail["spans"] = tracer.span_table()
        metrics = select(spec["per_layer"], measured, absent)
    else:
        latencies, reasons, _, kernel_s = run_ops(wl, ops, calibrator, kernel_after_setup)
        measured = end_to_end(latencies, kernel_s, scale, setup_s)
        detail["per_op"] = {"wall_s": latencies, "kernel_s": kernel_s}
        metrics = select(spec["end_to_end"], measured, absent)

    failures = {}
    for reason in reasons:
        if reason:
            failures[reason] = failures.get(reason, 0) + 1
    failed = sum(failures.values())
    probes = wl.probes()
    shutil.rmtree(work, ignore_errors=True)
    detail.update({
        "ops": len(reasons), "failed_op_ratio": failed / len(reasons),
        "failures": failures, "warm_up_failures": [r for r in warm_reasons if r],
        "accuracy": {k: {"value": v, "unit": u} for k, (v, u) in wl.accuracy().items()},
        "known_defect_probes": [{"input": label, "expected": "exit 2",
                                 "outcome": reason or "ok"} for label, reason in probes],
        "absent": absent, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    })

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {len(reasons)}")
    print("env " + " ".join(f"{k}={v}" for k, v in detail["env"].items() if k != "threads")
          + "  threads pinned to 1")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    for name, entry in detail["accuracy"].items():
        print(f"  {name:40s} {entry['value']:.3g}")
    print(f"  failed_op_ratio {detail['failed_op_ratio']:.4g} "
          f"({failed} of {len(reasons)}) {failures or ''}")
    for probe in detail["known_defect_probes"]:
        print(f"  known-defect probe: {probe['input']}: {probe['outcome']}")
    if absent:
        print("  absent: " + ", ".join(absent))
    print("detail " + json.dumps(detail))
    correct = failed == 0 and not detail["warm_up_failures"]
    print(json.dumps({"correct": correct, "attempted": len(reasons), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
