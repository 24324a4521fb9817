"""Run the benchmark over several seeds and summarise every metric.

Run from the repository root, for example:

    python3 perfbench/collect.py --workloads blowup-flat3d bounds-sweep \
        --seeds 1-10 --trace 0 1 --out /tmp/summary.json

For each workload, trace setting and metric it prints the median, the
quartiles and the spread (interquartile range over the median), and marks
an end-to-end spread that is not below a third of its bound in
BENCHMARK.json; the metrics of the detail line (such as the unscaled wall
times) are summarised too, without a bound.  Counts that must repeat exactly (steps, rhs evaluations,
monitor rows, oracle evaluations, config parses) are compared between
runs of the same seed.  --out writes the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("solver.steps_accepted", "solver.rhs_evals", "solver.steps_at_cap",
                "functionals.energy_sample_calls", "oracle.ode_rhs_evals",
                "cli.experiment_builds")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    detail = next((json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), {})
    return json.loads(lines[-1]), detail


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,1,2")
    parser.add_argument("--trace", type=int, nargs="+", default=[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, steady = {"run_seconds": spec["run_seconds"], "runs": {}}, True
    for trace in args.trace:
        for workload in args.workloads:
            results = {}
            per_metric, accuracy, failed, counts, other = {}, {}, 0, {}, {}
            for seed in parse_seeds(args.seeds):
                result, detail = run_once(workload, seed, spec["run_seconds"], trace)
                failed += result["failed"] + (not result["correct"])
                for name, entry in result["metrics"].items():
                    per_metric.setdefault(name, []).append(entry["value"])
                for name, entry in detail.get("accuracy", {}).items():
                    accuracy.setdefault(name, []).append(entry["value"])
                counts.setdefault(seed, []).append(
                    {k: result["metrics"][k]["value"] for k in EXACT_COUNTS if k in result["metrics"]})
                if detail.get("per_op"):
                    results.setdefault("per_op", {}).setdefault(seed, []).append(detail["per_op"])
                for name, entry in detail.get("metrics", {}).items():
                    if name not in result["metrics"] and isinstance(entry["value"], (int, float)):
                        other.setdefault(name, []).append(entry["value"])
                results["env"] = detail.get("env")
                results["known_defect_probes"] = detail.get("known_defect_probes")
            repeats_exact = all(all(c == runs[0] for c in runs) for runs in counts.values())
            key = f"{workload}/trace{trace}"
            results.update({
                "seeds": args.seeds, "failed_or_incorrect": failed,
                "counts_repeat_exactly": repeats_exact if any(len(r) > 1 for r in counts.values())
                else None,
                "metrics": {n: summarise(v) for n, v in per_metric.items()},
                "accuracy": {n: summarise(v) for n, v in accuracy.items()},
                "detail_metrics": {n: summarise(v) for n, v in other.items()},
            })
            summary["runs"][key] = results
            print(f"{key}: failed or incorrect runs {failed}, counts repeat exactly: "
                  f"{results['counts_repeat_exactly']}")
            for name, s in results["metrics"].items():
                mark = ""
                if name in bounds and name != "setup_s" and s["spread"] >= bounds[name] / 3:
                    mark, steady = "  <-- spread not below bound/3", False
                print(f"  {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{mark}")
            for name, s in results["detail_metrics"].items():
                print(f"  {name:40s} median {s['median']:.6g}  spread {s['spread']:.4f}  (detail)")
            for name, s in results["accuracy"].items():
                print(f"  {name:40s} median {s['median']:.3g}  max {max(s['values']):.3g}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
