#!/usr/bin/env python3
"""Run the benchmark repeatedly and record how steady it is.

    python3 perfbench/steadiness.py [--out FILE]

One call makes one series: RUNS runs of every workload of BENCHMARK.json,
each of its run_seconds, with seeds FIRST_SEED, FIRST_SEED + 1, ...; --out
appends the series to the record in FILE (creating it), so two series of
the same code sit side by side. For every
end-to-end metric the record holds the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, i.e. the
quartile distance as a share of the median, next to the metric's bound from
BENCHMARK.json, and the run values themselves. Per run it also keeps every
algorithm's commit ratio, for the run and for each of its rounds, so a run
or round that landed in another contention regime stays visible instead of
being averaged away. The record starts with a host fingerprint: CPU model,
nproc and build type.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FIRST_SEED = 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    info = next((json.loads(l[len("# info "):]) for l in lines
                 if l.startswith("# info ")), {})
    build = next((tok.split("=", 1)[1] for l in lines
                  if l.startswith("# perfbench ") for tok in l.split()
                  if tok.startswith("build=")), "unknown")
    return json.loads(lines[-1]), info, build


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "within_third_of_bound":
            bound is None or spread < bound / 3, "values": values}


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="append the series to this JSON record")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    record = {"host": {"cpu_model": cpu_model(),
                       "nproc": len(os.sched_getaffinity(0)),
                       "build_type": None},
              "seconds": seconds, "first_seed": FIRST_SEED,
              "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, per_run = {}, []
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            result, info, build = run_once(workload, seed, seconds, 0)
            record["host"]["build_type"] = build
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            algos = info.get("algos", {})
            per_run.append({
                "seed": seed,
                "commit_ratio": {a: v["commit_ratio"] for a, v in algos.items()},
                "commit_ratio_per_round": {
                    a: v["commit_ratio_per_round"] for a, v in algos.items()}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                file=sys.stderr)
        metrics = {n: summarize(v, bounds.get(n)) for n, v in values.items()}
        record["workloads"][workload] = {"metrics": metrics, "runs": per_run}
        for n, s in metrics.items():
            flag = "" if s["within_third_of_bound"] else "  <-- spread >= bound/3"
            print(f"{workload:11s} {n:30s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}")
    if args.out:
        series = []
        if os.path.exists(args.out):
            with open(args.out) as f:
                series = json.load(f)["series"]
        with open(args.out, "w") as f:
            json.dump({"series": series + [record]}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
