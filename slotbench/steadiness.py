#!/usr/bin/env python3
"""Steadiness record for the slotbench benchmark.

Runs the benchmark command from BENCHMARK.json for every (round, seed,
workload), interleaving workloads within each seed, and reports for each
end-to-end metric its median and quartiles over the seeds of a round, the
quartile spread as a share of the median, and how far each later round's
median moved from the first round's. Run from the repository root:

    python3 slotbench/steadiness.py --seeds 1-10 --rounds 2 \
        --out slotbench/STEADINESS.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, elapsed


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--out", help="write the record here as JSON")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    seeds = parse_seeds(opts.seeds)
    seconds = bench["run_seconds"]

    # samples[round][workload][metric] -> list over seeds
    samples = [{w: {} for w in names} for _ in range(opts.rounds)]
    walls = {w: [] for w in names}
    for r in range(opts.rounds):
        for seed in seeds:
            for w in names:
                result, elapsed = run_once(cmd, w, seed, seconds)
                walls[w].append(elapsed)
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{w} seed {seed}: failed checks: {result}")
                for name, m in result["metrics"].items():
                    samples[r][w].setdefault(name, []).append(m["value"])
                print(f"round {r + 1} seed {seed} {w}: {elapsed:.1f} s",
                      file=sys.stderr)

    record = {
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": seeds,
        "rounds": opts.rounds,
        "invocation_wall_s_max": {w: max(v) for w, v in walls.items()},
        "workloads": {},
    }
    worst = []
    for w in names:
        per_metric = {}
        for name, vals in samples[0][w].items():
            rounds = [summarise(samples[r][w][name]) for r in range(opts.rounds)]
            first = rounds[0]["median"]
            # Positive shift = later median worse than the first, as a share.
            shifts = []
            for s in rounds[1:]:
                d = (s["median"] - first) / first if first else 0.0
                shifts.append(d if lower_is_better.get(name) else -d)
            bound = bounds.get(name)
            per_metric[name] = {"bound": bound, "rounds": rounds,
                                "median_shift": shifts}
            spread = max(s["spread"] for s in rounds)
            if bound:
                worst.append((spread / bound, w, name, spread, bound, shifts))
        record["workloads"][w] = per_metric

    worst.sort(reverse=True)
    print(f"{'workload':<16} {'metric':<22} {'spread':>8} {'bound':>6} "
          f"{'spread/bound':>12}  median shifts", file=sys.stderr)
    for frac, w, name, spread, bound, shifts in worst:
        print(f"{w:<16} {name:<22} {spread:8.4f} {bound:6.3f} {frac:12.3f}  "
              + " ".join(f"{s:+.4f}" for s in shifts), file=sys.stderr)
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
