#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 --log runs.txt
    python3 perfbench/spread.py --from runs.txt --from runs2.txt

Each run's result line is appended to the --log file as
"<workload> <seed> <trace> <json>". For every workload and metric the
summary prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the IQR as a share of the median; given two
logs it also prints the shift of the second median from the first.
"""
import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def load(path):
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    for line in open(path):
        parts = line.split(" ", 3)
        if len(parts) < 4 or not parts[3].startswith("{"):
            continue
        result = json.loads(parts[3])
        if not result["correct"] or result["failed"]:
            print(f"{parts[0]} seed {parts[1]}: incorrect result", file=sys.stderr)
        for name, m in result["metrics"].items():
            runs[parts[0]][name].append((m["value"], m["unit"]))
    return runs


def summarize(logs):
    sets = [load(p) for p in logs]
    for workload in sets[0]:
        print(f"{workload}")
        for name in sorted(sets[0][workload]):
            row = f"  {name:36s}"
            medians = []
            for runs in sets:
                values = [v for v, _ in runs[workload][name]]
                if len(values) < 2:
                    row += f" | n={len(values)}"
                    continue
                q1, med, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                medians.append(med)
                spread = (q3 - q1) / med if med else 0.0
                row += f" | n={len(values)} median={med:.6g} q1={q1:.6g} q3={q3:.6g} iqr/median={spread:.4f}"
            if len(medians) == 2 and medians[0]:
                row += f" | shift={(medians[1] - medians[0]) / medians[0]:+.4f}"
            print(row + f" {sets[0][workload][name][0][1]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="crowd,longtail-epoch,quorum")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--log", help="append each run's result line here")
    ap.add_argument("--from", dest="logs", action="append", help="summarize existing logs instead of running")
    args = ap.parse_args()
    if args.logs:
        summarize(args.logs)
        return 0
    if not args.log:
        ap.error("--log is required when running")
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = out.stdout.strip().splitlines()[-1:] or [""]
            with open(args.log, "a") as f:
                f.write(f"{workload} {seed} {args.trace} {last[0]}\n")
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}", file=sys.stderr)
    summarize([args.log])
    return 0


if __name__ == "__main__":
    sys.exit(main())
