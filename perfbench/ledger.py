#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/ledger.py --seeds 1-10 --seconds 20
    python3 perfbench/ledger.py --seeds 1-5 --workloads paper-repro
    python3 perfbench/ledger.py --seeds 1 --trace --out split.json

For each workload it runs `bash perfbench/run.sh` once per seed, one run
at a time, and prints every metric's median, first and third quartile
(statistics.quantiles, n=4) and the quartile spread as a share of the
median. --out writes the same summary, with the host, as JSON. Run it
from the repository root.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ["fleet-pop", "region-resume", "paper-repro", "probe-react"]


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s failed (exit %d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(lines[-1])


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True, check=False).stdout.strip()
    return {"cpu": model, "cpus": os.cpu_count(), "os": platform.platform(), "go": go}


def summarise(results):
    out = {"runs": len(results),
           "correct": all(r["correct"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "attempted": sum(r["attempted"] for r in results),
           "metrics": {}}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": vals,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    summary = {"host": host(), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for w in args.workloads.split(","):
        results = [run(w, s, args.seconds, args.trace) for s in seeds(args.seeds)]
        s = summarise(results)
        summary["workloads"][w] = s
        print("%s: %d runs, correct=%s, failed %d of %d" % (w, s["runs"], s["correct"], s["failed"], s["attempted"]))
        for name, m in s["metrics"].items():
            if m["median"] or not args.trace:
                print("  %-34s %14.6g %-6s q1 %12.6g q3 %12.6g spread %.3f" %
                      (name, m["median"], m["unit"], m["q1"], m["q3"], m["spread"]))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
