"""Runs every workload of BENCHMARK.json on ten seeds, untraced and
traced, and writes the baseline: per (metric, workload) the median, the
quartiles, the spread (quartile distance over the median) and the range
(largest minus smallest value over the median), plus the host's nproc.
End-to-end spreads above a third of their bound are flagged (setup_s
excepted).

Run from the repository root:

    python3 perfbench/baseline.py
"""

import json
import os
import statistics
import subprocess
import sys
import time


RUNS = 10
FIRST_SEED = 1000
OUT = "perfbench/baseline.json"


def main():
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    out = {"nproc": os.cpu_count(), "run_seconds": bench["run_seconds"], "runs": RUNS,
           "first_seed": FIRST_SEED}
    ok = True
    for trace in ("0", "1"):
        section = out.setdefault("end_to_end" if trace == "0" else "per_layer", {})
        for name in names:
            values = {}
            for i in range(RUNS):
                seed = FIRST_SEED + i
                cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", trace]
                start = time.monotonic()
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
                print(f"{name} seed {seed} trace {trace}: {time.monotonic() - start:.1f} s", flush=True)
                lines = proc.stdout.strip().splitlines()
                res = json.loads(lines[-1]) if lines else {}
                if proc.returncode != 0 or not res.get("correct") or res.get("failed"):
                    print(f"{name} seed {seed} trace {trace}: exit {proc.returncode}, {res}", file=sys.stderr)
                    ok = False
                for metric, v in res.get("metrics", {}).items():
                    values.setdefault(metric, {"unit": v["unit"], "values": []})["values"].append(v["value"])
            summary = {}
            for metric, d in sorted(values.items()):
                vs = d["values"]
                q1, _, q3 = statistics.quantiles(vs, n=4)
                med = statistics.median(vs)
                spread = (q3 - q1) / med if med else 0.0
                span = (max(vs) - min(vs)) / med if med else 0.0
                summary[metric] = {"unit": d["unit"], "median": med, "q1": q1, "q3": q3,
                                   "spread": spread, "range": span, "values": vs}
                flag = ""
                bound = bounds.get(metric)
                if bound is not None and metric != "setup_s" and spread > bound / 3:
                    flag = f"  spread over bound/3 ({bound / 3:.4f})"
                print(f"{name:22s} {metric:22s} median={med:.6g} {d['unit']} spread={spread:.4f} "
                      f"range={span:.4f}{flag}",
                      flush=True)
            section[name] = summary
    with open(OUT, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
