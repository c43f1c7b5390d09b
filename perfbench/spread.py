#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each with another seed,
and reports each metric's median and quartile spread (q3 - q1, as a share
of the median) against the bounds in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --trace 0 [--workload NAME ...] [--out FILE]

With --out, the per-workload summary is merged into that JSON file under
"trace0" or "trace1", with the host the runs were measured on
(perfbench/baseline.json is made this way).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for name in names:
        values, fails = {}, 0
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            res = json.loads(last) if last.startswith("{") else {}
            if p.returncode != 0 or not res.get("correct"):
                fails += 1
                ok = False
                print(f"{name} seed {seed}: exit {p.returncode}, correct={res.get('correct')}\n{p.stderr[-2000:]}", file=sys.stderr)
                continue
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())
                                                    if args.trace == 0), file=sys.stderr)
        rows = {}
        for k, vs in sorted(values.items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], None, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vs)}
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s":
                flag = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
                ok = ok and spread <= bound
            print(f"{name:16s} {k:28s} median {med:12.6g}  spread {spread:7.2%}  {flag}")
        summary[name] = {"failed_runs": fails, "metrics": rows}
        result = f".bench_build/perfbench-out/{name}-seed{seed}-trace{args.trace}/result.json"
        if os.path.exists(result):
            r = json.load(open(result))
            summary[name]["host"] = r["host"]
            summary[name]["sizes"] = r["sizes"]
    if args.out:
        doc = json.load(open(args.out)) if os.path.exists(args.out) else {}
        doc[f"trace{args.trace}"] = summary
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
