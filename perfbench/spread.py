#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one benchmark run at a time.

    python3 perfbench/spread.py --workloads bridge loo theory --seeds 1 2 3 4 5

For each workload and metric it prints the median over the seeds, the
quartile distance as a share of the median (``statistics.quantiles(n=4)``),
and that share against a third of the metric's bound in BENCHMARK.json.
Exits non-zero if any run fails or reports ``correct: false``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED rc={proc.returncode}\n{proc.stderr[-2000:]}"
                      f"{lines[-5:] if lines else ''}")
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            digest = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), None)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                + f", digest {digest[:16] if digest else None}", flush=True)
        for m in spec["end_to_end"]:
            series = values[m["name"]]
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / med
            flag = "ok" if share < m["bound"] / 3 else "WIDE"
            print(f"{workload:8s} {m['name']:12s} median {med:.4f} {m['unit']}  "
                  f"iqr/median {share:.4f}  bound/3 {m['bound'] / 3:.4f}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
