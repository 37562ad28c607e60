"""Run every workload through bench/run.py and print every metric by name.

    python3 bench/suite.py                       # each workload once, seed 1
    python3 bench/suite.py --seeds 1-10          # ten runs each, with spreads
    python3 bench/suite.py --seeds 11-20 --against bench/results/suite-1-10.json

Each run is its own process, one after another. With several seeds the table
gives, per workload and metric, the median, the quartile spread (Q3 - Q1 as a
share of the median, quartiles as statistics.quantiles(n=4) gives them) and,
with --against, the shift of the median from an earlier suite file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "check", "balance")


def seed_list(text: str):
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", type=seed_list, default=[1])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", type=Path, help="earlier suite file to compare medians with")
    args = ap.parse_args(argv)
    seeds = args.seeds
    results = {}
    for w in args.workloads.split(","):
        results[w] = []
        for seed in seeds:
            res = run_once(w, seed, args.seconds, args.trace)
            results[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
    earlier = json.loads(args.against.read_text()) if args.against else None
    print(f"\n{'workload':9} {'metric':40} {'median':>14} {'unit':6} {'spread':>7}"
          + (f" {'shift':>7}" if earlier else ""))
    summary = {}
    for w, runs in results.items():
        summary[w] = {"seeds": seeds, "attempted": [r["attempted"] for r in runs],
                      "failed": [r["failed"] for r in runs], "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            s = spread(values)
            summary[w]["metrics"][name] = {"unit": unit, "values": values, "median": med,
                                           "spread": s}
            line = (f"{w:9} {name:40} {med:14.6g} {unit:6} "
                    f"{'' if s is None else format(s, '7.2%'):>7}")
            if earlier and name in earlier.get(w, {}).get("metrics", {}):
                before = earlier[w]["metrics"][name]["median"]
                line += f" {(med - before) / before:+7.2%}" if before else ""
            print(line)
        shares = {f / a for f, a in zip(summary[w]["failed"], summary[w]["attempted"])}
        print(f"{w:9} {'attempted / failed':40} {sum(summary[w]['attempted']):>14} ops, "
              f"{sum(summary[w]['failed'])} failed, failed share per run {sorted(shares)}")
    HERE.joinpath("results").mkdir(exist_ok=True)
    out = HERE / "results" / f"suite-{seeds[0]}-{seeds[-1]}-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
