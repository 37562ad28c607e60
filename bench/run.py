"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload {sweep,check,balance} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports liebalance from
./src. With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of bench/layertrace.py. The last line of standard output
is the result; a copy with diagnostics goes to bench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# One BLAS thread: the host has two cores, and the oracle's matrices are small
# (at most 143 x 143), so extra threads only add scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(HERE))
import layertrace  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

PROGRAM_MODULES = ("balance", "blocks", "classify", "exact", "groups", "linalg",
                   "modelbuild", "oracle", "randomgen", "report", "roots",
                   "scenario", "sweep", "toledo")
# set-ups per run: this process's own plus fresh interpreters, median reported
SETUP_SAMPLES = 7


class BenchError(RuntimeError):
    pass


def import_program() -> SimpleNamespace:
    if not (SRC / "liebalance" / "__init__.py").is_file():
        raise BenchError(f"no liebalance sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import liebalance
    if Path(liebalance.__file__).resolve().parent != SRC / "liebalance":
        raise BenchError(f"imported liebalance from {liebalance.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"liebalance.{m}")
                              for m in PROGRAM_MODULES})


def setup(workload: str, seed: int):
    """Import numpy and liebalance and build the inputs; returns seconds."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    lb = import_program()
    wl = WORKLOADS[workload](lb, seed)
    return wl, time.perf_counter() - t0


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(wl, seconds: float, after_round=None):
    """Whole rounds until the run has lasted ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(wl.run_round())
        if after_round is not None:
            after_round()
        if time.perf_counter() - start >= seconds:
            return rounds


def output_problems(wl, reference, rounds):
    """Independent checks on the reference round, and every other round must
    give the same outputs."""
    problems = wl.problems(reference)
    want = fingerprint(reference)
    for i, rnd in enumerate(rounds):
        if fingerprint(rnd) != want:
            problems.append(f"round {i} outputs differ from the checked round")
    return problems


def tail(samples):
    """Highest percentile with at least ten samples beyond it (None below 40)."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    return {"percentile": 100.0 * (n - 10) / n, "ms": 1000 * ordered[n - 11],
            "samples": n}


def untraced(wl, seconds: float):
    rounds = run_rounds(wl, seconds)
    problems = output_problems(wl, rounds[0], rounds[1:])
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    busy = sum(r.busy_s for r in rounds)
    samples = [s for r in rounds for s in wl.latency_samples(r)]
    metrics = {
        "ops_per_s": ((attempted - failed) / busy, "1/s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
    }
    diagnostics = {"round_busy_s": [r.busy_s for r in rounds], "tail": tail(samples)}
    return metrics, attempted, failed, problems, rounds, diagnostics


def traced(wl, seconds: float):
    reference = wl.run_round()
    stats = layertrace.LayerStats()
    per_round = []

    def record():
        per_round.append({"calls": dict(stats.calls), "self_s": dict(stats.self_s)})
        stats.reset()

    with layertrace.traced(stats) as replaced:
        rounds = run_rounds(wl, seconds, after_round=record)
    problems = output_problems(wl, reference, rounds)
    silent = [n for n in wl.exercised if per_round[0]["calls"][n] == 0]
    if silent:
        raise BenchError(f"wrappers never fired on {wl.name}: {', '.join(silent)}")
    if any(r["calls"] != per_round[0]["calls"] for r in per_round):
        problems.append("per-round call counts differ between rounds")
    metrics = {}
    for name in layertrace.LAYER_NAMES:
        metrics[f"{name}.calls"] = (per_round[0]["calls"][name], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(r["self_s"][name] for r in per_round), "s")
    busy = statistics.median(r.busy_s for r in rounds)
    metrics["trace.overhead_pct"] = (100 * (busy / reference.busy_s - 1), "%")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    diagnostics = {"rounds": len(rounds), "bindings_replaced": len(replaced),
                   "untraced_round_s": reference.busy_s, "traced_round_s": busy}
    return metrics, attempted, failed, problems, [reference] + rounds, diagnostics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        wl, setup_s = setup(args.workload, args.seed)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = traced if args.trace else untraced
        metrics, attempted, failed, problems, rounds, diagnostics = run(wl, args.seconds)
        if not args.trace:
            setups = [setup_s] + [setup_in_fresh_interpreter(args.workload, args.seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
            metrics["setup_s"] = (statistics.median(setups), "s")
            # ru_maxrss is in KiB on Linux
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
            diagnostics["setup_samples_s"] = setups
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    failures = sorted({f for r in rounds for f in r.failures})
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    for p in problems[:20]:
        print(f"output check failed: {p}", file=sys.stderr)
    for f in failures:
        print(f"failed operation: {f}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, problems=problems, failures=failures,
                  diagnostics=diagnostics)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
