"""Command line interface.

Subcommands:
  check <scenario.json>    classify one scenario file
  sweep <family> <bound>   exhaustive classification sweep
  oracle                   randomized symbolic-vs-numeric agreement runs
  verify-appendix          structural checks of the two tight embeddings

Exit codes: 0 verdict reached, 2 indeterminate, 3 validation error,
4 internal consistency or oracle failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import replace

from . import groups
from . import report as report_mod
from . import scenario as scenario_mod
from .appendix import verify_appendix_embeddings
from .blocks import ScenarioError
from .classify import InternalConsistencyError
from .groups import Family
from .oracle import OracleError, oracle_check
from .randomgen import random_scenario
from .roots import root_system
from .sweep import run_sweep, summary_table

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


def _cmd_check(args) -> int:
    try:
        sc = scenario_mod.load(args.scenario)
        # a new Options validates the flags as the file's values are validated
        sc.options = replace(
            sc.options, oracle=args.oracle or (sc.options.oracle and not args.no_oracle),
            tolerance=sc.options.tolerance if args.tolerance is None else args.tolerance)
        result = report_mod.run_scenario(sc)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InternalConsistencyError, OracleError) as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "text":
        sys.stdout.write(report_mod.render_text(result))
    else:
        sys.stdout.write(report_mod.render_json(result))
    return result.exit_code()


def _cmd_sweep(args) -> int:
    try:
        family = Family(args.family)
    except ValueError:
        print(f"unknown family {args.family!r}; one of "
              f"{', '.join(f.value for f in Family)}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        res = run_sweep(family, args.bound)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.format == "text":
        sys.stdout.write(summary_table(res))
    else:
        payload = {
            "family": res.family.value, "bound": res.bound,
            "configurations": res.configurations, "runs": res.runs,
            "flexible": res.flexible, "rigid": res.rigid,
            "tag_violations": res.tag_violations, "mismatches": res.mismatches,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if res.ok else EXIT_INTERNAL


def _cmd_oracle(args) -> int:
    least = max(fp.min_dim for fp in groups.FAMILIES.values())
    try:
        opts = scenario_mod.Options(oracle=True, tolerance=args.tolerance, cap=args.cap)
        if args.instances < 1:
            raise ScenarioError(f"instances must be at least 1, got {args.instances}")
        if opts.cap < least:
            raise ScenarioError(f"cap must be at least {least}, so that every family "
                                f"has a group under it, got {opts.cap}")
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    rng = random.Random(args.seed)
    failures = []
    total = 0
    for fam in Family:
        for _ in range(args.instances):
            spec, blocks = random_scenario(fam, rng, cap=opts.cap)
            total += 1
            try:
                problems = oracle_check(root_system(spec, blocks),
                                        seed=rng.randint(0, 10 ** 6),
                                        tol=opts.tolerance, cap=opts.cap)
            except OracleError as exc:
                problems = [str(exc)]
            if problems:
                failures.append((spec.describe(), problems))
    if args.format == "text":
        print(f"{total} randomized instances, {len(failures)} disagreements")
        for name, probs in failures[:20]:
            print(f"  {name}: {probs[:3]}")
    else:
        print(json.dumps({"instances": total, "failures": [
            {"group": n, "problems": p} for n, p in failures]}, indent=2))
    return EXIT_OK if not failures else EXIT_INTERNAL


def _cmd_verify_appendix(args) -> int:
    rep = verify_appendix_embeddings(seed=args.seed)
    if args.format == "text":
        for c in rep.checks:
            print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}")
        print("all checks passed" if rep.ok else "CHECKS FAILED")
    else:
        print(json.dumps({"ok": rep.ok, "checks": [
            {"name": c.name, "passed": c.passed} for c in rep.checks]}, indent=2))
    return EXIT_OK if rep.ok else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liebalance",
        description="Balancedness and flexibility of reductive surface-group "
                    "data in classical simple Lie groups")
    ap.add_argument("--format", choices=["structured", "text"], default="structured",
                    help="output format (structured JSON or plain text)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify one scenario file")
    p.add_argument("scenario")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the numeric cross-check even if the file asks for it")
    p.add_argument("--oracle", action="store_true",
                   help="force the numeric cross-check")
    p.add_argument("--tolerance", type=float, default=None,
                   help="clustering tolerance for the numeric oracle")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep", help="exhaustive classification sweep")
    p.add_argument("family", help="one of " + ", ".join(f.value for f in Family))
    p.add_argument("bound", type=int, help="bound on the ambient dimension")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle", help="randomized symbolic-vs-numeric runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=10,
                   help="instances per family")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--cap", type=int, default=12,
                   help="largest ambient dimension to synthesize")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify-appendix", help="check the two tight embeddings")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_appendix)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
