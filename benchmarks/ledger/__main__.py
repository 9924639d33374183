"""Perf ledger command line.

    PYTHONPATH=src python -m benchmarks.ledger all --seed N [--runs K] [--trace] [--quick]
    PYTHONPATH=src python -m benchmarks.ledger collect RECORD.json... --ledger FILE
    PYTHONPATH=src python -m benchmarks.ledger compare A.json B.json

``all`` runs every workload in its own fresh process (``run.py``), one
after another, for seeds N..N+K-1; it prints every end-to-end metric with
its unit and writes the ledger (default ``benchmarks/ledger/out/ledger.json``).
With ``--trace`` each workload also runs traced, which writes its Chrome
trace and folded per-layer table, and the tracing overhead is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List

from benchmarks.ledger.bench import OUT_DIR
from benchmarks.ledger.compare import Refused, build_ledger, compare, load_benchmark, load_ledger
from benchmarks.ledger.workloads import WORKLOADS

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_one(
    workload: str, seed: int, seconds: float, *, trace: bool, quick: bool
) -> Dict[str, Any]:
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{workload}-seed{seed}{'-trace' if trace else ''}.json")
    command = [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)), "--out", out]
    if quick:
        command.append("--quick")
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=600)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def cmd_all(args: argparse.Namespace) -> int:
    if args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = 1.0 if args.quick else load_benchmark()["run_seconds"]
    records: List[Dict[str, Any]] = []
    for seed in range(args.seed, args.seed + args.runs):
        for workload in args.workloads.split(","):
            record = run_one(workload, seed, seconds, trace=False, quick=args.quick)
            records.append(record)
            _print_record(record)
            if args.trace:
                traced = run_one(workload, seed, seconds, trace=True, quick=args.quick)
                overhead = (traced["metrics"]["cell_overhead_ms_p50"]["value"]
                            - record["metrics"]["cell_overhead_ms_p50"]["value"])
                print(f"  tracing overhead: {overhead:+.3f} ms on cell_overhead_ms_p50;"
                      f" trace and layer table in {OUT_DIR}")
    ledger = build_ledger(records, seconds)
    _write(ledger, args.ledger)
    if args.runs > 1:
        _print_summary(ledger)
    return 0 if all(record["correct"] for record in records) else 1


def _print_record(record: Dict[str, Any]) -> None:
    print(f"{record['workload']} seed {record['seed']}: {record['attempted']} operations,"
          f" {record['failed']} failed, fingerprint {record['fingerprint'][:12]}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<24} {metric['value']:>14.4f} {metric['unit']:<6} n={metric['samples']}")


def _print_summary(ledger: Dict[str, Any]) -> None:
    for workload, entry in ledger["workloads"].items():
        print(f"{workload}: {len(entry['runs'])} runs, median [q1, q3] (spread)")
        for name, s in entry["summary"].items():
            print(f"  {name:<24} {s['median']:>14.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"
                  f" {s['unit']:<6} ({s['spread']:.1%})")


def _write(ledger: Dict[str, Any], path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"ledger written to {path}")


def cmd_collect(args: argparse.Namespace) -> int:
    records = []
    for path in args.records:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    ledger = build_ledger(records, seconds)
    _write(ledger, args.ledger)
    _print_summary(ledger)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        lines, regressed = compare(load_ledger(args.a), load_ledger(args.b))
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("all", help="run every workload, each in a fresh process")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--runs", type=int, default=1, help="seeds seed..seed+runs-1")
    run.add_argument(
        "--seconds", type=float, help="default: run_seconds of BENCHMARK.json (1 with --quick)"
    )
    run.add_argument("--workloads", default=",".join(WORKLOADS))
    run.add_argument("--trace", action="store_true")
    run.add_argument("--quick", action="store_true")
    run.add_argument("--ledger", default=os.path.join(OUT_DIR, "ledger.json"))
    run.set_defaults(func=cmd_all)
    collect = sub.add_parser("collect", help="fold run records into a ledger")
    collect.add_argument("records", nargs="+")
    collect.add_argument("--ledger", required=True)
    collect.add_argument("--seconds", type=float)
    collect.set_defaults(func=cmd_collect)
    comp = sub.add_parser("compare", help="judge ledger B against ledger A")
    comp.add_argument("a")
    comp.add_argument("b")
    comp.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
