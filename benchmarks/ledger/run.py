"""Run one ledger workload in this process; the benchmark's command.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints each metric by name with its unit and sample count, then, as the
last line, one JSON object: ``correct``, ``attempted`` (commits plus
checkouts), ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with
``--trace 1``. ``--out FILE`` also writes the full ledger record.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

if os.environ.get("PYTHONHASHSEED") != "0":
    # Stored payload bytes depend on set iteration order (a co-variable's
    # members are pickled in frozenset order, which moves pickle memo
    # indices), so exact counters need one fixed string-hash seed.
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"{__file__}: the program's sources, src/repro, are missing from {ROOT}")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

#: Set-up runs in fresh processes besides the measured one; ``setup_s``
#: is the median of all of them.
SETUP_PROBES = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="seconds-long sizes, for smoke tests")
    parser.add_argument("--out", help="write the full ledger record here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        command.append("--quick")
    result = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(result.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    from benchmarks.ledger.bench import END_TO_END, LEDGER_ONLY, run_workload
    from benchmarks.ledger.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    record = run_workload(
        args.workload, args.seed, seconds=args.seconds, trace=bool(args.trace),
        quick=args.quick, started=STARTED, setup_only=args.setup_only,
    )
    if args.setup_only:
        print(json.dumps(record))
        return 0
    setups = [record["metrics"]["setup_s"]["value"]]
    setups += [measure_setup(args) for _ in range(SETUP_PROBES)]
    record["metrics"]["setup_s"].update(value=statistics.median(setups), samples=len(setups))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)

    if args.trace:
        metrics = {k: v for k, v in record["per_layer"].items() if k not in LEDGER_ONLY}
    else:
        metrics = {name: record["metrics"][name] for name in END_TO_END}
    print(f"{args.workload} seed {args.seed}: {record['attempted']} operations,"
          f" {record['failed']} failed, {record['passes']} pass(es)")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    for name, metric in record["metrics"].items():
        samples = metric.get("samples")
        print(f"  {name:<24} {metric['value']:>14.4f} {metric['unit']:<6} n={samples}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
