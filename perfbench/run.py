"""Benchmark of the cct backend: two workloads, end to end and per layer.

    python3 perfbench/run.py --workload sim-scale|ingest-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from `src/`, as
built from source there (nothing is compiled). With --trace 0 the last line
of standard output is one JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics from a traced run. The lines above
it are a readable report, including figures that exist on one workload only.
The exit code is 0 only when every correctness gate passed. A run record
(kernel backend, revision, versions, load) is written to .bench_out/.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("sim-scale", "ingest-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests"
    )
    parser.add_argument(
        "--log-polls",
        action="store_true",
        help="negative control: a server that persists polls (ingest-mixed)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cct" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from common import OUT, run_record
    from workloads import FULL, SMOKE, WORKLOADS, Context

    load_at_start = os.getloadavg()
    OUT.mkdir(parents=True, exist_ok=True)
    record = run_record(args.workload, args.seed, args.trace, load_at_start)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        sizes=SMOKE if args.smoke else FULL,
        log_polls=args.log_polls,
    )
    started = time.perf_counter()
    result = WORKLOADS[args.workload](ctx)
    wall = time.perf_counter() - started

    attempted, failed = result.ops.totals()
    correct = all(passed for _, passed, _ in result.gates)
    named = dict(result.named)
    named["op_failure_ratio"] = (failed / attempted if attempted else 1.0, "ratio")

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"kernel={record['kernel_backend']} python={record['python']} "
        f"cryptography={record['cryptography']} nproc={record['nproc']} "
        f"load={load_at_start[0]:.2f} wall={wall:.1f}s ({record['network']})"
    )
    for name, (value, unit) in {**result.metrics, **named}.items():
        print(f"  {name} = {value} {unit}")
    for op, counts in result.ops.table().items():
        print(f"  op {op}: attempted {counts['attempted']}, failed {counts['failed']}")
    print(f"  reconnects = {result.ops.reconnects}")
    for name, passed, detail in result.gates:
        if not passed:
            print(f"  GATE FAILED {name}: {detail}")
    print(f"  gates: {sum(p for _, p, _ in result.gates)} of {len(result.gates)} passed")

    record.update(
        wall_s=wall,
        correct=correct,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        named={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        ops=result.ops.table(),
        reconnects=result.ops.reconnects,
        gates=[{"name": n, "passed": p, "detail": d} for n, p, d in result.gates],
    )
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
