"""Compare two run records of the same workload, metric by metric.

    python3 perfbench/compare.py BASE_RECORD HEAD_RECORD

Refuses (exit 2) to compare runs whose kernel backends differ, because the
simulator's time is dominated by the kernel and the two numbers would
measure different programs.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (json.loads(open(path).read()) for path in argv)
    if base["kernel_backend"] != head["kernel_backend"]:
        print(
            f"refusing to compare: kernel backend {base['kernel_backend']!r} "
            f"vs {head['kernel_backend']!r}",
            file=sys.stderr,
        )
        return 2
    if (base["workload"], base["trace"]) != (head["workload"], head["trace"]):
        print("refusing to compare: different workloads or trace settings", file=sys.stderr)
        return 2
    print(f"{base['workload']} trace={base['trace']} kernel={base['kernel_backend']}")
    print(f"  base {base['git_revision']} seed {base['seed']}; head {head['git_revision']} seed {head['seed']}")
    for name, entry in base["metrics"].items():
        other = head["metrics"].get(name)
        if other is None:
            print(f"  {name}: missing in head")
            continue
        a, b = entry["value"], other["value"]
        ratio = f"{b / a:.3f}x" if a else "n/a"
        print(f"  {name}: {a:.6g} -> {b:.6g} {entry['unit']} ({ratio})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
