"""Peak memory of one untraced workload run, in a fresh interpreter.

    python3 perfbench/peak_rss.py <workload> <seed>

Prints one JSON line: {"peak_rss_mb": ..., "attempted": ..., "failed": ...}.
"""

import json
import sys

import workloads


def main(argv: list[str]) -> None:
    name, seed = argv[0], int(argv[1])
    workload = workloads.make_workload(name, seed)
    sample = workloads.run_iteration(workload, workloads.Checker(name, seed))
    for failure in sample.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "peak_rss_mb": workloads.peak_rss_mb(),
        "attempted": sample.attempted,
        "failed": len(sample.failures),
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
