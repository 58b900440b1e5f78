"""slaacsim benchmark.

    python3 perfbench/run.py [--workload fanout|longrun|corpus|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Runs one workload over and over for S seconds, in this one process and
thread, and checks the outputs of every run. It prints each metric by name
with its unit (median, quartiles and the number of runs) and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, from untraced runs. Peak memory
comes from one more run in a fresh interpreter. --trace 1 alternates untraced
and traced runs, reports the per-layer metrics and the tracing overhead, and
writes the spans of the last traced run under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers
import workloads

MIN_RUNS = 3
HASH_SEED = "0"
# Nominal time of workloads.reference_ns(): its median on the 2-core x86 VM
# the baseline was measured on.
REFERENCE_NS = 50_000_000
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "deliveries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


class Report:
    """Metric values of one workload, and every failed scenario run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.values: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def add_sample(self, sample: workloads.Sample) -> None:
        self.attempted += sample.attempted
        self.failures.extend(sample.failures)

    def put(self, name: str, values: list[float]) -> None:
        self.values[name] = values

    def medians(self) -> dict[str, dict]:
        return {
            name: {"value": _summary(values)[0], "unit": _unit(name)}
            for name, values in self.values.items()
        }

    def print(self, runs_label: str) -> None:
        print(f"workload {self.workload}: {runs_label}")
        for name, values in self.values.items():
            median, q1, q3 = _summary(values)
            print(
                f"  {name:34} {median:>16.6f} {_unit(name):6}"
                f" q1={q1:.6f} q3={q3:.6f} n={len(values)}"
            )
        share = len(self.failures) / self.attempted if self.attempted else 0.0
        print(f"  {'failed_share':34} {share:>16.6f} {'ratio':6}"
              f" failed={len(self.failures)} attempted={self.attempted}")
        for failure in self.failures[:10]:
            print(f"check failed: {failure}", file=sys.stderr)


def _peak_rss(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(workloads.HERE / "peak_rss.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"peak-memory run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(name: str, seed: int, seconds: float) -> Report:
    """Untraced runs, with a reference computation before the first run and
    after every run. Each run's times are scaled by REFERENCE_NS / the mean
    of the two reference times around it (see README)."""
    workload = workloads.make_workload(name, seed)
    checker = workloads.Checker(name, seed)
    report = Report(name)
    wall, setup, rate, scales = [], [], [], []
    reference_ns = [workloads.reference_ns()]
    deadline = time.monotonic() + seconds
    while len(wall) < MIN_RUNS or time.monotonic() < deadline:
        sample = workloads.run_iteration(workload, checker)
        setups_ns = [sample.setup_ns]
        setups_ns += [workloads.time_setup(workload) for _ in range(workload.setup_repeats)]
        reference_ns.append(workloads.reference_ns())
        report.add_sample(sample)
        scale = 2 * REFERENCE_NS / (reference_ns[-2] + reference_ns[-1]) / 1e9
        wall.append(sample.wall_ns * scale)
        setup.extend(ns * scale for ns in setups_ns)
        rate.append(sample.deliveries / (sample.execute_ns * scale))
        scales.append(scale * 1e9)
    report.put("wall_s", wall)
    report.put("setup_s", setup)
    report.put("deliveries_per_s", rate)
    child = _peak_rss(name, seed)
    report.put("peak_rss_mb", [child["peak_rss_mb"]])
    report.attempted += child["attempted"]
    report.failures += [f"peak-memory run: {child['failed']} failed"] * child["failed"]
    report.print(
        f"{len(wall)} untraced runs, 1 fresh-interpreter run for peak_rss_mb;"
        f" times scaled by a median factor of {_summary(scales)[0]:.4f}"
    )
    return report


def per_layer(name: str, seed: int, seconds: float) -> Report:
    """Untraced and traced runs in turn; per-layer metrics of the traced ones."""
    workload = workloads.make_workload(name, seed)
    checker = workloads.Checker(name, seed)
    report = Report(name)
    untraced: list[float] = []
    traced: list[dict[str, float]] = []
    deadline = time.monotonic() + seconds
    while len(traced) < MIN_RUNS or time.monotonic() < deadline:
        sample = workloads.run_iteration(workload, checker)
        report.add_sample(sample)
        untraced.append((sample.wall_ns + sample.render_ns) / 1e9)
        tracer = layers.Tracer()
        with layers.installed(tracer):
            sample = workloads.run_iteration(workload, checker, tracer.region)
        report.add_sample(sample)
        traced.append(layers.layer_metrics(tracer, sample.deliveries, sample.trace_records))
    for metric in traced[0]:
        values = [run[metric] for run in traced]
        if _unit(metric) != "s" and len(set(values)) != 1:
            report.failures.append(f"count {metric} differs between traced runs: {values}")
        report.put(metric, values)
    report.put("tracing.untraced_wall_s", untraced)
    overhead = _summary(report.values["tracing.wall_s"])[0] - _summary(untraced)[0]
    report.put("tracing.overhead_s", [overhead])
    out = workloads.HERE / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"{name}-seed{seed}.spans.tsv"
    tracer.write(spans)
    report.print(f"{len(traced)} traced and {len(untraced)} untraced runs; spans in {spans}")
    return report


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    reports = [measure(name, args.seed, args.seconds) for name in names]
    if len(reports) == 1:
        metrics = reports[0].medians()
    else:
        metrics = {
            f"{r.workload}.{metric}": value for r in reports for metric, value in r.medians().items()
        }
    failed = sum(len(r.failures) for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _pin_hash_seed() -> None:
    """CPython salts str hashes per process, and the salt alone moves this
    program's run time by up to 13% (corpus wall_s 0.39-0.50 s over
    PYTHONHASHSEED 0-9 on one box). Re-execute once with a fixed salt so that
    runs of the same code agree."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main(sys.argv[1:]))
