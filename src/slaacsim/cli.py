"""Command-line front end: run a scenario, write trace/metrics, check
scripted expectations.

Exit status: 0 clean run (and all expectations met under --check) or
--help, 1 on a usage error, on parse/validation/expectation failure, on an
attack step that replays an advertisement its attacker has not captured yet,
on a scenario file that cannot be read or is not UTF-8, or on a
--trace/--metrics file that cannot be written, 2 on an internal invariant
violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import ScenarioError, SimInvariantError
from .scenario import _int, build_engine, evaluate_expects, parse_scenario, print_scenario


class _Done(Exception):
    """argparse has done the whole command (``--help``); args[0] is its status."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2, the invariant-violation status
        raise argparse.ArgumentError(None, message)

    def exit(self, status=0, message=None):  # reached only after --help: error() raises
        raise _Done(status)


def _seed(text: str) -> int:
    try:
        return _int(text)  # ASCII digits only, as seed= in a scenario file
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def run_command(argv: list[str]) -> int:
    parser = _Parser(prog="slaacsim")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("scenario", type=Path)
    run.add_argument("--trace", type=Path, help="write the event trace here")
    run.add_argument("--metrics", type=Path, help="write run metrics here")
    run.add_argument("--check", action="store_true", help="verify the scenario's expect lines")
    run.add_argument("--dump-normalized", action="store_true",
                     help="print the canonical scenario text and exit")
    run.add_argument("--seed", type=_seed, help="override the scenario seed")
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _Done as done:
        return done.args[0]
    except (argparse.ArgumentError, OSError) as exc:  # OSError: reading or writing a file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ScenarioError, UnicodeDecodeError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 1
    except SimInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    scenario = parse_scenario(args.scenario.read_text())
    if args.dump_normalized:
        sys.stdout.write(print_scenario(scenario))
        return 0
    engine = build_engine(scenario, seed=args.seed)
    metrics = engine.execute(scenario.run_ms)
    if args.trace is not None:
        args.trace.write_text(engine.trace_text())
    if args.metrics is not None:
        args.metrics.write_text("".join(line + "\n" for line in metrics.to_lines()))
    for line in metrics.flag_lines():
        print(line)

    if args.check:
        failures = evaluate_expects(scenario, metrics)
        if failures:
            for failure in failures:
                print(f"check failed: {failure}", file=sys.stderr)
            return 1
        print(f"check ok ({len(scenario.expects)} expectation(s))")
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
