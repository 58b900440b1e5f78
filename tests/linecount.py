"""Count how often each line of some functions runs under one pytest
session, with the standard library's ``sys.settrace`` only.

    PYTHONPATH=src python tests/linecount.py slaacsim.host:Host.process_ra \
        [slaacsim.engine:Engine.execute ...] [PYTEST_ARGS...]

The leading ``module:qualname`` arguments name the functions; the rest go to
pytest. It runs pytest once in this process (on its configured test paths
unless PYTEST_ARGS are given) with a trace function that counts ``line``
events in each function's code and the code nested in it. It then prints
each source line of each function with its count: ``-`` for a line that
holds no code, ``NEVER`` for one that never ran. Exits 1 if the tests fail
or a line never ran. Tracing slows the tests several times over. Pytest does
not collect this file, since its name does not start with ``test_``.
"""

from __future__ import annotations

import dis
import importlib
import inspect
import re
import sys
from collections import Counter
from types import CodeType

import pytest


def _function(spec: str):
    module_name, _, qualname = spec.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _codes(code: CodeType) -> list[CodeType]:
    """``code`` and every code object nested in it."""
    found = [code]
    for const in code.co_consts:
        if isinstance(const, CodeType):
            found.extend(_codes(const))
    return found


_SPEC = re.compile(r"[\w.]+:[\w.]+")


def _report(function, counts: Counter[int]) -> list[int]:
    """Print the function's lines with their counts; return those never run."""
    # The def line starts the function's code but runs when the class or
    # module body does, not in a call.
    executable = {
        line
        for code in _codes(function.__code__)
        for _, line in dis.findlinestarts(code)
        if line is not None
    } - {function.__code__.co_firstlineno}
    source, first = inspect.getsourcelines(function)
    never = []
    for line_no, text in enumerate(source, start=first):
        if line_no not in executable:
            shown = "-"
        elif counts[line_no]:
            shown = str(counts[line_no])
        else:
            shown = "NEVER"
            never.append(line_no)
        print(f"{shown:>8} {line_no:>5}  {text.rstrip()}")
    print(
        f"{function.__qualname__}: {len(executable) - len(never)} of {len(executable)}"
        f" lines ran; never: {never or 'none'}"
    )
    return never


def main(argv: list[str]) -> int:
    specs = []
    while len(specs) < len(argv) and _SPEC.fullmatch(argv[len(specs)]):
        specs.append(argv[len(specs)])
    if not specs:
        print(__doc__, file=sys.stderr)
        return 2
    functions = [_function(spec) for spec in specs]
    counts: list[Counter[int]] = [Counter() for _ in functions]

    def counter(lines: Counter[int]):
        def count_lines(frame, event, _arg):
            if event == "line":
                lines[frame.f_lineno] += 1
            return count_lines

        return count_lines

    # Each code object, nested ones too, counts into its function's lines.
    tracers = {
        code: counter(lines)
        for function, lines in zip(functions, counts)
        for code in _codes(function.__code__)
    }

    def on_call(frame, _event, _arg):
        return tracers.get(frame.f_code)

    sys.settrace(on_call)
    try:
        status = pytest.main(argv[len(specs):])
    finally:
        sys.settrace(None)

    never = [_report(function, lines) for function, lines in zip(functions, counts)]
    return 1 if status or any(never) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
