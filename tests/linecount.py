"""Count how often each line of one function runs under a pytest session,
with the standard library's ``sys.settrace`` only.

    PYTHONPATH=src python tests/linecount.py slaacsim.host:Host.process_ra [PYTEST_ARGS...]

runs pytest in this process (on its configured test paths unless PYTEST_ARGS
are given) with a trace function that counts ``line`` events in the
function's code and the code nested in it. It then prints each source line of
the function with its count: ``-`` for a line that holds no code, ``NEVER``
for one that never ran. Exits 1 if the tests fail or a line never ran.
Tracing slows the tests several times over. Pytest does not collect this
file, since its name does not start with ``test_``.
"""

from __future__ import annotations

import dis
import importlib
import inspect
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


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    function = _function(argv[0])
    codes = _codes(function.__code__)
    # The def line starts the function's code but runs when the class or
    # module body does, not in a call.
    executable = {
        line for code in codes for _, line in dis.findlinestarts(code) if line is not None
    } - {function.__code__.co_firstlineno}
    counts: Counter[int] = Counter()

    def count_lines(frame, event, _arg):
        if event == "line":
            counts[frame.f_lineno] += 1
        return count_lines

    def on_call(frame, _event, _arg):
        return count_lines if frame.f_code in codes else None

    sys.settrace(on_call)
    try:
        status = pytest.main(argv[1:])
    finally:
        sys.settrace(None)

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
    print(f"{len(executable) - len(never)} of {len(executable)} lines ran; never: {never or 'none'}")
    return 1 if status or never else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
