"""Count how often each line of some functions runs under one pytest
session, with the standard library's ``sys.settrace`` only.

    PYTHONPATH=src python tests/linecount.py slaacsim.host:receive_ra \
        [slaacsim.engine:Engine.execute | slaacsim.scenario ...] [PYTEST_ARGS...]

The leading ``module:qualname`` arguments name the functions, and a bare
``module`` names every function written in that module's source, methods
included; the rest go to pytest. A leading argument that names something on
disk, such as ``tests``, is pytest's. It imports the named modules and runs
pytest once in this process (on its configured test paths unless PYTEST_ARGS
are given), both under a trace function that counts ``line`` events by file
and line, so code that runs only while a module is imported counts too. It
then prints each source line of each function, and of the code nested in
it, with its count: ``-`` for a line that holds no code, ``NEVER`` for one
that never ran. Exits 1 if the tests fail or a line never ran. Tracing slows
the tests several times over. Pytest does not collect this file, since its
name does not start with ``test_``.
"""

from __future__ import annotations

import dis
import functools
import importlib
import inspect
import os
import re
import sys
from collections import Counter
from types import CodeType

import pytest


def _functions(spec: str) -> list:
    """The function ``module:qualname`` names, or every function written in
    ``module``'s source file, in source order."""
    module_name, _, qualname = spec.partition(":")
    obj = importlib.import_module(module_name)
    if qualname:
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return [obj]
    found, classes, todo = set(), set(), list(vars(obj).values())
    while todo:
        member = inspect.unwrap(todo.pop())
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        elif isinstance(member, functools.cached_property):
            member = member.func
        if isinstance(member, property):
            todo.extend(f for f in (member.fget, member.fset, member.fdel) if f)
        elif inspect.isclass(member) and member.__module__ == module_name:
            if member not in classes:
                classes.add(member)
                todo.extend(vars(member).values())
        elif (
            inspect.isfunction(member)
            and member.__code__.co_filename == obj.__file__
            and "<locals>" not in member.__qualname__  # counted with its enclosing function
        ):
            found.add(member)
    return sorted(found, key=lambda f: f.__code__.co_firstlineno)


def _codes(code: CodeType) -> list[CodeType]:
    """``code`` and every code object nested in it."""
    found = [code]
    for const in code.co_consts:
        if isinstance(const, CodeType):
            found.extend(_codes(const))
    return found


_SPEC = re.compile(r"[\w.]+(?::[\w.]+)?")


def _is_spec(arg: str) -> bool:
    return bool(_SPEC.fullmatch(arg)) and (":" in arg or not os.path.exists(arg))


def report(function, counts: Counter[tuple[str, int]], allowed=frozenset()) -> list[int]:
    """Print the function's lines with their counts; return those never run,
    but for the ``allowed`` line numbers, which print ``allowed``."""
    # The def line starts the function's code but runs when the class or
    # module body does, not in a call.
    executable = {
        line
        for code in _codes(function.__code__)
        for _, line in dis.findlinestarts(code)
        if line is not None
    } - {function.__code__.co_firstlineno}
    source, first = inspect.getsourcelines(function)
    filename = function.__code__.co_filename
    never, unrun = [], []
    for line_no, text in enumerate(source, start=first):
        if line_no not in executable:
            shown = "-"
        elif counts[filename, line_no]:
            shown = str(counts[filename, line_no])
        elif line_no in allowed:
            shown = "allowed"
            unrun.append(line_no)
        else:
            shown = "NEVER"
            never.append(line_no)
        print(f"{shown:>8} {line_no:>5}  {text.rstrip()}")
    allowance = f"; allowed: {unrun}" if unrun else ""
    print(
        f"{function.__qualname__}: {len(executable) - len(never) - len(unrun)} of {len(executable)}"
        f" lines ran{allowance}; never: {never or 'none'}"
    )
    return never


def split_specs(argv: list[str]) -> tuple[list[str], list[str]]:
    """The leading ``module[:qualname]`` arguments, and the rest."""
    specs = []
    while len(specs) < len(argv) and _is_spec(argv[len(specs)]):
        specs.append(argv[len(specs)])
    return specs, argv[len(specs):]


def count_while(specs: list[str], run):
    """Import what ``specs`` name and call ``run()``, counting the lines that
    run in their files; returns the functions, the counts and what ``run``
    returned."""
    # Line events count by (file, line). Importing the named modules runs
    # their top-level code, which may call the functions (a parser factory
    # building an option table, say), so every frame is counted while they
    # import; during run() only frames in the named functions' files are.
    counts: Counter[tuple[str, int]] = Counter()

    def count_lines(frame, event, _arg):
        if event == "line":
            counts[frame.f_code.co_filename, frame.f_lineno] += 1
        return count_lines

    sys.settrace(lambda _frame, _event, _arg: count_lines)
    try:
        # A function two specs name is counted and reported once.
        functions = list(dict.fromkeys(f for spec in specs for f in _functions(spec)))
    finally:
        sys.settrace(None)
    files = {function.__code__.co_filename for function in functions}

    def on_call(frame, _event, _arg):
        return count_lines if frame.f_code.co_filename in files else None

    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return functions, counts, result


def main(argv: list[str]) -> int:
    specs, pytest_args = split_specs(argv)
    if not specs:
        print(__doc__, file=sys.stderr)
        return 2
    functions, counts, status = count_while(specs, lambda: pytest.main(pytest_args))
    never = [report(function, counts) for function in functions]
    return 1 if status or any(never) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
