r"""Count which lines of some functions run when scenario text alone drives
the simulator, with the standard library's ``sys.settrace`` only.

    PYTHONPATH=src python tests/scenario_linecount.py slaacsim.engine slaacsim.host \
        [slaacsim.addressing:MacAddress.parse ...]

The arguments name functions as ``tests/linecount.py``'s do. In place of
the suite, it runs these inputs, each as scenario text through the package:

- every corpus file through ``cli.run_command``, once with ``--check --trace
  --metrics`` and once with ``--dump-normalized``;
- every policy-table cell (``tests/test_policy_matrix.py``);
- the hand-made links of ``test_host.RA_BRANCHES``, which the reference
  simulator already checks;
- 100 generated scenarios (``test_scenario_fuzz.scenario_texts``);
- the generated expiry links (``test_expiry.expiry_text``);
- the parse of every text whose outcome ``tests/mutants.py`` records: each
  corpus mutant, and the router line past each value bound, which no mutant
  breaks for ``interval=``.

It prints each line's count as ``tests/linecount.py`` does and exits 1 if a
line never ran, unless ALLOWANCE lets it: the raise of every invariant check
(``SimInvariantError``), and each listed statement, with its reason. It
also exits 1 if a listed statement is gone or now runs, so the list only
shrinks. The README lists the same allowance.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import sys
import tempfile
import textwrap
from pathlib import Path

from linecount import count_while, report, split_specs

# (function qualname, the first line of a statement, why no input runs it).
# The statement and the rest of its block are allowed; each must still never
# run.
ALLOWANCE = (
    # An invariant check that raises no SimInvariantError itself.
    ("Attacker.run_playbook", 'raise PersonaMissing(f"{self.node_id} has no fake-router persona")',
     "validation gives every forging attacker a persona; the engine reports one missing as an"
     " invariant violation"),
    # API-only: code no scenario can call.
    ("Engine.add_node", 'raise ValueError(f"duplicate node id {node.node_id!r}")',
     "validation rejects a duplicate node id before the build"),
    ("global_from", "raise PrefixLengthUnsupported(",
     "receive_ra ignores a prefix that is not a /64 before it forms an address"),
    ("TraceRecord.attrs",
     "return tuple((k, str(v)) for k, v in zip(TRACE_KEYS[self.kind], self.values, strict=True))",
     "a reader of trace records that only tests use"),
    ("TraceRecord.line", "tail = _TAIL_FORMATS[self.kind] % self.values",
     "a reader of trace records that only tests use"),
)


def _is_invariant_raise(stmt: ast.AST) -> bool:
    """A raise of SimInvariantError, or an ``except`` clause that only
    turns what it catches into one."""
    if isinstance(stmt, ast.ExceptHandler):
        return all(map(_is_invariant_raise, stmt.body))
    return (
        isinstance(stmt, ast.Raise)
        and isinstance(stmt.exc, ast.Call)
        and getattr(stmt.exc.func, "id", None) == "SimInvariantError"
    )


def _statements(function):
    """Each statement of ``function`` as (its first line's text, its first
    line, the last line of its block from it on, whether it is an invariant
    raise), in file line numbers. An ``except`` clause counts as a statement
    whose block is its own."""
    source, first = inspect.getsourcelines(function)
    tree = ast.parse(textwrap.dedent("".join(source)))
    found = []
    for node in ast.walk(tree):
        for block in (getattr(node, name, None) for name in ("body", "orelse", "finalbody", "handlers")):
            for stmt in block if isinstance(block, list) else ():
                end = stmt.end_lineno if isinstance(stmt, ast.ExceptHandler) else block[-1].end_lineno
                text = source[stmt.lineno - 1].strip()
                found.append((text, stmt.lineno + first - 1, end + first - 1, _is_invariant_raise(stmt)))
    return found


def drive() -> None:
    """Run every input the module docstring lists."""
    # Imported here, after count_while has imported the named modules under
    # its count, so their import-time lines count as tests/linecount.py's do.
    from conftest import SCENARIO_DIR, run_output
    from hypothesis import given, settings
    from mutants import parse_outcome, recorded_texts
    from test_expiry import EXPIRY_SEEDS, expiry_text
    from test_host import RA_BRANCHES
    from test_policy_matrix import ATTACKS, DEFENSES, MEASURES_S, cell_scenario
    from test_scenario_fuzz import GENERATED_RUN_MS, scenario_texts

    from slaacsim.cli import run_command
    from slaacsim.scenario import parse_scenario

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        trace, metrics = str(Path(tmp, "trace")), str(Path(tmp, "metrics"))
        for path in sorted(SCENARIO_DIR.glob("*.txt")):
            for argv in (["--check", "--trace", trace, "--metrics", metrics], ["--dump-normalized"]):
                if run_command(["run", str(path), *argv]):
                    raise SystemExit(f"{path.name} {' '.join(argv)} failed")
    for attack in ATTACKS:
        for defense in DEFENSES:
            for run_s in MEASURES_S:
                run_output(parse_scenario(cell_scenario(attack, defense, run_s)))
    for text, _shown in RA_BRANCHES.values():
        run_output(parse_scenario(text))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(scenario_texts())
    def generated(text):
        sc = parse_scenario(text)
        run_output(sc, min(sc.run_ms, GENERATED_RUN_MS))

    generated()
    for seed in EXPIRY_SEEDS:
        run_output(parse_scenario(expiry_text(seed)))
    for text in recorded_texts():
        parse_outcome(text)


def main(argv: list[str]) -> int:
    specs, rest = split_specs(argv)
    if not specs or rest:
        print(__doc__, file=sys.stderr)
        return 2
    functions, counts, _ = count_while(specs, drive)
    listed = {(qualname, text) for qualname, text, _reason in ALLOWANCE}
    found, faults = set(), []
    for function in functions:
        filename, allowed = function.__code__.co_filename, set()
        for text, first, last, invariant in _statements(function):
            key = (function.__qualname__, text)
            if key in listed or invariant:
                allowed.update(range(first, last + 1))
            if key in listed:
                found.add(key)
                if counts[filename, first]:
                    faults.append(f"allowed but run: {function.__qualname__}: {text}")
        if report(function, counts, allowed):
            faults.append(f"never run: {function.__qualname__}")
    named = {function.__qualname__ for function in functions}
    faults += [f"allowed but not found: {q}: {t}" for q, t in sorted(listed - found) if q in named]
    print("\n".join(faults) or "every line ran, or is allowed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
