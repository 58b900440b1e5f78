"""Seeded one-token mutants of the corpus scenarios, and the outcome of
parsing each one.

    PYTHONPATH=src python tests/mutants.py

rewrites tests/golden/mutant_outcomes.txt, one line per mutant in generation
order and then one per value bound, for MINIMAL with a router line past it:
the exception class and message that parsing raised, or ``ok`` and the
sha256 of the scenario's canonical text. Needs nothing outside the standard
library.
"""

import hashlib
import random
from pathlib import Path

from slaacsim.scenario import MAX_PORTS, MAX_TIME_S, ScenarioError, parse_scenario, print_scenario

HERE = Path(__file__).resolve().parent
SCENARIO_DIR = HERE.parent / "scenarios"
OUTCOMES = HERE / "golden" / "mutant_outcomes.txt"

# Values at and past the edges of what the grammar accepts.
EDGE_VALUES = (
    "inf", "-inf", "nan", "1e400", "-1", "0", "0.0001", "65536", "99999999",
    str(MAX_TIME_S + 1), str(MAX_PORTS + 1), "", "x", "=", "p0", "SW1.p0",
)
MUTATIONS = 2000

# The smallest valid scenario: one router, one host.
MINIMAL = """\
switch SW1 ports=2
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64
node host H1 mac=00:1a:2b:3c:4d:5e
attach R1 SW1.p1 class=router
attach H1 SW1.p2 class=host
run 4
"""

# The options of a router line past each value bound, by the bound's name:
# no mutant breaks every bound (none breaks ``interval=``). The line has no
# prefix: the lifetime bound holds without one.
BOUND_FAULTS = {
    "six-octets": "mac=00:00:5e:00:53",
    "router-lifetime": "mac=00:00:5e:00:53:01 lifetime=65536",
    "preferred-not-above-valid": "mac=00:00:5e:00:53:01 valid=1 preferred=2",
    "positive-interval": "mac=00:00:5e:00:53:01 interval=0",
}


def _mutate(rng: random.Random, text: str, pool: list[str]) -> str:
    """Change one token of one directive line: swap in an edge value or
    another corpus token, keep a key but change its value, or drop it."""
    lines = text.splitlines()
    candidates = [i for i, line in enumerate(lines) if line.split("#", 1)[0].split()]
    i = rng.choice(candidates)
    tokens = lines[i].split("#", 1)[0].split()
    j = rng.randrange(len(tokens))
    roll = rng.random()
    if roll < 0.1:
        del tokens[j]
    elif "=" in tokens[j] and roll < 0.6:
        key = tokens[j].partition("=")[0]
        tokens[j] = f"{key}={rng.choice(EDGE_VALUES + tuple(pool))}"
    elif roll < 0.8:
        tokens[j] = rng.choice(EDGE_VALUES)
    else:
        tokens[j] = rng.choice(pool)
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def corpus_mutants() -> list[str]:
    """MUTATIONS mutants, each of one corpus file, from a fixed seed."""
    texts = [path.read_text() for path in sorted(SCENARIO_DIR.glob("*.txt"))]
    pool = sorted({t for text in texts for line in text.splitlines() for t in line.split("#")[0].split()})
    rng = random.Random(2014)
    return [_mutate(rng, rng.choice(texts), pool) for _ in range(MUTATIONS)]


def bound_fault_text(options: str) -> str:
    """MINIMAL with R1's line holding only ``options``."""
    line = "node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64"
    return MINIMAL.replace(line, f"node router R1 {options}")


def recorded_texts() -> list[str]:
    """The texts whose parse outcomes the golden file records, in its order:
    the corpus mutants, then each value bound's fault."""
    return corpus_mutants() + [bound_fault_text(options) for options in BOUND_FAULTS.values()]


def parse_outcome(text: str) -> str:
    """One line: how parsing ``text`` ends."""
    try:
        canonical = print_scenario(parse_scenario(text))
    except ScenarioError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"ok {hashlib.sha256(canonical.encode()).hexdigest()}"


if __name__ == "__main__":
    lines = [parse_outcome(text) for text in recorded_texts()]
    assert not any("\n" in line for line in lines)
    OUTCOMES.write_text("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} outcomes to {OUTCOMES}")
