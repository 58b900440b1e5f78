"""The product against the reference simulator (``tests/reference.py``) on
the inputs that no other test runs against it: TWO_ROUTERS at its own link
latency, VALID_ZERO, and every cell of the policy matrix. Every comparison
goes through ``conftest.matches_reference``; the others are the corpus and
TWO_ROUTERS at 0 and 2 ms and SHORT_LIFETIMES to each end near a due time
(tests/test_engine.py), MIXED_ORDER (the same), the corpus at its own
latency and the RA branches (tests/test_host.py), the generated expiry links
(tests/test_expiry.py) and generated scenarios (tests/test_scenario_fuzz.py)."""

import pytest

from conftest import matches_reference
from test_engine import TWO_ROUTERS, VALID_ZERO
from test_policy_matrix import ATTACKS, DEFENSES, MEASURES_S, cell_scenario

from slaacsim.scenario import parse_scenario


def case(name, text, shown=()):
    """One input, run to its end; ``shown`` are parts of its output that
    show it reaches what it is there for."""
    return pytest.param(text, shown, id=name)


def label(text):
    return text.strip("`").replace(" ", "_")


CASES = [
    case("two-routers", TWO_ROUTERS),
    case("valid-zero", VALID_ZERO, shown=("t=5000 node=H1 kind=addr-abandoned",)),
    *(
        case(f"cell-{label(attack)}-{label(defense)}-{run_s}s", cell_scenario(attack, defense, run_s))
        for attack in ATTACKS
        for defense in DEFENSES
        for run_s in MEASURES_S
    ),
]


@pytest.mark.parametrize("text,shown", CASES)
def test_runs_match_the_reference(text, shown):
    output = matches_reference(parse_scenario(text))
    for part in shown:
        assert part in output, part
