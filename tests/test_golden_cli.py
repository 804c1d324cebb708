"""Seeded CLI stdout, byte for byte, against recorded fixtures.

``tests/data/golden/calls.json`` maps a fixture name to a CLI argv whose
``*.json`` arguments name input files in the same directory; ``<name>.out``
holds the stdout recorded for it.  The inputs are conjugated direct sums over
the Kronecker algebra and the weights (2, 2, 2) algebra over F_5, so the
splitter, the tube partition and the left and right omega-approximations all
draw from the seeded rng.  The two ``omega_left`` inputs (P(c) (+) P(0) and
P(0)) reach four and two tower blocks, so the block maps of their universal
extensions have several parts.  A change that alters a verdict, or the random draws made on
the way to one, changes these bytes.  When an output is meant to change,
record it again by running the argv through ``canrep.cli.main``.
"""

import json
from pathlib import Path

import pytest

from canrep.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CALLS = json.loads((GOLDEN / "calls.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CALLS))
def test_seeded_stdout_matches_fixture(name, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in CALLS[name]]
    assert main(argv) == 0
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
