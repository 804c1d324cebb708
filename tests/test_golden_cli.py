"""Seeded CLI stdout, byte for byte, against recorded fixtures.

``tests/data/golden/calls.json`` maps a fixture name to a CLI argv whose
``*.json`` arguments name input files in the same directory; ``<name>.out``
holds the stdout recorded for it.  Inputs named ``*_p`` or without a suffix
are over F_5 and those named ``*_q`` over Q (``kron_q.json`` and
``w222_q.json`` are F_5 modules of positive defect); ``*.alg.json`` files hold
algebra specs.  Every input module was drawn with a fixed ``random.Random``
seed and conjugated by ``tests/helpers.conjugate``, so the splitter, the tube
partition and the omega-approximations draw from the seeded rng, and the
kernels, cokernels and basis completions meet non-unit bases.  The calls
cover ``decompose``, ``split-trisect``, ``partition-tubes``, ``omega-left``
and ``omega-right``; ``hom`` with its printed basis (``w222_hom_f5``, dim 5);
``ext`` (Kronecker over F_5, (2, 2, 2) over Q, and ``w222_ext_f5``: (2, 2, 2)
over F_5 with a non-projective syzygy, Ext^1 of dim 3 and Hom of dim 6, so
every term of the Hom-Ext exact sequence is nonzero); ``tau``
and ``tau --inverse`` on mixes with a projective summand; ``sbracket`` on
an arm tube of (2, 2, 2) over F_5 and a degree-two point tube over Q;
``tube-simples`` (``*_tube_simples_*``) at ∞ on the Kronecker quiver over Q,
on arms 1 and 2 of (2, 3) over F_5 (``w23_f5.alg.json``), on arms 1 and 3
and the point t^2+2 of (2, 2, 2) over F_5, and on arm 4 of (2, 2, 2, 2)
over F_5, so every case of the mouth builder prints; and
``chain`` (``w2222_chain_f5``: ``--ratios 0,1,∞`` on the tubular algebra
(2, 2, 2, 2) over F_5 of ``w2222_f5.alg.json``, whose monomorphism search
meets 15 pairs with Hom != 0 where the dimensions already rule out a
monomorphism, so it pins the draws replayed for them); and the slope layer
on the same algebra, with its P(0) (``w2222_p0.json``) and I(c)
(``w2222_ic.json``): ``slope`` on P(0) (slope 0), ``slope --format tsv`` on
I(c) (slope ∞), ``slope-check`` of I(c) against P(0), and
``w2222_chain_sides_f5`` (``--ratios 0,1/2,1,2,∞``), which builds both
sides' pools and the extension middles below and above slope 1.  The
``omega_left`` inputs P(c) (+) P(0) and P(0) reach several tower blocks, so
the block maps of their universal extensions have several parts.
``kron_omega_left_repeated_tube`` names the tube ``pt:t`` twice; its
``.out`` is the stdout of the same call with ``--tubes pt:t,pt:t+1``,
recorded before a repeated tube was skipped (the repeated argv then failed
with "projective lifting failed"), so it pins that naming a tube again
changes nothing.  A change
that alters a verdict, or the random draws made on the way to one, changes
these bytes.  When an output is meant to change, record it again by running
the argv through ``canrep.cli.main``.
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
