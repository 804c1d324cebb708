"""The Frobenius block count that certifies local modules over F_p.

Oracles: an exhaustive count of the idempotents of End(m) (a commutative
algebra with s blocks has 2^s of them), the random draws the splitter's trial
loop makes when it fails, and the absence of sympy from a CLI process over F_p
(its presence over Q).
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import canrep
from canrep.exactla import poly_factor_fp
from canrep.repcat import (
    decomp,
    direct_sum,
    hom_basis,
    indecomposable_summands,
    is_brick,
    linear_combination,
    projective_at,
)
from canrep.serialize import rep_to_json
from canrep.trisection import TubeId, uniserial_tower

from helpers import F2, F3, F5, QQ, conjugate, kron

# monic irreducible quadratics, ascending coefficients
QUADRATIC = {2: (1, 1, 1), 3: (1, 0, 1), 5: (2, 0, 1)}


def _tower(alg, tube, r, rng):
    return uniserial_tower(alg, tube, 0, r, rng).top_module


def _point(F, a):
    return TubeId.for_point((F.neg(a), F.one))


def _commutative_cases(F):
    """(name, module) with commutative End of dim <= 6 over the Kronecker algebra."""
    alg, rng = kron(F), random.Random(F.p)
    quad = TubeId.for_point(QUADRATIC[F.p])
    sa, sb = _point(F, 0), _point(F, 1)
    cases = {
        "S[2]": _tower(alg, sa, 2, rng),
        "S[3]": _tower(alg, sb, 3, rng),
        "S[2]@inf": _tower(alg, TubeId.for_point(None), 2, rng),
        "S[1]@deg2": _tower(alg, quad, 1, rng),
        "S[2]@deg2": _tower(alg, quad, 2, rng),
        "S[3]@deg2": _tower(alg, quad, 3, rng),
        "Sa+Sb": direct_sum([_tower(alg, sa, 1, rng), _tower(alg, sb, 1, rng)]).rep,
        "S[2]a+Sb": direct_sum([_tower(alg, sa, 2, rng), _tower(alg, sb, 1, rng)]).rep,
        "S[1]@deg2+Sa": direct_sum([_tower(alg, quad, 1, rng), _tower(alg, sa, 1, rng)]).rep,
        "Sa+Sb+Sinf": direct_sum([_tower(alg, sa, 1, rng), _tower(alg, sb, 1, rng),
                                  _tower(alg, TubeId.for_point(None), 1, rng)]).rep,
    }
    return [(name, conjugate(m, rng)) for name, m in cases.items()]


def _noncommutative_cases(F):
    alg, rng = kron(F), random.Random(F.p + 100)
    sa = _point(F, 0)
    cases = {
        "Sa+Sa": direct_sum([_tower(alg, sa, 1, rng), _tower(alg, sa, 1, rng)]).rep,
        "S[2]a+Sa": direct_sum([_tower(alg, sa, 2, rng), _tower(alg, sa, 1, rng)]).rep,
        "P0+Sa": direct_sum([projective_at(alg, "0"), _tower(alg, sa, 1, rng)]).rep,
    }
    return [(name, conjugate(m, rng)) for name, m in cases.items()]


def _idempotent_count(m, basis):
    count = 0
    for coeffs in itertools.product(range(m.field.p), repeat=len(basis)):
        f = linear_combination(m, m, basis, coeffs)
        if f.after(f) == f:
            count += 1
    return count


@pytest.mark.parametrize("F", [F2, F3], ids=["F2", "F3"])
def test_block_count_matches_exhaustive_idempotent_search(F):
    for name, m in _commutative_cases(F):
        basis = hom_basis(m, m)
        assert len(basis) <= 6, name
        idempotents = _idempotent_count(m, basis)
        blocks = len(decomp._frobenius_blocks(m, basis))
        assert 2 ** blocks == idempotents, name
        # commutative End: one summand per block, and local iff one block
        assert len(indecomposable_summands(m, random.Random(1))) == blocks, name


@pytest.mark.parametrize("F", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_noncommutative_end_gets_no_certificate(F):
    for name, m in _noncommutative_cases(F):
        basis = hom_basis(m, m)
        assert decomp._frobenius_blocks(m, basis) is None, name
        assert not is_brick(m, random.Random(2)), name
        assert len(indecomposable_summands(m, random.Random(3))) == 2, name


@pytest.mark.parametrize("F", [F2, F3], ids=["F2", "F3"])
def test_split_along_a_fixed_element_when_no_trial_splits(F, monkeypatch):
    """With no trials and candidates that never split, the fixed space does."""
    monkeypatch.setattr(decomp, "_candidates", lambda basis, rng, trials: iter(()))
    for name, m in _commutative_cases(F):
        basis = hom_basis(m, m)
        blocks = len(decomp._frobenius_blocks(m, basis))
        assert len(indecomposable_summands(m, random.Random(4))) == blocks, name


def _local_cases():
    alg, rng = kron(F5), random.Random(7)
    quad = TubeId.for_point(QUADRATIC[5])
    return [conjugate(m, rng) for m in (
        _tower(alg, _point(F5, 2), 2, rng), _tower(alg, _point(F5, 3), 3, rng),
        _tower(alg, quad, 1, rng), _tower(alg, quad, 2, rng))]


def _after_draws(seed, field, count):
    rng = random.Random(seed)
    for _ in range(count):
        field.random(rng)
    return rng.random()


def _no_minpoly(phi):
    raise AssertionError("an exact verdict over F_p needs no minimal polynomial")


@pytest.mark.parametrize("trials", [64, 5])
def test_certified_local_makes_the_trial_loops_draws(trials, monkeypatch):
    monkeypatch.setattr(decomp, "endo_minimal_polynomial", _no_minpoly)
    for m in _local_cases():
        d = len(hom_basis(m, m))
        assert d > 1
        rng = random.Random(11)
        assert len(indecomposable_summands(m, rng, trials)) == 1
        assert rng.random() == _after_draws(11, F5, trials * d)


@pytest.mark.parametrize("probes", [32, 3])
def test_is_brick_is_exact_and_makes_the_probes_draws(probes, monkeypatch):
    monkeypatch.setattr(decomp, "endo_minimal_polynomial", _no_minpoly)
    s2, s3, quad1, quad2 = _local_cases()
    for m, expected in ((s2, False), (s3, False), (quad1, True), (quad2, False)):
        d = len(hom_basis(m, m))
        rng = random.Random(12)
        assert is_brick(m, rng, probes) is expected
        assert rng.random() == _after_draws(12, F5, probes * d)


# python -c body: run the CLI, then report on stderr whether sympy was imported
_CLI = ("import sys\nfrom canrep.cli import main\ncode = main(sys.argv[1:])\n"
        "sys.stderr.write('sympy' if 'sympy' in sys.modules else 'no sympy')\n"
        "sys.exit(code)\n")


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(canrep.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", _CLI, *argv],
                          capture_output=True, text=True, env=env, timeout=120, check=False)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("tube", ["pt:t+3", "pt:t^2+2"])
def test_cli_classify_of_a_local_module_does_not_import_sympy(tube, tmp_path):
    alg, rng = kron(F5), random.Random(5)
    m = conjugate(_tower(alg, TubeId.parse(F5, tube), 2, rng), rng)
    proc = _cli("classify", "--rep", _write(tmp_path / "s2.json", rep_to_json(m)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["label"] == "T"
    assert proc.stderr == "no sympy"


def test_cli_decompose_over_fp_factors_without_sympy(tmp_path, monkeypatch):
    """A regular simple (+) P_0 over F_5: End is not commutative, so the trial
    loop factors minimal polynomials of degree 2."""
    alg, rng = kron(F5), random.Random(9)
    mix = direct_sum([_tower(alg, _point(F5, 2), 1, rng), projective_at(alg, "0")]).rep
    m = conjugate(mix, rng)
    degrees = []

    def spy(F, coeffs):
        degrees.append(len(coeffs) - 1)
        return poly_factor_fp(F, coeffs)

    monkeypatch.setattr(decomp, "poly_factor_fp", spy)
    decomp.decompose(m, random.Random(7))
    assert degrees and min(degrees) >= 2
    proc = _cli("decompose", "--seed", "7", "--rep", _write(tmp_path / "mix.json", rep_to_json(m)))
    assert proc.returncode == 0, proc.stderr
    assert sum(s["multiplicity"] for s in json.loads(proc.stdout)["summands"]) == 2
    assert proc.stderr == "no sympy"


@pytest.mark.parametrize("field, tube, imported", [
    (F5, "pt:t^3+t+1", "no sympy"),   # irreducibility of a cubic over F_5
    (QQ, "pt:t^2+1", "sympy"),        # over Q the factorization still asks sympy
], ids=["F5-cubic", "Q-quadratic"])
def test_cli_tube_simples_imports_sympy_only_over_q(field, tube, imported, tmp_path):
    proc = _cli("tube-simples", "--algebra", _write(tmp_path / "kron.json", kron(field).spec()),
                "--tube", tube)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["simples"]) == 1
    assert proc.stderr == imported
