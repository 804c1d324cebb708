"""The certificates that prove a module local: one End(m) basis element that
generates End(m), over every field, and the Frobenius block count over F_p.

Oracles: an exhaustive count of the idempotents of End(m) (a commutative
algebra with s blocks has 2^s of them), the random draws the splitter's trial
loop makes when it fails, the leaves found without the generator certificate,
and the absence of sympy from a CLI process over F_p (its presence over Q).
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
from canrep.exactla import FunctionField, Matrix, companion_matrix, poly_factor_fp
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

from helpers import F2, F3, F5, QQ, conjugate, kron, kron_jordan, reference_idempotent_split

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


def _pieces(pieces):
    return pieces and [(rep.dims, rep.arrows, incl.maps) for rep, incl in pieces]


@pytest.mark.parametrize("F", [F2, F3], ids=["F2", "F3"])
def test_idempotent_split_matches_the_reference_grid_walk(F):
    """The exhaustive idempotent search finds the same first idempotent, in the
    same lexicographic coefficient order, as a plain product loop."""
    found = []
    for name, m in _commutative_cases(F) + _noncommutative_cases(F):
        basis = hom_basis(m, m)
        pieces = decomp._idempotent_fallback(m, basis)
        assert _pieces(pieces) == _pieces(reference_idempotent_split(m, basis)), name
        found.append(pieces is not None)
    assert any(found) and not all(found)


@pytest.mark.parametrize("F", [F2, F3], ids=["F2", "F3"])
def test_split_along_a_fixed_element_when_no_trial_splits(F, monkeypatch):
    """With no basis walk and no trials, the fixed space splits."""
    monkeypatch.setattr(decomp, "_basis_walk", lambda m, basis: iter(()))
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


def _no_candidates(basis, rng, trials):
    raise AssertionError("a generated End(m) needs no random candidate")


def _exact_route(monkeypatch):
    """The minimal polynomials taken, in a list; any random candidate fails."""
    taken = []
    minpoly = decomp.endo_minimal_polynomial

    def counted(phi):
        taken.append(phi)
        return minpoly(phi)

    monkeypatch.setattr(decomp, "endo_minimal_polynomial", counted)
    monkeypatch.setattr(decomp, "_candidates", _no_candidates)
    return taken


@pytest.mark.parametrize("trials", [64, 5])
def test_certified_local_makes_the_trial_loops_draws(trials, monkeypatch):
    cases = _local_cases()
    taken = _exact_route(monkeypatch)
    for m in cases:
        d = len(hom_basis(m, m))
        assert d > 1
        rng = random.Random(11)
        taken.clear()
        assert len(indecomposable_summands(m, rng, trials)) == 1
        assert len(taken) <= d
        assert rng.random() == _after_draws(11, F5, trials * d)


@pytest.mark.parametrize("probes", [32, 3])
def test_is_brick_is_exact_and_makes_the_probes_draws(probes, monkeypatch):
    s2, s3, quad1, quad2 = _local_cases()
    taken = _exact_route(monkeypatch)
    for m, expected in ((s2, False), (s3, False), (quad1, True), (quad2, False)):
        d = len(hom_basis(m, m))
        rng = random.Random(12)
        taken.clear()
        assert is_brick(m, rng, probes) is expected
        assert len(taken) <= d
        assert rng.random() == _after_draws(12, F5, probes * d)


QT = FunctionField(QQ)


def _kron_companion(F, monic, rng):
    """A conjugated Kronecker module (I, C) with C the companion matrix of an
    irreducible monic polynomial: a regular simple whose End is F[x]/(monic)."""
    alg = kron(F)
    n = len(monic) - 1
    return conjugate(canrep.repcat.Representation(
        alg, {"0": n, "c": n},
        {"x1": Matrix.identity(F, n), "x2": companion_matrix(F, monic)}), rng)


@pytest.mark.parametrize("F", [QQ, QT], ids=["Q", "Q(t)"])
def test_generated_end_gives_exact_verdicts_over_q_and_qt(F, monkeypatch):
    """S[2] is certified local and a degree-2 regular simple is an exact brick,
    factoring only minimal polynomials of basis elements."""
    rng = random.Random(14)
    t = F.make((QQ.zero, QQ.one)) if F is QT else F.from_int(2)
    s2 = conjugate(kron_jordan(kron(F), F.one, 2), rng)
    brick = _kron_companion(F, (F.neg(t), F.zero, F.one), rng)   # x^2 - t, x^2 - 2
    taken = _exact_route(monkeypatch)
    factored = []
    factor = decomp.factor_poly

    def spy(field, coeffs):
        factored.append(coeffs)
        return factor(field, coeffs)

    monkeypatch.setattr(decomp, "factor_poly", spy)
    for m, local, expected in ((s2, True, False), (brick, True, True)):
        d = len(hom_basis(m, m))
        assert d == 2
        for seed in (15, 16):
            taken.clear()
            factored.clear()
            rng = random.Random(seed)
            if seed == 15:
                assert (len(indecomposable_summands(m, rng, 5)) == 1) is local
                draws = 5 * d
            else:
                assert is_brick(m, rng, 4) is expected
                draws = 4 * d
            assert len(taken) <= d and len(factored) <= len(taken)
            assert rng.random() == _after_draws(seed, F, draws)


def _leaves(m, seed):
    rng = random.Random(seed)
    leaves = indecomposable_summands(m, rng)
    return [(leaf.dims, leaf.arrows, incl.maps) for leaf, incl in leaves], rng.random()


@pytest.mark.parametrize("F", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_generator_certificate_changes_no_leaf_and_no_draw(F, monkeypatch):
    """The splitter with no basis element ever taken as a generator (the Frobenius
    count and the trials decide instead) gets the same leaves, inclusions and
    rng state, on equal fresh copies (the first run's modules keep their
    verdicts)."""
    cases = _commutative_cases(F)
    counted = []
    blocks = decomp._frobenius_blocks

    def counting_blocks(m, basis):
        counted.append(m)
        return blocks(m, basis)

    monkeypatch.setattr(decomp, "_frobenius_blocks", counting_blocks)
    expected = [_leaves(m, 13) for _, m in cases]
    with_generator = len(counted)
    walk = decomp._basis_walk
    monkeypatch.setattr(decomp, "_basis_walk", lambda m, basis: (
        (phi, factors, False) for phi, factors, _ in walk(m, basis)))
    counted.clear()
    for (name, m), leaves in zip(_commutative_cases(F), expected):
        assert _leaves(m, 13) == leaves, name
    # the generator certificate did spare some block counts
    assert with_generator < len(counted)


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
