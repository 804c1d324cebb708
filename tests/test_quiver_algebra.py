import pytest
from fractions import Fraction

from canrep.errors import AlgebraError
from canrep.exactla import PrimeField, RationalField
from canrep.quiver_algebra import algebra_from_spec, canonical_algebra

QQ = RationalField()
F5 = PrimeField(5)


def test_kronecker_shape():
    a = canonical_algebra(F5, [], [])
    assert len(a.vertices) == 2
    assert len(a.arrows) == 2
    assert len(a.relations) == 0
    assert all(x.source == "0" and x.target == "c" for x in a.arrows)


def test_three_weight_counts():
    a = canonical_algebra(QQ, [2, 2, 2], [Fraction(2)])
    assert len(a.vertices) == 5
    assert len(a.arrows) == 6
    assert len(a.relations) == 1


def test_two_weight_counts():
    a = canonical_algebra(QQ, [2, 2], [])
    assert len(a.vertices) == 4
    assert len(a.arrows) == 4
    assert len(a.relations) == 0


def test_arm_points():
    # arm_i = arm_2 - l_i*arm_1: composite i vanishes at ∞ (i = 1), 0 (i = 2), l_i
    a = canonical_algebra(F5, [2, 2, 2, 2], [2, 3])
    assert [a.arm_point(i) for i in range(1, 5)] == [None, 0, 2, 3]
    assert [canonical_algebra(F5, [], []).arm_point(i) for i in (1, 2)] == [None, 0]
    for alg, i in ((a, 5), (a, 0), (canonical_algebra(F5, [], []), 3)):
        with pytest.raises(AlgebraError):
            alg.arm_point(i)


def test_constructor_validation():
    with pytest.raises(AlgebraError):
        canonical_algebra(QQ, [1, 2], [])
    with pytest.raises(AlgebraError):
        canonical_algebra(QQ, [2, 2, 2], [])
    with pytest.raises(AlgebraError):
        canonical_algebra(QQ, [2, 2, 2], [Fraction(1)])
    with pytest.raises(AlgebraError):
        canonical_algebra(QQ, [2, 2, 2, 2], [Fraction(2), Fraction(2)])


def test_determinism():
    a = canonical_algebra(QQ, [2, 3], [])
    b = canonical_algebra(QQ, [2, 3], [])
    assert a.same_as(b)
    assert a.spec() == b.spec()
    assert algebra_from_spec(a.spec()).same_as(a)


def test_kronecker_cartan():
    a = canonical_algebra(QQ, [], [])
    c = a.cartan_matrix()
    # order (0, c): path space 0 -> c is 2-dimensional
    assert [[int(x) for x in r] for r in c.data] == [[1, 2], [0, 1]]


def test_c222_path_space_dims():
    a = canonical_algebra(QQ, [2, 2, 2], [Fraction(2)])
    # three composites modulo one relation leave a 2-dim (0, c) path space
    assert a.path_space_dim("0", "c") == 2
    assert a.path_space_dim("0", "1.1") == 1
    assert a.path_space_dim("1.1", "c") == 1
    assert a.path_space_dim("2.1", "1.1") == 0
    # dim P(0) = sum over vertices of path-space dims from "0"
    total = sum(a.path_space_dim("0", v) for v in a.vertices)
    assert total == 1 + 3 + 2  # trivial path, three arm midpoints, 2 at sink


def test_euler_form_kronecker():
    a = canonical_algebra(QQ, [], [])
    s_reg = {"0": 1, "c": 1}
    p_c = {"c": 1}
    assert a.euler_form(s_reg, p_c) == -1
    assert a.euler_form(s_reg, s_reg) == 0
    # <dim P(v), e> = dim Hom(P(v), E) = e_v
    p0 = {"0": 1, "c": 2}
    for e in ({"0": 3, "c": 1}, {"0": 0, "c": 2}):
        assert a.euler_form(p0, e) == e["0"]
        assert a.euler_form(p_c, e) == e["c"]


def test_euler_form_hereditary_formula():
    # for t <= 2 the Euler form is sum d_v e_v - sum over arrows d_src e_tgt
    a = canonical_algebra(QQ, [2, 3], [])
    import random
    rng = random.Random(5)
    for _ in range(20):
        d = {v: rng.randint(0, 3) for v in a.vertices}
        e = {v: rng.randint(0, 3) for v in a.vertices}
        expected = sum(d[v] * e[v] for v in a.vertices)
        expected -= sum(d[x.source] * e[x.target] for x in a.arrows)
        assert a.euler_form(d, e) == expected


def test_defect_examples():
    a = canonical_algebra(F5, [], [])
    delta = a.defect_form()
    assert delta({"c": 1}) == -1          # simple projective
    assert delta({"0": 1}) == 1           # simple injective
    b = canonical_algebra(QQ, [2, 2, 2], [Fraction(2)])
    db = b.defect_form()
    assert db({v: 1 for v in b.vertices}) == 0


def test_defect_additivity():
    import random
    a = canonical_algebra(QQ, [2, 2], [])
    delta = a.defect_form()
    rng = random.Random(9)
    for _ in range(20):
        d = {v: rng.randint(0, 4) for v in a.vertices}
        e = {v: rng.randint(0, 4) for v in a.vertices}
        s = {v: d[v] + e[v] for v in a.vertices}
        assert delta(s) == delta(d) + delta(e)


def test_opposite_round_trip():
    a = canonical_algebra(QQ, [2, 2, 2], [Fraction(2)])
    opp = a.opposite()
    assert opp.opposite() is a
    # arrows reversed, relations stay parallel
    assert {(x.source, x.target) for x in opp.arrows} == \
           {(x.target, x.source) for x in a.arrows}
    assert opp.path_space_dim("c", "0") == 2


def test_symmetrized_kernel_extended_dynkin():
    # killing the source of C(2,2,2,2) leaves the 4-subspace quiver (D~4)
    from canrep.quiver_algebra import QuiverAlgebra, Arrow
    verts = ["1.1", "2.1", "3.1", "4.1", "c"]
    arrows = [Arrow(f"x{i}.2", f"{i}.1", "c") for i in range(1, 5)]
    sub = QuiverAlgebra(QQ, verts, arrows)
    kers = sub.symmetrized_euler_kernel()
    assert len(kers) == 1
    vec = dict(zip(verts, kers[0]))
    assert vec == {"1.1": 1, "2.1": 1, "3.1": 1, "4.1": 1, "c": 2}
