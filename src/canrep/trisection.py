"""Defect classification, split trisection, and the tube toolkit.

Tube identifiers: "arm:i" for the rank-p_i tubes attached to the arms, and
"pt:<monic irreducible>" (or "pt:∞" on the Kronecker quiver) for the
homogeneous tubes.  With the relation convention arm_i = arm_2 - l_i*arm_1,
the arm tubes occupy the points ``CanonicalAlgebra.arm_point(i)``: ∞ (arm 1),
0 (arm 2) and l_i (arm i >= 3); degree-one homogeneous labels exclude exactly
those values.  ``_pencil_module`` builds every mouth that is not a simple at
an arm vertex: a point tube's mouth at the companion matrix of its label (or
∞), and arm i's mouth off the arm at arm_point(i).  Every tube construction
is certified by the predicate: defect zero, brick, and a cyclic tau-orbit of
the full rank.

Each tube's mouth orbit and, per (tube, socle), the longest uniserial tower
built so far are kept in ``alg.module_cache``, so they are built and
certified once per algebra; the cache is keyed on tube ids, never on a
caller's module.  Calls return fresh lists of the shared modules.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .errors import ParseError, TubeError
from .exactla import (
    Matrix,
    companion_matrix,
    minimal_polynomial,
    poly_parse,
    poly_to_str,
    poly_trim,
)
from .homology import ExtSpace, tau_inverse
from .quiver_algebra import SOURCE, CanonicalAlgebra, arm_vertex
from .repcat import (
    Morphism,
    Representation,
    cokernel,
    direct_sum,
    factor_poly,
    hom_basis,
    hom_dim,
    indecomposable_summands,
    is_brick,
    is_indecomposable,
    is_irreducible_poly,
    is_isomorphic,
    projective_at,
    sum_onto,
)


class TrisectLabel(enum.Enum):
    P = "P"
    T = "T"
    Q = "Q"


def label_of_defect(value: int) -> TrisectLabel:
    if value < 0:
        return TrisectLabel.P
    if value > 0:
        return TrisectLabel.Q
    return TrisectLabel.T


INFINITY_POINT = "∞"


@dataclass(frozen=True)
class TubeId:
    """Either arm(i) or a homogeneous point (monic irreducible or ∞)."""

    kind: str                 # "arm" | "point"
    arm: int | None = None
    poly: tuple | None = None  # ascending monic coefficients; None means ∞

    @classmethod
    def for_arm(cls, i: int) -> "TubeId":
        return cls("arm", arm=i)

    @classmethod
    def for_point(cls, poly) -> "TubeId":
        return cls("point", poly=tuple(poly) if poly is not None else None)

    @property
    def is_infinity(self) -> bool:
        return self.kind == "point" and self.poly is None

    def to_str(self, field) -> str:
        if self.kind == "arm":
            return f"arm:{self.arm}"
        if self.is_infinity:
            return f"pt:{INFINITY_POINT}"
        return f"pt:{poly_to_str(field, self.poly)}"

    @classmethod
    def parse(cls, field, text: str) -> "TubeId":
        text = text.strip()
        if text.startswith("arm:"):
            try:
                return cls.for_arm(int(text[4:]))
            except ValueError:
                raise ParseError(f"bad arm label {text!r}") from None
        if text.startswith("pt:"):
            body = text[3:].strip()
            if body in (INFINITY_POINT, "inf", "infty"):
                return cls.for_point(None)
            return cls.for_point(poly_parse(field, body))
        raise ParseError(f"bad tube id {text!r}: expected arm:<i> or pt:<point>")


def validate_tube(alg: CanonicalAlgebra, tube: TubeId):
    t = alg.arm_count
    if t == 1:
        raise TubeError("a single-arm algebra (weights [p]) is a path algebra of "
                        "type A_{p+1} and has no tubes")
    if tube.kind == "arm":
        if not 1 <= (tube.arm or 0) <= t:
            raise TubeError(f"no arm {tube.arm} on this algebra")
        return
    arm_points = [alg.arm_point(i) for i in range(1, t + 1)]
    if tube.is_infinity:
        if None in arm_points:
            raise TubeError("∞ is the arm-1 point on weighted algebras")
        return
    poly = poly_trim(alg.field, tube.poly)
    if len(poly) < 2:
        raise TubeError("point polynomial must be non-constant")
    if poly[-1] != alg.field.one:
        raise TubeError("point polynomial must be monic")
    if len(poly) == 2:
        if alg.field.neg(poly[0]) in arm_points:
            raise TubeError("degree-one point collides with an arm tube")
    elif not is_irreducible_poly(alg.field, poly):
        raise TubeError("point polynomial must be irreducible")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify(m: Representation, rng=None) -> TrisectLabel:
    """Defect-sign label of an indecomposable; decomposable input is rejected."""
    if m.is_zero():
        raise TubeError("zero module has no trisection label")
    if not is_indecomposable(m, rng):
        raise TubeError("classify needs an indecomposable module")
    return label_of_defect(m.algebra.defect_form()(m.dims))


def pegs(alg: CanonicalAlgebra) -> list[Representation]:
    """Indecomposable projectives of defect -1; never empty."""
    delta = alg.defect_form()
    out = []
    for v in alg.vertices:
        p = projective_at(alg, v)
        if delta(p.dims) == -1:
            out.append(p)
    if not out:
        raise TubeError("no peg found (unsupported algebra?)")
    return out


@dataclass
class Trisection:
    p_part: Representation
    t_part: Representation
    q_part: Representation
    iso: Morphism          # p (+) t (+) q -> original
    iso_inverse: Morphism
    p_summands: list
    t_summands: list
    q_summands: list


def split_trisect(m: Representation, rng=None) -> Trisection:
    """m as p-part (+) t-part (+) q-part with an invertible certificate."""
    rng = rng if rng is not None else random.Random(0)
    alg = m.algebra
    delta = alg.defect_form()
    order = [TrisectLabel.P, TrisectLabel.T, TrisectLabel.Q]
    groups = {lab: [] for lab in order}
    for leaf, incl in indecomposable_summands(m, rng):
        groups[label_of_defect(delta(leaf.dims))].append((leaf, incl))
    (p, t, q), iso, inv = _grouped_sum_onto(m, [groups[lab] for lab in order],
                                            "trisection")
    return Trisection(p, t, q, iso, inv,
                      *([r for r, _ in groups[lab]] for lab in order))


def _grouped_sum_onto(m: Representation, groups, what: str):
    """(group sums, iso, inverse) for groups of (leaf, inclusion) pairs that split m.

    iso is sum_onto's certificate out of the sum of all leaves in group order,
    which is entry for entry the direct sum of the group sums.
    """
    _, iso, inv = sum_onto(m, [incl for group in groups for _, incl in group])
    if inv is None:
        raise TubeError(f"{what} certificate is not invertible")
    return ([direct_sum([leaf for leaf, _ in group], m.algebra).rep for group in groups],
            iso, inv)


# ---------------------------------------------------------------------------
# regular simples
# ---------------------------------------------------------------------------

def _pencil_module(alg: CanonicalAlgebra, x, skip=None) -> Representation:
    """The module at the point x of P^1: x a d x d matrix, or None for ∞ (d = 1).

    The first arrow of composite j is x - arm_point(j)*I (I for arm 1); at ∞,
    arm 1 acts by 0 and every other composite by 1.  The remaining arrows are
    identities, and the interior of arm ``skip`` is dropped.
    """
    F = alg.field
    ident = Matrix.identity(F, 1 if x is None else x.rows)
    dims = {v: ident.rows for v in alg.vertices}
    if skip is not None:
        dims.update(dict.fromkeys(alg.arm_vertices(skip), 0))
    arrows = {}
    for j in range(1, (alg.arm_count or 2) + 1):
        if j == skip:
            continue  # zero-dimensional middles force zero matrices
        point = alg.arm_point(j)
        if x is None:
            first = Matrix.zeros(F, 1, 1) if point is None else ident
        else:
            first = ident if point is None else x - ident.scale(point)
        labels = alg.arm_composite(j)
        arrows[labels[0]] = first
        for lbl in labels[1:]:
            arrows[lbl] = ident
    return Representation(alg, dims, arrows)


def regular_simples(alg: CanonicalAlgebra, tube: TubeId, rng=None) -> list[Representation]:
    """The tau-orbit of mouth modules, ordered so entry k+1 = tau^{-1}(entry k).

    The orbit is built and certified once per algebra and tube; later calls
    draw nothing from rng and return a fresh list of the same modules.
    """
    key = ("mouths", tube)
    orbit = alg.module_cache.get(key)
    if orbit is None:
        validate_tube(alg, tube)
        orbit = alg.module_cache[key] = _mouth_orbit(
            alg, tube, rng if rng is not None else random.Random(0))
    return list(orbit)


def _mouth_orbit(alg: CanonicalAlgebra, tube: TubeId, rng) -> list[Representation]:
    """A point tube's one mouth, or an arm tube's simples at the arm vertices and
    the mouth off the arm, certified and walked into tau^{-1} order."""
    F = alg.field
    if tube.kind == "point":
        x = None if tube.is_infinity else companion_matrix(F, poly_trim(F, tube.poly))
        candidates = [_pencil_module(alg, x)]
    else:
        i = tube.arm
        point = alg.arm_point(i)
        candidates = [Representation(alg, {arm_vertex(i, j): 1}, {}, check=False)
                      for j in range(1, alg.weights[i - 1])]
        candidates.append(_pencil_module(
            alg, None if point is None else Matrix(F, 1, 1, [[point]]), skip=i))
    delta = alg.defect_form()
    for c in candidates:
        _verify_mouth(c, delta, rng)
    orbit, remaining = candidates[:1], candidates[1:]
    while remaining:
        nxt = tau_inverse(orbit[-1])
        match = next((c for c in remaining if is_isomorphic(c, nxt, rng) is not None), None)
        if match is None:
            raise TubeError("tau walk left the candidate mouth set")
        orbit.append(match)
        remaining.remove(match)
    if is_isomorphic(tau_inverse(orbit[-1]), orbit[0], rng) is None:
        raise TubeError("tau orbit does not close up")
    return orbit


def _verify_mouth(s, delta, rng):
    if delta(s.dims) != 0:
        raise TubeError("mouth candidate has nonzero defect")
    if not is_brick(s, rng):
        raise TubeError("mouth candidate is not a brick")


def tau_period(s: Representation, rng=None) -> int:
    """Least r >= 1 with tau^r(s) isomorphic to s, for a regular simple."""
    rng = rng if rng is not None else random.Random(0)
    delta = s.algebra.defect_form()
    _verify_mouth(s, delta, rng)
    bound = sum(s.algebra.weights) + 2 if s.algebra.weights else 2
    cur = s
    for r in range(1, bound + 1):
        cur = tau_inverse(cur)
        if is_isomorphic(cur, s, rng) is not None:
            return r
    raise TubeError("tau period exceeded the weight bound; not a regular simple?")


# ---------------------------------------------------------------------------
# tube membership
# ---------------------------------------------------------------------------

def tube_of(m: Representation, rng=None) -> TubeId:
    """Tube of an indecomposable regular module via the Hom-membership predicate."""
    return _tube_position(m, rng)[0]


def _tube_position(m: Representation, rng=None):
    """(tube, k) for ``tube_of``: k indexes the first mouth of the tube's orbit
    with a nonzero map into m."""
    alg = m.algebra
    rng = rng if rng is not None else random.Random(0)
    if alg.defect_form()(m.dims) != 0:
        raise TubeError("module has nonzero defect")
    t = alg.arm_count
    if t == 1:
        raise TubeError("single-arm algebras are unsupported by tube machinery")
    for i in range(1, t + 1):
        tube = TubeId.for_arm(i)
        k = next((k for k, s in enumerate(regular_simples(alg, tube, rng))
                  if hom_dim(s, m) > 0), None)
        if k is not None:
            return tube, k
    x1, x2 = (m.eval_path(alg.arm_composite(i), SOURCE) for i in (1, 2))
    x1_inv = x1.inverse() if x1.rows == x1.cols else None
    if x1_inv is None:
        if t == 0:
            tube = TubeId.for_point(None)
            if hom_dim(regular_simples(alg, tube, rng)[0], m) > 0:
                return tube, 0
        raise TubeError("module is not supported in a single tube")
    op = x1_inv * x2
    coeffs = minimal_polynomial((op,))
    factors = factor_poly(alg.field, coeffs)
    if len(factors) != 1:
        raise TubeError("module spans several homogeneous tubes")
    tube = TubeId.for_point(factors[0][0])
    validate_tube(alg, tube)
    if hom_dim(regular_simples(alg, tube, rng)[0], m) == 0:
        raise TubeError("membership verification failed")
    return tube, 0


# ---------------------------------------------------------------------------
# uniserial towers S[1] c S[2] c ... c S[r]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TubePosition:
    tube: TubeId
    socle: int
    rlen: int


@dataclass
class UniserialTower:
    position: TubePosition
    layers: list          # [S[1], ..., S[r]]
    inclusions: list      # S[j] -> S[j+1]
    tops: list            # cokernel witnesses: tops[j] ~ tau^{-j}(socle)

    @property
    def top_module(self) -> Representation:
        return self.layers[-1]

    def socle_inclusion(self) -> Morphism:
        incl = Morphism.identity(self.layers[0])
        for step in self.inclusions:
            incl = step.after(incl)
        return incl


def uniserial_tower(alg: CanonicalAlgebra, tube: TubeId, socle_index: int,
                    rlen: int, rng=None) -> UniserialTower:
    """S[1] c ... c S[rlen] with socle the mouth orbit[socle_index] of tube.

    Each layer is the middle of the first Ext^1 basis class of the next mouth
    by the layer below, so a tower is fixed by its orbit.  The longest tower
    built so far per (tube, socle) is kept in the algebra's module cache: a
    shorter request is a prefix of it and a longer one stacks layers on its
    top.  The returned lists are fresh; the modules in them are shared.
    """
    if rlen < 1:
        raise TubeError("regular length must be >= 1")
    orbit = regular_simples(alg, tube, rng)
    n = len(orbit)
    if not 0 <= socle_index < n:
        raise TubeError(f"socle index out of range 0..{n - 1}")
    key = ("tower", tube, socle_index)
    layers, inclusions, tops = alg.module_cache.setdefault(
        key, ([orbit[socle_index]], [], []))
    for j in range(len(layers), rlen):
        top = orbit[(socle_index + j) % n]
        basis = ExtSpace(top, layers[-1]).basis()
        if not basis:
            raise TubeError("missing extension while stacking the tube")
        ses = basis[0].realize()
        layers.append(ses.middle)
        inclusions.append(ses.inclusion)
        tops.append(ses.quotient)
    return UniserialTower(TubePosition(tube, socle_index, rlen), layers[:rlen],
                          inclusions[:rlen - 1], tops[:rlen - 1])


def tower_over(s: Representation, rlen: int, rng) -> UniserialTower:
    """The uniserial tower S[1] c ... c S[rlen] whose socle is the regular simple s."""
    alg = s.algebra
    tube, socle = _tube_position(s, rng)
    if is_isomorphic(regular_simples(alg, tube, rng)[socle], s, rng) is None:
        raise TubeError("module is not a regular simple: no mouth of its tube matches it")
    return uniserial_tower(alg, tube, socle, rlen, rng)


def s_bracket(s: Representation, rlen: int, rng=None):
    """S[r] for a regular simple s; returns (representation, TubePosition)."""
    tower = tower_over(s, rlen, rng if rng is not None else random.Random(0))
    return tower.top_module, tower.position


# ---------------------------------------------------------------------------
# regular series, partitions, torsion part
# ---------------------------------------------------------------------------

def regular_series(m: Representation, rng=None):
    """[(summand, [socle-first regular composition factors])] for m in add t."""
    rng = rng if rng is not None else random.Random(0)
    alg = m.algebra
    delta = alg.defect_form()
    out = []
    for leaf, _ in indecomposable_summands(m, rng):
        if delta(leaf.dims) != 0:
            raise TubeError("regular series needs a defect-zero module")
        factors = []
        current = leaf
        guard = leaf.total_dim + 1
        while not current.is_zero():
            guard -= 1
            if guard < 0:
                raise TubeError("socle peeling did not terminate")
            tube, k = _tube_position(current, rng)
            cand = regular_simples(alg, tube, rng)[k]
            f = hom_basis(cand, current)[0]
            if not f.is_injective():
                raise TubeError("mouth map is not injective (not regular?)")
            current, _ = cokernel(f)
            factors.append(cand)
        out.append((leaf, factors))
    return out


@dataclass
class TubePartition:
    inside: Representation
    outside: Representation
    iso: Morphism
    iso_inverse: Morphism
    inside_summands: list
    outside_summands: list


def partition_by_tubes(m: Representation, tubes, rng=None) -> TubePartition:
    """Split m in add t by tube support (inside the given set vs outside)."""
    rng = rng if rng is not None else random.Random(0)
    alg = m.algebra
    chosen = set()
    for tube in tubes:
        validate_tube(alg, tube)
        chosen.add(tube)
    delta = alg.defect_form()
    ins, outs = [], []
    for leaf, incl in indecomposable_summands(m, rng):
        if delta(leaf.dims) != 0:
            raise TubeError("partition needs a module in add t")
        tube = tube_of(leaf, rng)
        (ins if tube in chosen else outs).append((leaf, incl))
    (inside, outside), iso, inv = _grouped_sum_onto(m, [ins, outs], "tube partition")
    return TubePartition(inside, outside, iso, inv,
                         [r for r, _ in ins], [r for r, _ in outs])


@dataclass
class TorsionPart:
    module: Representation       # tM
    inclusion: Morphism          # tM -> m
    quotient: Representation     # m / tM
    projection: Morphism


def torsion_part(m: Representation, rng=None) -> TorsionPart:
    """Maximal submodule generated by the tubes: the t- and q-parts of m.

    Hom(t, p) = 0 kills any trace in the p-part, the t-part is trivially
    generated, and every q-summand is generated by any single tube (maps from
    S[r] extend along the tower since Ext^1 from the tubes into q vanishes).
    """
    rng = rng if rng is not None else random.Random(0)
    tri = split_trisect(m, rng)
    alg = m.algebra
    tq = direct_sum([tri.t_part, tri.q_part], alg).rep
    # t (+) q embeds as the columns of the certificate p (+) t (+) q -> m after p
    incl = Morphism(tq, m, {v: f.select_columns(range(tri.p_part.dims[v], f.cols))
                            for v, f in tri.iso.maps.items()}, check=False)
    quotient, proj = cokernel(incl)
    return TorsionPart(tq, incl, quotient, proj)
