"""Quivers with relations, the canonical-algebra constructor, and K0 forms.

Vertices are strings; the canonical algebra on weights (p_1..p_t) uses
vertex "0" (source), arm vertices "i.j", and sink "c".  Arrows are labeled
"xi.j" along arm i ("x1", "x2" for the two Kronecker arrows when t = 0).
Paths are tuples of arrow labels in traversal order (first arrow first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import AlgebraError, ParseError
from .exactla import Matrix, RationalField, field_from_spec

_QQ = RationalField()


@dataclass(frozen=True)
class Arrow:
    label: str
    source: str
    target: str


@dataclass(frozen=True)
class Relation:
    """Formal linear combination of parallel paths, sum = 0 in the algebra."""

    terms: tuple  # ((coeff, path), ...) with path a tuple of arrow labels


class QuiverAlgebra:
    """Path algebra of a finite acyclic quiver modulo parallel-path relations."""

    def __init__(self, field, vertices, arrows, relations=()):
        self.field = field
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        self.relations = tuple(relations)
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraError("duplicate vertex labels")
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise AlgebraError("duplicate arrow labels")
        self.arrow_by_label = {a.label: a for a in self.arrows}
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        for a in self.arrows:
            if a.source not in self.vertex_index or a.target not in self.vertex_index:
                raise AlgebraError(f"arrow {a.label} uses undeclared vertices")
        self._check_acyclic()
        for rel in self.relations:
            self._check_relation(rel)
        self._paths_cache: dict = {}
        self._space_cache: dict = {}
        self._cartan = None
        self._cartan_inv = None
        self._opposite = None
        # Modules that depend on this algebra alone, built once and shared:
        # projectives, injectives, tube mouths and uniserial towers.  Keys are
        # tuples led by a kind tag; see repcat.core and trisection.
        self.module_cache: dict = {}

    # -- structural checks ----------------------------------------------------

    def _check_acyclic(self):
        out = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a.target)
        state = {v: 0 for v in self.vertices}

        def visit(v):
            state[v] = 1
            for w in out[v]:
                if state[w] == 1:
                    raise AlgebraError("quiver has an oriented cycle")
                if state[w] == 0:
                    visit(w)
            state[v] = 2

        for v in self.vertices:
            if state[v] == 0:
                visit(v)

    def path_endpoints(self, path):
        if not path:
            raise AlgebraError("empty path has no canonical endpoints here")
        first = self.arrow_by_label[path[0]]
        last = self.arrow_by_label[path[-1]]
        prev = first
        for lbl in path[1:]:
            a = self.arrow_by_label[lbl]
            if a.source != prev.target:
                raise AlgebraError(f"broken path {path}")
            prev = a
        return first.source, last.target

    def _check_relation(self, rel):
        if not rel.terms:
            raise AlgebraError("empty relation")
        endpoints = {self.path_endpoints(p) for _, p in rel.terms}
        if len(endpoints) != 1:
            raise AlgebraError("relation mixes non-parallel paths")
        if all(c == self.field.zero for c, _ in rel.terms):
            raise AlgebraError("zero relation")

    # -- path machinery ---------------------------------------------------------

    def paths(self, u, v):
        """All directed paths u -> v as tuples of arrow labels (sorted)."""
        key = (u, v)
        if key in self._paths_cache:
            return self._paths_cache[key]
        out_arrows = {}
        for a in self.arrows:
            out_arrows.setdefault(a.source, []).append(a)
        found = []

        def walk(w, acc):
            if w == v and acc:
                found.append(tuple(acc))
            for a in sorted(out_arrows.get(w, []), key=lambda a: a.label):
                acc.append(a.label)
                walk(a.target, acc)
                acc.pop()

        walk(u, [])
        result = ([()] if u == v else []) + found
        self._paths_cache[key] = result
        return result

    def path_space(self, u, v):
        """(paths, basis_positions, reduce) for e_v * A * e_u.

        reduce maps a path position to its coefficient vector over the basis
        positions, modulo the relation ideal.
        """
        key = (u, v)
        if key in self._space_cache:
            return self._space_cache[key]
        F = self.field
        plist = self.paths(u, v)
        index = {p: i for i, p in enumerate(plist)}
        rel_rows = []
        for rel in self.relations:
            rs, rt = self.path_endpoints(rel.terms[0][1])
            for pre in self.paths(u, rs):
                for post in self.paths(rt, v):
                    row = [F.zero] * len(plist)
                    for coeff, rp in rel.terms:
                        row[index[pre + rp + post]] = F.add(
                            row[index[pre + rp + post]], coeff)
                    rel_rows.append(row)
        if rel_rows:
            rmat, pivots = Matrix(F, len(rel_rows), len(plist), rel_rows).rref()
        else:
            rmat, pivots = None, ()
        pivset = set(pivots)
        basis = [i for i in range(len(plist)) if i not in pivset]
        basis_pos = {i: k for k, i in enumerate(basis)}
        reduce_map = {}
        for i in range(len(plist)):
            if i in basis_pos:
                vec = [F.zero] * len(basis)
                vec[basis_pos[i]] = F.one
            else:
                row = pivots.index(i)
                vec = [F.neg(rmat.data[row][j]) for j in basis]
            reduce_map[i] = tuple(vec)
        result = (plist, basis, reduce_map)
        self._space_cache[key] = result
        return result

    def path_space_dim(self, u, v) -> int:
        return len(self.path_space(u, v)[1])

    def reduce_path(self, u, v, path):
        """Coefficient vector of a path over the (u, v) path-space basis."""
        plist, _, red = self.path_space(u, v)
        return red[plist.index(tuple(path))]

    # -- K0 forms ----------------------------------------------------------------

    def cartan_matrix(self) -> Matrix:
        """Entry (i, j) = dim e_j A e_i, the path-space dimension v_i -> v_j."""
        if self._cartan is None:
            n = len(self.vertices)
            data = [[Fraction(self.path_space_dim(self.vertices[i], self.vertices[j]))
                     for j in range(n)] for i in range(n)]
            self._cartan = Matrix(_QQ, n, n, data)
        return self._cartan

    def _cartan_inverse_rows(self) -> tuple:
        """Rows of the inverse Cartan matrix as ints, computed once.

        The quiver is acyclic, so the Cartan matrix is unitriangular in a
        topological order of the vertices and its inverse is integral.
        """
        if self._cartan_inv is None:
            inv = self.cartan_matrix().inverse()
            if inv is None:
                raise AlgebraError("Cartan matrix is not invertible")
            self._cartan_inv = tuple(tuple(int(x) for x in row) for row in inv.data)
        return self._cartan_inv

    def dim_list(self, dims: dict) -> list:
        return [dims.get(v, 0) for v in self.vertices]

    def euler_form(self, d: dict, e: dict) -> int:
        """<d, e> = sum (-1)^i dim Ext^i for modules with these dim vectors."""
        el = self.dim_list(e)
        return sum(x * sum(map(mul, row, el))
                   for x, row in zip(self.dim_list(d), self._cartan_inverse_rows()) if x)

    def symmetrized_euler_kernel(self):
        """Primitive integer kernel vectors of the symmetrized Euler matrix."""
        n = len(self.vertices)
        arrows_count = {}
        for a in self.arrows:
            arrows_count[(a.source, a.target)] = arrows_count.get((a.source, a.target), 0) + 1
        e = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for (u, v), k in arrows_count.items():
            e[self.vertex_index[u]][self.vertex_index[v]] -= k
        em = Matrix(_QQ, n, n, e)
        sym = em + em.transpose()
        ker = sym.kernel_basis()
        vecs = []
        for j in range(ker.cols):
            col = [ker.data[i][j] for i in range(n)]
            denom = math.lcm(*(x.denominator for x in col))
            ints = [int(x * denom) for x in col]
            g = math.gcd(*ints)
            if g:
                ints = [x // g for x in ints]
            if sum(ints) < 0:
                ints = [-x for x in ints]
            vecs.append(ints)
        return vecs

    # -- opposite algebra ----------------------------------------------------------

    def opposite(self) -> "QuiverAlgebra":
        """Arrow-reversed algebra; opposite of the opposite is this object."""
        if self._opposite is None:
            arrows = [Arrow(a.label, a.target, a.source) for a in self.arrows]
            relations = [
                Relation(tuple((c, tuple(reversed(p))) for c, p in rel.terms))
                for rel in self.relations
            ]
            opp = QuiverAlgebra(self.field, self.vertices, arrows, relations)
            opp._opposite = self
            self._opposite = opp
        return self._opposite

    def same_as(self, other) -> bool:
        return self is other or (
            isinstance(other, QuiverAlgebra)
            and self.field == other.field
            and self.vertices == other.vertices
            and self.arrows == other.arrows
            and self.relations == other.relations
        )


SOURCE = "0"
SINK = "c"


def arm_vertex(i: int, j: int) -> str:
    return f"{i}.{j}"


class CanonicalAlgebra(QuiverAlgebra):
    """Canonical algebra on a weight sequence with parameters (l3..lt).

    t = 0 is the Kronecker quiver (two arrows "x1", "x2" from "0" to "c");
    for t >= 3 there are t - 2 relations tying the arm composites together:
    arm_i = arm_2 - l_i * arm_1.
    """

    def __init__(self, field, weights, params):
        weights = tuple(int(w) for w in weights)
        t = len(weights)
        if any(w < 2 for w in weights):
            raise AlgebraError("every weight must be >= 2")
        params = tuple(field.coerce(x) for x in params)
        if len(params) != max(t - 2, 0):
            raise AlgebraError(
                f"need {max(t - 2, 0)} parameters for {t} weights, got {len(params)}")
        forbidden = (field.zero, field.one)
        if any(x in forbidden for x in params):
            raise AlgebraError("parameters 0 and 1 are forbidden")
        if len(set(params)) != len(params):
            raise AlgebraError("parameters must be pairwise distinct")

        vertices = [SOURCE]
        arrows = []
        if t == 0:
            arrows = [Arrow("x1", SOURCE, SINK), Arrow("x2", SOURCE, SINK)]
        else:
            for i, p in enumerate(weights, start=1):
                prev = SOURCE
                for j in range(1, p):
                    v = arm_vertex(i, j)
                    vertices.append(v)
                    arrows.append(Arrow(f"x{i}.{j}", prev, v))
                    prev = v
                arrows.append(Arrow(f"x{i}.{p}", prev, SINK))
        vertices.append(SINK)

        self.weights = weights
        self.params = params
        relations = []
        if t >= 3:
            one = field.one
            for i in range(3, t + 1):
                lam = params[i - 3]
                relations.append(Relation((
                    (one, self._composite_labels(weights, i)),
                    (field.neg(one), self._composite_labels(weights, 2)),
                    (lam, self._composite_labels(weights, 1)),
                )))
        super().__init__(field, vertices, arrows, relations)

    @staticmethod
    def _composite_labels(weights, i):
        if not weights:
            return (f"x{i}",)
        return tuple(f"x{i}.{j}" for j in range(1, weights[i - 1] + 1))

    # -- canonical structure -----------------------------------------------------

    @property
    def arm_count(self) -> int:
        return len(self.weights)

    def arm_vertices(self, i: int):
        return [arm_vertex(i, j) for j in range(1, self.weights[i - 1])]

    def arm_composite(self, i: int):
        """Traversal-order arrow labels of the i-th source-to-sink composite."""
        if self.arm_count == 0:
            if i not in (1, 2):
                raise AlgebraError("Kronecker has two composites")
            return (f"x{i}",)
        if not 1 <= i <= self.arm_count:
            raise AlgebraError(f"no arm {i}")
        return self._composite_labels(self.weights, i)

    def arm_point(self, i: int):
        """The point of P^1 where composite i vanishes: None (∞) for 1, 0 for 2,
        l_i for i >= 3.

        Where arm_1 is invertible, the relations arm_i = arm_2 - l_i*arm_1 make
        composite i equal arm_1*(x - l_i) with x = arm_1^{-1}*arm_2, so the
        arm-i tube sits at x = l_i.  On the Kronecker quiver x1 and x2 are
        composites 1 and 2.
        """
        self.arm_composite(i)  # refuses an index with no composite
        if i == 1:
            return None
        return self.field.zero if i == 2 else self.params[i - 3]

    def defect_form(self) -> "DefectForm":
        return DefectForm(self)

    def spec(self) -> dict:
        return {
            "field": self.field.spec(),
            "weights": list(self.weights),
            "params": [self.field.to_str(x) for x in self.params],
        }


class DefectForm:
    """Defect as a linear form on dimension vectors.

    The value is [M:S'] - [M:S], the simple injective minus the simple
    projective multiplicity.  Both simples are 1-dimensional over the split
    base built here, so it is dims["0"] - dims["c"].
    """

    def __init__(self, algebra: CanonicalAlgebra):
        self.algebra = algebra

    def __call__(self, dims: dict) -> int:
        return dims.get(SOURCE, 0) - dims.get(SINK, 0)


def canonical_algebra(field, weights, params) -> CanonicalAlgebra:
    """Build a canonical algebra, validating weights and parameters."""
    return CanonicalAlgebra(field, weights, params)


def algebra_from_spec(spec: dict) -> CanonicalAlgebra:
    """The canonical algebra of a spec; a malformed spec is a ParseError."""
    if not isinstance(spec, dict) or not isinstance(spec.get("field"), dict):
        raise ParseError("an algebra spec is a JSON object with a \"field\" object")
    field = field_from_spec(spec["field"])
    weights, params = spec.get("weights", []), spec.get("params", [])
    if not isinstance(weights, list) or not all(type(w) is int for w in weights):
        raise ParseError(f"weights must be a list of integers, got {weights!r}")
    if not isinstance(params, list) or not all(isinstance(x, str) for x in params):
        raise ParseError(f"params must be a list of strings, got {params!r}")
    return CanonicalAlgebra(field, weights, [field.parse(x) for x in params])
