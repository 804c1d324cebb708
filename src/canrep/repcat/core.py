"""Representations of a quiver algebra and their category-level operations.

Hom spaces, kernels/cokernels/images, direct sums, simples, projectives,
injectives, radicals and minimal projective presentations.  Everything is
exact; every constructed value re-verifies its defining constraints.

``hom_basis`` and ``hom_dim`` share one commuting-square system
(``_hom_system``): the basis is its kernel, and the dimension is the number of
unknowns minus its rank, so counting builds no kernel vector and no Morphism.

Three pieces of Hom-space glue live here and nowhere else.  Finding a
morphism in a span is ``span_coordinates`` (flattened morphisms as columns,
one solve) followed by ``linear_combination`` (rebuild the sum from the
coefficients); ``solve_hom`` runs the two over a Hom basis, for f in Hom(X, Y)
with a given image under a linear map.  Certifying a decomposition is
``sum_onto``: the direct sum of the pieces, the map that is each piece's
morphism on its summand, and that map's inverse.  Every map into, out of and
between direct sums, across the package, is built from blocks: ``from_sum``
(X_1 (+) ... (+) X_n -> Y, one horizontal stack per vertex) and
``block_diagonal`` (f_1 (+) ... (+) f_n).
No biproduct morphisms exist: a sum keeps only its layout, decided once in
``direct_sum`` (``DirectSum.offsets``), and an injection or a projection is a
block map with identity and zero blocks.

Sub-representations, images and quotients are each read off one reduced form.
``_subrep`` turns per-vertex column bases into a sub-representation and its
inclusion (one solve per arrow, with the arrow-stability check) for
``kernel``, ``image`` and ``radical``; ``image`` takes its basis (the pivot
columns) and its epi (the top rows) from one rref of f_v.  ``_unit_complement``
eliminates [f_v | I] once, back-substituting the right block only: its pivots
past f_v give the unit vectors e_C completing the column space
(``projective_cover``'s generators), and its reduced right block is
[B | e_C]^-1, whose last rows are ``cokernel``'s projection.  ``pushout`` and
the right omega-approximation's quotient cover read their maps off that
projection and e_C (``_cokernel``).

A module is an immutable value: ``dims`` and ``arrows`` are read-only
mappings of immutable matrices, and ``algebra``, ``dims`` and ``arrows`` cannot
be rebound.  So ``projective_at`` and ``injective_at`` build each P(v) and I(v)
once per algebra, keep it in ``algebra.module_cache`` and return the same
object on every later call.

Each module has one slot of derived data (``_derived_slot``), made on first
read.  It keeps:

- the minimal projective presentation, built once by
  ``minimal_projective_presentation``.  Its P1 is built on first read, so only
  callers that need the second step of the resolution (the transpose) pay for
  it;
- End(m)'s basis as the kernel columns of its commuting-square system, so
  ``hom_basis(m, m)`` solves once and ``hom_dim(m, m)`` counts them.  Each
  ``hom_basis`` call still builds fresh Morphisms from the columns;
- the splitter's one kept decision (``repcat.decomp``): the split found in
  its End(m) basis walk, which draws nothing, as the pieces and their
  inclusions' per-vertex matrices, or no pieces for an exact "local" verdict,
  whose later use replays the random draws its first computation made;
- the exact "brick" verdict of ``repcat.decomp``, replayed the same way.

Apart from the presentation, which refers back to the module, the slot holds
no Morphism and nothing that refers back to m: its own matrices, field
elements, verdicts, and the split's pieces, which are modules of their own.
A module that was never presented is freed by reference counting alone, and a
split one frees its pieces with it unless they are still referenced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

from ..errors import AlgebraError, DimensionMismatch
from ..exactla import Matrix
from ..exactla.matrix import _back_substitute
from ..quiver_algebra import QuiverAlgebra


class Representation:
    """Per-vertex dimensions plus one matrix per arrow (target x source).

    Immutable: ``dims`` and ``arrows`` are read-only mappings, and assigning
    ``algebra``, ``dims`` or ``arrows`` raises AttributeError.
    """

    _derived = None     # the _Derived slot, made on first read by _derived_slot

    def __init__(self, algebra: QuiverAlgebra, dims: dict, arrow_matrices: dict,
                 check: bool = True):
        dims = {v: int(dims.get(v, 0)) for v in algebra.vertices}
        if any(d < 0 for d in dims.values()):
            raise DimensionMismatch("negative dimension")
        arrows = {}
        for a in algebra.arrows:
            mat = arrow_matrices.get(a.label)
            if mat is None:
                mat = Matrix.zeros(algebra.field, dims[a.target], dims[a.source])
            if mat.rows != dims[a.target] or mat.cols != dims[a.source]:
                raise DimensionMismatch(
                    f"arrow {a.label}: expected {dims[a.target]}x{dims[a.source]}")
            arrows[a.label] = mat
        self.__dict__.update(algebra=algebra, dims=MappingProxyType(dims),
                             arrows=MappingProxyType(arrows))
        if check:
            self.verify_relations()

    def __setattr__(self, name, value):
        if name in ("algebra", "dims", "arrows"):
            raise AttributeError(f"a Representation's {name} cannot be changed")
        object.__setattr__(self, name, value)

    @property
    def field(self):
        return self.algebra.field

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def eval_path(self, path, at_vertex=None) -> Matrix:
        """Composite matrix of a path (traversal order); empty path needs a vertex."""
        if not path:
            if at_vertex is None:
                raise AlgebraError("empty path needs an explicit vertex")
            return Matrix.identity(self.field, self.dims[at_vertex])
        out = self.arrows[path[0]]
        for lbl in path[1:]:
            out = self.arrows[lbl] * out
        return out

    def verify_relations(self):
        for rel in self.algebra.relations:
            src, tgt = self.algebra.path_endpoints(rel.terms[0][1])
            acc = Matrix.zeros(self.field, self.dims[tgt], self.dims[src])
            for coeff, path in rel.terms:
                acc = acc + self.eval_path(path, src).scale(coeff)
            if not acc.is_zero():
                raise AlgebraError("representation violates a relation")

    def dims_tuple(self):
        return tuple(self.dims[v] for v in self.algebra.vertices)

    def __repr__(self):
        body = ", ".join(f"{v}:{self.dims[v]}" for v in self.algebra.vertices)
        return f"Rep({body})"


class _Derived:
    """Data derived from one module (see the module docstring): its
    presentation, End's kernel columns, the exact brick verdict, and the
    splitter's kept decision as [(piece, {vertex: inclusion matrix})], [] for
    an exact "local" verdict; each None until computed."""

    __slots__ = ("presentation", "end", "brick", "split")

    def __init__(self):
        self.presentation = self.end = self.brick = self.split = None


def _derived_slot(m: Representation) -> _Derived:
    """m's derived-data slot, made on first read."""
    kept = m._derived
    if kept is None:
        kept = m._derived = _Derived()
    return kept


def zero_representation(algebra) -> Representation:
    return Representation(algebra, {}, {}, check=False)


class Morphism:
    """A per-vertex matrix tuple with exact commuting squares."""

    def __init__(self, source: Representation, target: Representation, maps: dict,
                 check: bool = True):
        if not source.algebra.same_as(target.algebra):
            raise AlgebraError("morphism endpoints live over different algebras")
        self.source = source
        self.target = target
        self.maps = {}
        for v in source.algebra.vertices:
            mat = maps.get(v)
            if mat is None:
                mat = Matrix.zeros(source.field, target.dims[v], source.dims[v])
            if mat.rows != target.dims[v] or mat.cols != source.dims[v]:
                raise DimensionMismatch(f"component at {v} has wrong shape")
            self.maps[v] = mat
        if check:
            self.verify()

    def verify(self):
        for a in self.source.algebra.arrows:
            left = self.maps[a.target] * self.source.arrows[a.label]
            right = self.target.arrows[a.label] * self.maps[a.source]
            if left != right:
                raise AlgebraError(f"square at arrow {a.label} does not commute")

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, {}, check=False)

    @classmethod
    def identity(cls, rep):
        maps = {v: Matrix.identity(rep.field, rep.dims[v]) for v in rep.algebra.vertices}
        return cls(rep, rep, maps, check=False)

    def after(self, other: "Morphism") -> "Morphism":
        """self composed after other (self o other)."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise DimensionMismatch("composition mismatch")
        maps = {v: self.maps[v] * other.maps[v] for v in self.maps}
        return Morphism(other.source, self.target, maps, check=False)

    def __add__(self, other):
        maps = {v: self.maps[v] + other.maps[v] for v in self.maps}
        return Morphism(self.source, self.target, maps, check=False)

    def __sub__(self, other):
        maps = {v: self.maps[v] - other.maps[v] for v in self.maps}
        return Morphism(self.source, self.target, maps, check=False)

    def scale(self, s):
        return Morphism(self.source, self.target,
                        {v: m.scale(s) for v, m in self.maps.items()}, check=False)

    def __eq__(self, other):
        return (isinstance(other, Morphism)
                and self.source.dims == other.source.dims
                and self.target.dims == other.target.dims
                and self.maps == other.maps)

    def __hash__(self):
        return hash(tuple(sorted((v, m) for v, m in self.maps.items())))

    def is_zero(self):
        return all(m.is_zero() for m in self.maps.values())

    def is_injective(self):
        return all(m.is_injective() for m in self.maps.values())

    def is_surjective(self):
        return all(m.is_surjective() for m in self.maps.values())

    def inverse(self) -> "Morphism | None":
        invs = {}
        for v, m in self.maps.items():
            mi = m.inverse()
            if mi is None:
                return None
            invs[v] = mi
        return Morphism(self.target, self.source, invs, check=False)

    def flatten(self):
        """Concatenated row-major entries in algebra vertex order."""
        out = []
        for v in self.source.algebra.vertices:
            out.extend(self.maps[v].entries_flat())
        return out

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def morphism_from_flat(source, target, flat) -> Morphism:
    maps = {}
    pos = 0
    F = source.field
    for v in source.algebra.vertices:
        r, c = target.dims[v], source.dims[v]
        maps[v] = Matrix._make(F, r, c, [flat[pos + i * c: pos + (i + 1) * c]
                                         for i in range(r)])
        pos += r * c
    return Morphism(source, target, maps, check=False)


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------

def _hom_system(m: Representation, n: Representation) -> Matrix:
    """The commuting-square system of Hom(m, n): one row per arrow a and entry
    (i, j) of an n_t x m_s matrix, f_t * m_a - n_a * f_s = 0, over the unknowns
    of the flat morphism (``Morphism.flatten`` order)."""
    if not m.algebra.same_as(n.algebra):
        raise AlgebraError("hom between representations over different algebras")
    alg, F = m.algebra, m.field
    offsets = {}
    pos = 0
    for v in alg.vertices:
        offsets[v] = pos
        pos += n.dims[v] * m.dims[v]
    total = pos
    rows = []
    zero, neg = F.zero, F.neg
    # The quiver is acyclic, so no arrow is a loop: each cell of a row is written once.
    for a in alg.arrows:
        ma, na = m.arrows[a.label].data, n.arrows[a.label].data
        base_t, dt = offsets[a.target], m.dims[a.target]
        base_s, ds = offsets[a.source], m.dims[a.source]
        for i in range(n.dims[a.target]):
            for j in range(ds):
                row = [zero] * total
                # (f_t * ma)[i, j]
                for k in range(dt):
                    if ma[k][j] != zero:
                        row[base_t + i * dt + k] = ma[k][j]
                # -(na * f_s)[i, j]
                for k in range(n.dims[a.source]):
                    if na[i][k] != zero:
                        row[base_s + k * ds + j] = neg(na[i][k])
                rows.append(row)
    if not rows:
        return Matrix.zeros(F, 0, total)
    return Matrix._make(F, len(rows), total, rows)


def _kernel_columns(m: Representation, n: Representation) -> list:
    return list(zip(*_hom_system(m, n).kernel_basis().data))


def hom_basis(m: Representation, n: Representation) -> list[Morphism]:
    """Basis of Hom(m, n): the kernel of the commuting-square system.  For
    End(m) (n is m) the kernel columns are kept on m and solved once."""
    if m is n:
        kept = _derived_slot(m)
        if kept.end is None:
            kept.end = _kernel_columns(m, m)
        cols = kept.end
    else:
        cols = _kernel_columns(m, n)
    return [morphism_from_flat(m, n, col) for col in cols]


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n) = unknowns - rank of the commuting-square system; no kernel
    vector and no Morphism is built.  A kept End(m) basis is counted instead."""
    if m is n:
        end = _derived_slot(m).end
        if end is not None:
            return len(end)
    system = _hom_system(m, n)
    return system.cols - system.rank()


def span_coordinates(field, cols, target):
    """Coefficients c with sum_i c[i] * cols[i] == target, or None if target is
    outside the span; cols and target are flat vectors of one length."""
    if not cols:
        return [] if all(x == field.zero for x in target) else None
    n = len(target)
    system = Matrix._make(field, n, len(cols), zip(*cols))
    sol = system.solve(Matrix._make(field, n, 1, [(x,) for x in target]))
    return None if sol is None else list(sol.col(0))


def linear_combination(source, target, basis, coeffs) -> Morphism:
    """sum_i coeffs[i] * basis[i] as a morphism source -> target (zero when empty);
    extra coefficients past the end of basis are ignored."""
    zero = source.field.zero
    f = Morphism.zero(source, target)
    for c, b in zip(coeffs, basis):
        if c != zero:
            f = f + b.scale(c)
    return f


def solve_hom(source, target, image, rhs, extra=()) -> Morphism | None:
    """f in Hom(source, target) with image(f) == rhs (image: a linear map from
    morphisms to flat vectors), or None.  One solve over the images of the
    ``hom_basis`` elements, then the flat columns extra, which may absorb part
    of rhs: their coefficients are dropped."""
    basis = hom_basis(source, target)
    coeffs = span_coordinates(source.field, [image(b) for b in basis] + list(extra), rhs)
    return None if coeffs is None else linear_combination(source, target, basis, coeffs)


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------

@dataclass
class DirectSum:
    """X_1 (+) ... (+) X_n laid out block by block: ``offsets[i][v]`` is where
    summand i starts inside the v-component of ``rep``, computed once by
    ``direct_sum``.  A sum keeps no biproduct morphisms: maps into, out of and
    between sums are built from blocks (``from_sum``, ``block_diagonal``)."""

    rep: Representation
    offsets: list


def direct_sum(parts: list[Representation], algebra=None) -> DirectSum:
    """X_1 (+) ... (+) X_n: the block-diagonal sum of parts, with its layout."""
    if not parts:
        if algebra is None:
            raise AlgebraError("empty direct sum needs an explicit algebra")
        return DirectSum(zero_representation(algebra), [])
    alg = parts[0].algebra
    F = parts[0].field
    offsets = []
    acc = dict.fromkeys(alg.vertices, 0)
    for p in parts:
        offsets.append(dict(acc))
        for v in alg.vertices:
            acc[v] += p.dims[v]
    arrows = {a.label: Matrix.block_diag(F, [p.arrows[a.label] for p in parts])
              for a in alg.arrows}
    return DirectSum(Representation(alg, acc, arrows, check=False), offsets)


def from_sum(source: Representation, target: Representation, parts: list) -> Morphism:
    """The map X_1 (+) ... (+) X_n = source -> target that is parts[i]: X_i -> target
    on the i-th summand: one horizontal stack per vertex."""
    if not parts:
        return Morphism.zero(source, target)
    maps = {v: Matrix._make(source.field, target.dims[v], sum(f.source.dims[v] for f in parts),
                            [chain.from_iterable(rows)
                             for rows in zip(*(f.maps[v].data for f in parts))])
            for v in source.algebra.vertices}
    return Morphism(source, target, maps, check=False)


def block_diagonal(source: Representation, target: Representation, parts: list) -> Morphism:
    """The map f_1 (+) ... (+) f_n: source -> target for parts[i] = f_i: X_i -> Y_i, with
    source = X_1 (+) ... (+) X_n and target = Y_1 (+) ... (+) Y_n."""
    F = source.field
    return Morphism(source, target,
                    {v: Matrix.block_diag(F, [f.maps[v] for f in parts])
                     for v in source.algebra.vertices}, check=False)


def sum_onto(m: Representation, parts: list[Morphism]):
    """(sum, iso, inverse) for morphisms parts[i]: X_i -> m.

    sum is X_1 (+) ... (+) X_n, iso: sum -> m is parts[i] on the i-th summand,
    and inverse is its inverse, or None when iso is not invertible.
    """
    total = direct_sum([f.source for f in parts], m.algebra).rep
    iso = from_sum(total, m, parts)
    return total, iso, iso.inverse()


# ---------------------------------------------------------------------------
# kernels, cokernels, images
# ---------------------------------------------------------------------------

def _subrep(m: Representation, bases: dict, what: str):
    """(sub-representation, inclusion) of m spanned by the columns of bases[v]
    at each vertex v; what names the caller in the arrow-stability check."""
    alg = m.algebra
    arrows = {}
    for a in alg.arrows:
        sol = bases[a.target].solve(m.arrows[a.label] * bases[a.source])
        if sol is None:
            raise AlgebraError(f"{what} is not arrow-stable (internal error)")
        arrows[a.label] = sol
    sub = Representation(alg, {v: bases[v].cols for v in alg.vertices}, arrows, check=False)
    return sub, Morphism(sub, m, bases, check=False)


def _unit_complement(f: Matrix):
    """(C, projection) from the reduced form of [f | I] = [E f | E], with only
    its right block back-substituted: C lists, ascending, the unit vectors e_C
    past f's pivots that complete f's column space, and E = [B | e_C]^-1 (B:
    f's pivot columns), so E's last len(C) rows project onto span(e_C),
    killing the column space."""
    n, F = f.rows, f.field
    rows, pivots = f.hstack(Matrix.identity(F, n))._echelon()
    _back_substitute(F, rows, pivots, list(range(f.cols, f.cols + n)))
    comp = [j - f.cols for j in pivots if j >= f.cols]
    return comp, Matrix._make(F, len(comp), n, [row[f.cols:] for row in rows[n - len(comp):]])


def kernel(f: Morphism):
    """(sub-representation, inclusion) of ker f."""
    return _subrep(f.source, {v: f.maps[v].kernel_basis() for v in f.source.algebra.vertices},
                   "kernel")


def image(f: Morphism):
    """(sub-representation of target, inclusion, epi from source)."""
    alg = f.source.algebra
    reduced = {v: f.maps[v].rref() for v in alg.vertices}
    img, incl = _subrep(f.target, {v: f.maps[v].select_columns(piv)
                                   for v, (_, piv) in reduced.items()}, "image")
    epis = {v: r.submatrix(range(len(piv)), range(r.cols)) for v, (r, piv) in reduced.items()}
    return img, incl, Morphism(f.source, img, epis, check=False)


def cokernel(f: Morphism):
    """(quotient representation, projection) of coker f, on the basis e_C."""
    cok, proj, _ = _cokernel(f)
    return cok, proj


def _cokernel(f: Morphism):
    """(quotient, projection, C): ``cokernel``, and per vertex the indices C of
    the unit vectors e_C of f's target whose images are the quotient's basis."""
    alg = f.target.algebra
    comps, projs = {}, {}
    for v in alg.vertices:
        comps[v], projs[v] = _unit_complement(f.maps[v])
    arrows = {a.label: projs[a.target] * f.target.arrows[a.label].select_columns(comps[a.source])
              for a in alg.arrows}
    cok = Representation(alg, {v: projs[v].rows for v in alg.vertices}, arrows, check=False)
    return cok, Morphism(f.target, cok, projs, check=False), comps


def factor_through_surjection(p: Morphism, f: Morphism) -> Morphism | None:
    """g with g o p = f, for p a split-free surjection (vertexwise solve)."""
    maps = {}
    for v in p.source.algebra.vertices:
        sol = p.maps[v].transpose().solve(f.maps[v].transpose())
        if sol is None:
            return None
        maps[v] = sol.transpose()
    g = Morphism(p.target, f.target, maps, check=False)
    return g if g.after(p) == f else None


def factor_through_injection(i: Morphism, f: Morphism) -> Morphism | None:
    """g with i o g = f, when f lands inside the image of the inclusion i."""
    maps = {}
    for v in i.source.algebra.vertices:
        sol = i.maps[v].solve(f.maps[v])
        if sol is None:
            return None
        maps[v] = sol
    g = Morphism(f.source, i.source, maps, check=False)
    return g if i.after(g) == f else None


# ---------------------------------------------------------------------------
# simples, projectives, injectives
# ---------------------------------------------------------------------------

def simple_at(algebra, v) -> Representation:
    if v not in algebra.vertex_index:
        raise AlgebraError(f"no vertex {v}")
    return Representation(algebra, {v: 1}, {}, check=False)


def projective_at(algebra, w) -> Representation:
    """P(w): path spaces from w, arrows act by path extension.

    Built once per algebra and vertex; every call returns the same object.
    """
    key = ("projective", w)
    cached = algebra.module_cache.get(key)
    if cached is None:
        cached = algebra.module_cache[key] = _build_projective(algebra, w)
    return cached


def _build_projective(algebra, w) -> Representation:
    if w not in algebra.vertex_index:
        raise AlgebraError(f"no vertex {w}")
    F = algebra.field
    dims = {v: algebra.path_space_dim(w, v) for v in algebra.vertices}
    arrows = {}
    for a in algebra.arrows:
        plist, basis, _ = algebra.path_space(w, a.source)
        cols = []
        for bidx in basis:
            path = plist[bidx]
            cols.append(algebra.reduce_path(w, a.target, path + (a.label,)))
        if cols:
            mat = Matrix(F, dims[a.target], len(cols), [list(r) for r in zip(*cols)])
        else:
            mat = Matrix.zeros(F, dims[a.target], 0)
        arrows[a.label] = mat
    return Representation(algebra, dims, arrows)


def injective_at(algebra, v) -> Representation:
    """I(v): dual of the opposite projective at v.

    Built once per algebra and vertex; every call returns the same object.
    """
    key = ("injective", v)
    cached = algebra.module_cache.get(key)
    if cached is None:
        cached = algebra.module_cache[key] = dualize(
            projective_at(algebra.opposite(), v), algebra)
    return cached


def dualize(rep: Representation, into_algebra) -> Representation:
    """Vector-space dual: a module over the opposite algebra."""
    if not rep.algebra.opposite().same_as(into_algebra):
        raise AlgebraError("dualize target must be the opposite algebra")
    arrows = {}
    for a in into_algebra.arrows:
        arrows[a.label] = rep.arrows[a.label].transpose()
    return Representation(into_algebra, rep.dims, arrows)


# ---------------------------------------------------------------------------
# radical, top, projective presentations
# ---------------------------------------------------------------------------

def radical(m: Representation):
    """(rad m, inclusion): the sum of all arrow images."""
    alg, F = m.algebra, m.field
    bases = {}
    for v in alg.vertices:
        stacked = None
        for a in alg.arrows:
            if a.target != v:
                continue
            mat = m.arrows[a.label]
            stacked = mat if stacked is None else stacked.hstack(mat)
        if stacked is None:
            stacked = Matrix.zeros(F, m.dims[v], 0)
        bases[v] = stacked.column_space_basis()
    return _subrep(m, bases, "radical")


def top(m: Representation):
    """(m / rad m, projection)."""
    _, incl = radical(m)
    return cokernel(incl)


@dataclass
class ProjSum(DirectSum):
    """P(v_1) (+) ... (+) P(v_n), a sum of indecomposable projectives, with
    summand_vertices[i] = v_i."""

    summand_vertices: list

    def generator_coordinate(self, i: int) -> int:
        v = self.summand_vertices[i]
        # the trivial path is the first basis element of the (v, v) path space
        return self.offsets[i][v]


def projective_sum(algebra, vertices) -> ProjSum:
    ds = direct_sum([projective_at(algebra, v) for v in vertices], algebra)
    return ProjSum(ds.rep, ds.offsets, list(vertices))


def morphism_from_projective(algebra, w, target: Representation, gen_vector) -> Morphism:
    """P(w) -> target sending the trivial-path generator to gen_vector."""
    F = algebra.field
    proj = projective_at(algebra, w)
    maps = {}
    for v in algebra.vertices:
        plist, basis, _ = algebra.path_space(w, v)
        cols = []
        for bidx in basis:
            comp = target.eval_path(plist[bidx], w)
            col = comp * gen_vector
            cols.append([col.data[i][0] for i in range(col.rows)])
        if cols:
            maps[v] = Matrix._make(F, target.dims[v], len(cols), zip(*cols))
        else:
            maps[v] = Matrix.zeros(F, target.dims[v], 0)
    return Morphism(proj, target, maps, check=False)


def morphism_from_projective_sum(ps: ProjSum, target: Representation,
                                 gen_vectors) -> Morphism:
    """Stack of generator-image morphisms out of each summand."""
    comps = [morphism_from_projective(ps.rep.algebra, v, target, g)
             for v, g in zip(ps.summand_vertices, gen_vectors)]
    return from_sum(ps.rep, target, comps)


def projective_cover(m: Representation):
    """(ProjSum P0, cover morphism P0 -> m); kernel lies in rad P0."""
    alg, F = m.algebra, m.field
    _, incl = radical(m)
    verts, gens = [], []
    for v in alg.vertices:
        n = m.dims[v]
        if n == 0:      # no generators here; skipping spares an rref of an empty matrix
            continue
        for idx in _unit_complement(incl.maps[v])[0]:
            verts.append(v)
            gens.append(Matrix.column(F, [F.one if i == idx else F.zero for i in range(n)]))
    ps = projective_sum(alg, verts)
    cover = morphism_from_projective_sum(ps, m, gens)
    if not cover.is_surjective():
        raise AlgebraError("projective cover is not surjective (internal error)")
    return ps, cover


@dataclass
class Presentation:
    """Minimal projective presentation P1 -> P0 -> m -> 0 with its syzygy.

    ``minimal_projective_presentation`` builds one per module and keeps it on
    the module.  P1 is built on first read: ``p1``, ``p1_cover`` and ``d``
    come from one ``projective_cover(omega)``, which only the transpose needs.
    """

    module: Representation
    p0: ProjSum
    cover: Morphism          # p0.rep -> module
    omega: Representation    # kernel of the cover
    omega_incl: Morphism     # omega -> p0.rep

    @cached_property
    def _omega_cover(self):
        return projective_cover(self.omega)

    @cached_property
    def p1(self) -> ProjSum:
        return self._omega_cover[0]

    @cached_property
    def p1_cover(self) -> Morphism:      # p1.rep -> omega
        return self._omega_cover[1]

    @cached_property
    def d(self) -> Morphism:             # p1.rep -> p0.rep
        return self.omega_incl.after(self.p1_cover)


def minimal_projective_presentation(m: Representation) -> Presentation:
    """The presentation of m, built on the first call and kept in m's
    derived-data slot."""
    kept = _derived_slot(m)
    if kept.presentation is None:
        kept.presentation = _build_presentation(m)
    return kept.presentation


def _build_presentation(m: Representation) -> Presentation:
    p0, cover = projective_cover(m)
    omega, omega_incl = kernel(cover)
    # minimality certificate: the syzygy sits inside rad P0 (a column basis)
    _, rad_incl = radical(p0.rep)
    for v in m.algebra.vertices:
        stack = rad_incl.maps[v].hstack(omega_incl.maps[v])
        if stack.rank() != rad_incl.maps[v].cols:
            raise AlgebraError("projective cover not minimal (internal error)")
    return Presentation(m, p0, cover, omega, omega_incl)
