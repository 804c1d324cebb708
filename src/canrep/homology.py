"""Ext^1 with explicit cocycles, extension realization, and the AR translate.

Ext^1(N, M) is computed once and for all relative to the minimal projective
presentation of N as coker(Hom(P0, M) -> Hom(Omega, M)); realizations,
connecting classes, pushforwards and pullbacks all use that identification,
so "the class of a sequence" is well-defined across the package.  A class
with cocycle Omega -> M is realized as the pushout of the presentation
sequence 0 -> Omega -> P0 -> N -> 0 along its cocycle, by ``pushout`` itself.
``ExtSpace.class_of_sequence`` is the public inverse of ``realize``: the class
of a given sequence, read through ``syzygy_map``.

``syzygy_map`` is the one comparison map Omega -> K of a map P0 -> N' and a
sequence K -> B -> N': the class of a sequence, the End(S) actions on Omega
in ``universal_extension`` and the left omega-approximation's Omega_u.

Hom(Omega, M) is the kernel of its commuting-square system, kept as flat
columns; only the chosen representatives become Morphisms.  Hom(P0, M) is
not solved: by Yoneda it is (+)_i M_{v_i}, so ``_p0_image_columns`` writes
the image cocycles directly, one product of path matrices of M with rows of
the syzygy inclusion per generator and vertex.  Only the span of that image
matters: the chosen quotient basis is the pivots of the Hom(Omega, M) basis
after it, class coordinates are the unique part of a solve over both, and a
class pushed along M -> X vanishes exactly when its cocycle lies in the image
of Hom(P0, X) (``kills_classes``).

``ext1_dim`` and ``ext2_dim`` count without building a basis or an
``ExtSpace``: 0 -> Hom(N, M) -> Hom(P0, M) -> Hom(Omega, M) -> Ext^1(N, M) -> 0
is exact, so dim Ext^1(N, M) = hom_dim(Omega, M) - sum_i dim M_{v_i} +
hom_dim(N, M), two ranks; Ext^2(N, M) = Ext^1(Omega, M).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlgebraError, DimensionMismatch
from .exactla import Matrix
from .repcat import (
    Morphism,
    Presentation,
    Representation,
    block_diagonal,
    cokernel,
    direct_sum,
    dualize,
    factor_through_injection,
    from_sum,
    hom_basis,
    hom_dim,
    is_isomorphic,
    kernel,
    minimal_projective_presentation,
    morphism_from_flat,
    morphism_from_projective_sum,
    projective_sum,
    solve_hom,
    span_coordinates,
    zero_representation,
)
from .repcat.core import _cokernel, _hom_system


@dataclass
class ShortExactSequence:
    """0 -> sub -> middle -> quotient -> 0 with exactness certificates."""

    sub: Representation
    middle: Representation
    quotient: Representation
    inclusion: Morphism
    projection: Morphism

    def verify(self):
        if not self.inclusion.is_injective():
            raise AlgebraError("inclusion is not injective")
        if not self.projection.is_surjective():
            raise AlgebraError("projection is not surjective")
        if not self.projection.after(self.inclusion).is_zero():
            raise AlgebraError("composite is not zero")
        for v in self.sub.algebra.vertices:
            if self.sub.dims[v] + self.quotient.dims[v] != self.middle.dims[v]:
                raise AlgebraError("dimensions are not additive; sequence not exact")
        return self


def split_sequence(m: Representation, n: Representation) -> ShortExactSequence:
    """0 -> m -> m (+) n -> n -> 0: the inclusion is id_m (+) (0 -> n), the
    projection is (0, id_n)."""
    total = direct_sum([m, n]).rep
    incl = block_diagonal(m, total, [Morphism.identity(m),
                                     Morphism.zero(zero_representation(m.algebra), n)])
    proj = from_sum(total, n, [Morphism.zero(m, n), Morphism.identity(n)])
    return ShortExactSequence(m, total, n, incl, proj).verify()


# ---------------------------------------------------------------------------
# Ext^1 spaces
# ---------------------------------------------------------------------------

@dataclass
class ExtClass:
    """An element of Ext^1(N, M): a cocycle Omega(N) -> M plus coordinates."""

    space: "ExtSpace"
    cocycle: Morphism
    coords: tuple

    def is_zero(self) -> bool:
        F = self.space.field
        return all(c == F.zero for c in self.coords)

    def realize(self) -> ShortExactSequence:
        return self.space.realize(self)


class ExtSpace:
    """Ext^1(N, M) = coker(Hom(P0, M) -> Hom(Omega, M)), with a chosen basis."""

    def __init__(self, n: Representation, m: Representation):
        if not n.algebra.same_as(m.algebra):
            raise AlgebraError("Ext between representations over different algebras")
        self.source = n
        self.target = m
        self.field = n.field
        self.pres = minimal_projective_presentation(n)
        ker = _hom_system(self.pres.omega, m).kernel_basis()
        basis_cols = [ker.col(j) for j in range(ker.cols)]
        img_cols = _p0_image_columns(self.pres, m) if basis_cols else []
        all_cols = img_cols + basis_cols
        if basis_cols:
            _, pivots = Matrix._make(self.field, ker.rows, len(all_cols),
                                     zip(*all_cols))._echelon()
        else:
            pivots = ()
        self._n_img = len(img_cols)
        chosen = [basis_cols[p - len(img_cols)] for p in pivots if p >= len(img_cols)]
        self._reps = [morphism_from_flat(self.pres.omega, m, col) for col in chosen]
        # a cocycle's coordinates over the image columns, then the chosen basis
        self._coord_cols = img_cols + chosen

    @property
    def dim(self) -> int:
        return len(self._reps)

    def basis(self) -> list[ExtClass]:
        F = self.field
        return [ExtClass(self, rep, tuple(F.one if i == k else F.zero for i in range(self.dim)))
                for k, rep in enumerate(self._reps)]

    def class_coords(self, cocycle: Morphism) -> tuple:
        """Coordinates of a cocycle's class over the chosen quotient basis."""
        coords = span_coordinates(self.field, self._coord_cols, cocycle.flatten())
        if coords is None:
            raise AlgebraError("cocycle outside Hom(Omega, M) span (internal error)")
        return tuple(coords[self._n_img:])

    def class_of_cocycle(self, cocycle: Morphism) -> ExtClass:
        return ExtClass(self, cocycle, self.class_coords(cocycle))

    def zero_class(self) -> ExtClass:
        F = self.field
        return ExtClass(self, Morphism.zero(self.pres.omega, self.target),
                        tuple(F.zero for _ in range(self.dim)))

    # -- realization ---------------------------------------------------------

    def realize(self, cls: ExtClass) -> ShortExactSequence:
        return realize_from_cocycle(self.pres, self.target, cls.cocycle)

    def class_of_sequence(self, ses: ShortExactSequence) -> ExtClass:
        """Connecting class of 0 -> M -> B -> N -> 0 under this identification."""
        return self.class_of_cocycle(
            syzygy_map(self.pres, self.pres.cover, ses.projection, ses.inclusion))


def syzygy_map(pres: Presentation, f: Morphism, projection: Morphism,
               inclusion: Morphism) -> Morphism:
    """Omega -> K for f: P0 -> N' and K -> B -> N' exact (inclusion, projection):
    f lifted through the projection (P0 is projective), restricted to the
    syzygy Omega of pres and factored through the inclusion."""
    lift = solve_hom(pres.p0.rep, projection.source,
                     lambda h: projection.after(h).flatten(), f.flatten())
    if lift is None:
        raise AlgebraError("projective lifting failed (internal error)")
    restricted = factor_through_injection(inclusion, lift.after(pres.omega_incl))
    if restricted is None:
        raise AlgebraError("syzygy map construction failed (not exact?)")
    return restricted


def _p0_image_columns(pres: Presentation, m: Representation) -> list:
    """The image of Hom(P0, M) -> Hom(Omega, M) as flat cocycles (zero ones left out).

    Hom(P0, M) = (+)_i M_{v_i} (Yoneda): generator i at v_i and a unit vector
    e_q of M_{v_i} give the map sending path k of summand i to M(path_k) e_q.
    Its restriction to Omega has w-component sum_k M(path_k) e_q (x) row
    (offsets[i][w] + k) of omega_incl_w.  For all q at once that is one product
    G * R per generator and vertex, with G[(a, q), k] = M(path_k)[a][q] (built
    once per vertex pair) and R those rows of omega_incl_w; row (a, q) of the
    product is row a of cocycle q's w-component.
    """
    F, omega = m.field, pres.omega
    zero = F.zero
    gathered = {}    # (v, w) -> G
    cols = []
    for i, v in enumerate(pres.p0.summand_vertices):
        dv = m.dims[v]
        if not dv:
            continue
        blocks = [[] for _ in range(dv)]
        for w in m.algebra.vertices:
            dw, ow = m.dims[w], omega.dims[w]
            plist, basis, _ = m.algebra.path_space(v, w)
            if not (dw and ow and basis):
                for block in blocks:
                    block.extend([zero] * (dw * ow))
                continue
            g = gathered.get((v, w))
            if g is None:
                mats = [m.eval_path(plist[b], v).data for b in basis]
                g = gathered[(v, w)] = Matrix._make(
                    F, dw * dv, len(basis),
                    [[mat[a][q] for mat in mats] for a in range(dw) for q in range(dv)])
            off = pres.p0.offsets[i][w]
            rows = pres.omega_incl.maps[w].submatrix(range(off, off + len(basis)), range(ow))
            prod = (g * rows).data
            for q, block in enumerate(blocks):
                for a in range(dw):
                    block.extend(prod[a * dv + q])
        cols.extend(block for block in blocks if any(x != zero for x in block))
    return cols


def ext1_basis(n: Representation, m: Representation) -> list[ExtClass]:
    return ExtSpace(n, m).basis()


def ext1_dim(n: Representation, m: Representation) -> int:
    """dim Ext^1(N, M) from 0 -> Hom(N, M) -> Hom(P0, M) -> Hom(Omega, M) ->
    Ext^1(N, M) -> 0, with dim Hom(P0, M) = sum_i dim M_{v_i}: two ranks, no
    basis and no ExtSpace."""
    if not n.algebra.same_as(m.algebra):
        raise AlgebraError("Ext between representations over different algebras")
    pres = minimal_projective_presentation(n)
    h_omega = hom_dim(pres.omega, m)
    if not h_omega:         # Ext^1 is a quotient of Hom(Omega, M)
        return 0
    return h_omega - sum(m.dims[v] for v in pres.p0.summand_vertices) + hom_dim(n, m)


def ext2_dim(n: Representation, m: Representation) -> int:
    """dim Ext^2(N, M) = dim Ext^1(Omega, M), shifted along the first syzygy."""
    pres = minimal_projective_presentation(n)
    if pres.omega.is_zero():
        return 0
    return ext1_dim(pres.omega, m)


def euler_ext_check(n: Representation, m: Representation) -> bool:
    alg = n.algebra
    total = hom_dim(n, m) - ext1_dim(n, m) + ext2_dim(n, m)
    return total == alg.euler_form(n.dims, m.dims)


def realize_from_cocycle(pres: Presentation, m: Representation,
                         cocycle: Morphism) -> ShortExactSequence:
    """The extension 0 -> m -> X -> N -> 0 with the given cocycle Omega -> m: the
    pushout of the presentation sequence 0 -> Omega -> P0 -> N -> 0 along it."""
    return pushout(cocycle, ShortExactSequence(pres.omega, pres.p0.rep, pres.module,
                                               pres.omega_incl, pres.cover))


# ---------------------------------------------------------------------------
# pushout / pullback
# ---------------------------------------------------------------------------

def pushout(f: Morphism, ses: ShortExactSequence) -> ShortExactSequence:
    """Induced sequence 0 -> M' -> E' -> quotient -> 0 along f: sub -> M' (verified).

    E' is the cokernel of glue = (f, -inclusion): sub -> M' (+) middle, on the
    unit vectors e_C of M' (+) middle.  Its inclusion of M' is the first
    columns of the cokernel projection, and its projection onto the quotient
    is (0, projection) restricted to e_C: that map kills glue's image, so it
    factors through the cokernel, and on e_C it is the factor itself."""
    if f.source.dims != ses.sub.dims:
        raise DimensionMismatch("pushout map must start at the subobject")
    m = f.target
    alg, F = m.algebra, m.field
    glue = Morphism(ses.sub, direct_sum([m, ses.middle]).rep,
                    {v: f.maps[v].vstack(-ses.inclusion.maps[v]) for v in alg.vertices},
                    check=False)
    middle, quot, comps = _cokernel(glue)
    incl = {v: quot.maps[v].select_columns(range(m.dims[v])) for v in alg.vertices}
    proj = {v: Matrix.zeros(F, ses.quotient.dims[v], m.dims[v])
            .hstack(ses.projection.maps[v]).select_columns(comps[v]) for v in alg.vertices}
    return ShortExactSequence(m, middle, ses.quotient, Morphism(m, middle, incl, check=False),
                              Morphism(middle, ses.quotient, proj, check=False)).verify()


def pullback(g: Morphism, ses: ShortExactSequence) -> ShortExactSequence:
    """Induced sequence 0 -> sub -> E' -> N' -> 0 along g: N' -> quotient (verified).

    E' is the kernel of (projection, -g): middle (+) N' -> quotient.  The sub
    enters it as inclusion (+) (0 -> N'), factored through the kernel, and E'
    leaves onto N' by (0, id_N') after the kernel inclusion."""
    if g.target.dims != ses.quotient.dims:
        raise DimensionMismatch("pullback map must end at the quotient")
    n, F = g.source, g.source.field
    pair = direct_sum([ses.middle, n]).rep
    mixed = from_sum(pair, ses.quotient, [ses.projection, g.scale(F.neg(F.one))])
    middle, incl_total = kernel(mixed)
    into_pair = block_diagonal(ses.sub, pair, [ses.inclusion,
                                               Morphism.zero(zero_representation(n.algebra), n)])
    incl = factor_through_injection(incl_total, into_pair)
    if incl is None:
        raise AlgebraError("pullback inclusion failed")
    onto_n = from_sum(pair, n, [Morphism.zero(ses.middle, n), Morphism.identity(n)])
    return ShortExactSequence(ses.sub, middle, n, incl, onto_n.after(incl_total)).verify()


# ---------------------------------------------------------------------------
# universal extensions
# ---------------------------------------------------------------------------

@dataclass
class UniversalExtension:
    sequence: ShortExactSequence
    simples: list            # deduplicated simple objects actually used
    multiplicities: list     # d_S per simple (dim over End(S))
    spaces: list             # Ext^1(S, m) per simple, as built for the construction


def _sum_presentation(parts: list[Presentation], algebra) -> Presentation:
    """Presentation of a direct sum assembled from presentations of the parts."""
    module = direct_sum([p.module for p in parts], algebra).rep
    omega = direct_sum([p.omega for p in parts], algebra).rep
    p0 = projective_sum(algebra, [v for p in parts for v in p.p0.summand_vertices])
    cover = block_diagonal(p0.rep, module, [p.cover for p in parts])
    omega_incl = block_diagonal(omega, p0.rep, [p.omega_incl for p in parts])
    return Presentation(module, p0, cover, omega, omega_incl)


def universal_extension(m: Representation, simples: list) -> UniversalExtension:
    """0 -> m -> X -> (+) S^{d_S} -> 0 killing every Ext^1(S, m) class.

    d_S = dim Ext^1(S, m) over End(S); after the construction the induced map
    Ext^1(S, m) -> Ext^1(S, X) is verified to be zero on a basis of cocycles.
    The result keeps those Ext^1(S, m) (``spaces``) for callers that check the
    same classes again.
    """
    alg, F = m.algebra, m.field
    used = []
    for s in simples:
        if not any(is_isomorphic(s, t) is not None for t in used):
            used.append(s)
    chosen = []          # (simple, pres, selected cocycles)
    mults = []
    for s in used:
        space = ExtSpace(s, m)
        if space.dim == 0:
            mults.append(0)
            chosen.append((s, space, []))
            continue
        end_s = hom_basis(s, s)
        e = len(end_s)
        if space.dim % e:
            raise AlgebraError("Ext^1(S, m) is not free over End(S)?")
        # the identity acts on Omega as a lift of itself, up to maps through P0,
        # which change no class coordinates
        pres = space.pres
        ident = Morphism.identity(s)
        actions = [Morphism.identity(pres.omega) if g == ident
                   else syzygy_map(pres, g.after(pres.cover), pres.cover, pres.omega_incl)
                   for g in end_s]
        selected = []
        span_rows = []
        span_rank = 0
        for cls in space.basis():
            coords = cls.coords
            probe = Matrix(F, len(span_rows) + 1, space.dim,
                           span_rows + [list(coords)])
            if probe.rank() == span_rank:
                continue
            selected.append(cls.cocycle)
            for act in actions:
                moved = cls.cocycle.after(act)
                span_rows.append(list(space.class_coords(moved)))
            span_rank = Matrix(F, len(span_rows), space.dim, span_rows).rank()
            if span_rank == space.dim:
                break
        if len(selected) != space.dim // e:
            raise AlgebraError("End(S)-basis selection failed")
        mults.append(len(selected))
        chosen.append((s, space, selected))

    spaces = [space for _, space, _ in chosen]
    blocks = []
    for s, space, selected in chosen:
        blocks.extend((space.pres, theta) for theta in selected)
    if not blocks:
        ident = Morphism.identity(m)
        seq = ShortExactSequence(m, m, zero_representation(alg), ident,
                                 Morphism.zero(m, zero_representation(alg)))
        return UniversalExtension(seq, used, mults, spaces)

    total_pres = _sum_presentation([pres for pres, _ in blocks], alg)
    cocycle = from_sum(total_pres.omega, m, [theta for _, theta in blocks])
    seq = realize_from_cocycle(total_pres, m, cocycle)

    if not all(kills_classes(space, seq.inclusion) for space in spaces):
        raise AlgebraError("universal extension failed to kill a class")
    return UniversalExtension(seq, used, mults, spaces)


def kills_classes(space: ExtSpace, inclusion: Morphism) -> bool:
    """Whether inclusion: M -> X sends every class of Ext^1(N, M) to zero in
    Ext^1(N, X), checked on the basis cocycles of ``space`` = Ext^1(N, M): each
    pushed cocycle must lie in the Yoneda image of Hom(P0, X)."""
    if not space.dim:
        return True
    image_cols = _p0_image_columns(space.pres, inclusion.target)
    return all(span_coordinates(space.field, image_cols,
                                inclusion.after(cls.cocycle).flatten()) is not None
               for cls in space.basis())


# ---------------------------------------------------------------------------
# Auslander-Reiten translate
# ---------------------------------------------------------------------------

def transpose_module(m: Representation) -> Representation:
    """Tr m over the opposite algebra, via the transposed presentation."""
    alg = m.algebra
    opp = alg.opposite()
    pres = minimal_projective_presentation(m)
    q_from = projective_sum(opp, list(pres.p0.summand_vertices))
    q_to = projective_sum(opp, list(pres.p1.summand_vertices))
    F = alg.field
    # the image of P1's generator j in P0: path-space coefficients per P0 summand
    d_cols = [pres.d.maps[wj].col(pres.p1.generator_coordinate(j))
              for j, wj in enumerate(pres.p1.summand_vertices)]
    gen_vectors = []
    for i, vi in enumerate(pres.p0.summand_vertices):
        vec = [F.zero] * q_to.rep.dims[vi]
        for j, wj in enumerate(pres.p1.summand_vertices):
            plist, basis, _ = alg.path_space(vi, wj)
            col, start, off = d_cols[j], pres.p0.offsets[i][wj], q_to.offsets[j][vi]
            for k, bidx in enumerate(basis):
                coeff = col[start + k]
                if coeff == F.zero:
                    continue
                red = opp.reduce_path(wj, vi, tuple(reversed(plist[bidx])))
                for kk, c in enumerate(red):
                    if c != F.zero:
                        vec[off + kk] = F.add(vec[off + kk], F.mul(coeff, c))
        gen_vectors.append(Matrix.column(F, vec))
    dual_map = morphism_from_projective_sum(q_from, q_to.rep, gen_vectors)
    tr, _ = cokernel(dual_map)
    return tr


def tau(m: Representation) -> Representation:
    """Auslander-Reiten translate (projective summands die silently)."""
    if m.is_zero():
        return m
    return dualize(transpose_module(m), m.algebra)


def tau_inverse(m: Representation) -> Representation:
    if m.is_zero():
        return m
    return transpose_module(dualize(m, m.algebra.opposite()))


@dataclass
class TranslateReport:
    result: Representation
    dropped_summands: bool


def tau_with_report(m: Representation) -> TranslateReport:
    out = tau(m)
    back = tau_inverse(out)
    return TranslateReport(out, back.dims != m.dims)


def tau_inverse_with_report(m: Representation) -> TranslateReport:
    out = tau_inverse(m)
    back = tau(out)
    return TranslateReport(out, back.dims != m.dims)
