"""Shared construction helpers for the test suite."""

import itertools
from types import SimpleNamespace

from canrep.errors import AlgebraError
from canrep.exactla import Matrix, PrimeField, RationalField, companion_matrix, poly_trim
from canrep.homology import ExtSpace, ShortExactSequence, tau_inverse
from canrep.quiver_algebra import SINK, SOURCE, QuiverAlgebra, arm_vertex, canonical_algebra
from canrep.repcat import (
    Morphism,
    Representation,
    cokernel,
    direct_sum,
    factor_through_injection,
    factor_through_surjection,
    hom_basis,
    image,
    injective_at,
    is_brick,
    is_isomorphic,
    kernel,
    linear_combination,
    minimal_projective_presentation,
    projective_at,
    projective_cover,
    radical,
    span_coordinates,
)
from canrep.trisection import _verify_mouth
from canrep.tubular_slopes import Slope

QQ = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def kron(field=QQ):
    return canonical_algebra(field, [], [])


def mk_rep(alg, dims, arrows):
    F = alg.field
    mats = {}
    for label, rows in arrows.items():
        a = alg.arrow_by_label[label]
        mats[label] = Matrix(F, dims.get(a.target, 0), dims.get(a.source, 0),
                             [[F.coerce(x) for x in r] for r in rows])
    return Representation(alg, dims, mats)


def kron_point(alg, a):
    """Degree-one regular simple (1, a) on the Kronecker quiver."""
    F = alg.field
    return mk_rep(alg, {"0": 1, "c": 1}, {"x1": [[F.one]], "x2": [[F.coerce(a)]]})


def kron_jordan(alg, a, r):
    """Uniserial Jordan model of regular length r at the point a."""
    F = alg.field
    ident = Matrix.identity(F, r)
    jordan = [[F.coerce(a) if i == j else (F.one if j == i + 1 else F.zero)
               for j in range(r)] for i in range(r)]
    return Representation(alg, {"0": r, "c": r},
                          {"x1": ident, "x2": Matrix(F, r, r, jordan)})


def random_invertible(field, n, rng):
    while True:
        m = Matrix(field, n, n,
                   [[field.random(rng) for _ in range(n)] for _ in range(n)])
        if m.inverse() is not None:
            return m


def conjugate(rep, rng):
    """Random basis change of a representation (an isomorphic copy)."""
    alg, F = rep.algebra, rep.field
    g = {v: random_invertible(F, rep.dims[v], rng) for v in alg.vertices}
    arrows = {}
    for a in alg.arrows:
        arrows[a.label] = g[a.target] * rep.arrows[a.label] * g[a.source].inverse()
    return Representation(alg, dict(rep.dims), arrows)


def brute_force_hom_dim(m, n):
    """Count all commuting vertex-map tuples over a finite field; log_p gives dim."""
    import itertools

    alg, F = m.algebra, m.field
    shapes = [(v, n.dims[v], m.dims[v]) for v in alg.vertices]
    total_entries = sum(r * c for _, r, c in shapes)
    count = 0
    for flat in itertools.product(range(F.p), repeat=total_entries):
        maps = {}
        pos = 0
        for v, r, c in shapes:
            maps[v] = Matrix(F, r, c,
                             [list(flat[pos + i * c: pos + (i + 1) * c]) for i in range(r)])
            pos += r * c
        ok = True
        for a in alg.arrows:
            if maps[a.target] * m.arrows[a.label] != n.arrows[a.label] * maps[a.source]:
                ok = False
                break
        if ok:
            count += 1
    dim = 0
    while F.p ** dim < count:
        dim += 1
    assert F.p ** dim == count, "solution set is not a subspace?"
    return dim


# ---------------------------------------------------------------------------
# textbook references for the block maps of direct sums
# ---------------------------------------------------------------------------

def _sum_of_composites(source, target, composites):
    """The sum of morphisms with the shapes of source -> target, rebound to them."""
    total = Morphism.zero(source, target)
    for f in composites:
        total = total + Morphism(source, target, f.maps, check=False)
    return total


def biproduct_maps(parts, algebra=None):
    """(sum, injections, projections) of X_1 (+) ... (+) X_n: the 0/1 biproduct
    maps, injection i the identity's columns at direct_sum(...).offsets[i] and
    projection i its transpose.  Built without from_sum or block_diagonal, which
    they serve to check."""
    ds = direct_sum(parts, algebra)
    total = ds.rep
    ids = {v: Matrix.identity(total.field, d) for v, d in total.dims.items()}
    injs = [Morphism(p, total, {v: ids[v].select_columns(range(off[v], off[v] + d))
                                for v, d in p.dims.items()})
            for p, off in zip(parts, ds.offsets)]
    projs = [Morphism(total, inj.source, {v: m.transpose() for v, m in inj.maps.items()})
             for inj in injs]
    return total, injs, projs


def reference_from_sum(source, target, parts):
    """sum_i f_i o proj_i over the biproduct projections of the sum of the sources."""
    _, _, projs = biproduct_maps([f.source for f in parts], source.algebra)
    return _sum_of_composites(source, target,
                              [f.after(proj) for f, proj in zip(parts, projs)])


def reference_block_diagonal(source, target, parts):
    """sum_i inj_i o f_i o proj_i: f_1 (+) ... (+) f_n from the biproduct maps."""
    alg = source.algebra
    _, _, projs = biproduct_maps([f.source for f in parts], alg)
    _, injs, _ = biproduct_maps([f.target for f in parts], alg)
    return _sum_of_composites(source, target, [inj.after(f).after(proj)
                                               for inj, f, proj in zip(injs, parts, projs)])


def reference_presentation(m):
    """P1 -> P0 -> m -> 0 built eagerly on every call: the cover of m, its kernel,
    the cover of that kernel and their composite d, with the minimality check."""
    p0, cover = projective_cover(m)
    omega, omega_incl = kernel(cover)
    p1, p1_cover = projective_cover(omega)
    _, rad_incl = radical(p0.rep)
    for v in m.algebra.vertices:
        assert rad_incl.maps[v].hstack(omega_incl.maps[v]).rank() == rad_incl.maps[v].rank()
    return SimpleNamespace(module=m, p0=p0, cover=cover, omega=omega, omega_incl=omega_incl,
                           p1=p1, p1_cover=p1_cover, d=omega_incl.after(p1_cover))


def reference_p0_image_columns(pres, m):
    """The image of Hom(P0, M) -> Hom(Omega, M) as flat cocycles: a hom_basis of
    Hom(P0, M) solved from its commuting squares, each map restricted to Omega."""
    restricted = [f.after(pres.omega_incl) for f in hom_basis(pres.p0.rep, m)]
    return [f.flatten() for f in restricted if not f.is_zero()]


def reference_ext_space(n, m):
    """Ext^1(N, M) = coker(Hom(P0, M) -> Hom(Omega, M)) with the image taken from
    reference_p0_image_columns: (dim, basis cocycles, cocycle -> class coordinates)."""
    F = m.field
    pres = minimal_projective_presentation(n)
    hom_omega = hom_basis(pres.omega, m)
    img = reference_p0_image_columns(pres, m)
    basis_cols = [f.flatten() for f in hom_omega]
    cols = img + basis_cols
    pivots = ()
    if basis_cols:
        _, pivots = Matrix(F, len(basis_cols[0]), len(cols), [list(r) for r in zip(*cols)]).rref()
    chosen = [p - len(img) for p in pivots if p >= len(img)]
    coord_cols = img + [basis_cols[i] for i in chosen]

    def class_coords(cocycle):
        return tuple(span_coordinates(F, coord_cols, cocycle.flatten())[len(img):])

    return SimpleNamespace(dim=len(chosen), cocycles=[hom_omega[i] for i in chosen],
                           class_coords=class_coords)


# ---------------------------------------------------------------------------
# references for the sub-objects, quotients and searches read off one reduced form
# ---------------------------------------------------------------------------

def reference_image(f):
    """(image, inclusion, epi): the pivot columns of f_v as the basis, each arrow
    and the epi solved against it (a second elimination per vertex)."""
    alg = f.source.algebra
    bases = {v: f.maps[v].column_space_basis() for v in alg.vertices}
    arrows = {a.label: bases[a.target].solve(f.target.arrows[a.label] * bases[a.source])
              for a in alg.arrows}
    img = Representation(alg, {v: bases[v].cols for v in alg.vertices}, arrows)
    epis = {v: bases[v].solve(f.maps[v]) for v in alg.vertices}
    return img, Morphism(img, f.target, bases), Morphism(f.source, img, epis)


def reference_cokernel(f):
    """(quotient, projection) in three steps per vertex: a column basis B of f_v,
    its unit-vector completion e_C from an rref of [B | I], and the last rows of
    the inverse of [B | e_C] as the projection; arrows are projection * arrow * e_C."""
    alg, F = f.target.algebra, f.target.field
    projs, lifts = {}, {}
    for v in alg.vertices:
        col = f.maps[v].column_space_basis()
        n = f.target.dims[v]
        _, pivots = col.hstack(Matrix.identity(F, n)).rref()
        comp = [j - col.cols for j in pivots if j >= col.cols]
        lifts[v] = Matrix(F, n, len(comp), [[F.one if i == j else F.zero for j in comp]
                                            for i in range(n)])
        inv = col.hstack(lifts[v]).inverse()
        projs[v] = inv.submatrix(range(col.cols, n), range(n))
    arrows = {a.label: projs[a.target] * f.target.arrows[a.label] * lifts[a.source]
              for a in alg.arrows}
    cok = Representation(alg, {v: projs[v].rows for v in alg.vertices}, arrows)
    return cok, Morphism(f.target, cok, projs)


def reference_pushout(f, ses):
    """The pushout along f through the biproduct maps: glue and the inclusion
    composed with the injections of f.target (+) ses.middle, the quotient map
    with its second projection, and the projection solved through the cokernel."""
    _, injs, projs = biproduct_maps([f.target, ses.middle])
    glue = injs[0].after(f) - injs[1].after(ses.inclusion)
    middle, quot = cokernel(glue)
    incl = quot.after(injs[0])
    proj = factor_through_surjection(quot, ses.projection.after(projs[1]))
    return ShortExactSequence(f.target, middle, ses.quotient, incl, proj).verify()


def reference_pullback(g, ses):
    """The pullback along g through the biproduct maps: the kernel of
    projection o proj_0 - g o proj_1 on ses.middle (+) g.source, the sub entering
    by inj_0 o inclusion solved through the kernel inclusion, and proj_1 after it."""
    _, injs, projs = biproduct_maps([ses.middle, g.source])
    middle, incl_total = kernel(ses.projection.after(projs[0]) - g.after(projs[1]))
    incl = factor_through_injection(incl_total, injs[0].after(ses.inclusion))
    return ShortExactSequence(ses.sub, middle, g.source, incl,
                              projs[1].after(incl_total)).verify()


def reference_kills_classes(space, inclusion):
    """Whether every basis class of space = Ext^1(N, M), pushed along inclusion,
    has zero coordinates in a second ExtSpace Ext^1(N, X) on the same presentation
    (the one kept on N)."""
    target = ExtSpace(space.source, inclusion.target)
    return all(target.class_of_cocycle(inclusion.after(cls.cocycle)).is_zero()
               for cls in space.basis())


def reference_search(basis, rng, accept, grid_bound, trials=64):
    """The first element that passes ``accept``, or None: the basis, then
    ``trials`` seeded random combinations of it (one draw per element each, the
    zero ones skipped), then, for at most 3 basis elements, every combination
    with coefficients 0..grid_bound (below p over F_p) in lexicographic order."""
    src, tgt = basis[0].source, basis[0].target
    F = src.field
    for f in basis:
        if accept(f):
            return f
    for _ in range(trials):
        f = linear_combination(src, tgt, basis, [F.random(rng) for _ in basis])
        if not f.is_zero() and accept(f):
            return f
    if len(basis) <= 3:
        if isinstance(F, PrimeField):
            values = [F.coerce(v) for v in range(min(F.p, grid_bound + 1))]
        else:
            values = [F.from_int(v) for v in range(grid_bound + 1)]
        for coeffs in itertools.product(values, repeat=len(basis)):
            f = linear_combination(src, tgt, basis, coeffs)
            if accept(f):
                return f
    return None


def reference_idempotent_split(m, basis):
    """[(image, inclusion), (kernel, inclusion)] of the first idempotent other
    than 0 and 1 among the combinations of an End(m) basis over F_p with
    coefficients in 0..p-1, in lexicographic order; None when there is none."""
    ident = Morphism.identity(m)
    for coeffs in itertools.product(range(m.field.p), repeat=len(basis)):
        f = linear_combination(m, m, basis, coeffs)
        if f.is_zero() or f == ident:
            continue
        if f.after(f) == f:
            ker_rep, ker_incl = kernel(f)
            img_rep, img_incl, _ = image(f)
            return [(img_rep, img_incl), (ker_rep, ker_incl)]
    return None


def reference_find_injective_morphism(m, n, rng):
    """The seeded search over a Hom(m, n) basis, whatever the dimensions."""
    basis = hom_basis(m, n)
    return (reference_search(basis, rng, Morphism.is_injective, m.total_dim + n.total_dim)
            if basis else None)


# ---------------------------------------------------------------------------
# textbook references for the exactla kernels (field methods on every cell)
# ---------------------------------------------------------------------------

def reference_minimal_polynomial(mats):
    """Minimal polynomial of a tuple of square matrices, one solve per degree."""
    F = mats[0].field
    flats = []
    powers = [Matrix.identity(F, a.rows) for a in mats]
    for _ in range(sum(a.rows for a in mats) + 1):
        flat = [x for pw in powers for x in pw.entries_flat()]
        if not flat:
            return (F.zero, F.one)  # zero module: x by convention
        if flats:
            cols = Matrix(F, len(flat), len(flats), [list(r) for r in zip(*flats)])
            sol = cols.solve(Matrix.column(F, flat))
            if sol is not None:
                return tuple([F.neg(sol.data[i][0]) for i in range(sol.rows)] + [F.one])
        flats.append(flat)
        powers = [a * pw for a, pw in zip(mats, powers)]
    raise AssertionError("minimal polynomial degree exceeded the size")


def reference_mul(a, b):
    F = a.field
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = F.zero
            for k in range(a.cols):
                acc = F.add(acc, F.mul(a.data[i][k], b.data[k][j]))
            row.append(acc)
        out.append(row)
    return Matrix(F, a.rows, b.cols, out)


def reference_rref(a):
    """(rows of the reduced row-echelon form, pivot columns), cell by cell."""
    F = a.field
    m = [list(r) for r in a.data]
    pivots = []
    r = 0
    for c in range(a.cols):
        pr = next((i for i in range(r, a.rows) if m[i][c] != F.zero), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = F.inv(m[r][c])
        for j in range(a.cols):
            m[r][j] = F.mul(inv, m[r][j])
        for i in range(a.rows):
            if i != r:
                f = m[i][c]
                for j in range(a.cols):
                    m[i][j] = F.sub(m[i][j], F.mul(f, m[r][j]))
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def reference_kernel_columns(a):
    """One kernel vector per free column: 1 there, minus the pivot rows' entries."""
    F = a.field
    m, pivots = reference_rref(a)
    out = []
    for fj in (j for j in range(a.cols) if j not in pivots):
        v = [F.zero] * a.cols
        v[fj] = F.one
        for i, pj in enumerate(pivots):
            v[pj] = F.neg(m[i][fj])
        out.append(v)
    return out


def reference_solve(a, b):
    """The solution of a*x = b with every free unknown 0, or None."""
    F = a.field
    aug = Matrix(F, a.rows, a.cols + b.cols, [r1 + r2 for r1, r2 in zip(a.data, b.data)])
    m, pivots = reference_rref(aug)
    if any(c >= a.cols for c in pivots):
        return None
    x = [[F.zero] * b.cols for _ in range(a.cols)]
    for i, pj in enumerate(pivots):
        x[pj] = m[i][a.cols:]
    return Matrix(F, a.cols, b.cols, x)


def reference_poly_divmod(F, a, b):
    """(quotient, remainder) of a by b, re-trimming the remainder at every step."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [F.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    while len(a) >= len(b) and poly_trim(F, a):
        a = list(poly_trim(F, a))
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        factor = F.mul(a[-1], inv_lead)
        q[shift] = factor
        for i, y in enumerate(b):
            a[shift + i] = F.sub(a[shift + i], F.mul(factor, y))
    return poly_trim(F, q), poly_trim(F, a)


# ---------------------------------------------------------------------------
# tube mouths written out per case, with the arm points read off the params
# ---------------------------------------------------------------------------

def reference_point_simple(alg, tube):
    """The mouth of a point tube: the companion matrix on arm 2, shifted by l_i on arm i."""
    F = alg.field
    t = alg.arm_count
    if tube.is_infinity:
        return Representation(alg, {"0": 1, "c": 1},
                              {"x1": Matrix.zeros(F, 1, 1), "x2": Matrix.identity(F, 1)})
    poly = poly_trim(F, tube.poly)
    d = len(poly) - 1
    comp = companion_matrix(F, poly)
    ident = Matrix.identity(F, d)
    dims = {v: d for v in alg.vertices}
    if t == 0:
        return Representation(alg, dims, {"x1": ident, "x2": comp})
    arrows = {}
    for i in range(1, t + 1):
        if i == 1:
            first = ident
        elif i == 2:
            first = comp
        else:
            first = comp - ident.scale(alg.params[i - 3])
        labels = alg.arm_composite(i)
        arrows[labels[0]] = first
        for lbl in labels[1:]:
            arrows[lbl] = ident
    return Representation(alg, dims, arrows)


def reference_arm_connecting_module(alg, i):
    """The mouth of arm tube i supported off arm i, one beta scalar per other arm."""
    F = alg.field
    t = alg.arm_count
    dims = {v: 1 for v in alg.vertices}
    for v in alg.arm_vertices(i):
        dims[v] = 0
    if i == 1:
        beta = {j: F.one for j in range(1, t + 1)}
    elif i == 2:
        beta = {1: F.one}
        for j in range(3, t + 1):
            beta[j] = F.neg(alg.params[j - 3])
    else:
        lam_i = alg.params[i - 3]
        beta = {1: F.one, 2: lam_i}
        for j in range(3, t + 1):
            if j != i:
                beta[j] = F.sub(lam_i, alg.params[j - 3])
    arrows = {}
    for j in range(1, t + 1):
        if j == i:
            continue
        labels = alg.arm_composite(j)
        arrows[labels[0]] = Matrix(F, 1, 1, [[beta[j]]])
        for lbl in labels[1:]:
            arrows[lbl] = Matrix.identity(F, 1)
    return Representation(alg, dims, arrows)


def reference_mouth_orbit(alg, tube, rng):
    """The tau^{-1} orbit of a tube's mouths from the two builders above: a point
    tube's one mouth checked tau-stable, or an arm tube's connecting module and
    vertex simples walked from the simple at the arm's first vertex."""
    delta = alg.defect_form()
    if tube.kind == "point":
        s = reference_point_simple(alg, tube)
        _verify_mouth(s, delta, rng)
        assert is_isomorphic(tau_inverse(s), s, rng) is not None
        return [s]
    i = tube.arm
    candidates = [reference_arm_connecting_module(alg, i)]
    candidates += [Representation(alg, {f"{i}.{j}": 1}, {}, check=False)
                   for j in range(1, alg.weights[i - 1])]
    for c in candidates:
        _verify_mouth(c, delta, rng)
    orbit = [candidates[1]]
    remaining = [c for c in candidates if c is not orbit[0]]
    while remaining:
        nxt = tau_inverse(orbit[-1])
        match = next(c for c in remaining if is_isomorphic(c, nxt, rng) is not None)
        orbit.append(match)
        remaining.remove(match)
    assert is_isomorphic(tau_inverse(orbit[-1]), orbit[0], rng) is not None
    return orbit


# ---------------------------------------------------------------------------
# tubular slopes: the side defects, homogeneous scalars and (2, 2, 2, 2)
# seeds written out per side
# ---------------------------------------------------------------------------

def reference_side_defects(alg):
    """{side: (quotient vertices, radical vector, sign)}: the killed-vertex
    quotient of each side, its radical vector embedded with 0 at the killed
    vertex, and the sign making P(sink) negative on the 0-side and I(source)
    positive on the ∞-side; a side's defect is sign * <h, dims>."""
    out = {}
    for side, killed in (("zero", SOURCE), ("infinity", SINK)):
        vertices = [w for w in alg.vertices if w != killed]
        arrows = [a for a in alg.arrows if killed not in (a.source, a.target)]
        quotient = QuiverAlgebra(alg.field, vertices, arrows)
        kers = quotient.symmetrized_euler_kernel()
        assert len(kers) == 1
        vec = dict(zip(quotient.vertices, kers[0]))
        vec[killed] = 0
        out[side] = [quotient.vertices, {v: vec.get(v, 0) for v in alg.vertices}, None]
    d0 = alg.euler_form(out["zero"][1], projective_at(alg, SINK).dims)
    dinf = alg.euler_form(out["infinity"][1], injective_at(alg, SOURCE).dims)
    assert d0 != 0 and dinf != 0
    out["zero"][2] = -1 if d0 > 0 else 1
    out["infinity"][2] = -1 if dinf < 0 else 1
    return {side: tuple(entry) for side, entry in out.items()}


def reference_valid_scalars(alg, count):
    """The first ``count`` of 1, 2, ... in the field that are no arm point."""
    F = alg.field
    out = []
    specials = {alg.arm_point(i) for i in range(1, alg.arm_count + 1)}
    k = 1
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 1000:
            raise AlgebraError("field too small for homogeneous labels")
        val = F.from_int(k)
        k += 1
        if val in specials or val in out:
            continue
        out.append(val)
    return out


def reference_subspace_quotient_regulars(tub, side, rng):
    """The bricks among the (2, 2, 2, 2) seeds of a side, each side's branch
    written out: four-arm seeds per valid scalar into the sink (side "zero")
    or out of the source (side "infinity"), then three two-arm seeds."""
    alg = tub.algebra
    F = alg.field
    if tuple(sorted(alg.weights)) != (2, 2, 2, 2):
        return []
    mids = [arm_vertex(i, 1) for i in range(1, 5)]
    out = []
    lines = [(F.one, F.zero), (F.zero, F.one), (F.one, F.one)]
    for a in reference_valid_scalars(alg, 2):
        cols = lines + [(F.one, a)]
        dims = {v: 1 for v in mids}
        arrows = {}
        if side == "zero":
            dims[SINK] = 2
            dims[SOURCE] = 0
            for i, col in enumerate(cols, start=1):
                arrows[f"x{i}.2"] = Matrix(F, 2, 1, [[col[0]], [col[1]]])
        else:
            dims[SOURCE] = 2
            dims[SINK] = 0
            for i, col in enumerate(cols, start=1):
                arrows[f"x{i}.1"] = Matrix(F, 1, 2, [[col[0], col[1]]])
        rep = Representation(alg, dims, arrows)
        if is_brick(rep, rng):
            out.append(rep)
    for pair in ((1, 2), (3, 4), (1, 3)):
        dims = {arm_vertex(i, 1): 1 for i in pair}
        arrows = {}
        if side == "zero":
            dims[SINK] = 1
            for i in pair:
                arrows[f"x{i}.2"] = Matrix.identity(F, 1)
        else:
            dims[SOURCE] = 1
            for i in pair:
                arrows[f"x{i}.1"] = Matrix.identity(F, 1)
        rep = Representation(alg, dims, arrows)
        if is_brick(rep, rng):
            out.append(rep)
    return out


def reference_extreme_pool(tub, side, rng, budget):
    """``slope_pool`` at 0 (side "zero") or ∞ (side "infinity"), from the
    reference seeds and the side's extreme module, P(source) or I(sink)."""
    alg = tub.algebra
    cands = reference_subspace_quotient_regulars(tub, side, rng)
    if side == "zero":
        target, extreme, delta = Slope.zero(), projective_at(alg, SOURCE), tub.delta_zero
    else:
        target, extreme, delta = Slope.infinity(), injective_at(alg, SINK), tub.delta_infinity
    if delta(extreme.dims) == 0 and is_brick(extreme, rng):
        cands.append(extreme)
    out = [c for c in cands if c.total_dim <= budget and tub.slope_of_dims(c.dims) == target]
    out.sort(key=lambda r: (r.total_dim, tuple(r.dims[v] for v in alg.vertices)))
    return out
