"""Truncated omega-approximations and the function-field generic module.

The left approximation pushes a universal extension into finite uniserial
towers S[r]; the right approximation covers a positive-defect module by
tower tops and makes the kernel torsionfree.  Minimality is not claimed at
truncation; the contracts are the Ext-killing and torsionfree-kernel
certificates, which are verified on every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ApproximationError
from .exactla import FunctionField, Matrix, PrimeField, RationalField
from .homology import (
    ExtSpace,
    ShortExactSequence,
    _p0_image_columns,
    kills_classes,
    realize_from_cocycle,
    syzygy_map,
    universal_extension,
)
from .quiver_algebra import CanonicalAlgebra
from .repcat import (
    Morphism,
    Representation,
    block_diagonal,
    direct_sum,
    find_injective_morphism,
    from_sum,
    hom_basis,
    hom_dim,
    kernel,
    minimal_projective_presentation,
    solve_hom,
)
from .repcat.core import _cokernel
from .trisection import (
    TrisectLabel,
    regular_simples,
    split_trisect,
    torsion_part,
    tower_over,
    uniserial_tower,
    validate_tube,
)


@dataclass(frozen=True)
class TruncationParams:
    """Finite tube set plus a uniserial depth; finitizes the tower machinery."""

    tubes: tuple
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ApproximationError("depth must be >= 1")
        if not self.tubes:
            raise ApproximationError("tube set must be nonempty")


def mouth_modules(alg: CanonicalAlgebra, params: TruncationParams, rng=None):
    """[(tube, socle index, mouth rep)] across the chosen tubes, each tube once.

    A tube named again is skipped: its mouths would repeat, and the universal
    extension lists isomorphic simples only once.
    """
    out, seen = [], set()
    for tube in params.tubes:
        validate_tube(alg, tube)
        if tube in seen:
            continue
        seen.add(tube)
        for idx, s in enumerate(regular_simples(alg, tube, rng)):
            out.append((tube, idx, s))
    return out


# ---------------------------------------------------------------------------
# Prüfer truncations
# ---------------------------------------------------------------------------

@dataclass
class PruferTruncation:
    socle: Representation
    depth: int
    layers: list
    inclusions: list
    cokernels: list   # quotient of each inclusion, = tau^{-j}(socle)


def prufer_chain(s: Representation, depth: int, rng=None) -> PruferTruncation:
    """S[1] -> S[2] -> ... -> S[depth] with verified layer quotients."""
    tower = tower_over(s, depth, rng if rng is not None else random.Random(0))
    return PruferTruncation(tower.layers[0], depth, tower.layers,
                            tower.inclusions, tower.tops)


# ---------------------------------------------------------------------------
# left approximation
# ---------------------------------------------------------------------------

@dataclass
class LeftApproximation:
    sequence: ShortExactSequence      # 0 -> kept -> X -> T -> 0
    kept: Representation
    stripped: Representation          # the removed positive-defect part
    params: TruncationParams
    blocks: list                      # [(tube, socle index)] per tower block
    multiplicities: dict              # TubeId -> [d_S per socle]
    certificates: dict

    @property
    def middle(self) -> Representation:
        return self.sequence.middle


def left_omega_approx(m: Representation, params: TruncationParams,
                      rng=None) -> LeftApproximation:
    """Truncated minimal left omega-approximation of m.

    Positive-defect summands are stripped (reported in the result); the
    middle kills every Ext^1(S, m) class for mouths S of the chosen tubes,
    and torsionfree inputs stay torsionfree (checked when applicable).
    """
    rng = rng if rng is not None else random.Random(0)
    alg = m.algebra
    tri = split_trisect(m, rng)
    stripped = tri.q_part
    if stripped.is_zero():
        kept = m
    else:
        kept = direct_sum([tri.p_part, tri.t_part], alg).rep
    mouths = mouth_modules(alg, params, rng)
    ue = universal_extension(kept, [s for _, _, s in mouths])
    # ue.simples preserves mouth order; pair multiplicities back to tubes
    mult_by_tube: dict = {}
    blocks = []
    towers = []
    for (tube, idx, s), d in zip(mouths, ue.multiplicities):
        mult_by_tube.setdefault(tube, []).append(d)
        for _ in range(d):
            blocks.append((tube, idx))
            towers.append(uniserial_tower(alg, tube, idx, params.depth, rng))

    if not towers:      # then ue.sequence is 0 -> kept -> kept -> 0
        return LeftApproximation(ue.sequence, kept, stripped, params, blocks, mult_by_tube,
                                 _left_certificates(ue.sequence, mouths, ue.spaces))

    # the universal-extension quotient is the sum of the towers' socles
    t_small = ue.sequence.quotient
    sum_big = direct_sum([tw.top_module for tw in towers], alg).rep
    u = block_diagonal(t_small, sum_big, [tw.socle_inclusion() for tw in towers])

    pres_small = minimal_projective_presentation(t_small)
    theta_small = syzygy_map(pres_small, pres_small.cover,
                             ue.sequence.projection, ue.sequence.inclusion)
    pres_big = minimal_projective_presentation(sum_big)

    omega_u = syzygy_map(pres_small, u.after(pres_small.cover),
                         pres_big.cover, pres_big.omega_incl)
    # theta_big o omega_u is theta_small up to the image of Hom(P0_small, kept)
    theta_big = solve_hom(pres_big.omega, kept, lambda h: h.after(omega_u).flatten(),
                          theta_small.flatten(),
                          extra=_p0_image_columns(pres_small, kept))
    if theta_big is None:
        raise ApproximationError("no compatible class at this depth",
                                 {"depth": params.depth})
    seq = realize_from_cocycle(pres_big, kept, theta_big)
    certs = _left_certificates(seq, mouths, ue.spaces)
    if not certs["ext_killed"]:
        raise ApproximationError("universal-extension contract failed")
    return LeftApproximation(seq, kept, stripped, params, blocks,
                             mult_by_tube, certs)


def _left_certificates(seq: ShortExactSequence, mouths, spaces):
    """Push every Ext^1(S, sub) basis cocycle into the middle; all must die.

    ``spaces`` are Ext^1 spaces already built (the universal extension's); a
    mouth whose Ext^1(S, sub) is among them reuses it."""
    certs = {"ext_killed": True, "source_torsionfree": True,
             "middle_torsionfree": True}
    for _, _, s in mouths:
        space = next((sp for sp in spaces if sp.source is s and sp.target is seq.sub), None)
        if not kills_classes(space or ExtSpace(s, seq.sub), seq.inclusion):
            certs["ext_killed"] = False
        if hom_dim(s, seq.sub):
            certs["source_torsionfree"] = False
        if hom_dim(s, seq.middle):
            certs["middle_torsionfree"] = False
    certs["f_preserved"] = (not certs["source_torsionfree"]) or \
        certs["middle_torsionfree"]
    return certs


def extend_left_approx(approx: LeftApproximation, new_depth: int, rng=None):
    """Deeper truncation plus a compatible monomorphism between the middles."""
    if new_depth <= approx.params.depth:
        raise ApproximationError("new depth must exceed the old one")
    rng = rng if rng is not None else random.Random(0)
    new_params = TruncationParams(approx.params.tubes, new_depth)
    deeper = left_omega_approx(approx.kept, new_params, rng)
    # block-diagonal inclusion of the old quotient towers into the new ones
    alg = approx.kept.algebra
    if len(approx.blocks) != len(deeper.blocks):
        raise ApproximationError("block mismatch between depths")
    steps = []
    for tube, idx in deeper.blocks:
        tw = uniserial_tower(alg, tube, idx, new_depth, rng)
        step = Morphism.identity(tw.layers[approx.params.depth - 1])
        for k in range(approx.params.depth - 1, new_depth - 1):
            step = tw.inclusions[k].after(step)
        steps.append(step)
    u = block_diagonal(approx.sequence.quotient, deeper.sequence.quotient, steps)
    # solve for h: X_r -> X_{r'} with h o mu = mu' and pi' o h = u o pi
    h = solve_hom(approx.middle, deeper.middle,
                  lambda f: (f.after(approx.sequence.inclusion).flatten()
                             + deeper.sequence.projection.after(f).flatten()),
                  deeper.sequence.inclusion.flatten()
                  + u.after(approx.sequence.projection).flatten())
    if h is None:
        raise ApproximationError("no compatible monomorphism between depths")
    if not h.is_injective():
        raise ApproximationError("compatible map is not injective")
    return deeper, h


# ---------------------------------------------------------------------------
# right approximation
# ---------------------------------------------------------------------------

@dataclass
class RightApproximation:
    sequence: ShortExactSequence      # 0 -> K -> N -> m -> 0
    params: TruncationParams
    cover_blocks: list                # [(tube, socle index, basis index)] kept
    dropped_blocks: int
    certificates: dict


def right_omega_approx(m: Representation, params: TruncationParams,
                       rng=None) -> RightApproximation:
    """Truncated minimal right omega-approximation of a positive-defect module.

    The cover is assembled from Hom(S[depth], m) bases over the chosen tubes
    and greedily reduced; the kernel is made torsionfree by factoring out its
    tube-generated part.
    """
    rng = rng if rng is not None else random.Random(0)
    alg = m.algebra
    tri = split_trisect(m, rng)
    if not (tri.p_part.is_zero() and tri.t_part.is_zero()):
        raise ApproximationError(
            "right approximation needs all summands of positive defect",
            {"p_dims": dict(tri.p_part.dims), "t_dims": dict(tri.t_part.dims)})

    mouths = mouth_modules(alg, params, rng)
    candidates = []   # (tube, socle, basis index, tower top, morphism)
    for tube, idx, _ in mouths:
        tower = uniserial_tower(alg, tube, idx, params.depth, rng)
        for bi, f in enumerate(hom_basis(tower.top_module, m)):
            candidates.append((tube, idx, bi, tower.top_module, f))

    def uncovered(subset):
        """The vertices of m, in order, where the maps in subset are not jointly onto."""
        for v in alg.vertices:
            if m.dims[v] == 0:
                continue
            stacked = None
            for _, _, _, _, f in subset:
                stacked = f.maps[v] if stacked is None else stacked.hstack(f.maps[v])
            if stacked is None or stacked.rank() < m.dims[v]:
                yield v

    missing = list(uncovered(candidates))
    if missing:
        raise ApproximationError(
            "tube set too poor to cover the module; enlarge tubes or depth",
            {"missing_simple_tops": missing})
    kept = list(candidates)
    for cand in list(candidates):
        trial = [c for c in kept if c is not cand]
        if next(uncovered(trial), None) is None:
            kept = trial
    cover = direct_sum([c[3] for c in kept], alg).rep
    g = from_sum(cover, m, [c[4] for c in kept])
    ker_rep, ker_incl = kernel(g)
    torsion = torsion_part(ker_rep, rng)
    if torsion.module.is_zero():
        final = ShortExactSequence(ker_rep, cover, m, ker_incl, g).verify()
    else:
        inside = ker_incl.after(torsion.inclusion)
        # the quotient's basis is the unit vectors e_C, so g, which kills the
        # torsion, factors through it as g's columns at e_C
        n_quot, n_proj, comps = _cokernel(inside)
        g2 = Morphism(n_quot, m, {v: g.maps[v].select_columns(comps[v]) for v in alg.vertices},
                      check=False)
        if g2.after(n_proj) != g:
            raise ApproximationError("quotient cover construction failed")
        k2, k2_incl = kernel(g2)
        final = ShortExactSequence(k2, n_quot, m, k2_incl, g2).verify()

    torsionfree = not any(hom_dim(s, final.sub) for _, _, s in mouths)
    ktri = split_trisect(final.sub, rng)
    certs = {"kernel_torsionfree": torsionfree, "kernel_labels": sorted(
        {lab.value for lab, part in ((TrisectLabel.P, ktri.p_part),
                                     (TrisectLabel.T, ktri.t_part),
                                     (TrisectLabel.Q, ktri.q_part))
         if not part.is_zero()})}
    if not torsionfree:
        raise ApproximationError("kernel failed the torsionfree certificate")
    return RightApproximation(final, params,
                              [(t, i, b) for t, i, b, _, _ in kept],
                              len(candidates) - len(kept), certs)


def factor_through_left_approx(h: Morphism, approx: LeftApproximation):
    """g with g o inclusion = h, when the connecting obstruction vanishes."""
    return solve_hom(approx.middle, h.target,
                     lambda b: b.after(approx.sequence.inclusion).flatten(), h.flatten())


# ---------------------------------------------------------------------------
# the generic module over the function field
# ---------------------------------------------------------------------------

@dataclass
class GenericModule:
    module: Representation
    algebra: CanonicalAlgebra        # the Kronecker algebra over k(t)
    base_algebra: CanonicalAlgebra


def kronecker_generic(alg: CanonicalAlgebra) -> GenericModule:
    """The rank-one function-field representation (1, t) of the Kronecker quiver."""
    if alg.weights:
        raise ApproximationError(
            "the generic module is realized for the Kronecker case only")
    if not isinstance(alg.field, (RationalField, PrimeField)):
        raise ApproximationError("base field must be Q or F_p")
    K = FunctionField(alg.field)
    alg_k = CanonicalAlgebra(K, [], [])
    one = Matrix.identity(K, 1)
    gen = Matrix(K, 1, 1, [[K.gen]])
    module = Representation(alg_k, {"0": 1, "c": 1}, {"x1": one, "x2": gen})
    return GenericModule(module, alg_k, alg)


def endolength(gm: GenericModule) -> int:
    """Length over the endomorphism ring: total function-field dimension."""
    end_dim = hom_dim(gm.module, gm.module)
    if end_dim != 1:
        raise ApproximationError("endomorphism ring is not a division ring")
    return gm.module.total_dim


@dataclass
class PegGrowth:
    dims: list
    witnesses: list   # monomorphism per level (or None)


def peg_hom_growth(peg: Representation, s: Representation, rmax: int,
                   rng=None) -> PegGrowth:
    """dim Hom(peg, S[r]) for r = 1..rmax, with monomorphism witnesses."""
    rng = rng if rng is not None else random.Random(0)
    alg = peg.algebra
    if alg.defect_form()(peg.dims) != -1:
        raise ApproximationError("peg must have defect -1")
    tower = tower_over(s, rmax, rng)
    dims, witnesses = [], []
    for layer in tower.layers:
        dims.append(hom_dim(peg, layer))
        witnesses.append(find_injective_morphism(peg, layer, rng))
    return PegGrowth(dims, witnesses)
