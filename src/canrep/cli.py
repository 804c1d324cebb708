"""Command-line front end: classification, decomposition, approximation, slopes.

Every command reads JSON specs, runs the corresponding pipeline, and prints
one machine-readable report (JSON, or TSV where noted).  All randomized
behavior flows from --seed; identical inputs and seed give byte-identical
output.  Exit codes: 0 success, 1 domain error (structured JSON on stdout),
2 parse errors.

A subcommand is declared once, by ``@command(name, seeded=..., **flags)`` on
its handler: that fills ``HANDLERS``, which ``main`` dispatches through, and
the flags ``build_parser`` adds, in declaration order (``seeded`` makes --seed
required).  A comma list (--tubes, --ratios) that names nothing is a parse error.
"""

from __future__ import annotations

import argparse
import random
import sys

from .approx import (
    TruncationParams,
    endolength,
    kronecker_generic,
    left_omega_approx,
    peg_hom_growth,
    right_omega_approx,
)
from .errors import CanrepError, ParseError
from .homology import ext1_basis, tau_inverse_with_report, tau_with_report
from .repcat import decompose, hom_basis, hom_dim, projective_at
from .serialize import (
    dumps,
    load_algebra,
    load_representation,
    morphism_to_json,
    rep_to_json,
    ses_to_json,
)
from .trisection import (
    TubeId,
    classify,
    partition_by_tubes,
    pegs,
    regular_simples,
    split_trisect,
    uniserial_tower,
)
from .tubular_slopes import (
    Slope,
    TubularAlgebra,
    chain_toward_slope,
    slope,
    slope_order_check,
)

HANDLERS = {}   # subcommand -> handler(args), in declaration order
_FLAGS = {}     # subcommand -> (--seed required, {flag: add_argument keywords})


def command(name, seeded=False, **flags):
    """Declare the decorated handler as subcommand ``name`` taking ``flags``."""
    def register(handler):
        HANDLERS[name] = handler
        _FLAGS[name] = (seeded, flags)
        return handler
    return register


# flag sets shared between subcommands
REP = {"--rep": {"required": True}}
ALG_OPT = {"--algebra": {"default": None}}
ALG = {"--algebra": {"required": True}}
PAIR = {"--source": {"required": True}, "--target": {"required": True}}
TUBE = {"--tube": {"required": True}}
SOCLE = {"--socle": {"type": int, "default": 0}}
TUBES = {"--tubes": {"required": True}}
DEPTH = {"--depth": {"type": int, "required": True}}


def _load_rep(args):
    algebra = load_algebra(args.algebra) if args.algebra else None
    return load_representation(args.rep, algebra)


def _load_pair(args):
    """--source and --target, over --algebra if given, else the source's algebra."""
    algebra = load_algebra(args.algebra) if args.algebra else None
    source = load_representation(args.source, algebra)
    return source, load_representation(args.target, algebra or source.algebra)


def _rng(args):
    return random.Random(args.seed if args.seed is not None else 0)


def _comma_list(flag, text):
    """The non-blank items of a comma list; a list that names nothing is a parse error."""
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise ParseError(f"{flag} names nothing: {text!r}")
    return items


def _tubes(field, args):
    return tuple(TubeId.parse(field, part) for part in _comma_list("--tubes", args.tubes))


# ---------------------------------------------------------------------------
# handlers, one per subcommand
# ---------------------------------------------------------------------------

@command("classify", **REP, **ALG_OPT)
def cmd_classify(args):
    m = _load_rep(args)
    label = classify(m, _rng(args))
    return {"label": label.value, "defect": m.algebra.defect_form()(m.dims)}


@command("defect", **REP, **ALG_OPT)
def cmd_defect(args):
    m = _load_rep(args)
    return {"defect": m.algebra.defect_form()(m.dims),
            "dims": {v: m.dims[v] for v in m.algebra.vertices}}


@command("decompose", seeded=True, **REP, **ALG_OPT)
def cmd_decompose(args):
    m = _load_rep(args)
    dec = decompose(m, _rng(args))
    return {
        "summands": [{"multiplicity": k, "rep": rep_to_json(r, include_algebra=False)}
                     for r, k in dec.summands],
        "certified": True,
        "algebra": m.algebra.spec(),
    }


@command("hom", **PAIR, **ALG_OPT)
def cmd_hom(args):
    basis = hom_basis(*_load_pair(args))
    return {"dim": len(basis), "basis": [morphism_to_json(f) for f in basis]}


@command("ext", **PAIR, **ALG_OPT)
def cmd_ext(args):
    classes = ext1_basis(*_load_pair(args))
    middles = [rep_to_json(cls.realize().middle, include_algebra=False)
               for cls in classes]
    return {"dim": len(classes), "middles": middles}


@command("tau", **REP, **ALG_OPT, **{"--inverse": {"action": "store_true"}})
def cmd_tau(args):
    m = _load_rep(args)
    rep = tau_inverse_with_report(m) if args.inverse else tau_with_report(m)
    return {"result": rep_to_json(rep.result, include_algebra=False),
            "dropped_summands": rep.dropped_summands,
            "algebra": m.algebra.spec()}


@command("tube-simples", **ALG, **TUBE)
def cmd_tube_simples(args):
    alg = load_algebra(args.algebra)
    tube = TubeId.parse(alg.field, args.tube)
    orbit = regular_simples(alg, tube, _rng(args))
    return {"tube": tube.to_str(alg.field),
            "simples": [rep_to_json(s, include_algebra=False) for s in orbit],
            "algebra": alg.spec()}


@command("sbracket", **ALG, **TUBE, **SOCLE, **{"--rlen": {"type": int, "required": True}})
def cmd_sbracket(args):
    alg = load_algebra(args.algebra)
    tube = TubeId.parse(alg.field, args.tube)
    tower = uniserial_tower(alg, tube, args.socle, args.rlen, _rng(args))
    return {"rep": rep_to_json(tower.top_module, include_algebra=False),
            "position": {"tube": tube.to_str(alg.field),
                         "socle": tower.position.socle,
                         "rlen": tower.position.rlen},
            "algebra": alg.spec()}


@command("split-trisect", seeded=True, **REP, **ALG_OPT)
def cmd_split_trisect(args):
    m = _load_rep(args)
    tri = split_trisect(m, _rng(args))
    return {
        "p": rep_to_json(tri.p_part, include_algebra=False),
        "t": rep_to_json(tri.t_part, include_algebra=False),
        "q": rep_to_json(tri.q_part, include_algebra=False),
        "certified": True,
        "algebra": m.algebra.spec(),
    }


@command("partition-tubes", seeded=True, **REP, **ALG_OPT, **TUBES)
def cmd_partition_tubes(args):
    m = _load_rep(args)
    tubes = _tubes(m.algebra.field, args)
    part = partition_by_tubes(m, tubes, _rng(args))
    return {
        "inside": rep_to_json(part.inside, include_algebra=False),
        "outside": rep_to_json(part.outside, include_algebra=False),
        "tubes": [t.to_str(m.algebra.field) for t in tubes],
        "certified": True,
    }


@command("omega-left", **REP, **ALG_OPT, **TUBES, **DEPTH)
def cmd_omega_left(args):
    m = _load_rep(args)
    params = TruncationParams(_tubes(m.algebra.field, args), args.depth)
    ap = left_omega_approx(m, params, _rng(args))
    return {
        "sequence": ses_to_json(ap.sequence),
        "stripped": rep_to_json(ap.stripped, include_algebra=False),
        "multiplicities": {tube.to_str(m.algebra.field): mults
                           for tube, mults in ap.multiplicities.items()},
        "certificates": ap.certificates,
    }


@command("omega-right", seeded=True, **REP, **ALG_OPT, **TUBES, **DEPTH)
def cmd_omega_right(args):
    m = _load_rep(args)
    params = TruncationParams(_tubes(m.algebra.field, args), args.depth)
    ap = right_omega_approx(m, params, _rng(args))
    return {
        "sequence": ses_to_json(ap.sequence),
        "cover_blocks": [[t.to_str(m.algebra.field), i, b]
                         for t, i, b in ap.cover_blocks],
        "dropped_blocks": ap.dropped_blocks,
        "certificates": ap.certificates,
    }


@command("generic", **ALG)
def cmd_generic(args):
    alg = load_algebra(args.algebra)
    gm = kronecker_generic(alg)
    return {"rep": rep_to_json(gm.module), "base_algebra": alg.spec()}


@command("endolength", **ALG)
def cmd_endolength(args):
    alg = load_algebra(args.algebra)
    gm = kronecker_generic(alg)
    return {"endolength": endolength(gm),
            "end_dim": hom_dim(gm.module, gm.module)}


@command("peg-growth", **ALG, **TUBE, **SOCLE,
         **{"--rmax": {"type": int, "required": True}, "--peg": {"default": None}})
def cmd_peg_growth(args):
    alg = load_algebra(args.algebra)
    if args.peg is not None and args.peg not in alg.vertex_index:
        raise ParseError(f"unknown vertex {args.peg!r} for --peg")
    rng = _rng(args)
    peg = pegs(alg)[0] if args.peg is None else projective_at(alg, args.peg)
    tube = TubeId.parse(alg.field, args.tube)
    # the mouth orbit[socle] as S[1]; uniserial_tower checks the socle index
    s = uniserial_tower(alg, tube, args.socle, 1, rng).top_module
    growth = peg_hom_growth(peg, s, args.rmax, rng)
    return {"dims": growth.dims,
            "monomorphism_witness": [w is not None for w in growth.witnesses]}


@command("slope", **ALG, **REP, **{"--format": {"choices": ("json", "tsv"), "default": "json"}})
def cmd_slope(args):
    tub = TubularAlgebra(load_algebra(args.algebra))
    m = load_representation(args.rep, tub.algebra)
    s = slope(m, tub, _rng(args))
    d0 = tub.delta_zero(m.dims)
    di = tub.delta_infinity(m.dims)
    family = "t0" if s == Slope.zero() else ("t-inf" if s.infinite else "middle")
    if args.format == "tsv":
        dims = ",".join(str(m.dims[v]) for v in tub.algebra.vertices)
        header = "dim_vector\tdelta0\tdelta_inf\tslope\tfamily"
        return header + "\n" + f"{dims}\t{d0}\t{di}\t{s}\t{family}"
    return {"dims": {v: m.dims[v] for v in tub.algebra.vertices},
            "delta0": d0, "delta_inf": di, "slope": str(s), "family": family}


@command("slope-check", seeded=True, **ALG, **PAIR)
def cmd_slope_check(args):
    tub = TubularAlgebra(load_algebra(args.algebra))
    m = load_representation(args.source, tub.algebra)
    n = load_representation(args.target, tub.algebra)
    verdict = slope_order_check(m, n, tub, _rng(args))
    return {"applicable": verdict.applicable, "passed": verdict.passed,
            "hom_dim": verdict.hom_dimension,
            "slope_source": str(verdict.slope_source),
            "slope_target": str(verdict.slope_target)}


@command("chain", seeded=True, **ALG,
         **{"--ratios": {"required": True}, "--budget": {"type": int, "default": 16}})
def cmd_chain(args):
    tub = TubularAlgebra(load_algebra(args.algebra))
    chain = chain_toward_slope(tub, _comma_list("--ratios", args.ratios), _rng(args),
                               args.budget)
    return {
        "slopes": [str(s) for s in chain.slopes],
        "modules": [rep_to_json(m, include_algebra=False) for m in chain.modules],
        "inclusions": [morphism_to_json(f) for f in chain.inclusions],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canrep",
        description="exact computations with modules over canonical algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (seeded, flags) in _FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=None, required=seeded)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = HANDLERS[args.command](args)
    except ParseError as exc:
        sys.stdout.write(dumps({"error": {"kind": "parse", "message": str(exc)}}))
        return 2
    except CanrepError as exc:
        payload = {"error": {"kind": "domain", "message": str(exc)}}
        if exc.diagnostic:
            payload["error"]["diagnostic"] = exc.diagnostic
        sys.stdout.write(dumps(payload))
        return 1
    if isinstance(result, str):
        sys.stdout.write(result + "\n")
    else:
        result.setdefault("command", args.command)
        sys.stdout.write(dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
