"""The benchmark workloads: seeded inputs, item lists and exact oracles.

A workload's function runs during set-up.  It constructs the algebras and the
seeded inputs and returns the workload's fixed item list.  An item is one
top-level unit of user work: a callable that takes a fresh per-item
``random.Random`` and returns True when its result passes the item's exact
oracle.  Items only call canrep's public API.

Which items a pass holds (tubes, pairs, summands) is fixed: each workload draws
it from ``random.Random(SHAPES)``.  The seed draws the random bases that every
input is conjugated by and the items' own random choices.  When the seed also
drew the item mix, the cost of a pass differed by up to 25% between seeds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

from canrep import approx, cli, homology, repcat, serialize, trisection, tubular_slopes
from canrep.exactla import Matrix, PrimeField, RationalField
from canrep.quiver_algebra import canonical_algebra

Item = namedtuple("Item", "kind run")
SHAPES = 0

F3 = PrimeField(3)
F5 = PrimeField(5)
QQ = RationalField()

TubeId = trisection.TubeId
Label = trisection.TrisectLabel


def warm_sympy():
    """Trigger the library's own first sympy import, as a first user call would."""
    repcat.factor_poly(F5, (1, 0, 1))


def _conjugate(rep, rng):
    """An isomorphic copy of rep under a random change of basis at every vertex."""
    alg, F = rep.algebra, rep.field
    g = {}
    for v in alg.vertices:
        n = rep.dims[v]
        while True:
            cand = Matrix(F, n, n, [[F.random(rng) for _ in range(n)] for _ in range(n)])
            inv = cand.inverse()
            if inv is not None:
                g[v] = (cand, inv)
                break
    arrows = {a.label: g[a.target][0] * rep.arrows[a.label] * g[a.source][1]
              for a in alg.arrows}
    return repcat.Representation(alg, dict(rep.dims), arrows)


def _point(F, a):
    """The homogeneous tube at the degree-one point t - a."""
    return TubeId.for_point((F.neg(F.coerce(a)), F.one))


def _degree2_points(p):
    """All monic irreducible quadratics over F_p, as tube labels."""
    return [TubeId.for_point((c, b, 1))
            for b in range(p) for c in range(p)
            if all((x * x + b * x + c) % p for x in range(p))]


# ---------------------------------------------------------------------------
# tube-certify: the splitter on already-local modules, negative iso answers
# ---------------------------------------------------------------------------

# Item counts are chosen so that the median and the p90 item each fall inside a
# group of items of similar cost, not on a step between two groups.
# regular length r -> (tubes of degree one, with ∞, of 6; tubes of degree two, of 10)
CERTIFY_TUBES = {1: (2, 3), 2: (2, 5), 3: (2, 3)}
# same-dims pairs per dimension vector (d, d), d = r * degree
ISO_PAIRS = {1: 4, 2: 4, 3: 4, 4: 20, 6: 4}


def _certify(m, label):
    def run(rng):
        return (trisection.classify(m, rng) is label
                and len(repcat.indecomposable_summands(m, rng)) == 1)
    return run


def _distinct(a, b):
    def run(rng):
        return repcat.is_isomorphic(a, b, rng) is None
    return run


def tube_certify(seed):
    rng, shapes = random.Random(seed), random.Random(SHAPES)
    alg = canonical_algebra(F5, [], [])
    items = []
    preproj = [repcat.projective_at(alg, "c")]
    for _ in range(2):
        preproj.append(homology.tau_inverse(preproj[-1]))
    items += [Item("certify", _certify(_conjugate(m, rng), Label.P)) for m in preproj]
    items += [Item("certify", _certify(_conjugate(repcat.injective_at(alg, v), rng), Label.Q))
              for v in ("0", "c")]
    deg1 = [TubeId.for_point(None)] + [_point(F5, a) for a in range(5)]
    deg2 = _degree2_points(5)
    towers = {(tube, r): _conjugate(trisection.uniserial_tower(alg, tube, 0, r, rng).top_module, rng)
              for tube in deg1 + deg2 for r in (1, 2, 3)}
    for r, (n1, n2) in CERTIFY_TUBES.items():
        chosen = shapes.sample(deg1, n1) + shapes.sample(deg2, n2)
        items += [Item("certify", _certify(towers[tube, r], Label.T)) for tube in chosen]
    # modules of equal dims lie in distinct tubes, so every pair is non-isomorphic
    by_dims = {}
    for m in towers.values():
        by_dims.setdefault(m.dims_tuple(), []).append(m)
    for dims in sorted(by_dims):
        pairs = list(itertools.combinations(by_dims[dims], 2))
        for a, b in shapes.sample(pairs, ISO_PAIRS[dims[0]]):
            items.append(Item("iso", _distinct(a, b)))
    shapes.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# mixed-decompose: the splitter on real direct sums, positive iso answers
# ---------------------------------------------------------------------------

DECOMPOSE_PER_K = {F3: 8, F5: 16}   # items per number of summands k = 1..4
PARTITIONS = 24


def _summand_pool(field):
    alg = canonical_algebra(field, [], [])
    pool = [repcat.projective_at(alg, "c"), repcat.projective_at(alg, "0"),
            repcat.simple_at(alg, "0"), repcat.injective_at(alg, "c")]
    pool += [trisection.regular_simples(alg, _point(field, a))[0] for a in (0, 1, 2)]
    pool.append(trisection.uniserial_tower(alg, _point(field, 0), 0, 2).top_module)
    return alg, pool


def _recovers(mixed, parts):
    def run(rng):
        dec = repcat.decompose(mixed, rng)
        leaves = [r for r, mult in dec.summands for _ in range(mult)]
        if len(leaves) != len(parts):
            return False
        unmatched = list(parts)
        for leaf in leaves:
            hit = next((u for u in unmatched
                        if repcat.is_isomorphic(leaf, u, rng) is not None), None)
            if hit is None:
                return False
            unmatched.remove(hit)
        return True
    return run


def _partitions(mixed, tube, inside_dim):
    def run(rng):
        part = trisection.partition_by_tubes(mixed, [tube], rng)
        return (part.inside.total_dim == inside_dim
                and repcat.hom_dim(part.inside, part.outside) == 0
                and repcat.hom_dim(part.outside, part.inside) == 0)
    return run


def mixed_decompose(seed):
    rng, shapes = random.Random(seed), random.Random(SHAPES)
    items = []
    for field, per_k in DECOMPOSE_PER_K.items():
        alg, pool = _summand_pool(field)
        for k in (1, 2, 3, 4):
            for _ in range(per_k):
                parts = [shapes.choice(pool) for _ in range(k)]
                while sum(p.total_dim for p in parts) > 10:
                    parts = [shapes.choice(pool) for _ in range(k)]
                mixed = _conjugate(repcat.direct_sum(parts, alg).rep, rng)
                items.append(Item("decompose", _recovers(mixed, parts)))
    alg = canonical_algebra(F5, [], [])
    tubes = [_point(F5, a) for a in (0, 1, 2)] + [TubeId.for_point(None)]
    pool = []
    for tube in tubes:
        pool.append((tube, trisection.regular_simples(alg, tube, rng)[0]))
        pool.append((tube, trisection.uniserial_tower(alg, tube, 0, 2, rng).top_module))
    # an S[2] inside the chosen tube plus one or two regular simples
    for j in range(PARTITIONS):
        chosen = [shapes.choice(pool[1::2])] + [shapes.choice(pool[::2])
                                                for _ in range(1 + j % 2)]
        inside = chosen[0][0]
        mixed = _conjugate(repcat.direct_sum([m for _, m in chosen], alg).rep, rng)
        inside_dim = sum(m.total_dim for t, m in chosen if t == inside)
        items.append(Item("partition", _partitions(mixed, inside, inside_dim)))
    shapes.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# ext-ar: presentations, Ext^1 and the AR translate, no splitter
# ---------------------------------------------------------------------------

EXT_AR_COUNTS = {"hom": 80, "ext": 80, "ar": 80, "tau": 16, "uext": 13}


def _kron_samples(rng):
    alg = canonical_algebra(F5, [], [])
    p = [repcat.projective_at(alg, "c"), repcat.projective_at(alg, "0")]
    for i in range(3):
        p.append(homology.tau_inverse(p[i]))
    t = []
    for a in (0, 1, 2, 3):
        tube = _point(F5, a)
        t.append(trisection.regular_simples(alg, tube, rng)[0])
        t.append(trisection.uniserial_tower(alg, tube, 0, 2, rng).top_module)
    for a in (0, 1):
        t.append(trisection.uniserial_tower(alg, _point(F5, a), 0, 3, rng).top_module)
    inf = TubeId.for_point(None)
    t.append(trisection.regular_simples(alg, inf, rng)[0])
    t.append(trisection.uniserial_tower(alg, inf, 0, 2, rng).top_module)
    q = [repcat.simple_at(alg, "0"), repcat.injective_at(alg, "c")]
    for i in range(3):
        q.append(homology.tau(q[i]))
    return alg, p, t, q


def _c222_samples(rng):
    alg = canonical_algebra(F5, [2, 2, 2], [2])
    p = [repcat.projective_at(alg, v) for v in alg.vertices]
    p.append(homology.tau_inverse(repcat.projective_at(alg, "c")))
    t = []
    for i in (1, 2, 3):
        t += trisection.regular_simples(alg, TubeId.for_arm(i), rng)
        t.append(trisection.uniserial_tower(alg, TubeId.for_arm(i), 0, 2, rng).top_module)
    for a in (1, 4):   # the special scalars over F_5 are 0 and 2
        t.append(trisection.regular_simples(alg, _point(F5, a), rng)[0])
    q = [repcat.injective_at(alg, v) for v in alg.vertices]
    q.append(homology.tau(repcat.injective_at(alg, "0")))
    q.append(homology.tau(repcat.injective_at(alg, "c")))
    return alg, p, t, q


def _coxeter(alg):
    """Phi with <y, Phi x> = -<x, y>: dim tau M = Phi(dim M) for M without
    projective summands and of projective dimension <= 1."""
    n = len(alg.vertices)
    unit = [{v: int(i == j) for j, v in enumerate(alg.vertices)} for i in range(n)]
    euler = Matrix(QQ, n, n, [[Fraction(alg.euler_form(unit[i], unit[j]))
                               for j in range(n)] for i in range(n)])
    neg_t = Matrix(QQ, n, n, [[-euler.data[j][i] for j in range(n)] for i in range(n)])
    return euler.inverse() * neg_t


def _dims_after(phi, alg, dims):
    vec = Matrix.column(QQ, [Fraction(dims[v]) for v in alg.vertices])
    out = phi * vec
    return {v: int(out.data[i][0]) for i, v in enumerate(alg.vertices)}


def _hom_zero(x, y):
    return lambda rng: repcat.hom_dim(x, y) == 0


def _ext_zero(x, y):
    return lambda rng: homology.ext1_dim(x, y) == 0


def _ar_duality(treg, ttau, m):
    return lambda rng: homology.ext1_dim(treg, m) == repcat.hom_dim(m, ttau)


def _tau_dims(m, expected):
    return lambda rng: homology.tau(m).dims == expected


def _universal(m, mouths):
    def run(rng):
        ue = homology.universal_extension(m, mouths)
        grown = sum(d * s.total_dim for s, d in zip(ue.simples, ue.multiplicities))
        return ue.sequence.middle.total_dim == m.total_dim + grown
    return run


def _period(s, expected):
    return lambda rng: trisection.tau_period(s, rng) == expected


def ext_ar(seed):
    rng, shapes = random.Random(seed), random.Random(SHAPES)
    pools = {"hom": [], "ext": [], "ar": [], "tau": [], "uext": []}
    for alg, *samples in (_kron_samples(rng), _c222_samples(rng)):
        p, t, q = ([_conjugate(m, rng) for m in group] for group in samples)
        taus = [homology.tau(m) for m in t]
        phi = _coxeter(alg)
        pools["hom"] += [_hom_zero(x, y) for x, y in itertools.product(t, p)]
        pools["hom"] += [_hom_zero(x, y) for x, y in itertools.product(q, p + t)]
        pools["ext"] += [_ext_zero(x, y) for x in p + t for y in q
                         if x.total_dim <= 12 and y.total_dim <= 12]
        pools["ar"] += [_ar_duality(tr, tt, m) for tr, tt in zip(t, taus) for m in p + t + q]
        # the Coxeter formula needs projective dimension <= 1: all modules over
        # the hereditary Kronecker algebra, tube modules otherwise
        pd1 = t + q if not alg.weights else t
        pools["tau"] += [_tau_dims(m, _dims_after(phi, alg, m.dims)) for m in pd1]
        if not alg.weights:
            mouths = [trisection.regular_simples(alg, _point(F5, a), rng)[0] for a in (0, 1, 2)]
            mouths.append(trisection.regular_simples(alg, TubeId.for_point(None), rng)[0])
            pools["uext"] += [_universal(m, mouths) for m in (p + t)[:13]]
    items = [Item(kind, run) for kind, count in EXT_AR_COUNTS.items()
             for run in shapes.sample(pools[kind], count)]
    alg23 = canonical_algebra(F5, [2, 3], [])
    alg222 = canonical_algebra(F5, [2, 2, 2], [2])
    periods = [(trisection.regular_simples(alg23, TubeId.for_arm(1), rng)[0], 2),
               (trisection.regular_simples(alg23, TubeId.for_arm(2), rng)[0], 3),
               (trisection.regular_simples(alg23, _point(F5, 2), rng)[0], 1),
               (trisection.regular_simples(alg222, _point(F5, 1), rng)[0], 1)]
    periods += [(trisection.regular_simples(alg222, TubeId.for_arm(i), rng)[0], 2)
                for i in (1, 2, 3)]
    items += [Item("tau_period", _period(_conjugate(s, rng), k)) for s, k in periods]
    shapes.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# approx-slopes: omega-approximations, the generic module, tubular slopes
# ---------------------------------------------------------------------------

SLOPE_PAIRS = 120
SLOPES = ("0", "1", "∞", "1/3", "1/2")


def _left_approx(alg, a, r):
    pc = repcat.projective_at(alg, "c")
    tube = _point(QQ, a)

    def run(rng):
        ap = approx.left_omega_approx(pc, approx.TruncationParams((tube,), r), rng)
        s = trisection.regular_simples(alg, tube, rng)[0]
        return (ap.middle.dims == {"0": r, "c": r + 1}
                and ap.certificates["ext_killed"] and ap.certificates["f_preserved"]
                and repcat.hom_dim(s, ap.middle) == 0)
    return run


def _right_approx(alg, a):
    s_inj = repcat.simple_at(alg, "0")
    tube = _point(QQ, a)

    def run(rng):
        ap = approx.right_omega_approx(s_inj, approx.TruncationParams((tube,), 1), rng)
        return (ap.certificates["kernel_torsionfree"]
                and ap.certificates["kernel_labels"] in ([], ["P"])
                and all(repcat.hom_dim(s, ap.sequence.sub) == 0
                        for s in trisection.regular_simples(alg, tube, rng)))
    return run


def _generic(alg):
    def run(rng):
        gm = approx.kronecker_generic(alg)
        return repcat.hom_dim(gm.module, gm.module) == 1 and approx.endolength(gm) == 2
    return run


def _peg_growth(alg, a, rmax):
    pc = repcat.projective_at(alg, "c")

    def run(rng):
        s = trisection.regular_simples(alg, _point(QQ, a), rng)[0]
        growth = approx.peg_hom_growth(pc, s, rmax, rng)
        return (growth.dims == list(range(1, rmax + 1))
                and all(w is not None and w.is_injective() for w in growth.witnesses))
    return run


def _slope_pool(tub, text):
    target = tubular_slopes.Slope.parse(text)

    def run(rng):
        pool = tubular_slopes.slope_pool(tub, target, rng, 12)
        if not pool or any(m.total_dim > 12 or tub.slope_of_dims(m.dims) != target
                           for m in pool):
            return False
        if target == tubular_slopes.Slope.zero():
            return all(tub.delta_infinity(m.dims) < 0 for m in pool)
        if target.infinite:
            return all(tub.delta_zero(m.dims) > 0 for m in pool)
        return True
    return run


def _slope_order(m, n, tub):
    def run(rng):
        verdict = tubular_slopes.slope_order_check(m, n, tub, rng)
        return verdict.passed
    return run


def _chain(tub):
    def run(rng):
        chain = tubular_slopes.chain_toward_slope(tub, ["0", "1"], rng, budget=16)
        return (len(chain.modules) == 2 and chain.inclusions[0].is_injective()
                and all(m.total_dim <= 16 for m in chain.modules))
    return run


def approx_slopes(seed):
    rng, shapes = random.Random(seed), random.Random(SHAPES)
    kron = canonical_algebra(QQ, [], [])
    items = []
    for r in range(1, 6):
        items.append(Item("left", _left_approx(kron, shapes.randrange(4), r)))
    items += [Item("right", _right_approx(kron, shapes.randrange(4))) for _ in range(2)]
    items += [Item("generic", _generic(kron)) for _ in range(2)]
    # six peg items, all of one cost, hold the p95 item (the 8th slowest of 141)
    items += [Item("peg", _peg_growth(kron, shapes.randrange(4), 6)) for _ in range(6)]
    tub = tubular_slopes.TubularAlgebra(canonical_algebra(F5, [2, 2, 2, 2], [2, 3]))
    catalog = []
    for text in SLOPES:
        catalog += [_conjugate(m, rng) for m in tubular_slopes.slope_pool(
            tub, tubular_slopes.Slope.parse(text), rng, 12)[:10]]
        items.append(Item("slope_pool", _slope_pool(tub, text)))
    pairs = list(itertools.product(range(len(catalog)), repeat=2))
    items += [Item("slope_order", _slope_order(catalog[i], catalog[j], tub))
              for i, j in shapes.sample(pairs, SLOPE_PAIRS)]
    items.append(Item("chain", _chain(tub)))
    shapes.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# cli-calls: whole CLI invocations, paying interpreter start and imports
# ---------------------------------------------------------------------------

# Each call runs this often per pass, and its repeats must print the same.
# The two calls that import sympy run once more, so that p75 falls among them.
CLI_REPEATS = {"classify": 4, "decompose": 4}


def _write(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return str(path)


def _cli_calls_argv(seed, workdir):
    """[(argv, check)] with check(parsed stdout) the call's exact oracle."""
    rng, shapes = random.Random(seed), random.Random(SHAPES)
    workdir.mkdir(parents=True, exist_ok=True)
    kron = canonical_algebra(F5, [], [])
    kron_path = _write(workdir / "kron.json", kron.spec())
    a, b = shapes.sample(range(5), 2)
    tube, other = _point(F5, a), _point(F5, b)
    tower = trisection.uniserial_tower(kron, tube, 0, 2, rng).top_module
    tower_path = _write(workdir / "tower.json", serialize.rep_to_json(_conjugate(tower, rng)))
    simple = trisection.regular_simples(kron, other, rng)[0]
    mix = repcat.direct_sum([simple, repcat.projective_at(kron, "0")]).rep
    mix_path = _write(workdir / "mix.json", serialize.rep_to_json(_conjugate(mix, rng)))
    pc_path = _write(workdir / "pc.json",
                     serialize.rep_to_json(repcat.projective_at(kron, "c")))
    simple_path = _write(workdir / "simple.json", serialize.rep_to_json(simple))
    tub = tubular_slopes.TubularAlgebra(canonical_algebra(F5, [2, 2, 2, 2], [2, 3]))
    tub_path = _write(workdir / "tubular.json", tub.algebra.spec())
    sloped = shapes.choice(tubular_slopes.canonical_family_pool(tub, rng))
    sloped_path = _write(workdir / "sloped.json",
                         serialize.rep_to_json(_conjugate(sloped, rng)))
    hom_expected = repcat.hom_dim(simple, tower)
    ext_expected = homology.ext1_dim(tower, simple)
    seed_arg = str(rng.randrange(1000))
    return [
        (["classify", "--rep", tower_path], lambda out: out["label"] == "T"),
        (["decompose", "--seed", seed_arg, "--rep", mix_path],
         lambda out: sum(s["multiplicity"] for s in out["summands"]) == 2),
        (["omega-left", "--seed", seed_arg, "--tubes", tube.to_str(F5), "--depth", "2",
          "--rep", pc_path],
         lambda out: out["certificates"]["ext_killed"] and out["certificates"]["f_preserved"]),
        (["tube-simples", "--algebra", kron_path, "--tube", other.to_str(F5)],
         lambda out: len(out["simples"]) == 1),
        (["hom", "--source", simple_path, "--target", tower_path],
         lambda out: out["dim"] == hom_expected),
        (["ext", "--source", tower_path, "--target", simple_path],
         lambda out: out["dim"] == ext_expected),
        (["slope", "--algebra", tub_path, "--rep", sloped_path],
         lambda out: out["slope"] == "1"),
    ]


def _subprocess_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "canrep.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    return proc.returncode, proc.stdout


def _in_process_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode("utf-8")


def _cli_item(argv, check, call, seen):
    key = tuple(argv)

    def run(rng):
        code, out = call(argv)
        if code != 0:
            return False
        if seen.setdefault(key, out) != out:
            return False
        return bool(check(json.loads(out)))
    return run


def cli_calls(seed, workdir, in_process=False):
    """One item per CLI invocation; with in_process, cli.main runs in this process.

    The subprocesses inherit this process's environment, whose PYTHONPATH
    points at the checkout's sources.
    """
    call = _in_process_cli if in_process else _subprocess_cli
    seen = {}
    calls = _cli_calls_argv(seed, workdir)
    return [Item("cli:" + argv[0], _cli_item(argv, check, call, seen))
            for r in range(max(CLI_REPEATS.values()))
            for argv, check in calls if r < CLI_REPEATS.get(argv[0], 3)]
