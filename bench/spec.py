"""Names of the benchmark's workloads and metrics, shared by its scripts.

BENCHMARK.json at the repository root is generated from these lists (see
steady.py); run.py checks that every run reports exactly these metrics.
"""

RUN_SECONDS = 18

WORKLOADS = {
    "tube-certify": "Kronecker/F_5 classify and certify tube, P and I modules plus negative "
                    "iso checks: the splitter failing to split local modules",
    "mixed-decompose": "conjugated direct sums over F_3 and F_5 decomposed and tube-partitioned: "
                       "the splitter splitting for real, positive iso answers",
    "ext-ar": "Hom, Ext^1, AR duality, tau, universal extensions and tau periods over F_5: "
              "presentations and rref, no splitter or sympy",
    "approx-slopes": "omega-approximations and the generic module over Q and Q(t), tubular "
                     "(2,2,2,2) slope pools, order checks and chains",
    "cli-calls": "sequential canrep CLI subprocesses on JSON inputs: interpreter start, imports "
                 "and the per-process sympy import",
}

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen, set from steady.py's spreads.
END_TO_END = [
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Functions wrapped by the traced run whose calls and self time are reported.
REPORTED_SPANS = [
    "exactla.Matrix.rref",
    "exactla.Matrix.solve",
    "exactla.Matrix.kernel_basis",
    "exactla.Matrix.inverse",
    "exactla.Matrix.__mul__",
    "repcat.core.hom_basis",
    "repcat.core.minimal_projective_presentation",
    "repcat.decomp.indecomposable_summands",
    "repcat.decomp.decompose",
    "repcat.decomp.endo_minimal_polynomial",
    "repcat.decomp.factor_poly",
    "repcat.decomp.is_isomorphic",
    "homology.ExtSpace",
    "homology.tau",
    "homology.tau_inverse",
    "homology.universal_extension",
    "quiver_algebra.euler_form",
    "tubular_slopes.slope_pool",
    "tubular_slopes.slope_order_check",
    "tubular_slopes.chain_toward_slope",
    "approx.left_omega_approx",
    "approx.right_omega_approx",
    "approx.peg_hom_growth",
    "trisection.classify",
    "trisection.regular_simples",
    "trisection.uniserial_tower",
    "trisection.tau_period",
    "trisection.partition_by_tubes",
    "serialize.load_representation",
    "serialize.dumps",
]

PER_LAYER = [m for span in REPORTED_SPANS
             for m in ((span + ".calls", "count", "lower"), (span + ".self_s", "s", "lower"))]
PER_LAYER += [
    ("exactla.Matrix.rref.cells", "count", "lower"),
    ("exactla.Matrix.__init__.calls", "count", "lower"),
    ("repcat.core.hom_basis.unknowns", "count", "lower"),
    ("repcat.decomp.factor_poly.split_ratio", "ratio", "higher"),
    ("repcat.decomp.is_isomorphic.found_ratio", "ratio", "higher"),
    ("repcat.decomp.minpoly_per_module", "ratio", "lower"),
    ("cli.python_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.sympy_import_ms", "ms", "lower"),
    ("trace.items_per_s", "1/s", "higher"),
    ("trace.untraced_items_per_s", "1/s", "higher"),
    ("trace.overhead_items_per_s", "1/s", "higher"),
]


def benchmark_json(bounds=None):
    """The BENCHMARK.json document, with bounds overriding END_TO_END's."""
    bounds = bounds or {}
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bounds.get(n, bound)}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
