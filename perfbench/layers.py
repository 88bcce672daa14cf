"""Per-layer metrics of one operation, from the traces of its commands.

Names are ``<module>.<what>``.  ``*_s`` span metrics are the inclusive time
of the outermost calls to the listed functions; ``*.self_s`` is the self time
of every wrapped call in the module; ``*.calls`` count wrapped calls.
"""

SPAN_TIMES = {
    "blowup.build_surface_s": {"blowup.build_surface"},
    "blowup.labeled_lines_s": {"blowup.labeled_lines"},
    "blowup.sample_points_s": {"blowup.sample_surface_points"},
    "forms.tritangent_planes_s": {"forms.tritangent_planes"},
    "forms.cayley_salmon_s": {"forms.cayley_salmon"},
    "forms.hexahedral_s": {"forms.hexahedral_from_cs", "forms.hexahedral_lines",
                           "forms.cs_from_hexahedral",
                           "forms.all_hexahedral_forms"},
    "determinantal.det_rep_s": {"determinantal.det_rep"},
    "determinantal.cubo_cubic_s": {"determinantal.cubo_cubic",
                                   "determinantal.cubo_cubic_inverse"},
    "determinantal.checks_s": {
        "determinantal.grassmann_nets", "determinantal.grassmann_param",
        "determinantal.param_lands_on_surface",
        "determinantal.preserves_surface", "determinantal.inverts_on_points",
        "determinantal.plane_image_cubic"},
    "quadrics.census_s": {"quadrics.six_line_quadric_census"},
    "quadrics.web_s": {"quadrics.quadric_web", "quadrics.steinerian",
                       "quadrics.residual_family_rank"},
    "quadrics.grouping_s": {"quadrics.intersection_point_grouping"},
    "species.conjugation_s": {"species.conjugation_action"},
    "species.census_s": {"species.involution_census"},
}
SELF_TIMES = ("cli", "field", "linalg", "multipoly", "binforms", "projgeom",
              "incidence", "hexagram")
ELEMENT_OPS = {f"field.FieldElement.{op}" for op in
               ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                "__truediv__", "__rtruediv__", "inverse")}
CALLS = {
    "field.tower_init.calls": {"field.FieldTower.__init__"},
    "field.element_ops.calls": ELEMENT_OPS,
    "linalg.rref.calls": {"linalg.ExactMatrix.rref"},
    "linalg.kernel.calls": {"linalg.ExactMatrix.kernel_basis"},
    "linalg.det.calls": {"linalg.ExactMatrix.det", "linalg.det3"},
    "multipoly.mul.calls": {"multipoly.MultiPoly.__mul__"},
    "multipoly.substitute.calls": {"multipoly.MultiPoly.substitute"},
    "multipoly.divide_exact.calls": {"multipoly.MultiPoly.divide_exact"},
    "multipoly.gcd.calls": {"multipoly.homogeneous_gcd"},
    "binforms.solve_cubic.calls": {"binforms.solve_cubic"},
    "incidence.group_closure.calls": {"incidence.group_closure"},
    "incidence.enumerate_double_sixes.calls": {"incidence.enumerate_double_sixes"},
    "quadrics.residual_quadric.calls": {"quadrics.residual_quadric"},
    "hexagram.projections.calls": {"hexagram.project_hexagram"},
}
GCD_SOLVES = "multipoly.gcd.kernel_solves_per_call"
UNITS = {**{m: "s" for m in SPAN_TIMES}, **{f"{m}.self_s": "s" for m in SELF_TIMES},
         **{m: "count" for m in CALLS}, "projgeom.calls": "count",
         "hexagram.projections.errors": "count", GCD_SOLVES: "ratio",
         "multipoly.max_coeff_bits": "bits"}

# Where the layer table predicts work (a benchmark self-check in
# selfcheck.py): a metric listed here must be non-zero on that workload.
WORKS_ON = {
    "cli.self_s": ("verify-q", "species-qi", "quick-q"),
    "blowup.build_surface_s": ("verify-q", "species-qi", "quick-q"),
    "field.tower_init.calls": ("species-qi",),
    "field.element_ops.calls": ("species-qi", "verify-q"),
    "linalg.kernel.calls": ("verify-q", "species-qi", "quick-q"),
    "multipoly.mul.calls": ("verify-q", "quick-q"),
    "multipoly.gcd.calls": ("verify-q",),
    "binforms.solve_cubic.calls": ("quick-q", "verify-q"),
    "projgeom.calls": ("verify-q", "species-qi", "quick-q"),
    "incidence.group_closure.calls": ("species-qi", "verify-q"),
    "forms.tritangent_planes_s": ("verify-q", "species-qi", "quick-q"),
    "forms.hexahedral_s": ("quick-q", "verify-q"),
    "determinantal.det_rep_s": ("verify-q", "species-qi", "quick-q"),
    "determinantal.cubo_cubic_s": ("verify-q",),
    "quadrics.census_s": ("verify-q",),
    "quadrics.residual_quadric.calls": ("verify-q",),
    "quadrics.web_s": ("verify-q",),
    "quadrics.grouping_s": ("verify-q",),
    "hexagram.self_s": ("verify-q",),
    "hexagram.projections.calls": ("verify-q",),
    "species.conjugation_s": ("species-qi", "verify-q"),
    "species.census_s": ("species-qi", "verify-q"),
}


def _outermost_time(spans, group):
    total = 0.0
    for name, start, end, parent in spans:
        if name not in group:
            continue
        while parent >= 0 and spans[parent][0] not in group:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def op_metrics(traces):
    """Per-layer metrics summed over the traced commands of one operation."""
    out = dict.fromkeys(UNITS, 0)
    gcd_solves = 0
    for trace in traces:
        spans = trace["spans"]
        for metric, group in SPAN_TIMES.items():
            out[metric] += _outermost_time(spans, group)
        for parent, name, calls, errors, self_s in trace["counters"]:
            module = name.split(".", 1)[0]
            if module in SELF_TIMES:
                out[f"{module}.self_s"] += self_s
            if module == "projgeom":
                out["projgeom.calls"] += calls
            for metric, group in CALLS.items():
                if name in group:
                    out[metric] += calls
            if name == "hexagram.project_hexagram":
                out["hexagram.projections.errors"] += errors
            if (name == "linalg.ExactMatrix.kernel_basis" and parent >= 0
                    and spans[parent][0] == "multipoly.homogeneous_gcd"):
                gcd_solves += calls
        out["multipoly.max_coeff_bits"] = max(out["multipoly.max_coeff_bits"],
                                              trace["max_coeff_bits"])
    gcd_calls = out["multipoly.gcd.calls"]
    out[GCD_SOLVES] = gcd_solves / gcd_calls if gcd_calls else 0
    return out
