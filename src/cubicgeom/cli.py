"""Command-line interface: construct surfaces, run the classical
configuration pipelines, and emit deterministic text/JSON reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import cached_property

from . import incidence as inc
from .field import QQ, ZeroDivisorError, scalar_from_json, scalar_to_json
from .multipoly import monomials
from .binforms import irreducible_over_q
from .blowup import SixPoints, build_surface, labeled_lines, incidence_table
from .fixtures import fixture_points, species_points
from .forms import (tritangent_planes, cayley_salmon, hexahedral_from_cs,
                    cs_from_hexahedral, all_hexahedral_forms, hexahedral_lines)
from .determinantal import (det_rep, grassmann_nets, grassmann_param,
                            param_lands_on_surface, cubo_cubic,
                            cubo_cubic_inverse, preserves_surface,
                            inverts_exactly, plane_cubic, plane_image_cubic)
from .quadrics import (quadric_web, six_line_quadric_census,
                       intersection_point_grouping, residual_family_rank)
from .hexagram import hexagram_config, pentahedra, verify_all_pairs
from .species import (SPECIES_PROFILES, conjugation_action, classify_species,
                      involution_census)


def _poly_json(p, monos):
    return {"".join(map(str, e)): scalar_to_json(p.coefficient(e))
            for e in monos if p.coefficient(e)}


class SchemaError(ValueError):
    pass


def _require(ok, message):
    if not ok:
        raise SchemaError(message)


def _scalars(tower, data, what):
    _require(isinstance(data, list), f"{what} must be a list")
    try:
        return [scalar_from_json(tower, c) for c in data]
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def load_points(path):
    """Parse {"schema": 1, "field": {"levels": [...]}, "points": [...]}.

    Raises SchemaError unless there are six nonzero points of three scalars
    each and every level is a monic polynomial of degree 2 or 3; a level over
    Q must also be irreducible.  A scalar over a level is a "p/q" string or a
    list of exactly the level's degree of scalars over the level below.
    """
    with open(path) as fh:
        data = json.load(fh)
    _require(isinstance(data, dict) and type(data.get("schema")) is int
             and data["schema"] == 1,
             'input must be an object with "schema": 1')
    field = data.get("field") or {}
    levels = field.get("levels", []) if isinstance(field, dict) else None
    _require(isinstance(levels, list), '"field" must hold a list of "levels"')
    points = data.get("points")
    _require(isinstance(points, list) and len(points) == 6,
             '"points" must be a list of 6 points')
    tower = QQ
    for level in levels:
        modulus = _scalars(tower, level, "a level")
        # Over Q, a reducible modulus would make some inverse hit a zero
        # divisor, or make general points look degenerate.
        _require(len(modulus) in (3, 4) and modulus[-1] == 1
                 and (tower.height or irreducible_over_q(modulus)),
                 f"the level {level} is not a monic polynomial of degree 2 or "
                 "3, irreducible if over Q")
        tower = tower.extend(modulus)
    coords = [_scalars(tower, p, "a point") for p in points]
    _require(all(len(c) == 3 for c in coords), "a point must have 3 coordinates")
    _require(all(any(c) for c in coords), "a point must not be (0, 0, 0)")
    return SixPoints(coords, tower)


class Session:
    """The surface chain of one input, each stage computed on first use and
    kept: surface -> lines -> planes -> first_cs -> rep, first_cs -> hexforms
    -> hexlines (the first form's 15 lines and double-six, read from the
    trios of its planes among the 45), and lines -> grouping (the 135 line
    meets, and the 12 nodes of each trio).
    """

    def __init__(self, points):
        self.points = points

    @cached_property
    def surface(self):
        return build_surface(self.points)

    @cached_property
    def lines(self):
        return labeled_lines(self.surface)

    @cached_property
    def grouping(self):
        return intersection_point_grouping(self.lines)

    @cached_property
    def planes(self):
        return tritangent_planes(self.lines)

    @cached_property
    def first_cs(self):
        """The Cayley-Salmon form of the first trihedral pair."""
        return cayley_salmon(self.surface, inc.enumerate_trieder_pairs()[0],
                             self.planes)

    @cached_property
    def rep(self):
        return det_rep(self.first_cs, self.surface)

    @cached_property
    def hexforms(self):
        return hexahedral_from_cs(self.first_cs, self.surface, self.planes)

    @property
    def hexform(self):
        return self.hexforms[0]

    @cached_property
    def hexlines(self):
        return hexahedral_lines(self.hexform, self.planes)


def _session(args):
    return Session(load_points(args.input) if args.input else fixture_points())


def cmd_construct(args):
    s = _session(args)
    report = {"surface": _poly_json(s.surface.F, monomials(4, 3)),
              "lines": {inc.label_str(lab): s.lines[lab].to_json()
                        for lab in inc.ALL_LABELS}}
    text = ["surface cubic coefficients (monomial: value):"]
    text += [f"  {m}: {c}" for m, c in sorted(report["surface"].items())]
    text.append("27 lines:")
    for lab in inc.ALL_LABELS:
        p, q = s.lines[lab].span()
        text.append(f"  {inc.label_str(lab)}: span {p.to_json()} {q.to_json()}")
    return report, text


def _counts(s):
    """The configuration counts of the report, enneahedra aside."""
    ds = inc.enumerate_double_sixes()
    split = Counter(inc.double_six_family(d) for d in ds)
    return {"tritangent_planes": len(s.planes), "double_sixes": len(ds),
            "double_six_family_split": {str(k): split[k] for k in sorted(split)},
            "trieder_pairs": len(inc.enumerate_trieder_pairs()),
            "triads": len(inc.enumerate_triads())}


def cmd_configurations(args):
    report = _counts(_session(args))
    report["enneahedra"] = len(inc.enumerate_enneahedra())
    text = [f"tritangent planes: {report['tritangent_planes']}",
            f"double-sixes: {report['double_sixes']} (families "
            + "/".join(map(str, report["double_six_family_split"].values())) + ")",
            f"trieder pairs: {report['trieder_pairs']}",
            f"triads: {report['triads']}",
            f"enneahedra: {report['enneahedra']}"]
    return report, text


def _cayley_salmon_pairs(s, full):
    """Solve F = lam*PQR + mu*STU for the first 12 (full: all 120) trihedral
    pairs; a pair without a decomposition raises.  Returns the pair count."""
    pairs = inc.enumerate_trieder_pairs()[:120 if full else 12]
    s.first_cs
    for pair in pairs[1:]:
        cayley_salmon(s.surface, pair, s.planes)
    return len(pairs)


def cmd_cayley_salmon(args):
    s = _session(args)
    checked = _cayley_salmon_pairs(s, args.full)
    first = s.first_cs
    report = {"pairs_checked": checked, "identities_verified": checked,
              "first_form": {"lambda": scalar_to_json(first.lam),
                             "mu": scalar_to_json(first.mu),
                             "planes": [h.to_json() for h in first.planes]}}
    text = [f"Cayley-Salmon identities verified: {checked}/{checked}",
            f"first pair: lambda = {report['first_form']['lambda']}, "
            f"mu = {report['first_form']['mu']}"]
    return report, text


def cmd_hexahedral(args):
    s = _session(args)
    if args.full:
        forms, by_ds = all_hexahedral_forms(s.surface, s.planes)
        report = {"forms": len(forms), "double_sixes": len(by_ds),
                  "forms_per_double_six": sorted(len(v) for v in by_ds.values())}
        text = [f"hexahedral forms: {len(forms)}",
                f"double-sixes hit: {len(by_ds)}",
                f"forms per double-six: {report['forms_per_double_six'][0]}"
                f"..{report['forms_per_double_six'][-1]}"]
        return report, text
    matched, ds = s.hexlines
    back = cs_from_hexahedral(s.hexform, s.surface)
    report = {"forms_found": len(s.hexforms), "c": scalar_to_json(s.hexform.c),
              "lines15": sorted(inc.label_str(l) for l in matched.values()),
              "double_six": sorted(inc.label_str(l) for l in ds),
              "cayley_salmon_splits": len(back)}
    text = [f"hexahedral forms from the first Cayley-Salmon form: {len(s.hexforms)}",
            f"sum x_i^3 = c*F with c = {report['c']}",
            "15 lines: " + " ".join(report["lines15"]),
            f"complementary double-six verified; "
            f"Cayley-Salmon splits recovered: {len(back)}"]
    return report, text


def _param_on_surface(s):
    """Whether the Grassmann-net parametrization lands on the surface."""
    gamma = grassmann_param(grassmann_nets(s.rep))
    return param_lands_on_surface(s.surface, gamma)


def cmd_determinantal(args):
    s = _session(args)
    on_surface = _param_on_surface(s)
    report = {"kappa": scalar_to_json(s.rep.kappa),
              "parametrization_on_surface": on_surface,
              "matrix": [[_poly_json(e, monomials(4, 1)) for e in row]
                         for row in s.rep.matrix]}
    text = [f"det M = kappa*F with kappa = {report['kappa']}",
            f"Grassmann parametrization lies on the surface: {on_surface}"]
    return report, text


def _cubo_cubic(s, seed):
    """The cubo-cubic map of the determinantal form: its degrees, and whether
    F o T, T' o T and a plane's image meet their exact identities (the
    image's cubic unique by a modular rank at seed's 25 sampled images)."""
    tmap, tinv = cubo_cubic(s.rep), cubo_cubic_inverse(s.rep)
    return {
        "component_degree": max(t.degree() for t in tmap.components),
        "factor_degree": tmap.factor.degree(),
        "preserves_surface": preserves_surface(tmap, s.surface),
        "inverse_composes_to_identity": inverts_exactly(tmap, tinv),
        "plane_image_cubic_kernel": plane_image_cubic(tmap, plane_cubic(tinv),
                                                      seed=seed),
    }


def cmd_cubo_cubic(args):
    report = _cubo_cubic(_session(args), args.seed)
    text = [f"cubic components after removing a degree-"
            f"{report['factor_degree']} common factor",
            f"surface preserved: {report['preserves_surface']}",
            f"T' o T = id as a polynomial identity: "
            f"{report['inverse_composes_to_identity']}",
            f"sampled plane maps into a single cubic surface: "
            f"{report['plane_image_cubic_kernel'] == 1}"]
    return report, text


def _webs(s, census):
    """The webs of the first 3 (census: all 45) trios, each on its group."""
    trios = sorted(inc.TRITANGENT_TRIOS,
                   key=lambda t: sorted(inc.LABEL_INDEX[l] for l in t))
    return [quadric_web(s.surface, trio, s.grouping[1][trio], s.planes[trio])
            for trio in (trios if census else trios[:3])]


def _census(s):
    """Per-set nonsingular counts, distinct count and multiplicities of the
    residual quadric census, as reported."""
    census = six_line_quadric_census(s.surface, s.planes)
    per = Counter(len(v["nonsingular"]) for v in census["per_set"].values())
    mult = Counter(census["multiplicities"])
    return ({str(k): per[k] for k in sorted(per)}, len(census["distinct"]),
            {str(k): mult[k] for k in sorted(mult)})


def _grouping(s):
    points, groups = s.grouping
    pcount = Counter(p for g in groups.values() for p in g)
    return {"points": len(set(points.values())), "groups": len(groups),
            "per_group": sorted({len(g) for g in groups.values()}),
            "memberships": sorted(set(pcount.values()))}


def cmd_desmic(args):
    s = _session(args)
    webs = _webs(s, args.census)
    web0 = webs[0]
    per, distinct, mult = _census(s)
    grouping = _grouping(s)
    rank8 = residual_family_rank(s.surface, web0.trio, s.planes)
    report = {
        "webs_checked": len(webs),
        "web_dimension": len(web0.basis),
        "residual_family_rank": rank8,
        "first_trio":
            "{" + ",".join(map(inc.label_str, inc.label_order(web0.trio))) + "}",
        "steinerian": _poly_json(web0.quartic, monomials(4, 4)),
        "nodes": [n.to_json() for n in web0.nodes],
        "tetrads": [list(t) for t in web0.tetrads],
        "census_per_set": per,
        "census_distinct": distinct,
        "census_multiplicities": mult,
        "grouping": grouping,
    }
    text = [f"webs computed: {len(webs)} (dimension "
            f"{report['web_dimension']}; full residual family rank "
            f"{rank8})",
            f"first trio {report['first_trio']}: Steinerian quartic with "
            f"{len(web0.nodes)} nodes, desmic tetrads "
            f"{report['tetrads']}",
            f"census: {per} nonsingular per set, {distinct} distinct, "
            f"multiplicities {mult}",
            f"grouping: {grouping['points']} points in "
            f"{grouping['groups']} groups of "
            f"{grouping['per_group']}, each point in "
            f"{grouping['memberships']} groups"]
    return report, text


def _hexagram(s, seed):
    """The hexagram configuration of the first hexahedral form, its
    pentahedra, and the projection check of all 60 pairs at 3 centers."""
    config = hexagram_config(s.hexform, s.hexlines[0], s.surface, s.lines)
    reports = verify_all_pairs(s.surface, config, s.lines, seed=seed)
    return {"cremona_pairs": len(config.cremona_pairs),
            "shared_line_pairs": len(config.shared_pairs),
            "pascal_lines": len(set(config.pascal_lines.values())),
            "pentahedra": len(pentahedra(config)),
            "projections_verified": len(reports)}


def cmd_hexagram(args):
    report = _hexagram(_session(args), args.seed)
    text = [f"Cremona pairs: {report['cremona_pairs']}; disjoint-index pairs "
            f"sharing a surface line: {report['shared_line_pairs']}",
            f"Pascal lines: {report['pascal_lines']}; pentahedra: "
            f"{report['pentahedra']}",
            f"projected hexagrams verified (3 centers each): "
            f"{report['projections_verified']}"]
    return report, text


def _species(points):
    s = Session(points)
    return classify_species(conjugation_action(s.surface, s.lines))


def cmd_species(args):
    classified = ([_species(load_points(args.input))] if args.input else
                  [_species(species_points(k)) for k in (1, 2, 3, 4)])
    reports = {str(k): list(profile) for k, profile in classified}
    census = involution_census()
    report = {"classified": reports,
              "census": {str(k): v for k, v in sorted(census.items())}}
    text = ["species classification (lines, tritangents, DS fixed, DS swapped):"]
    text += [f"  species {k}: {tuple(v)}" for k, v in sorted(reports.items())]
    text.append("involution census profiles:")
    text += [f"  {k}: {v}" for k, v in sorted(census.items())]
    return report, text


def _group():
    return {"order": inc.group_order(), "orbits": inc.orbit_sizes()}


def cmd_group(args):
    if args.input:
        load_points(args.input)  # a missing or malformed input exits 2
    report = _group()
    text = [f"group order: {report['order']}",
            "orbit sizes: " + ", ".join(f"{k}={v}" for k, v in
                                        sorted(report["orbits"].items()))]
    return report, text


def _hexahedral_seen(s, full):
    """Match every form of the first pair to 15 lines (raising if one fails);
    the first form's Cayley-Salmon splits, and with full all forms."""
    s.hexlines
    for hexform in s.hexforms[1:]:
        hexahedral_lines(hexform, s.planes)
    seen = {"splits": len(cs_from_hexahedral(s.hexform, s.surface))}
    if full:
        forms, by_ds = all_hexahedral_forms(s.surface, s.planes)
        seen.update(forms=len(forms), double_sixes=len(by_ds))
    return seen


def claims(full=False, census=False, seed=0):
    """verify-all's claims in report order, each (key, claim, observation of
    a Session, expected observation)."""
    return [
        ("lines", "27 distinct lines with the expected incidence table",
         lambda s: (len(set(s.lines.values())), {p for p, met in
                    incidence_table(s.lines).items()
                    if met != inc.meets_rule(*p)}), (27, set())),
        ("counts", "45 tritangent planes, 36 double-sixes split 1/15/20, "
         "120 trieder pairs, 40 triads", _counts,
         {"tritangent_planes": 45, "double_sixes": 36,
          "double_six_family_split": {"1": 1, "2": 15, "3": 20},
          "trieder_pairs": 120, "triads": 40}),
        ("cayley_salmon", "Cayley-Salmon identity F = lambda*PQR + mu*STU",
         lambda s: _cayley_salmon_pairs(s, full), 120 if full else 12),
        ("hexahedral", "hexahedral form: sum x_i = 0, sum x_i^3 = c*F, 15 "
         "lines, complementary double-six, 10 Cayley-Salmon splits",
         lambda s: _hexahedral_seen(s, full),
         {"splits": 10, **({"forms": 360, "double_sixes": 36} if full else {})}),
        ("determinantal", "determinantal form det M = kappa*F with "
         "parametrization on the surface", _param_on_surface, True),
        ("cubo_cubic", "cubo-cubic transformation preserves the surface "
         "and inverts exactly", lambda s: _cubo_cubic(s, seed),
         {"preserves_surface": True, "inverse_composes_to_identity": True,
          "plane_image_cubic_kernel": 1}),
        ("webs", "4-dimensional quadric web with a 12-nodal Steinerian "
         "quartic and a unique desmic partition",
         lambda s: {len(web.basis) for web in _webs(s, census)}, {4}),
        ("census", "45 sets of 48 nonsingular quadrics, 360 distinct, each in "
         "6 sets", _census, ({"48": 45}, 360, {"6": 360})),
        ("grouping", "135 intersection points in 45 groups of 12, each point "
         "in 4 groups", _grouping,
         {"points": 135, "groups": 45, "per_group": [12], "memberships": [4]}),
        ("hexagram", "60 Cremona pairs with 3 collinear diagonal points on the "
         "projected Pascal line", lambda s: _hexagram(s, seed),
         {"cremona_pairs": 60, "pascal_lines": 60, "pentahedra": 6,
          "projections_verified": 180}),
        ("group", "group of order 51840 with orbits 27, 36, 45, 40",
         lambda s: _group(),
         {"order": 51840, "orbits": {"lines": 27, "double_sixes": 36,
                                     "tritangents": 45, "triads": 40}}),
        ("species", "species 1-4 fixtures classified; census holds all five "
         "reality profiles", lambda s: (
             [_species(species_points(k)) for k in (1, 2, 3, 4)],
             set(SPECIES_PROFILES.values()) - set(involution_census())),
         ([(k, SPECIES_PROFILES[k]) for k in (1, 2, 3, 4)], set())),
    ]


def check(s, claim, observe, expected):
    """Evaluate one claim on the Session s: (passed, detail).  A mismatch
    writes what was observed to stderr; a ValueError becomes the detail."""
    try:
        seen = observe(s)
    except ValueError as exc:
        return False, f" ({type(exc).__name__}: {exc})"
    if isinstance(expected, dict):  # read a report on the claim's keys
        seen = {k: seen[k] for k in expected}
    if seen == expected:
        return True, ""
    print(f"FAIL: {claim}: observed {seen}, expected {expected}",
          file=sys.stderr)
    return False, ""


def cmd_verify_all(args):
    s = _session(args)
    s.planes  # a surface without 27 lines or 45 planes is a domain error
    results, text = [], []
    for _, claim, observe, expected in claims(args.full, args.census,
                                              args.seed):
        ok, detail = check(s, claim, observe, expected)
        results.append({"claim": claim, "pass": ok})
        text.append(("PASS: " if ok else "FAIL: ") + claim + detail)
    all_pass = all(r["pass"] for r in results)
    text.append("ALL CHECKS PASSED" if all_pass else "SOME CHECKS FAILED")
    return {"results": results, "all_pass": all_pass}, text


COMMANDS = {
    "construct": cmd_construct,
    "configurations": cmd_configurations,
    "cayley-salmon": cmd_cayley_salmon,
    "hexahedral": cmd_hexahedral,
    "determinantal": cmd_determinantal,
    "cubo-cubic": cmd_cubo_cubic,
    "desmic": cmd_desmic,
    "hexagram": cmd_hexagram,
    "species": cmd_species,
    "group": cmd_group,
    "verify-all": cmd_verify_all,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubicgeom",
        description="Exact constructions on nonsingular cubic surfaces")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", help="JSON file with blow-up points")
    parser.add_argument("--output", help="write the report to this path")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="run exhaustive variants (all 120 pairs, "
                             "all 360 forms)")
    parser.add_argument("--census", action="store_true",
                        help="run the quadric web check over all 45 planes")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, text = COMMANDS[args.command](args)
        report = {"schema": 1, "command": args.command, "seed": args.seed,
                  **report}
        out = (json.dumps(report, indent=2, sort_keys=True)
               if args.format == "json" else "\n".join(text)) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, SchemaError,
            ZeroDivisorError) as exc:
        # ZeroDivisorError: a level above Q with a reducible modulus, which
        # load_points cannot rule out.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.command == "verify-all" and not report["all_pass"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
