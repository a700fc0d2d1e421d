"""Command-line interface.

Subcommands
-----------
triangulations
    Count (and optionally write) all triangulations of C(n,d) by flip search.

regularity
    Read a triangulation file and report REGULAR/NONREGULAR per line with
    witness heights or Farkas support; exit 0 iff all regular.

fiber
    Baues poset of C(n,d') -> C(n,d) with per-element coherence flags,
    coherent f-vector and the Euler characteristic of the proper part.

paths
    Monotone-path report for C(n,d) -> C(n,1): coherent count, lambda
    listing, optional zonotope comparison.

paths-general
    Coherent monotone path count for an explicit vertex matrix.

gale
    Dump the Gale transform columns of a realization.

tables
    Recompute every desk-scale table entry and diff against the published
    values; nonzero exit on any mismatch.

Parameters are comma-separated exact rationals (`1,2,3,10/3`), a preset name
(standard, symmetric, lemma47-c93/-c94/-c95, step1-regime1/-regime2), or
`@file` reading one line from a file.  Exit codes: 0 success, 1 mismatch or
unexpected verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter

from . import catalog, coherence, gale, lp, paths, subdiv
from .cyclic import ParamVector, format_params, parse_params, random_params, standard_params


def resolve_params(spec: str, n: int, d: int) -> ParamVector:
    if spec in catalog.PRESET_NAMES:
        return catalog.preset_params(spec, n, d)
    text = spec
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            text = fh.read()
    count = len(text.split(","))  # counted before the ParamVector checks 1 <= d < count
    if count != n:
        raise ValueError(f"parameters {spec!r} give {count} points, not n = {n}")
    return parse_params(text, d)


def _emit(args, payload: dict, text_lines: list[str]):
    if args.json:
        print(json.dumps(payload, default=str))
    else:
        for line in text_lines:
            print(line)


SCALE_LIMIT = 10  # largest n of the desk-scale commands; triangulations --stretch allows 11


def _check_scale(n: int, limit: int, hint: str = "") -> None:
    if n > limit:
        raise ValueError(f"n = {n} exceeds the scale limit {limit}{hint}")


def cmd_triangulations(args) -> int:
    n, d = args.n, args.d
    if args.stretch:
        _check_scale(n, SCALE_LIMIT + 1)
    else:
        _check_scale(n, SCALE_LIMIT, "; rerun with --stretch")
    tris = subdiv.enumerate_triangulations(n, d)
    lines = [f"C({n},{d}): {len(tris)} triangulations"]
    if args.out:
        ordered = sorted(tris, key=sorted)  # frozensets compare by inclusion, not by cells
        with open(args.out, "w") as fh:
            fh.write(subdiv.format_triangulation_file(ordered, n, d))
        lines.append(f"wrote {args.out}")
    if args.cross_check:
        known = catalog.TRIANGULATION_COUNTS.get((n, d))
        if known is None:
            lines.append(f"cross-check: no published count for C({n},{d})")
        elif known != len(tris):
            print(f"MISMATCH: published count {known}", file=sys.stderr)
            return 1
        else:
            lines.append("cross-check: flip count matches published table")
    _emit(args, {"n": n, "d": d, "count": len(tris)}, lines)
    return 0


def cmd_regularity(args) -> int:
    if args.random_trials < 0:
        raise ValueError(f"--random-trials must be at least 0, not {args.random_trials}")
    with open(args.file) as fh:
        text = fh.read()
    pv = resolve_params(args.params, args.n, args.d)
    all_regular = True
    records = []
    where, tris = subdiv.read_triangulation_file(text, args.n, args.d)
    if not tris:  # exit 0 would report "all regular" of nothing
        raise ValueError(f"no triangulation in {args.file}")
    rng = random.Random(args.seed)
    trial_vectors = [
        random_params(args.n, args.d, rng) for _ in range(args.random_trials)
    ]
    results = []
    for lineno, tri in tris:  # every line is decided before the first verdict is printed
        try:
            results.append(coherence.is_regular(tri, pv))
        except ValueError as exc:
            raise ValueError(f"{where} {lineno}: {exc}") from None
    for (lineno, tri), res in zip(tris, results):
        witness = isinstance(res, lp.Witness)
        # the Q^n system checks every certified result and, under --cross-check,
        # every certificate; a cross-checked witness must lift exactly the cells
        # of tri as its lower hull
        if args.certify or (args.cross_check and not witness):
            system = coherence.regularity_system(tri, pv)
            holds = lp.verify(system, res)
        if args.cross_check and not (
            coherence.regular_subdivision_from_heights(pv, res.x).cells == tuple(sorted(tri))
            if witness else holds
        ):
            print(f"{where} {lineno}: cross-check failed: {type(res).__name__.lower()} "
                  "does not hold", file=sys.stderr)
            return 1
        if args.certify and not holds:
            print(f"{where} {lineno}: certify failed: {type(res).__name__.lower()} "
                  "does not hold on the Q^n system", file=sys.stderr)
            return 1
        if witness:
            records.append({where: lineno, "verdict": "REGULAR", "witness": [str(x) for x in res.x]})
            msg = f"{where} {lineno}: REGULAR w = ({', '.join(str(x) for x in res.x)})"
        else:
            all_regular = False
            support = [i + 1 for i, y in enumerate(res.y) if y != 0]
            records.append({where: lineno, "verdict": "NONREGULAR", "farkas_support": support})
            msg = f"{where} {lineno}: NONREGULAR farkas support rows {support}"
        if trial_vectors:
            wins = sum(
                isinstance(coherence.is_regular(tri, tv), lp.Witness)
                for tv in trial_vectors
            )
            msg += f"  [regular at {wins}/{len(trial_vectors)} random realizations]"
            records[-1]["regular_random_trials"] = [wins, len(trial_vectors)]
        print(msg)
        if args.certify:
            print(lp.format_result(system, res))
    if args.json:
        print(json.dumps({"params": format_params(pv), "results": records}))
    return 0 if all_regular else 1


def cmd_fiber(args) -> int:
    n, d, dp = args.n, args.d, args.dprime
    _check_scale(n, SCALE_LIMIT)
    pv = resolve_params(args.params, n, d)
    report = coherence.fiber_face_poset(n, d, dp, pv)
    poset = report.poset
    by_rank = Counter(s.ranking() for s in poset.proper)
    coh_rank = report.coherent_counts_by_ranking()
    v, e = report.coherent_f_vector()
    polygon = report.polygon_name()
    chi = poset.proper_euler_characteristic()
    lines = [
        f"Baues poset of C({n},{dp}) -> C({n},{d}): {len(poset.proper)} proper elements",
        "elements by ranking: " + ", ".join(f"{r}: {c}" for r, c in sorted(by_rank.items())),
        "coherent by ranking: " + ", ".join(f"{r}: {c}" for r, c in sorted(coh_rank.items())),
        f"coherent f-vector: ({v}, {e})" + (f" -> {polygon}" if polygon else ""),
        f"Euler characteristic of proper part: {chi}",
    ]
    incoh = [
        str(s)
        for s, r in zip(poset.elements, report.verdicts)
        if not s.is_trivial and not isinstance(r, lp.Witness)
    ]
    lines.append(f"incoherent elements: {len(incoh)}")
    if args.certify:
        for s, res in zip(poset.elements, report.results):
            if isinstance(res, lp.Certificate):
                system = coherence.pi_coherence_system(s.cells, pv, dp)
                if not lp.verify(system, res):
                    print(f"{s}: certify failed: certificate does not hold on the Q^n system",
                          file=sys.stderr)
                    return 1
                lines.append(f"-- {s}")
                lines.append(lp.format_result(system, res))
    payload = {
        "n": n, "d": d, "d_prime": dp, "params": format_params(pv),
        "proper_elements": len(poset.proper),
        "by_ranking": by_rank, "coherent_by_ranking": coh_rank,
        "coherent_f_vector": [v, e], "polygon": polygon,
        "euler_characteristic": chi,
        "incoherent": incoh,
    }
    _emit(args, payload, lines)
    return 0


def cmd_paths(args) -> int:
    n, d = args.n, args.d
    if not 2 <= d < n:
        raise ValueError(f"paths needs 2 <= d < n, not n = {n}, d = {d}")
    _check_scale(n, SCALE_LIMIT)
    pv = resolve_params(args.params, n, d)
    tight = paths.enumerate_monotone_paths(n, d)
    records = []
    n_coherent = 0
    for s in tight:
        lam = paths.lambda_of_string(s)
        ok = paths.is_coherent_string(lam, d)
        if args.cross_check:
            by_lp = isinstance(paths.is_coherent_string_lp(s, pv), lp.Witness)
            if by_lp != ok:
                print(f"criterion/LP disagreement on {paths.format_path(s)}", file=sys.stderr)
                return 1
        n_coherent += ok
        records.append({"path": paths.format_path(s), "lambda": paths.format_sign_vector(lam),
                        "m": paths.m_stat(lam), "coherent": ok})
    formula = paths.count_coherent_paths(n, d)
    lines = [f"C({n},{d}) -> C({n},1): {n_coherent} coherent of {len(tight)} monotone paths",
             f"closed form: {formula}"]
    for r in records:
        lines.append(f"  {r['path']}  lambda={r['lambda']} m={r['m']} {'coherent' if r['coherent'] else 'incoherent'}")
    status = 0
    if n_coherent != formula:
        lines.append("MISMATCH against closed form")
        status = 1
    if args.compare_zonotope:
        lams = map(paths.lambda_of_string, subdiv.enumerate_baues_poset(n, 1, d).proper)
        coherent_lams = {lam for lam in lams if paths.is_coherent_string(lam, d)}
        zon = set(paths.zonotope_face_poset(n - 2, d - 1))
        iso = coherent_lams == zon
        lines.append("zonotope comparison: " + ("ISOMORPHIC" if iso else "MISMATCH"))
        if not iso:
            status = 1
    payload = {"n": n, "d": d, "coherent": n_coherent, "total": len(tight),
               "formula": formula, "paths": records}
    _emit(args, payload, lines)
    return status


def cmd_paths_general(args) -> int:
    if args.file == "remark-ubc":
        poly = paths.GeneralPolytope.from_columns(catalog.UBC_COUNTEREXAMPLE_MATRIX)
    else:
        with open(args.file) as fh:
            poly = paths.parse_matrix(fh.read())
    coh = paths.coherent_paths_of_general_polytope(poly, args.dir)
    total = len(paths.monotone_edge_paths(poly, args.dir))
    lines = [f"{len(coh)} coherent of {total} monotone paths (direction x{args.dir})"]
    for p in coh:
        lines.append("  " + "-".join(str(v) for v in p))
    _emit(args, {"coherent": len(coh), "total": total,
                 "paths": ["-".join(str(v) for v in p) for p in coh]}, lines)
    return 0


def cmd_gale(args) -> int:
    pv = resolve_params(args.params, args.n, args.d)
    cols = gale.gale_transform(pv)
    lines = [f"Gale transform of C({args.n},{args.d}) at t = {format_params(pv)}"]
    for i, col in enumerate(cols, 1):
        lines.append(f"  q*_{i} = (" + ", ".join(str(x) for x in col) + ")")
    _emit(args, {"columns": [[str(x) for x in c] for c in cols]}, lines)
    return 0


def cmd_tables(args) -> int:
    failures = []
    lines = []

    def check(label, got, want):
        ok = got == want
        lines.append(f"{'ok  ' if ok else 'FAIL'} {label}: {got} (published {want})")
        if not ok:
            failures.append(label)

    scope = dict(catalog.DESK_SCALE_COUNTS)
    for n in range(4, 11):
        scope[(n, 2)] = catalog.catalan(n - 2)
    if args.stretch:
        scope[(10, 3)] = catalog.TRIANGULATION_COUNTS[(10, 3)]
        scope.update({k: v for k, v in catalog.TRIANGULATION_COUNTS.items() if k[0] == 11})
    # (triangulations, flip edges) off one unpacked search per (n, d)
    stats = {key: subdiv.flip_graph_stats(*key) for key in scope.keys() | catalog.FLIP_EDGE_COUNTS.keys()}
    for (n, d), want in sorted(scope.items()):
        check(f"triangulations C({n},{d})", stats[n, d][0], want)
    for (n, d), want in catalog.FLIP_EDGE_COUNTS.items():
        check(f"flip edges C({n},{d})", stats[n, d][1], want)
    by_ranking = {}  # (n, d) -> number of proper subdivisions of each ranking
    for (n, d), rows in catalog.TYPE_CENSUS.items():
        # C(n, n-1) is a simplex, so every subdivision is pi-induced there
        proper = subdiv.enumerate_baues_poset(n, d, n - 1).proper
        census = Counter(s.type_sizes() for s in proper)
        by_ranking[n, d] = Counter(s.ranking() for s in proper)
        for sizes, want in rows.items():
            check(f"C({n},{d}) type {subdiv.format_type(sizes, d)}", census[sizes], want)
    # Euler-derived secondary polytope face counts
    v84, e84 = stats[8, 4]
    check("secondary facets C(8,4) via Euler", 2 - v84 + e84, catalog.SECONDARY_FACET_COUNTS[(8, 4)])
    v83, e83 = stats[8, 3]
    f2, f3 = by_ranking[8, 3][2], by_ranking[8, 3][3]
    check("secondary 2-faces C(8,3) (ranking 2)", f2, catalog.SECONDARY_TWO_FACE_COUNTS[(8, 3)])
    check("secondary facets C(8,3) (ranking 3)", f3, catalog.SECONDARY_FACET_COUNTS[(8, 3)])
    check("Euler relation f0-f1+f2-f3 C(8,3)", v83 - e83 + f2 - f3, 0)
    # good-link reports for the published symmetry classes
    for label, n, d, classes in (
        ("C(7,3)", 7, 3, catalog.C73_CLASSES),
        ("C(8,4)", 8, 4, catalog.C84_CLASSES),
    ):
        all_good = True
        for cells_text, verts in classes:
            tri = subdiv.parse_triangulation_line(cells_text, n)
            if not all(subdiv.good_link_vertex(tri, n, d, v) for v in verts):
                all_good = False
        check(f"{label} good-link vertices verified", all_good, True)
    for (n, d), want in catalog.NONREGULAR_AT_STANDARD.items():
        pv = standard_params(n, d)
        got = sum(isinstance(coherence.is_regular(t, pv), lp.Certificate)
                  for t in subdiv.enumerate_triangulations(n, d))
        check(f"nonregular triangulations C({n},{d}) at t = 1..{n}", got, want)
    ubc = paths.GeneralPolytope.from_columns(catalog.UBC_COUNTEREXAMPLE_MATRIX)
    check("coherent monotone paths of remark-ubc",
          len(paths.coherent_paths_of_general_polytope(ubc, 1)), catalog.UBC_COHERENT_PATHS)
    for line in lines:
        print(line)
    if failures:
        print(f"{len(failures)} mismatches", file=sys.stderr)
        return 1
    print("all table entries reproduced")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cyclicfiber", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("triangulations", help="count triangulations of C(n,d)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--out", help="write the triangulation list to a file")
    p.add_argument("--stretch", action="store_true", help="allow n = 11")
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(fn=cmd_triangulations)

    p = add_parser("regularity", help="regularity verdicts for a triangulation file")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--params", default="standard")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--cross-check", action="store_true",
                   help="check each witness by its lower hull and each certificate on the Q^n system")
    p.add_argument("--random-trials", type=int, default=0,
                   help="also decide each triangulation at this many seeded random realizations")
    p.add_argument("--seed", type=int, default=0, help="seed of the --random-trials realizations")
    p.set_defaults(fn=cmd_regularity)

    p = add_parser("fiber", help="Baues poset and fiber polytope report")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--dprime", type=int, required=True)
    p.add_argument("--params", default="standard")
    p.add_argument("--certify", action="store_true")
    p.set_defaults(fn=cmd_fiber)

    p = add_parser("paths", help="monotone path report for C(n,d)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--params", default="standard")
    p.add_argument("--compare-zonotope", action="store_true")
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(fn=cmd_paths)

    p = add_parser("paths-general", help="coherent paths of an explicit polytope")
    p.add_argument("file", help="matrix file, or the preset name remark-ubc")
    p.add_argument("--dir", type=int, default=1)
    p.set_defaults(fn=cmd_paths_general)

    p = add_parser("gale", help="dump Gale transform columns")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--params", default="standard")
    p.set_defaults(fn=cmd_gale)

    p = sub.add_parser("tables", help="recompute every published desk-scale entry")
    p.add_argument("--stretch", action="store_true", help="include (10,3) and every n = 11 row")
    p.set_defaults(fn=cmd_tables)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # let --params take values with a leading minus, e.g. --params -5,-3,-1,1,3,5
    for i, tok in enumerate(argv[:-1]):
        if tok == "--params":
            argv[i : i + 2] = [f"--params={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
