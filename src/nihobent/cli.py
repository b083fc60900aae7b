"""Command-line front end: construct, verify, expand, reproduce tables.

Subcommands:
  construct  build a family member, write truth table + polynomial + report
  opoly      check the 2-to-1 o-polynomial condition (one map or the catalog)
  expand     expand a bivariate monomial (or polynomial) into univariate form
  tables     rebuild the equivalent-o-monomial table rows and check degrees
  walsh      spectrum, bentness, degree, nonlinearity of a truth-table file
  info       print the deterministic tower description

Every report is JSON with a top-level "schema": 1.  The process exits 0
iff all requested checks pass, nonzero otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

from . import boolfun, bridge, niho, opoly
from .gf2 import find_unit_relative_trace, make_tower

SCHEMA = 1
DEFAULT_SEED = 12345


def _tower_info(tower) -> dict:
    return json.loads(tower.to_json())


def _spectrum_summary(spec: np.ndarray) -> dict:
    return {
        "min": int(spec.min()),
        "max": int(spec.max()),
        "count_pos": int((spec > 0).sum()),
        "count_neg": int((spec < 0).sum()),
    }


def _function_record(tower, tt: np.ndarray, params: dict | None = None) -> dict:
    spec = boolfun.walsh(tt, tower)
    verdict = boolfun.is_bent(tt, tower)
    rec = {
        "bent": verdict.bent,
        "degree": boolfun.algebraic_degree(tt),
        "nonlinearity": boolfun.nonlinearity(tt, tower),
        "spectrum": _spectrum_summary(spec),
    }
    if not verdict.bent:
        rec["bent_witness"] = {
            "w_hex": tower.element_hex(verdict.witness_w),
            "value": verdict.witness_value,
        }
    if params is not None:
        rec["params"] = params
    return rec


def _emit(report: dict, ok: bool) -> int:
    print(json.dumps(report, indent=2))
    return 0 if ok else 1


def _resolve_a(tower, spec: str, family: str) -> int:
    if spec == "auto":
        return find_unit_relative_trace(tower, require_primitive=family == "expand")
    return tower.element_from_hex(spec)


def _poly_json(tower, poly) -> dict:
    return {
        "m": poly.m,
        "terms": [
            {"k": k, "c_hex": tower.element_hex(c), "e": e} for k, c, e in poly.terms
        ],
    }


def _parse_terms(tower, text: str, flag: str) -> list[tuple[int, int]]:
    """(coefficient, exponent) pairs from JSON like [{"c":"01","e":6}]."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse {flag} at position {exc.pos}: {exc.msg}") from None
    if not isinstance(raw, list) or not all(
        isinstance(t, dict) and isinstance(t.get("c"), str) and isinstance(t.get("e"), int)
        for t in raw
    ):
        raise ValueError(f'{flag} must be a JSON list of {{"c": hex string, "e": integer}}')
    return [(tower.element_from_hex(t["c"]), t["e"]) for t in raw]


_FAMILY_ALIASES = {"cubic": "cubic_family", "trinomial": "trinomial_sum"}


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    tower = make_tower(args.m)
    coeffs = None
    if args.coeffs:
        coeffs = tuple(tower.element_from_hex(h) for h in args.coeffs.split(","))
    params = niho.FamilyParams(
        family=_FAMILY_ALIASES.get(args.family, args.family),
        m=args.m,
        r=args.r,
        c=args.c,
        I=args.I,
        J=args.J,
        k=args.k,
        d2=args.d2,
        a=_resolve_a(tower, args.a, args.family) if args.a else None,
        b=tower.element_from_hex(args.b) if args.b else None,
        coeffs=coeffs,
    )
    poly = niho.build(tower, params)
    tt = boolfun.evaluate(tower, poly)
    record = _function_record(tower, tt, json.loads(params.to_json(tower)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{params.family}_m{args.m}"
    (out / f"{stem}.tt.hex").write_text(boolfun.table_to_hex(tt) + "\n")
    (out / f"{stem}.poly.json").write_text(json.dumps(_poly_json(tower, poly), indent=2))
    report = {
        "schema": SCHEMA,
        "command": "construct",
        "tower": _tower_info(tower),
        "functions": [record],
        "files": {
            "truth_table": str(out / f"{stem}.tt.hex"),
            "polynomial": str(out / f"{stem}.poly.json"),
        },
        "seconds": round(time.perf_counter() - t0, 6),
    }
    (out / f"{stem}.report.json").write_text(json.dumps(report, indent=2))
    return _emit(report, record["bent"])


def _opoly_record(tower, F) -> dict:
    verdict = opoly.is_opolynomial(F)
    rec = {
        "m": tower.m,
        "terms": [{"coef_hex": tower.element_hex(c), "exp": e} for c, e in F.terms],
        "is_opoly": verdict.is_opoly,
        "is_permutation": verdict.is_permutation,
    }
    if not verdict.is_opoly:
        rec["witness"] = {
            "beta_hex": tower.element_hex(verdict.witness_beta),
            "value_hex": tower.element_hex(verdict.witness_value),
            "count": verdict.witness_count,
        }
    return rec


def cmd_opoly(args) -> int:
    t0 = time.perf_counter()
    tower = make_tower(args.m)
    records = []
    if args.catalog:
        for entry in opoly.catalog(args.m):
            rec = _opoly_record(tower, entry.to_map(tower))
            rec["name"] = entry.name
            records.append(rec)
    else:
        terms = _parse_terms(tower, args.terms, "--terms")
        records.append(_opoly_record(tower, opoly.OPolyMap.from_terms(tower, terms)))
    report = {
        "schema": SCHEMA,
        "command": "opoly",
        "tower": _tower_info(tower),
        "verdicts": records,
        "seconds": round(time.perf_counter() - t0, 6),
    }
    return _emit(report, all(r["is_opoly"] for r in records))


def cmd_expand(args) -> int:
    if args.F is None and args.d is None:
        raise ValueError("expand needs --d or --F")
    t0 = time.perf_counter()
    tower = make_tower(args.m)
    a = _resolve_a(tower, args.a, "expand")
    lam = tower.element_from_hex(args.lam) if args.lam else 1
    rng = random.Random(args.seed)
    ok = True
    records = []
    if args.F:
        F = opoly.OPolyMap.from_terms(tower, _parse_terms(tower, args.F, "--F"))
        poly = bridge.opoly_to_univariate(tower, F, a)
        tt = boolfun.evaluate(tower, poly)
        records.append(
            {
                "polynomial": _poly_json(tower, poly),
                "function": _function_record(tower, tt),
            }
        )
        ok = records[-1]["function"]["bent"]
    else:
        res = bridge.expand_monomial(tower, args.d, lam, a)
        rec = {"expansion": bridge.expansion_to_json(tower, res)}
        if args.check:
            uni = boolfun.evaluate(tower, res.to_trace_polynomial(tower))
            biv = bridge.bivariate_monomial_table(tower, args.d, lam, a)
            rec["pointwise_equal"] = bool(np.array_equal(uni, biv))
            props = bridge.verify_coefficient_properties(tower, res)
            rec["properties"] = {
                "conjugation": props.conjugation_ok,
                "midpoint": "skipped" if props.midpoint_skipped else props.midpoint_ok,
                "odd_index": props.odd_index_ok,
                "all_nonzero": props.all_nonzero,
            }
            sub = tower.subfield_elements()
            sweeps = []
            for _ in range(args.sweeps):
                lam_r = int(sub[rng.randrange(1, len(sub))])
                res_r = bridge.expand_monomial(tower, args.d, lam_r, a)
                uni_r = boolfun.evaluate(tower, res_r.to_trace_polynomial(tower))
                biv_r = bridge.bivariate_monomial_table(tower, args.d, lam_r, a)
                sweeps.append(bool(np.array_equal(uni_r, biv_r)))
            rec["random_lambda_sweeps"] = sweeps
            ok = (
                rec["pointwise_equal"]
                and bool(props)
                and props.all_nonzero
                and all(sweeps)
            )
        records.append(rec)
    report = {
        "schema": SCHEMA,
        "command": "expand",
        "tower": _tower_info(tower),
        "results": records,
        "seconds": round(time.perf_counter() - t0, 6),
    }
    return _emit(report, ok)


def cmd_tables(args) -> int:
    t0 = time.perf_counter()
    tower = make_tower(args.m)
    a = find_unit_relative_trace(tower, require_primitive=True)
    rows_out = []
    ok = True

    def pipeline_degree(exponents):
        F = opoly.OPolyMap.from_terms(tower, [(1, e) for e in exponents])
        tt = boolfun.evaluate(tower, bridge.opoly_to_univariate(tower, F, a))
        return boolfun.algebraic_degree(tt), boolfun.is_bent(tt, tower).bent

    for row in opoly.equivalence_table(args.m):
        entry = {"family": row.family, "cells": []}
        g1map = opoly.OPolyMap.from_terms(tower, [(1, e) for e in row.g1.exponents])
        g2_pipe = opoly.inverse_map(g1map)
        g3_pipe = opoly.inverse_map(opoly.transform_zFinv(g2_pipe))
        for label, cell, pipe_map in (
            ("G1", row.g1, g1map),
            ("G2", row.g2, g2_pipe),
        ):
            if not cell.exponents:
                entry["cells"].append({"column": label, "note": cell.condition})
                continue
            measured, bent = pipeline_degree(cell.exponents)
            cellmap = opoly.OPolyMap.from_terms(tower, [(1, e) for e in cell.exponents])
            match = cellmap == pipe_map
            passed = bent and (cell.degree is None or measured == cell.degree) and match
            ok = ok and passed
            entry["cells"].append(
                {
                    "column": label,
                    "exponents": list(cell.exponents),
                    "expected_degree": cell.degree,
                    "measured_degree": measured,
                    "bent": bent,
                    "matches_pipeline": match,
                    "pass": passed,
                }
            )
        for cell in row.g3_candidates:
            measured, bent = pipeline_degree(cell.exponents)
            cellmap = opoly.OPolyMap.from_terms(tower, [(1, e) for e in cell.exponents])
            match = cellmap == g3_pipe
            passed = bent and measured == cell.degree
            if row.ambiguous_g3:
                status = {"pass": passed, "ambiguous": True}
            else:
                status = {"pass": passed}
                ok = ok and passed
            entry["cells"].append(
                {
                    "column": "G3",
                    "condition": cell.condition,
                    "exponents": list(cell.exponents),
                    "expected_degree": cell.degree,
                    "measured_degree": measured,
                    "bent": bent,
                    "matches_pipeline": match,
                    **status,
                }
            )
        rows_out.append(entry)
    report = {
        "schema": SCHEMA,
        "command": "tables",
        "tower": _tower_info(tower),
        "basis_a_hex": tower.element_hex(a),
        "rows": rows_out,
        "seconds": round(time.perf_counter() - t0, 6),
    }
    return _emit(report, ok)


def cmd_walsh(args) -> int:
    t0 = time.perf_counter()
    tt = boolfun.table_from_hex(Path(args.table).read_text().strip())
    n = len(tt).bit_length() - 1
    if n % 2 != 0:
        print(f"table has n = {n} variables; need even n", file=sys.stderr)
        return 2
    tower = make_tower(n // 2)
    spec = boolfun.walsh(tt, tower)
    record = _function_record(tower, tt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.table).stem.split(".")[0]
    if args.format == "csv":
        path = out / f"{stem}.spectrum.csv"
        path.write_text(boolfun.spectrum_to_csv(spec, tower))
    else:
        path = out / f"{stem}.spectrum.json"
        path.write_text(json.dumps([int(v) for v in spec]))
    report = {
        "schema": SCHEMA,
        "command": "walsh",
        "tower": _tower_info(tower),
        "functions": [record],
        "files": {"spectrum": str(path)},
        "seconds": round(time.perf_counter() - t0, 6),
    }
    return _emit(report, True)


def cmd_info(args) -> int:
    tower = make_tower(args.m)
    report = {
        "schema": SCHEMA,
        "command": "info",
        "tower": _tower_info(tower),
        "subfield_size": 1 << tower.m,
        "order": tower.order,
    }
    return _emit(report, True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nihobent",
        description="Construct and verify bent Boolean functions built from o-polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a bent-function family member")
    p.add_argument(
        "--family", required=True,
        choices=tuple(niho._FAMILIES) + tuple(_FAMILY_ALIASES),
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--I", type=int)
    p.add_argument("--J", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d2", type=int)
    p.add_argument("--a", help="'auto' or little-endian hex")
    p.add_argument("--b", help="little-endian hex")
    p.add_argument("--coeffs", help="comma-separated little-endian hex values")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("opoly", help="verify the 2-to-1 o-polynomial condition")
    p.add_argument("--m", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--terms", help='JSON like [{"c":"01","e":6}]')
    g.add_argument("--catalog", action="store_true")
    p.set_defaults(func=cmd_opoly)

    p = sub.add_parser("expand", help="bivariate monomial -> univariate form")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--F", help="o-polynomial terms JSON")
    p.add_argument("--lambda", dest="lam", help="subfield factor, little-endian hex")
    p.add_argument("--a", default="auto")
    p.add_argument("--check", action="store_true")
    p.add_argument("--sweeps", type=int, default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("tables", help="reproduce the equivalent-o-monomial table")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("walsh", help="spectrum and verdicts of a truth-table file")
    p.add_argument("table")
    p.add_argument("--out", default=".")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_walsh)

    p = sub.add_parser("info", help="deterministic tower description")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_info)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
