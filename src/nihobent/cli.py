"""Command-line front end: construct, verify, expand, reproduce tables.

Subcommands:
  construct  build a family member, write truth table + polynomial + report
  opoly      check the 2-to-1 o-polynomial condition (one map or the catalog)
  expand     expand a bivariate monomial (or polynomial) into univariate form
  tables     rebuild the equivalent-o-monomial table rows and check degrees
  walsh      spectrum, bentness, degree, nonlinearity of a truth-table file
  info       print the deterministic tower description

Every report is JSON with a top-level "schema": 1.  The process exits 0
iff all requested checks pass, 1 if a check fails, and 2 on bad input: a
missing, conflicting or malformed argument, a table file that cannot be
read, or an output directory that cannot be written.  It also exits 2, with
no message, when stdout is closed before the report is written.
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
LAMBDA_SWEEPS = 3  # random nonzero lambdas that `expand --check` also compares pointwise


def _spectrum_summary(spec: np.ndarray) -> dict:
    return {
        "min": int(spec.min()),
        "max": int(spec.max()),
        "count_pos": int((spec > 0).sum()),
        "count_neg": int((spec < 0).sum()),
    }


def _function_record(
    tower, tt: np.ndarray, spec: np.ndarray, params: dict | None = None
) -> dict:
    """Verdicts of one function, all read off its one spectrum `spec`."""
    verdict = boolfun.verdict_from_spectrum(spec)
    rec = {
        "bent": verdict.bent,
        "degree": boolfun.algebraic_degree(tt),
        "nonlinearity": boolfun.nonlinearity_from_spectrum(spec),
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


def _report(command: str, tower, t0: float | None = None, **fields) -> dict:
    """schema, command, tower, the command's fields, then seconds since t0 if given."""
    report = {"schema": SCHEMA, "command": command, "tower": json.loads(tower.to_json()), **fields}
    if t0 is not None:
        report["seconds"] = round(time.perf_counter() - t0, 6)
    return report


def _emit(report: dict, ok: bool) -> int:
    print(json.dumps(report, indent=2), flush=True)
    return 0 if ok else 1


def _resolve_a(tower, spec: str, require_primitive: bool) -> int:
    if spec == "auto":
        return find_unit_relative_trace(tower, require_primitive=require_primitive)
    return tower.element_from_hex(spec)


def _out_dir(path: str) -> Path:
    """The output directory, made now, so a bad --out fails before any work."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None
    return out


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
        isinstance(t, dict)
        and isinstance(t.get("c"), str)
        and isinstance(t.get("e"), int)
        and not isinstance(t["e"], bool)  # JSON true/false are ints to Python
        for t in raw
    ):
        raise ValueError(f'{flag} must be a JSON list of {{"c": hex string, "e": integer}}')
    return [(tower.element_from_hex(t["c"]), t["e"]) for t in raw]


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    niho.FAMILIES[args.family].check(args)  # before --a auto runs and --out is made
    tower = make_tower(args.m)
    tower.tables  # past the table limit this raises before --out is made
    values = {name: getattr(args, name) for name in niho._FIELDS if getattr(args, name) is not None}
    if "a" in values:
        values["a"] = _resolve_a(tower, values["a"], require_primitive=False)
    if "b" in values:
        values["b"] = tower.element_from_hex(values["b"])
    if "coeffs" in values:
        values["coeffs"] = tuple(tower.element_from_hex(h) for h in values["coeffs"].split(","))
    params = niho.FamilyParams(args.family, args.m, **values)
    poly = niho.build(tower, params)
    out = _out_dir(args.out)
    tt = boolfun.evaluate(tower, poly)
    record = _function_record(
        tower, tt, boolfun.walsh(tt, tower), json.loads(params.to_json(tower))
    )
    stem = f"{params.family}_m{args.m}"
    (out / f"{stem}.tt.hex").write_text(boolfun.table_to_hex(tt) + "\n")
    (out / f"{stem}.poly.json").write_text(json.dumps(_poly_json(tower, poly), indent=2))
    report = _report(
        "construct", tower, t0,
        functions=[record],
        files={
            "truth_table": str(out / f"{stem}.tt.hex"),
            "polynomial": str(out / f"{stem}.poly.json"),
        },
    )
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
    return _emit(_report("opoly", tower, t0, verdicts=records), all(r["is_opoly"] for r in records))


def cmd_expand(args) -> int:
    if args.F is None and args.d is None:
        raise ValueError("expand needs --d or --F")
    d_only = {"--lambda": args.lam is not None, "--check": args.check,
              "--seed": args.seed is not None}
    extra = [flag for flag, is_set in d_only.items() if is_set]
    if args.F is not None and extra:
        raise ValueError(f"{', '.join(extra)} cannot be used with --F, only with --d")
    t0 = time.perf_counter()
    tower = make_tower(args.m)
    a = _resolve_a(tower, args.a, require_primitive=True)
    lam = tower.element_from_hex(args.lam) if args.lam is not None else 1
    rng = random.Random(DEFAULT_SEED if args.seed is None else args.seed)
    ok = True
    records = []
    if args.F is not None:
        F = opoly.OPolyMap.from_terms(tower, _parse_terms(tower, args.F, "--F"))
        poly = bridge.opoly_to_univariate(tower, F, a)
        tt = boolfun.evaluate(tower, poly)
        records.append(
            {
                "polynomial": _poly_json(tower, poly),
                "function": _function_record(tower, tt, boolfun.walsh(tt, tower)),
            }
        )
        ok = records[-1]["function"]["bent"]
    else:
        res = bridge.expand_monomial(tower, args.d, lam, a)
        rec = {"expansion": bridge.expansion_to_json(tower, res)}
        if args.check:

            def pointwise_equal(expansion):
                uni = boolfun.evaluate(tower, expansion.to_trace_polynomial(tower))
                biv = bridge.bivariate_monomial_table(tower, expansion.d, expansion.lam, a)
                return bool(np.array_equal(uni, biv))

            rec["pointwise_equal"] = pointwise_equal(res)
            props = bridge.verify_coefficient_properties(tower, res)
            rec["properties"] = {
                "conjugation": props.conjugation_ok,
                "midpoint": "skipped" if props.midpoint_skipped else props.midpoint_ok,
                "odd_index": props.odd_index_ok,
                "all_nonzero": props.all_nonzero,
            }
            for law, violations in (("conjugation", props.conjugation_violations),
                                    ("odd_index", props.odd_index_violations)):
                if violations:  # the law's first violation: c' and both sides of its equation
                    c, lhs, rhs = violations[0]
                    rec.setdefault("property_witnesses", {})[law] = {
                        "cprime": c, "lhs_hex": tower.element_hex(lhs),
                        "rhs_hex": tower.element_hex(rhs),
                    }
            sub = tower.tables.subfield_elements
            rec["random_lambda_sweeps"] = [
                pointwise_equal(
                    bridge.expand_monomial(tower, args.d, int(sub[rng.randrange(1, len(sub))]), a)
                )
                for _ in range(LAMBDA_SWEEPS)
            ]
            ok = (
                rec["pointwise_equal"]
                and bool(props)
                and props.all_nonzero
                and all(rec["random_lambda_sweeps"])
            )
        records.append(rec)
    return _emit(_report("expand", tower, t0, results=records), ok)


def cmd_tables(args) -> int:
    t0 = time.perf_counter()
    tower = make_tower(args.m)
    if args.m % 2 == 0:  # an empty table would pass with nothing checked
        raise ValueError(f"the equivalent-o-monomial table has rows only for odd m, got m={args.m}")
    a = find_unit_relative_trace(tower, require_primitive=True)
    rows_out = []

    def cell_record(head, cell, pipe_map):
        """Measured degree, bentness and pipeline match of one cell; `pass` needs all three."""
        cellmap = opoly.OPolyMap.from_terms(tower, [(1, e) for e in cell.exponents])
        tt = boolfun.evaluate(tower, bridge.opoly_to_univariate(tower, cellmap, a))
        rec = {
            **head,
            "exponents": list(cell.exponents),
            "expected_degree": cell.degree,
            "measured_degree": boolfun.algebraic_degree(tt),
            "bent": boolfun.is_bent(tt, tower).bent,
            "matches_pipeline": cellmap == pipe_map,
        }
        rec["pass"] = (
            rec["bent"]
            and (cell.degree is None or rec["measured_degree"] == cell.degree)
            and rec["matches_pipeline"]
        )
        if not rec["matches_pipeline"]:  # the first z where the cell and the pipeline differ
            i = int(np.flatnonzero(cellmap.table != pipe_map.table)[0])
            rec["pipeline_witness"] = {
                "z_hex": tower.element_hex(int(tower.tables.subfield_elements[i])),
                "cell_hex": tower.element_hex(int(cellmap.table[i])),
                "pipeline_hex": tower.element_hex(int(pipe_map.table[i])),
            }
        return rec

    for row in opoly.equivalence_table(args.m):
        g1 = opoly.OPolyMap.from_terms(tower, [(1, e) for e in row.g1.exponents])
        g2 = opoly.inverse_map(g1)
        cells = [
            cell_record({"column": label}, cell, pipe_map)
            if cell.exponents
            else {"column": label, "note": cell.condition}
            for label, cell, pipe_map in (("G1", row.g1, g1), ("G2", row.g2, g2))
        ]
        if row.g3 is not None:
            g3 = opoly.inverse_map(opoly.transform_zFinv(g2))
            cells.append(cell_record({"column": "G3", "condition": row.g3.condition}, row.g3, g3))
            if row.ambiguous_g3:
                cells[-1]["ambiguous"] = True
        rows_out.append({"family": row.family, "cells": cells})
    ok = all(cell.get("pass", True) for entry in rows_out for cell in entry["cells"])
    report = _report("tables", tower, t0, basis_a_hex=tower.element_hex(a), rows=rows_out)
    return _emit(report, ok)


def cmd_walsh(args) -> int:
    t0 = time.perf_counter()
    try:
        text = Path(args.table).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {args.table}: {exc.strerror}") from None
    tt = boolfun.table_from_hex(text.strip())
    n = len(tt).bit_length() - 1
    if n % 2 != 0:
        raise ValueError(f"table has n = {n} variables; need even n")
    tower = make_tower(n // 2)
    tower.tables  # past the table limit this raises before --out is made
    out = _out_dir(args.out)
    spec = boolfun.walsh(tt, tower)
    record = _function_record(tower, tt, spec)
    stem = Path(args.table).stem.split(".")[0]
    path = out / f"{stem}.spectrum.{args.format}"
    boolfun.write_spectrum(path, spec, tower, args.format)
    report = _report("walsh", tower, t0, functions=[record], files={"spectrum": str(path)})
    return _emit(report, True)


def cmd_info(args) -> int:
    tower = make_tower(args.m)
    return _emit(_report("info", tower, subfield_size=1 << tower.m, order=tower.order), True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nihobent",
        description="Construct and verify bent Boolean functions built from o-polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a bent-function family member")
    p.add_argument("--family", required=True, choices=tuple(niho.FAMILIES))
    p.add_argument("--m", type=int, required=True)
    for name in niho._FIELDS:
        if name not in niho._ELEMENT_FIELDS:
            p.add_argument(f"--{name}", type=int)
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
    g = p.add_mutually_exclusive_group()
    g.add_argument("--d", type=int)
    g.add_argument("--F", help="o-polynomial terms JSON")
    p.add_argument("--lambda", dest="lam", help="subfield factor, little-endian hex")
    p.add_argument("--a", default="auto")
    p.add_argument("--check", action="store_true")
    p.add_argument("--seed", type=int)  # None: DEFAULT_SEED, so a given --seed can be told apart
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
    except BrokenPipeError:
        return 2  # stdout was closed before the report was written (_emit flushes)


if __name__ == "__main__":
    sys.exit(main())
