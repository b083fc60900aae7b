"""Checks of every job's output against the reference in oracle.py.

Each check raises Fail with a reason; a job whose check fails counts as a
failed operation.  Every round of a run is checked in full; the reference
spectrum and degree of a truth table are computed once per distinct table.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

import oracle
from oracle import Field, bits_from_hex, element_hex
from workloads import CATALOG, field, frobenius_catalog

POINTS = 8  # seeded evaluation points (or spectrum positions) per check

# The paper's table of equivalent o-monomials: for each G1 (by exponents),
# the exponents of G2 = G1^(-1) and G3 = (z G2(1/z))^(-1) and the algebraic
# degree of the bent function each one gives.
EQUIVALENT = {
    5: {
        (8,): {"G1": ((8,), 3), "G2": ((4,), 4), "G3": ((10,), 5)},
        (6,): {"G1": ((6,), 5), "G2": ((26,), 5), "G3": ((26,), 5)},
        (24,): {"G1": ((24,), 3), "G2": ((22,), 5), "G3": ((28,), 4)},
        (28,): {"G1": ((28,), 4), "G2": ((10,), 5), "G3": ((24,), 3)},
        (8, 10, 28): {"G1": ((8, 10, 28), 5)},
        (26, 16, 6): {"G1": ((26, 16, 6), 5)},
    },
    7: {
        (16,): {"G1": ((16,), 4), "G2": ((8,), 5), "G3": ((18,), 7)},
        (6,): {"G1": ((6,), 7), "G2": ((106,), 7), "G3": ((52,), 6)},
        (20,): {"G1": ((20,), 6), "G2": ((108,), 6), "G3": ((108,), 6)},
        (52,): {"G1": ((52,), 6), "G2": ((22,), 7), "G3": ((6,), 7)},
        (16, 18, 52): {"G1": ((16, 18, 52), 7)},
        (106, 64, 22): {"G1": ((106, 64, 22), 7)},
    },
}


class Fail(Exception):
    """An output disagrees with the reference."""


class NotRun(Fail):
    """The job raised or exited nonzero, so there is no output to judge."""


def expect(cond, msg):
    if not cond:
        raise Fail(msg)


def ran(res):
    if res.get("error") is not None:
        raise NotRun(f"raised: {res['error'][-300:]}")


def _int(hex_le: str) -> int:
    return int.from_bytes(bytes.fromhex(hex_le), "little")


class Checker:
    def __init__(self, jobs: list[dict], seed: int):
        self.jobs = jobs
        self.seed = seed
        self.fields: dict[int, Field] = {}
        self.subfields: dict[int, Field] = {}
        self.profiles: dict[bytes, tuple] = {}

    def field(self, m: int) -> Field:
        if m not in self.fields:
            self.fields[m] = field(m)
        return self.fields[m]

    def rng(self, job) -> random.Random:
        return random.Random(f"{self.seed}/{job['id']}")

    def check_round(self, round_dir: Path) -> list[tuple[int, str | None, bool]]:
        """(job id, failure reason or None, output wrong) for every job of a round."""
        results = {r["id"]: r for r in json.loads((round_dir / "results.json").read_text())}
        out = []
        for job in self.jobs:
            res = results.get(job["id"])
            if res is None:
                out.append((job["id"], "no result", False))
                continue
            err, wrong = None, False
            try:
                self.check_job(job, res, round_dir)
            except NotRun as exc:
                err = str(exc)
            except Fail as exc:
                err, wrong = str(exc), True
            except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
                err, wrong = f"malformed output: {type(exc).__name__}: {exc}", True
            out.append((job["id"], err, wrong))
        return out

    def check_job(self, job, res, round_dir: Path):
        job_dir = round_dir / f"job{job['id']}"
        kind = job["kind"]
        if kind == "opoly_map":
            return self.check_opoly_map(job, res)
        rep = self.report(job, res)
        if kind == "construct":
            self.check_construct(job, rep, job_dir)
        elif kind == "walsh":
            self.check_walsh(job, rep, job_dir, round_dir)
        elif kind == "catalog":
            self.check_catalog(job, rep)
        elif kind == "tables":
            self.check_tables(job, rep)
        elif kind == "expand":
            self.check_expand(job, rep)
        else:
            raise Fail(f"unknown job kind {kind}")

    def report(self, job, res) -> dict:
        ran(res)
        if res["rc"] != 0:
            raise NotRun(f"exit code {res['rc']}: {res['stderr'][-300:]}")
        rep = json.loads(res["stdout"])
        expect(rep.get("schema") == 1, "report schema is not 1")
        tower = rep["tower"]
        f = self.field(job["m"])
        expect(tower["m"] == job["m"], f"tower m = {tower['m']}")
        expect(_int(tower["modulus_hex"]) == f.mod, f"modulus {tower['modulus_hex']} is not "
               f"the smallest irreducible of degree {f.n}")
        return rep

    # ---- truth tables --------------------------------------------------

    def check_bent_table(self, job, bits, fn=None):
        """Bentness, nonlinearity and degree of a table; returns (spectrum, degree)."""
        m = job["m"]
        n = 2 * m
        key = hashlib.blake2b(bits.tobytes(), digest_size=16).digest()
        if key not in self.profiles:
            spec, err = oracle.bent_profile(bits, m)
            self.profiles[key] = (spec, err, None if err else oracle.degree(bits))
        spec, err, deg = self.profiles[key]
        expect(err is None, err)
        if fn is not None:
            expect(fn["bent"] is True, "report says not bent")
            nl = (1 << (n - 1)) - int(np.abs(spec).max()) // 2
            expect(nl == (1 << (n - 1)) - (1 << (m - 1)) == fn["nonlinearity"],
                   f"nonlinearity {fn['nonlinearity']}, reference {nl}")
            expect(fn["degree"] == deg, f"degree {fn['degree']}, reference {deg}")
            summary = fn["spectrum"]
            expect(summary["min"] == -(1 << m) and summary["max"] == 1 << m, "spectrum range")
            expect(summary["count_pos"] == int((spec > 0).sum()), "count of positive values")
            expect(summary["count_neg"] == int((spec < 0).sum()), "count of negative values")
        return spec, deg

    def check_points(self, job, f, terms, bits):
        rng = self.rng(job)
        for _ in range(POINTS):
            t = rng.randrange(len(bits))
            expect(oracle.eval_trace_terms(f, terms, t) == bits[t],
                   f"polynomial and table disagree at t={t:#x}")

    def check_construct(self, job, rep, job_dir: Path):
        m, family = job["m"], job["family"]
        f = self.field(m)
        fn = rep["functions"][0]
        stem = f"{family}_m{m}"
        bits = bits_from_hex((job_dir / f"{stem}.tt.hex").read_text())
        _, deg = self.check_bent_table(job, bits, fn)
        if family == "lk" and oracle.canonical_lk(m, job["r"]):
            expect(deg == job["r"] + 1, f"lk degree {deg} != r + 1 = {job['r'] + 1}")
        if family == "quadratic":
            expect(deg == 2, f"quadratic degree {deg}")
        params = fn["params"]
        for name in ("a", "b"):
            if name in job:
                got = _int(params[f"{name}_hex"])
                if job[name] is not None:
                    expect(got == job[name], f"{name} = {got:#x}, drawn {job[name]:#x}")
                else:
                    expect(f.rel_trace(got) == 1, f"auto a = {got:#x} has a + a^(2^m) != 1")
        poly = json.loads((job_dir / f"{stem}.poly.json").read_text())
        expect(poly["m"] == m, "polynomial m")
        terms = [(t["k"], _int(t["c_hex"]), t["e"]) for t in poly["terms"]]
        self.check_points(job, f, terms, bits)

    def check_walsh(self, job, rep, job_dir: Path, round_dir: Path):
        m, n = job["m"], 2 * job["m"]
        f = self.field(m)
        source = self.jobs[job["source"]]
        stem = f"{source['family']}_m{m}"
        bits = bits_from_hex((round_dir / f"job{source['id']}" / f"{stem}.tt.hex").read_text())
        spec, _ = self.check_bent_table(job, bits, rep["functions"][0])
        text = (job_dir / f"{stem}.spectrum.{job['format']}").read_text()
        if job["format"] == "csv":
            expect(text.endswith("\n"), "CSV does not end in a newline")
            cells = text[:-1].replace("\n", ",").split(",")
            expect(len(cells) == 2 << n, f"{len(cells) // 2} CSV rows")
            values = np.array(cells[1::2], dtype=np.int64)
            for w in self.rng(job).sample(range(1 << n), POINTS):
                expect(cells[2 * w] == element_hex(w, n), f"row {w} is labelled {cells[2 * w]}")
        else:
            values = np.array(json.loads(text), dtype=np.int64)
        expect(len(values) == 1 << n, f"{len(values)} spectrum values")
        expect(int((values * values).sum()) == 1 << (2 * n), "Parseval's identity fails")
        expect(np.array_equal(np.sort(values), np.sort(spec)), "spectrum multiset differs")
        for w in self.rng(job).sample(range(1 << n), POINTS):
            ref = oracle.field_walsh_at(f, bits, w)
            expect(values[w] == ref, f"W({w:#x}) = {values[w]}, reference {ref}")

    # ---- o-polynomials -------------------------------------------------

    def check_catalog(self, job, rep):
        m = job["m"]
        expected = CATALOG.get(m, frobenius_catalog(m))
        got = {v["name"]: tuple(t["exp"] for t in v["terms"]) for v in rep["verdicts"]}
        expect(got == expected, f"catalog {sorted(got)} != {sorted(expected)}")
        if m not in self.subfields:
            self.subfields[m] = Field(m, oracle.smallest_irreducible(m))
        sub = self.subfields[m]
        zs = np.arange(1 << m)
        for v in rep["verdicts"]:
            expect(v["is_opoly"] is True, f"{v['name']} reported not an o-polynomial")
            expect(all(_int(t["coef_hex"]) == 1 for t in v["terms"]), f"{v['name']} coefficients")
            table = np.zeros(1 << m, dtype=np.int64)
            for e in got[v["name"]]:
                table ^= sub.vpow(zs, e)
            err = oracle.is_opoly_table(sub, zs, table)
            expect(err is None, f"{v['name']}: {err}")

    def check_opoly_map(self, job, res):
        ran(res)
        m, label, a = job["m"], job["map"], job["a"]
        f = self.field(m)
        expect(res["modulus"] == f.mod, "tower modulus")
        zs = f.subfield()
        pos = np.full(1 << f.n, -1, dtype=np.int64)
        pos[zs] = np.arange(len(zs))
        exps = CATALOG[m][job["entry"]]
        G1 = np.zeros(len(zs), dtype=np.int64)
        for e in exps:
            G1 ^= f.vpow(zs, e)
        G = np.array(res["table"], dtype=np.int64)
        expect(len(G) == len(zs), f"table has {len(G)} entries")
        err = oracle.is_opoly_table(f, zs, G)
        expect(err is None, err)
        expect(res["is_opoly"] is True, "is_opolynomial says no")
        if label == "G1":
            expect(np.array_equal(G, G1), "G1 table differs from the catalog monomials")
        elif label == "G2":
            expect(np.array_equal(G[pos[G1]], zs), "G2 is not the inverse of G1")
        else:
            G2 = np.empty_like(G1)
            G2[pos[G1]] = zs
            H = f.vmul(zs, G2[pos[f.vpow(zs, (1 << m) - 2)]])
            H[0] = 0
            expect(np.array_equal(G[pos[H]], zs), "G3 is not the inverse of z G2(1/z)")
        terms = [(c, e) for c, e in res["terms"]]
        value = np.zeros(len(zs), dtype=np.int64)
        for c, e in terms:
            value ^= f.vmul(np.full(len(zs), c), f.vpow(zs, e))
        expect(np.array_equal(value, G), "terms do not reproduce the value table")
        expect(res["rebuilt"] == res["table"], "rebuilt map differs")
        known = EQUIVALENT.get(m, {}).get(exps, {}).get(label)
        if known is not None:
            expect(sorted(terms) == sorted((1, e) for e in known[0]),
                   f"{label} terms {terms}, table {known[0]}")
        uni = bits_from_hex(res["tt"])
        _, deg = self.check_bent_table(job, uni)
        expect(res["bent"] is True and res["degree"] == deg,
               f"reported bent={res['bent']} degree={res['degree']}, reference degree {deg}")
        if known is not None:
            expect(deg == known[1], f"{label} degree {deg}, table {known[1]}")
        self.check_points(job, f, [tuple(t) for t in res["poly"]], uni)
        biv = bits_from_hex(res["biv"])
        _, biv_deg = self.check_bent_table(job, biv)
        expect(biv_deg == deg, f"class-H degree {biv_deg} != univariate degree {deg}")
        rng = self.rng(job)
        for _ in range(POINTS):
            x, y = (int(zs[rng.randrange(len(zs))]) for _ in range(2))
            if x == 0:
                want = 0
            else:
                z = f.mul(y, f.inv(x))
                want = f.trace(f.mul(x, int(G[pos[z]])), m)
            t = f.mul(a, x) ^ y
            expect(biv[t] == want, f"class-H table wrong at x={x:#x}, y={y:#x}")

    def check_tables(self, job, rep):
        m = job["m"]
        known = EQUIVALENT[m]
        rows = {tuple(r["cells"][0]["exponents"]): r for r in rep["rows"]}
        expect(set(rows) == set(known), f"table rows {sorted(rows)} != {sorted(known)}")
        for g1, row in rows.items():
            for cell in row["cells"]:
                if "exponents" not in cell:
                    continue
                expect(cell["bent"] is True, f"{row['family']} {cell['column']} not bent")
                ref = known[g1].get(cell["column"])
                if ref is None or tuple(cell["exponents"]) != ref[0]:
                    expect(cell["column"] == "G3" and cell.get("ambiguous"),
                           f"{row['family']} {cell['column']} exponents {cell['exponents']}")
                    continue
                expect(cell["measured_degree"] == ref[1],
                       f"{row['family']} {cell['column']} degree {cell['measured_degree']}, "
                       f"table {ref[1]}")
                expect(cell["pass"] is True, f"{row['family']} {cell['column']} did not pass")

    def check_expand(self, job, rep):
        m, d, lam, a = job["m"], job["d"], job["lam"], job["a"]
        f = self.field(m)
        res = rep["results"][0]
        expect(res["pointwise_equal"] is True, "pointwise_equal is false")
        props = res["properties"]
        expect(props["conjugation"] is True and props["odd_index"] is True
               and props["all_nonzero"] is True and props["midpoint"] in (True, "skipped"),
               f"coefficient properties {props}")
        expect(all(res["random_lambda_sweeps"]), "a random-lambda sweep failed")
        exp = res["expansion"]
        expect(exp["d"] == d, f"expanded d = {exp['d']}")
        terms = [(f.n, _int(exp["linear"]["coef_hex"]), exp["linear"]["exp"]),
                 (m, _int(exp["self_conj"]["coef_hex"]), exp["self_conj"]["exp"])]
        terms += [(f.n, _int(t["coef_hex"]), t["exp"]) for t in exp["terms"]]
        rng = self.rng(job)
        a_conj = f.frob(a, m)
        for _ in range(POINTS):
            t = rng.randrange(1 << f.n)
            tc = f.frob(t, m)
            x, y = t ^ tc, f.mul(a, t) ^ f.mul(a_conj, tc)
            want = f.trace(f.mul(lam, f.mul(f.pow(x, (1 << m) - d), f.pow(y, d))), m)
            expect(oracle.eval_trace_terms(f, terms, t) == want,
                   f"expansion disagrees with Tr_m(lambda x^(2^m-d) y^d) at t={t:#x}")
