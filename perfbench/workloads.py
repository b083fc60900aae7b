"""Seeded job lists for the benchmark workloads.

A job is a plain dict: `kind` says how the worker runs it and how it is
checked, `argv` holds the CLI arguments for CLI jobs, and the remaining
keys are the inputs the checks need.  `{out}` in an argument stands for
the job's own output directory and `{out:<id>}` for another job's, within
the same round.  All inputs come from `random.Random(seed)`; which jobs
exist and what they compute does not depend on the seed, only the drawn
field elements and expand parameters do.
"""

from __future__ import annotations

import math
import random

from oracle import Field, canonical_lk, element_hex, smallest_irreducible

WORKLOADS = ("families", "opoly", "spectra")

# m per workload: "full" is what the benchmark measures, "small" is the
# smoke test's scale.
SCALES = {
    "full": {"families": (9, 8), "opoly": (7,), "spectra": (10,)},
    "small": {"families": (5, 4), "opoly": (5,), "spectra": (4,)},
}

EXPAND_JOBS = 4


def field(m: int) -> Field:
    """The tower's big field GF(2^{2m}), as the program defines it."""
    return Field(2 * m, smallest_irreducible(2 * m))


def draw_unit(f: Field, rng: random.Random) -> int:
    """Random a with a + a^(2^m) = 1."""
    while True:
        x = rng.randrange(1, 1 << f.n)
        t = f.rel_trace(x)
        if t:
            return f.mul(x, f.inv(t))


def draw_subfield(f: Field, rng: random.Random) -> int:
    """Random nonzero element of GF(2^m)."""
    while True:
        y = f.rel_trace(rng.randrange(1, 1 << f.n))
        if y:
            return y


def draw_nonzero(f: Field, rng: random.Random) -> int:
    return rng.randrange(1, 1 << f.n)


def draw_primitive(f: Field, rng: random.Random) -> int:
    """Random primitive a (so a + a^(2^m) != 0)."""
    while True:
        x = rng.randrange(2, 1 << f.n)
        if f.is_primitive(x):
            return x


def _construct(m, family, **params):
    argv = ["construct", "--family", family, "--m", str(m)]
    for name in ("r", "c", "I", "J", "k"):
        if name in params:
            argv += [f"--{name}", str(params[name])]
    for name in ("a", "b"):
        if name in params:
            v = params[name]
            argv += [f"--{name}", "auto" if v is None else element_hex(v, 2 * m)]
    argv += ["--out", "{out}"]
    return {"kind": "construct", "m": m, "family": family, "argv": argv, **params}


def family_jobs(m: int, f: Field, rng: random.Random) -> list[dict]:
    """Every family valid at m, one job each; lk resolves `--a auto`."""
    jobs = [_construct(m, "quadratic", a=draw_subfield(f, rng)),
            _construct(m, "binomial_3", b=draw_nonzero(f, rng))]
    if m % 2 == 0:
        jobs.append(_construct(m, "binomial_16", b=draw_nonzero(f, rng)))
    for r in range(2, m):
        if canonical_lk(m, r):
            jobs.append(_construct(m, "lk", r=r, a=None))
    if m % 2 == 1 and m > 3:
        k = (m + 1) // 2
        jobs.append(_construct(m, "qu_family", r=m - 1, c=1, I=2, J=1, a=draw_unit(f, rng)))
        jobs.append(_construct(m, "qu_family", r=m - 1, c=k - 1, I=k, J=1, a=draw_unit(f, rng)))
        if k + 1 < m - 1:
            jobs.append(_construct(m, "cubic_family", I=k + 1, J=2, a=draw_unit(f, rng)))
        if m > 5:
            jobs.append(_construct(m, "trinomial_sum", k=k, a=draw_unit(f, rng)))
    return jobs


# Known o-polynomials by catalog name, transcribed for the scales used here:
# the Frobenius maps z^(2^i) with gcd(i, m) = 1, the quadratic and cubic
# o-monomials, and the two o-trinomials (m odd).
CATALOG = {
    5: {
        "frobenius_2^1": (2,), "frobenius_2^2": (4,), "frobenius_2^3": (8,),
        "frobenius_2^4": (16,), "z^6": (6,), "z^(2^(3k+1)+2^(2k+1))": (24,),
        "z^(2^k+2)": (10,), "z^(2^(m-1)+2^(m-2))": (24,), "z^(3*2^k+4)": (28,),
        "trinomial_cubic": (8, 10, 28), "trinomial_sixth": (26, 16, 6),
    },
    7: {
        "frobenius_2^1": (2,), "frobenius_2^2": (4,), "frobenius_2^3": (8,),
        "frobenius_2^4": (16,), "frobenius_2^5": (32,), "frobenius_2^6": (64,),
        "z^6": (6,), "z^(2^2k+2^k)": (20,), "z^(2^k+2)": (18,),
        "z^(2^(m-1)+2^(m-2))": (96,), "z^(3*2^k+4)": (52,),
        "trinomial_cubic": (16, 18, 52), "trinomial_sixth": (106, 64, 22),
    },
}


def frobenius_catalog(m: int) -> dict[str, tuple[int, ...]]:
    return {f"frobenius_2^{i}": (1 << i,) for i in range(1, m) if math.gcd(i, m) == 1}


def families(scale: str, seed: int) -> list[dict]:
    m, m_side = SCALES[scale]["families"]
    rng = random.Random(seed)
    jobs = family_jobs(m, field(m), rng)
    jobs += [_construct(m_side, "lk", r=r, a=None) for r in range(2, m_side) if canonical_lk(m_side, r)]
    return jobs


def opoly(scale: str, seed: int) -> list[dict]:
    (m,) = SCALES[scale]["opoly"]
    f = field(m)
    rng = random.Random(seed)
    a = draw_primitive(f, rng)
    jobs = [
        {"kind": "opoly_map", "m": m, "entry": name, "exponents": exps, "map": label, "a": a}
        for name, exps in CATALOG[m].items()
        for label in ("G1", "G2", "G3")
    ]
    jobs.append({"kind": "tables", "m": m, "argv": ["tables", "--m", str(m)]})
    for _ in range(EXPAND_JOBS):
        d = rng.randrange(1, 1 << m)
        lam = draw_subfield(f, rng)
        argv = ["expand", "--m", str(m), "--d", str(d), "--lambda", element_hex(lam, 2 * m),
                "--a", element_hex(a, 2 * m), "--check", "--seed", str(seed)]
        jobs.append({"kind": "expand", "m": m, "d": d, "lam": lam, "a": a, "argv": argv})
    return jobs


def spectra(scale: str, seed: int) -> list[dict]:
    (m,) = SCALES[scale]["spectra"]
    f = field(m)
    rng = random.Random(seed)
    r = 3
    constructs = [
        _construct(m, "quadratic", a=draw_subfield(f, rng)),
        _construct(m, "binomial_3", b=draw_nonzero(f, rng)),
        _construct(m, "binomial_16", b=draw_nonzero(f, rng)),
        _construct(m, "lk", r=r, a=draw_unit(f, rng)),
    ]
    jobs = list(constructs)
    for i, job in enumerate(constructs):
        for fmt in ("csv", "json"):
            table = f"{{out:{i}}}/{job['family']}_m{m}.tt.hex"
            jobs.append({"kind": "walsh", "m": m, "source": i, "format": fmt,
                         "argv": ["walsh", table, "--format", fmt, "--out", "{out}"]})
    jobs.append({"kind": "catalog", "m": m, "argv": ["opoly", "--m", str(m), "--catalog"]})
    return jobs


def make_jobs(workload: str, scale: str, seed: int) -> list[dict]:
    jobs = {"families": families, "opoly": opoly, "spectra": spectra}[workload](scale, seed)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
