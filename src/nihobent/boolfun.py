"""Truth-table Boolean functions on GF(2^{2m}).

A truth table is a numpy uint8 array of 0/1 values of length 2^n indexed by
the integer encoding of the field element t.  Walsh spectra are int64
arrays of the same length indexed by w.  The fast transform uses the
standard Walsh-Hadamard butterfly on the sign vector and then permutes the
output through the Gram matrix of the trace bilinear form, so spectrum[w]
matches the field-indexed sum over (-1)^(f(x) + Tr_n(wx)) exactly; a naive
quadratic-time evaluator is kept alongside as a cross-check.

All functions are pure; returned arrays are read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf2 import FieldTower, _parity, _reduce_exponent


class RepresentationError(ValueError):
    """A trace term was evaluated outside its declared source field."""


@dataclass(frozen=True)
class TracePolynomial:
    """Sparse sum of trace terms Tr_k(c * t^e) defining a Boolean function.

    terms: tuple of (k, c, e) with k in {1, m, n}.  k = n and k = m mean the
    absolute trace of the big field / subfield; k = 1 means c * t^e is
    already a GF(2) value and is added raw.  A nonzero exponent is stored
    reduced into [1, 2^n - 1], so only e = 0 is the constant (0^0 = 1).
    """

    m: int
    terms: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n = 2 * self.m
        order = (1 << n) - 1
        fixed = []
        for k, c, e in self.terms:
            if k not in (1, self.m, n):
                raise ValueError(f"trace degree {k} not in {{1, {self.m}, {n}}}")
            fixed.append((k, c, _reduce_exponent(e, order)))
        object.__setattr__(self, "terms", tuple(fixed))

    def __add__(self, other: "TracePolynomial") -> "TracePolynomial":
        if self.m != other.m:
            raise ValueError("cannot add trace polynomials over different towers")
        return TracePolynomial(self.m, self.terms + other.terms)


def evaluate(tower: FieldTower, poly: TracePolynomial) -> np.ndarray:
    """Truth table of the trace polynomial over all t in GF(2^n)."""
    if poly.m != tower.m:
        raise ValueError(f"polynomial is over m={poly.m}, tower has m={tower.m}")
    bits = np.zeros(tower.size, dtype=np.uint8)
    for k, c, e in poly.terms:
        vals = tower.mul_scalar_vec(c, tower.pow_vec(np.arange(tower.size), e))
        if k == tower.n:
            bits ^= tower.trace_bits[vals]
        elif k == tower.m:
            bad = ~tower.subfield_mask[vals]
            if bad.any():
                t = int(np.nonzero(bad)[0][0])
                raise RepresentationError(
                    f"Tr_{k} term (c={c:#x}, e={e}) leaves the subfield at t={t:#x}"
                )
            bits ^= tower.subfield_trace_bits[vals]
        else:  # k == 1: raw GF(2) values
            if not np.isin(vals, (0, 1)).all():
                t = int(np.nonzero(~np.isin(vals, (0, 1)))[0][0])
                raise RepresentationError(
                    f"raw term (c={c:#x}, e={e}) is not GF(2)-valued at t={t:#x}"
                )
            bits ^= vals.astype(np.uint8)
    bits.setflags(write=False)
    return bits


def _check_table(tt: np.ndarray) -> int:
    n = int(len(tt)).bit_length() - 1
    if len(tt) != 1 << n:
        raise ValueError(f"truth table length {len(tt)} is not a power of two")
    return n


def _fwht(signs: np.ndarray) -> np.ndarray:
    a = signs.astype(np.int64)
    h = 1
    while h < len(a):
        v = a.reshape(-1, 2 * h)
        lo, hi = v[:, :h].copy(), v[:, h:].copy()
        v[:, :h] = lo + hi
        v[:, h:] = lo - hi
        h *= 2
    return a


@functools.lru_cache(maxsize=None)
def _gram_permutation(tower: FieldTower) -> np.ndarray:
    # w -> M(w) with Tr_n(w x) = <M(w), x> in the polynomial basis
    n = tower.n
    cols = []
    for j in range(n):
        col = 0
        for i in range(n):
            if tower.rel_trace(n, 1, tower.mul(1 << i, 1 << j)):
                col |= 1 << i
        cols.append(col)
    gw = np.zeros(tower.size, dtype=np.int64)
    for j in range(n):
        v = gw.reshape(-1, 2 << j)
        v[:, 1 << j :] ^= cols[j]
    return gw


def walsh(tt: np.ndarray, tower: FieldTower | None = None) -> np.ndarray:
    """Walsh spectrum; with a tower, index w by field encoding via Tr_n(wx).

    Without a tower the plain vector-space inner product <w, x> is used.
    """
    _check_table(tt)
    out = _fwht(1 - 2 * tt.astype(np.int64))
    if tower is not None:
        if len(tt) != tower.size:
            raise ValueError("table length does not match the tower")
        out = out[_gram_permutation(tower)]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=8)
def _naive_kernel(tower: FieldTower | None, n: int) -> np.ndarray:
    # sign matrix (-1)^<w, x> resp. (-1)^Tr_n(w x), rows indexed by w
    idx = np.arange(1 << n, dtype=np.int64)
    if tower is None:
        inner = _parity(idx[:, None] & idx[None, :])
    else:
        exp, log = tower.tables[0], tower.tables[1]
        lsum = log[idx[:, None]] + log[idx[None, :]]
        prod = np.where(
            (log[idx][:, None] < 0) | (log[idx][None, :] < 0), 0, exp[lsum % tower.order]
        )
        inner = tower.trace_bits[prod]
    kernel = 1 - 2 * inner.astype(np.int64)
    kernel.setflags(write=False)
    return kernel


def walsh_naive(tt: np.ndarray, tower: FieldTower | None = None) -> np.ndarray:
    """Direct O(4^n) spectrum from the defining sum; reference oracle."""
    n = _check_table(tt)
    if tower is not None and len(tt) != tower.size:
        raise ValueError("table length does not match the tower")
    spectrum = _naive_kernel(tower, n) @ (1 - 2 * tt.astype(np.int64))
    spectrum.setflags(write=False)
    return spectrum


@dataclass(frozen=True)
class BentVerdict:
    bent: bool
    witness_w: int | None = None
    witness_value: int | None = None

    def __bool__(self) -> bool:
        return self.bent


def is_bent(tt: np.ndarray, tower: FieldTower | None = None) -> BentVerdict:
    """True iff every spectrum value is +-2^(n/2); witness on failure."""
    n = _check_table(tt)
    if n % 2 != 0:
        raise ValueError(f"bentness needs an even number of variables, got n={n}")
    spec = walsh(tt, tower)
    bad = np.nonzero(np.abs(spec) != 1 << (n // 2))[0]
    if len(bad):
        w = int(bad[0])
        return BentVerdict(False, w, int(spec[w]))
    return BentVerdict(True)


def dual(tt: np.ndarray, tower: FieldTower | None = None) -> np.ndarray:
    """Dual of a bent function: sign pattern of its spectrum."""
    n = _check_table(tt)
    verdict = is_bent(tt, tower)
    if not verdict:
        raise ValueError(
            f"dual of a non-bent function (spectrum[{verdict.witness_w}] = {verdict.witness_value})"
        )
    spec = walsh(tt, tower)
    out = (spec != (1 << (n // 2))).astype(np.uint8)
    out.setflags(write=False)
    return out


def anf(tt: np.ndarray) -> np.ndarray:
    """Moebius transform (its own inverse): truth table <-> ANF coefficients."""
    _check_table(tt)
    a = tt.astype(np.uint8).copy()
    h = 1
    while h < len(a):
        v = a.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2
    a.setflags(write=False)
    return a


def algebraic_degree(tt: np.ndarray) -> int:
    """Max monomial degree in the ANF; 0 for the zero function."""
    coeffs = anf(tt)
    nz = np.nonzero(coeffs)[0]
    if len(nz) == 0:
        return 0
    return int(np.bitwise_count(nz).max())


def nonlinearity(tt: np.ndarray, tower: FieldTower | None = None) -> int:
    """Distance to the nearest affine function: 2^(n-1) - max|spectrum|/2."""
    n = _check_table(tt)
    spec = walsh(tt, tower)
    return (1 << (n - 1)) - int(np.abs(spec).max()) // 2


def is_affine_difference(f: np.ndarray, g: np.ndarray) -> bool:
    """True iff f and g differ by a function of degree at most 1."""
    if len(f) != len(g):
        raise ValueError(f"table sizes differ: {len(f)} vs {len(g)}")
    return algebraic_degree(f ^ g) <= 1


# ---- serialisation ----------------------------------------------------------


def table_to_hex(tt: np.ndarray) -> str:
    """2^n bits as lowercase hex, bit index = enc(t), little-endian in bytes."""
    _check_table(tt)
    return np.packbits(tt, bitorder="little").tobytes().hex()


def table_from_hex(s: str) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(s), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    _check_table(bits)
    bits.setflags(write=False)
    return bits


def spectrum_to_csv(spec: np.ndarray, tower: FieldTower) -> str:
    lines = [f"{tower.element_hex(w)},{int(v)}" for w, v in enumerate(spec)]
    return "\n".join(lines) + "\n"
