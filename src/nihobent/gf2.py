"""Deterministic binary field tower GF(2) < GF(2^m) < GF(2^{2m}).

Elements are plain ints: bit i of the int is the coefficient of x^i in the
polynomial basis of GF(2^{2m}).  The zero and one elements are the ints 0
and 1.  A FieldTower carries the modulus and all arithmetic; the subfield
GF(2^m) is identified inside the big field as the fixed points of the
m-fold Frobenius, so subfield values and extension values mix freely.

Construction is reproducible bit for bit: the modulus is the irreducible
polynomial of degree 2m with the smallest integer encoding, and the
generator is the primitive element with the smallest integer encoding.

Everything here is immutable after construction and safe for concurrent
use; all operations are pure functions.
"""

from __future__ import annotations

import functools
import json
from typing import NamedTuple

import numpy as np


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    # carryless multiply, reducing by mod whenever the degree reaches deg(mod)
    top = 1 << _poly_degree(mod)
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
        if b & top:
            b ^= mod
    return r


def _poly_mod(a: int, mod: int) -> int:
    dm = _poly_degree(mod)
    while _poly_degree(a) >= dm and a:
        a ^= mod << (_poly_degree(a) - dm)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _poly_powmod_x(exp_log2: int, mod: int) -> int:
    # x^(2^exp_log2) mod `mod`, by repeated squaring of polynomials
    r = 2  # the polynomial x
    for _ in range(exp_log2):
        r = _poly_mulmod(r, r, mod)
    return r


def prime_factors(value: int) -> list[int]:
    """Distinct prime factors by trial division (fine for 2^32-sized inputs)."""
    out = []
    d = 2
    while d * d <= value:
        if value % d == 0:
            out.append(d)
            while value % d == 0:
                value //= d
        d += 1
    if value > 1:
        out.append(value)
    return out


def is_irreducible(poly: int) -> bool:
    """Rabin test: exact irreducibility over GF(2) for int-encoded poly."""
    deg = _poly_degree(poly)
    if deg <= 0:
        return False
    if _poly_powmod_x(deg, poly) != 2:  # x^(2^deg) == x (mod poly)
        return False
    for q in prime_factors(deg):
        h = _poly_powmod_x(deg // q, poly) ^ 2
        if _poly_gcd(poly, h) != 1:
            return False
    return True


def smallest_irreducible(degree: int) -> int:
    """Irreducible polynomial of the given degree with minimal int encoding."""
    # constant term 1 (no root 0) and odd weight (no root 1) prune the scan
    for cand in range((1 << degree) + 1, 1 << (degree + 1), 2):
        if cand.bit_count() % 2 == 1 and is_irreducible(cand):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {degree}")


_TABLE_LIMIT_N = 22  # discrete-log tables only up to 2^22 entries
_EXP_SEED = 256  # powers of the generator computed one by one before doubling


class FieldTables(NamedTuple):
    """Read-only lookup tables of one tower, each indexed as documented.

    Every 2^n-entry index table is int32: n <= 22, so every encoding and
    every log fits.  Widen a log to int64 before multiplying it.
    """

    exp: np.ndarray  # int32, i -> g^i for 0 <= i < 2^n - 1
    log: np.ndarray  # int32, encoding x -> log_g x, -1 at x = 0
    trace_bits: np.ndarray  # uint8, x -> Tr_n(x)
    subfield_trace_bits: np.ndarray  # uint8, x -> Tr_m(x) on the subfield (a linear form elsewhere)
    subfield_elements: np.ndarray  # int64, the 2^m subfield encodings in ascending order
    subfield_index: np.ndarray  # int32, encoding -> position in subfield_elements, -1 outside


def _reduce_exponent(e: int, order: int) -> int:
    """Reduce e for x^e in a cyclic group of the given order with 0 adjoined.

    A nonzero e lands in [1, order], never on 0: x^order is 1 for x != 0
    but 0 for x = 0, so only e = 0 itself means the constant 0^0 = 1.
    """
    if e == 0:
        return 0
    return (e - 1) % order + 1


class FieldTower:
    """GF(2^{2m}) with its GF(2^m) subfield, fixed modulus and generator.

    Use make_tower(m) instead of calling this directly; towers are cached
    and meant to be shared.
    """

    def __init__(self, m: int):
        if not 2 <= m <= 16:
            raise ValueError(f"m must be in [2, 16], got {m}")
        self.m = m
        self.n = 2 * m
        self.order = (1 << self.n) - 1  # multiplicative group order
        self.size = 1 << self.n
        self.modulus = smallest_irreducible(self.n)
        self._factors = prime_factors(self.order)
        self.generator = self._find_generator()
        self._tables = None

    # ---- scalar arithmetic -------------------------------------------------

    @staticmethod
    def add(x: int, y: int) -> int:
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        return _poly_mulmod(x, y, self.modulus)

    def pow(self, x: int, e: int) -> int:
        """x^e with e any integer; 0^0 = 1 and 0^e = 0 for every e != 0."""
        e = _reduce_exponent(e, self.order)
        if x == 0:
            return 1 if e == 0 else 0
        r, b = 1, x
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^n)")
        return self.pow(x, self.order - 1)

    def frobenius(self, x: int, j: int = 1) -> int:
        """x^(2^j), j taken modulo n."""
        j %= self.n
        return self.pow(x, 1 << j)

    def rel_trace(self, k: int, r: int, x: int) -> int:
        """Trace from GF(2^k) onto GF(2^r): sum of x^(2^(i*r)), i < k/r."""
        if k not in (self.m, self.n):
            raise ValueError(f"trace source degree must be m={self.m} or n={self.n}")
        if k % r != 0:
            raise ValueError(f"{r} does not divide {k}")
        if k == self.m and not self.in_subfield(x):
            raise ValueError(f"element {x:#x} is not in the GF(2^{self.m}) subfield")
        acc, s = x, x
        for _ in range(k // r - 1):
            s = self.frobenius(s, r)
            acc ^= s
        return acc

    def in_subfield(self, x: int) -> bool:
        return self.frobenius(x, self.m) == x

    def is_primitive(self, x: int) -> bool:
        if x == 0:
            return False
        return all(self.pow(x, self.order // q) != 1 for q in self._factors)

    def _find_generator(self) -> int:
        for g in range(2, self.size):
            if self.is_primitive(g):
                return g
        raise RuntimeError("no primitive element found (broken modulus)")

    # ---- cached bulk tables ------------------------------------------------

    def _build_tables(self) -> FieldTables:
        if self.n > _TABLE_LIMIT_N:
            raise ValueError(f"table-backed operations unsupported for n={self.n}")
        m, size, order = self.m, self.size, self.order
        q = 1 << m
        # exp by doubling: exp[L:2L] = g^L exp[:L], a GF(2)-linear map of exp[:L]
        exp = np.empty(order, dtype=np.int32)
        filled = min(order, _EXP_SEED)
        v = 1
        for i in range(filled):
            exp[i] = v
            v = self.mul(v, self.generator)
        while filled < order:
            step = min(filled, order - filled)
            c = self.mul(int(exp[filled - 1]), self.generator)
            exp[filled : filled + step] = self._mul_const_all(c, exp[:step])
            filled += step
        log = np.full(size, -1, dtype=np.int32)
        log[exp] = np.arange(order, dtype=np.int32)

        # the subfield is {0} and the powers of beta = g^(q+1)
        sub_elems = np.concatenate([[0], np.sort(exp[:: q + 1])], dtype=np.int64)
        sub_index = np.full(size, -1, dtype=np.int32)
        sub_index[sub_elems] = np.arange(q, dtype=np.int32)

        # Tr_n(c y) as a GF(2)-linear form of y: mask bit i = Tr_n(c x^i).  On
        # the subfield Tr_m(y) = Tr_n(theta y) for any theta + theta^q = 1, such
        # as z / (z + z^q) with z = x (encoding 2), which lies outside it.
        theta = self.mul(2, self.inv(2 ^ self.frobenius(2, m)))
        mask_n, mask_m = (
            sum(self.rel_trace(self.n, 1, self.mul(c, 1 << i)) << i for i in range(self.n))
            for c in (1, theta)
        )

        idx = np.arange(size, dtype=np.int32)
        tables = FieldTables(
            exp=exp,
            log=log,
            trace_bits=_parity(idx & mask_n),
            subfield_trace_bits=_parity(idx & mask_m),
            subfield_elements=sub_elems,
            subfield_index=sub_index,
        )
        for table in tables:
            table.setflags(write=False)
        return tables

    def _mul_const_all(self, c: int, xs: np.ndarray) -> np.ndarray:
        """c x for every encoding x in xs, XORing one 256-entry table per byte of x."""
        out = np.zeros(len(xs), dtype=np.int32)
        col = c  # c x^i, for bit i of x
        for shift in range(0, self.n, 8):
            byte_table = np.zeros(256, dtype=np.int32)
            for i in range(min(8, self.n - shift)):
                byte_table[1 << i : 2 << i] = byte_table[: 1 << i] ^ col
                col = self.mul(col, 2)
            out ^= byte_table[(xs >> shift) & 0xFF]
        return out

    @property
    def tables(self) -> FieldTables:
        if self._tables is None:
            self._tables = self._build_tables()
        return self._tables

    # vectorised arithmetic on integer arrays of encodings, in the log domain
    # of the int32 tables
    def pow_vec(self, xs: np.ndarray, e: int) -> np.ndarray:
        """x^e for every x in xs, with the exponent rule of pow."""
        e = _reduce_exponent(e, self.order)
        if e == 0:
            return np.ones_like(xs)
        lg = self.tables.log[xs]
        # log x * e reaches 2^44 at n = 22: widen, or int32 wraps
        return np.where(lg < 0, 0, self.tables.exp[lg.astype(np.int64) * e % self.order])

    def mul_vec(self, xs, ys) -> np.ndarray:
        """Elementwise x y; either operand may be a scalar encoding."""
        exp, log = self.tables.exp, self.tables.log
        lx, ly = log[xs], log[ys]
        out = exp[(lx + ly) % self.order]
        return np.where((lx < 0) | (ly < 0), 0, out)

    mul_scalar_vec = mul_vec  # c x for a scalar c; log[0] = -1 covers c = 0

    # ---- serialisation -----------------------------------------------------

    def element_hex(self, x: int) -> str:
        nbytes = (self.n + 7) // 8
        return x.to_bytes(nbytes, "little").hex()

    def element_from_hex(self, s: str) -> int:
        try:
            raw = bytes.fromhex(s)
            if not raw:  # "" would otherwise read as 0
                raise ValueError
        except ValueError:
            raise ValueError(f"encoding {s!r} is not a string of hex bytes") from None
        x = int.from_bytes(raw, "little")
        if x >= self.size:
            raise ValueError(f"encoding {s!r} out of range for n={self.n}")
        return x

    def to_json(self) -> str:
        nbytes = (self.n + 8) // 8
        return json.dumps(
            {
                "m": self.m,
                "modulus_hex": self.modulus.to_bytes(nbytes, "little").hex(),
                "generator_hex": self.element_hex(self.generator),
            }
        )

    def __repr__(self):
        return f"FieldTower(m={self.m}, modulus={self.modulus:#x}, generator={self.generator:#x})"


def _parity(a: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(a) & 1).astype(np.uint8)


@functools.lru_cache(maxsize=None)
def make_tower(m: int) -> FieldTower:
    """The canonical tower GF(2^{2m}) for a given m (cached, 2 <= m <= 16)."""
    return FieldTower(m)


_BASIS_BLOCK = 1 << 12  # encodings tested per vectorised step of the basis search


def find_unit_relative_trace(tower: FieldTower, require_primitive: bool = False) -> int:
    """Deterministic basis element off the subfield.

    Without the flag: smallest encoding a with a + a^(2^m) = 1.  With it:
    smallest-encoding primitive a with a + a^(2^m) != 0.  The encodings are
    tested in ascending blocks over the exp/log tables; a is primitive iff
    gcd(log a, 2^n - 1) = 1.
    """
    for start in range(0, tower.size, _BASIS_BLOCK):
        a = np.arange(start, min(start + _BASIS_BLOCK, tower.size), dtype=np.int64)
        t = a ^ tower.pow_vec(a, 1 << tower.m)
        if require_primitive:
            hit = (t != 0) & (np.gcd(tower.tables.log[a], tower.order) == 1)
        else:
            hit = t == 1
        if hit.any():
            return int(a[np.argmax(hit)])
    raise RuntimeError("scan exhausted GF(2^n) without a match; tower is inconsistent")
