"""Independent reference arithmetic for checking nihobent's outputs.

Nothing here imports nihobent.  Field elements use the same encoding as
the program (bit i = coefficient of x^i modulo the tower's modulus), but
every operation is re-derived: multiplication is a full carry-less product
followed by long division, irreducibility is tested by trial division,
spectra use a plain Walsh-Hadamard transform over the dot product <w, x>,
and degrees come from a separate Moebius transform.
"""

from __future__ import annotations

import math

import numpy as np


def _deg(p: int) -> int:
    return p.bit_length() - 1


def poly_rem(a: int, mod: int) -> int:
    """Remainder of a by mod over GF(2), by long division."""
    dm = _deg(mod)
    while a and _deg(a) >= dm:
        a ^= mod << (_deg(a) - dm)
    return a


def clmul(a: int, b: int) -> int:
    """Carry-less product, no reduction."""
    r = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            r ^= a << i
        i += 1
    return r


def irreducible(poly: int) -> bool:
    """Trial division by every polynomial of degree 1 .. deg/2."""
    d = _deg(poly)
    if d < 1:
        return False
    for div in range(2, 1 << (d // 2 + 1)):
        if poly_rem(poly, div) == 0:
            return False
    return True


def smallest_irreducible(degree: int) -> int:
    for cand in range(1 << degree, 1 << (degree + 1)):
        if irreducible(cand):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {degree}")


def prime_divisors(v: int) -> list[int]:
    out, p = [], 2
    while p * p <= v:
        if v % p == 0:
            out.append(p)
            while v % p == 0:
                v //= p
        p += 1
    return out + ([v] if v > 1 else [])


class Field:
    """GF(2^n) with the given modulus, checked irreducible here; m = n / 2."""

    def __init__(self, n: int, modulus: int):
        self.n, self.m = n, n // 2
        if _deg(modulus) != n or not irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is not irreducible of degree {self.n}")
        self.mod = modulus
        self.order = (1 << self.n) - 1
        self._exp = self._log = None

    def mul(self, a: int, b: int) -> int:
        return poly_rem(clmul(a, b), self.mod)

    def pow(self, x: int, e: int) -> int:
        if e == 0:
            return 1
        if x == 0:
            return 0
        e %= self.order
        if e == 0:
            e = self.order
        r = 1
        for bit in bin(e)[2:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, x)
        return r

    def inv(self, x: int) -> int:
        return self.pow(x, self.order - 1)

    def frob(self, x: int, j: int) -> int:
        for _ in range(j % self.n):
            x = self.mul(x, x)
        return x

    def trace(self, x: int, k: int) -> int:
        """Absolute trace of x from GF(2^k), k in {m, n}."""
        acc = s = x
        for _ in range(k - 1):
            s = self.mul(s, s)
            acc ^= s
        if acc not in (0, 1):
            raise ValueError(f"Tr_{k}({x:#x}) = {acc:#x} is not in GF(2)")
        return acc

    def rel_trace(self, x: int) -> int:
        """x + x^(2^m), the trace onto the subfield."""
        return x ^ self.frob(x, self.m)

    def is_primitive(self, x: int) -> bool:
        return x != 0 and all(self.pow(x, self.order // p) != 1 for p in prime_divisors(self.order))

    def trace_mask(self, w: int) -> int:
        """Mask M with Tr_n(w x) = parity(M & x) for every x."""
        return sum(self.trace(self.mul(w, 1 << i), self.n) << i for i in range(self.n))

    # ---- vector arithmetic for small n (tables built by this module) -----

    def _tables(self):
        if self._exp is None:
            if self.n > 16:
                raise ValueError("reference tables only for n <= 16")
            g = next(x for x in range(2, 1 << self.n) if self.is_primitive(x))
            exp = np.empty(self.order, dtype=np.int64)
            v = 1
            for i in range(self.order):
                exp[i] = v
                v = self.mul(v, g)
            log = np.full(1 << self.n, -1, dtype=np.int64)
            log[exp] = np.arange(self.order)
            self._exp, self._log = exp, log
        return self._exp, self._log

    def vmul(self, xs, ys) -> np.ndarray:
        exp, log = self._tables()
        lx, ly = log[np.asarray(xs)], log[np.asarray(ys)]
        return np.where((lx < 0) | (ly < 0), 0, exp[(lx + ly) % self.order])

    def vpow(self, xs, e: int) -> np.ndarray:
        exp, log = self._tables()
        lx = log[np.asarray(xs)]
        if e == 0:
            return np.ones_like(lx)
        return np.where(lx < 0, 0, exp[(lx * e) % self.order])

    def subfield(self) -> np.ndarray:
        """The 2^m subfield encodings in ascending order."""
        exp, _ = self._tables()
        return np.sort(np.concatenate(([0], exp[:: (1 << self.m) + 1])))


def eval_trace_terms(field: Field, terms, t: int) -> int:
    """Sum of Tr_k(c t^e) over (k, c, e) terms at one point (0^0 = 1)."""
    bit = 0
    for k, c, e in terms:
        v = field.mul(c, field.pow(t, e))
        if k == 1:
            if v not in (0, 1):
                raise ValueError(f"raw term is not GF(2)-valued at t={t:#x}")
            bit ^= v
        else:
            bit ^= field.trace(v, k)
    return bit


# ---- Boolean functions -------------------------------------------------------


def bits_from_hex(s: str) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(s.strip()), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")


def plain_walsh(bits: np.ndarray) -> np.ndarray:
    """W(w) = sum over x of (-1)^(f(x) + <w, x>), <,> the dot product."""
    n = len(bits).bit_length() - 1
    a = (1 - 2 * bits.astype(np.int32)).reshape((2,) * n)
    for axis in range(n):
        lo, hi = np.take(a, 0, axis=axis), np.take(a, 1, axis=axis)
        a = np.stack((lo + hi, lo - hi), axis=axis)
    return a.reshape(-1)


def degree(bits: np.ndarray) -> int:
    """Algebraic degree via the binary Moebius transform."""
    n = len(bits).bit_length() - 1
    a = bits.astype(np.uint8).reshape((2,) * n)
    for axis in range(n):
        lo, hi = np.take(a, 0, axis=axis), np.take(a, 1, axis=axis)
        a = np.stack((lo, lo ^ hi), axis=axis)
    support = np.nonzero(a.reshape(-1))[0]
    if len(support) == 0:
        return 0
    return int(np.bitwise_count(support).max())


def bent_profile(bits: np.ndarray, m: int) -> tuple[np.ndarray, str | None]:
    """Plain spectrum and an error if the function is not bent on 2m vars."""
    if len(bits) != 1 << (2 * m):
        return None, f"table has {len(bits)} entries, expected 2^{2 * m}"
    spec = plain_walsh(bits)
    bad = np.nonzero(np.abs(spec) != 1 << m)[0]
    if len(bad):
        return spec, f"not bent: |W({int(bad[0])})| = {abs(int(spec[bad[0]]))} != 2^{m}"
    return spec, None


def field_walsh_at(field: Field, bits: np.ndarray, w: int) -> int:
    """Sum over x of (-1)^(f(x) + Tr_n(w x)), straight from the definition."""
    x = np.arange(len(bits), dtype=np.int64)
    lin = np.bitwise_count(x & field.trace_mask(w)) & 1
    return int((1 - 2 * (bits.astype(np.int64) ^ lin)).sum())


def element_hex(x: int, n: int) -> str:
    return x.to_bytes((n + 7) // 8, "little").hex()


def is_opoly_table(field: Field, zs: np.ndarray, table: np.ndarray) -> str | None:
    """Error unless z -> G(z) + beta z is 2-to-1 for every nonzero beta."""
    pos = np.full(1 << field.n, -1, dtype=np.int64)
    pos[zs] = np.arange(len(zs))
    if (pos[table] < 0).any():
        return "values leave the subfield"
    for beta in zs[1:]:
        vals = table ^ field.vmul(np.full(len(zs), beta), zs)
        counts = np.bincount(pos[vals], minlength=len(zs))
        if not np.isin(counts, (0, 2)).all():
            return f"not 2-to-1 for beta={int(beta):#x}"
    return None


def canonical_lk(m: int, r: int) -> bool:
    return 1 < r < m and math.gcd(r, m) == 1
