"""Truth-table Boolean functions on GF(2^{2m}).

A truth table is a numpy uint8 array of 0/1 values of length 2^n indexed by
the integer encoding of the field element t.  Walsh spectra are int64
arrays of the same length, always indexed by the field element w, so every
spectrum function takes the tower.  The fast transform uses the standard
Walsh-Hadamard butterfly on the sign vector and then permutes the output
through the Gram matrix of the trace bilinear form, so spectrum[w] is the
sum over (-1)^(f(x) + Tr_n(wx)) exactly (the tests check it against the
quadratic-time defining sum).  Bentness and nonlinearity can be read off a
spectrum already computed, so a report needs one transform per function.

All functions are pure; returned arrays are read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf2 import FieldTower, _reduce_exponent


class RepresentationError(ValueError):
    """A trace term is not Niho, so the polar fold of `evaluate` cannot take it."""


@dataclass(frozen=True)
class TracePolynomial:
    """Sparse sum of trace terms Tr_k(c * t^e) defining a Boolean function.

    terms: tuple of (k, c, e) with k in {m, n}, the absolute trace of the
    subfield or of the big field.  A nonzero exponent is stored reduced into
    [1, 2^n - 1], so only e = 0 is the constant (0^0 = 1).
    """

    m: int
    terms: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n = 2 * self.m
        order = (1 << n) - 1
        fixed = []
        for k, c, e in self.terms:
            if k not in (self.m, n):
                raise ValueError(f"trace degree {k} not in {{{self.m}, {n}}}")
            fixed.append((k, c, _reduce_exponent(e, order)))
        object.__setattr__(self, "terms", tuple(fixed))

    def __add__(self, other: "TracePolynomial") -> "TracePolynomial":
        if self.m != other.m:
            raise ValueError("cannot add trace polynomials over different towers")
        return TracePolynomial(self.m, self.terms + other.terms)


def evaluate(tower: FieldTower, poly: TracePolynomial) -> np.ndarray:
    """Truth table of a Niho trace polynomial over all t in GF(2^n).

    Every term with c != 0 must be Niho: e = 2^s (mod 2^m - 1), and for
    k = m also c t^e in the subfield.  With t = v u, v in GF(2^m)* and u on
    the unit circle U of order 2^m + 1, the sum is Tr_m(v g(u)); each term
    adds O(2^m) to g, and one O(2^n) pass spreads g over the table.  Any
    other term raises RepresentationError naming it.
    """
    if poly.m != tower.m:
        raise ValueError(f"polynomial is over m={poly.m}, tower has m={tower.m}")
    m, n, order = tower.m, tower.n, tower.order
    q = 1 << m
    exp, log = tower.tables.exp, tower.tables.log
    js = np.arange(q + 1, dtype=np.int64)  # u_j = gamma^((q-1) j)
    g = np.zeros(q + 1, dtype=np.int64)
    for k, c, e in poly.terms:
        if c == 0:
            continue
        s = _niho_shift(e, q)
        if s is None:
            raise RepresentationError(
                f"Tr_{k} term (c={c:#x}, e={e}) is not Niho: e is not 2^s mod 2^{m} - 1"
            )
        # log of w = c u^e; Tr_m(v^(2^s) x) = Tr_m(v x^(2^(m-s))) for x in GF(2^m)
        lw = (int(log[c]) + (q - 1) * (js * e % (q + 1))) % order
        r = 1 << (m - s)
        if k == n:  # Tr_n(c t^e) = Tr_m(v^(2^s) (w + w^q))
            g ^= exp[lw * r % order] ^ exp[lw * (q * r % order) % order]
            continue
        off = np.nonzero(tower.tables.subfield_index[exp[lw]] < 0)[0]
        if len(off):  # c t^e leaves GF(2^m) at t = u_j, v = 1
            t = int(exp[(q - 1) * int(off[0])])
            raise RepresentationError(
                f"Tr_{k} term (c={c:#x}, e={e}) leaves the subfield at t={t:#x}"
            )
        g ^= exp[lw * r % order]
    bits = _polar_table(tower, g)
    bits.setflags(write=False)
    return bits


def _niho_shift(e: int, q: int) -> int | None:
    """s with e = 2^s (mod q - 1), or None when e is not a Niho exponent."""
    r = e % (q - 1)
    if r == 0 or r & (r - 1):
        return None
    return r.bit_length() - 1


def _niho_d(m: int, s: int) -> int:
    """The normalized Niho exponent (2^m - 1) s + 1, s read modulo 2^m + 1."""
    order = (1 << 2 * m) - 1
    return (((1 << m) - 1) * (s % ((1 << m) + 1)) + 1) % order


def _sc_exponent(m: int) -> int:
    """The self-conjugate exponent 2^(m-1) (2^m + 1) of the Tr_m term."""
    return (1 << (m - 1)) * ((1 << m) + 1)


def lk_exponents(m: int, r: int) -> list[int]:
    """The LK ladder: exponents (2^m - 1)(2^(m-r) i + 1) + 1 for slots i = 1 .. 2^(r-1) - 1.

    2^(m-r) is read modulo 2^m + 1, which also covers r > m.
    """
    step = pow(2, m - r, (1 << m) + 1)
    return [_niho_d(m, step * i + 1) for i in range(1, 1 << (r - 1))]


def _polar_table(tower: FieldTower, g: np.ndarray) -> np.ndarray:
    """Table of t = v u -> Tr_m(v g(u)), with g indexed by u_j = gamma^((q-1) j).

    Both Niho forms come through here: evaluate folds its Niho terms into g,
    and bridge.bivariate_truth_table reads g off the class-H map G.

    Writing log t = (q+1) a + b, gamma^b = gamma^((q+1) i_b) u_(j_b), so
    column b of the table is the m-sequence Tr_m(gamma^((q+1) x)) shifted by
    i_b + log_(gamma^(q+1)) g(u_(j_b)), or zero where g(u_(j_b)) = 0.
    """
    m, order = tower.m, tower.order
    q = 1 << m
    exp, log = tower.tables.exp, tower.tables.log
    tau = tower.tables.subfield_trace_bits[exp[:: q + 1]]
    b = np.arange(q + 1, dtype=np.int64)
    i_b = b * (q >> 1) % (q - 1)  # 2^(m-1) inverts 2 modulo q - 1
    j_b = -b * ((q >> 1) + 1) % (q + 1)  # 2^(m-1) + 1 inverts 2 modulo q + 1
    gb = g[j_b]
    shift = (i_b + np.where(gb == 0, 0, log[gb] // (q + 1))) % (q - 1)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([tau, tau]), q - 1)
    cols = windows[shift] * (gb != 0)[:, None].astype(np.uint8)
    by_log = cols.T.ravel()
    bits = np.empty(tower.size, dtype=np.uint8)
    bits[0] = 0
    bits[1:] = by_log[log[1:]]
    return bits


def _check_table(tt: np.ndarray) -> int:
    if len(tt) == 0:
        raise ValueError("truth table is empty")
    n = int(len(tt)).bit_length() - 1
    if len(tt) != 1 << n:
        raise ValueError(f"truth table length {len(tt)} is not a power of two")
    return n


def _fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard butterfly, in place on the fresh int64 array `a`, which it returns."""
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
    # w -> M(w) with Tr_n(w x) = <M(w), x> in the polynomial basis; the Gram
    # matrix is Hankel: entry (i, j) is Tr_n(x^i x^j) = Tr_n(x^(i+j))
    n = tower.n
    hankel = [int(tower.tables.trace_bits[tower.pow(2, k)]) for k in range(2 * n - 1)]
    cols = [sum(hankel[i + j] << i for i in range(n)) for j in range(n)]
    gw = np.zeros(tower.size, dtype=np.int32)
    for j in range(n):
        v = gw.reshape(-1, 2 << j)
        v[:, 1 << j :] ^= cols[j]
    return gw


def walsh(tt: np.ndarray, tower: FieldTower) -> np.ndarray:
    """Walsh spectrum indexed by the field element w: sum over x of (-1)^(f(x) + Tr_n(wx))."""
    if len(tt) != tower.size:
        raise ValueError(f"table length {len(tt)} does not match the tower's 2^{tower.n}")
    out = _fwht(1 - 2 * tt.astype(np.int64))[_gram_permutation(tower)]  # <w, x> -> Tr_n(wx)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BentVerdict:
    bent: bool
    witness_w: int | None = None
    witness_value: int | None = None

    def __bool__(self) -> bool:
        return self.bent


def is_bent(tt: np.ndarray, tower: FieldTower) -> BentVerdict:
    """True iff every spectrum value is +-2^(n/2); witness on failure."""
    return verdict_from_spectrum(walsh(tt, tower))


def verdict_from_spectrum(spec: np.ndarray) -> BentVerdict:
    """Bentness read off a Walsh spectrum of length 2^n, n even."""
    n = _check_table(spec)
    if n % 2 != 0:
        raise ValueError(f"bentness needs an even number of variables, got n={n}")
    bad = np.nonzero(np.abs(spec) != 1 << (n // 2))[0]
    if len(bad):
        w = int(bad[0])
        return BentVerdict(False, w, int(spec[w]))
    return BentVerdict(True)


def dual(tt: np.ndarray, tower: FieldTower) -> np.ndarray:
    """Dual of a bent function: sign pattern of its spectrum."""
    spec = walsh(tt, tower)
    verdict = verdict_from_spectrum(spec)
    if not verdict:
        raise ValueError(
            f"dual of a non-bent function (spectrum[{verdict.witness_w}] = {verdict.witness_value})"
        )
    out = (spec != (1 << tower.m)).astype(np.uint8)
    out.setflags(write=False)
    return out


def anf(tt: np.ndarray) -> np.ndarray:
    """Moebius transform (its own inverse): truth table <-> ANF coefficients."""
    _check_table(tt)
    a = tt.astype(np.uint8)  # a new array, transformed in place
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


def nonlinearity(tt: np.ndarray, tower: FieldTower) -> int:
    """Distance to the nearest affine function: 2^(n-1) - max|spectrum|/2."""
    return nonlinearity_from_spectrum(walsh(tt, tower))


def nonlinearity_from_spectrum(spec: np.ndarray) -> int:
    """Nonlinearity read off a Walsh spectrum of length 2^n."""
    n = _check_table(spec)
    return (1 << (n - 1)) - int(np.abs(spec).max()) // 2


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


_FORMAT_BLOCK = 1 << 16  # rows formatted at a time; no temporary spans the whole spectrum
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _format_rows(spec: np.ndarray, label_bytes: int, sep: bytes, end: bytes):
    """ASCII blocks of rows `w_hex sep value end`, each block a NUL-padded uint8 matrix."""
    lead = 2 * label_bytes + len(sep)
    for i in range(0, len(spec), _FORMAT_BLOCK):
        block = spec[i : i + _FORMAT_BLOCK]
        values = np.unique(block)
        strings = np.array([str(v).encode() for v in values.tolist()])  # NUL-padded
        width = strings.dtype.itemsize
        rows = np.empty((len(block), lead + width + len(end)), dtype=np.uint8)
        w = np.arange(i, i + len(block))
        for k in range(label_bytes):  # byte k of w, little-endian, as element_hex writes it
            rows[:, 2 * k] = _HEX_DIGITS[w >> (8 * k + 4) & 15]
            rows[:, 2 * k + 1] = _HEX_DIGITS[w >> (8 * k) & 15]
        rows[:, 2 * label_bytes : lead] = np.frombuffer(sep, dtype=np.uint8)
        chars = strings.view(np.uint8).reshape(-1, width)
        rows[:, lead : lead + width] = np.take(chars, np.searchsorted(values, block), axis=0)
        rows[:, lead + width :] = np.frombuffer(end, dtype=np.uint8)
        yield rows[rows != 0].tobytes()


def _csv_blocks(spec: np.ndarray, tower: FieldTower):
    """The CSV text of spectrum_to_csv as ASCII blocks of 2^16 rows."""
    return _format_rows(spec, (tower.n + 7) // 8, b",", b"\n")


def _json_blocks(spec: np.ndarray):
    """The JSON text of spectrum_to_json as ASCII blocks of 2^16 values."""
    yield b"["
    yield from _format_rows(spec[:-1], 0, b"", b", ")
    if len(spec):
        yield str(int(spec[-1])).encode()
    yield b"]"


def write_spectrum(path, spec: np.ndarray, tower: FieldTower, fmt: str) -> None:
    """Write the text of spectrum_to_csv or spectrum_to_json (fmt "csv" or "json") by blocks."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown spectrum format {fmt!r}")
    with open(path, "wb") as fh:  # no whole-file string is built
        fh.writelines(_csv_blocks(spec, tower) if fmt == "csv" else _json_blocks(spec))


def spectrum_to_csv(spec: np.ndarray, tower: FieldTower) -> str:
    """Rows `w_hex,value` in w order, each ending in a newline, formatted 2^16 rows at a time."""
    return b"".join(_csv_blocks(spec, tower)).decode("ascii")


def spectrum_to_json(spec: np.ndarray) -> str:
    """The text of json.dumps([int(v) for v in spec]), formatted blockwise like spectrum_to_csv."""
    return b"".join(_json_blocks(spec)).decode("ascii")
