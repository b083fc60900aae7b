"""O-polynomial verification over GF(2^m) and the known catalog.

An o-polynomial is a mapping F on GF(2^m) such that z -> F(z) + beta z is
2-to-1 for every nonzero beta; these encode hyperovals of PG(2, 2^m).  The
subfield lives inside the GF(2^{2m}) tower, so OPolyMap tables hold tower
encodings indexed by subfield position.

The catalog holds every known o-monomial family (Frobenius, the five
quadratic families, the cubic one) and the two o-trinomials, each with its
validity predicate on m; the equivalent-o-monomial table reads its G1 cells
from the catalog by name and holds at most one G3 per row.  Verdicts come
from the exhaustive 2-to-1 scan; the sparse terms are presentation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import FieldTower, _reduce_exponent

# rows of the interpolation matrix handled per numpy pass: each temporary
# is this many times 2^m int64 entries (64 KB at m = 7, 1 MB at m = 11)
_INTERP_BLOCK_ROWS = 64


class OPolyMap:
    """Mapping GF(2^m) -> GF(2^m): sparse terms plus the full value table."""

    def __init__(self, tower: FieldTower, table: np.ndarray, terms=()):
        self.tower = tower
        self.m = tower.m
        table = np.asarray(table, dtype=np.int64)
        if len(table) != 1 << self.m:
            raise ValueError(f"table must have 2^{self.m} entries, got {len(table)}")
        if ((table < 0) | (table >= tower.size)).any() or (tower.tables.subfield_index[table] < 0).any():
            raise ValueError("table values must lie in the subfield")
        table = table.copy()
        table.setflags(write=False)
        self.table = table
        self.terms = tuple((c, e) for c, e in terms)

    @classmethod
    def from_terms(cls, tower: FieldTower, terms) -> "OPolyMap":
        """Build the value table from sparse (coefficient, exponent) terms.

        A nonzero exponent is reduced into [1, 2^m - 1], so only e = 0 is the
        constant term (0^0 = 1); coefficients must be subfield elements.
        """
        sub_order = (1 << tower.m) - 1
        zs = tower.tables.subfield_elements
        table = np.zeros(len(zs), dtype=np.int64)
        fixed = []
        for c, e in terms:
            if not tower.in_subfield(c):
                raise ValueError(f"coefficient {c:#x} is not in the subfield")
            e = _reduce_exponent(e, sub_order)
            fixed.append((c, e))
            table ^= tower.mul_scalar_vec(c, tower.pow_vec(zs, e))
        return cls(tower, table, fixed)

    @classmethod
    def monomial(cls, tower: FieldTower, e: int, c: int = 1) -> "OPolyMap":
        return cls.from_terms(tower, [(c, e)])

    def __call__(self, z: int) -> int:
        idx = int(self.tower.tables.subfield_index[z])
        if idx < 0:
            raise ValueError(f"{z:#x} is not a subfield element")
        return int(self.table[idx])

    def __eq__(self, other) -> bool:
        return isinstance(other, OPolyMap) and self.m == other.m and np.array_equal(
            self.table, other.table
        )

    def __repr__(self):
        return f"OPolyMap(m={self.m}, terms={self.terms})"


@dataclass(frozen=True)
class OPolyVerdict:
    is_opoly: bool
    is_permutation: bool
    witness_beta: int | None = None
    witness_value: int | None = None
    witness_count: int | None = None

    def __bool__(self):
        return self.is_opoly


def is_opolynomial(F: OPolyMap) -> OPolyVerdict:
    """Exhaustive check that F(z) + beta z is 2-to-1 for every beta != 0.

    Also reports whether F itself is a permutation (the weaker condition the
    2-to-1 property implies).  On failure the witness carries the first bad
    (beta, value, preimage count).
    """
    tower = F.tower
    zs = tower.tables.subfield_elements
    size = len(zs)
    sub_index = tower.tables.subfield_index
    is_perm = len(np.unique(F.table)) == size
    verdict = OPolyVerdict(True, is_perm)
    for beta in zs[1:]:
        vals = F.table ^ tower.mul_scalar_vec(int(beta), zs)
        counts = np.bincount(sub_index[vals], minlength=size)
        bad = np.nonzero((counts != 0) & (counts != 2))[0]
        if len(bad):
            v = int(zs[bad[0]])
            return OPolyVerdict(False, is_perm, int(beta), v, int(counts[bad[0]]))
    return verdict


def inverse_map(F: OPolyMap) -> OPolyMap:
    """Compositional inverse as a value table; requires a permutation."""
    tower = F.tower
    zs = tower.tables.subfield_elements
    if len(np.unique(F.table)) != len(zs):
        raise ValueError("map is not a permutation of the subfield")
    inv_table = np.empty_like(F.table)
    inv_table[tower.tables.subfield_index[F.table]] = zs
    return OPolyMap(tower, inv_table)


def transform_zFinv(F: OPolyMap) -> OPolyMap:
    """z -> z * F(1/z) for z != 0, with 0 -> 0; preserves o-polynomiality."""
    tower = F.tower
    zs = tower.tables.subfield_elements
    sub_order = (1 << tower.m) - 1
    invs = tower.pow_vec(zs, sub_order - 1)  # 0 -> 0, else z^-1
    vals = tower.mul_vec(zs, F.table[tower.tables.subfield_index[invs]])
    vals[0] = 0
    return OPolyMap(tower, vals)


def interpolate_terms(F: OPolyMap) -> list[tuple[int, int]]:
    """Sparse (coefficient, exponent) form by interpolation over GF(2^m).

    Closed form for q = 2^m points: c_0 = F(0), c_j = sum over nonzero a of
    F(a) a^(q-1-j) for 0 < j < q - 1, c_{q-1} = sum of all values.  Terms
    come in ascending exponent order; zero coefficients are dropped.

    The middle coefficients are one transform in the log domain of the
    tower's exp/log tables: the product F(a) a^(q-1-j) is
    exp[(log F(a) + (q-1-j) log a) mod (2^n - 1)], points with F(a) = 0
    are skipped, and each row j is XOR-reduced.  The (j, a) matrix is
    processed _INTERP_BLOCK_ROWS rows at a time: O(q^2) vectorised table
    lookups in all, with int64 temporaries of _INTERP_BLOCK_ROWS x q
    entries.
    """
    tower = F.tower
    q = 1 << tower.m
    exp, log = tower.tables.exp, tower.tables.log
    vals = F.table[1:]
    nonzero = vals != 0
    log_v = log[vals[nonzero]]
    log_a = log[tower.tables.subfield_elements[1:][nonzero]]
    terms = []
    c0 = int(F.table[0])
    if c0:
        terms.append((c0, 0))
    for start in range(1, q - 1, _INTERP_BLOCK_ROWS):
        js = np.arange(start, min(start + _INTERP_BLOCK_ROWS, q - 1))
        logs = (log_v + (q - 1 - js)[:, None] * log_a) % tower.order
        coeffs = np.bitwise_xor.reduce(exp[logs], axis=1)
        terms.extend((int(c), int(j)) for c, j in zip(coeffs, js) if c)
    ctop = int(np.bitwise_xor.reduce(F.table))
    if ctop:
        terms.append((ctop, q - 1))
    return terms


# ---- catalog ------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One known o-polynomial family instantiated at a particular m."""

    name: str
    exponents: tuple[int, ...]  # monomial exponents; len > 1 means a trinomial

    def to_map(self, tower: FieldTower) -> OPolyMap:
        return OPolyMap.from_terms(tower, [(1, e) for e in self.exponents])


def catalog(m: int) -> list[CatalogEntry]:
    """Every catalog family whose validity predicate holds at m."""
    if m < 2:
        raise ValueError("catalog needs m >= 2")
    entries = [
        CatalogEntry(f"frobenius_2^{i}", (1 << i,)) for i in range(1, m) if math.gcd(i, m) == 1
    ]
    if m % 2 == 1:
        entries.append(CatalogEntry("z^6", (6,)))
    if m % 4 == 3:
        k = (m + 1) // 4
        entries.append(CatalogEntry("z^(2^2k+2^k)", ((1 << 2 * k) + (1 << k),)))
    if m % 4 == 1:  # m >= 5, so k >= 1
        k = (m - 1) // 4
        e = (1 << (3 * k + 1)) + (1 << (2 * k + 1))
        entries.append(CatalogEntry("z^(2^(3k+1)+2^(2k+1))", (e,)))
    if m % 2 == 1:
        k = (m + 1) // 2
        order = (1 << m) - 1
        sixth = pow(6, -1, order)  # 6 is a unit modulo 2^m - 1 when m is odd
        entries += [
            CatalogEntry("z^(2^k+2)", ((1 << k) + 2,)),
            CatalogEntry("z^(2^(m-1)+2^(m-2))", ((1 << (m - 1)) + (1 << (m - 2)),)),
            CatalogEntry("z^(3*2^k+4)", (3 * (1 << k) + 4,)),
            CatalogEntry("trinomial_cubic", ((1 << k), (1 << k) + 2, 3 * (1 << k) + 4)),
            CatalogEntry("trinomial_sixth", tuple(p * sixth % order for p in (1, 3, 5))),
        ]
    return entries


# ---- equivalent-o-monomial table ----------------------------------------------


@dataclass(frozen=True)
class TableCell:
    """One G column entry: claimed exponent(s) and expected degree."""

    exponents: tuple[int, ...]
    degree: int | None
    condition: str = ""


@dataclass(frozen=True)
class TableRow:
    family: str
    g1: TableCell
    g2: TableCell
    g3: TableCell | None = None
    ambiguous_g3: bool = False


def _bitsum(lo: int, hi: int, f) -> int:
    return sum(1 << f(i) for i in range(lo, hi + 1))


def equivalence_table(m: int) -> list[TableRow]:
    """Rows of the equivalent-o-monomial table instantiated at m.

    G1 is read from catalog(m) by entry name, G2 = G1^(-1) and
    G3 = (z G2(1/z))^(-1).  Each row's existence test on m, its G2 and G3
    binary expansions and its degrees are the paper's claims, stored as data
    and cross-checked elsewhere.  Each row has at most one G3: the footnote
    parity conditions pick one expansion at each m, or none.
    """
    if m % 2 == 0 or m < 3:
        return []
    g1 = {entry.name: entry.exponents for entry in catalog(m)}
    k = (m + 1) // 2
    rows = [
        TableRow(
            "frobenius_2k-1",
            TableCell(g1[f"frobenius_2^{k}"], k),
            TableCell((1 << (k - 1),), k + 1),
            TableCell(g1["z^(2^k+2)"], m),
        )
    ]
    g2 = _bitsum(0, (m - 3) // 2, lambda i: 2 * i + 1) + (1 << (m - 1))
    if m % 4 == 1:
        k4 = (m - 1) // 4
        g3 = TableCell(
            (2 + _bitsum(1, k4, lambda i: 4 * i) + _bitsum(1, k4, lambda i: 4 * i - 1),),
            m, "m = 4k+1",
        )
    else:
        k4 = (m - 3) // 4
        g3 = TableCell(
            (4 + _bitsum(1, k4, lambda i: 4 * i) + _bitsum(1, k4, lambda i: 4 * i + 1),),
            m - 1, "m = 4k+3",
        )
    rows.append(TableRow("z6", TableCell(g1["z^6"], m), TableCell((g2,), m), g3))
    if m % 4 == 3:
        k = (m + 1) // 4
        g3 = None  # at k = 1 (m = 3) neither footnote condition holds
        if k > 1 and k % 2 == 1:
            e = (
                2
                + _bitsum(1, (k - 1) // 2, lambda i: 2 * i)
                + _bitsum((k - 1) // 2, (3 * k - 3) // 2, lambda i: 2 * i + 1)
            )
            g3 = TableCell((e,), m, "k > 1 odd")
        elif k % 2 == 0:
            e = (
                (1 << k)
                + _bitsum(k // 2, (3 * k - 2) // 2, lambda i: 2 * i + 1)
                + _bitsum(3 * k // 2, 2 * k - 1, lambda i: 2 * i)
            )
            g3 = TableCell((e,), 3 * k, "k > 0 even")
        rows.append(
            TableRow(
                "quad_4k-1",
                TableCell(g1["z^(2^2k+2^k)"], 3 * k),
                TableCell(((1 << m) - (1 << (3 * k - 1)) + (1 << 2 * k) - (1 << k),), 3 * k),
                g3,
                ambiguous_g3=True,
            )
        )
    if m % 4 == 1:
        k = (m - 1) // 4
        if k % 2 == 1:
            e = (
                (1 << (k + 1))
                + _bitsum((k + 1) // 2, (3 * k - 1) // 2, lambda i: 2 * i + 1)
                + _bitsum((3 * k + 1) // 2, 2 * k, lambda i: 2 * i)
            )
            g3 = TableCell((e,), 3 * k + 1, "k odd")
        else:
            e = (
                2
                + _bitsum(1, k // 2, lambda i: 2 * i)
                + _bitsum(k // 2, (3 * k - 2) // 2, lambda i: 2 * i + 1)
            )
            g3 = TableCell((e,), m, "k even")
        rows.append(
            TableRow(
                "quad_4k+1",
                TableCell(g1["z^(2^(3k+1)+2^(2k+1))"], 2 * k + 1),
                TableCell(((1 << m) - (1 << (3 * k + 1)) + (1 << (2 * k + 1)) - (1 << k),), 3 * k + 2),
                g3,
                ambiguous_g3=True,
            )
        )
    k = (m + 1) // 2
    if k > 2:  # at k = 2 (m = 3), z^(3*2^k+4) = z^16 = z^2 is a Frobenius map
        if k % 2 == 1:
            g3 = TableCell(((1 << k) + _bitsum((k + 1) // 2, k - 1, lambda i: 2 * i),), k, "k odd")
        else:
            g3 = TableCell((2 + _bitsum(1, (k - 2) // 2, lambda i: 2 * i),), m, "k > 2 even")
        rows.append(
            TableRow(
                "cubic",
                TableCell(g1["z^(3*2^k+4)"], m - 1),
                TableCell((3 * (1 << (k - 1)) - 2,), m),
                g3,
                ambiguous_g3=True,
            )
        )
        # trinomial rows: explicit G2 for the cubic trinomial
        rows.append(
            TableRow(
                "trinomial_cubic",
                TableCell(g1["trinomial_cubic"], m),
                TableCell((), m, "z (z^(2^k+1) + z^3 + z)^(2^(k-1)-1)"),
            )
        )
    rows.append(
        TableRow(
            "trinomial_sixth",
            TableCell(g1["trinomial_sixth"], m),
            TableCell((), None, "G2 = G1^(-1), unlisted"),
        )
    )
    return rows


def trinomial_g2_map(tower: FieldTower) -> OPolyMap:
    """The explicit inverse of the cubic o-trinomial: z (z^(2^k+1)+z^3+z)^(2^(k-1)-1)."""
    m = tower.m
    if m % 2 == 0:
        raise ValueError("needs odd m = 2k - 1")
    k = (m + 1) // 2
    zs = tower.tables.subfield_elements
    inner = (
        tower.pow_vec(zs, (1 << k) + 1)
        ^ tower.pow_vec(zs, 3)
        ^ zs
    )
    vals = tower.mul_vec(zs, tower.pow_vec(inner, (1 << (k - 1)) - 1))
    return OPolyMap(tower, vals)
