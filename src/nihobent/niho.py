"""Niho exponent arithmetic and the explicit bent-function families.

Every constructor emits a TracePolynomial over GF(2^{2m}) whose exponents d
all satisfy d = 2^j (mod 2^m - 1), i.e. t^d restricted to the subfield is
linear.  The normalized form is d = (2^m - 1) s + 1 with s read modulo
2^m + 1; fractional s means the modular inverse of the denominator.

Families: the quadratic monomial, the two binomials, the geometric
power-sum family with 2^(r-1) equal coefficients (build_lk), its
coefficiented generalisation (build_lk_coeff), the four-coefficient cycle
family from quadratic o-monomials (build_qu_family), the single-coefficient
variant (build_g_lk2), the eight-coefficient cycle family from the cubic
o-monomial (build_cubic_family), and the three-family sum matching the
o-trinomial (build_trinomial_sum).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .boolfun import TracePolynomial
from .gf2 import FieldTower


def two_weight(e: int) -> int:
    """Number of ones in the binary expansion."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    return e.bit_count()


def coset_leader(e: int, n: int) -> int:
    """Smallest element of the cyclotomic coset of e modulo 2^n - 1."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    order = (1 << n) - 1
    e %= order
    return min((e << j) % order for j in range(n)) if e else 0


@dataclass(frozen=True)
class NihoExponent:
    m: int
    s: int                # normalized multiplier, 1 < s < 2^m + 1
    d: int                # (2^m - 1) s + 1 mod 2^n - 1
    conjugate: int        # 2^m d mod 2^n - 1
    leader: int           # cyclotomic coset leader of d


def normalize_exponent(m: int, s: int | Fraction) -> NihoExponent:
    """Resolve s (or a fraction p/q) modulo 2^m + 1 and form the exponent."""
    half = (1 << m) + 1
    if isinstance(s, Fraction):
        try:
            s = s.numerator * pow(s.denominator, -1, half) % half
        except ValueError:
            raise ValueError(
                f"denominator {s.denominator} is not invertible modulo 2^{m}+1"
            ) from None
    s %= half
    if s in (0, 1):
        raise ValueError(f"s = {s} (mod 2^{m}+1) gives a linear exponent")
    order = (1 << 2 * m) - 1
    d = (((1 << m) - 1) * s + 1) % order
    return NihoExponent(m, s, d, (d << m) % order, coset_leader(d, 2 * m))


def _niho_d(m: int, s: int) -> int:
    order = (1 << 2 * m) - 1
    return (((1 << m) - 1) * (s % ((1 << m) + 1)) + 1) % order


# ---- family constructors -----------------------------------------------------


def _require_unit_trace(tower: FieldTower, a: int):
    if tower.add(a, tower.frobenius(a, tower.m)) != 1:
        raise ValueError(f"a = {a:#x} does not satisfy a + a^(2^m) = 1")


def build_quadratic(tower: FieldTower, a: int) -> TracePolynomial:
    """Tr_m(a t^(2^m + 1)) with a in the subfield, a != 0."""
    if a == 0 or not tower.in_subfield(a):
        raise ValueError(f"a = {a:#x} must be a nonzero subfield element")
    m = tower.m
    return TracePolynomial(m, (((m, a, (1 << m) + 1)),))


def binomial_exponents(m: int, variant: str) -> list[int]:
    """Candidate second exponents d_2 for the binomial family.

    Variant "d2_3": the single value (2^m - 1) 3 + 1.  Variant "d2_16"
    (m even): all three solutions of 6 d = 2^m + 5 (mod 2^n - 1), the
    normalized one (6 s = 1 mod 2^m + 1) first.
    """
    order = (1 << 2 * m) - 1
    if variant == "d2_3":
        return [_niho_d(m, 3)]
    if variant == "d2_16":
        if m % 2 != 0:
            raise ValueError(f"variant d2_16 requires even m, got {m}")
        # gcd(6, 2^n - 1) = 3, so three solutions spaced order/3 apart
        canonical = _niho_d(m, pow(6, -1, (1 << m) + 1))
        step = order // 3
        others = sorted(((canonical + k * step) % order for k in (1, 2)))
        return [canonical, *others]
    raise ValueError(f"unknown binomial variant {variant!r}")


def build_binomial(
    tower: FieldTower, b: int, variant: str = "d2_3", d2: int | None = None
) -> TracePolynomial:
    """Tr_m(a t^(2^m+1)) + Tr_n(b t^d2) with a = b^(2^m + 1).

    d2 defaults to the normalized candidate; pass one of
    binomial_exponents(m, variant) to select another.
    """
    if b == 0:
        raise ValueError("b must be nonzero")
    m = tower.m
    candidates = binomial_exponents(m, variant)
    if d2 is None:
        d2 = candidates[0]
    elif d2 not in candidates:
        raise ValueError(f"d2 = {d2} is not a candidate exponent {candidates}")
    a = tower.pow(b, (1 << m) + 1)
    return TracePolynomial(m, ((m, a, (1 << m) + 1), (tower.n, b, d2)))


def lk_exponents(m: int, r: int) -> list[int]:
    """Exponents (2^m - 1)(2^(m-r) i + 1) + 1 for i = 1 .. 2^(r-1) - 1.

    2^(m-r) is read modulo 2^m + 1, which also covers r > m.
    """
    step = pow(2, m - r, (1 << m) + 1)
    return [_niho_d(m, step * i + 1) for i in range(1, 1 << (r - 1))]


def is_canonical_lk_params(m: int, r: int) -> bool:
    return 1 < r < m and math.gcd(r, m) == 1


def build_lk(tower: FieldTower, a: int, r: int, unchecked: bool = False) -> TracePolynomial:
    """Tr_n(a^2 t^(2^m+1) + (a + a^(2^m)) sum of t^d_i), degree r + 1.

    Canonical parameters are 1 < r < m with gcd(r, m) = 1.  Values
    m < r < 2m are accepted non-canonically (the function then reduces to a
    smaller r up to affine terms); anything else needs unchecked=True.
    """
    m, n = tower.m, tower.n
    b = tower.add(a, tower.frobenius(a, m))
    if b == 0:
        raise ValueError(f"a = {a:#x} lies in the subfield (a + a^(2^m) = 0)")
    if not unchecked:
        canonical = is_canonical_lk_params(m, r)
        reduction = r == m + 1 or (m + 1 < r < 2 * m and math.gcd(r - m, m) == 1)
        if not (canonical or reduction):
            raise ValueError(
                f"requires 1 < r < m with gcd(r, m) = 1 "
                f"(or m < r < 2m for the reduction forms); got r={r}, m={m}, "
                f"gcd(r, m) = {math.gcd(r, m)}"
            )
    a2 = tower.mul(a, a)
    terms = [(n, a2, (1 << m) + 1)]
    terms += [(n, b, d) for d in lk_exponents(m, r)]
    return TracePolynomial(m, tuple(terms))


def build_lk_coeff(tower: FieldTower, r: int, coeffs: list[int]) -> TracePolynomial:
    """Generic coefficiented form: Tr_n(A_{2^(r-1)} t^(2^m+1) + sum A_i t^d_i).

    coeffs lists A_1 .. A_{2^(r-1)}; zeros are allowed and express
    cancellation.  No bentness is implied.
    """
    m, n = tower.m, tower.n
    if not 0 < r < m:
        raise ValueError(f"requires 0 < r < m; got r={r}, m={m}")
    if len(coeffs) != 1 << (r - 1):
        raise ValueError(f"need 2^(r-1) = {1 << (r - 1)} coefficients, got {len(coeffs)}")
    terms = [(n, coeffs[-1], (1 << m) + 1)]
    terms += [(n, c, d) for c, d in zip(coeffs, lk_exponents(m, r))]
    return TracePolynomial(m, tuple(terms))


def _sc_exponent(m: int) -> int:
    return (1 << (m - 1)) * ((1 << m) + 1)


def build_qu_family(
    tower: FieldTower, r: int, c: int, I: int, J: int, a: int
) -> TracePolynomial:
    """Coefficient-cycle family attached to quadratic o-monomials.

    Coefficients A_1 = a^(2^I) + 1, A_2 = a^(2^I) + a^(2^J),
    A_3 = A_2 + 1 repeat along the exponent ladder in a cycle of length
    2^(c+1) as A_1 (x 2^c - 1), A_2, A_1^(2^m) (x 2^c - 1), A_3; the final
    A_3 sits on the self-conjugate exponent under Tr_m.
    """
    m, n = tower.m, tower.n
    _require_unit_trace(tower, a)
    if not 2 < r <= m:
        raise ValueError(f"requires 2 < r <= m; got r={r}, m={m}")
    if not 0 < c < r - 1:
        raise ValueError(f"requires 0 < c < r - 1; got c={c}, r={r}")
    if not 0 <= J < I < m - 1:
        raise ValueError(f"requires 0 <= J < I < m - 1; got J={J}, I={I}, m={m}")
    A1 = tower.add(tower.pow(a, 1 << I), 1)
    A2 = tower.add(tower.pow(a, 1 << I), tower.pow(a, 1 << J))
    A3 = tower.add(A2, 1)
    A1c = tower.frobenius(A1, m)
    step = 1 << (m - r)

    def expo(idx: int) -> int:
        return _niho_d(m, step * idx + 1)

    terms = [(m, A3, _sc_exponent(m))]
    blocks = 1 << (r - c - 2)
    for j in range(blocks):
        base = (j << (c + 1))
        for i in range(1, 1 << c):
            terms.append((n, A1, expo(base + i)))
        terms.append((n, A2, expo(base + (1 << c))))
        for i in range((1 << c) + 1, 1 << (c + 1)):
            terms.append((n, A1c, expo(base + i)))
    for j in range(blocks - 1):
        terms.append((n, A3, expo((j << (c + 1)) + (1 << (c + 1)))))
    return TracePolynomial(m, tuple(terms))


def build_g_lk2(tower: FieldTower, J: int, a: int) -> TracePolynomial:
    """Single-coefficient ladder with r = m - J; bentness is not implied.

    A_1 = a^(2^(m-1)) on every ladder term, A_3 = A_1 + a^(2^J) on the
    self-conjugate term.
    """
    m, n = tower.m, tower.n
    _require_unit_trace(tower, a)
    if not 0 <= J < m - 1:
        raise ValueError(f"requires 0 <= J < m - 1; got J={J}, m={m}")
    r = m - J
    A1 = tower.pow(a, 1 << (m - 1))
    A3 = tower.add(A1, tower.pow(a, 1 << J))
    terms = [(m, A3, _sc_exponent(m))]
    terms += [(n, A1, d) for d in lk_exponents(m, r)]
    return TracePolynomial(m, tuple(terms))


def build_cubic_family(tower: FieldTower, I: int, J: int, a: int) -> TracePolynomial:
    """Eight-value coefficient cycle attached to the cubic o-monomial.

    A_1 = a^(3 * 2^(I-1)), A_2 = a^(2^I)(a^(2^(I-1)) + a^(2^J)),
    A_3 = a^(3 * 2^(I-1) + 2^J) + (a+1)^(3 * 2^(I-1) + 2^J); the cycle of
    length 2^(I-J+1) walks A_1, A_2 blocks scaled by powers of
    a^(2^(I-1)(2^m - 1)) and closes with A_3.
    """
    m, n = tower.m, tower.n
    _require_unit_trace(tower, a)
    if not 0 < J + 1 < I < m - 1:
        raise ValueError(f"requires 0 < J + 1 < I < m - 1; got J={J}, I={I}, m={m}")
    e3 = 3 * (1 << (I - 1)) + (1 << J)
    A1 = tower.pow(a, 3 * (1 << (I - 1)))
    A2 = tower.mul(
        tower.pow(a, 1 << I),
        tower.add(tower.pow(a, 1 << (I - 1)), tower.pow(a, 1 << J)),
    )
    A3 = tower.add(tower.pow(a, e3), tower.pow(tower.add(a, 1), e3))
    ae = [tower.pow(a, j * (1 << (I - 1)) * ((1 << m) - 1)) for j in range(4)]
    width = 1 << (I - J - 1)
    step = 1 << J

    def expo(idx: int) -> int:
        return _niho_d(m, step * idx + 1)

    terms = [(m, A3, _sc_exponent(m))]
    blocks = 1 << (m - I - 2)
    for l in range(blocks):
        for j in range(4):
            base = width * (4 * l + j)
            coef1 = tower.mul(A1, ae[j])
            for i in range(1, width):
                terms.append((n, coef1, expo(base + i)))
            if j < 3:
                terms.append((n, tower.mul(A2, ae[j]), expo(base + width)))
    for l in range(blocks - 1):
        terms.append((n, A3, expo(width * (4 * l + 3) + width)))
    return TracePolynomial(m, tuple(terms))


def build_trinomial_sum(tower: FieldTower, k: int, a: int) -> TracePolynomial:
    """Sum of the three families matching the degree-three o-trinomial.

    m = 2k - 1 > 5: the Frobenius part (build_lk with r = k - 1), the
    quadratic part (build_qu_family with r = m - 1, c = k - 1, I = k,
    J = 1), and the cubic part with a + 1 substituted for a to align the
    bases.
    """
    m = tower.m
    if m != 2 * k - 1 or m <= 5:
        raise ValueError(f"requires m = 2k - 1 > 5; got k={k}, m={m}")
    _require_unit_trace(tower, a)
    p1 = build_lk(tower, a, k - 1)
    p2 = build_qu_family(tower, r=m - 1, c=k - 1, I=k, J=1, a=a)
    p3 = build_cubic_family(tower, I=k + 1, J=2, a=tower.add(a, 1))
    return p1 + p2 + p3


# ---- canonical coefficient profile ------------------------------------------


def niho_profile(tower: FieldTower, poly: TracePolynomial, r: int) -> dict[int, int]:
    """Coefficients of the 2^(r-1)-term normalized form, merged by index.

    Index i < 2^(r-1) carries the Tr_n coefficient of
    t^((2^m-1)(2^(m-r) i + 1) + 1) (terms on the conjugate exponent are
    folded back through Frobenius); index 2^(r-1) carries the canonical
    Tr_m coefficient of the self-conjugate exponent.  Linear terms are
    dropped; anything else fails.
    """
    m, n = tower.m, tower.n
    order = tower.order
    base = (1 << m) - 1
    half = (1 << m) + 1
    inv_step = pow(2, r - m, half)
    sc_slot = 1 << (r - 1)
    out: dict[int, int] = {i: 0 for i in range(1, sc_slot + 1)}
    for k, c, e in poly.terms:
        if e % half == 0 and (e // half).bit_count() == 1:
            # self-conjugate coset: e = 2^j (2^m + 1)
            j = (e // half).bit_length() - 1
            u = c if k == m else tower.add(c, tower.frobenius(c, m))
            out[sc_slot] ^= tower.pow(u, 1 << ((m - 1 - j) % m))
            continue
        if k != n:
            raise ValueError(f"unexpected Tr_{k} term at exponent {e}")
        if e % base != 1:
            raise ValueError(f"exponent {e} is not in normalized Niho form")
        s = (e - 1) // base
        if s in (0, 1):
            continue  # linear term
        i = (s - 1) * inv_step % half
        if not 1 <= i < sc_slot:
            # fold the conjugate exponent back: s -> 1 - s
            c = tower.frobenius(c, m)
            i = (1 - s - 1) * inv_step % half
        if not 1 <= i < sc_slot:
            raise ValueError(f"exponent {e} does not fit the 2^({r}-1)-term form")
        out[i] ^= c
    return out


# ---- parameter bundle --------------------------------------------------------

# every family with the FamilyParams fields its constructor cannot do without
_FAMILIES = {
    "quadratic": ("a",),
    "binomial_3": ("b",),
    "binomial_16": ("b",),
    "lk": ("a", "r"),
    "lk_coeff": ("r", "coeffs"),
    "qu_family": ("r", "c", "I", "J", "a"),
    "g_lk2": ("J", "a"),
    "cubic_family": ("I", "J", "a"),
    "trinomial_sum": ("k", "a"),
}


@dataclass(frozen=True)
class FamilyParams:
    """Serializable constructor arguments; unused fields stay None."""

    family: str
    m: int
    r: int | None = None
    c: int | None = None
    I: int | None = None
    J: int | None = None
    k: int | None = None
    a: int | None = None
    b: int | None = None
    coeffs: tuple[int, ...] | None = None
    d2: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {tuple(_FAMILIES)}")

    def to_json(self, tower: FieldTower) -> str:
        enc = tower.element_hex
        data: dict = {"family": self.family, "m": self.m}
        for name in ("r", "c", "I", "J", "k", "d2"):
            v = getattr(self, name)
            if v is not None:
                data[name] = v
        if self.a is not None:
            data["a_hex"] = enc(self.a)
        if self.b is not None:
            data["b_hex"] = enc(self.b)
        if self.coeffs is not None:
            data["coeffs_hex"] = [enc(x) for x in self.coeffs]
        return json.dumps(data)

    @classmethod
    def from_json(cls, s: str, tower: FieldTower) -> "FamilyParams":
        data = json.loads(s)
        dec = tower.element_from_hex
        return cls(
            family=data["family"],
            m=data["m"],
            r=data.get("r"),
            c=data.get("c"),
            I=data.get("I"),
            J=data.get("J"),
            k=data.get("k"),
            d2=data.get("d2"),
            a=dec(data["a_hex"]) if "a_hex" in data else None,
            b=dec(data["b_hex"]) if "b_hex" in data else None,
            coeffs=tuple(dec(x) for x in data["coeffs_hex"]) if "coeffs_hex" in data else None,
        )


def build(tower: FieldTower, params: FamilyParams) -> TracePolynomial:
    """Dispatch a FamilyParams bundle to its constructor."""
    f = params.family
    missing = [name for name in _FAMILIES[f] if getattr(params, name) is None]
    if missing:
        raise ValueError(f"family {f} needs parameter(s) {', '.join(missing)}")
    if f == "quadratic":
        return build_quadratic(tower, params.a)
    if f == "binomial_3":
        return build_binomial(tower, params.b, "d2_3", params.d2)
    if f == "binomial_16":
        return build_binomial(tower, params.b, "d2_16", params.d2)
    if f == "lk":
        return build_lk(tower, params.a, params.r)
    if f == "lk_coeff":
        return build_lk_coeff(tower, params.r, list(params.coeffs))
    if f == "qu_family":
        return build_qu_family(tower, params.r, params.c, params.I, params.J, params.a)
    if f == "g_lk2":
        return build_g_lk2(tower, params.J, params.a)
    if f == "cubic_family":
        return build_cubic_family(tower, params.I, params.J, params.a)
    return build_trinomial_sum(tower, params.k, params.a)
