"""The explicit Niho bent-function families and their registry.

Every constructor emits a TracePolynomial over GF(2^{2m}) whose exponents d
all satisfy d = 2^j (mod 2^m - 1), i.e. t^d restricted to the subfield is
linear, in the normalized form d = (2^m - 1) s + 1 with s read modulo 2^m + 1.

Besides the quadratic monomial and the two binomials, every family is the
Leander-Kholosha ladder lk_exponents(m, r) plus a coefficient rule, built by
one `_ladder`: build_lk (one coefficient), build_lk_coeff (any), build_g_lk2
(r = m - J), build_qu_family (a four-value cycle from quadratic o-monomials)
and build_cubic_family (an eight-value cycle from the cubic o-monomial).
build_trinomial_sum adds three of them to match the o-trinomial.  FAMILIES
maps each family name, and the short spellings "cubic" and "trinomial", to
its constructor and the FamilyParams fields it takes, by keyword; build()
rejects params that set any other field, or another m, then calls it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .boolfun import TracePolynomial, _niho_d, _sc_exponent, lk_exponents
from .gf2 import FieldTower


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


def binomial_exponent(m: int, variant: str) -> int:
    """The second exponent d_2 of the binomial family, in normalized Niho form.

    Variant "d2_3": (2^m - 1) 3 + 1.  Variant "d2_16" (m even): the solution
    of 6 d = 2^m + 5 (mod 2^n - 1) with 6 s = 1 (mod 2^m + 1), the only one
    of the three that is a Niho exponent.
    """
    if variant == "d2_3":
        return _niho_d(m, 3)
    if variant == "d2_16":
        if m % 2 != 0:
            raise ValueError(f"variant d2_16 requires even m, got {m}")
        return _niho_d(m, pow(6, -1, (1 << m) + 1))
    raise ValueError(f"unknown binomial variant {variant!r}")


def build_binomial(tower: FieldTower, b: int, variant: str = "d2_3") -> TracePolynomial:
    """Tr_m(a t^(2^m+1)) + Tr_n(b t^d) with a = b^(2^m + 1), d = binomial_exponent(m, variant)."""
    if b == 0:
        raise ValueError("b must be nonzero")
    m = tower.m
    a = tower.pow(b, (1 << m) + 1)
    return TracePolynomial(m, ((m, a, (1 << m) + 1), (tower.n, b, binomial_exponent(m, variant))))


def _ladder(
    tower: FieldTower, r: int, top: tuple[int, int, int], coef: Callable[[int], int]
) -> TracePolynomial:
    """The LK ladder of r with coefficient rule `coef`.

    `top` is the term of slot 2^(r-1), on the exponent 2^m + 1 (Tr_n) or the
    self-conjugate exponent (Tr_m); it is followed by (n, coef(i), d_i) for
    every slot i of lk_exponents(m, r).
    """
    n = tower.n
    terms = [top] + [(n, coef(i), d) for i, d in enumerate(lk_exponents(tower.m, r), start=1)]
    return TracePolynomial(tower.m, tuple(terms))


def build_lk(tower: FieldTower, a: int, r: int) -> TracePolynomial:
    """Tr_n(a^2 t^(2^m+1) + (a + a^(2^m)) sum of t^d_i), degree r + 1.

    Canonical parameters are 1 < r < m with gcd(r, m) = 1.  Values
    m < r < 2m are accepted non-canonically (the function then reduces to a
    smaller r up to affine terms); anything else is rejected.
    """
    m = tower.m
    b = tower.add(a, tower.frobenius(a, m))
    if b == 0:
        raise ValueError(f"a = {a:#x} lies in the subfield (a + a^(2^m) = 0)")
    canonical = 1 < r < m and math.gcd(r, m) == 1
    reduction = r == m + 1 or (m + 1 < r < 2 * m and math.gcd(r - m, m) == 1)
    if not (canonical or reduction):
        raise ValueError(
            f"requires 1 < r < m with gcd(r, m) = 1 "
            f"(or m < r < 2m for the reduction forms); got r={r}, m={m}, "
            f"gcd(r, m) = {math.gcd(r, m)}"
        )
    return _ladder(tower, r, (tower.n, tower.mul(a, a), (1 << m) + 1), lambda i: b)


def build_lk_coeff(tower: FieldTower, r: int, coeffs: Sequence[int]) -> TracePolynomial:
    """Generic coefficiented form: Tr_n(A_{2^(r-1)} t^(2^m+1) + sum A_i t^d_i).

    coeffs lists A_1 .. A_{2^(r-1)}; zeros are allowed and express
    cancellation.  No bentness is implied.
    """
    m = tower.m
    if not 0 < r < m:
        raise ValueError(f"requires 0 < r < m; got r={r}, m={m}")
    if len(coeffs) != 1 << (r - 1):
        raise ValueError(f"need 2^(r-1) = {1 << (r - 1)} coefficients, got {len(coeffs)}")
    return _ladder(tower, r, (tower.n, coeffs[-1], (1 << m) + 1), lambda i: coeffs[i - 1])


def build_qu_family(
    tower: FieldTower, r: int, c: int, I: int, J: int, a: int
) -> TracePolynomial:
    """Coefficient-cycle family attached to quadratic o-monomials.

    Coefficients A_1 = a^(2^I) + 1, A_2 = a^(2^I) + a^(2^J),
    A_3 = A_2 + 1 repeat along the LK ladder of r in a cycle of length
    2^(c+1): slot i carries A_3, A_1 (x 2^c - 1), A_2, A_1^(2^m) (x 2^c - 1)
    by i mod 2^(c+1); A_3 also sits on the self-conjugate exponent under Tr_m.
    """
    m = tower.m
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
    run = (1 << c) - 1
    cycle = [A3, *[A1] * run, A2, *[tower.frobenius(A1, m)] * run]
    return _ladder(tower, r, (m, A3, _sc_exponent(m)), lambda i: cycle[i % len(cycle)])


def build_g_lk2(tower: FieldTower, J: int, a: int) -> TracePolynomial:
    """Single-coefficient ladder with r = m - J; bentness is not implied.

    A_1 = a^(2^(m-1)) on every ladder term, A_3 = A_1 + a^(2^J) on the
    self-conjugate term.
    """
    m = tower.m
    _require_unit_trace(tower, a)
    if not 0 <= J < m - 1:
        raise ValueError(f"requires 0 <= J < m - 1; got J={J}, m={m}")
    A1 = tower.pow(a, 1 << (m - 1))
    A3 = tower.add(A1, tower.pow(a, 1 << J))
    return _ladder(tower, m - J, (m, A3, _sc_exponent(m)), lambda i: A1)


def build_cubic_family(tower: FieldTower, I: int, J: int, a: int) -> TracePolynomial:
    """Eight-value coefficient cycle attached to the cubic o-monomial.

    A_1 = a^(3 * 2^(I-1)), A_2 = a^(2^I)(a^(2^(I-1)) + a^(2^J)),
    A_3 = a^(3 * 2^(I-1) + 2^J) + (a+1)^(3 * 2^(I-1) + 2^J).  Along the LK
    ladder of r = m - J the coefficients cycle with length 4w,
    w = 2^(I-J-1): block j of the cycle is A_3 (j = 0) or A_2 e_(j-1),
    then A_1 e_j (x w - 1), with e_j = a^(j 2^(I-1)(2^m - 1)).  A_3 also
    sits on the self-conjugate exponent under Tr_m.
    """
    m = tower.m
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
    heads = [A3, *(tower.mul(A2, e) for e in ae[:3])]
    cycle = [C for head, e in zip(heads, ae) for C in [head, *[tower.mul(A1, e)] * (width - 1)]]
    return _ladder(tower, m - J, (m, A3, _sc_exponent(m)), lambda i: cycle[i % len(cycle)])


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


# ---- family registry ----------------------------------------------------------


class Family(NamedTuple):
    """One registry entry: canonical name, constructor, and the fields it takes."""

    name: str
    build: Callable[..., TracePolynomial]  # build(tower, **fields), each by its field name
    fields: tuple[str, ...]  # FamilyParams fields, in the order a missing one is named

    def check(self, values) -> None:
        """Fail unless `values` (read by name) sets exactly this family's fields."""
        missing = [name for name in self.fields if getattr(values, name) is None]
        if missing:
            raise ValueError(f"family {self.name} needs parameter(s) {', '.join(missing)}")
        extra = [n for n in _FIELDS if n not in self.fields and getattr(values, n) is not None]
        if extra:
            raise ValueError(f"family {self.name} takes no parameter(s) {', '.join(extra)}")


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family("quadratic", build_quadratic, ("a",)),
        Family("binomial_3", partial(build_binomial, variant="d2_3"), ("b",)),
        Family("binomial_16", partial(build_binomial, variant="d2_16"), ("b",)),
        Family("lk", build_lk, ("a", "r")),
        Family("lk_coeff", build_lk_coeff, ("r", "coeffs")),
        Family("qu_family", build_qu_family, ("r", "c", "I", "J", "a")),
        Family("g_lk2", build_g_lk2, ("J", "a")),
        Family("cubic_family", build_cubic_family, ("I", "J", "a")),
        Family("trinomial_sum", build_trinomial_sum, ("k", "a")),
    )
}
FAMILIES |= {"cubic": FAMILIES["cubic_family"], "trinomial": FAMILIES["trinomial_sum"]}


@dataclasses.dataclass(frozen=True)
class FamilyParams:
    """Serializable constructor arguments; unused fields stay None.

    `family` may be any FAMILIES key; it is stored as the canonical name.
    """

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

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {tuple(FAMILIES)}")
        object.__setattr__(self, "family", FAMILIES[self.family].name)

    def to_json(self, tower: FieldTower) -> str:
        data: dict = {"family": self.family, "m": self.m}
        for name, key in _JSON_KEYS.items():
            v = getattr(self, name)
            if v is not None:
                data[key] = _map_elements(tower.element_hex, name, v)
        return json.dumps(data)

    @classmethod
    def from_json(cls, s: str, tower: FieldTower) -> "FamilyParams":
        """Inverse of to_json; malformed input, an unknown key or another m raises ValueError."""
        data = json.loads(s)
        if not isinstance(data, dict) or not {"family", "m"} <= data.keys():
            raise ValueError('family parameters must be a JSON object with "family" and "m"')
        unknown = sorted(set(data) - {"family", "m", *_JSON_KEYS.values()})
        if unknown:
            raise ValueError(f"unknown family parameter keys {unknown}")
        for key, v in data.items():
            if key == "coeffs_hex":
                ok = isinstance(v, list) and all(isinstance(h, str) for h in v)
            elif key == "family" or key.endswith("_hex"):
                ok = isinstance(v, str)
            else:  # the integer fields, m included; JSON true/false are ints to Python
                ok = isinstance(v, int) and not isinstance(v, bool)
            if not ok:
                raise ValueError(f"family parameter {key} has the wrong type: {json.dumps(v)}")
        if data["m"] != tower.m:
            raise ValueError(f"parameters are for m={data['m']}, tower has m={tower.m}")
        dec = tower.element_from_hex
        values = {n: _map_elements(dec, n, data[k]) for n, k in _JSON_KEYS.items() if k in data}
        return cls(data["family"], data["m"], **values)


# The parameter fields after family and m, in JSON key order.  The field
# elements a, b and coeffs (a tuple of them) are hex in JSON, under <name>_hex.
_FIELDS = tuple(f.name for f in dataclasses.fields(FamilyParams))[2:]
_ELEMENT_FIELDS = ("a", "b", "coeffs")
_JSON_KEYS = {name: f"{name}_hex" if name in _ELEMENT_FIELDS else name for name in _FIELDS}


def _map_elements(f: Callable, name: str, v):
    """Field `name`'s value v with f applied to each field element in it."""
    if name not in _ELEMENT_FIELDS:
        return v
    return tuple(map(f, v)) if name == "coeffs" else f(v)


def build(tower: FieldTower, params: FamilyParams) -> TracePolynomial:
    """Dispatch a FamilyParams bundle to its registered constructor."""
    if params.m != tower.m:
        raise ValueError(f"parameters are for m={params.m}, tower has m={tower.m}")
    family = FAMILIES[params.family]
    family.check(params)
    return family.build(tower, **{name: getattr(params, name) for name in family.fields})
