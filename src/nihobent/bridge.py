"""Bivariate <-> univariate bridge for class-H bent functions.

A class-H function is Tr_m(x G(y/x)) for x != 0 and Tr_m(mu y) on the
x = 0 line, with (x, y) ranging over GF(2^m)^2 glued into GF(2^{2m}) by a
basis element a.  In the polar form t = v u of boolfun.evaluate it is
Tr_m(v g(u)) for one array g on the unit circle, so its table costs
O(2^m + 2^n) through the same pass.  The other direction expands a single
subfield monomial Tr_m(lambda x^(2^m - d) y^d) into an explicit univariate
trace polynomial under the substitution x = t + t^(2^m),
y = a t + a^(2^m) t^(2^m): a linear term, a self-conjugate term, and the
LK ladder of r = m - l read backwards, 2^(m-l-1) - 1 terms whose
coefficients A_c' come in closed form (l is the position of the lowest set
bit of d).  Summing expansions over the monomials of an o-polynomial and
dropping the linear part yields the bent function the o-polynomial encodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfun import TracePolynomial, _niho_d, _polar_table, _sc_exponent, lk_exponents
from .gf2 import FieldTower, _reduce_exponent
from .opoly import OPolyMap


@dataclass(frozen=True)
class BivariateSpec:
    """Class-H data: mapping G on the subfield, mu, and the basis element a."""

    G: OPolyMap
    mu: int
    a: int


def bivariate_truth_table(tower: FieldTower, spec: BivariateSpec) -> np.ndarray:
    """Truth table of the class-H function, indexed by t = a x + y."""
    return _class_h_table(tower, spec.G.table, spec.mu, spec.a)


def _class_h_table(tower: FieldTower, G_values: np.ndarray, mu: int, a: int) -> np.ndarray:
    """Class-H table indexed by t = a x + y, with G_values[i] = G(tables.subfield_elements[i]).

    With t = v u as in boolfun.evaluate, x = v (u + u^-1) / (a + a^q) and
    y / x = z'(u) = (a^q u + a u^-1) / (u + u^-1), so the table is Tr_m(v g(u))
    with g(u) = (u + u^-1) G(z'(u)) / (a + a^q) for u != 1 and g(1) = mu.
    """
    if tower.in_subfield(a):
        raise ValueError(f"basis element a = {a:#x} must lie outside the subfield")
    if not tower.in_subfield(mu):
        raise ValueError("mu must be a subfield element")
    tables, order = tower.tables, tower.order
    q = 1 << tower.m
    lu = (q - 1) * np.arange(q + 1, dtype=np.int64)  # u_j = gamma^((q-1) j)
    u, u_inv = tables.exp[lu % order], tables.exp[-lu % order]
    s = u ^ u_inv  # zero only at u = 1, where z' comes out 0 and is unused
    aq = tower.frobenius(a, tower.m)
    z = tower.mul_vec(tower.mul_vec(aq, u) ^ tower.mul_vec(a, u_inv), tower.pow_vec(s, -1))
    g = tower.mul_vec(tower.mul_vec(s, G_values[tables.subfield_index[z]]), tower.inv(a ^ aq))
    g[0] = mu
    bits = _polar_table(tower, g)
    bits.setflags(write=False)
    return bits


@dataclass(frozen=True)
class ExpansionResult:
    """Closed-form univariate expansion of Tr_m(lambda x^(2^m-d) y^d)."""

    m: int
    d: int
    l: int                      # lowest set bit of d
    lam: int                    # the subfield factor folded into every term
    a: int                      # the basis element used
    linear_coef: int            # raw a^d (lambda not folded)
    sc_pair: tuple[int, int]    # (a^d~, a^(2^m d~)) before the subfield fold
    coeffs: tuple[int, ...]     # raw A_c' for c' = 1 .. 2^(m-l-1) - 1

    @property
    def linear_exponent(self) -> int:
        return _niho_d(self.m, 1)

    @property
    def sc_exponent(self) -> int:
        return _sc_exponent(self.m)

    def to_trace_polynomial(
        self, tower: FieldTower, include_linear: bool = True
    ) -> TracePolynomial:
        m, n = self.m, 2 * self.m
        lam = self.lam
        terms = []
        if include_linear:
            terms.append((n, tower.mul(lam, self.linear_coef), self.linear_exponent))
        sc = tower.add(self.sc_pair[0], self.sc_pair[1])
        terms.append((m, tower.mul(lam, sc), self.sc_exponent))
        # A_c' sits on (2^m - 1)(2^l (2^(m-l-1) - c') + 1) + 1: the LK ladder of m - l, backwards
        for A, e in zip(self.coeffs, reversed(lk_exponents(m, m - self.l)), strict=True):
            terms.append((n, tower.mul(lam, A), e))
        return TracePolynomial(m, tuple(terms))


def expand_monomial(tower: FieldTower, d: int, lam: int, a: int) -> ExpansionResult:
    """Expand one bivariate monomial into its univariate Niho form.

    Requires 1 <= d <= 2^m - 1, lambda a nonzero subfield element, and a
    primitive (which forces every ladder coefficient to be nonzero).
    """
    m = tower.m
    order = tower.order
    if not 1 <= d <= (1 << m) - 1:
        raise ValueError(f"d must be in [1, 2^{m} - 1], got {d}")
    if lam == 0 or not tower.in_subfield(lam):
        raise ValueError("lambda must be a nonzero subfield element")
    if not tower.is_primitive(a):  # which also puts a off the subfield: a + a^(2^m) != 0
        raise ValueError(f"a = {a:#x} must be primitive (coefficients may vanish otherwise)")

    l = (d & -d).bit_length() - 1
    D = [i for i in range(m) if (d >> i) & 1]
    top_in_d = (m - 1) in D

    d_tilde = d if not top_in_d else d + (1 << (m - 1)) * ((1 << m) - 1)
    sc_pair = (tower.pow(a, d_tilde), tower.pow(a, (d_tilde << m) % order))

    width = 1 << (m - l - 1)
    D_rest = [i for i in D if i != l]

    def a_exponent(bits: int, low_term: int) -> int:
        # bits holds the digits c_i at positions i - l; complements go high
        e = low_term
        for i in D_rest:
            if (bits >> (i - l)) & 1:
                e += 1 << i
            else:
                e += 1 << (m + i)
        return e

    coeffs = []
    for cprime in range(1, width):
        u = cprime + width          # digits (1, c_{m-2}, ..., c_l)
        v = u - 1
        e1 = a_exponent(u, 1 << (m + l))
        e2 = a_exponent(v, 1 << l)
        coeffs.append(tower.add(tower.pow(a, e1), tower.pow(a, e2)))

    return ExpansionResult(
        m=m, d=d, l=l, lam=lam, a=a,
        linear_coef=tower.pow(a, d),
        sc_pair=sc_pair,
        coeffs=tuple(coeffs),
    )


def bivariate_monomial_table(tower: FieldTower, d: int, lam: int, a: int) -> np.ndarray:
    """Tr_m(lambda x^(q-d) y^d) at x = T(t), y = T(a t), with q = 2^m and T(t) = t + t^q.

    That is the expansion's substitution, and the table is a class-H table, so
    it costs one polar pass: for t = a^q x' + y' with x', y' in GF(q),
    T(t) = T(a) x' and T(a t) = T(a) y', so the value
    Tr_m(lambda T(a) x'^(q-d) y'^d) is Tr_m(x' G(y'/x')) with G(z) = lambda T(a) z^d,
    mu = 0 and basis a^q (x'^q = x', and the x' = 0 line is zero as q - d >= 1).
    """
    if not 1 <= d < 1 << tower.m or not tower.in_subfield(lam):
        raise ValueError(f"need 1 <= d < 2^{tower.m} and lambda in GF(2^{tower.m}), got d={d}")
    aq = tower.frobenius(a, tower.m)
    zd = tower.pow_vec(tower.tables.subfield_elements, d)
    return _class_h_table(tower, tower.mul_scalar_vec(tower.mul(lam, a ^ aq), zd), 0, aq)


def opoly_to_univariate(tower: FieldTower, F: OPolyMap, a: int) -> TracePolynomial:
    """Sum the expansions of F's monomials, merge exponents, drop linears.

    F must be given in sparse form (its .terms).  Constant terms contribute
    only linear functions of t and are dropped alongside the aggregate
    2^m-exponent term.  Every o-polynomial over GF(2^m), m > 1, has even
    exponents only, so an odd exponent is rejected as a non-o-polynomial
    input.  Every emitted term is Niho, so `evaluate` takes the result.
    """
    m = tower.m
    sub_order = (1 << m) - 1
    if not F.terms:
        raise ValueError("F has no sparse terms; interpolate first")
    merged: dict[tuple[int, int], int] = {}
    for c, e in F.terms:
        if c == 0:
            continue
        d = _reduce_exponent(e, sub_order)
        if d == 0:
            continue  # constant: a linear contribution, dropped
        if d % 2 == 1:
            raise ValueError(
                f"exponent {d} is odd; o-polynomials over GF(2^m), m > 1, have even exponents only"
            )
        res = expand_monomial(tower, d, c, a)
        poly = res.to_trace_polynomial(tower, include_linear=False)
        for k, coef, exp in poly.terms:
            key = (k, exp)
            merged[key] = tower.add(merged.get(key, 0), coef)
    terms = tuple(
        (k, coef, exp)
        for (k, exp), coef in sorted(merged.items(), key=lambda kv: kv[0][1])
        if coef != 0
    )
    return TracePolynomial(m, terms)


@dataclass(frozen=True)
class PropertyReport:
    conjugation_ok: bool
    conjugation_violations: tuple
    midpoint_ok: bool
    midpoint_skipped: bool
    odd_index_ok: bool
    odd_index_violations: tuple
    all_nonzero: bool

    def __bool__(self):
        return self.conjugation_ok and self.midpoint_ok and self.odd_index_ok


def verify_coefficient_properties(tower: FieldTower, res: ExpansionResult) -> PropertyReport:
    """Check the three structural laws of the ladder coefficients.

    (i) conjugation: A_c'^(2^m) equals A_{2^(m-l-1)-c'}, twisted by
        a^(2^(m-1)(2^m-1)) when the top bit of d is set;
    (ii) the midpoint coefficient A_{2^(m-l-2)} lies in the subfield
        (after dividing by a^(2^(m-1)) in the twisted case);
    (iii) odd c': A_c' = a^(S) (a^(2^m) + a)^(2^l) with S read off the
        digits of c' + 2^(m-l-1) on the support of d.
    """
    m, l, d, a = res.m, res.l, res.d, res.a
    order = tower.order
    width = 1 << (m - l - 1)
    top_in_d = (d >> (m - 1)) & 1 == 1
    twist = tower.pow(a, ((1 << (m - 1)) * ((1 << m) - 1)) % order)
    A = {c: v for c, v in enumerate(res.coeffs, start=1)}

    conj_viol = []
    for c in range(1, (width // 2) + 1):
        mirror = width - c
        lhs = tower.frobenius(A[c], m)
        rhs = A[mirror] if not top_in_d else tower.mul(twist, A[mirror])
        if lhs != rhs:
            conj_viol.append((c, lhs, rhs))

    mid_skipped = m - l - 2 < 0
    mid_ok = True
    if not mid_skipped:
        v = A[1 << (m - l - 2)]
        if top_in_d:
            v = tower.mul(tower.pow(a, -(1 << (m - 1))), v)
        mid_ok = tower.in_subfield(v)

    D_rest = [i for i in range(m) if (d >> i) & 1 and i != l]
    base = tower.pow(tower.add(tower.frobenius(a, m), a), 1 << l)
    odd_viol = []
    for c in range(1, width, 2):
        u = c + width
        S = 0
        for i in D_rest:
            if (u >> (i - l)) & 1:
                S += 1 << i
            else:
                S += 1 << (m + i)
        expected = tower.mul(tower.pow(a, S), base)
        if A[c] != expected:
            odd_viol.append((c, A[c], expected))

    return PropertyReport(
        conjugation_ok=not conj_viol,
        conjugation_violations=tuple(conj_viol),
        midpoint_ok=mid_ok,
        midpoint_skipped=mid_skipped,
        odd_index_ok=not odd_viol,
        odd_index_violations=tuple(odd_viol),
        all_nonzero=all(v != 0 for v in res.coeffs),
    )


def expansion_to_json(tower: FieldTower, res: ExpansionResult) -> dict:
    """JSON form with lambda folded into every coefficient."""
    (_, lin_c, lin_e), (_, sc_c, sc_e), *ladder = res.to_trace_polynomial(tower).terms
    return {
        "d": res.d,
        "l": res.l,
        "linear": {"coef_hex": tower.element_hex(lin_c), "exp": lin_e},
        "self_conj": {"coef_hex": tower.element_hex(sc_c), "exp": sc_e},
        "terms": [
            {"cprime": c, "coef_hex": tower.element_hex(A), "exp": e}
            for c, (_, A, e) in enumerate(ladder, start=1)
        ],
    }
