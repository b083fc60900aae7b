import functools
import json

import numpy as np
import pytest

from nihobent import TracePolynomial, algebraic_degree, evaluate, make_tower
from nihobent.boolfun import _check_table, _niho_d, _sc_exponent
from nihobent.gf2 import _parity, find_unit_relative_trace
from nihobent.niho import _require_unit_trace


@pytest.fixture(scope="session")
def tower3():
    return make_tower(3)


@pytest.fixture(scope="session")
def tower4():
    return make_tower(4)


@pytest.fixture(scope="session")
def tower5():
    return make_tower(5)


def primitive_unit(tower):
    """Smallest primitive a with a + a^(2^m) = 1, or None."""
    m = tower.m
    for a in range(tower.size):
        if tower.add(a, tower.frobenius(a, m)) == 1 and tower.is_primitive(a):
            return a
    return None


def tt_of(tower, terms):
    return evaluate(tower, TracePolynomial(tower.m, tuple(terms)))


def term_values(tower, c, e):
    """c * t^e for every t in GF(2^n), indexed by t."""
    return tower.mul_scalar_vec(c, tower.pow_vec(np.arange(tower.size), e))


def evaluate_terms(tower, terms):
    """Table of a sum of (k, c, e) trace terms, one full pass per term; oracle for evaluate.

    Any exponent works here; a Tr_m term must stay in GF(2^m) at every t.
    """
    tables = tower.tables
    bits = np.zeros(tower.size, dtype=np.uint8)
    for k, c, e in terms:
        vals = term_values(tower, c, e)
        if k == tower.n:
            bits ^= tables.trace_bits[vals]
        else:
            assert k == tower.m and (tables.subfield_index[vals] >= 0).all(), (k, c, e)
            bits ^= tables.subfield_trace_bits[vals]
    return bits


def coset_leader(e, n):
    """Smallest element of the cyclotomic coset of e modulo 2^n - 1."""
    order = (1 << n) - 1
    e %= order
    return min((e << j) % order for j in range(n)) if e else 0


def niho_profile(tower, poly, r):
    """Coefficients of the 2^(r-1)-term normalized form, merged by index.

    Index i < 2^(r-1) carries the Tr_n coefficient of
    t^((2^m-1)(2^(m-r) i + 1) + 1) (terms on the conjugate exponent are
    folded back through Frobenius); index 2^(r-1) carries the canonical
    Tr_m coefficient of the self-conjugate exponent.  Linear terms are
    dropped; anything else fails.
    """
    m, n = tower.m, tower.n
    base = (1 << m) - 1
    half = (1 << m) + 1
    inv_step = pow(2, r - m, half)
    sc_slot = 1 << (r - 1)
    out = {i: 0 for i in range(1, sc_slot + 1)}
    for k, c, e in poly.terms:
        if e % half == 0 and (e // half).bit_count() == 1:
            # self-conjugate coset: e = 2^j (2^m + 1)
            j = (e // half).bit_length() - 1
            u = c if k == m else tower.add(c, tower.frobenius(c, m))
            out[sc_slot] ^= tower.pow(u, 1 << ((m - 1 - j) % m))
            continue
        assert k == n, f"unexpected Tr_{k} term at exponent {e}"
        assert e % base == 1, f"exponent {e} is not in normalized Niho form"
        s = (e - 1) // base
        if s in (0, 1):
            continue  # linear term
        i = (s - 1) * inv_step % half
        if not 1 <= i < sc_slot:
            # fold the conjugate exponent back: s -> 1 - s
            c = tower.frobenius(c, m)
            i = (1 - s - 1) * inv_step % half
        assert 1 <= i < sc_slot, f"exponent {e} does not fit the 2^({r}-1)-term form"
        out[i] ^= c
    return out


def scale_input(tower, tt, c):
    """Table of t -> f(c t)."""
    perm = np.fromiter(
        (tower.mul(c, t) for t in range(tower.size)), dtype=np.int64, count=tower.size
    )
    return tt[perm]


def frobenius_input(tower, tt, j):
    """Table of t -> f(t^(2^j))."""
    perm = np.fromiter(
        (tower.frobenius(t, j) for t in range(tower.size)), dtype=np.int64, count=tower.size
    )
    return tt[perm]


def subfield_trace_matrix(tower):
    """T[u_idx, x_idx] = Tr_m(u x) over the subfield."""
    zs = tower.tables.subfield_elements
    rows = [tower.tables.subfield_trace_bits[tower.mul_scalar_vec(int(u), zs)] for u in zs]
    return np.array(rows, dtype=np.uint8)


def extract_class_h(tower, tt, basis):
    """Recover (G table, mu) assuming tt is Tr_m(x G(y/x)) under t = basis*x + y.

    Returns None if some line of the table is not linear in x, i.e. the
    function is not of class-H shape for this basis.
    """
    zs = tower.tables.subfield_elements
    T = subfield_trace_matrix(tower)

    def solve(bits):
        hits = np.nonzero((T == bits[None, :]).all(axis=1))[0]
        return int(zs[hits[0]]) if len(hits) else None

    mu = solve(tt[zs])
    if mu is None:
        return None
    g_vals = []
    for z in zs:
        ts = np.fromiter(
            (tower.mul(basis, int(x)) ^ tower.mul(int(z), int(x)) for x in zs),
            dtype=np.int64,
            count=len(zs),
        )
        u = solve(tt[ts])
        if u is None:
            return None
        g_vals.append(u)
    return np.array(g_vals, dtype=np.int64), mu


def unit_trace_element(tower):
    return find_unit_relative_trace(tower)


@functools.lru_cache(maxsize=8)
def _naive_kernel(tower, n):
    # sign matrix (-1)^<w, x> resp. (-1)^Tr_n(w x), rows indexed by w
    idx = np.arange(1 << n, dtype=np.int64)
    if tower is None:
        inner = _parity(idx[:, None] & idx[None, :])
    else:
        inner = tower.tables.trace_bits[tower.mul_vec(idx[:, None], idx[None, :])]
    kernel = 1 - 2 * inner.astype(np.int64)
    kernel.setflags(write=False)
    return kernel


def walsh_naive(tt, tower=None):
    """Direct O(4^n) spectrum from the defining sum; oracle for boolfun.walsh."""
    n = _check_table(tt)
    if tower is not None and len(tt) != tower.size:
        raise ValueError("table length does not match the tower")
    return _naive_kernel(tower, n) @ (1 - 2 * tt.astype(np.int64))


def is_affine_difference(f, g):
    """True iff f and g differ by a function of degree at most 1."""
    if len(f) != len(g):
        raise ValueError(f"table sizes differ: {len(f)} vs {len(g)}")
    return algebraic_degree(f ^ g) <= 1


def bivariate_line_oracle(tower, spec):
    """Class-H table built line by line over x; oracle for bivariate_truth_table."""
    a = spec.a
    tables = tower.tables
    zs = tables.subfield_elements
    bits = np.zeros(tower.size, dtype=np.uint8)
    # x = 0 line: t = y, value Tr_m(mu y)
    mu_y = tower.mul_scalar_vec(spec.mu, zs)
    bits[zs] = tables.subfield_trace_bits[mu_y]
    g_table = spec.G.table
    for x in zs[1:]:
        x = int(x)
        z = tower.mul_scalar_vec(tower.inv(x), zs)  # z = y / x
        vals = tower.mul_scalar_vec(x, g_table[tables.subfield_index[z]])
        t = tower.mul(a, x) ^ zs
        bits[t] = tables.subfield_trace_bits[vals]
    bits.setflags(write=False)
    return bits


def bivariate_monomial_oracle(tower, d, lam, a):
    """Tr_m(lambda x^(2^m-d) y^d) at every t, one full-field pass; oracle for bivariate_monomial_table.

    x = t + t^(2^m) and y = a t + a^(2^m) t^(2^m), the expansion's substitution.
    """
    m = tower.m
    ts = np.arange(tower.size, dtype=np.int64)
    frob = tower.pow_vec(ts, 1 << m)
    xs = ts ^ frob
    ys = tower.mul_scalar_vec(a, ts) ^ tower.mul_scalar_vec(tower.frobenius(a, m), frob)
    vals = tower.mul_scalar_vec(
        lam, tower.mul_vec(tower.pow_vec(xs, (1 << m) - d), tower.pow_vec(ys, d))
    )
    return tower.tables.subfield_trace_bits[vals]


def spectrum_csv_oracle(spec, tower):
    """Rows `w_hex,value` formatted one at a time; oracle for boolfun.spectrum_to_csv."""
    return "".join(f"{tower.element_hex(w)},{v}\n" for w, v in enumerate(spec.tolist()))


def spectrum_json_oracle(spec):
    """The spectrum through json.dumps; oracle for boolfun.spectrum_to_json."""
    return json.dumps([int(v) for v in spec])


def qu_family_oracle(tower, r, c, I, J, a):
    """build_qu_family as per-block loops over the ladder; oracle for its term multiset."""
    m, n = tower.m, tower.n
    _require_unit_trace(tower, a)
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


def cubic_family_oracle(tower, I, J, a):
    """build_cubic_family as per-block loops over the ladder; oracle for its term multiset."""
    m, n = tower.m, tower.n
    _require_unit_trace(tower, a)
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
