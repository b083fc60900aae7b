import json

import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from nihobent import make_tower
from nihobent.gf2 import (
    FieldTower,
    find_unit_relative_trace,
    is_irreducible,
    prime_factors,
    smallest_irreducible,
)


def poly_bits(p):
    # sympy wants coefficients high-to-low
    return [(p >> i) & 1 for i in range(p.bit_length() - 1, -1, -1)]


def brute_smallest_irreducible(degree):
    # independent oracle: trial division by every lower-degree polynomial
    for cand in range((1 << degree) + 1, 1 << (degree + 1)):
        has_factor = False
        for q in range(2, 1 << (degree // 2 + 1)):
            if q.bit_length() - 1 < 1:
                continue
            r = cand
            dq = q.bit_length() - 1
            while r.bit_length() - 1 >= dq and r:
                r ^= q << (r.bit_length() - 1 - dq)
            if r == 0:
                has_factor = True
                break
        if not has_factor:
            return cand
    raise AssertionError


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_modulus_is_lexicographically_smallest_irreducible(m):
    expected = brute_smallest_irreducible(2 * m)
    tower = make_tower(m)
    assert tower.modulus == expected
    assert gf_irreducible_p(poly_bits(tower.modulus), 2, ZZ)


def test_modulus_golden_values():
    # winners of the brute-force scans, frozen
    assert make_tower(2).modulus == 0b10011           # x^4 + x + 1
    assert make_tower(3).modulus == 0b1000011         # x^6 + x + 1
    assert make_tower(4).modulus == 0b100011011       # x^8 + x^4 + x^3 + x + 1


@pytest.mark.parametrize("deg", range(2, 19))
def test_irreducibility_test_agrees_with_sympy(deg):
    rng = np.random.default_rng(deg)
    for _ in range(20):
        p = (1 << deg) | int(rng.integers(0, 1 << deg))
        assert is_irreducible(p) == bool(gf_irreducible_p(poly_bits(p), 2, ZZ))


def test_generator_has_full_order():
    # m=5: order must be exactly 2^10 - 1 = 1023 (exhaustive divisor check)
    tower = make_tower(5)
    g = tower.generator
    assert tower.pow(g, 1023) == 1
    for d in range(1, 1023):
        if 1023 % d == 0:
            assert tower.pow(g, d) != 1 or d == 1023


def test_generator_is_smallest_primitive():
    tower = make_tower(3)
    for x in range(2, tower.generator):
        assert not tower.is_primitive(x)
    assert tower.is_primitive(tower.generator)


def test_make_tower_bounds_and_caching():
    with pytest.raises(ValueError):
        FieldTower(1)
    with pytest.raises(ValueError):
        FieldTower(17)
    assert make_tower(3) is make_tower(3)


def test_add_is_involution(tower4):
    for x in range(tower4.size):
        assert tower4.add(x, x) == 0


def test_mul_inverse_law(tower4):
    g = tower4.generator
    assert tower4.mul(g, tower4.inv(g)) == 1
    for x in range(1, 50):
        assert tower4.mul(x, tower4.inv(x)) == 1


def test_inv_zero_raises(tower3):
    with pytest.raises(ZeroDivisionError):
        tower3.inv(0)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_norm_lands_in_subfield(m):
    tower = make_tower(m)
    for x in range(tower.size):
        assert tower.in_subfield(tower.pow(x, (1 << m) + 1))


def test_pow_exponent_reduction(tower3):
    order = tower3.order
    for x in (1, 2, 7, 33):
        for d in (0, 1, 5, 62):
            assert tower3.pow(x, d) == tower3.pow(x, d + order)
    # conventions at zero
    assert tower3.pow(0, 0) == 1
    assert tower3.pow(0, 5) == 0
    assert tower3.pow(0, order) == 0
    assert tower3.pow(0, 2 * order) == 0
    assert tower3.pow(1, order) == 1


def test_pow_fermat(tower4):
    for x in range(1, tower4.size):
        assert tower4.pow(x, tower4.order) == 1


def test_frobenius_properties(tower4):
    n = tower4.n
    for x in (0, 1, 5, 100, 200):
        assert tower4.frobenius(x, 0) == x
        assert tower4.frobenius(x, n) == x
        assert tower4.frobenius(tower4.frobenius(x, tower4.m), tower4.m) == x
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.integers(0, tower4.size, 2)
        j = int(rng.integers(0, n))
        assert tower4.frobenius(int(x) ^ int(y), j) == tower4.frobenius(int(x), j) ^ tower4.frobenius(int(y), j)
        assert tower4.frobenius(tower4.mul(int(x), int(y)), j) == tower4.mul(
            tower4.frobenius(int(x), j), tower4.frobenius(int(y), j)
        )


def test_rel_trace_basics(tower3):
    m, n = tower3.m, tower3.n
    assert tower3.rel_trace(n, m, 0) == 0
    for x in range(tower3.size):
        t = tower3.rel_trace(n, m, x)
        assert t == x ^ tower3.frobenius(x, m)
        assert tower3.in_subfield(t)
    # transitivity: Tr_n = Tr_m o Tr^n_m
    for x in range(tower3.size):
        assert tower3.rel_trace(n, 1, x) == tower3.rel_trace(m, 1, tower3.rel_trace(n, m, x))


def test_absolute_trace_balanced(tower3):
    zeros = sum(1 for x in range(64) if tower3.rel_trace(6, 1, x) == 0)
    assert zeros == 32


def test_rel_trace_domain_errors(tower3):
    with pytest.raises(ValueError):
        tower3.rel_trace(6, 4, 1)  # 4 does not divide 6
    with pytest.raises(ValueError):
        tower3.rel_trace(5, 1, 1)  # k not in {m, n}
    with pytest.raises(ValueError):
        tower3.rel_trace(3, 1, 2)  # 2 = x is not in the subfield


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_subfield_is_frobenius_fixed_and_right_size(m):
    tower = make_tower(m)
    sub = tower.tables.subfield_elements
    assert len(sub) == 1 << m
    mask = tower.tables.subfield_index >= 0
    assert int(mask.sum()) == 1 << m
    for x in (int(sub[1]), int(sub[-1])):
        assert tower.frobenius(x, m) == x
    # closure under multiplication
    rng = np.random.default_rng(m)
    for _ in range(30):
        x, y = (int(sub[i]) for i in rng.integers(0, len(sub), 2))
        assert tower.in_subfield(tower.mul(x, y))


def test_trace_linear_form_balanced(tower4):
    bits = tower4.tables.trace_bits
    assert int(bits.sum()) == tower4.size // 2


def test_mul_table_route_matches_scalar_route():
    # exp/log tables vs the shift-and-xor loop: two independent paths
    tower = make_tower(3)
    xs = np.arange(tower.size)
    for y in range(tower.size):
        table = tower.mul_scalar_vec(y, xs)
        scalar = np.array([tower.mul(int(x), y) for x in xs])
        assert np.array_equal(table, scalar)
    tower5 = make_tower(5)
    rng = np.random.default_rng(7)
    xs = rng.integers(0, tower5.size, 200)
    ys = rng.integers(0, tower5.size, 200)
    fast = tower5.mul_vec(xs, ys)
    slow = np.array([tower5.mul(int(x), int(y)) for x, y in zip(xs, ys)])
    assert np.array_equal(fast, slow)


def test_pow_vec_matches_scalar(tower4):
    xs = np.arange(tower4.size)
    for e in (0, 1, 2, 17, tower4.order, tower4.order + 3):
        fast = tower4.pow_vec(xs, e)
        slow = np.array([tower4.pow(int(x), e) for x in xs])
        assert np.array_equal(fast, slow)
        assert fast[0] == (1 if e == 0 else 0)


@pytest.mark.parametrize("m", [9, 10, 11])
def test_vector_ops_match_scalar_at_large_m(m):
    # the tables are int32, and log x * e passes 2^31 here: pow_vec must widen first
    tower = FieldTower(m)  # fresh, so the m = 11 tables are not kept after the test
    rng = np.random.default_rng(m)
    xs = np.concatenate([[0, 1, tower.generator], rng.integers(1, tower.size, 45)])
    ys = np.concatenate([[7, 0, 0], rng.integers(0, tower.size, 45)])
    exps = (tower.order - 1, tower.order - 2, tower.order - 3 * m, tower.order + 5)
    assert int(tower.tables.log[xs].max()) * (tower.order - 1) >= 2**31
    for e in exps:
        assert tower.pow_vec(xs, e).tolist() == [tower.pow(int(x), e) for x in xs], e
    assert tower.mul_vec(xs, ys).tolist() == [tower.mul(int(x), int(y)) for x, y in zip(xs, ys)]
    c = int(xs[-1])
    assert tower.mul_scalar_vec(c, ys).tolist() == [tower.mul(c, int(y)) for y in ys]


def scalar_tables(tower):
    """Exp by repeated multiplication by the generator, then each element's
    traces and subfield membership from its conjugates in that list;
    reference oracle for FieldTower._build_tables."""
    m, n, order, size = tower.m, tower.n, tower.order, tower.size
    exp = [1]
    for _ in range(order - 1):
        exp.append(tower.mul(exp[-1], tower.generator))
    log = [-1] * size
    for i, x in enumerate(exp):
        log[x] = i

    def conjugate_sum(x, k):  # x + x^2 + ... + x^(2^(k-1))
        acc = 0
        for j in range(k):
            acc ^= exp[(log[x] << j) % order] if x else 0
        return acc

    in_sub = [x == 0 or exp[(log[x] << m) % order] == x for x in range(size)]
    elems = [x for x in range(size) if in_sub[x]]
    index = [-1] * size
    for i, x in enumerate(elems):
        index[x] = i
    return {
        "exp": exp,
        "log": log,
        "trace_bits": [conjugate_sum(x, n) for x in range(size)],
        "subfield_trace_bits": [conjugate_sum(x, m) for x in elems],
        "in_subfield": in_sub,
        "subfield_elements": elems,
        "subfield_index": index,
    }


@pytest.mark.parametrize("m", range(2, 9))
def test_tables_match_scalar_build(m):
    tower = FieldTower(m)  # a fresh tower, so the tables are built here
    tables = tower.tables
    ref = scalar_tables(tower)
    for name in ("exp", "log", "trace_bits", "subfield_elements", "subfield_index"):
        assert getattr(tables, name).tolist() == ref[name], name
    assert (tables.subfield_index >= 0).tolist() == ref["in_subfield"]
    sub = tables.subfield_elements
    assert tables.subfield_trace_bits[sub].tolist() == ref["subfield_trace_bits"]
    assert [t.dtype for t in tables] == [np.int32, np.int32, np.uint8, np.uint8, np.int64, np.int32]
    assert not any(t.flags.writeable for t in tables)


@pytest.mark.parametrize("m", range(2, 11))
def test_subfield_trace_matches_rel_trace(m):
    # subfield walked as 0 and the powers of g^(2^m + 1), one scalar product each
    tower = make_tower(m)
    beta = tower.pow(tower.generator, (1 << m) + 1)
    sub, x = [0], 1
    for _ in range((1 << m) - 1):
        sub.append(x)
        x = tower.mul(x, beta)
    assert sorted(sub) == tower.tables.subfield_elements.tolist()
    bits = tower.tables.subfield_trace_bits
    assert [int(bits[x]) for x in sub] == [tower.rel_trace(m, 1, x) for x in sub]


def test_find_unit_relative_trace_unflagged(tower4):
    a = find_unit_relative_trace(tower4)
    assert tower4.rel_trace(tower4.n, tower4.m, a) == 1
    assert not tower4.in_subfield(a)
    # smallest by re-scan
    for x in range(a):
        assert tower4.add(x, tower4.frobenius(x, tower4.m)) != 1


def test_find_unit_relative_trace_flagged(tower3):
    a = find_unit_relative_trace(tower3, require_primitive=True)
    assert tower3.is_primitive(a)
    assert tower3.add(a, tower3.frobenius(a, 3)) != 0
    for x in range(a):
        assert not (
            tower3.is_primitive(x) and tower3.add(x, tower3.frobenius(x, 3)) != 0
        )


def scalar_find_unit_relative_trace(tower, require_primitive=False):
    """Ascending scalar scan over every encoding; reference oracle for the
    table-backed find_unit_relative_trace."""
    m = tower.m
    for a in range(tower.size):
        t = a ^ tower.frobenius(a, m)
        if require_primitive:
            if t != 0 and tower.is_primitive(a):
                return a
        elif t == 1:
            return a
    raise RuntimeError("scan exhausted GF(2^n) without a match")


@pytest.mark.parametrize("m", range(2, 10))
@pytest.mark.parametrize("require_primitive", [False, True])
def test_find_unit_relative_trace_matches_scalar_scan(m, require_primitive):
    tower = make_tower(m)
    assert find_unit_relative_trace(tower, require_primitive) == (
        scalar_find_unit_relative_trace(tower, require_primitive)
    )


def test_serialization_round_trip(tower5):
    data = json.loads(tower5.to_json())
    assert data["m"] == 5
    assert int.from_bytes(bytes.fromhex(data["modulus_hex"]), "little") == tower5.modulus
    assert tower5.element_from_hex(data["generator_hex"]) == tower5.generator
    x = 0x1A3
    assert tower5.element_from_hex(tower5.element_hex(x)) == x


def test_prime_factors():
    assert prime_factors(1023) == [3, 11, 31]
    assert prime_factors((1 << 18) - 1) == [3, 7, 19, 73]


def test_smallest_irreducible_matches_tower():
    assert smallest_irreducible(6) == 67
