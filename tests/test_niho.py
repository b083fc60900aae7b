import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from conftest import (
    coset_leader,
    cubic_family_oracle,
    extract_class_h,
    is_affine_difference,
    niho_profile,
    primitive_unit,
    qu_family_oracle,
    scale_input,
    tt_of,
    unit_trace_element,
)
from nihobent import (
    FamilyParams,
    algebraic_degree,
    binomial_exponent,
    build,
    build_binomial,
    build_cubic_family,
    build_g_lk2,
    build_lk,
    build_lk_coeff,
    build_qu_family,
    build_quadratic,
    build_trinomial_sum,
    evaluate,
    is_bent,
    lk_exponents,
    make_tower,
)
from nihobent.niho import FAMILIES


# ---- exponent arithmetic -------------------------------------------------------


def test_two_weight_ladder_exponent():
    # m=5, r=3, i=2 = 2^1: weight r - 1 + 1 = 3
    m, r, i = 5, 3, 2
    d = ((1 << m) - 1) * ((1 << (m - r)) * i + 1) + 1
    assert d.bit_count() == 3
    # odd i gives the maximal weight r + 1
    d = ((1 << m) - 1) * ((1 << (m - r)) * 1 + 1) + 1
    assert d.bit_count() == r + 1


def test_coset_leader_invariance():
    n = 8
    e = (1 << 4) + 1
    lead = coset_leader(e, n)
    for j in range(n):
        assert coset_leader((e << j) % ((1 << n) - 1), n) == lead
    assert coset_leader(0, n) == 0


# ---- quadratic and binomial ----------------------------------------------------


@pytest.mark.parametrize("m", [3, 4])
def test_quadratic_bent_every_subfield_unit(m):
    tower = make_tower(m)
    for a in tower.tables.subfield_elements[1:]:
        tt = evaluate(tower, build_quadratic(tower, int(a)))
        assert is_bent(tt, tower).bent
        assert algebraic_degree(tt) == 2


def test_quadratic_rejects_bad_a(tower3):
    with pytest.raises(ValueError):
        build_quadratic(tower3, 0)
    with pytest.raises(ValueError):
        build_quadratic(tower3, 2)  # not in the subfield


def test_binomial_d2_3(tower4):
    poly = build_binomial(tower4, 1, "d2_3")
    assert poly.terms[1][2] == 46
    tt = evaluate(tower4, poly)
    assert is_bent(tt, tower4).bent
    assert algebraic_degree(tt) == 4


def test_binomial_a_is_norm_of_b(tower4):
    g = tower4.generator
    poly = build_binomial(tower4, g, "d2_3")
    assert poly.terms[0][1] == tower4.pow(g, 17)
    assert is_bent(evaluate(tower4, poly), tower4).bent


@pytest.mark.parametrize("m", [4, 6, 8])
def test_binomial_d2_16_exponent(m):
    # the one Niho solution of 6 d = 2^m + 5 (mod 2^n - 1), and its binomial is bent
    tower = make_tower(m)
    order = tower.order
    d2 = binomial_exponent(m, "d2_16")
    assert 6 * d2 % order == ((1 << m) + 5) % order
    assert d2 % ((1 << m) - 1) == 1
    for b in (1, 3):
        assert is_bent(evaluate(tower, build_binomial(tower, b, "d2_16")), tower).bent


def test_binomial_rejections(tower4, tower5):
    with pytest.raises(ValueError):
        build_binomial(tower4, 0)
    with pytest.raises(ValueError):
        build_binomial(tower5, 1, "d2_16")  # m odd
    with pytest.raises(ValueError):
        build_binomial(tower4, 1, "d2_5")  # no such variant


# ---- the equal-coefficient ladder ----------------------------------------------


def valid_lk_pairs(max_m):
    return [
        (m, r)
        for m in range(3, max_m + 1)
        for r in range(2, m)
        if math.gcd(r, m) == 1
    ]


@pytest.mark.parametrize("m,r", valid_lk_pairs(6))
def test_lk_bent_and_degree(m, r):
    tower = make_tower(m)
    a = unit_trace_element(tower)
    tt = evaluate(tower, build_lk(tower, a, r))
    assert is_bent(tt, tower).bent
    assert algebraic_degree(tt) == r + 1


def test_lk_general_a_bent(tower5):
    # any a with a + a^(2^m) != 0 works
    for a in (2, 3, 7):
        b = tower5.add(a, tower5.frobenius(a, 5))
        if b == 0:
            continue
        tt = evaluate(tower5, build_lk(tower5, a, 2))
        assert is_bent(tt, tower5).bent


def test_lk_rejections(tower5):
    tower6 = make_tower(6)
    with pytest.raises(ValueError):
        build_lk(tower6, unit_trace_element(tower6), 2)  # gcd(2, 6) != 1
    with pytest.raises(ValueError):
        build_lk(tower5, 1, 2)  # a in the subfield


def test_lk_exponents_distinct_cosets():
    for m, r in valid_lk_pairs(7):
        n = 2 * m
        leaders = [coset_leader(d, n) for d in lk_exponents(m, r)]
        assert len(set(leaders)) == len(leaders)


def test_lk_exponents_normalized():
    for m, r in valid_lk_pairs(7):
        for d in lk_exponents(m, r):
            assert d % ((1 << m) - 1) == 1


def test_lk_m3_matches_two_term_form(tower3):
    # with a primitive and a + a^8 = 1 the r=2 member is Tr_3(t^9) + Tr_6(t^22)
    a = primitive_unit(tower3)
    assert a is not None
    got = evaluate(tower3, build_lk(tower3, a, 2))
    want = tt_of(tower3, [(3, 1, 9), (6, 1, 22)])
    assert np.array_equal(got, want)


def test_lk_substitution_normalization(tower5):
    # replacing a by a/b with b = a + a^(2^m) equals substituting t -> b^(-1) t
    for a in (2, 6, 9):
        b = tower5.add(a, tower5.frobenius(a, 5))
        if b in (0, 1):
            continue
        f1 = evaluate(tower5, build_lk(tower5, a, 2))
        f2 = evaluate(tower5, build_lk(tower5, tower5.mul(a, tower5.inv(b)), 2))
        assert np.array_equal(f2, scale_input(tower5, f1, tower5.inv(b)))


def test_lk_reduction_r_eq_m_plus_one(tower5):
    a = unit_trace_element(tower5)
    f = evaluate(tower5, build_lk(tower5, a, 6))
    quad = tt_of(tower5, [(10, tower5.mul(a, a), 33)])
    assert is_affine_difference(f, quad)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_lk_reduction_r_eq_m_plus_s(tower5, s):
    a = unit_trace_element(tower5)
    f_big = evaluate(tower5, build_lk(tower5, a, 5 + s))
    f_small = evaluate(tower5, build_lk(tower5, a, s))
    assert is_affine_difference(f_big, f_small)


# ---- coefficiented ladder ------------------------------------------------------


def test_lk_coeff_specializes_to_lk(tower5):
    a = unit_trace_element(tower5)
    r = 3
    b = tower5.add(a, tower5.frobenius(a, 5))
    coeffs = [b] * ((1 << (r - 1)) - 1) + [tower5.mul(a, a)]
    p1 = build_lk_coeff(tower5, r, coeffs)
    p2 = build_lk(tower5, a, r)
    assert sorted(p1.terms) == sorted(p2.terms)


def test_lk_coeff_zero_gives_zero(tower4):
    p = build_lk_coeff(tower4, 3, [0, 0, 0, 0])
    assert not evaluate(tower4, p).any()


def test_lk_coeff_validation(tower4):
    with pytest.raises(ValueError):
        build_lk_coeff(tower4, 4, [1] * 8)  # r = m
    with pytest.raises(ValueError):
        build_lk_coeff(tower4, 2, [1])  # wrong count


# ---- coefficient-cycle families ------------------------------------------------


QU_PARAMS = [
    (5, 4, 1, 2, 1, "z6"),        # m odd > 3
    (7, 6, 1, 2, 1, "z6"),
    (7, 5, 2, 4, 2, "m=4k-1"),    # k = 2
    (5, 4, 2, 3, 1, "m=2k-1"),    # k = 3
    (7, 6, 3, 4, 1, "m=2k-1"),    # k = 4
]


@pytest.mark.parametrize("m,r,c,I,J,label", QU_PARAMS)
def test_qu_family_bent(m, r, c, I, J, label):
    tower = make_tower(m)
    a = unit_trace_element(tower)
    tt = evaluate(tower, build_qu_family(tower, r=r, c=c, I=I, J=J, a=a))
    assert is_bent(tt, tower).bent, label


@pytest.mark.parametrize("m,r,c,I,J,label", QU_PARAMS)
def test_qu_family_induced_map_is_monomial_plus_constant(m, r, c, I, J, label):
    # reconstruct G from the table under basis (a, 1); F = G + A_3 z must be
    # z^(2^I + 2^J) plus a constant
    tower = make_tower(m)
    a = unit_trace_element(tower)
    tt = evaluate(tower, build_qu_family(tower, r=r, c=c, I=I, J=J, a=a))
    got = extract_class_h(tower, tt, a)
    assert got is not None, "table is not class-H shaped for basis (a, 1)"
    g_table, mu = got
    A3 = tower.add(tower.add(tower.pow(a, 1 << I), tower.pow(a, 1 << J)), 1)
    assert mu == A3
    zs = tower.tables.subfield_elements
    f_table = g_table ^ tower.mul_scalar_vec(A3, zs)
    mono = tower.pow_vec(zs, (1 << I) + (1 << J))
    diff = set((f_table ^ mono).tolist())
    assert len(diff) == 1  # constant


def test_qu_family_term_count(tower5):
    a = unit_trace_element(tower5)
    poly = build_qu_family(tower5, r=4, c=1, I=2, J=1, a=a)
    # full ladder: 2^(r-1) slots, one of them under Tr_m
    assert len(poly.terms) == 1 << 3


def test_qu_family_rejections(tower5):
    a = unit_trace_element(tower5)
    with pytest.raises(ValueError):
        build_qu_family(tower5, r=2, c=1, I=2, J=1, a=a)  # r too small
    with pytest.raises(ValueError):
        build_qu_family(tower5, r=4, c=3, I=2, J=1, a=a)  # c >= r - 1
    with pytest.raises(ValueError):
        build_qu_family(tower5, r=4, c=1, I=4, J=1, a=a)  # I = m - 1
    with pytest.raises(ValueError):
        build_qu_family(tower5, r=4, c=1, I=2, J=1, a=2)  # a + a^32 != 1


# ---- single-coefficient variant ------------------------------------------------


def test_g_lk2_structure(tower5):
    a = unit_trace_element(tower5)
    poly = build_g_lk2(tower5, 3, a)  # r = 2: two terms
    assert len(poly.terms) == 2
    poly = build_g_lk2(tower5, 0, a)  # r = 5: 1 + 15 terms
    assert len(poly.terms) == 16
    with pytest.raises(ValueError):
        build_g_lk2(tower5, 4, a)  # J = m - 1


def test_g_lk2_empirical_bentness():
    # no bentness is promised; these are the observed verdicts
    expected = {(4, 0): False, (4, 1): False, (4, 2): False,
                (5, 0): False, (5, 1): False, (5, 2): False, (5, 3): True}
    for (m, J), want in expected.items():
        tower = make_tower(m)
        tt = evaluate(tower, build_g_lk2(tower, J, unit_trace_element(tower)))
        assert is_bent(tt, tower).bent == want


# ---- cubic-cycle family --------------------------------------------------------


@pytest.mark.parametrize("m,I,J", [(7, 5, 2), (9, 6, 2)])
def test_cubic_family_bent(m, I, J):
    tower = make_tower(m)
    a = unit_trace_element(tower)
    tt = evaluate(tower, build_cubic_family(tower, I=I, J=J, a=a))
    assert is_bent(tt, tower).bent


def test_cubic_family_induced_map():
    # basis here is (a + 1, 1); F = G + A_3 z = z^(3*2^(I-1) + 2^J) + const
    m, I, J = 7, 5, 2
    tower = make_tower(m)
    a = unit_trace_element(tower)
    tt = evaluate(tower, build_cubic_family(tower, I=I, J=J, a=a))
    got = extract_class_h(tower, tt, tower.add(a, 1))
    assert got is not None
    g_table, mu = got
    e3 = 3 * (1 << (I - 1)) + (1 << J)
    A3 = tower.add(tower.pow(a, e3), tower.pow(tower.add(a, 1), e3))
    assert mu == A3
    zs = tower.tables.subfield_elements
    f_table = g_table ^ tower.mul_scalar_vec(A3, zs)
    mono = tower.pow_vec(zs, e3)
    assert len(set((f_table ^ mono).tolist())) == 1


def test_cubic_family_rejections():
    tower = make_tower(7)
    a = unit_trace_element(tower)
    with pytest.raises(ValueError):
        build_cubic_family(tower, I=3, J=2, a=a)  # I = J + 1
    with pytest.raises(ValueError):
        build_cubic_family(tower, I=6, J=2, a=a)  # I = m - 1


# ---- trinomial sum -------------------------------------------------------------


def test_trinomial_sum_m7():
    tower = make_tower(7)
    a = unit_trace_element(tower)
    poly = build_trinomial_sum(tower, 4, a)
    tt = evaluate(tower, poly)
    assert is_bent(tt, tower).bent
    profile = niho_profile(tower, poly, r=6)
    distinct = {v for v in profile.values() if v != 0}
    assert len(distinct) <= 10


def test_trinomial_components_individually_bent():
    tower = make_tower(7)
    a = unit_trace_element(tower)
    k = 4
    parts = [
        build_lk(tower, a, k - 1),
        build_qu_family(tower, r=6, c=k - 1, I=k, J=1, a=a),
        build_cubic_family(tower, I=k + 1, J=2, a=tower.add(a, 1)),
    ]
    for p in parts:
        assert is_bent(evaluate(tower, p), tower).bent


def test_trinomial_sum_rejects_small_m(tower5):
    with pytest.raises(ValueError):
        build_trinomial_sum(tower5, 3, unit_trace_element(tower5))


# ---- the LK ladder with a coefficient rule --------------------------------------


@pytest.mark.parametrize("m", range(3, 9))
def test_cycle_families_match_their_block_loops(m):
    # every valid parameter set gives the terms of the per-block loop form, in ladder order
    tower = make_tower(m)
    a = unit_trace_element(tower)
    for r, c, I, J in (
        (r, c, I, J)
        for r in range(3, m + 1) for c in range(1, r - 1) for I in range(1, m - 1) for J in range(I)
    ):
        got, want = build_qu_family(tower, r, c, I, J, a), qu_family_oracle(tower, r, c, I, J, a)
        assert Counter(got.terms) == Counter(want.terms), (r, c, I, J)
    for I, J in ((I, J) for I in range(2, m - 1) for J in range(I - 1)):
        got, want = build_cubic_family(tower, I, J, a), cubic_family_oracle(tower, I, J, a)
        assert Counter(got.terms) == Counter(want.terms), (I, J)
    if m % 2 == 1 and m > 5:
        k = (m + 1) // 2
        want = (
            build_lk(tower, a, k - 1)
            + qu_family_oracle(tower, m - 1, k - 1, k, 1, a)
            + cubic_family_oracle(tower, k + 1, 2, tower.add(a, 1))
        )
        assert Counter(build_trinomial_sum(tower, k, a).terms) == Counter(want.terms)


# ---- cross-cutting invariants --------------------------------------------------


def all_family_polys(m):
    tower = make_tower(m)
    a = unit_trace_element(tower)
    polys = [
        build_quadratic(tower, 1),
        build_binomial(tower, 1, "d2_3"),
        build_lk_coeff(tower, 2, [1, 3]),
        build_g_lk2(tower, 1, a),
    ]
    if m % 2 == 0:
        polys.append(build_binomial(tower, 1, "d2_16"))
    for r in range(2, m):
        if math.gcd(r, m) == 1:
            polys.append(build_lk(tower, a, r))
    if m == 5:
        polys.append(build_qu_family(tower, r=4, c=1, I=2, J=1, a=a))
        polys.append(build_g_lk2(tower, 3, a))
    if m == 7:
        polys.append(build_cubic_family(tower, I=5, J=2, a=a))
        polys.append(build_trinomial_sum(tower, 4, a))
    return tower, polys


@pytest.mark.parametrize("m", [4, 5, 7])
def test_every_emitted_exponent_is_niho(m):
    tower, polys = all_family_polys(m)
    base = (1 << m) - 1
    powers = {pow(2, j, base) for j in range(2 * m)}
    for poly in polys:
        for _, _, e in poly.terms:
            assert e % base in powers


def test_profile_round_trip(tower5):
    # profile of an explicit coefficient ladder returns those coefficients
    a = unit_trace_element(tower5)
    poly = build_qu_family(tower5, r=4, c=1, I=2, J=1, a=a)
    prof = niho_profile(tower5, poly, r=4)
    A1 = tower5.add(tower5.pow(a, 4), 1)
    A2 = tower5.add(tower5.pow(a, 4), tower5.pow(a, 2))
    A3 = tower5.add(A2, 1)
    assert prof[1] == A1
    assert prof[2] == A2
    assert prof[3] == tower5.frobenius(A1, 5)
    assert prof[4] == A3
    assert prof[8] == A3  # the self-conjugate slot


# ---- params bundle -------------------------------------------------------------


def test_family_params_json_round_trip(tower5):
    a = unit_trace_element(tower5)
    params = FamilyParams(family="qu_family", m=5, r=4, c=1, I=2, J=1, a=a)
    s = params.to_json(tower5)
    back = FamilyParams.from_json(s, tower5)
    assert back == params
    tt1 = evaluate(tower5, build(tower5, params))
    tt2 = evaluate(tower5, build(tower5, back))
    assert np.array_equal(tt1, tt2)


def test_family_params_rejects_unknown():
    with pytest.raises(ValueError):
        FamilyParams(family="mystery", m=5)


def test_family_params_from_json_rejects_stray_key_and_other_m():
    # an unknown key would be dropped and rebuild a different function
    stray = '{"family":"binomial_16","m":4,"d2":131,"b_hex":"01","zz":1}'
    with pytest.raises(ValueError, match=r"unknown family parameter keys \['d2', 'zz'\]"):
        FamilyParams.from_json(stray, make_tower(4))
    with pytest.raises(ValueError, match="m=5, tower has m=4"):
        FamilyParams.from_json('{"family":"quadratic","m":5,"a_hex":"01"}', make_tower(4))


@pytest.mark.parametrize(
    "doc, match",
    [
        ('{"family":"quadratic","m":5,"a_hex":5}', "a_hex"),
        ('{"m":5}', '"family" and "m"'),
        ('{"family":"lk_coeff","m":5,"r":2,"coeffs_hex":"0103"}', "coeffs_hex"),
        ("[1]", "JSON object"),
        ('{"family":"lk","m":5,"r":"2","a_hex":"01"}', "parameter r "),
        ('{"family":"lk","m":5,"r":true,"a_hex":"01"}', "parameter r "),
    ],
    ids=["hex_not_string", "no_family", "coeffs_not_list", "not_object", "r_string", "r_bool"],
)
def test_family_params_from_json_rejects_malformed_input(tower5, doc, match):
    # each raised TypeError or KeyError, or was misread, before from_json checked types
    with pytest.raises(ValueError, match=match):
        FamilyParams.from_json(doc, tower5)


def test_build_rejects_unused_field_and_other_m(tower5):
    # a field the family does not take, or params for another m, would build a function
    # that its params do not describe
    with pytest.raises(ValueError, match=r"^family quadratic takes no parameter\(s\) r$"):
        build(tower5, FamilyParams("quadratic", 5, a=1, r=3))
    with pytest.raises(ValueError, match=r"^parameters are for m=7, tower has m=5$"):
        build(tower5, FamilyParams("quadratic", 7, a=1))


def test_build_dispatch_all_families(tower4):
    # every registry name, aliases included, reaches its own constructor
    a4 = unit_trace_element(tower4)
    tower7 = make_tower(7)
    a7 = unit_trace_element(tower7)
    cases = {
        "quadratic": (FamilyParams("quadratic", 4, a=1), build_quadratic(tower4, 1)),
        "binomial_3": (FamilyParams("binomial_3", 4, b=1), build_binomial(tower4, 1, "d2_3")),
        "binomial_16": (FamilyParams("binomial_16", 4, b=1), build_binomial(tower4, 1, "d2_16")),
        "lk": (FamilyParams("lk", 4, r=3, a=a4), build_lk(tower4, a4, 3)),
        "lk_coeff": (FamilyParams("lk_coeff", 4, r=2, coeffs=(1, 1)), build_lk_coeff(tower4, 2, [1, 1])),
        "qu_family": (
            FamilyParams("qu_family", 4, r=4, c=1, I=2, J=0, a=a4),
            build_qu_family(tower4, 4, 1, 2, 0, a4),
        ),
        "g_lk2": (FamilyParams("g_lk2", 4, J=1, a=a4), build_g_lk2(tower4, 1, a4)),
        "cubic_family": (
            FamilyParams("cubic_family", 4, I=2, J=0, a=a4),
            build_cubic_family(tower4, 2, 0, a4),
        ),
        "trinomial_sum": (
            FamilyParams("trinomial_sum", 7, k=4, a=a7),
            build_trinomial_sum(tower7, 4, a7),
        ),
    }
    aliases = {"cubic": "cubic_family", "trinomial": "trinomial_sum"}
    assert set(FAMILIES) == set(cases) | set(aliases)
    for name in FAMILIES:
        canonical = aliases.get(name, name)
        params, expected = cases[canonical]
        params = dataclasses.replace(params, family=name)
        assert params.family == canonical
        tower = make_tower(params.m)
        poly = build(tower, params)
        assert poly == expected
        assert len(evaluate(tower, poly)) == tower.size
