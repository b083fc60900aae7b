import math
import random

import numpy as np
import pytest

from conftest import (
    evaluate_terms,
    is_affine_difference,
    spectrum_csv_oracle,
    spectrum_json_oracle,
    term_values,
    tt_of,
    walsh_naive,
)
from nihobent import (
    RepresentationError,
    TracePolynomial,
    algebraic_degree,
    anf,
    build_binomial,
    build_cubic_family,
    build_g_lk2,
    build_lk,
    build_lk_coeff,
    build_qu_family,
    build_quadratic,
    build_trinomial_sum,
    dual,
    evaluate,
    find_unit_relative_trace,
    is_bent,
    make_tower,
    nonlinearity,
    spectrum_to_csv,
    table_from_hex,
    table_to_hex,
    verdict_from_spectrum,
    walsh,
)
from nihobent.boolfun import (
    _FORMAT_BLOCK,
    _check_table,
    _fwht,
    _gram_permutation,
    spectrum_to_json,
)

AND2 = np.array([0, 0, 0, 1], dtype=np.uint8)  # x1*x2 with index bits as inputs


def test_zero_coefficient_gives_zero_table(tower3):
    tt = tt_of(tower3, [(6, 0, 1)])
    assert not tt.any()


def test_quadratic_spectrum_is_flat(tower3):
    tt = evaluate(tower3, build_quadratic(tower3, 1))
    spec = walsh(tt, tower3)
    assert set(np.abs(spec).tolist()) == {8}
    assert is_bent(tt, tower3).bent


def test_linear_form_is_balanced(tower3):
    tt = tt_of(tower3, [(6, 1, 1)])
    assert int(tt.sum()) == 32
    assert nonlinearity(tt, tower3) == 0


def test_walsh_of_constant_zero():
    tt = np.zeros(16, dtype=np.uint8)
    tower = make_tower(2)
    spec = walsh(tt, tower)
    assert spec[0] == 16
    assert not spec[1:].any()
    v = is_bent(tt, tower)
    assert not v.bent and v.witness_w == 0 and v.witness_value == 16


@pytest.mark.parametrize("n", [4, 6, 8])
def test_fwht_matches_naive_dot_product(n):
    # the butterfly alone computes the spectrum under the plain inner product <w, x>
    rng = np.random.default_rng(n)
    for _ in range(10):
        tt = rng.integers(0, 2, 1 << n).astype(np.uint8)
        assert np.array_equal(_fwht(1 - 2 * tt.astype(np.int64)), walsh_naive(tt))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_fwht_matches_naive_trace_indexed(m):
    tower = make_tower(m)
    rng = np.random.default_rng(m)
    for _ in range(10):
        tt = rng.integers(0, 2, tower.size).astype(np.uint8)
        assert np.array_equal(walsh(tt, tower), walsh_naive(tt, tower))


@pytest.mark.parametrize("m", range(2, 7))
def test_gram_permutation_matches_rel_trace(m):
    # Gram matrix from one rel_trace per (i, j) pair, applied to each w bit by bit
    tower = make_tower(m)
    n = tower.n
    cols = [
        sum(tower.rel_trace(n, 1, tower.mul(1 << i, 1 << j)) << i for i in range(n))
        for j in range(n)
    ]
    expected = [0] * tower.size
    for w in range(tower.size):
        for j in range(n):
            if w >> j & 1:
                expected[w] ^= cols[j]
    assert _gram_permutation(tower).tolist() == expected


def test_walsh_definition_spot_values(tower3):
    # spectrum[w] must equal the defining sum with Tr_n(w x)
    rng = np.random.default_rng(5)
    tt = rng.integers(0, 2, 64).astype(np.uint8)
    spec = walsh(tt, tower3)
    for w in (0, 1, 17, 63):
        acc = 0
        for x in range(64):
            acc += (-1) ** (int(tt[x]) ^ tower3.rel_trace(6, 1, tower3.mul(w, x)))
        assert spec[w] == acc


def test_parseval_exact(tower4):
    rng = np.random.default_rng(9)
    for _ in range(5):
        tt = rng.integers(0, 2, tower4.size).astype(np.uint8)
        spec = walsh(tt, tower4).astype(object)
        assert int((spec**2).sum()) == 2 ** (2 * tower4.n)


def test_verdict_from_spectrum_rejects_odd_n():
    with pytest.raises(ValueError, match="even number of variables"):
        verdict_from_spectrum(np.full(8, 8, dtype=np.int64))


def test_walsh_rejects_a_table_of_another_size(tower3):
    for f in (walsh, is_bent, nonlinearity, dual):
        with pytest.raises(ValueError, match="does not match the tower"):
            f(np.zeros(tower3.size // 4, dtype=np.uint8), tower3)


def test_dual_involution_and_bentness(tower3):
    tt = evaluate(tower3, build_quadratic(tower3, 1))
    d = dual(tt, tower3)
    assert is_bent(d, tower3).bent
    assert np.array_equal(dual(d, tower3), tt)


def test_dual_rejects_non_bent(tower3):
    with pytest.raises(ValueError):
        dual(np.zeros(64, dtype=np.uint8), tower3)


def test_anf_is_involution():
    rng = np.random.default_rng(3)
    for n in (3, 5, 8):
        tt = rng.integers(0, 2, 1 << n).astype(np.uint8)
        assert np.array_equal(anf(anf(tt)), tt)


def test_anf_against_subset_sum_oracle():
    # coefficient of monomial S is the XOR of f over the subcube below S
    rng = np.random.default_rng(4)
    for n in (3, 4, 6):
        tt = rng.integers(0, 2, 1 << n).astype(np.uint8)
        coeffs = anf(tt)
        for s in range(1 << n):
            acc = 0
            x = s
            while True:
                acc ^= int(tt[x])
                if x == 0:
                    break
                x = (x - 1) & s
            assert coeffs[s] == acc


def test_algebraic_degree_conventions(tower3):
    assert algebraic_degree(np.zeros(16, dtype=np.uint8)) == 0
    assert algebraic_degree(np.ones(16, dtype=np.uint8)) == 0
    tt = evaluate(tower3, build_quadratic(tower3, 1))
    assert algebraic_degree(tt) == 2


def test_bent_degree_bound():
    # degree of a bent function on n > 2 variables is at most n/2
    for m in (3, 4):
        tower = make_tower(m)
        tt = evaluate(tower, build_quadratic(tower, 1))
        assert algebraic_degree(tt) <= m


def test_nonlinearity_examples(tower3):
    tt = evaluate(tower3, build_quadratic(tower3, 1))
    assert nonlinearity(tt, tower3) == 28  # 2^5 - 2^2
    tower4 = make_tower(4)
    tt = tt_of(tower4, [(4, 1, 17)])
    assert nonlinearity(tt, tower4) == 120


def test_is_affine_difference(tower3):
    f = evaluate(tower3, build_quadratic(tower3, 1))
    assert is_affine_difference(f, f)
    g = f ^ tt_of(tower3, [(6, 1, 1)])
    assert is_affine_difference(f, g)
    h = f ^ tt_of(tower3, [(3, 1, 9)])
    assert not is_affine_difference(f, h)
    with pytest.raises(ValueError):
        is_affine_difference(f, AND2)


def test_subfield_trace_violation_names_t(tower3):
    # Tr_m over a non-self-conjugate Niho exponent (15 = 1 mod 7) leaves the subfield
    with pytest.raises(RepresentationError) as err:
        evaluate(tower3, TracePolynomial(3, ((3, 1, 15),)))
    assert "t=" in str(err.value)


def test_raw_term_requires_gf2_values(tower3):
    # raw Tr_1 terms are refused when built, GF(2)-valued (c t^0) or not
    for e in (3, 0):
        with pytest.raises(ValueError, match="trace degree 1 not in"):
            TracePolynomial(3, ((1, 1, e),))


def test_trace_degree_validation(tower3):
    for k in (1, 4):  # neither m nor n
        with pytest.raises(ValueError, match="trace degree"):
            TracePolynomial(3, ((k, 1, 1),))


def test_exponent_storage_reduced(tower3):
    p = TracePolynomial(3, ((6, 1, 64),))
    assert p.terms[0][2] == 1
    # a nonzero multiple of the order stays nonzero: t^63 is 0 at t = 0
    q = TracePolynomial(3, ((6, 1, 63),))
    assert q.terms[0][2] == 63
    assert term_values(tower3, 1, q.terms[0][2])[0] == 0
    with pytest.raises(RepresentationError, match="is not Niho"):  # 63 = 0 mod 7
        evaluate(tower3, q)
    assert TracePolynomial(3, ((6, 1, 0),)).terms[0][2] == 0


def test_table_length_is_checked():
    with pytest.raises(ValueError, match="truth table is empty"):
        _check_table(np.zeros(0, dtype=np.uint8))
    with pytest.raises(ValueError, match="truth table is empty"):
        table_from_hex("")
    with pytest.raises(ValueError, match="not a power of two"):
        _check_table(np.zeros(12, dtype=np.uint8))
    assert _check_table(np.zeros(1, dtype=np.uint8)) == 0
    assert _check_table(np.zeros(16, dtype=np.uint8)) == 4


def test_hex_round_trip(tower3):
    tt = evaluate(tower3, build_quadratic(tower3, 1))
    s = table_to_hex(tt)
    assert len(s) == 2 * (64 // 8)
    assert s == s.lower()
    assert np.array_equal(table_from_hex(s), tt)
    # bit 0 of byte 0 is f(0)
    tt2 = np.zeros(16, dtype=np.uint8)
    tt2[0] = 1
    assert table_to_hex(tt2) == "0100"


def test_spectrum_csv_format(tower3):
    tt = evaluate(tower3, build_quadratic(tower3, 1))
    lines = spectrum_to_csv(walsh(tt, tower3), tower3).strip().split("\n")
    assert len(lines) == 64
    w, v = lines[5].split(",")
    assert tower3.element_from_hex(w) == 5
    assert int(v) in (-8, 8)
    # values with many digits and many distinct values per block, over several blocks
    tower = make_tower(9)
    spec = np.random.default_rng(8).integers(-(1 << 40), 1 << 40, tower.size)
    assert len(spec) > 2 * _FORMAT_BLOCK
    assert spectrum_to_csv(spec, tower) == spectrum_csv_oracle(spec, tower)
    assert spectrum_to_json(spec) == spectrum_json_oracle(spec)


@pytest.mark.parametrize("kind", ["random", "bent", "constant"])
@pytest.mark.parametrize("m", range(2, 11))
def test_spectrum_text_matches_per_row_oracle(m, kind):
    # byte for byte; labels take 1, 2 and 3 bytes at n = 4, 10 and 20, and
    # from m = 9 on the spectrum spans several formatting blocks
    tower = make_tower(m)
    if kind == "random":
        tt = np.random.default_rng(m).integers(0, 2, tower.size, dtype=np.uint8)
    elif kind == "bent":
        tt = evaluate(tower, build_quadratic(tower, 1))
    else:
        tt = np.ones(tower.size, dtype=np.uint8)
    spec = walsh(tt, tower)
    if kind == "constant":
        assert spec[0] == -tower.size and not spec[1:].any()
    csv = spectrum_to_csv(spec, tower)
    assert csv == spectrum_csv_oracle(spec, tower)
    assert len(csv.split(",", 1)[0]) == 2 * ((tower.n + 7) // 8)
    assert spectrum_to_json(spec) == spectrum_json_oracle(spec)


def test_spectrum_json_of_short_spectra():
    for spec in ([], [7], [-4, 0]):
        spec = np.array(spec, dtype=np.int64)
        assert spectrum_to_json(spec) == spectrum_json_oracle(spec)


def test_polynomial_addition(tower3):
    p = build_quadratic(tower3, 1)
    q = TracePolynomial(3, ((6, 1, 1),))
    both = evaluate(tower3, p + q)
    assert np.array_equal(both, evaluate(tower3, p) ^ evaluate(tower3, q))


# ---- polar evaluate against the per-term path -------------------------------


def _is_niho(e, m):
    r = e % ((1 << m) - 1)
    return r != 0 and r & (r - 1) == 0


def _random_terms(tower, rng):
    """Seeded mix of every kind of Niho term `evaluate` takes."""
    m, n, q = tower.m, tower.n, 1 << tower.m
    sub = tower.tables.subfield_elements
    nonzero = lambda: rng.randrange(1, tower.size)  # noqa: E731
    terms = []
    for _ in range(6):  # Niho Tr_n terms, exponents also past 2^n - 1
        e = (q - 1) * rng.randrange(3 * (q + 1)) + (1 << rng.randrange(m))
        terms.append((n, nonzero(), e))
    for _ in range(3):  # self-conjugate Tr_m terms: c in GF(2^m)*, e = (q+1) 2^s
        terms.append((m, int(sub[rng.randrange(1, len(sub))]), (q + 1) << rng.randrange(m)))
    terms += [(n, 0, 1), (m, 0, 3), (n, 0, 0)]  # zero coefficients, whatever the exponent
    return terms


@pytest.mark.parametrize("m", range(2, 10))
def test_polar_evaluate_matches_per_term(m):
    tower = make_tower(m)
    rng = random.Random(4000 + m)
    terms = _random_terms(tower, rng)
    for term in terms:
        poly = TracePolynomial(m, (term,))
        assert np.array_equal(evaluate(tower, poly), evaluate_terms(tower, poly.terms)), term
    rng.shuffle(terms)
    poly = TracePolynomial(m, tuple(terms))
    assert np.array_equal(evaluate(tower, poly), evaluate_terms(tower, poly.terms))


def _family_members(tower):
    m = tower.m
    a = find_unit_relative_trace(tower)
    rng = random.Random(m)
    sub = tower.tables.subfield_elements
    members = [
        build_quadratic(tower, int(sub[rng.randrange(1, len(sub))])),
        build_binomial(tower, rng.randrange(1, tower.size), "d2_3"),
        build_lk(tower, a, next(r for r in range(2, m) if math.gcd(r, m) == 1)),
        build_lk_coeff(tower, 3, [rng.randrange(tower.size) for _ in range(4)]),
        build_qu_family(tower, r=m - 1, c=1, I=2, J=1, a=a),
        build_g_lk2(tower, J=1, a=a),
        build_cubic_family(tower, I=m - 2, J=1, a=a),
    ]
    if m % 2 == 0:
        members.append(build_binomial(tower, rng.randrange(1, tower.size), "d2_16"))
    elif m > 5:
        members.append(build_trinomial_sum(tower, (m + 1) // 2, a))
    return members


@pytest.mark.parametrize("m", [5, 6, 7, 9])
def test_polar_evaluate_matches_per_term_on_families(m):
    tower = make_tower(m)
    for poly in _family_members(tower):
        assert np.array_equal(evaluate(tower, poly), evaluate_terms(tower, poly.terms))


@pytest.mark.parametrize("m", range(2, 8))
def test_evaluate_rejects_every_non_niho_term(m):
    # each kind of term the polar fold cannot take raises, naming the term
    tower = make_tower(m)
    rng = random.Random(5000 + m)
    q, n, order = 1 << m, 2 * m, tower.order
    c = rng.randrange(1, tower.size)
    niho = (n, 1, q)  # a Niho term first: the fold must stop at the second one
    non_niho = [e for e in range(2, min(order, 400)) if not _is_niho(e, m)]
    for k, e in [(n, 0), (m, 0), (n, order), (m, order), (n, rng.choice(non_niho)),
                 (m, 3 * (q + 1))]:
        poly = TracePolynomial(m, (niho, (k, c, e)))
        with pytest.raises(RepresentationError, match="is not Niho") as err:
            evaluate(tower, poly)
        assert f"Tr_{k} term (c={c:#x}, e={poly.terms[1][2]})" in str(err.value)


@pytest.mark.parametrize("m", [2, 3, 5, 6])
def test_polar_evaluate_keeps_representation_error(m):
    # a Niho Tr_m term with c t^e outside GF(2^m): the message names a t, and
    # the oracle confirms the term's value there lies outside the subfield
    tower = make_tower(m)
    q = 1 << m
    off = next(c for c in range(2, tower.size) if not tower.in_subfield(c))
    for c, e in [(off, q + 1), (1, q), (1, 2 * q - 1)]:
        with pytest.raises(RepresentationError, match="leaves the subfield") as err:
            evaluate(tower, TracePolynomial(m, ((m, c, e),)))
        assert f"Tr_{m} term (c={c:#x}, e={e})" in str(err.value)
        t = int(str(err.value).rsplit("t=", 1)[1], 16)
        assert not tower.in_subfield(int(term_values(tower, c, e)[t]))
