import numpy as np
import pytest

from conftest import tt_of
from nihobent import (
    RepresentationError,
    TracePolynomial,
    algebraic_degree,
    anf,
    build_quadratic,
    dual,
    evaluate,
    is_affine_difference,
    is_bent,
    make_tower,
    nonlinearity,
    spectrum_to_csv,
    table_from_hex,
    table_to_hex,
    walsh,
    walsh_naive,
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
    spec = walsh(tt)
    assert spec[0] == 16
    assert not spec[1:].any()
    v = is_bent(tt)
    assert not v.bent and v.witness_w == 0 and v.witness_value == 16


def test_two_variable_bent():
    spec = walsh(AND2)
    assert set(np.abs(spec).tolist()) == {2}
    assert is_bent(AND2).bent
    assert np.array_equal(dual(AND2), AND2)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_fwht_matches_naive_dot_product(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        tt = rng.integers(0, 2, 1 << n).astype(np.uint8)
        assert np.array_equal(walsh(tt), walsh_naive(tt))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_fwht_matches_naive_trace_indexed(m):
    tower = make_tower(m)
    rng = np.random.default_rng(m)
    for _ in range(10):
        tt = rng.integers(0, 2, tower.size).astype(np.uint8)
        assert np.array_equal(walsh(tt, tower), walsh_naive(tt, tower))


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


def test_is_bent_rejects_odd_n():
    with pytest.raises(ValueError):
        is_bent(np.zeros(8, dtype=np.uint8))


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
    # Tr_m over a non-self-conjugate exponent leaves the subfield
    with pytest.raises(RepresentationError) as err:
        evaluate(tower3, TracePolynomial(3, ((3, 1, 3),)))
    assert "t=" in str(err.value)


def test_raw_term_requires_gf2_values(tower3):
    with pytest.raises(RepresentationError):
        evaluate(tower3, TracePolynomial(3, ((1, 1, 3),)))
    # a genuinely GF(2)-valued raw term works: c * t^0 = c
    tt = evaluate(tower3, TracePolynomial(3, ((1, 1, 0),)))
    assert tt.all()


def test_trace_degree_validation(tower3):
    with pytest.raises(ValueError):
        TracePolynomial(3, ((4, 1, 1),))


def test_exponent_storage_reduced(tower3):
    p = TracePolynomial(3, ((6, 1, 64),))
    assert p.terms[0][2] == 1
    # a nonzero multiple of the order stays nonzero: t^63 is 0 at t = 0
    q = TracePolynomial(3, ((6, 1, 63),))
    assert q.terms[0][2] == 63
    assert evaluate(tower3, q)[0] == 0
    assert TracePolynomial(3, ((6, 1, 0),)).terms[0][2] == 0


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


def test_polynomial_addition(tower3):
    p = build_quadratic(tower3, 1)
    q = TracePolynomial(3, ((6, 1, 1),))
    both = evaluate(tower3, p + q)
    assert np.array_equal(both, evaluate(tower3, p) ^ evaluate(tower3, q))
