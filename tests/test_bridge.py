import numpy as np
import pytest

from conftest import (
    bivariate_line_oracle,
    bivariate_monomial_oracle,
    frobenius_input,
    is_affine_difference,
    primitive_unit,
    scale_input,
    tt_of,
)
from nihobent import (
    BivariateSpec,
    OPolyMap,
    algebraic_degree,
    bivariate_monomial_table,
    bivariate_truth_table,
    build_lk,
    build_qu_family,
    evaluate,
    expansion_to_json,
    is_bent,
    is_opolynomial,
    expand_monomial,
    lk_exponents,
    make_tower,
    opoly_to_univariate,
    verify_coefficient_properties,
)
from nihobent.boolfun import _niho_d
from nihobent.gf2 import find_unit_relative_trace


def flagged(tower):
    return find_unit_relative_trace(tower, require_primitive=True)


def ladder(tower, res):
    """Exponents of the expansion's ladder terms, in c' order."""
    return [e for _, _, e in res.to_trace_polynomial(tower).terms[2:]]


# ---- single-monomial expansion --------------------------------------------------


def test_worked_example_m3_d6(tower3):
    a = flagged(tower3)
    res = expand_monomial(tower3, 6, 1, a)
    assert res.l == 1
    assert res.linear_exponent == 8
    assert res.sc_exponent == 36
    assert ladder(tower3, res) == lk_exponents(3, 3 - res.l)[::-1] == [22]
    assert all(c != 0 for c in res.coeffs)


def test_worked_example_m4_d2(tower4):
    a = flagged(tower4)
    res = expand_monomial(tower4, 2, 1, a)
    assert res.l == 1
    assert ladder(tower4, res) == lk_exponents(4, 4 - res.l)[::-1]
    assert set(ladder(tower4, res)) == {15 * 2 * (4 - c) + 16 for c in (1, 2, 3)}
    assert res.sc_exponent == 8 * 17 == 136


@pytest.mark.parametrize("m", range(2, 10))
def test_expansion_ladder_is_the_lk_ladder_backwards(m):
    # A_c' of x^(q-d) y^d sits on (2^m - 1)(2^l (2^(m-l-1) - c') + 1) + 1, which is
    # slot 2^(m-l-1) - c' of the LK ladder of r = m - l; the ladder depends on d only
    # through l, so past m = 6 one d per l (d = 2^l, the cheapest to expand) covers it
    tower = make_tower(m)
    a = flagged(tower)
    for d in range(1, 1 << m) if m <= 6 else [1 << l for l in range(m)]:
        res = expand_monomial(tower, d, 1, a)
        width = 1 << (m - res.l - 1)
        closed_form = [_niho_d(m, (1 << res.l) * (width - c) + 1) for c in range(1, width)]
        assert ladder(tower, res) == closed_form == lk_exponents(m, m - res.l)[::-1], d


def test_empty_ladder_when_l_is_m_minus_one(tower4):
    a = flagged(tower4)
    res = expand_monomial(tower4, 1 << 3, 1, a)
    assert res.coeffs == ()
    rep = verify_coefficient_properties(tower4, res)
    assert rep.midpoint_skipped
    assert bool(rep)


@pytest.mark.parametrize("m", range(2, 7))
def test_midpoint_is_checked_unless_the_ladder_is_empty(m):
    # slot 2^(m-l-2) exists for every l < m - 1, down to the two-slot ladder l = m - 2
    tower = make_tower(m)
    a = flagged(tower)
    for d in range(1, 1 << m):
        res = expand_monomial(tower, d, 1, a)
        assert verify_coefficient_properties(tower, res).midpoint_skipped == (res.l == m - 1), d


def test_expand_rejects_bad_inputs(tower4):
    a = flagged(tower4)
    with pytest.raises(ValueError):
        expand_monomial(tower4, 0, 1, a)
    with pytest.raises(ValueError):
        expand_monomial(tower4, 1 << 4, 1, a)
    with pytest.raises(ValueError):
        expand_monomial(tower4, 2, 0, a)
    with pytest.raises(ValueError):
        expand_monomial(tower4, 2, a, a)  # lambda outside the subfield
    with pytest.raises(ValueError):
        expand_monomial(tower4, 2, 1, 1)  # a not primitive


@pytest.mark.parametrize("m", [3, 4, 5])
def test_pointwise_bridge_equality_all_d(m):
    # the expansion must reproduce Tr_m(lambda x^(2^m-d) y^d) at every point
    tower = make_tower(m)
    a = flagged(tower)
    rng = np.random.default_rng(m)
    sub = tower.tables.subfield_elements
    for d in range(1, 1 << m):
        lams = {1}
        while len(lams) < 3:
            lams.add(int(sub[rng.integers(1, len(sub))]))
        for lam in lams:
            res = expand_monomial(tower, d, lam, a)
            uni = evaluate(tower, res.to_trace_polynomial(tower))
            biv = bivariate_monomial_oracle(tower, d, lam, a)
            assert np.array_equal(uni, biv), (m, d, lam)


@pytest.mark.parametrize("m", range(2, 8))
def test_monomial_table_is_class_h_table(m):
    # Tr_m(lambda T(t)^(q-d) T(a t)^d) is the class-H table of lambda T(a) z^d
    # on the basis a^q: the polar pass equals the full-field oracle for every d
    tower = make_tower(m)
    rng = np.random.default_rng(30 + m)
    sub = tower.tables.subfield_elements
    lams = [1, *(int(x) for x in rng.choice(sub[1:], 2))]
    bases = [flagged(tower)]
    if m == 3:  # every basis element off the subfield, the flagged one among them
        bases = np.nonzero(tower.tables.subfield_index < 0)[0].tolist()
    for a in bases:
        for d in range(1, 1 << m):
            for lam in lams:
                biv = bivariate_monomial_table(tower, d, lam, a)
                want = bivariate_monomial_oracle(tower, d, lam, a)
                assert np.array_equal(biv, want), (m, d, lam, a)


def test_monomial_table_rejects_bad_inputs(tower3):
    a = flagged(tower3)
    for d, lam, basis in ((0, 1, a), (8, 1, a), (6, a, a), (6, 1, 1)):
        with pytest.raises(ValueError):
            bivariate_monomial_table(tower3, d, lam, basis)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_coefficient_properties_all_d(m):
    tower = make_tower(m)
    a = flagged(tower)
    for d in range(1, 1 << m):
        res = expand_monomial(tower, d, 1, a)
        rep = verify_coefficient_properties(tower, res)
        assert bool(rep), (m, d, rep)
        assert rep.all_nonzero, (m, d)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_monomial_degree_law(m):
    # each even-d monomial's function has algebraic degree m - l + 1
    tower = make_tower(m)
    a = flagged(tower)
    for d in range(2, (1 << m) - 1, 2):
        res = expand_monomial(tower, d, 1, a)
        tt = evaluate(tower, res.to_trace_polynomial(tower, include_linear=False))
        assert algebraic_degree(tt) == m - res.l + 1, d


def test_expansion_json_shape(tower3):
    a = flagged(tower3)
    res = expand_monomial(tower3, 6, 1, a)
    data = expansion_to_json(tower3, res)
    assert data["d"] == 6 and data["l"] == 1
    assert data["linear"]["exp"] == 8
    assert data["self_conj"]["exp"] == 36
    assert [t["exp"] for t in data["terms"]] == [22]
    assert all(set(t) == {"cprime", "coef_hex", "exp"} for t in data["terms"])


# ---- o-polynomial pipeline ------------------------------------------------------


@pytest.mark.parametrize("m,r", [(3, 2), (5, 2), (5, 3)])
def test_pipeline_frobenius_reproduces_equal_coefficient_ladder(m, r):
    # z^(2^(m-r)) with a primitive unit-trace basis element lands exactly on
    # the equal-coefficient family
    tower = make_tower(m)
    a = primitive_unit(tower)
    assert a is not None
    F = OPolyMap.monomial(tower, 1 << (m - r))
    pipe = evaluate(tower, opoly_to_univariate(tower, F, a))
    lk = evaluate(tower, build_lk(tower, a, r))
    assert np.array_equal(pipe, lk)


def test_pipeline_z6_matches_cycle_family_up_to_ea(tower5):
    # same basis element; the expansion substitution corresponds to reading
    # the cycle family at t^(2^m), so compare through that twist
    a = primitive_unit(tower5)
    F = OPolyMap.monomial(tower5, 6)
    pipe = evaluate(tower5, opoly_to_univariate(tower5, F, a))
    qu = evaluate(tower5, build_qu_family(tower5, r=4, c=1, I=2, J=1, a=a))
    assert is_affine_difference(pipe, frobenius_input(tower5, qu, 5))


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_pipeline_bent_iff_opoly(m):
    tower = make_tower(m)
    a = flagged(tower)
    from nihobent import catalog

    for entry in catalog(m):
        F = entry.to_map(tower)
        tt = evaluate(tower, opoly_to_univariate(tower, F, a))
        assert is_bent(tt, tower).bent, entry.name
    # at least three even non-o-polynomials must fail
    from itertools import combinations

    evens = list(range(2, (1 << m) - 1, 2))
    candidates = [(e,) for e in evens] + list(combinations(evens, 2))
    negatives = 0
    for exps in candidates:
        F = OPolyMap.from_terms(tower, [(1, e) for e in exps])
        if is_opolynomial(F).is_opoly:
            continue
        tt = evaluate(tower, opoly_to_univariate(tower, F, a))
        assert not is_bent(tt, tower).bent, exps
        negatives += 1
        if negatives == 3:
            break
    assert negatives == 3


def test_pipeline_rejects_odd_exponent(tower5):
    a = flagged(tower5)
    with pytest.raises(ValueError, match="odd"):
        opoly_to_univariate(tower5, OPolyMap.monomial(tower5, 1), a)


def test_pipeline_drops_linear_and_constant_terms(tower5):
    a = flagged(tower5)
    F1 = OPolyMap.monomial(tower5, 6)
    F2 = OPolyMap.from_terms(tower5, [(1, 6), (1, 0)])  # + constant
    p1 = opoly_to_univariate(tower5, F1, a)
    p2 = opoly_to_univariate(tower5, F2, a)
    assert p1.terms == p2.terms
    assert all(e != (1 << 5) for _, _, e in p1.terms)


def test_pipeline_merges_coefficients(tower5):
    # doubling a monomial cancels it completely
    a = flagged(tower5)
    F = OPolyMap.from_terms(tower5, [(1, 6), (1, 6)])
    assert opoly_to_univariate(tower5, F, a).terms == ()


@pytest.mark.parametrize("m", [4, 5])
def test_leading_term_flag(m):
    # the merge keeps the self-conjugate term exactly when the XOR of the
    # monomials' self-conjugate coefficients survives, and the route's table
    # is the sum of the monomial tables up to the dropped linear terms
    from nihobent import catalog

    tower = make_tower(m)
    a = flagged(tower)
    sc_exp = (1 << (m - 1)) * ((1 << m) + 1)

    def self_conjugate(d, lam):
        res = expand_monomial(tower, d, lam, a)
        return next(c for _, c, e in res.to_trace_polynomial(tower).terms if e == sc_exp)

    # every catalog map keeps the term; z^2 + lam z^4 with lam chosen to cancel it does not
    lam = tower.mul(self_conjugate(2, 1), tower.inv(self_conjugate(4, 1)))
    maps = [entry.to_map(tower) for entry in catalog(m)]
    maps.append(OPolyMap.from_terms(tower, [(1, 2), (lam, 4)]))
    kept = []
    for F in maps:
        route = opoly_to_univariate(tower, F, a)
        sc = 0
        biv = np.zeros(tower.size, dtype=np.uint8)
        for c, e in F.terms:
            sc ^= self_conjugate(e, c)
            biv ^= bivariate_monomial_oracle(tower, e, c, a)
        assert [c for _, c, e in route.terms if e == sc_exp] == ([sc] if sc else [])
        assert is_affine_difference(evaluate(tower, route), biv), F.terms
        kept.append(sc != 0)
    assert kept == [True] * (len(maps) - 1) + [False]


# ---- bivariate evaluation -------------------------------------------------------


def test_bivariate_zero_map(tower3):
    zero = OPolyMap.from_terms(tower3, [(0, 0)])
    tt = bivariate_truth_table(tower3, BivariateSpec(zero, 0, flagged(tower3)))
    assert not tt.any()


def test_bivariate_mu_line(tower3):
    zero = OPolyMap.from_terms(tower3, [(0, 0)])
    tt = bivariate_truth_table(tower3, BivariateSpec(zero, 1, flagged(tower3)))
    zs = tower3.tables.subfield_elements
    assert np.array_equal(tt[zs], tower3.tables.subfield_trace_bits[zs])
    assert int(tt.sum()) == int(tower3.tables.subfield_trace_bits[zs].sum())


def test_bivariate_z6_is_bent_m3(tower3):
    a = flagged(tower3)
    const = int(tower3.tables.subfield_elements[2])
    G = OPolyMap.from_terms(tower3, [(1, 6), (const, 0)])  # z^6 + const
    tt = bivariate_truth_table(tower3, BivariateSpec(G, 0, a))
    assert is_bent(tt, tower3).bent


def test_bivariate_bent_iff_opoly(tower5):
    a = flagged(tower5)
    good = OPolyMap.monomial(tower5, 6)
    assert is_bent(bivariate_truth_table(tower5, BivariateSpec(good, 0, a)), tower5).bent
    bad = OPolyMap.monomial(tower5, 12)
    assert not is_opolynomial(bad).is_opoly
    assert not is_bent(bivariate_truth_table(tower5, BivariateSpec(bad, 0, a)), tower5).bent


def test_bivariate_rejects_subfield_basis(tower3):
    G = OPolyMap.monomial(tower3, 2)
    with pytest.raises(ValueError):
        bivariate_truth_table(tower3, BivariateSpec(G, 0, 1))
    with pytest.raises(ValueError, match="mu"):
        bivariate_truth_table(tower3, BivariateSpec(G, 2, flagged(tower3)))


@pytest.mark.parametrize("m", range(2, 10))
def test_bivariate_matches_line_oracle(m):
    # the polar table equals the line-by-line one for o-polynomials and for
    # arbitrary maps, on the x = 0 line (mu) and for bases other than flagged
    from nihobent import catalog

    tower = make_tower(m)
    rng = np.random.default_rng(100 + m)
    sub = tower.tables.subfield_elements
    off = np.nonzero(tower.tables.subfield_index < 0)[0]
    maps = [entry.to_map(tower) for entry in catalog(m)[:3]]
    maps.append(OPolyMap(tower, sub[rng.integers(0, len(sub), len(sub))]))
    for G in maps:
        mu = int(sub[rng.integers(1, len(sub))])
        for spec in (
            BivariateSpec(G, 0, flagged(tower)),
            BivariateSpec(G, mu, int(rng.choice(off))),
        ):
            expected = bivariate_line_oracle(tower, spec)
            assert np.array_equal(bivariate_truth_table(tower, spec), expected), (m, G, spec.mu, spec.a)


# ---- the m = 3 worked pipeline --------------------------------------------------


def canonical_note_witness(tower):
    # smallest primitive a whose relative trace equals its norm a^(2^m + 1(-ish)):
    # a + a^(2^m) = a^(2^m + 1) makes the two-term display exact
    m = tower.m
    for a in range(tower.size):
        if not tower.is_primitive(a):
            continue
        b = tower.add(a, tower.frobenius(a, m))
        if b != 0 and b == tower.pow(a, (1 << m) + 1):
            return a
    return None


def test_m3_worked_example(tower3):
    a = canonical_note_witness(tower3)
    assert a is not None
    F = OPolyMap.monomial(tower3, 6)
    pipe = evaluate(tower3, opoly_to_univariate(tower3, F, a))
    note = tt_of(tower3, [(3, tower3.pow(a, 36), 36), (6, tower3.pow(a, 22), 22)])
    assert is_affine_difference(pipe, note)
    # rescaling the variable through a turns the display into the
    # coefficient-free member
    target = tt_of(tower3, [(3, 1, 9), (6, 1, 22)])
    assert np.array_equal(scale_input(tower3, note, tower3.inv(a)), target)


def test_m3_general_closed_form(tower3):
    # for every primitive a off the subfield the z^6 pipeline output is
    # Tr_3(a^18 b^2 t^36) + Tr_6(a^4 b^2 t^22) up to affine terms
    F = OPolyMap.monomial(tower3, 6)
    for a in range(tower3.size):
        b = tower3.add(a, tower3.frobenius(a, 3))
        if b == 0 or not tower3.is_primitive(a):
            continue
        pipe = evaluate(tower3, opoly_to_univariate(tower3, F, a))
        b2 = tower3.mul(b, b)
        closed = tt_of(
            tower3,
            [
                (3, tower3.mul(tower3.pow(a, 18), b2), 36),
                (6, tower3.mul(tower3.pow(a, 4), b2), 22),
            ],
        )
        assert is_affine_difference(pipe, closed)
