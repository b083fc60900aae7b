import numpy as np
import pytest

from nihobent import (
    OPolyMap,
    catalog,
    interpolate_terms,
    inverse_map,
    is_opolynomial,
    make_tower,
    equivalence_table,
    transform_zFinv,
    trinomial_g2_map,
)


def names(entries):
    return {e.name for e in entries}


def scalar_interpolate_terms(F):
    """Reference interpolation: the closed form, one scalar field product at a time.

    c_0 = F(0), c_j = sum over nonzero a of F(a) a^(q-1-j) for 0 < j < q - 1,
    c_{q-1} = sum of all values; zero coefficients dropped.  Powers of each a
    come from repeated multiplication, so no exp/log table is involved.
    """
    tower = F.tower
    q = 1 << tower.m
    points = []
    for a, v in zip(tower.subfield_elements()[1:], F.table[1:]):
        pows = [1]
        for _ in range(q - 2):
            pows.append(tower.mul(pows[-1], int(a)))
        points.append((int(v), pows))
    terms = []
    c0 = int(F.table[0])
    if c0:
        terms.append((c0, 0))
    for j in range(1, q - 1):
        cj = 0
        for v, pows in points:
            cj ^= tower.mul(v, pows[q - 1 - j])
        if cj:
            terms.append((cj, j))
    ctop = 0
    for v in F.table:
        ctop ^= int(v)
    if ctop:
        terms.append((ctop, q - 1))
    return terms


def random_tables(tower, rng, count=3):
    """Seeded permutations and non-permutations (about 30% zeros) of the subfield."""
    zs = tower.subfield_elements()
    size = len(zs)
    for _ in range(count):
        yield zs[rng.permutation(size)]
        table = zs[rng.integers(0, size, size)]
        table[rng.random(size) < 0.3] = 0
        yield table


def test_frobenius_is_opoly(tower5):
    assert is_opolynomial(OPolyMap.monomial(tower5, 2)).is_opoly


def test_z6_fails_even_m(tower4):
    v = is_opolynomial(OPolyMap.monomial(tower4, 6))
    assert not v.is_opoly
    assert v.witness_beta is not None
    # replay the witness: count preimages of the reported value
    tower = tower4
    zs = tower.subfield_elements()
    F = OPolyMap.monomial(tower, 6)
    count = sum(
        1
        for z in zs
        if (F(int(z)) ^ tower.mul(v.witness_beta, int(z))) == v.witness_value
    )
    assert count == v.witness_count
    assert count not in (0, 2)


def test_identity_collapses(tower5):
    v = is_opolynomial(OPolyMap.monomial(tower5, 1))
    assert not v.is_opoly
    assert v.witness_count == 1 << 5  # F(z) + 1*z = 0 everywhere


def test_permutation_diagnostic(tower5):
    assert is_opolynomial(OPolyMap.monomial(tower5, 2)).is_permutation
    assert not is_opolynomial(OPolyMap.monomial(tower5, 0)).is_permutation


def test_opoly_map_conventions(tower4):
    # 0^0 = 1: a constant term shifts every value
    F = OPolyMap.from_terms(tower4, [(1, 0)])
    assert all(int(v) == 1 for v in F.table)
    with pytest.raises(ValueError):
        OPolyMap.from_terms(tower4, [(2, 1)])  # coefficient outside subfield
    with pytest.raises(ValueError):
        OPolyMap.monomial(tower4, 1)(2)  # query outside subfield


def test_catalog_m5_contents(tower5):
    got = names(catalog(5))
    assert {"frobenius_2^1", "frobenius_2^2", "frobenius_2^3", "frobenius_2^4"} <= got
    assert {"z^6", "z^(2^k+2)", "z^(2^(m-1)+2^(m-2))", "z^(2^(3k+1)+2^(2k+1))"} <= got
    assert {"trinomial_sixth", "trinomial_cubic", "z^(3*2^k+4)"} <= got
    by_name = {e.name: e for e in catalog(5)}
    assert by_name["z^(2^k+2)"].exponents == (10,)
    assert by_name["z^(2^(m-1)+2^(m-2))"].exponents == (24,)
    assert by_name["z^(2^(3k+1)+2^(2k+1))"].exponents == (24,)
    assert by_name["trinomial_sixth"].exponents == (26, 16, 6)


def test_catalog_m4_only_frobenius():
    entries = catalog(4)
    assert names(entries) == {"frobenius_2^1", "frobenius_2^3"}


def test_catalog_m7_has_cubic_rows():
    by_name = {e.name: e for e in catalog(7)}
    assert by_name["z^(3*2^k+4)"].exponents == (52,)
    assert by_name["trinomial_cubic"].exponents == (16, 18, 52)


@pytest.mark.parametrize("m", list(range(2, 10)))
def test_catalog_entries_verify(m):
    tower = make_tower(m)
    for entry in catalog(m):
        assert is_opolynomial(entry.to_map(tower)).is_opoly, entry.name


@pytest.mark.parametrize("m", [4, 6, 8])
def test_z6_verdict_matches_validity_predicate(m):
    # z^6 is excluded from even-m catalogs, and the scan agrees
    tower = make_tower(m)
    assert "z^6" not in names(catalog(m))
    assert not is_opolynomial(OPolyMap.monomial(tower, 6)).is_opoly


def test_catalog_exponents_all_even():
    for m in range(2, 10):
        sub_order = (1 << m) - 1
        for entry in catalog(m):
            for e in entry.exponents:
                assert (e % sub_order) % 2 == 0, (m, entry.name, e)


def test_inverse_map_frobenius(tower5):
    # inverse of z^(2^k) at m = 2k-1 is z^(2^(k-1))
    k = 3
    F = OPolyMap.monomial(tower5, 1 << k)
    assert inverse_map(F) == OPolyMap.monomial(tower5, 1 << (k - 1))


def test_inverse_map_pocket(tower5):
    # (2^k + 2)(1 - 2^(k-1)) = 1 mod 2^m - 1
    k = 3
    e = (1 - (1 << (k - 1))) % 31
    F = OPolyMap.monomial(tower5, (1 << k) + 2)
    assert inverse_map(F) == OPolyMap.monomial(tower5, e)


def test_inverse_map_involution(tower5):
    F = OPolyMap.monomial(tower5, 6)
    assert inverse_map(inverse_map(F)) == F
    for m in range(2, 11):
        tower = make_tower(m)
        rng = np.random.default_rng(3000 + m)
        zs = tower.subfield_elements()
        for _ in range(3):
            F = OPolyMap(tower, zs[rng.permutation(len(zs))])
            assert inverse_map(inverse_map(F)) == F, m


def test_inverse_map_rejects_non_permutation(tower4):
    with pytest.raises(ValueError):
        inverse_map(OPolyMap.monomial(tower4, 3))  # gcd(3, 15) = 3


def test_transform_zFinv_monomial(tower5):
    # z * F(1/z) on z^(2^(m-2)) gives z^(1 - 2^(m-2)) = z^24 mod 31
    F = OPolyMap.monomial(tower5, 1 << 3)
    assert transform_zFinv(F) == OPolyMap.monomial(tower5, 24)


def test_transform_zFinv_constant_map(tower5):
    one = OPolyMap.from_terms(tower5, [(1, 0)])
    t = transform_zFinv(one)
    ident = OPolyMap.monomial(tower5, 1).table.copy()
    ident[0] = 0  # transform maps 0 to 0
    assert np.array_equal(t.table, ident)
    assert not is_opolynomial(t).is_opoly


def test_transform_zFinv_involution_on_monomials(tower5):
    F = OPolyMap.monomial(tower5, 6)
    assert transform_zFinv(transform_zFinv(F)) == F


@pytest.mark.parametrize("m", list(range(2, 10)))
def test_inverse_and_transform_preserve_opoly(m):
    tower = make_tower(m)
    for entry in catalog(m):
        F = entry.to_map(tower)
        assert is_opolynomial(transform_zFinv(F)).is_opoly, entry.name
        assert is_opolynomial(inverse_map(F)).is_opoly, entry.name


@pytest.mark.parametrize("m", list(range(2, 8)))
def test_interpolation_matches_scalar_reference(m):
    tower = make_tower(m)
    rng = np.random.default_rng(1000 + m)
    maps = [OPolyMap(tower, t) for t in random_tables(tower, rng)]
    for entry in catalog(m):  # G1, G2 = G1^-1 and G3 = (z G2(1/z))^-1
        g1 = entry.to_map(tower)
        g2 = inverse_map(g1)
        maps += [g1, g2, inverse_map(transform_zFinv(g2))]
    for F in maps:
        assert interpolate_terms(F) == scalar_interpolate_terms(F)


def test_interpolation_round_trip():
    # a map whose values do not sum to 0 has a c_{q-1} term, which must
    # vanish at z = 0 on the rebuild, unlike the constant term
    indicator_of_zero = np.zeros(8, dtype=np.int64)
    indicator_of_zero[0] = 1
    cases = [(make_tower(3), indicator_of_zero)]
    for m in range(2, 11):
        tower = make_tower(m)
        rng = np.random.default_rng(2000 + m)
        cases += [(tower, table) for table in random_tables(tower, rng)]
    for tower, table in cases:
        F = OPolyMap(tower, table)
        back = OPolyMap.from_terms(tower, interpolate_terms(F))
        assert back == F, (tower.m, table)


def test_interpolation_recovers_monomial(tower5):
    F = OPolyMap.monomial(tower5, 6)
    assert interpolate_terms(F) == [(1, 6)]


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_composition_identity_g3(m):
    # G3 table = inverse of z G2(1/z) for each table row carrying G3 data
    tower = make_tower(m)
    for row in equivalence_table(m):
        if not row.g1.exponents:
            continue
        G1 = OPolyMap.from_terms(tower, [(1, e) for e in row.g1.exponents])
        G2 = inverse_map(G1)
        if row.g2.exponents:
            assert G2 == OPolyMap.from_terms(tower, [(1, e) for e in row.g2.exponents]), row.family
        G3 = inverse_map(transform_zFinv(G2))
        for cell in row.g3_candidates:
            claimed = OPolyMap.from_terms(tower, [(1, e) for e in cell.exponents])
            assert (claimed == G3) or row.ambiguous_g3, (row.family, cell)


def test_table2_explicit_g2():
    for m in (5, 7, 9):
        tower = make_tower(m)
        k = (m + 1) // 2
        exps = ((1 << k), (1 << k) + 2, 3 * (1 << k) + 4)
        G1 = OPolyMap.from_terms(tower, [(1, e) for e in exps])
        assert trinomial_g2_map(tower) == inverse_map(G1)


def test_equivalence_table_row_shapes():
    rows = {r.family: r for r in equivalence_table(5)}
    assert rows["frobenius_2k-1"].g1.exponents == (8,)
    assert rows["frobenius_2k-1"].g2.degree == 4
    assert rows["z6"].g2.exponents == (26,)
    assert rows["quad_4k+1"].g3_candidates[0].exponents == (28,)
    assert rows["cubic"].g2.exponents == (10,)
    rows7 = {r.family: r for r in equivalence_table(7)}
    assert rows7["quad_4k-1"].g2.exponents == (108,)
    assert rows7["cubic"].g1.exponents == (52,)
    assert rows7["cubic"].g3_candidates[0].exponents == (6,)


def test_table_values_stay_in_subfield(tower4):
    with pytest.raises(ValueError):
        OPolyMap(tower4, np.full(16, 2, dtype=np.int64))
