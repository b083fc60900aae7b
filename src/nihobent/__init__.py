"""Bent Boolean functions with Niho exponents, built from o-polynomials.

Construct the known bent-function families over GF(2^{2m}), convert between
their bivariate class-H form and univariate trace polynomials, and verify
bentness, algebraic degree, and the o-polynomial conditions exhaustively at
desk scale.
"""

from .gf2 import FieldTower, find_unit_relative_trace, is_irreducible, make_tower, smallest_irreducible
from .boolfun import (
    RepresentationError,
    TracePolynomial,
    algebraic_degree,
    anf,
    dual,
    evaluate,
    is_bent,
    lk_exponents,
    nonlinearity,
    nonlinearity_from_spectrum,
    spectrum_to_csv,
    table_from_hex,
    table_to_hex,
    verdict_from_spectrum,
    walsh,
)
from .niho import (
    FamilyParams,
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
)
from .opoly import (
    OPolyMap,
    catalog,
    interpolate_terms,
    inverse_map,
    is_opolynomial,
    equivalence_table,
    transform_zFinv,
    trinomial_g2_map,
)
from .bridge import (
    BivariateSpec,
    bivariate_monomial_table,
    bivariate_truth_table,
    expansion_to_json,
    expand_monomial,
    opoly_to_univariate,
    verify_coefficient_properties,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
