"""Exact finite-field machinery for Galois complementary-dual codes."""

from galcd.constacyclic import (
    Catalog,
    CatalogRecord,
    ConstacyclicCode,
    classify_all_lcd,
    code_from_defining_set,
    code_params,
    factor_xn_minus_lambda,
    from_generator_polynomial,
    galois_dual_code,
    hermitian_mds_family,
    is_lcd,
    to_generator_matrix,
)
from galcd.cosets import (
    CosetContext,
    DefiningSet,
    act_scale,
    all_lcd_exponent,
    bch_lower_bound,
    cyclotomic_cosets,
    dual_defining_set,
    hermitian_necessary_check,
    is_lcd_defining_set,
    lcd_closure,
    q1_fixed_test,
    stable_orbit_census,
    unique_order2_unit,
)
from galcd.fields import (
    Element,
    Field,
    embed,
    embedding,
    frobenius_pow,
    make_field,
    mult_order,
    primitive_rn_root,
    sqrt_minus_one,
)
from galcd.linear import (
    BudgetExceeded,
    CodeParams,
    LinearCode,
    extend_lcd,
    galois_dual,
    galois_inner_product,
    is_galois_lcd,
    min_distance,
    p_power_code,
)
from galcd.polys import (
    Poly,
    frobenius_poly,
    minimal_poly,
    minimal_polys,
    reciprocal,
)

__version__ = "0.1.0"
