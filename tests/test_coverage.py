"""Reproduce-all plus three CLI calls must execute every library operation.

Three operations have no natural surface inside the bundled examples
(the eta-mode extension needs p = 1 mod 4 with a standard-form input,
the Hermitian divisibility gate needs even r and n, and recovering a
defining set from an explicit generator needs a Galois dual outside the
lambda family, lambda^(1 + p^(e-k)) != 1), so the gate includes one CLI
invocation for each alongside reproduce-all.
"""

import sys

from galcd import cli, constacyclic, cosets, fields, linear, polys, registry

TRACKED_OPS = [
    fields.make_field,
    fields.frobenius_pow,
    fields.mult_order,
    fields.sqrt_minus_one,
    fields.embed,
    fields.embedding.__wrapped__,  # the builder under the memo
    fields.primitive_rn_root,
    polys.monic_product,
    polys.reciprocal,
    polys.frobenius_poly,
    polys.minimal_polys,
    constacyclic.factor_xn_minus_lambda,
    cosets.with_k,
    cosets.cyclotomic_cosets,
    cosets.act_scale,
    cosets.dual_defining_set,
    cosets.is_lcd_defining_set,
    cosets.all_lcd_exponent,
    cosets.q1_fixed_test,
    cosets.stable_orbit_census,
    cosets.bch_lower_bound,
    cosets.unique_order2_unit,
    cosets.hermitian_necessary_check,
    cosets.lcd_closure,
    linear.galois_inner_product,
    linear.p_power_code,
    linear.galois_dual,
    linear.is_galois_lcd,
    linear.extend_lcd,
    linear.min_distance,
    constacyclic.code_from_defining_set,
    constacyclic.from_generator_polynomial,
    constacyclic.galois_dual_code,
    constacyclic.is_lcd,
    constacyclic.to_generator_matrix,
    constacyclic.code_params,
    constacyclic.classify_all_lcd,
    constacyclic.hermitian_mds_family,
    cli.cmd_cosets,
    cli.cmd_extend,
    cli.cmd_reproduce,
]


def test_reproduce_all_plus_cli_covers_every_operation(capsys):
    # empty family and embedding caches, as in a fresh `galcd reproduce all` process,
    # so what earlier tests built does not hide the operations that build it
    constacyclic._family.cache_clear()
    fields.embedding.cache_clear()
    hit: set = set()

    def profiler(frame, event, arg):
        if event == "call":
            hit.add(frame.f_code)

    sys.setprofile(profiler)
    try:
        registry.run_all()
        cli.main(["extend", "-p", "5", "-e", "1", "-k", "0",
                  "--mode", "pmod4", "--gen", "[[1,1]]"])
        cli.main(["cosets", "-p", "3", "-e", "2", "-k", "1", "-n", "2",
                  "--lambda", "-1"])
        # lambda = x in GF(9): the dual is lambda' = [0,2]-constacyclic
        cli.main(["dual", "-p", "3", "-e", "2", "-k", "0", "-n", "2",
                  "--lambda", "0,1", "--defining-set", "1"])
        cli.main(["reproduce", "2.4"])
    finally:
        sys.setprofile(None)
    capsys.readouterr()

    # reproduce-all itself must reach everything except the three CLI-only ops
    missing = [fn.__qualname__ for fn in TRACKED_OPS if fn.__code__ not in hit]
    assert missing == [], f"operations never executed: {missing}"
