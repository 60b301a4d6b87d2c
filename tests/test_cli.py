import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from galcd import cli
from galcd.cli import COMMANDS, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cosets_recorded_contexts(capsys):
    code, out, _ = run(capsys, "cosets", "-p", "5", "-e", "3", "-k", "1", "-n", "13", "--lambda", "-1")
    assert code == 0
    assert "{1, 5, 21, 25}" in out
    assert "t=4 h=0" in out
    assert "all-LCD: yes" in out

    code, out, _ = run(capsys, "cosets", "-p", "13", "-e", "3", "-k", "2", "-n", "9", "--lambda", "-1")
    assert code == 0
    assert out.count("{") >= 9
    assert "t=1 h=4" in out
    assert "all-LCD: no" in out

    code, out, _ = run(capsys, "cosets", "-p", "2", "-e", "1", "-k", "0", "-n", "1", "--lambda", "1")
    assert code == 0
    assert "{0}" in out and "t=1 h=0" in out


def test_cosets_reports_an_unpaired_census_and_goes_on(capsys):
    # cyclic GF(27), n=7, k=1: -3 fixes {0} and three-cycles the other cosets
    code, out, _ = run(capsys, "cosets", "-p", "3", "-e", "3", "-k", "1", "-n", "7")
    assert code == 0
    assert "census: t=1 h=n/a (non-fixed cosets do not pair)\nall-LCD: no\n" in out
    assert "orbit pairs" not in out


def test_two_odd_cycles_leave_the_census_unpaired(capsys):
    # cyclic GF(8), n=27, k=1: two 3-cycles of cosets, six moved cosets that do not pair
    argv = ["-p", "2", "-e", "3", "-k", "1", "-n", "27"]
    code, out, _ = run(capsys, "cosets", *argv)
    assert code == 0
    assert "census: t=2 h=n/a (non-fixed cosets do not pair)\nall-LCD: no\n" in out
    assert "orbit pairs" not in out
    code, _, err = run(capsys, "classify", *argv, "--format", "csv")
    assert code == 0
    assert err.endswith("census: t=2 h=n/a; 2^(t+h)-1 n/a (non-fixed cosets do not pair)\n")


def test_cosets_prints_hermitian_gate_when_applicable(capsys):
    code, out, _ = run(capsys, "cosets", "-p", "3", "-e", "2", "-k", "1", "-n", "2", "--lambda", "-1")
    assert code == 0
    assert "hermitian necessary condition" in out and "holds" in out


def test_classify_json_and_summary(capsys, tmp_path):
    target = tmp_path / "catalog.json"
    code, out, err = run(
        capsys, "classify", "-p", "5", "-e", "3", "-k", "1", "-n", "13",
        "--lambda", "-1", "--format", "json", "--out", str(target))
    assert code == 0
    assert "stable sets: 16" in err and "15" in err
    payload = json.loads(target.read_text())
    assert payload["counts"] == {
        "stable_sets": 16, "excluding_zero_code": 15, "census_formula": 15}
    assert len(payload["records"]) == 16
    types = {tuple((r["params"]["n"], r["params"]["dim"], r["params"]["d"]))
             for r in payload["records"] if r["params"]}
    assert (13, 9, 4) in types and (13, 5, 7) in types


def test_classify_output_is_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        code, _, _ = run(
            capsys, "classify", "-p", "11", "-e", "2", "-k", "1", "-n", "10",
            "--lambda", "1", "--format", "csv", "--out", str(target))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "p,e,k,n,lambda,r,defining_set,dim,d,exact,bch,lcd,mds"


def test_classify_budget_refusal(capsys):
    code, _, err = run(
        capsys, "classify", "-p", "11", "-e", "2", "-k", "1", "-n", "10",
        "--lambda", "1", "--budget-messages", "1", "--budget-supports", "1")
    # distance engines fall back to intervals rather than refusing the catalog
    assert code == 0

    code, _, err = run(
        capsys, "cosets", "-p", "11", "-e", "2", "-k", "3", "-n", "10", "--lambda", "1")
    assert code == 1  # k out of range is a usage-level error


def test_lcd_check_and_dual_and_genpoly(capsys):
    code, out, _ = run(
        capsys, "lcd-check", "-p", "11", "-e", "3", "-k", "1", "-n", "5",
        "--lambda", "-1", "--defining-set", "3,5,7")
    assert code == 0 and "galois-lcd: True" in out

    code, out, _ = run(
        capsys, "dual", "-p", "11", "-e", "3", "-k", "1", "-n", "5",
        "--lambda", "-1", "--defining-set", "3,5,7")
    assert code == 0 and "dual defining set: {1, 9}" in out

    code, out, _ = run(
        capsys, "genpoly", "-p", "13", "-e", "3", "-k", "2", "-n", "9",
        "--lambda", "-1", "--defining-set", "9")
    assert code == 0 and "x + 1" in out


def test_mindist_paths(capsys):
    code, out, _ = run(
        capsys, "mindist", "-p", "11", "-e", "2", "-k", "1", "-n", "10",
        "--lambda", "1", "--defining-set", "2,3,4,5,6,7,8")
    assert code == 0 and '"d":8' in out

    code, out, _ = run(
        capsys, "mindist", "-p", "2", "-e", "3", "-n", "4", "--gen",
        '[[[1,0,0],[0,0,0],[0,1,0],[0,1,0]],[[0,0,0],[1,0,0],[1,0,0],[0,1,0]]]')
    assert code == 0 and '"d":3' in out

    assert run(
        capsys, "mindist", "-p", "11", "-e", "2", "-k", "1", "-n", "10",
        "--lambda", "1", "--defining-set", "0", "--strategy", "messages",
        "--budget-messages", "10",
    ) == (2, "", "refused: message enumeration needs 45949729863572161 > budget 10\n")


def test_mindist_supports_out_of_budget_at_the_singleton_bound_is_exact(capsys):
    # the BCH bound 2 is the Singleton bound 4 - 3 + 1: no support needs testing
    code, out, _ = run(
        capsys, "mindist", "-p", "3", "-e", "2", "-k", "1", "-n", "4", "--defining-set", "1",
        "--strategy", "supports", "--budget-supports", "0")
    assert code == 0 and out.splitlines()[0] == "params: [4,3,2]"


def test_mindist_reads_the_generator_from_a_file(capsys, tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text("[[1,2,1,0,0,0,0,0],[1,1,2,1,0,0,0,0],[0,0,1,2,1,0,0,0]]")
    code, out, err = run(capsys, "mindist", "-p", "3", "-e", "1", "-n", "8", "--gen", f"@{gen}")
    assert (code, err) == (0, "")
    assert out == 'params: [8,3,2]\n{"d":2,"dim":3,"exact":true,"mds":false,"n":8}\n'


def test_budget_refusals_print_what_was_found_and_exit_2(capsys):
    # a partial support scan still prints its interval before refusing
    code, out, err = run(
        capsys, "mindist", "-p", "5", "-e", "3", "-k", "1", "-n", "13", "--lambda", "-1",
        "--defining-set", "1,5,21,25", "--strategy", "supports", "--budget-supports", "1")
    assert code == 2
    assert out == 'params: [13,9,3..5]\n{"d":[3,5],"dim":9,"exact":false,"mds":false,"n":13}\n'
    assert err == "refused: exact distance exceeds the enumeration budgets\n"

    code, out, err = run(capsys, "reproduce", "2.4", "--budget-messages", "1")
    assert (code, out) == (2, "")
    assert err == "refused: message enumeration needs 64 > budget 1\n"


def test_mindist_gen_rejects_a_length_other_than_its_width(capsys):
    gen = "[[1,0,0,1,1,0,1],[0,1,0,1,0,1,1],[0,0,1,0,1,1,1]]"
    for n in ("99", "6"):
        assert run(capsys, "mindist", "-p", "2", "-e", "1", "-n", n, "--gen", gen) == (
            1, "", f"usage error: -n {n} differs from the --gen row width 7\n")
    code, out, _ = run(capsys, "mindist", "-p", "2", "-e", "1", "-n", "7", "--gen", gen)
    assert code == 0 and out.startswith("params: [7,3,4]\n")


def test_mindist_gen_refuses_the_constacyclic_options(capsys):
    gen = "[[1,0,0,1,1,0,1],[0,1,0,1,0,1,1],[0,0,1,0,1,1,1]]"
    base = ("mindist", "-p", "2", "-e", "1", "-n", "7")
    assert run(capsys, *base, "--lambda", "5", "--gen", gen) == (
        1, "", "usage error: --lambda cannot be combined with --gen\n")
    assert run(capsys, *base, "--defining-set", "1", "--gen", gen) == (
        1, "", "usage error: --defining-set cannot be combined with --gen\n")
    code, out, _ = run(capsys, *base, "--lambda", "1", "--gen", gen)  # the default, spelled out
    assert code == 0 and out.startswith("params: [7,3,4]\n")


def test_extend_refuses_a_distance_cut_short_by_its_budgets(capsys):
    args = ("extend", "-p", "5", "-e", "1", "--mode", "pmod4",
            "--gen", "[[1,0,0,2,3,4,1],[0,1,0,1,1,2,3],[0,0,1,4,4,1,2]]")
    code, out, err = run(capsys, *args, "--budget-messages", "1", "--budget-supports", "1")
    assert code == 2 and out.endswith("params: [11,3,1..9]\n")
    assert err == "refused: exact distance exceeds the enumeration budgets\n"
    code, exact, err = run(capsys, *args)
    assert (code, err) == (0, "")
    assert exact.splitlines()[:-1] == out.splitlines()[:-1]


def test_cosets_rejects_a_zero_lambda(capsys):
    code, out, err = run(capsys, "cosets", "-p", "3", "-e", "2", "-n", "4", "--lambda", "0")
    assert (code, out) == (1, "")
    assert err == "usage error: lambda must be nonzero\n"


def test_extend_command(capsys):
    code, out, _ = run(
        capsys, "extend", "-p", "5", "-e", "1", "-k", "0", "--mode", "pmod4",
        "--gen", "[[1,1]]")
    assert code == 0 and "galois-lcd at k=0: True" in out

    code, _, err = run(
        capsys, "extend", "-p", "3", "-e", "1", "-k", "0", "--mode", "char2",
        "--gen", "[[1,1]]")
    assert code == 1


def test_reproduce_single_and_all(capsys):
    code, out, _ = run(capsys, "reproduce", "2.4")
    assert code == 0
    assert "[2.4] det: match" in out

    code, out, _ = run(capsys, "reproduce", "all")
    assert code == 0
    assert "[3.8] params: FLAGGED" in out
    assert "[4.5] relation-Q1: FLAGGED" in out
    assert "MISMATCH" not in out


def test_reproduce_names_an_unknown_example_in_plain_text(capsys):
    assert run(capsys, "reproduce", "9.9") == (
        1, "", "usage error: unknown example id '9.9'; known: 2.4, 3.8, 3.14, 3.15, 4.5, 4.8\n")


def test_pinned_outputs_keep_their_bytes(capsys):
    pinned = {
        ("reproduce", "all", "--format", "json"):
            "2f4ca3ae22a7eb295e5d8f064df219b90b262881f54d74e3218b97d45eb3097b",
        ("reproduce", "all"):
            "1feb466b11e25def65cebaf95b97c2906553a50c980ee63aed1a87308cb236ef",
        ("classify", "-p", "11", "-e", "2", "-k", "1", "-n", "10", "--lambda", "1", "--format", "json"):
            "9786eba2c3a39314a50f8c3555b6cd4419a1417d19958f6bd12875530d9f3f49",
        ("classify", "-p", "5", "-e", "3", "-k", "1", "-n", "13", "--lambda", "-1", "--format", "json"):
            "75356ca9ee0e374692fc4b26982a4f9a465fd03538914f0faa5d99d98f70bedb",
        ("classify", "-p", "3", "-e", "3", "-k", "1", "-n", "7", "--lambda", "1", "--format", "json"):
            "101534b83d3a8953b3e7bcf2fa47f7200e528eea02313adea156410fa58343a3",
        ("classify", "-p", "7", "-e", "1", "-k", "0", "-n", "8", "--lambda", "-1", "--format", "json"):
            "13656cd03308152b1be1ec5b1235a097b084d02772a42b0d21e5ecb781b6faa8",
        ("classify", "-p", "5", "-e", "1", "-k", "0", "-n", "12", "--lambda", "1", "--format", "csv"):
            "0152f660237273536299ba6589c324c05fdfadd98a527613fe727ce67d0b948e",
        ("extend", "-p", "5", "-e", "1", "-k", "0", "--mode", "pmod4", "--gen", "[[1,0,2,3],[0,1,4,1]]"):
            "e5865e7ced98c9bdba98a594f8884545f6242ebf1e89725b075344a81aad67dc",
        ("mindist", "-p", "13", "-e", "1", "-n", "6",
         "--gen", "[[1,0,0,2,3,5],[0,1,0,7,1,4],[0,0,1,9,9,2]]"):
            "f73939c48daceb3317de44ac2f2716695ebd37dd25007b5137bd7d479832d26e",
        ("mindist", "-p", "5", "-e", "3", "-k", "1", "-n", "13", "--lambda", "-1",
         "--defining-set", "1,5,21,25"):
            "7bedb1e5a3bc5841e4eeb9c2c7057be657e02ed56ebf989cdcf2f7c0ff31902b",
        ("mindist", "-p", "5", "-e", "3", "-k", "1", "-n", "13", "--lambda", "-1",
         "--defining-set", "1,5,21,25", "--strategy", "supports", "--budget-supports", "40"):
            "e694296235fb1139275421cbe86d926e8481ba898dfee489296557acfa052b0f",
        ("cosets", "-p", "13", "-e", "3", "-k", "2", "-n", "9", "--lambda", "-1"):
            "0c8b1c4f56f64e493adeea7a0ff9523a5e20f29e02930e674f18662beb5ecff6",
        ("cosets", "-p", "3", "-e", "3", "-k", "1", "-n", "7"):
            "60515eda0f9a364b060a49d9d0cd7b426ec66de46b6b4b2979ae8b0c0436dc4a",
        ("cosets", "-p", "3", "-e", "2", "-k", "0", "-n", "2", "--lambda", "0,1"):
            "2ffb70551dd4246d2b703f8369e484e76dd5e13498e17da4cc031d0ef3d8d199",
        ("classify", "-p", "3", "-e", "3", "-k", "1", "-n", "7", "--format", "csv"):
            "ad71d23af15dc7e0a32e9ac93aa71fc617a4def9e3a6d30828edcd75fcba5d98",
        ("classify", "-p", "13", "-e", "3", "-k", "2", "-n", "9", "--lambda", "-1", "--format", "csv"):
            "ef22ba308591ff66b45bd052b598e649705c4113ad8e575ac40ef3f8af722a14",
    }
    # the census lines of classify and a budget refusal go to stderr; every other pinned
    # command writes none
    stderr = {
        ("mindist", "-p", "5", "-e", "3", "-k", "1", "-n", "13", "--lambda", "-1",
         "--defining-set", "1,5,21,25", "--strategy", "supports", "--budget-supports", "40"):
            "refused: exact distance exceeds the enumeration budgets\n",
        ("classify", "-p", "11", "-e", "2", "-k", "1", "-n", "10", "--lambda", "1", "--format", "json"):
            "stable sets: 64 including empty and full; 63 excluding the zero code\n"
            "census: t=2 h=4; 2^(t+h)-1 = 63 (matches)\n",
        ("classify", "-p", "5", "-e", "3", "-k", "1", "-n", "13", "--lambda", "-1", "--format", "json"):
            "stable sets: 16 including empty and full; 15 excluding the zero code\n"
            "census: t=4 h=0; 2^(t+h)-1 = 15 (matches)\n",
        ("classify", "-p", "3", "-e", "3", "-k", "1", "-n", "7", "--lambda", "1", "--format", "json"):
            "stable sets: 4 including empty and full; 3 excluding the zero code\n"
            "census: t=1 h=n/a; 2^(t+h)-1 n/a (non-fixed cosets do not pair)\n",
        ("classify", "-p", "7", "-e", "1", "-k", "0", "-n", "8", "--lambda", "-1", "--format", "json"):
            "stable sets: 4 including empty and full; 3 excluding the zero code\n"
            "census: t=0 h=2; 2^(t+h)-1 = 3 (matches)\n",
        ("classify", "-p", "5", "-e", "1", "-k", "0", "-n", "12", "--lambda", "1", "--format", "csv"):
            "stable sets: 64 including empty and full; 63 excluding the zero code\n"
            "census: t=4 h=2; 2^(t+h)-1 = 63 (matches)\n",
        ("classify", "-p", "3", "-e", "3", "-k", "1", "-n", "7", "--format", "csv"):
            "stable sets: 4 including empty and full; 3 excluding the zero code\n"
            "census: t=1 h=n/a; 2^(t+h)-1 n/a (non-fixed cosets do not pair)\n",
        ("classify", "-p", "13", "-e", "3", "-k", "2", "-n", "9", "--lambda", "-1", "--format", "csv"):
            "stable sets: 8 including empty and full; 7 excluding the zero code\n"
            "census: t=1 h=4; 2^(t+h)-1 = 31 (formula needs an involutive action)\n",
    }
    for argv, digest in pinned.items():
        _, out, err = run(capsys, *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        assert err == stderr.get(argv, ""), argv


def test_reproduce_text_honours_out(capsys, tmp_path):
    target = tmp_path / "r.txt"
    code, out, _ = run(capsys, "reproduce", "3.8", "--out", str(target))
    assert code == 0 and out == ""
    _, printed, _ = run(capsys, "reproduce", "3.8")
    assert target.read_bytes() == printed.encode()


def test_classify_refuses_a_stable_set_count_over_the_budget(capsys):
    code, out, err = run(capsys, "classify", "-p", "11", "-e", "2", "-k", "1", "-n", "40")
    assert code == 2 and out == ""
    assert "2^22 stable sets exceed the enumeration budget 1048576" in err


def test_reproduce_json_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(capsys, "reproduce", "3.8", "--format", "json", "--out", str(target))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload[0]["example"] == "3.8" and payload[0]["ok"]


def test_reproduce_all_json_matches_the_stored_benchmark_digest(capsys):
    digests = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    want = json.loads(digests.read_text())["cli"]["reference"]["reproduce_all"]
    code, out, _ = run(capsys, "reproduce", "all", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_mindist_rejects_integer_entries_outside_the_prime_field(capsys):
    code, out, err = run(capsys, "mindist", "-p", "2", "-e", "1", "-n", "2", "--gen", "[[1,2]]")
    assert code == 1 and out == ""
    assert "out of range" in err


def test_mindist_rejects_gen_values_that_are_not_prime_field_integers(capsys):
    for gen, bad in [("[[[4,0],[1]]]", "4"), ("[[[1.0],[1]]]", "1.0"), ("[[1.7,1]]", "1.7"),
                     ("[[true,1]]", "True")]:
        code, out, err = run(capsys, "mindist", "-p", "3", "-e", "2", "-n", "2", "--gen", gen)
        assert code == 1 and out == ""
        assert f"--gen value {bad} out of range: need an integer in [0, 3)" in err
    code, out, _ = run(capsys, "mindist", "-p", "3", "-e", "2", "-n", "2",
                       "--gen", "[[[1,0],[1]]]")
    assert code == 0 and "[2,1,2]" in out


@pytest.mark.parametrize("gen", ["[1,0,1]", "5", "null", '{"a":1}', '"101"', "[[1,0,1],1]"])
@pytest.mark.parametrize("command", [
    ["mindist", "-p", "2", "-e", "1", "-n", "3"],
    ["extend", "-p", "2", "-e", "1", "-k", "0", "--mode", "char2"],
])
def test_gen_payloads_that_are_not_a_list_of_rows_are_one_error_line(capsys, command, gen):
    code, out, err = run(capsys, *command, "--gen", gen)
    assert (code, out) == (1, "")
    assert err == "error: --gen must be a JSON list of rows, each a list of entries\n"


def test_modulus_and_lambda_coefficients_outside_the_prime_field_are_rejected(capsys):
    ctx = ["cosets", "-p", "3", "-e", "2", "-k", "1", "-n", "2"]
    for extra, flag, bad in [(["--lambda", "5,3"], "--lambda", 5),
                             (["--lambda", "2,-1"], "--lambda", -1),
                             (["--modulus", "4,0,1"], "--modulus", 4),
                             (["--modulus", "4,2,1"], "--modulus", 4)]:
        code, out, err = run(capsys, *ctx, *extra)
        assert code == 1 and out == ""
        assert f"{flag} coefficient {bad} out of range: need an integer in [0, 3)" in err
        assert "reducible" not in err
    # in-range coefficients, and the single signed integer that is reduced on purpose
    code, by_coeffs, _ = run(capsys, *ctx, "--lambda", "2,0", "--modulus", "2,2,1")
    assert code == 0
    assert run(capsys, *ctx, "--lambda", "-1", "--modulus", "2,2,1")[1:] == (by_coeffs, "")


def test_a_reducible_modulus_is_refused_and_an_irreducible_one_is_used(capsys):
    ctx = ["genpoly", "-p", "3", "-e", "2", "-k", "1", "-n", "8", "--defining-set", "1,3"]
    assert run(capsys, *ctx, "--modulus", "2,0,1") == (
        1, "", "error: modulus [2, 0, 1] is reducible over GF(3)\n")  # (x + 1)(x + 2)
    code, out, err = run(capsys, *ctx, "--modulus", "2,1,1")
    assert code == 0 and err == ""
    assert out.startswith("generator: x^2 + x + 2\n")


def test_k_outside_the_galois_range_is_rejected(capsys):
    for k in ("7", "1", "-1"):
        code, out, err = run(capsys, "extend", "-p", "5", "-e", "1", "-k", k,
                             "--mode", "pmod4", "--gen", "[[1,1]]")
        assert code == 1 and out == ""
        assert "-k must satisfy 0 <= k < e" in err


def test_negative_budgets_are_rejected(capsys):
    for flag in ("--budget-messages", "--budget-supports"):
        code, out, err = run(capsys, "mindist", "-p", "11", "-e", "2", "-k", "1", "-n", "10",
                             "--lambda", "1", "--defining-set", "2,3,4,5,6,7,8", flag, "-1")
        assert code == 1 and out == ""
        assert flag in err and "must be >= 0" in err


def test_usage_errors(capsys):
    assert run(capsys, "reproduce", "9.99")[0] == 1
    assert run(capsys, "cosets", "-p", "4", "-e", "1", "-k", "0", "-n", "3", "--lambda", "1")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "mindist", "-p", "5", "-e", "1", "-n", "4")[0] == 1


def test_cheap_flags_reach_the_engines(capsys):
    code, out, _ = run(
        capsys, "mindist", "-p", "5", "-e", "3", "-k", "1", "-n", "13",
        "--lambda", "-1", "--defining-set", "1,5,21,25", "--strategy", "supports")
    assert code == 0 and '"d":4' in out


def test_reproduce_mismatch_exit_code(monkeypatch, capsys):
    from galcd import registry

    def fake_runner(**budgets):
        rep = registry.ExampleReport("2.4", {})
        rep.claims.append(registry.Claim(
            "det", "forced mismatch", 1, 2, "hard", "mismatch", ""))
        return rep

    monkeypatch.setitem(registry._RUNNERS, "2.4", fake_runner)
    code, out, _ = run(capsys, "reproduce", "2.4")
    assert code == 3
    assert "MISMATCH" in out


def test_cosets_out_of_frame_lambda(capsys):
    # order-8 lambda over GF(9) with k=0: every code is automatically LCD
    code, out, _ = run(capsys, "cosets", "-p", "3", "-e", "2", "-k", "0",
                       "-n", "4", "--lambda", "0,1")
    assert code == 0
    assert "census: n/a" in out and "all-LCD: yes (automatic)" in out


def test_classify_trivial_length_one_context(capsys):
    code, out, err = run(capsys, "classify", "-p", "2", "-e", "2", "-k", "0",
                         "-n", "1", "--lambda", "1", "--format", "csv")
    assert code == 0
    assert "stable sets: 2" in err
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("p,")]
    assert len(rows) == 2  # the full space and the zero code


# A complete argument list for each command: the parser accepts it, so an extra
# flag after it reaches the "unrecognized arguments" error.
_VALID_ARGS = {
    "cosets": ["-p", "2", "-e", "1", "-n", "1"],
    "classify": ["-p", "2", "-e", "1", "-n", "1"],
    "lcd-check": ["-p", "2", "-e", "1", "-n", "1", "--defining-set", "0"],
    "dual": ["-p", "2", "-e", "1", "-n", "1", "--defining-set", "0"],
    "genpoly": ["-p", "2", "-e", "1", "-n", "1", "--defining-set", "0"],
    "mindist": ["-p", "2", "-e", "1", "-n", "1"],
    "extend": ["-p", "2", "-e", "1", "--mode", "char2", "--gen", "[[1]]"],
    "reproduce": ["all"],
}


def _choice_flags(name):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in subparsers.choices[name]._actions
            if a.choices and a.option_strings]


def _parser_errors(name):
    """--help, a missing required argument, bad values and an unrecognized flag for one command."""
    bad_int = ["--budget-messages", "many"] if name == "reproduce" else ["-p", "two"]
    vectors = [[name, "--help"], [name], [name, *bad_int],
               [name, *_VALID_ARGS[name], "--no-such-flag"]]
    vectors += [[name, flag, "bogus"] for flag in _choice_flags(name)]
    return vectors


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as ex:  # --help exits from inside argparse
        code = ex.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_TOP_LEVEL = [[], ["--help"], ["-h", "cosets"], ["bogus"], ["cos"], ["--version"]]


def test_every_command_has_valid_args_and_the_choice_flags_are_found():
    assert set(_VALID_ARGS) == set(COMMANDS)
    assert _choice_flags("classify") == ["--format"]
    assert _choice_flags("mindist") == ["--strategy"]
    assert _choice_flags("extend") == ["--mode"]
    assert _choice_flags("cosets") == []


@pytest.mark.parametrize("argv", [v for name in COMMANDS for v in _parser_errors(name)] + _TOP_LEVEL,
                         ids=" ".join)
def test_one_command_parser_matches_the_full_parser(monkeypatch, capsys, argv):
    own = _outcome(capsys, argv)
    full_parser = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert own == _outcome(capsys, argv)
    assert own[0] in (0, cli.USAGE_ERROR) and own[1] + own[2]


def test_main_builds_only_the_named_command(monkeypatch, capsys):
    asked = []
    full_parser = build_parser

    def spy(command=None):
        asked.append(command)
        return full_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert run(capsys, "cosets", "-p", "3", "-e", "2", "-k", "1", "-n", "4")[0] == 0
    assert _outcome(capsys, ["--help"])[0] == 0
    assert _outcome(capsys, ["cos"])[0] == cli.USAGE_ERROR
    monkeypatch.setattr(sys, "argv", ["galcd", "genpoly", "-p", "2", "-e", "1", "-n", "1",
                                      "--defining-set", "0"])
    assert main() == 0  # the console script passes no argv
    assert asked == ["cosets", None, None, "genpoly"]


def test_bogus_command_lists_every_command(capsys):
    code, out, err = _outcome(capsys, ["bogus"])
    assert code == cli.USAGE_ERROR and out == ""
    assert err == ("usage error: argument command: invalid choice: 'bogus' (choose from "
                   + ", ".join(f"'{name}'" for name in COMMANDS) + ")\n")


def _module_run(*argv):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "galcd.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point_reads_sys_argv(capsys):
    argv = ["cosets", "-p", "3", "-e", "2", "-k", "1", "-n", "4"]
    proc = _module_run(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == run(capsys, *argv)[1]
    proc = _module_run("--help")
    assert proc.returncode == 0
    listed = proc.stdout.split("positional arguments:")[1]
    assert all(f"    {name} " in listed for name in COMMANDS) and len(COMMANDS) == 8
