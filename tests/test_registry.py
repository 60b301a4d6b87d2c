import json

import pytest

from galcd import registry


@pytest.fixture(scope="module")
def reports():
    return {rep.example_id: rep for rep in registry.run_all()}


def test_all_examples_run_clean(reports):
    assert set(reports) == set(registry.EXAMPLE_IDS)
    for rep in reports.values():
        assert rep.ok, [c for c in rep.claims if c.status == "mismatch"]


def test_known_discrepancies_are_flagged_not_failed(reports):
    flagged = {(eid, c.claim_id) for eid, rep in reports.items() for c in rep.flagged}
    assert set(registry.KNOWN_DISCREPANCIES) <= flagged
    # the only flags beyond the manifest would come from soft claims
    extra = flagged - set(registry.KNOWN_DISCREPANCIES)
    for eid, cid in extra:
        claim = next(c for c in reports[eid].claims if c.claim_id == cid)
        assert claim.kind == "soft"


def test_recorded_soft_claims_currently_match(reports):
    # the unproved distance claims all verify exactly on this engine
    for name in ("P1", "P2", "P4", "P5"):
        claim = next(c for c in reports["3.15"].claims if c.claim_id == f"{name}-params")
        assert claim.status == "match"


def test_example_2_4_det_and_params(reports):
    claims = {c.claim_id: c for c in reports["2.4"].claims}
    assert claims["det"].computed == [0, 1, 0]
    assert claims["params"].computed == [4, 2, 3]
    assert claims["hull"].computed == 0


def test_example_4_5_flags(reports):
    claims = {c.claim_id: c for c in reports["4.5"].claims}
    assert claims["relation-Q1"].status == "flagged"
    assert claims["relation-Q1"].computed == 9
    assert claims["P3-params"].status == "flagged"
    assert claims["P3-computed"].computed == [10, 3, 8]
    assert claims["P3-mds"].computed is True
    assert claims["count"].computed == 63


def test_example_4_8_count_flag(reports):
    claims = {c.claim_id: c for c in reports["4.8"].claims}
    assert claims["family-count"].status == "flagged"
    assert claims["family-count"].computed == 4


def test_inputs_round_trip(reports):
    for rep in reports.values():
        assert json.loads(json.dumps(rep.inputs)) == rep.inputs


def test_report_json_is_serializable(reports):
    for rep in reports.values():
        blob = json.dumps(rep.to_json(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["example"] == rep.example_id
        assert len(parsed["claims"]) == len(rep.claims)


def test_unknown_example_id():
    with pytest.raises(KeyError):
        registry.run_example("9.99")
