import numpy as np
import pytest

from sgwl import scenarios
from sgwl.matcore import DomainError

# check names that must appear across the reports so that every piece of
# the worked construction is exercised: generator closed forms, the map
# rearrangement identities, the explicit block spectrum, the pairing table,
# the bound-entangled state and its threshold, and the delayed-CP family
REQUIRED_CHECKS = {
    "first_factor_closed_form",
    "second_factor_closed_form",
    "second_factor_at_half_mixing",
    "alpha_decay",
    "first_factor_cp",
    "second_factor_choi_min",
    "sufficient_condition_holds",
    "product_positive_search",
    "threshold_choi_min",
    "threshold_pairing",
    "pairing_vanishes_at_threshold",
    "choi_min_vanishes_at_threshold",
    "choi_spectrum_match",
    "onset_time",
    "cp_flips_at_onset",
    "trace_map_kraus_sum",
    "transpose_pauli_rep",
    "transpose_sign_flip",
    "transpose_involution",
    "trace_after_transpose",
    "trace_map_cp",
    "transpose_choi_min",
}


class TestScenarios:
    def test_all_pass(self):
        for rep in scenarios.run_all_scenarios():
            failed = [c.name for c in rep.checks if not c.passed]
            assert rep.passed, f"{rep.name} failed: {failed}"

    def test_coverage(self):
        names = set()
        for rep in scenarios.run_all_scenarios():
            names |= {c.name for c in rep.checks}
        missing = REQUIRED_CHECKS - names
        assert not missing, f"missing checks: {sorted(missing)}"

    def test_reports_deterministic(self):
        first = [rep.to_json() for rep in scenarios.run_all_scenarios()]
        second = [rep.to_json() for rep in scenarios.run_all_scenarios()]
        assert first == second

    def test_delayed_cp_dominant_branch(self):
        rep = scenarios.scenario_delayed_cp(2.0, 1.0)
        assert rep.passed
        names = {c.name for c in rep.checks}
        assert "cp_throughout" in names
        assert "onset_time" not in names

    def test_delayed_cp_rejects_bad_rates(self):
        with pytest.raises(DomainError):
            scenarios.scenario_delayed_cp(-1.0, 2.0)

    def test_report_structure(self):
        rep = scenarios.scenario_trace_transpose_maps()
        doc = rep.to_dict()
        assert doc["name"] == "trace_transpose_maps"
        for chk in doc["checks"]:
            assert list(chk) == [
                "name", "computed", "expected", "delta", "tolerance", "provenance", "passed",
            ]
            assert np.isfinite(chk["computed"])
            assert chk["provenance"]
