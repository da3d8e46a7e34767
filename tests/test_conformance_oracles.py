"""Tests for repro.conformance.oracles — the cross-implementation registry."""

from __future__ import annotations

import pytest

from repro.conformance import ALL_ORACLES, ORACLES, OracleDiscrepancy, get_oracle
from repro.conformance.fuzzer import fuzz_oracle, injected_datapath_mutation
from repro.errors import CheckError, InputValidationError, ReproError


class TestRegistry:
    def test_expected_oracles_registered(self):
        assert set(ORACLES) == {
            "engine-datapath",
            "native_vs_fast",
            "serialize-roundtrip",
            "wire_roundtrip",
            "stream_vs_batch",
            "certifier-replay",
            "presolve_vs_plain",
            "sweep-naive",
            "cluster_vs_single",
        }

    def test_registry_is_ordered_cheap_first(self):
        assert ALL_ORACLES[0].name == "engine-datapath"
        assert [o.name for o in ALL_ORACLES] == list(ORACLES)

    def test_get_oracle_unknown_name(self):
        with pytest.raises(InputValidationError):
            get_oracle("nonesuch")

    def test_descriptions_and_budgets_populated(self):
        for oracle in ALL_ORACLES:
            assert oracle.description
            assert oracle.default_examples >= 1


class TestDiscrepancyType:
    def test_is_check_error_with_case(self):
        exc = OracleDiscrepancy("engine-datapath", "raw 3 != 4", {"seed": 1})
        assert isinstance(exc, CheckError)
        assert isinstance(exc, ReproError)
        assert exc.case == {"seed": 1}
        assert exc.oracle == "engine-datapath"
        assert "engine-datapath" in str(exc)


class TestOraclesHoldOnCleanTree:
    """Each oracle must pass a short fuzz run against the current code."""

    @pytest.mark.parametrize("name", ["engine-datapath", "serialize-roundtrip"])
    def test_light_oracles(self, name):
        assert fuzz_oracle(get_oracle(name), seed=0, max_examples=20) is None

    def test_certifier_replay(self):
        assert fuzz_oracle(get_oracle("certifier-replay"), seed=0, max_examples=6) is None

    def test_sweep_naive(self):
        assert fuzz_oracle(get_oracle("sweep-naive"), seed=0, max_examples=1) is None

    def test_wire_roundtrip(self):
        assert (
            fuzz_oracle(get_oracle("wire_roundtrip"), seed=0, max_examples=25)
            is None
        )


class TestOracleDetectsMutation:
    def test_engine_datapath_catches_off_by_one(self):
        oracle = get_oracle("engine-datapath")
        with injected_datapath_mutation():
            failure = fuzz_oracle(oracle, seed=0, max_examples=30)
        assert failure is not None
        assert failure.oracle == "engine-datapath"
        # Shrinking should reach a tiny case: one feature, one sample.
        assert len(failure.case["weight_raws"]) == 1
        assert len(failure.case["feature_raws"]) == 1

    def test_direct_check_replays_the_case(self):
        oracle = get_oracle("engine-datapath")
        with injected_datapath_mutation():
            failure = fuzz_oracle(oracle, seed=0, max_examples=30)
        assert failure is not None
        with injected_datapath_mutation():
            with pytest.raises(OracleDiscrepancy):
                oracle.check(failure.case)
        oracle.check(failure.case)  # clean tree: same case passes
