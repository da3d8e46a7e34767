"""Tests for repro.conformance.fuzzer and the ``repro fuzz`` CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.conformance.fuzzer import (
    WITNESS_SCHEMA,
    fuzz_oracle,
    injected_datapath_mutation,
    injected_fxfir_mutation,
    load_witness,
    parse_budget,
    replay_witness,
    run_fuzz,
    run_selftest,
    write_witness,
)
from repro.conformance.oracles import get_oracle
from repro.errors import DataError, InputValidationError
from repro.fixedpoint.qformat import QFormat
from repro.signal.fxfir import FixedPointFir


class TestParseBudget:
    @pytest.mark.parametrize(
        "text,seconds",
        [("60s", 60.0), ("5m", 300.0), ("90", 90.0), ("1h", 3600.0),
         ("250ms", 0.25), (" 2M ", 120.0)],
    )
    def test_accepted(self, text, seconds):
        assert parse_budget(text) == seconds

    @pytest.mark.parametrize("text", ["", "abc", "10q", "-5s", "0"])
    def test_rejected(self, text):
        with pytest.raises(InputValidationError):
            parse_budget(text)


class TestRunFuzz:
    def test_clean_tree_passes_and_reports_deterministically(self):
        lines: list[str] = []
        code, failure = run_fuzz(
            ["engine-datapath"], seed=3, examples=15, emit=lines.append
        )
        assert code == 0 and failure is None
        lines2: list[str] = []
        run_fuzz(["engine-datapath"], seed=3, examples=15, emit=lines2.append)
        assert lines == lines2 == [
            "oracle engine-datapath: ok",
            "fuzz: 1 oracle(s) ok",
        ]

    def test_mutated_tree_fails_with_shrunk_case(self):
        lines: list[str] = []
        with injected_datapath_mutation():
            code, failure = run_fuzz(
                ["engine-datapath"], seed=0, examples=30, emit=lines.append
            )
        assert code == 1
        assert failure is not None and failure.oracle == "engine-datapath"
        assert lines[0] == "oracle engine-datapath: FAIL"

    def test_budget_zero_examples_still_pass(self):
        # An already-expired budget turns every example into a no-op: the
        # oracles report ok (vacuously), never FAIL.
        code, failure = run_fuzz(
            ["serialize-roundtrip"],
            seed=0,
            examples=5,
            budget_seconds=0.0,
            emit=lambda _line: None,
        )
        assert code == 0 and failure is None


class TestWitnessFiles:
    def _shrunk_failure(self):
        with injected_datapath_mutation():
            failure = fuzz_oracle(
                get_oracle("engine-datapath"), seed=0, max_examples=30
            )
        assert failure is not None
        return failure

    def test_round_trip(self, tmp_path):
        failure = self._shrunk_failure()
        path = str(tmp_path / "witness.json")
        write_witness(path, failure, seed=0)
        payload = load_witness(path)
        assert payload["schema"] == WITNESS_SCHEMA
        assert payload["oracle"] == "engine-datapath"
        assert payload["case"] == failure.case

    def test_replay_reproduces_under_mutation_then_passes_clean(self, tmp_path):
        path = str(tmp_path / "witness.json")
        write_witness(path, self._shrunk_failure(), seed=0)
        with injected_datapath_mutation():
            code, exc = replay_witness(path, emit=lambda _line: None)
        assert code == 1 and exc is not None
        code, exc = replay_witness(path, emit=lambda _line: None)
        assert code == 0 and exc is None

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(DataError):
            load_witness(str(path))
        path.write_text(json.dumps({"schema": "something-else/v9"}))
        with pytest.raises(DataError):
            load_witness(str(path))
        with pytest.raises(DataError):
            load_witness(str(tmp_path / "missing.json"))


class TestSelftest:
    def test_selftest_passes_on_clean_tree(self):
        lines: list[str] = []
        assert run_selftest(seed=0, emit=lines.append) == 0
        assert lines[-1] == "selftest: ok"
        assert "selftest: fxfir witness reproduces under the mutation" in lines
        assert "selftest: fxfir witness passes on the clean tree" in lines

    def test_fxfir_mutation_is_only_visible_to_the_reference(self):
        # apply() runs the stepper, so the mutated kernel still agrees with
        # itself; stream_vs_batch must catch it through the per-sample
        # reference.
        fir = FixedPointFir(taps=np.array([0.5, -0.25, 0.125]), fmt=QFormat(3, 4))
        x = np.linspace(-2.0, 2.0, 12)
        with injected_fxfir_mutation():
            stream = fir.stream()
            chunked = np.concatenate([stream.process(x[:5]), stream.process(x[5:])])
            assert np.array_equal(chunked, fir.apply(x))
            failure = fuzz_oracle(
                get_oracle("stream_vs_batch"), seed=0, max_examples=25
            )
        assert failure is not None and "per-sample reference" in failure.detail

    def test_selftest_writes_witness_when_given_path(self, tmp_path):
        path = str(tmp_path / "selftest-witness.json")
        assert run_selftest(seed=0, witness_path=path) == 0
        assert load_witness(path)["oracle"] == "engine-datapath"


class TestCli:
    def test_list_oracles(self, capsys):
        assert main(["fuzz", "--list"]) == 0
        out = capsys.readouterr().out
        assert "engine-datapath" in out and "sweep-naive" in out

    def test_fuzz_one_oracle(self, capsys):
        assert main(["fuzz", "--oracle", "serialize-roundtrip", "--examples", "5"]) == 0
        assert "serialize-roundtrip: ok" in capsys.readouterr().out

    def test_fuzz_unknown_oracle_is_bad_invocation(self, capsys):
        assert main(["fuzz", "--oracle", "nonesuch"]) == 2

    def test_fuzz_bad_budget_is_bad_invocation(self, capsys):
        assert main(["fuzz", "--budget", "nonsense"]) == 2

    def test_selftest_via_cli(self, capsys):
        assert main(["fuzz", "--selftest"]) == 0
        assert "selftest: ok" in capsys.readouterr().out

    def test_witness_written_on_failure_and_replayable(self, tmp_path, capsys):
        witness = str(tmp_path / "w.json")
        with injected_datapath_mutation():
            code = main(
                ["fuzz", "--oracle", "engine-datapath", "--examples", "30",
                 "--witness", witness]
            )
        assert code == 1
        assert "witness written" in capsys.readouterr().out
        with injected_datapath_mutation():
            assert main(["fuzz", "--replay", witness]) == 1
        assert main(["fuzz", "--replay", witness]) == 0

    def test_replay_missing_file_is_bad_invocation(self, tmp_path):
        assert main(["fuzz", "--replay", str(tmp_path / "nope.json")]) == 2
