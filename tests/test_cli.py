"""Tests for the repro CLI."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_options(self):
        args = build_parser().parse_args(
            ["table1", "--time-limit", "5", "--word-lengths", "4", "6"]
        )
        assert args.command == "table1"
        assert args.time_limit == 5.0
        assert args.word_lengths == [4, 6]

    def test_table2_options(self):
        args = build_parser().parse_args(["table2", "--folds", "3"])
        assert args.folds == 3

    def test_report_options(self):
        args = build_parser().parse_args(["report", "--word-length", "6", "--verilog"])
        assert args.word_length == 6
        assert args.verilog
        assert args.trace is None

    def test_report_workers_and_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--workers", "2"])
        args = build_parser().parse_args(["report", "--trace", "out.json"])
        assert args.trace == "out.json"

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--branching", "pseudocost"],
            ["sweep", "--sweep-workers", "2"],
        ],
    )
    def test_removed_search_options_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tableX"])

    def test_serve_options(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--artifact", "a.json",
                "--artifact", "alarm=b.json",
                "--port", "0",
                "--max-batch", "16",
            ]
        )
        assert args.command == "serve"
        assert args.artifact == ["a.json", "alarm=b.json"]
        assert args.port == 0
        assert args.max_batch == 16

    def test_removed_max_delay_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve", "--artifact", "a.json", "--max-delay-ms", "1"]
            )
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["serve", "predict"])
    def test_removed_object_backend_rejected(self, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [command, "--artifact", "a.json", "--backend", "object"]
            )
        assert excinfo.value.code == 2

    def test_serve_requires_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_help_mentions_batching(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--max-batch" in out
        assert "--artifact" in out

    def test_predict_options(self):
        args = build_parser().parse_args(
            ["predict", "--artifact", "clf.json", "--json"]
        )
        assert args.command == "predict"
        assert args.artifact == "clf.json"
        assert args.features == "-"
        assert args.json

    def test_report_save_artifact_option(self):
        args = build_parser().parse_args(
            ["report", "--save-artifact", "out.json"]
        )
        assert args.save_artifact == "out.json"


class TestMain:
    def test_table1_tiny(self, capsys):
        code = main(
            [
                "table1",
                "--time-limit", "2",
                "--max-nodes", "5",
                "--word-lengths", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "WL" in out

    def test_report(self, capsys):
        code = main(["report", "--word-length", "4", "--time-limit", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "implementation report" in out

    def test_report_with_verilog(self, capsys):
        code = main(
            ["report", "--word-length", "4", "--time-limit", "2", "--verilog"]
        )
        assert code == 0
        assert "module lda_fp_classifier" in capsys.readouterr().out

    def test_report_writes_trace_json(self, capsys, tmp_path):
        from repro.optim.trace import SolverTrace

        path = tmp_path / "trace.json"
        code = main(
            [
                "report",
                "--word-length", "4",
                "--time-limit", "5",
                "--trace", str(path),
            ]
        )
        assert code == 0
        assert f"written to {path}" in capsys.readouterr().out
        trace = SolverTrace.load(path)
        # The exported trace carries the final stats and its event-derived
        # counters agree with them (the round-trip acceptance criterion).
        assert trace.stats is not None
        assert trace.verify_counters()
        assert trace.events[0].kind == "start"
        assert trace.events[-1].kind == "stop"


@pytest.fixture
def artifact(tmp_path):
    """A small deterministic classifier artifact on disk."""
    from repro.core.classifier import FixedPointLinearClassifier
    from repro.core.serialize import save_classifier
    from repro.fixedpoint.qformat import QFormat

    classifier = FixedPointLinearClassifier(
        weights=np.array([0.5, -0.25, 1.0]), threshold=0.125, fmt=QFormat(2, 4)
    )
    path = tmp_path / "clf.json"
    save_classifier(classifier, str(path))
    return classifier, str(path)


class TestPredictOneShot:
    def test_stdin_to_labels(self, artifact, capsys, monkeypatch):
        """artifact + features on stdin -> one label per line on stdout."""
        classifier, path = artifact
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("0.5 0.25 1.0\n-1.0, 0.5, -0.5\n")
        )
        code = main(["predict", "--artifact", path])
        assert code == 0
        lines = capsys.readouterr().out.split()
        expected = classifier.predict_bitexact(
            np.array([[0.5, 0.25, 1.0], [-1.0, 0.5, -0.5]])
        )
        assert lines == [str(int(v)) for v in expected]

    def test_comments_and_blank_lines_skipped(self, artifact, capsys, monkeypatch):
        _, path = artifact
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("# header\n\n0.5 0.25 1.0\n")
        )
        assert main(["predict", "--artifact", path]) == 0
        assert len(capsys.readouterr().out.split()) == 1

    def test_json_mode(self, artifact, capsys, monkeypatch):
        classifier, path = artifact
        monkeypatch.setattr("sys.stdin", io.StringIO("0.5 0.25 1.0\n"))
        assert main(["predict", "--artifact", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == int(
            classifier.predict_bitexact([0.5, 0.25, 1.0])[0]
        )
        assert set(payload) == {
            "label", "projection", "product_overflows", "accumulator_overflows",
        }

    def test_features_file(self, artifact, capsys, tmp_path):
        classifier, path = artifact
        feature_file = tmp_path / "beats.txt"
        feature_file.write_text("0.5 0.25 1.0\n-0.5 0.5 0.25\n")
        assert main(
            ["predict", "--artifact", path, "--features", str(feature_file)]
        ) == 0
        assert len(capsys.readouterr().out.split()) == 2

    def test_empty_input_prints_nothing(self, artifact, capsys, monkeypatch):
        _, path = artifact
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["predict", "--artifact", path]) == 0
        assert capsys.readouterr().out == ""

    def test_ragged_input_is_a_friendly_error(self, artifact, capsys, monkeypatch):
        """A wrong-width line exits 2 naming the offending line number."""
        _, path = artifact
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("# header\n0.5 0.25 1.0\n0.5 0.25\n")
        )
        assert main(["predict", "--artifact", path]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err
        assert "expects 3" in err

    def test_non_numeric_input_is_a_friendly_error(
        self, artifact, capsys, monkeypatch
    ):
        _, path = artifact
        monkeypatch.setattr("sys.stdin", io.StringIO("0.5 oops 1.0\n"))
        assert main(["predict", "--artifact", path]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "not numeric" in err
