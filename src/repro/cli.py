"""Command-line entry point: ``python -m repro <experiment> [options]``.

Regenerates the paper's tables and figures from the terminal::

    python -m repro table1 --time-limit 30
    python -m repro table2 --folds 5
    python -m repro figure4
    python -m repro figure2
    python -m repro power
    python -m repro report --word-length 6

and deploys trained artifacts (see docs/serving.md)::

    python -m repro report --word-length 6 --save-artifact clf.json
    python -m repro serve --artifact clf.json --port 8400
    python -m repro serve --artifact clf.json --backend native
    python -m repro serve --artifact clf.json --workers 4 --max-pending 4096
    echo "0.5 -0.25 1.0" | python -m repro predict --artifact clf.json

and explores the word-length/power trade-off with the warm-started sweep
engine (see docs/wordlength_sweep.md)::

    python -m repro sweep --word-lengths 4 5 6 7 8 --seed-incumbents
    python -m repro sweep --dataset ecg --sweep-trace t.json

and statically certifies artifacts and lints the source tree
(see docs/static_checks.md)::

    python -m repro check --artifact clf.json --dataset synthetic
    python -m repro check --format Q2.4 --num-features 8
    python -m repro check --lint src --selftest

and runs the conformance harness (see docs/testing.md)::

    python -m repro fuzz --budget 60s
    python -m repro fuzz --replay fuzz_witness.json
    python -m repro fuzz --selftest
    python -m repro golden verify
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LDA-FP (DAC 2014) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="synthetic-data error/runtime sweep")
    t1.add_argument("--time-limit", type=float, default=45.0)
    t1.add_argument("--max-nodes", type=int, default=20_000)
    t1.add_argument("--seed", type=int, default=0)
    t1.add_argument("--word-lengths", type=int, nargs="+", default=None)
    t1.add_argument("--export", metavar="PATH", help="also write rows to .csv/.json")

    t2 = sub.add_parser("table2", help="BCI 5-fold-CV sweep (simulated ECoG)")
    t2.add_argument("--time-limit", type=float, default=20.0)
    t2.add_argument("--max-nodes", type=int, default=60)
    t2.add_argument("--folds", type=int, default=5)
    t2.add_argument("--seed", type=int, default=0)
    t2.add_argument("--word-lengths", type=int, nargs="+", default=None)
    t2.add_argument("--export", metavar="PATH", help="also write rows to .csv/.json")

    f4 = sub.add_parser("figure4", help="weight trajectories vs word length")
    f4.add_argument("--time-limit", type=float, default=30.0)
    f4.add_argument("--seed", type=int, default=0)

    sub.add_parser("figure2", help="boundary rounding-sensitivity study")

    f1 = sub.add_parser("figure1", help="LDA projection-separation illustration")
    f1.add_argument("--histograms", action="store_true")

    power = sub.add_parser("power", help="recompute the 9x / 1.8x power claims")
    power.add_argument("--time-limit", type=float, default=30.0)

    report = sub.add_parser("report", help="train once and print the hardware report")
    report.add_argument("--word-length", type=int, default=6)
    report.add_argument("--time-limit", type=float, default=30.0)
    report.add_argument("--verilog", action="store_true", help="also print Verilog")
    report.add_argument(
        "--no-presolve",
        action="store_true",
        help="disable node presolve (bound tightening / spectral cone reduction)",
    )
    report.add_argument(
        "--no-symmetry-cuts",
        action="store_true",
        help="disable the reflection symmetry cuts",
    )
    report.add_argument(
        "--trace",
        metavar="PATH",
        help="write the solver's event trace to PATH as JSON",
    )
    report.add_argument(
        "--save-artifact",
        metavar="PATH",
        help="write the trained classifier as a JSON deployment artifact",
    )

    sweep = sub.add_parser(
        "sweep",
        help="word-length sweep with the warm-started, seeded engine",
    )
    sweep.add_argument(
        "--dataset", choices=("synthetic", "ecg"), default="synthetic"
    )
    sweep.add_argument(
        "--samples",
        type=int,
        default=600,
        help="dataset size (samples per class for both generators)",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--word-lengths",
        type=int,
        nargs="+",
        default=[4, 5, 6, 7, 8],
        help="total word lengths to evaluate, in sweep order",
    )
    sweep.add_argument("--method", choices=("lda", "lda-fp"), default="lda-fp")
    sweep.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="per-point wall-clock budget in seconds",
    )
    sweep.add_argument("--max-nodes", type=int, default=20_000)
    sweep.add_argument(
        "--seed-incumbents",
        action="store_true",
        help="seed each point's incumbent from the adjacent solved point",
    )
    sweep.add_argument(
        "--sweep-trace",
        metavar="PATH",
        help="write the repro.sweep-trace/v1 telemetry JSON to PATH",
    )
    sweep.add_argument(
        "--target-error",
        type=float,
        default=None,
        help="also report the minimum word length meeting this test error",
    )

    serve = sub.add_parser(
        "serve", help="serve classifier artifacts over HTTP with micro-batching"
    )
    serve.add_argument(
        "--artifact",
        metavar="[NAME=]PATH",
        action="append",
        required=True,
        help="classifier JSON artifact to register (repeatable); the model "
        "name defaults to the file stem",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8400, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="flush a micro-batch at this many pending samples (smaller "
        "batches flush on the next event-loop turn); a batch over this size "
        "runs its engine call off the event loop",
    )
    serve.add_argument(
        "--backend",
        choices=("auto", "native"),
        default="auto",
        help="engine backend: 'auto' runs the batch kernel (object words for "
        "formats too wide for int64); 'native' compiles each artifact's C "
        "kernel (falls back to auto with a printed reason if it cannot)",
    )
    serve.add_argument(
        "--native-cache",
        metavar="DIR",
        help="build-cache directory for native kernels "
        "(default: $REPRO_NATIVE_CACHE or ~/.cache/repro/native)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="cluster mode: pre-fork this many SO_REUSEPORT worker processes "
        "per shard (0 = classic single-process server)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="cluster mode: partition models into this many content-hash "
        "routed shards, each on its own port",
    )
    serve.add_argument(
        "--control-port",
        type=int,
        default=0,
        help="cluster mode: supervisor control-plane port for /healthz and "
        "aggregate /metrics (0 = ephemeral)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=0,
        help="admission-control bound: shed requests (structured 503) once "
        "this many samples are queued or in flight per process "
        "(0 = unbounded)",
    )
    serve.add_argument(
        "--wire",
        choices=("on", "off"),
        default="on",
        help="serve the repro.serve-wire/v2 binary protocol alongside HTTP "
        "on the same port(s)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="streaming-session bound per process: opens beyond it shed "
        "with a structured 503 (default 64)",
    )
    serve.add_argument(
        "--session-idle-timeout",
        type=float,
        default=60.0,
        help="seconds without a chunk before a streaming session is "
        "evicted (0 disables eviction, default 60)",
    )

    stream = sub.add_parser(
        "stream",
        help="stream a waveform into a running server's session endpoint "
        "chunk by chunk (repro.serve-wire/v2)",
    )
    stream.add_argument("--host", default="127.0.0.1")
    stream.add_argument("--port", type=int, required=True)
    stream.add_argument(
        "--model",
        default=None,
        help="registry model name or sha256: prefix (omit when the server "
        "has exactly one model)",
    )
    stream.add_argument(
        "--session",
        default="cli",
        help="session key (chunks of one session must stay on one "
        "connection; default 'cli')",
    )
    stream.add_argument(
        "--waveform",
        metavar="FILE",
        default=None,
        help="waveform samples, one float per line ('-' reads stdin); "
        "omitted = synthesize an ECG recording",
    )
    stream.add_argument(
        "--beats",
        type=int,
        default=16,
        help="beats to synthesize when no --waveform is given (default 16)",
    )
    stream.add_argument(
        "--seed", type=int, default=0, help="synthesis RNG seed (default 0)"
    )
    stream.add_argument(
        "--chunk",
        type=int,
        default=50,
        help="samples per pushed chunk (default 50)",
    )
    stream.add_argument(
        "--sample-rate", type=float, default=250.0,
        help="front-end sample rate in Hz (default 250)",
    )
    stream.add_argument(
        "--window", type=int, default=200,
        help="window size in samples (default 200 = one beat at 250 Hz)",
    )
    stream.add_argument(
        "--hop", type=int, default=200,
        help="hop between windows in samples (default 200)",
    )
    stream.add_argument(
        "--fir-taps", type=int, default=31,
        help="front-end FIR length (odd, default 31)",
    )
    stream.add_argument(
        "--fir-band", nargs=2, type=float, default=(1.0, 40.0),
        metavar=("LOW", "HIGH"),
        help="front-end band-pass edges in Hz (default 1 40)",
    )
    stream.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object per completed window instead of a "
        "summary table",
    )

    predict = sub.add_parser(
        "predict", help="one-shot bit-exact prediction from an artifact"
    )
    predict.add_argument("--artifact", metavar="PATH", required=True)
    predict.add_argument(
        "--backend",
        choices=("auto", "native"),
        default="auto",
        help="engine backend (as for 'serve'); 'native' uses the compiled "
        "C kernel when available",
    )
    predict.add_argument(
        "--features",
        metavar="FILE",
        default="-",
        help="feature vectors, one sample per line (comma/space separated); "
        "'-' (default) reads stdin",
    )
    predict.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object per sample (label, projection, overflow) "
        "instead of a bare label",
    )

    check = sub.add_parser(
        "check",
        help="static certification and RPC lint (see docs/static_checks.md)",
    )
    check.add_argument(
        "--artifact", metavar="PATH", help="certify a trained classifier artifact"
    )
    check.add_argument(
        "--all",
        action="store_true",
        help="certify the whole signal chain of --artifact (FIR front end "
        "-> features -> classifier -> native kernel) into one end-to-end "
        "repro.check-report/v2 certificate",
    )
    check.add_argument(
        "--fir-taps",
        type=int,
        default=63,
        help="FIR front-end length for --all (odd, default 63)",
    )
    check.add_argument(
        "--fir-band",
        nargs=2,
        type=float,
        default=(1.0, 40.0),
        metavar=("LO", "HI"),
        help="FIR band-pass edges in Hz for --all (default 1-40, the ECG "
        "beat band at fs=250)",
    )
    check.add_argument(
        "--guard-bits",
        type=int,
        default=8,
        help="FIR accumulator guard bits for --all (default 8)",
    )
    check.add_argument(
        "--format",
        dest="qformat",
        metavar="QK.F",
        help="certify a format a priori (weight-box mode, e.g. Q2.4)",
    )
    check.add_argument(
        "--num-features", type=int, help="feature count M for --format mode"
    )
    check.add_argument(
        "--dataset",
        choices=("synthetic", "ecg"),
        help="derive feature bounds, statistics, and per-sample evidence "
        "by replicating the training pipeline's preprocessing",
    )
    check.add_argument(
        "--samples",
        type=int,
        default=1500,
        help="dataset size (samples for synthetic, beats per class for ecg)",
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--scale-margin",
        type=float,
        default=0.45,
        help="the training pipeline's feature-scaling margin",
    )
    check.add_argument(
        "--margin",
        type=float,
        default=0.0,
        help="widen empirical feature bounds per side by this fraction "
        "of each feature's range",
    )
    check.add_argument(
        "--rho", type=float, default=0.99, help="statistical confidence (Eq. 16)"
    )
    check.add_argument(
        "--feature-range",
        nargs=2,
        type=float,
        metavar=("LO", "HI"),
        help="explicit uniform per-feature bounds instead of a dataset",
    )
    check.add_argument(
        "--worst-case",
        action="store_true",
        help="in dataset mode, also demand the box-corner exact sum "
        "invariants (stronger than what statistical training guarantees)",
    )
    check.add_argument(
        "--report", metavar="PATH", help="write the certificate JSON to PATH"
    )
    check.add_argument(
        "--lint",
        metavar="PATH",
        action="append",
        help="run the RPC lint rules over files/directories (repeatable)",
    )
    check.add_argument(
        "--selftest",
        action="store_true",
        help="differentially validate the certifier against the bit-exact "
        "datapath simulator",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing across datapath/serve/solver/sweep/check "
        "(see docs/testing.md)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="example-stream seed (deterministic)"
    )
    fuzz.add_argument(
        "--budget",
        metavar="DURATION",
        help='wall-clock budget, e.g. "60s", "5m" (late oracles drain fast)',
    )
    fuzz.add_argument(
        "--examples",
        type=int,
        help="override every oracle's per-run example count",
    )
    fuzz.add_argument(
        "--oracle",
        metavar="NAME",
        action="append",
        help="restrict to the named oracle(s) (repeatable; see --list)",
    )
    fuzz.add_argument(
        "--witness",
        metavar="PATH",
        default="fuzz_witness.json",
        help="where to write the shrunk witness on failure",
    )
    fuzz.add_argument(
        "--replay",
        metavar="PATH",
        help="re-run a recorded repro.fuzz-witness/v1 file instead of fuzzing",
    )
    fuzz.add_argument(
        "--selftest",
        action="store_true",
        help="prove detection: inject a datapath off-by-one and require the "
        "harness to catch, witness, and replay it",
    )
    fuzz.add_argument(
        "--list", action="store_true", dest="list_oracles",
        help="list the registered oracles and exit",
    )

    golden = sub.add_parser(
        "golden",
        help="record/verify bit-exact golden vectors (see docs/testing.md)",
    )
    golden.add_argument(
        "action",
        choices=("record", "verify"),
        help="record: (re)write vectors; verify: recompute and diff",
    )
    golden.add_argument(
        "--dir",
        default="tests/golden",
        help="golden-vector directory (default: tests/golden)",
    )
    golden.add_argument(
        "--only",
        metavar="NAME",
        action="append",
        help="restrict to the named vector(s) (repeatable)",
    )

    ablations = sub.add_parser("ablations", help="run the design-choice ablations")
    ablations.add_argument(
        "--which",
        choices=("beta", "rounding", "heuristics", "backend", "propagation", "scaling", "all"),
        default="all",
    )

    return parser


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "table1":
        from .experiments.table1 import Table1Config, format_table1, run_table1

        config = Table1Config(
            time_limit=args.time_limit, max_nodes=args.max_nodes, seed=args.seed
        )
        if args.word_lengths:
            config = replace(config, word_lengths=tuple(args.word_lengths))
        rows = run_table1(config)
        print(format_table1(rows))
        if args.export:
            from .experiments.export import write_rows

            write_rows(rows, args.export)
            print(f"rows written to {args.export}")

    elif args.command == "table2":
        from .experiments.table2 import Table2Config, format_table2, run_table2

        config = Table2Config(
            time_limit=args.time_limit,
            max_nodes=args.max_nodes,
            folds=args.folds,
            seed=args.seed,
        )
        if args.word_lengths:
            config = replace(config, word_lengths=tuple(args.word_lengths))
        rows = run_table2(config)
        print(format_table2(rows))
        if args.export:
            from .experiments.export import write_rows

            write_rows(rows, args.export)
            print(f"rows written to {args.export}")

    elif args.command == "figure4":
        from .experiments.figure4 import Figure4Config, format_figure4, run_figure4

        print(
            format_figure4(
                run_figure4(Figure4Config(time_limit=args.time_limit, seed=args.seed))
            )
        )

    elif args.command == "figure2":
        from .experiments.figure2 import format_figure2, run_figure2

        print(format_figure2(run_figure2()))

    elif args.command == "figure1":
        from .experiments.figure1 import format_figure1, run_figure1

        print(format_figure1(run_figure1(), histograms=args.histograms))

    elif args.command == "power":
        from .experiments.power_claims import derive_power_claim
        from .experiments.table1 import Table1Config, run_table1

        rows = run_table1(Table1Config(time_limit=args.time_limit))
        # The paper's two targets: "above chance" and the Table-2 tie point.
        for target in (0.45, max(min(r.ldafp_error for r in rows) * 1.05, 0.01)):
            print(derive_power_claim(rows, target).describe())

    elif args.command == "ablations":
        from .experiments import ablations as ab

        which = args.which
        if which in ("beta", "all"):
            print("beta ablation:")
            for p in ab.run_beta_ablation(max_nodes=100, time_limit=6.0):
                print(
                    f"  rho={p.rho:5.3f} beta={p.beta:5.2f} cost={p.cost:7.4f} "
                    f"float={100*p.float_error:6.2f}% bitexact={100*p.bitexact_error:6.2f}%"
                )
        if which in ("rounding", "all"):
            print("rounding-mode ablation (LDA baseline, 12 bits):")
            for p in ab.run_rounding_ablation():
                print(f"  {p.mode:13s}: {100*p.error:6.2f}%")
        if which in ("heuristics", "all"):
            print("heuristic on/off matrix:")
            for p in ab.run_heuristic_ablation(max_nodes=60, time_limit=4.0):
                print(
                    f"  warm={str(p.warm_start):5s} sweep={str(p.scale_sweep):5s} "
                    f"polish={str(p.local_search):5s}: cost={p.cost:8.4f} "
                    f"nodes={p.nodes:4d} {p.seconds:5.1f}s"
                )
        if which in ("backend", "all"):
            print("backend ablation:")
            for p in ab.run_backend_ablation(max_nodes=400, time_limit=15.0):
                print(
                    f"  {p.backend:8s}: cost={p.cost:.6f} lb={p.lower_bound:.6f} "
                    f"{p.seconds:5.1f}s proven={p.proven}"
                )
        if which in ("propagation", "all"):
            print("bound-propagation ablation:")
            for p in ab.run_propagation_ablation(max_nodes=400, time_limit=10.0):
                print(
                    f"  propagation={str(p.bound_propagation):5s}: "
                    f"cost={p.cost:.6f} nodes={p.nodes:4d} {p.seconds:5.1f}s "
                    f"proven={p.proven}"
                )
        if which in ("scaling", "all"):
            print("dimension scaling:")
            for p in ab.run_dimension_scaling(max_nodes=60, time_limit=4.0):
                print(
                    f"  M={p.num_features:2d}: cost={p.cost:8.4f} "
                    f"nodes={p.nodes:4d} {p.seconds:6.2f}s"
                )

    elif args.command == "report":
        from .core.ldafp import LdaFpConfig
        from .core.pipeline import PipelineConfig, TrainingPipeline
        from .data.synthetic import make_synthetic_dataset
        from .hardware.report import build_report
        from .optim.trace import SolverTrace

        train = make_synthetic_dataset(1500, seed=0)
        test = make_synthetic_dataset(4000, seed=1)
        pipeline = TrainingPipeline(
            PipelineConfig(
                method="lda-fp",
                ldafp=LdaFpConfig(
                    time_limit=args.time_limit,
                    presolve=not args.no_presolve,
                    symmetry_cuts=not args.no_symmetry_cuts,
                ),
            )
        )
        trace = SolverTrace() if args.trace else None
        result = pipeline.run(train, test, args.word_length, trace=trace)
        print(build_report(result.classifier, test_error=result.test_error).text)
        if trace is not None:
            trace.save(args.trace)
            print(
                f"solver trace ({len(trace.events)} events, "
                f"stop={trace.stop_reason()}) written to {args.trace}"
            )
        if args.verilog:
            from .hardware.verilog import generate_classifier_verilog

            print(generate_classifier_verilog(result.classifier))
        if args.save_artifact:
            from .core.serialize import save_classifier

            save_classifier(result.classifier, args.save_artifact)
            print(f"artifact written to {args.save_artifact}")

    elif args.command == "sweep":
        return _run_sweep(args)

    elif args.command == "serve":
        return _run_serve(args)

    elif args.command == "stream":
        return _run_stream(args)

    elif args.command == "check":
        return _run_check(args)

    elif args.command == "fuzz":
        return _run_fuzz(args)

    elif args.command == "golden":
        return _run_golden(args)

    elif args.command == "predict":
        import json as _json

        import numpy as np

        from .core.serialize import load_classifier
        from .serve.engine import BatchInferenceEngine

        engine = BatchInferenceEngine(
            load_classifier(args.artifact), backend=args.backend
        )
        if engine.native_fallback_reason:
            print(
                f"native backend unavailable, using {engine.backend}: "
                f"{engine.native_fallback_reason}",
                file=sys.stderr,
            )
        stream = sys.stdin if args.features == "-" else open(args.features)
        try:
            rows = []
            for lineno, line in enumerate(stream, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    row = [float(tok) for tok in line.replace(",", " ").split()]
                except ValueError:
                    print(
                        f"error: line {lineno}: features are not numeric: {line!r}",
                        file=sys.stderr,
                    )
                    return 2
                if len(row) != engine.num_features:
                    print(
                        f"error: line {lineno} has {len(row)} feature(s); "
                        f"artifact expects {engine.num_features}",
                        file=sys.stderr,
                    )
                    return 2
                rows.append(row)
        finally:
            if stream is not sys.stdin:
                stream.close()
        if rows:
            result = engine.run(np.asarray(rows, dtype=np.float64))
            if args.json:
                resolution = engine.fmt.resolution
                for i in range(result.num_samples):
                    print(
                        _json.dumps(
                            {
                                "label": int(result.labels[i]),
                                "projection": float(
                                    int(result.projection_raws[i]) * resolution
                                ),
                                "product_overflows": int(
                                    np.count_nonzero(result.product_overflowed[i])
                                ),
                                "accumulator_overflows": int(
                                    np.count_nonzero(result.accumulator_overflowed[i])
                                ),
                            }
                        )
                    )
            else:
                for label in result.labels:
                    print(int(label))

    return 0


def _run_sweep(args) -> int:
    """``repro sweep``: run the word-length sweep engine and print a table."""
    from .core.ldafp import LdaFpConfig
    from .core.pipeline import PipelineConfig
    from .errors import ReproError
    from .wordlength import (
        SweepConfig,
        SweepTrace,
        minimum_wordlength,
        pareto_front,
        run_sweep,
    )

    if args.dataset == "ecg":
        from .data.ecg import make_ecg_dataset

        train = make_ecg_dataset(args.samples, seed=args.seed)
        test = make_ecg_dataset(args.samples, seed=args.seed + 1)
    else:
        from .data.synthetic import make_synthetic_dataset

        train = make_synthetic_dataset(args.samples, seed=args.seed)
        test = make_synthetic_dataset(args.samples, seed=args.seed + 1)

    pipeline_config = PipelineConfig(
        method=args.method,
        ldafp=LdaFpConfig(max_nodes=args.max_nodes),
    )
    sweep_config = SweepConfig(
        seed_incumbents=args.seed_incumbents,
        point_time_limit=args.time_limit,
    )
    trace = SweepTrace() if args.sweep_trace else None
    try:
        points = run_sweep(
            train,
            test,
            args.word_lengths,
            pipeline_config=pipeline_config,
            sweep_config=sweep_config,
            sweep_trace=trace,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    front = {id(p) for p in pareto_front(points)}
    print(f"{args.dataset} sweep ({args.method}, {train.num_samples} train samples)")
    print("  WL   error%     power   seconds  stop        optimal  pareto")
    for point in points:
        stop = point.stop_reason or "-"
        optimal = "-" if point.proven_optimal is None else str(point.proven_optimal)
        star = "*" if id(point) in front else ""
        print(
            f"  {point.word_length:2d}  {100 * point.test_error:7.2f}  "
            f"{point.power:8.3f}  {point.train_seconds:8.2f}  {stop:10s}  "
            f"{optimal:7s}  {star}"
        )
    if args.target_error is not None:
        best = minimum_wordlength(points, target_error=args.target_error)
        if best is None:
            print(f"no evaluated word length meets error <= {args.target_error}")
        else:
            print(
                f"minimum word length for error <= {args.target_error}: "
                f"{best.word_length} ({100 * best.test_error:.2f}%)"
            )
    if trace is not None:
        trace.save(args.sweep_trace)
        print(
            f"sweep trace ({len(trace.records)} points) written to "
            f"{args.sweep_trace}"
        )
    return 0


def _run_check(args) -> int:
    """``repro check``: certify artifacts/formats, lint, selftest.

    Exit codes: 0 — every requested check passed (certificates all
    PROVEN, no lint findings); 1 — a check failed; 2 — bad invocation.
    """
    import numpy as np

    from .check import (
        FeatureBounds,
        certify_classifier,
        certify_format,
        dataset_evidence,
        lint_paths,
        render_findings,
        selftest,
    )
    from .errors import ReproError
    from .fixedpoint.qformat import QFormat

    did_something = False
    failed = False
    try:
        if args.selftest:
            did_something = True
            checked = selftest()
            print(f"selftest: {checked} certificates validated against the simulator")

        if args.lint:
            did_something = True
            findings = lint_paths(args.lint)
            print(render_findings(findings))
            if findings:
                failed = True

        if args.artifact and args.qformat:
            print("error: pass either --artifact or --format, not both", file=sys.stderr)
            return 2

        if args.all and not args.artifact:
            print("error: --all requires --artifact", file=sys.stderr)
            return 2

        if args.artifact and args.all:
            did_something = True
            from .check import certify_pipeline
            from .core.serialize import load_classifier
            from .signal.filters import design_fir
            from .signal.fxfir import FixedPointFir

            classifier = load_classifier(args.artifact)
            # The demo deployment's front end: a fixed-point band-pass FIR
            # in the classifier's own format at the ECG sample rate.
            sample_rate = 250.0
            taps = design_fir(
                args.fir_taps,
                tuple(args.fir_band),
                kind="bandpass",
                sample_rate=sample_rate,
            )
            fir = FixedPointFir(
                taps=taps,
                fmt=classifier.fmt,
                guard_bits=args.guard_bits,
                rounding=classifier.rounding,
            )
            metadata = {
                "artifact": args.artifact,
                "sample_rate": sample_rate,
                "fir_taps": args.fir_taps,
                "fir_band": list(args.fir_band),
                "guard_bits": args.guard_bits,
            }
            bounds = None
            stats = scaled = None
            if args.dataset:
                dataset = _check_dataset(args)
                bounds, stats, scaled = dataset_evidence(
                    dataset,
                    classifier.fmt,
                    rounding=classifier.rounding,
                    scale_margin=args.scale_margin,
                    margin=args.margin,
                )
                metadata.update(
                    dataset=args.dataset, samples=args.samples, seed=args.seed
                )
            elif args.feature_range:
                lo, hi = args.feature_range
                m = classifier.num_features
                bounds = FeatureBounds(lo=np.full(m, lo), hi=np.full(m, hi))
            pipeline_report = certify_pipeline(
                classifier,
                fir=fir,
                feature_bounds=bounds,
                stats=stats,
                rho=args.rho,
                samples=scaled,
                worst_case=args.worst_case,
                scale_margin=args.scale_margin,
                metadata=metadata,
            )
            print(pipeline_report.summary())
            if args.report:
                pipeline_report.save(args.report)
                print(f"certificate written to {args.report}")
            if not pipeline_report.all_proven:
                failed = True

        elif args.artifact:
            did_something = True
            from .core.serialize import load_classifier

            classifier = load_classifier(args.artifact)
            metadata = {"artifact": args.artifact}
            if args.dataset:
                dataset = _check_dataset(args)
                bounds, stats, scaled = dataset_evidence(
                    dataset,
                    classifier.fmt,
                    rounding=classifier.rounding,
                    scale_margin=args.scale_margin,
                    margin=args.margin,
                )
                metadata.update(
                    dataset=args.dataset, samples=args.samples, seed=args.seed
                )
                report = certify_classifier(
                    classifier,
                    feature_bounds=bounds,
                    stats=stats,
                    rho=args.rho,
                    samples=scaled,
                    worst_case=args.worst_case,
                    metadata=metadata,
                )
            else:
                bounds = None
                if args.feature_range:
                    lo, hi = args.feature_range
                    m = classifier.num_features
                    bounds = FeatureBounds(lo=np.full(m, lo), hi=np.full(m, hi))
                report = certify_classifier(
                    classifier, feature_bounds=bounds, metadata=metadata
                )
            print(report.summary())
            if args.report:
                report.save(args.report)
                print(f"certificate written to {args.report}")
            if not report.all_proven:
                failed = True

        elif args.qformat:
            did_something = True
            if not args.num_features:
                print("error: --format requires --num-features", file=sys.stderr)
                return 2
            fmt = QFormat.from_string(args.qformat)
            bounds = None
            if args.feature_range:
                lo, hi = args.feature_range
                bounds = FeatureBounds(
                    lo=np.full(args.num_features, lo),
                    hi=np.full(args.num_features, hi),
                )
            report = certify_format(fmt, args.num_features, feature_bounds=bounds)
            print(report.summary())
            if args.report:
                report.save(args.report)
                print(f"certificate written to {args.report}")
            if not report.all_proven:
                failed = True
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not did_something:
        print(
            "error: nothing to do — pass --artifact, --format, --lint, "
            "or --selftest",
            file=sys.stderr,
        )
        return 2
    return 1 if failed else 0


def _run_fuzz(args) -> int:
    """``repro fuzz``: differential fuzzing over the oracle registry.

    Exit codes mirror ``repro check``: 0 — all oracles agree (or a
    replayed witness no longer reproduces); 1 — a discrepancy was found
    (witness written) or a replayed witness still reproduces; 2 — bad
    invocation.
    """
    from .conformance import fuzzer
    from .errors import ReproError

    try:
        if args.list_oracles:
            for line in fuzzer.describe_oracles():
                print(line)
            return 0

        if args.selftest:
            return fuzzer.run_selftest(seed=args.seed)

        if args.replay:
            code, _ = fuzzer.replay_witness(args.replay)
            return code

        budget = fuzzer.parse_budget(args.budget) if args.budget else None
        code, failure = fuzzer.run_fuzz(
            oracle_names=args.oracle,
            seed=args.seed,
            examples=args.examples,
            budget_seconds=budget,
        )
        if failure is not None:
            fuzzer.write_witness(args.witness, failure, args.seed)
            print(f"witness written to {args.witness}")
        return code
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_golden(args) -> int:
    """``repro golden record|verify``: pin / re-check the golden vectors.

    Exit codes: 0 — recorded, or every vector verified bit-identical;
    1 — verification found drift or missing vectors; 2 — bad invocation.
    """
    from .conformance import golden
    from .errors import ReproError

    try:
        if args.action == "record":
            names = golden.record_goldens(args.dir, only=args.only)
            for name in names:
                print(f"recorded {golden.golden_path(args.dir, name)}")
            return 0

        problems = golden.verify_goldens(args.dir, only=args.only)
        if problems:
            for problem in problems:
                print(f"golden mismatch: {problem}")
            return 1
        checked = args.only if args.only else sorted(golden.RECORDERS)
        print(f"golden: {len(checked)} vector(s) verified bit-identical")
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _check_dataset(args):
    """Rebuild the named dataset for ``repro check --dataset``."""
    if args.dataset == "ecg":
        from .data.ecg import make_ecg_dataset

        return make_ecg_dataset(args.samples, seed=args.seed)
    from .data.synthetic import make_synthetic_dataset

    return make_synthetic_dataset(args.samples, seed=args.seed)


def _artifact_stem(path: str) -> str:
    """Default model name for ``repro serve --artifact PATH``."""
    from pathlib import Path

    return Path(path).stem


def _parse_artifact_specs(specs: "list[str]") -> "list[tuple[str, str]]":
    """Expand repeated ``[NAME=]PATH`` arguments to (name, path) pairs."""
    pairs = []
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = _artifact_stem(spec), spec
        pairs.append((name, path))
    return pairs


def _run_serve(args) -> int:
    """``repro serve``: single-process server or pre-fork cluster.

    Both paths shut down gracefully on SIGTERM as well as Ctrl-C: the
    single process stops accepting, finishes accepted requests, and drains
    the batcher before exiting; the supervisor SIGTERMs every worker and
    waits for their drains.
    """
    import signal
    import threading

    artifacts = _parse_artifact_specs(args.artifact)
    wire_enabled = args.wire == "on"

    from .serve import BatcherConfig

    batcher = BatcherConfig(
        max_batch_size=args.max_batch,
        max_pending_samples=args.max_pending,
    )

    if args.workers > 0:
        from .serve import ClusterConfig, ClusterSupervisor

        supervisor = ClusterSupervisor(
            ClusterConfig(
                artifacts=tuple(artifacts),
                workers=args.workers,
                shards=args.shards,
                host=args.host,
                port=args.port,
                control_port=args.control_port,
                batcher=batcher,
                backend=args.backend,
                native_cache=args.native_cache,
                wire=wire_enabled,
                stream_max_sessions=args.max_sessions,
                stream_idle_timeout=args.session_idle_timeout,
            )
        )
        supervisor.start()
        for shard, port in sorted(supervisor.shard_ports.items()):
            models = sorted(
                name for name, (_, s) in supervisor.routing.items() if s == shard
            )
            print(
                f"shard {shard}: {args.workers} worker(s) on "
                f"http://{args.host}:{port} serving {', '.join(models)}",
                flush=True,
            )
        print(
            f"control plane on http://{args.host}:{supervisor.control_port} "
            "(GET /healthz, aggregate /metrics, /metrics.json)",
            flush=True,
        )
        stop = threading.Event()
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            print("draining cluster ...", flush=True)
            supervisor.stop()
        return 0

    import asyncio

    from .serve import InferenceServer, ModelRegistry, ServeConfig

    registry = ModelRegistry(backend=args.backend, native_cache=args.native_cache)
    for name, path in artifacts:
        model = registry.register_file(name, path)
        print(f"registered {model.describe()}")
        if model.engine.native_fallback_reason:
            print(
                f"  native backend unavailable for {name!r}, using "
                f"{model.engine.backend}: "
                f"{model.engine.native_fallback_reason}"
            )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        batcher=batcher,
        wire=wire_enabled,
        stream_max_sessions=args.max_sessions,
        stream_idle_timeout=args.session_idle_timeout,
    )
    server = InferenceServer(registry, config=config)

    async def _serve() -> None:
        await server.start()
        protocols = "HTTP" + (" + wire" if wire_enabled else "")
        print(
            f"serving on http://{args.host}:{server.port} "
            f"({protocols}: POST /predict, GET /healthz, GET /metrics)",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGINT, stop.set)
        await stop.wait()
        # Graceful: no new connections, finish accepted work, drain batches.
        print("draining ...", flush=True)
        await server.close()

    asyncio.run(_serve())
    return 0


def _run_stream(args) -> int:
    """``repro stream``: push a waveform into a live session endpoint.

    Opens one ``repro.serve-wire/v2`` streaming session, pushes the
    waveform in ``--chunk``-sample pieces, prints each completed window's
    classification as it arrives, and closes with the lifetime totals.
    The whole exchange rides a single persistent connection, which is
    what pins the session to one worker in cluster mode.
    """
    import json as _json

    import numpy as np

    from .errors import ReproError
    from .serve.wire import WireClient, WireError

    try:
        if args.waveform is not None:
            stream = sys.stdin if args.waveform == "-" else open(args.waveform)
            try:
                samples = np.asarray(
                    [
                        float(tok)
                        for line in stream
                        for tok in line.replace(",", " ").split()
                        if not line.lstrip().startswith("#")
                    ],
                    dtype=np.float64,
                )
            except ValueError:
                print("error: waveform samples are not numeric", file=sys.stderr)
                return 2
            finally:
                if stream is not sys.stdin:
                    stream.close()
        else:
            from .data.ecg import EcgBeatConfig, synthesize_beat

            rng = np.random.default_rng(args.seed)
            beat_config = EcgBeatConfig(sample_rate=args.sample_rate)
            samples = np.concatenate(
                [
                    synthesize_beat(beat_config, rng, abnormal=i % 2 == 1)
                    for i in range(args.beats)
                ]
            )
        if samples.size == 0:
            print("error: waveform is empty", file=sys.stderr)
            return 2
        if args.chunk < 1:
            print("error: --chunk must be >= 1", file=sys.stderr)
            return 2

        config = {
            "sample_rate": args.sample_rate,
            "num_taps": args.fir_taps,
            "band": list(args.fir_band),
            "window_size": args.window,
            "hop": args.hop,
        }
        client = WireClient(args.host, args.port)
        try:
            opened = client.open_stream(
                args.session, config=config, model=args.model
            )
            if isinstance(opened, WireError):
                print(
                    f"error: open rejected ({opened.status}): {opened.message}",
                    file=sys.stderr,
                )
                return 2
            if not args.json:
                print(
                    f"session {opened.key!r} pinned to "
                    f"sha256:{opened.content_hash[:12]}"
                )
            for seq, start in enumerate(range(0, samples.size, args.chunk)):
                result = client.send_chunk(
                    args.session, seq, samples[start : start + args.chunk]
                )
                if isinstance(result, WireError):
                    print(
                        f"error: chunk {seq} rejected ({result.status}): "
                        f"{result.message}",
                        file=sys.stderr,
                    )
                    return 2
                for i in range(len(result.labels)):
                    row = {
                        "window": int(result.window_indices[i]),
                        "label": int(result.labels[i]),
                        "projection_raw": int(result.projection_raws[i]),
                    }
                    if args.json:
                        print(_json.dumps(row))
                    else:
                        print(
                            f"window {row['window']:4d}  label {row['label']}  "
                            f"raw {row['projection_raw']}"
                        )
            closed = client.close_stream(args.session)
            if isinstance(closed, WireError):
                print(
                    f"error: close rejected ({closed.status}): {closed.message}",
                    file=sys.stderr,
                )
                return 2
            summary = {
                "session": closed.key,
                "chunks": closed.chunks,
                "samples": closed.samples,
                "windows": closed.windows,
            }
            if args.json:
                print(_json.dumps(summary))
            else:
                print(
                    f"closed: {closed.chunks} chunk(s), {closed.samples} "
                    f"sample(s), {closed.windows} window(s)"
                )
        finally:
            client.close()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(
            f"error: cannot reach {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
