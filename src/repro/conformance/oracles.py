"""Cross-implementation conformance oracles.

The repo carries four independent implementations of the same bit-exact
semantics: the per-sample reference datapath
(:meth:`~repro.fixedpoint.datapath.FixedPointDatapath.project_traced`), the
vectorized batch datapath kernel behind the serving engine and
``predict_bitexact`` (int64 or object words), the ``repro.check``
abstract-interpretation certifier, and the accelerated solver and sweep
engine with their plain baselines.  Each *pair* is differentially tested
somewhere in ``tests/``, but those checks were written ad hoc per PR.  An
**oracle** packages one such cross-check as an object the fuzz driver can
enumerate: a hypothesis strategy producing JSON-able cases, and a ``check``
that replays a case through both implementations and raises
:class:`OracleDiscrepancy` on the first observable difference.

Because cases are plain JSON, a failing (hypothesis-shrunk) example
serializes directly into a ``repro.fuzz-witness/v1`` file and replays with
``repro fuzz --replay`` — no pickling, no environment capture.

Registry: :data:`ALL_ORACLES` (ordered cheap-to-expensive) and
:func:`get_oracle`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from hypothesis import strategies as st

from ..errors import CheckError, InputValidationError
from . import strategies as cst

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..signal.fxfir import FixedPointFir

__all__ = [
    "Oracle",
    "OracleDiscrepancy",
    "ALL_ORACLES",
    "ORACLES",
    "get_oracle",
    "fxfir_reference",
    "object_words_result",
]


class OracleDiscrepancy(CheckError):
    """Two implementations of the same semantics disagreed on a case.

    Carries the JSON-able ``case`` so the fuzz driver can serialize the
    (shrunk) example as a replayable witness.
    """

    def __init__(self, oracle: str, message: str, case: dict) -> None:
        super().__init__(f"[{oracle}] {message}")
        self.oracle = oracle
        self.detail = message
        self.case = case


class Oracle:
    """One cross-implementation check; subclasses fill in the pair."""

    #: registry key, used in CLI ``--oracle`` filters and witness files
    name: str = ""
    #: one-line human description (``repro fuzz --list``)
    description: str = ""
    #: examples per default fuzz run — heavy oracles get small budgets
    default_examples: int = 50

    def strategy(self) -> st.SearchStrategy:
        """Hypothesis strategy of JSON-able case dicts."""
        raise NotImplementedError

    def check(self, case: dict) -> None:
        """Replay ``case`` through both implementations; raise on mismatch."""
        raise NotImplementedError

    def fail(self, message: str, case: dict) -> None:
        raise OracleDiscrepancy(self.name, message, case)


def object_words_result(classifier, x_raws):
    """The batch datapath kernel on object words, for any format.

    The engine runs object words only where int64 is inexact; this covers
    them on small formats too.  ``x_raws`` are saturated into the format
    first, as ``BatchInferenceEngine.run_raw`` does.
    """
    from ..fixedpoint.datapath import project_batch_raws
    from ..serve.engine import BatchResult

    fmt, datapath = classifier.fmt, classifier.datapath()
    words = np.clip(np.atleast_2d(np.asarray(x_raws, dtype=object)), fmt.min_raw, fmt.max_raw)
    raws, product_overflowed, accumulator_overflowed = project_batch_raws(
        words, datapath.weight_raws, datapath.threshold_raw, datapath.config
    )
    labels = np.asarray(classifier.polarity * raws >= 0, dtype=bool).astype(np.int64)
    return BatchResult(raws, labels, product_overflowed, accumulator_overflowed)


# --------------------------------------------------------------------- #
# 1. Serving engine (int64/object kernel + raw hook) vs per-sample datapath
# --------------------------------------------------------------------- #
class EngineDatapathOracle(Oracle):
    """Bit-identity of the engine's auto path, the batch kernel on object
    words, and the :meth:`run_raw` hook against the scalar reference
    datapath: raws, labels, and per-step overflow flags, including
    forced-wrap inputs and 31-32 bit formats, where auto picks object words."""

    name = "engine-datapath"
    description = (
        "serve.BatchInferenceEngine (auto/object words/run_raw) vs "
        "fixedpoint.FixedPointDatapath.project_traced, bit for bit"
    )
    default_examples = 60

    def strategy(self) -> st.SearchStrategy:
        sizes = {"max_features": 6, "max_samples": 6}
        return st.one_of(
            cst.classifier_cases(max_integer_bits=4, max_fraction_bits=5, **sizes),
            cst.classifier_cases(
                min_integer_bits=15, max_integer_bits=16, min_fraction_bits=16,
                max_fraction_bits=16, **sizes,
            ),
        )

    def check(self, case: dict) -> None:
        from ..serve.engine import BatchInferenceEngine

        classifier = cst.case_classifier(case)
        features = cst.case_features(case)
        datapath = classifier.datapath()
        engine = BatchInferenceEngine(classifier)
        raws = np.asarray(case["feature_raws"], dtype=object)
        results = {
            "auto": engine.run(features),
            "object": object_words_result(classifier, raws),
            "run_raw": engine.run_raw(raws),
        }
        for i, row in enumerate(np.atleast_2d(features)):
            trace = datapath.project_traced(row)
            expected_label = int(classifier.polarity * trace.result_raw >= 0)
            for path, result in results.items():
                if int(result.projection_raws[i]) != trace.result_raw:
                    self.fail(
                        f"sample {i}: {path} projection raw "
                        f"{int(result.projection_raws[i])} != datapath "
                        f"{trace.result_raw}",
                        case,
                    )
                if list(result.product_overflowed[i]) != trace.product_overflowed:
                    self.fail(f"sample {i}: {path} product flags diverge", case)
                if (
                    list(result.accumulator_overflowed[i])
                    != trace.accumulator_overflowed
                ):
                    self.fail(f"sample {i}: {path} accumulator flags diverge", case)
                if int(result.labels[i]) != expected_label:
                    self.fail(
                        f"sample {i}: {path} label {int(result.labels[i])} != "
                        f"project_traced {expected_label}",
                        case,
                    )


# --------------------------------------------------------------------- #
# 2. Compiled native kernel vs numpy fast path vs reference datapath
# --------------------------------------------------------------------- #
class NativeVsFastOracle(Oracle):
    """Three-way bit-identity for the compiled C backend: the native
    kernel's raws/labels/overflow flags must match the numpy fast path on
    the same raw words *and* the per-sample reference datapath on the same
    real features — including forced-wrap inputs and both silicon overflow
    policies.  On hosts without a C compiler the check passes vacuously
    (the native backend cannot exist there); CI's native-smoke job runs it
    where a compiler is guaranteed."""

    name = "native_vs_fast"
    description = (
        "hardware.native compiled kernel vs serve.BatchInferenceEngine "
        "fast path vs fixedpoint.FixedPointDatapath.project_traced"
    )
    default_examples = 25

    def strategy(self) -> st.SearchStrategy:
        @st.composite
        def cases(draw) -> dict:
            # Small formats keep every case on the int64 fast path
            # (2*(K+F) + ceil(log2 M) <= 21 bits), so a native fallback
            # inside check() is always a failure, never an admission gap.
            case = draw(
                cst.classifier_cases(
                    max_integer_bits=4,
                    max_fraction_bits=5,
                    max_features=6,
                    max_samples=6,
                )
            )
            case["overflow"] = draw(
                st.sampled_from([mode.value for mode in cst.OVERFLOW_MODES])
            )
            return case

        return cases()

    def check(self, case: dict) -> None:
        from ..fixedpoint.overflow import OverflowMode
        from ..hardware.native import native_backend_available
        from ..serve.engine import BatchInferenceEngine

        if not native_backend_available():
            return
        overflow = OverflowMode(case.get("overflow", "wrap"))
        classifier = cst.case_classifier(case)
        native = BatchInferenceEngine(classifier, overflow=overflow, backend="native")
        if native.backend != "native":
            self.fail(
                f"native backend fell back to {native.backend}: "
                f"{native.native_fallback_reason}",
                case,
            )
        fast = BatchInferenceEngine(classifier, overflow=overflow)

        # 1. Same raw words through both engine paths, bit for bit.
        raws = np.asarray(case["feature_raws"], dtype=object)
        got = native.run_raw(raws)
        want = fast.run_raw(raws)
        for field in (
            "projection_raws",
            "labels",
            "product_overflowed",
            "accumulator_overflowed",
        ):
            native_arr = np.asarray(getattr(got, field))
            fast_arr = np.asarray(getattr(want, field))
            if not np.array_equal(native_arr, fast_arr):
                self.fail(
                    f"run_raw {field}: native {native_arr.tolist()} != "
                    f"fast {fast_arr.tolist()}",
                    case,
                )

        # 2. Real features through the native engine vs the per-sample
        #    reference simulator (covers the quantization front end too).
        features = cst.case_features(case)
        result = native.run(features)
        datapath = classifier.datapath(overflow=overflow)
        for i, row in enumerate(np.atleast_2d(features)):
            trace = datapath.project_traced(row)
            expected_label = int(classifier.polarity * trace.result_raw >= 0)
            if int(result.projection_raws[i]) != trace.result_raw:
                self.fail(
                    f"sample {i}: native projection raw "
                    f"{int(result.projection_raws[i])} != datapath "
                    f"{trace.result_raw}",
                    case,
                )
            if list(result.product_overflowed[i]) != trace.product_overflowed:
                self.fail(f"sample {i}: native product flags diverge", case)
            if (
                list(result.accumulator_overflowed[i])
                != trace.accumulator_overflowed
            ):
                self.fail(f"sample {i}: native accumulator flags diverge", case)
            if int(result.labels[i]) != expected_label:
                self.fail(
                    f"sample {i}: native label {int(result.labels[i])} != "
                    f"project_traced {expected_label}",
                    case,
                )


# --------------------------------------------------------------------- #
# 3. Serialize round-trip
# --------------------------------------------------------------------- #
class SerializeRoundtripOracle(Oracle):
    """``classifier_from_dict`` then ``classifier_to_dict`` must reproduce
    a fully-populated artifact payload verbatim (and be idempotent)."""

    name = "serialize-roundtrip"
    description = "core.serialize artifact dict -> classifier -> dict identity"
    default_examples = 60

    def strategy(self) -> st.SearchStrategy:
        return cst.artifact_payloads()

    def check(self, case: dict) -> None:
        from ..core.serialize import classifier_from_dict, classifier_to_dict

        first = classifier_to_dict(classifier_from_dict(case))
        if first != case:
            self.fail(f"round-trip changed the payload: {first} != {case}", case)
        second = classifier_to_dict(classifier_from_dict(first))
        if second != first:
            self.fail("round-trip is not idempotent", case)


# --------------------------------------------------------------------- #
# 4. Certifier verdicts vs empirical replay through the simulator
# --------------------------------------------------------------------- #
class CertifierReplayOracle(Oracle):
    """Every certificate verdict must survive empirical replay: PROVEN
    bounds contain all sampled behaviour, VIOLATED witnesses overflow."""

    name = "certifier-replay"
    description = (
        "check.certify_classifier verdicts vs bit-exact simulation "
        "(check.selftest.verify_report_by_simulation)"
    )
    default_examples = 20

    def strategy(self) -> st.SearchStrategy:
        @st.composite
        def cases(draw) -> dict:
            base = draw(
                cst.classifier_cases(
                    max_integer_bits=3,
                    max_fraction_bits=4,
                    max_features=4,
                    max_samples=1,
                )
            )
            case = {k: v for k, v in base.items() if k != "feature_raws"}
            case["seed"] = draw(st.integers(min_value=0, max_value=2**31 - 1))
            if draw(st.booleans()):
                from ..fixedpoint.qformat import QFormat

                fmt = QFormat(case["integer_bits"], case["fraction_bits"])
                m = len(case["weight_raws"])
                pairs = [
                    sorted(draw(cst.raw_word_lists(fmt, 2))) for _ in range(m)
                ]
                case["bounds_lo_raws"] = [p[0] for p in pairs]
                case["bounds_hi_raws"] = [p[1] for p in pairs]
            return case

        return cases()

    def check(self, case: dict) -> None:
        from ..check.certifier import FeatureBounds, certify_classifier
        from ..check.selftest import verify_report_by_simulation

        classifier = cst.case_classifier(case)
        bounds = None
        if "bounds_lo_raws" in case:
            fmt = classifier.fmt
            bounds = FeatureBounds(
                lo=np.array(
                    [fmt.to_real(int(r)) for r in case["bounds_lo_raws"]],
                    dtype=np.float64,
                ),
                hi=np.array(
                    [fmt.to_real(int(r)) for r in case["bounds_hi_raws"]],
                    dtype=np.float64,
                ),
                source="explicit",
            )
        report = certify_classifier(classifier, feature_bounds=bounds)
        try:
            verify_report_by_simulation(
                report,
                classifier,
                feature_bounds=bounds,
                samples=24,
                seed=int(case["seed"]),
            )
        except CheckError as exc:
            self.fail(str(exc), case)


# --------------------------------------------------------------------- #
# 5. Presolve/cuts-accelerated solver vs the plain solver and brute force
# --------------------------------------------------------------------- #
def _solver_instance(seed: int):
    """A small deterministic LDA-FP instance (dataset, format) from a seed."""
    from ..data.dataset import Dataset
    from ..fixedpoint.qformat import QFormat

    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    mean = rng.uniform(-0.6, 0.6, size=m)
    scale = rng.uniform(0.2, 0.5)
    a = rng.standard_normal((60, m)) * scale + mean
    b = rng.standard_normal((60, m)) * scale - mean
    return Dataset.from_class_arrays(a, b), QFormat(2, int(rng.integers(1, 4)))


class PresolveVsPlainOracle(Oracle):
    """The acceleration layer (node presolve, spectral cone reduction,
    symmetry cuts, guided branching) must be result-neutral: on exact-gap
    proven runs, the accelerated solver returns the identical
    ``(cost, lower_bound, proven_optimal)`` triple as the plain solver,
    and both match the brute-force grid optimum."""

    name = "presolve_vs_plain"
    description = (
        "optim presolve+cuts vs plain branch-and-bound vs brute force "
        "on random LDA-FP instances"
    )
    default_examples = 2

    def strategy(self) -> st.SearchStrategy:
        return st.fixed_dictionaries(
            {"seed": st.integers(min_value=0, max_value=10**6)}
        )

    def check(self, case: dict) -> None:
        from ..core.ldafp import LdaFpConfig, train_lda_fp
        from ..core.problem import LdaFpProblem
        from ..fixedpoint.quantize import quantize
        from ..stats.scatter import estimate_two_class_stats
        from ..optim.bruteforce import brute_force_minimize

        dataset, fmt = _solver_instance(int(case["seed"]))
        # Exact gaps and no budgets: every run must prove optimality, so
        # ``lower_bound == cost`` and the triples must agree bit for bit.
        shared = dict(
            max_nodes=200_000,
            time_limit=None,
            absolute_gap=0.0,
            relative_gap=0.0,
            # The PQN floor rejects degenerate zero-variance optima that the
            # raw Eq. 21 brute-force cost accepts; disable it so all three
            # implementations optimize the same objective.
            quantization_noise_floor=False,
        )
        results = {}
        for label, kw in (
            ("plain", dict(presolve=False, symmetry_cuts=False)),
            ("accelerated", dict(presolve=True, symmetry_cuts=True)),
        ):
            _, report = train_lda_fp(dataset, fmt, LdaFpConfig(**shared, **kw))
            if not report.proven_optimal:
                self.fail(f"{label} run failed to prove optimality", case)
            results[label] = (report.cost, report.lower_bound, report.proven_optimal)
        if results["plain"] != results["accelerated"]:
            self.fail(
                f"accelerated triple {results['accelerated']} != "
                f"plain {results['plain']}",
                case,
            )
        quantized = dataset.map_features(lambda x: np.asarray(quantize(x, fmt)))
        stats = estimate_two_class_stats(quantized.class_a, quantized.class_b)
        problem = LdaFpProblem(stats=stats, fmt=fmt, rho=0.99)
        brute = brute_force_minimize(
            [fmt.grid()] * problem.num_features,
            cost=problem.cost,
            feasible=lambda w: problem.constraint_violation(w) <= 1e-9,
        )
        if abs(results["plain"][0] - brute.cost) > 1e-9 * max(1.0, abs(brute.cost)):
            self.fail(
                f"solver cost {results['plain'][0]} != brute force {brute.cost}",
                case,
            )


# --------------------------------------------------------------------- #
# 6. Warm-started sweep engine vs the naive per-point sweep
# --------------------------------------------------------------------- #
class SweepNaiveOracle(Oracle):
    """Incumbent seeding must be result-neutral: the seeded engine's points
    are canonically identical to the unseeded serial reference sweep."""

    name = "sweep-naive"
    description = (
        "wordlength.engine.run_sweep (seeded) vs wordlength_sweep baseline"
    )
    default_examples = 1

    def strategy(self) -> st.SearchStrategy:
        return st.fixed_dictionaries(
            {"seed": st.integers(min_value=0, max_value=10**6)}
        )

    def check(self, case: dict) -> None:
        from ..core.ldafp import LdaFpConfig
        from ..core.pipeline import PipelineConfig
        from ..data.synthetic import make_synthetic_dataset
        from ..wordlength import SweepConfig, run_sweep, wordlength_sweep

        seed = int(case["seed"])
        train = make_synthetic_dataset(30, seed=seed)
        test = make_synthetic_dataset(60, seed=seed + 1)
        # relative_gap=0 closes every gap exactly, so seeding cannot legally
        # stop at a different (equally gap-certified) incumbent; no time
        # limit keeps the node schedule deterministic.
        config = PipelineConfig(
            method="lda-fp",
            ldafp=LdaFpConfig(max_nodes=120, time_limit=None, relative_gap=0.0),
        )
        word_lengths = (4, 5)
        reference = wordlength_sweep(train, test, word_lengths, pipeline_config=config)
        seeded = run_sweep(
            train,
            test,
            word_lengths,
            pipeline_config=config,
            sweep_config=SweepConfig(seed_incumbents=True),
        )
        for ref, got in zip(reference, seeded):
            if ref.canonical() != got.canonical():
                self.fail(
                    f"word length {ref.word_length}: seeded point "
                    f"{got.canonical()} != reference {ref.canonical()}",
                    case,
                )


# --------------------------------------------------------------------- #
# 7. Binary wire codec vs the direct engine path
# --------------------------------------------------------------------- #
class WireRoundtripOracle(Oracle):
    """The ``repro.serve-wire/v1`` codec must be bit-transparent: a request
    encoded, decoded, and served must produce exactly the bits of serving
    the original array directly (both the float and raw-word lanes), and
    the response codec must round-trip every result field.  Adversarial
    frames of all nine kinds (truncation, bit flips, ragged lengths, header
    corruption) must
    produce a clean ``DataError`` — never another exception and never a
    partially decoded frame."""

    name = "wire_roundtrip"
    description = (
        "serve.wire encode/decode round-trip vs direct "
        "serve.BatchInferenceEngine, bit for bit, plus malformed-frame "
        "robustness (clean DataError only)"
    )
    default_examples = 60

    def strategy(self) -> st.SearchStrategy:
        return st.one_of(cst.wire_cases(), cst.wire_frame_mutations())

    def check(self, case: dict) -> None:
        from ..errors import DataError
        from ..serve import wire

        if "frame_hex" in case:
            try:
                wire.decode_frame(bytes.fromhex(case["frame_hex"]))
            except DataError:
                return  # the contract: malformed input -> clean DataError
            except Exception as exc:  # noqa: BLE001 - the property under test
                self.fail(
                    f"mutation {case['op']!r} raised {type(exc).__name__} "
                    f"instead of DataError: {exc}",
                    case,
                )
            return  # a mutation may still decode cleanly (e.g. payload flip)

        from ..serve.engine import BatchInferenceEngine

        classifier = cst.case_classifier(case)
        engine = BatchInferenceEngine(classifier)
        frame = cst.case_wire_frame(case)
        decoded, consumed = wire.decode_frame(frame)
        if consumed != len(frame):
            self.fail(f"decoder consumed {consumed} of {len(frame)} bytes", case)
        if not isinstance(decoded, wire.WireRequest):
            self.fail(f"request decoded as {type(decoded).__name__}", case)
        if decoded.raw != bool(case["raw"]) or decoded.model != case.get("model"):
            self.fail(
                f"header fields changed: raw={decoded.raw} model={decoded.model}",
                case,
            )
        if decoded.deadline_ms != int(case["deadline_ms"]):
            self.fail(f"deadline changed: {decoded.deadline_ms}", case)

        if case["raw"]:
            direct = np.asarray(case["feature_raws"], dtype=np.int64)
            want = engine.run_raw(direct)
            got = engine.run_raw(decoded.features)
        else:
            direct = cst.case_features(case)
            want = engine.run(direct)
            got = engine.run(decoded.features)
        for field in (
            "projection_raws",
            "labels",
            "product_overflowed",
            "accumulator_overflowed",
        ):
            want_arr = np.asarray(getattr(want, field))
            got_arr = np.asarray(getattr(got, field))
            if not np.array_equal(want_arr, got_arr):
                self.fail(
                    f"wire-decoded batch diverges on {field}: "
                    f"{got_arr.tolist()} != {want_arr.tolist()}",
                    case,
                )

        response = wire.encode_response(
            "f" * 64,
            want.projection_raws,
            want.labels,
            want.product_overflow_events,
            want.accumulator_overflow_events,
        )
        answer, _ = wire.decode_frame(response)
        if not isinstance(answer, wire.WireResponse):
            self.fail(f"response decoded as {type(answer).__name__}", case)
        if list(answer.projection_raws) != [int(r) for r in want.projection_raws]:
            self.fail("response projection raws changed in transit", case)
        if list(answer.labels) != [int(v) for v in want.labels]:
            self.fail("response labels changed in transit", case)
        if (
            answer.product_overflow_events != want.product_overflow_events
            or answer.accumulator_overflow_events != want.accumulator_overflow_events
        ):
            self.fail("response overflow counters changed in transit", case)


def fxfir_reference(fir: "FixedPointFir", signal: np.ndarray) -> np.ndarray:
    """The fixed-point FIR one output and one tap at a time.

    The reference the vectorized kernel behind
    :meth:`~repro.signal.fxfir.FixedPointFir.apply` and its stepper is held
    to: per output, products of the taps with the samples seen so far
    (pre-signal terms skipped), each narrowed to ``fmt`` with the filter's
    rounding and added into the guarded accumulator with a wrap after every
    add, then the sum saturated into ``fmt``.  Python ints throughout, so it
    is exact at every word length.
    """
    from ..fixedpoint.overflow import OverflowMode, apply_overflow_raw
    from ..fixedpoint.quantize import quantize_raw
    from ..fixedpoint.rounding import shift_right_rounded

    fmt = fir.fmt
    acc_fmt = fir.accumulator_format
    x_raws = np.asarray(
        quantize_raw(
            np.asarray(signal, dtype=np.float64), fmt,
            rounding=fir.rounding, overflow=OverflowMode.SATURATE,
        ),
        dtype=np.int64,
    )
    taps = fir.tap_raws
    n, m = x_raws.size, taps.size
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        acc = 0
        for j in range(min(m, i + 1)):
            full = int(taps[j]) * int(x_raws[i - j])
            product = shift_right_rounded(full, fmt.fraction_bits, fir.rounding)
            acc = int(apply_overflow_raw(acc + product, acc_fmt, OverflowMode.WRAP))
        out[i] = int(apply_overflow_raw(acc, fmt, OverflowMode.SATURATE))
    return out.astype(np.float64) * fmt.resolution


# --------------------------------------------------------------------- #
# 7b. Chunked streaming vs one-shot batch processing
# --------------------------------------------------------------------- #
class StreamVsBatchOracle(Oracle):
    """Arbitrary chunk partitions of a waveform through the stateful
    steppers (:mod:`repro.signal.stream`) must be **bit-identical** to the
    one-shot calls on the concatenated signal: fixed-point biquad, the
    float biquad cascade (power-line notch), the exactly-rounded float FIR,
    the decimator, and the hop-strided windower.  The fixed-point FIR's
    one-shot call *is* its stepper, so both are held to the per-sample
    :func:`fxfir_reference` instead.  The
    second case family replays interleaved serving-plane sessions through
    one :class:`~repro.serve.stream.StreamManager` and requires every
    session's windows/features/raws/labels to match
    :func:`~repro.serve.stream.run_offline` on its waveform alone — chunk
    boundaries and neighbouring sessions must be unobservable."""

    name = "stream_vs_batch"
    description = (
        "signal.stream chunked steppers + serve.stream sessions vs the "
        "per-sample fxfir reference and the one-shot fxbiquad/preprocess/"
        "windowing pipeline, bit for bit"
    )
    default_examples = 25

    def strategy(self) -> st.SearchStrategy:
        return st.one_of(cst.waveform_cases(), cst.stream_sessions())

    def check(self, case: dict) -> None:
        if case["kind"] == "waveform":
            self._check_waveform(case)
        else:
            self._check_sessions(case)

    # ----------------------------------------------------------------- #
    def _chunks(self, samples: list, sizes: list) -> "list[np.ndarray]":
        x = np.asarray(samples, dtype=np.float64)
        out, start = [], 0
        for size in sizes:
            out.append(x[start : start + size])
            start += size
        return out

    def _check_waveform(self, case: dict) -> None:
        from ..errors import DataError
        from ..fixedpoint.qformat import QFormat
        from ..fixedpoint.rounding import RoundingMode
        from ..signal.filters import fir_direct
        from ..signal.fxbiquad import FixedPointBiquad
        from ..signal.fxfir import FixedPointFir
        from ..signal.preprocess import (
            decimate,
            design_notch,
            remove_powerline,
        )
        from ..signal.stream import (
            DecimatorStream,
            FirStream,
            PowerlineStream,
            WindowStream,
            slice_windows,
        )

        signal = np.asarray(case["samples"], dtype=np.float64)
        chunks = self._chunks(case["samples"], case["chunk_sizes"])
        fmt = QFormat(int(case["integer_bits"]), int(case["fraction_bits"]))
        rounding = RoundingMode(case["rounding"])
        taps = np.asarray(case["fir_taps"], dtype=np.float64)

        def run_chunked(stream) -> np.ndarray:
            return np.concatenate([stream.process(c) for c in chunks])

        # 1. Fixed-point FIR: the vectorized kernel, chunked and one-shot,
        #    vs the per-sample, per-tap reference loop.
        fxfir = FixedPointFir(
            taps=taps, fmt=fmt, guard_bits=int(case["guard_bits"]),
            rounding=rounding,
        )
        want = fxfir_reference(fxfir, signal)
        if not np.array_equal(run_chunked(fxfir.stream()), want):
            self.fail("fxfir chunked stream != per-sample reference", case)
        if not np.array_equal(fxfir.apply(signal), want):
            self.fail("fxfir one-shot apply != per-sample reference", case)

        # 2. Fixed-point biquad (notch section).  Quantization may
        #    destabilize the section at narrow formats; the constructor
        #    rejects that identically on both paths, so it is skipped.
        section = design_notch(
            float(case["mains_hz"]), float(case["sample_rate"]),
            quality=float(case["quality"]),
        )
        try:
            fxbq = FixedPointBiquad(section=section, fmt=fmt, rounding=rounding)
        except DataError:
            fxbq = None
        if fxbq is not None and not np.array_equal(
            run_chunked(fxbq.stream()), fxbq.apply(signal)
        ):
            self.fail("fxbiquad chunked stream != one-shot apply", case)

        # 3. Float notch cascade: carried DF2T registers vs apply_biquads.
        kwargs = dict(
            mains_hz=float(case["mains_hz"]),
            harmonics=int(case["harmonics"]),
            quality=float(case["quality"]),
        )
        chunked = run_chunked(PowerlineStream(float(case["sample_rate"]), **kwargs))
        one_shot = remove_powerline(signal, float(case["sample_rate"]), **kwargs)
        if not np.array_equal(chunked, one_shot):
            self.fail("powerline chunked stream != remove_powerline", case)

        # 4. Float FIR: exactly-rounded window sums are partition-blind.
        if not np.array_equal(
            run_chunked(FirStream(taps)), fir_direct(taps, signal)
        ):
            self.fail("float FIR chunked stream != fir_direct", case)

        # 5. Decimator (needs the flush tail for the one-shot alignment).
        factor = int(case["decim_factor"])
        num_taps = int(case["decim_taps"])
        decimator = DecimatorStream(factor, num_taps=num_taps)
        pieces = [decimator.process(c) for c in chunks]
        pieces.append(decimator.flush())
        if not np.array_equal(
            np.concatenate(pieces), decimate(signal, factor, num_taps=num_taps)
        ):
            self.fail("chunked decimation != one-shot decimate", case)

        # 6. Windower: emitted windows == the one-shot slices, in order.
        window_size, hop = int(case["window_size"]), int(case["hop"])
        stream = WindowStream(window_size, hop)
        got = [w for c in chunks for w in stream.process(c)]
        want = slice_windows(signal, window_size, hop)
        if len(got) != len(want) or any(
            not np.array_equal(g, w) for g, w in zip(got, want)
        ):
            self.fail(
                f"windower emitted {len(got)} windows != {len(want)} slices "
                f"(or contents diverge)",
                case,
            )

    # ----------------------------------------------------------------- #
    def _check_sessions(self, case: dict) -> None:
        from ..serve.registry import ModelRegistry
        from ..serve.stream import (
            STREAM_NUM_FEATURES,
            FrontEndConfig,
            StreamManager,
            run_offline,
        )

        classifier = cst.case_classifier(
            {
                "integer_bits": case["integer_bits"],
                "fraction_bits": case["fraction_bits"],
                "rounding": case["rounding"],
                "polarity": case["polarity"],
                "weight_raws": case["weight_raws"],
                "threshold_raw": case["threshold_raw"],
            }
        )
        registry = ModelRegistry()
        registry.register("m", classifier)
        model = registry.get("m")
        band_lo = float(case["band_lo"])
        config = FrontEndConfig(
            sample_rate=float(case["sample_rate"]),
            num_taps=int(case["num_taps"]),
            band=(band_lo, band_lo + float(case["band_width"])),
            guard_bits=int(case["guard_bits"]),
            window_size=int(case["window_size"]),
            hop=int(case["hop"]),
        )

        manager = StreamManager(max_sessions=len(case["sessions"]) + 1)
        states = []
        for spec in case["sessions"]:
            session = manager.open(spec["key"], model, config)
            states.append(
                {
                    "session": session,
                    "chunks": self._chunks(spec["samples"], spec["chunk_sizes"]),
                    "next": 0,
                    "features": [],
                    "indices": [],
                }
            )
        for index in case["schedule"]:
            state = states[index]
            features, indices = state["session"].process_chunk(
                state["next"], state["chunks"][state["next"]]
            )
            state["next"] += 1
            if len(indices):
                state["features"].append(features)
                state["indices"].extend(indices)
        for spec, state in zip(case["sessions"], states):
            offline = run_offline(
                model, config, np.asarray(spec["samples"], dtype=np.float64)
            )
            if state["indices"] != list(range(offline["num_windows"])):
                self.fail(
                    f"session {spec['key']}: window indices "
                    f"{state['indices']} != offline "
                    f"{list(range(offline['num_windows']))}",
                    case,
                )
            got_features = (
                np.concatenate(state["features"])
                if state["features"]
                else np.empty((0, STREAM_NUM_FEATURES))
            )
            if not np.array_equal(got_features, offline["features"]):
                self.fail(
                    f"session {spec['key']}: streamed features diverge from "
                    "run_offline",
                    case,
                )
            if offline["num_windows"]:
                result = model.engine.run(got_features)
                if not np.array_equal(
                    np.asarray(result.projection_raws, dtype=np.int64),
                    np.asarray(offline["projection_raws"], dtype=np.int64),
                ) or not np.array_equal(
                    np.asarray(result.labels), np.asarray(offline["labels"])
                ):
                    self.fail(
                        f"session {spec['key']}: classified raws/labels "
                        "diverge from run_offline",
                        case,
                    )
            totals = state["session"].summary()
            if totals["samples"] != len(spec["samples"]) or totals[
                "windows"
            ] != offline["num_windows"]:
                self.fail(
                    f"session {spec['key']}: lifetime totals {totals} "
                    f"disagree with the waveform",
                    case,
                )
        manager.close_all()


# --------------------------------------------------------------------- #
# 8. Cluster serving plane vs the single-process server
# --------------------------------------------------------------------- #
class ClusterVsSingleOracle(Oracle):
    """A 2-worker ``SO_REUSEPORT`` cluster must answer byte-for-byte like
    the single-process server and like the direct engine on the same
    artifact — over the binary wire protocol and HTTP JSON alike.  Boots
    real worker processes, so the default budget is one (seeded) case."""

    name = "cluster_vs_single"
    description = (
        "serve.cluster 2-worker plane vs single-process InferenceServer "
        "vs direct engine, wire + JSON, bit for bit"
    )
    default_examples = 1

    def strategy(self) -> st.SearchStrategy:
        return st.fixed_dictionaries(
            {"seed": st.integers(min_value=0, max_value=10**6)}
        )

    def check(self, case: dict) -> None:
        import json
        import tempfile
        import urllib.request
        from pathlib import Path

        from ..core.serialize import save_classifier
        from ..serve import (
            ClusterConfig,
            ClusterSupervisor,
            ModelRegistry,
            ServeConfig,
            WireClient,
            WireResponse,
            start_server_thread,
        )

        seed = int(case["seed"])
        rng = np.random.default_rng(seed)
        classifier = cst.random_classifier(rng, 3, 5, 8)
        features = rng.uniform(-6.0, 6.0, size=(16, 8))
        raws = rng.integers(
            classifier.fmt.min_raw, classifier.fmt.max_raw + 1, size=(16, 8)
        ).astype(np.int64)

        registry = ModelRegistry()
        registry.register("m", classifier)
        engine = registry.get("m").engine
        want_real = engine.run(features)
        want_raw = engine.run_raw(raws)

        def _query(port: int) -> dict:
            out = {}
            with WireClient("127.0.0.1", port) as client:
                real = client.request(features, model="m")
                raw = client.request(raws, raw=True, model="m")
            for label, reply in (("real", real), ("raw", raw)):
                if not isinstance(reply, WireResponse):
                    self.fail(f"{label} wire reply was {reply!r}", case)
                out[label] = reply
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/predict",
                data=json.dumps(
                    {"model": "m", "features": features.tolist()}
                ).encode("utf-8"),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10.0) as response:
                out["json"] = json.loads(response.read())
            return out

        with tempfile.TemporaryDirectory() as tmp:
            artifact = str(Path(tmp) / "m.json")
            save_classifier(classifier, artifact)
            single = start_server_thread(registry, ServeConfig(port=0))
            try:
                supervisor = ClusterSupervisor(
                    ClusterConfig(
                        artifacts=(("m", artifact),),
                        workers=2,
                    )
                )
                supervisor.start()
                try:
                    answers = {
                        "single": _query(single.port),
                        "cluster": _query(supervisor.shard_ports[0]),
                    }
                finally:
                    supervisor.stop()
            finally:
                single.stop()

        for side, got in answers.items():
            if list(got["real"].projection_raws) != [
                int(r) for r in want_real.projection_raws
            ]:
                self.fail(f"{side} real-lane projection raws diverge", case)
            if list(got["real"].labels) != [int(v) for v in want_real.labels]:
                self.fail(f"{side} real-lane labels diverge", case)
            if list(got["raw"].projection_raws) != [
                int(r) for r in want_raw.projection_raws
            ]:
                self.fail(f"{side} raw-lane projection raws diverge", case)
            if list(got["raw"].labels) != [int(v) for v in want_raw.labels]:
                self.fail(f"{side} raw-lane labels diverge", case)
            if got["json"]["labels"] != [int(v) for v in want_real.labels]:
                self.fail(f"{side} JSON labels diverge", case)
        if answers["single"]["json"]["content_hash"] != answers["cluster"][
            "json"
        ]["content_hash"]:
            self.fail("single and cluster served different content hashes", case)


ALL_ORACLES = (
    EngineDatapathOracle(),
    NativeVsFastOracle(),
    SerializeRoundtripOracle(),
    WireRoundtripOracle(),
    StreamVsBatchOracle(),
    CertifierReplayOracle(),
    PresolveVsPlainOracle(),
    SweepNaiveOracle(),
    ClusterVsSingleOracle(),
)

ORACLES = {oracle.name: oracle for oracle in ALL_ORACLES}


def get_oracle(name: str) -> Oracle:
    """Look up an oracle by registry name."""
    oracle = ORACLES.get(name)
    if oracle is None:
        raise InputValidationError(
            f"unknown oracle {name!r}; available: {', '.join(sorted(ORACLES))}"
        )
    return oracle
