"""Shared hypothesis strategies for the fixed-point conformance suite.

Before this module existed, every property-test file grew its own ad-hoc
copies of the same generators — a ``QFormat`` builder here, a rounding-mode
list there, a seeded random-classifier helper in a third place — and the
copies drifted (different bit ranges, different saturation habits).  This
module is the single source of those generators; the test suite and the
:mod:`repro.conformance.fuzzer` draw from the same distributions, so a case
the fuzzer minimizes is always expressible as a test input and vice versa.

Two kinds of exports:

- **hypothesis strategies** (:func:`qformats`, :func:`rounding_modes`,
  :func:`raw_words`, :func:`raw_word_lists`, :func:`weight_grids`,
  :func:`classifiers`, :func:`classifier_cases`, :func:`artifact_payloads`)
  for ``@given`` property tests and the fuzz driver;
- **seeded builders** (:func:`random_classifier`, :func:`case_classifier`,
  :func:`case_features`) shared by tests that drive ``numpy`` RNGs and by
  the witness replayer, which must rebuild the exact objects a serialized
  case describes.

Every strategy that feeds an oracle produces a plain-JSON ``dict`` (ints,
floats, strings, lists) so a failing example serializes directly into a
``repro.fuzz-witness/v1`` file with no custom encoding step.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from ..core.classifier import FixedPointLinearClassifier
from ..fixedpoint.overflow import OverflowMode
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.rounding import RoundingMode

__all__ = [
    "DETERMINISTIC_ROUNDING_MODES",
    "OVERFLOW_MODES",
    "qformats",
    "rounding_modes",
    "finite_floats",
    "raw_words",
    "raw_word_lists",
    "weight_grids",
    "classifiers",
    "classifier_cases",
    "artifact_payloads",
    "random_classifier",
    "case_classifier",
    "case_features",
    "wire_cases",
    "wire_frame_mutations",
    "case_wire_frame",
    "waveform_cases",
    "stream_sessions",
]

# The rounding modes with a deterministic narrowing rule (everything except
# stochastic) — the set every differential/property suite iterates over.
DETERMINISTIC_ROUNDING_MODES = (
    RoundingMode.NEAREST_AWAY,
    RoundingMode.NEAREST_EVEN,
    RoundingMode.FLOOR,
    RoundingMode.CEIL,
    RoundingMode.TOWARD_ZERO,
)

# The overflow policies a hardware datapath can implement (RAISE is a
# debugging aid, not a silicon behaviour, so the matrix tests skip it).
OVERFLOW_MODES = (OverflowMode.WRAP, OverflowMode.SATURATE)


def qformats(
    min_integer_bits: int = 1,
    max_integer_bits: int = 6,
    min_fraction_bits: int = 0,
    max_fraction_bits: int = 8,
) -> st.SearchStrategy:
    """``QFormat`` values with bit widths in the given (inclusive) ranges."""
    return st.builds(
        QFormat,
        integer_bits=st.integers(min_value=min_integer_bits, max_value=max_integer_bits),
        fraction_bits=st.integers(min_value=min_fraction_bits, max_value=max_fraction_bits),
    )


def rounding_modes() -> st.SearchStrategy:
    """One of the deterministic rounding modes."""
    return st.sampled_from(DETERMINISTIC_ROUNDING_MODES)


def finite_floats(bound: float = 100.0) -> st.SearchStrategy:
    """Finite floats in ``[-bound, bound]`` (no NaN/inf by construction)."""
    return st.floats(min_value=-bound, max_value=bound)


def raw_words(fmt: QFormat, beyond: int = 0) -> st.SearchStrategy:
    """Raw integer words of ``fmt``; ``beyond`` widens each side by that
    many multiples of the range so saturation/wrap paths get exercised."""
    span = fmt.max_raw - fmt.min_raw + 1
    return st.integers(
        min_value=fmt.min_raw - beyond * span, max_value=fmt.max_raw + beyond * span
    )


def raw_word_lists(
    fmt: QFormat, length: int, beyond: int = 0
) -> st.SearchStrategy:
    """Fixed-length lists of raw words (see :func:`raw_words`)."""
    return st.lists(raw_words(fmt, beyond=beyond), min_size=length, max_size=length)


def weight_grids(fmt: QFormat, length: int) -> st.SearchStrategy:
    """Grid-exact weight vectors of ``fmt`` as float lists.

    Raw words capped at 52 total bits convert to float64 exactly, and every
    ``qformats()`` default stays far below that, so the values are exact.
    """
    return raw_word_lists(fmt, length).map(
        lambda raws: [float(fmt.to_real(int(r))) for r in raws]
    )


@st.composite
def classifiers(
    draw,
    max_integer_bits: int = 5,
    max_fraction_bits: int = 5,
    max_features: int = 8,
) -> FixedPointLinearClassifier:
    """Grid-exact classifiers over small formats (both polarities)."""
    fmt = draw(
        qformats(max_integer_bits=max_integer_bits, max_fraction_bits=max_fraction_bits)
    )
    m = draw(st.integers(min_value=1, max_value=max_features))
    weights = np.asarray(draw(weight_grids(fmt, m)), dtype=np.float64)
    threshold_raw = draw(raw_words(fmt))
    return FixedPointLinearClassifier(
        weights=weights,
        threshold=float(fmt.to_real(int(threshold_raw))),
        fmt=fmt,
        rounding=draw(rounding_modes()),
        polarity=draw(st.sampled_from([1, -1])),
    )


@st.composite
def classifier_cases(
    draw,
    max_integer_bits: int = 5,
    max_fraction_bits: int = 5,
    max_features: int = 6,
    max_samples: int = 8,
    feature_beyond: int = 1,
    min_integer_bits: int = 1,
    min_fraction_bits: int = 0,
) -> dict:
    """JSON-able cases: a classifier plus a feature batch, all raw words.

    ``feature_raws`` may exceed the format range by up to ``feature_beyond``
    range-widths, so input saturation and the product/accumulator wrap paths
    are exercised (conversion back to reals is exact — see
    :func:`weight_grids`).
    """
    k = draw(st.integers(min_value=min_integer_bits, max_value=max_integer_bits))
    f = draw(st.integers(min_value=min_fraction_bits, max_value=max_fraction_bits))
    fmt = QFormat(k, f)
    m = draw(st.integers(min_value=1, max_value=max_features))
    n = draw(st.integers(min_value=1, max_value=max_samples))
    return {
        "integer_bits": k,
        "fraction_bits": f,
        "rounding": draw(rounding_modes()).value,
        "polarity": draw(st.sampled_from([1, -1])),
        "weight_raws": draw(raw_word_lists(fmt, m)),
        "threshold_raw": draw(raw_words(fmt)),
        "feature_raws": draw(
            st.lists(
                raw_word_lists(fmt, m, beyond=feature_beyond),
                min_size=n,
                max_size=n,
            )
        ),
    }


@st.composite
def artifact_payloads(
    draw, max_integer_bits: int = 6, max_fraction_bits: int = 8
) -> dict:
    """Valid ``repro.fixed-point-classifier.v1`` payload dicts.

    Every field is populated explicitly (no reliance on loader defaults) so
    a serialize round-trip must reproduce the payload verbatim.
    """
    k = draw(st.integers(min_value=1, max_value=max_integer_bits))
    f = draw(st.integers(min_value=0, max_value=max_fraction_bits))
    fmt = QFormat(k, f)
    m = draw(st.integers(min_value=1, max_value=8))
    return {
        "schema": "repro.fixed-point-classifier.v1",
        "format": {"integer_bits": k, "fraction_bits": f},
        "weight_raws": draw(raw_word_lists(fmt, m)),
        "threshold_raw": draw(raw_words(fmt)),
        "polarity": draw(st.sampled_from([1, -1])),
        "rounding": draw(rounding_modes()).value,
    }


@st.composite
def wire_cases(
    draw,
    max_integer_bits: int = 4,
    max_fraction_bits: int = 5,
    max_features: int = 6,
    max_samples: int = 6,
) -> dict:
    """:func:`classifier_cases` extended with wire-protocol request fields.

    ``raw`` selects the payload lane (int64 raw words served via
    ``run_raw`` vs float64 reals served via ``run``), ``model`` the
    addressed registry key (None = default-model frames), ``deadline_ms``
    the soft deadline carried in the frame header.
    """
    case = draw(
        classifier_cases(
            max_integer_bits=max_integer_bits,
            max_fraction_bits=max_fraction_bits,
            max_features=max_features,
            max_samples=max_samples,
        )
    )
    case["raw"] = draw(st.booleans())
    case["deadline_ms"] = draw(st.integers(min_value=0, max_value=60_000))
    case["model"] = draw(
        st.one_of(st.none(), st.sampled_from(["ecg", "clf", "m0", "bci-8"]))
    )
    return case


def case_wire_frame(case: dict) -> bytes:
    """Encode the request frame a :func:`wire_cases` dict describes."""
    from ..fixedpoint.qformat import QFormat
    from ..serve import wire

    if case["raw"]:
        features = np.asarray(case["feature_raws"], dtype=np.int64)
    else:
        fmt = QFormat(int(case["integer_bits"]), int(case["fraction_bits"]))
        features = np.asarray(case["feature_raws"], dtype=np.float64) * fmt.resolution
    return wire.encode_request(
        features,
        raw=bool(case["raw"]),
        model=case.get("model"),
        deadline_ms=int(case["deadline_ms"]),
    )


@st.composite
def _wire_frames(draw, kind: int) -> bytes:
    """One valid frame of ``kind`` (1-9) with small drawn contents."""
    from ..serve import wire

    if kind == wire.KIND_REQUEST:
        return case_wire_frame(draw(wire_cases(max_samples=3)))
    if kind == wire.KIND_ERROR:
        return wire.encode_error(
            draw(st.sampled_from([400, 404, 409, 503])),
            draw(st.text(max_size=20)),
            shed=draw(st.booleans()),
        )
    n = draw(st.integers(min_value=0, max_value=3))
    words = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
    labels = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    counts = st.integers(min_value=0, max_value=2**32 - 1)
    digest = draw(st.text(alphabet="0123456789abcdef", max_size=64))
    key = draw(st.text(min_size=1, max_size=8))
    if kind == wire.KIND_RESPONSE:
        return wire.encode_response(
            digest, draw(words), draw(labels), draw(counts), draw(counts)
        )
    if kind == wire.KIND_STREAM_OPEN:
        config = st.dictionaries(st.text(max_size=6), st.integers(), max_size=3)
        return wire.encode_stream_open(key, draw(config))
    if kind == wire.KIND_STREAM_OPENED:
        return wire.encode_stream_opened(key, digest)
    if kind == wire.KIND_STREAM_CHUNK:
        samples = st.lists(finite_floats(8.0), min_size=1, max_size=4)
        return wire.encode_stream_chunk(key, draw(counts), draw(samples))
    if kind == wire.KIND_STREAM_RESULT:
        indices = st.lists(counts, min_size=n, max_size=n)
        return wire.encode_stream_result(
            draw(counts), draw(indices), draw(words), draw(labels),
            draw(counts), draw(counts),
        )
    if kind == wire.KIND_STREAM_CLOSE:
        return wire.encode_stream_close(key)
    return wire.encode_stream_closed(key, draw(counts), n, n)


@st.composite
def wire_frame_mutations(draw) -> dict:
    """Adversarial wire frames: a valid frame of any kind, then one corruption.

    The contract under test (see the ``wire_roundtrip`` oracle and
    ``tests/test_serve_wire.py``): the decoder answers *any* byte string
    with either a clean :class:`~repro.errors.DataError` or a fully decoded
    frame — never another exception type, never a hang, never partially
    decoded output.  The base frame is drawn from all nine kinds, so every
    decoder meets truncation, length, reserved-field and kind corruption;
    the dtype and shape mutations exist only for kind-1 requests.  Cases
    are JSON-able (the frame travels as hex) so shrunk examples replay from
    a witness file.
    """
    from ..serve import wire

    kind = draw(st.integers(min_value=wire.KIND_REQUEST, max_value=wire.KIND_STREAM_CLOSED))
    frame = bytearray(draw(_wire_frames(kind)))
    ops = ["truncate", "flip", "magic", "length_up", "length_huge", "kind", "random"]
    if kind != wire.KIND_ERROR:  # its shed flag sits where others reserve a byte
        ops.append("reserved")
    if kind == wire.KIND_REQUEST:
        ops += ["dtype", "shape"]
    op = draw(st.sampled_from(ops))
    if op == "truncate":
        frame = frame[: draw(st.integers(min_value=0, max_value=len(frame) - 1))]
    elif op == "flip":
        pos = draw(st.integers(min_value=0, max_value=len(frame) - 1))
        frame[pos] ^= draw(st.integers(min_value=1, max_value=255))
    elif op == "magic":
        frame[0:4] = draw(st.binary(min_size=4, max_size=4))
    elif op == "length_up":
        declared = int.from_bytes(frame[4:8], "little")
        bumped = min(declared + draw(st.integers(1, 9999)), 0xFFFFFFFF)
        frame[4:8] = bumped.to_bytes(4, "little")
    elif op == "length_huge":
        frame[4:8] = draw(st.integers(2**24, 2**32 - 1)).to_bytes(4, "little")
    elif op == "kind":
        frame[8] = draw(st.integers(min_value=0, max_value=255))
    elif op == "reserved" and kind == wire.KIND_REQUEST:
        frame[10:12] = draw(st.integers(1, 0xFFFF)).to_bytes(2, "little")
    elif op == "reserved":
        frame[9] = draw(st.integers(min_value=1, max_value=255))
    elif op == "dtype":
        frame[9] = draw(st.integers(min_value=2, max_value=255))
    elif op == "shape":
        # n_samples field of the request header (magic+len+BBHIH = offset 18).
        frame[18:22] = draw(st.integers(0, 2**31)).to_bytes(4, "little")
    elif op == "random":
        frame = bytearray(draw(st.binary(min_size=0, max_size=200)))
    return {"frame_hex": bytes(frame).hex(), "op": op, "kind": kind}


@st.composite
def _chunk_partitions(draw, total: int) -> list:
    """A list of chunk sizes (each >= 1) summing exactly to ``total``."""
    sizes = []
    remaining = total
    while remaining > 0:
        size = draw(st.integers(min_value=1, max_value=remaining))
        sizes.append(size)
        remaining -= size
    return sizes


@st.composite
def waveform_cases(
    draw,
    min_samples: int = 8,
    max_samples: int = 120,
) -> dict:
    """Waveform + chunk-partition cases for the ``stream_vs_batch`` oracle.

    One case drives *every* stateful stepper in :mod:`repro.signal.stream`
    against its reference on the same samples: the fixed-point FIR (the
    per-sample loop) and biquad, the float FIR / biquad cascade (power-line
    notch), the decimator, and the hop-strided windower.  Everything is plain JSON so
    a shrunk failing partition replays from a witness file.

    A second branch draws long filters, odd 127 to ``MAX_NUM_TAPS`` (255)
    taps over 130-200 samples: a FIR kernel block then holds 64-129
    outputs, so every such case crosses at least one block edge.
    """
    from ..serve.stream import MAX_NUM_TAPS

    n, num_taps = draw(
        st.one_of(
            st.tuples(
                st.integers(min_value=min_samples, max_value=max_samples),
                st.integers(min_value=1, max_value=7).map(lambda k: 2 * k + 1),
            ),
            st.tuples(
                st.integers(min_value=130, max_value=200),
                st.integers(min_value=63, max_value=MAX_NUM_TAPS // 2).map(
                    lambda k: 2 * k + 1
                ),
            ),
        )
    )
    # Narrow formats, plus wide ones (W 28..44) straddling the FIR
    # kernel's int64 rule, 2W + ceil(log2 taps) <= 63, so both of its
    # dtypes are fuzzed.  Wide formats draw samples up to full scale, so
    # their products really exceed int64.
    k, f, amplitude = draw(
        st.one_of(
            st.tuples(st.integers(2, 5), st.integers(3, 7), st.just(8.0)),
            st.integers(8, 16).flatmap(
                lambda k: st.tuples(
                    st.just(k), st.integers(20, 28), st.just(2.0 ** (k - 1))
                )
            ),
        )
    )
    fmt = QFormat(k, f)
    sample_rate = draw(st.sampled_from([200.0, 250.0, 360.0, 500.0]))
    return {
        "kind": "waveform",
        "samples": draw(
            st.lists(finite_floats(amplitude), min_size=n, max_size=n)
        ),
        "chunk_sizes": draw(_chunk_partitions(n)),
        "integer_bits": k,
        "fraction_bits": f,
        "rounding": draw(rounding_modes()).value,
        "guard_bits": draw(st.integers(min_value=0, max_value=8)),
        "fir_taps": draw(weight_grids(fmt, num_taps)),
        "sample_rate": sample_rate,
        "mains_hz": draw(st.sampled_from([50.0, 60.0])),
        "harmonics": draw(st.integers(min_value=1, max_value=3)),
        "quality": draw(st.floats(min_value=5.0, max_value=50.0)),
        "decim_factor": draw(st.integers(min_value=1, max_value=4)),
        "decim_taps": draw(st.sampled_from([15, 31])),
        "window_size": draw(st.integers(min_value=1, max_value=24)),
        "hop": draw(st.integers(min_value=1, max_value=32)),
    }


@st.composite
def stream_sessions(
    draw,
    max_sessions: int = 3,
    min_samples: int = 20,
    max_samples: int = 120,
) -> dict:
    """Interleaved serving-plane sessions for ``stream_vs_batch``.

    Each case is 1-3 sessions over one pinned model + front-end config,
    each session with its own waveform and chunk partition, plus an
    explicit interleaving ``schedule`` of session indices — the oracle
    replays the schedule through one :class:`~repro.serve.stream
    .StreamManager` and requires every session's windows, features, raws,
    and labels to be bit-identical to :func:`~repro.serve.stream
    .run_offline` on that session's waveform alone (state isolation).
    """
    k = draw(st.integers(min_value=3, max_value=5))
    f = draw(st.integers(min_value=4, max_value=7))
    fmt = QFormat(k, f)
    num_sessions = draw(st.integers(min_value=1, max_value=max_sessions))
    sessions = []
    for i in range(num_sessions):
        n = draw(st.integers(min_value=min_samples, max_value=max_samples))
        sessions.append(
            {
                "key": f"s{i}",
                "samples": draw(
                    st.lists(finite_floats(4.0), min_size=n, max_size=n)
                ),
                "chunk_sizes": draw(_chunk_partitions(n)),
            }
        )
    # Fair interleaving: every (session, chunk) pair appears exactly once,
    # in a drawn global order (chunks stay in order within a session).
    multiset = [
        i for i, s in enumerate(sessions) for _ in s["chunk_sizes"]
    ]
    schedule = draw(st.permutations(multiset))
    sample_rate = draw(st.sampled_from([200.0, 250.0, 360.0]))
    return {
        "kind": "sessions",
        "sessions": sessions,
        "schedule": list(schedule),
        "sample_rate": sample_rate,
        "num_taps": draw(st.integers(min_value=1, max_value=15)) * 2 + 1,
        "band_lo": draw(st.floats(min_value=0.5, max_value=8.0)),
        "band_width": draw(st.floats(min_value=5.0, max_value=60.0)),
        "guard_bits": draw(st.integers(min_value=2, max_value=8)),
        "window_size": draw(st.integers(min_value=40, max_value=64)),
        "hop": draw(st.integers(min_value=1, max_value=80)),
        "integer_bits": k,
        "fraction_bits": f,
        "rounding": draw(rounding_modes()).value,
        "polarity": draw(st.sampled_from([1, -1])),
        "weight_raws": draw(raw_word_lists(fmt, 8)),
        "threshold_raw": draw(raw_words(fmt)),
    }


# --------------------------------------------------------------------- #
# Seeded builders (shared by rng-driven tests and the witness replayer)
# --------------------------------------------------------------------- #
def random_classifier(
    rng: np.random.Generator,
    integer_bits: int,
    fraction_bits: int,
    num_features: int,
    rounding: RoundingMode = RoundingMode.NEAREST_AWAY,
    polarity: int = 1,
) -> FixedPointLinearClassifier:
    """A grid-exact classifier with uniform random raw weights/threshold."""
    fmt = QFormat(integer_bits, fraction_bits)
    weight_raws = rng.integers(fmt.min_raw, fmt.max_raw + 1, size=num_features)
    threshold_raw = int(rng.integers(fmt.min_raw, fmt.max_raw + 1))
    return FixedPointLinearClassifier(
        weights=np.array([fmt.to_real(int(r)) for r in weight_raws], dtype=np.float64),
        threshold=float(fmt.to_real(threshold_raw)),
        fmt=fmt,
        rounding=rounding,
        polarity=polarity,
    )


def case_classifier(case: dict) -> FixedPointLinearClassifier:
    """Rebuild the classifier a :func:`classifier_cases` dict describes."""
    fmt = QFormat(int(case["integer_bits"]), int(case["fraction_bits"]))
    return FixedPointLinearClassifier(
        weights=np.array(
            [fmt.to_real(int(r)) for r in case["weight_raws"]], dtype=np.float64
        ),
        threshold=float(fmt.to_real(int(case["threshold_raw"]))),
        fmt=fmt,
        rounding=RoundingMode(case.get("rounding", "nearest-away")),
        polarity=int(case.get("polarity", 1)),
    )


def case_features(case: dict) -> np.ndarray:
    """The real-valued ``(n, M)`` feature batch of a case (exact floats)."""
    fmt = QFormat(int(case["integer_bits"]), int(case["fraction_bits"]))
    raws = np.asarray(case["feature_raws"], dtype=np.float64)
    return raws * fmt.resolution
