"""``repro.serve-wire/v1`` — the compact binary predict protocol.

JSON keeps the single-request path auditable, but it is the wrong hot
path for a saturated serving plane: every sample costs a float parse, a
list build, and a dict allocation.  This codec replaces all of that with
one length-prefixed frame whose payload is a raw little-endian array —
``np.frombuffer`` decodes a whole batch into the engine's ``(n, M)``
int64/float64 layout with **zero per-sample Python work**, which is what
lets one worker push the native/int64 batch path at wire speed.

Frame layout (all integers little-endian)::

    magic     4 bytes   b"RPW1"
    body_len  uint32    length of everything after this field
    body      body_len bytes

Because every HTTP/1.1 request starts with an ASCII method token and no
method starts with ``RPW1``, the serving socket can carry both protocols:
the server sniffs the first four bytes of each connection and dispatches.
Binary connections are persistent (many frames per connection); the HTTP
side keeps its one-request ``Connection: close`` discipline.

Request body (``kind=1``)::

    kind        uint8    1
    dtype       uint8    0 = float64 features, 1 = int64 raw words
    reserved    uint16   must be 0
    deadline_ms uint32   soft deadline for this request (0 = none)
    key_len     uint16   model-key byte length (0 = default model)
    n_samples   uint32
    n_features  uint32
    model_key   key_len bytes, UTF-8
    payload     8 * n_samples * n_features bytes, row-major

``dtype=1`` carries already-quantized raw words and is served through
:meth:`~repro.serve.engine.BatchInferenceEngine.run_raw` (words outside
the model's format saturate, exactly like input quantization); ``dtype=0``
carries real-valued float64 features and is served through ``run`` — the
same entry point the JSON path uses, so the two protocols are bit-identical
by construction (enforced by the ``wire_roundtrip`` and cluster oracles).

Response body (``kind=2``)::

    kind        uint8    2
    reserved    uint8    0
    status      uint16   200
    hash_len    uint16   content-hash byte length
    n_samples   uint32
    content_hash  hash_len bytes, ASCII hex
    projection_raws  8 * n_samples bytes, int64
    labels      n_samples bytes, uint8
    product_overflow_events      uint32
    accumulator_overflow_events  uint32

Error body (``kind=3``)::

    kind        uint8    3
    shed        uint8    1 when the request was load-shed, else 0
    status      uint16   400 / 404 / 503 / 500
    msg_len     uint16
    message     msg_len bytes, UTF-8 (at most 1024, cut on a character
                boundary)

Every malformed input — bad magic, truncated frame, ragged ``n*m`` vs
payload length, NaN/inf features, oversized frames — raises
:class:`~repro.errors.DataError` from the decoder; the server maps that to
a clean 400 error frame.  Every reader of the byte stream checks the
8-byte header through :func:`read_header` before it reads a body byte, so
a hostile peer cannot make a worker buffer more than ``MAX_BODY_BYTES``,
and the decoder never reads past ``body_len``.

Streaming frames (v2)
---------------------

``repro.serve-wire/v2`` adds six frame kinds for sessionful waveform
streaming (:mod:`repro.serve.stream`); kinds 1-3 are byte-identical to v1,
so every v1 client keeps working unchanged.  Sessions are addressed by a
client-chosen UTF-8 key carried on every streaming frame.

Stream-open body (``kind=4``)::

    kind        uint8    4
    reserved    uint8    0
    key_len     uint16   session-key byte length (1..256)
    config_len  uint32   JSON config byte length
    session_key key_len bytes, UTF-8
    config      config_len bytes, UTF-8 JSON object (front-end config;
                an optional "model" key selects the registry entry)

Stream-opened body (``kind=5``)::

    kind        uint8    5
    reserved    uint8    0
    status      uint16   200
    key_len     uint16
    hash_len    uint16   pinned model content-hash byte length
    session_key key_len bytes, UTF-8
    content_hash hash_len bytes, ASCII hex

Stream-chunk body (``kind=6``)::

    kind        uint8    6
    reserved    uint8    0
    key_len     uint16
    seq         uint32   chunk sequence number (0, 1, 2, ... in order)
    n_samples   uint32
    session_key key_len bytes, UTF-8
    samples     8 * n_samples bytes, float64 waveform samples

Stream-result body (``kind=7``)::

    kind        uint8    7
    reserved    uint8    0
    status      uint16   200
    seq         uint32   the chunk this result answers
    n_windows   uint32   windows completed by that chunk (may be 0)
    window_indices   4 * n_windows bytes, uint32 (session-global)
    projection_raws  8 * n_windows bytes, int64
    labels      n_windows bytes, uint8
    product_overflow_events      uint32
    accumulator_overflow_events  uint32

Stream-close body (``kind=8``)::

    kind        uint8    8
    reserved    uint8    0
    key_len     uint16
    session_key key_len bytes, UTF-8

Stream-closed body (``kind=9``)::

    kind        uint8    9
    reserved    uint8    0
    status      uint16   200
    key_len     uint16
    chunks      uint32   chunks accepted over the session's lifetime
    samples     uint64   waveform samples accepted
    windows     uint64   windows classified
    session_key key_len bytes, UTF-8

Session-state violations (unknown key, out-of-order ``seq``) answer with
an ordinary error frame (``kind=3``, status 409) and keep the connection
open — the frame boundary was sound, only the session state machine was
violated.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Union

import numpy as np

from ..errors import DataError, ServeError

__all__ = [
    "WireClient",
    "WIRE_SCHEMA",
    "WIRE_MAGIC",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "KIND_ERROR",
    "KIND_STREAM_OPEN",
    "KIND_STREAM_OPENED",
    "KIND_STREAM_CHUNK",
    "KIND_STREAM_RESULT",
    "KIND_STREAM_CLOSE",
    "KIND_STREAM_CLOSED",
    "DTYPE_FLOAT64",
    "DTYPE_RAW_INT64",
    "MAX_BODY_BYTES",
    "MAX_SAMPLES_PER_FRAME",
    "MAX_MODEL_KEY_BYTES",
    "MAX_SESSION_KEY_BYTES",
    "WireRequest",
    "WireResponse",
    "WireError",
    "StreamOpen",
    "StreamOpened",
    "StreamChunk",
    "StreamResult",
    "StreamClose",
    "StreamClosed",
    "encode_request",
    "encode_response",
    "encode_error",
    "encode_stream_open",
    "encode_stream_opened",
    "encode_stream_chunk",
    "encode_stream_result",
    "encode_stream_close",
    "encode_stream_closed",
    "read_header",
    "decode_body",
    "decode_frame",
    "split_frames",
]

WIRE_SCHEMA = "repro.serve-wire/v2"
WIRE_MAGIC = b"RPW1"

KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_ERROR = 3
KIND_STREAM_OPEN = 4
KIND_STREAM_OPENED = 5
KIND_STREAM_CHUNK = 6
KIND_STREAM_RESULT = 7
KIND_STREAM_CLOSE = 8
KIND_STREAM_CLOSED = 9

DTYPE_FLOAT64 = 0
DTYPE_RAW_INT64 = 1

#: Hard cap on one frame body; the HTTP path caps request bodies with it too.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Cap on samples per predict request or stream chunk, on both protocols.
MAX_SAMPLES_PER_FRAME = 65536
MAX_MODEL_KEY_BYTES = 256
MAX_SESSION_KEY_BYTES = 256
#: Cap on one stream-open config JSON (far beyond any real front end).
MAX_CONFIG_BYTES = 65536
_MAX_ERROR_BYTES = 1024  # error messages are cut to this many UTF-8 bytes

_HEADER = struct.Struct("<4sI")  # magic body_len
_REQUEST_HEAD = struct.Struct("<BBHIHII")  # kind dtype reserved deadline key n m
_RESPONSE_HEAD = struct.Struct("<BBHHI")  # kind reserved status hash_len n
_ERROR_HEAD = struct.Struct("<BBHH")  # kind shed status msg_len
_TRAILER = struct.Struct("<II")  # product / accumulator overflow events
_STREAM_OPEN_HEAD = struct.Struct("<BBHI")  # kind reserved key_len config_len
_STREAM_OPENED_HEAD = struct.Struct("<BBHHH")  # kind res status key_len hash_len
_STREAM_CHUNK_HEAD = struct.Struct("<BBHII")  # kind res key_len seq n_samples
_STREAM_RESULT_HEAD = struct.Struct("<BBHII")  # kind res status seq n_windows
_STREAM_CLOSE_HEAD = struct.Struct("<BBH")  # kind reserved key_len
_STREAM_CLOSED_HEAD = struct.Struct("<BBHHIQQ")  # ... chunks samples windows


@dataclass(frozen=True)
class WireRequest:
    """One decoded predict request.

    ``features`` is the ``(n_samples, n_features)`` payload array —
    ``float64`` real values when ``raw`` is False, ``int64`` raw words when
    True.  ``model`` is None when the frame addressed the default model.
    """

    features: np.ndarray
    raw: bool
    model: Optional[str] = None
    deadline_ms: int = 0


@dataclass(frozen=True)
class WireResponse:
    """One decoded predict response (see the module docstring for layout)."""

    status: int
    content_hash: str
    projection_raws: np.ndarray
    labels: np.ndarray
    product_overflow_events: int
    accumulator_overflow_events: int


@dataclass(frozen=True)
class WireError:
    """One decoded error frame; ``shed`` marks admission-control rejections."""

    status: int
    message: str
    shed: bool = False


@dataclass(frozen=True)
class StreamOpen:
    """One decoded stream-open frame: session key + front-end config.

    ``config`` is the decoded JSON object; an optional ``"model"`` key
    selects the registry entry, everything else parameterizes the signal
    front end (:class:`~repro.serve.stream.FrontEndConfig`).
    """

    key: str
    config: dict


@dataclass(frozen=True)
class StreamOpened:
    """Open acknowledgement: the session key and its pinned model hash."""

    status: int
    key: str
    content_hash: str


@dataclass(frozen=True)
class StreamChunk:
    """One decoded waveform chunk addressed to an open session."""

    key: str
    seq: int
    samples: np.ndarray


@dataclass(frozen=True)
class StreamResult:
    """Per-chunk answer: classifications of the windows the chunk completed."""

    status: int
    seq: int
    window_indices: np.ndarray
    projection_raws: np.ndarray
    labels: np.ndarray
    product_overflow_events: int
    accumulator_overflow_events: int


@dataclass(frozen=True)
class StreamClose:
    """A client's request to close one session."""

    key: str


@dataclass(frozen=True)
class StreamClosed:
    """Close acknowledgement with the session's lifetime totals."""

    status: int
    key: str
    chunks: int
    samples: int
    windows: int


_Frame = Union[
    WireRequest, WireResponse, WireError, StreamOpen, StreamOpened,
    StreamChunk, StreamResult, StreamClose, StreamClosed,
]


# --------------------------------------------------------------------- #
# Checks shared by every frame kind
# --------------------------------------------------------------------- #
def _at_most(count: int, limit: int, what: str) -> None:
    if count > limit:
        raise DataError(f"{what} is {count}; limit is {limit}")


def _uint32(value: int, what: str) -> int:
    if not 0 <= value <= 0xFFFFFFFF:
        raise DataError(f"{what} {value} outside [0, 2**32)")
    return int(value)


def _finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise DataError(f"{what} contain NaN or infinity")


def _need(data: bytes, count: int, what: str) -> None:
    if len(data) < count:
        raise DataError(
            f"truncated wire frame: {what} needs {count} bytes, got {len(data)}"
        )


def _head(head: struct.Struct, body: bytes, what: str) -> tuple:
    _need(body, head.size, f"{what} header")
    return head.unpack_from(body)


def _sized(body: bytes, reserved: int, expected: int, what: str) -> None:
    """A decoded header's reserved field must be 0 and its lengths exact."""
    if reserved != 0:
        raise DataError(f"{what} reserved field must be 0, got {reserved}")
    if len(body) != expected:
        raise DataError(
            f"ragged {what} frame: needs a {expected}-byte body, got {len(body)}"
        )


def _session_key(key: str) -> bytes:
    encoded = key.encode("utf-8")
    if not encoded:
        raise DataError("session key must be non-empty")
    _at_most(len(encoded), MAX_SESSION_KEY_BYTES, "session key length")
    return encoded


def _text(body: bytes, start: int, length: int, what: str,
          encoding: str = "utf-8") -> str:
    try:
        return body[start:start + length].decode(encoding)
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} is not valid {encoding}: {exc}") from exc


def _key(body: bytes, start: int, length: int) -> str:
    if length < 1:
        raise DataError("frame carries an empty session key")
    _at_most(length, MAX_SESSION_KEY_BYTES, "session key length")
    return _text(body, start, length, "session key")


def _frame(body: bytes) -> bytes:
    _at_most(len(body), MAX_BODY_BYTES, "frame body length")
    return _HEADER.pack(WIRE_MAGIC, len(body)) + body


def _array(values: Any, dtype: type) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=dtype))


# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #
def encode_request(
    features: np.ndarray,
    raw: bool = False,
    model: Optional[str] = None,
    deadline_ms: int = 0,
) -> bytes:
    """Encode an ``(n, M)`` batch (or one length-``M`` vector) as a frame.

    ``raw=True`` sends int64 raw words (served via ``run_raw``); otherwise
    float64 real features.  The sample/key/body caps are enforced here too,
    so a client cannot even build a frame its server would reject.
    """
    arr = _array(features, np.int64 if raw else np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise DataError(
            f"wire request needs a (n, M) batch with M >= 1, got shape {arr.shape}"
        )
    if not raw:
        _finite(arr, "wire request features")
    n, m = arr.shape
    _at_most(n, MAX_SAMPLES_PER_FRAME, "wire request sample count")
    key = (model or "").encode("utf-8")
    _at_most(len(key), MAX_MODEL_KEY_BYTES, "model key length")
    head = _REQUEST_HEAD.pack(
        KIND_REQUEST,
        DTYPE_RAW_INT64 if raw else DTYPE_FLOAT64,
        0,
        _uint32(deadline_ms, "deadline_ms"),
        len(key),
        n,
        m,
    )
    return _frame(head + key + arr.astype("<i8" if raw else "<f8", copy=False).tobytes())


def encode_response(
    content_hash: str,
    projection_raws: np.ndarray,
    labels: np.ndarray,
    product_overflow_events: int,
    accumulator_overflow_events: int,
    status: int = 200,
) -> bytes:
    """Encode one predict result as a response frame."""
    raws = _array(projection_raws, np.int64)
    labs = _array(labels, np.uint8)
    if raws.ndim != 1 or labs.shape != raws.shape:
        raise DataError(
            f"response arrays must be matching 1-d, got {raws.shape}/{labs.shape}"
        )
    digest = content_hash.encode("ascii")
    return _frame(
        _RESPONSE_HEAD.pack(KIND_RESPONSE, 0, int(status), len(digest), raws.size)
        + digest
        + raws.astype("<i8", copy=False).tobytes()
        + labs.tobytes()
        + _TRAILER.pack(int(product_overflow_events), int(accumulator_overflow_events))
    )


def encode_error(status: int, message: str, shed: bool = False) -> bytes:
    """Encode an error frame; ``shed=True`` marks load-shedding 503s.

    The UTF-8 message is cut to 1024 bytes on a character boundary, with
    unencodable characters (lone surrogates) replaced, so every error
    frame decodes.
    """
    msg = (
        message.encode("utf-8", "replace")[:_MAX_ERROR_BYTES]
        .decode("utf-8", "ignore")
        .encode("utf-8")
    )
    return _frame(
        _ERROR_HEAD.pack(KIND_ERROR, 1 if shed else 0, int(status), len(msg)) + msg
    )


def encode_stream_open(key: str, config: dict) -> bytes:
    """Encode a stream-open frame for session ``key`` with a config object."""
    if not isinstance(config, dict):
        raise DataError(f"stream config must be a JSON object, got {type(config)}")
    encoded_key = _session_key(key)
    payload = json.dumps(config, sort_keys=True).encode("utf-8")
    _at_most(len(payload), MAX_CONFIG_BYTES, "stream config length")
    head = _STREAM_OPEN_HEAD.pack(KIND_STREAM_OPEN, 0, len(encoded_key), len(payload))
    return _frame(head + encoded_key + payload)


def encode_stream_opened(key: str, content_hash: str, status: int = 200) -> bytes:
    """Encode the server's open acknowledgement with the pinned model hash."""
    encoded_key = _session_key(key)
    digest = content_hash.encode("ascii")
    head = _STREAM_OPENED_HEAD.pack(
        KIND_STREAM_OPENED, 0, int(status), len(encoded_key), len(digest)
    )
    return _frame(head + encoded_key + digest)


def encode_stream_chunk(key: str, seq: int, samples: np.ndarray) -> bytes:
    """Encode one waveform chunk (1-D float64) for session ``key``."""
    encoded_key = _session_key(key)
    arr = _array(samples, np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError(
            f"stream chunk needs a non-empty 1-D sample vector, got shape {arr.shape}"
        )
    _at_most(arr.size, MAX_SAMPLES_PER_FRAME, "stream chunk sample count")
    _finite(arr, "stream chunk samples")
    head = _STREAM_CHUNK_HEAD.pack(
        KIND_STREAM_CHUNK, 0, len(encoded_key), _uint32(seq, "chunk seq"), arr.size
    )
    return _frame(head + encoded_key + arr.astype("<f8", copy=False).tobytes())


def encode_stream_result(
    seq: int,
    window_indices: np.ndarray,
    projection_raws: np.ndarray,
    labels: np.ndarray,
    product_overflow_events: int,
    accumulator_overflow_events: int,
    status: int = 200,
) -> bytes:
    """Encode the classifications of the windows one chunk completed."""
    indices = _array(window_indices, np.uint32)
    raws = _array(projection_raws, np.int64)
    labs = _array(labels, np.uint8)
    if indices.ndim != 1 or raws.shape != indices.shape or labs.shape != indices.shape:
        raise DataError(
            f"stream result arrays must be matching 1-d, got "
            f"{indices.shape}/{raws.shape}/{labs.shape}"
        )
    return _frame(
        _STREAM_RESULT_HEAD.pack(KIND_STREAM_RESULT, 0, int(status), int(seq), indices.size)
        + indices.astype("<u4", copy=False).tobytes()
        + raws.astype("<i8", copy=False).tobytes()
        + labs.tobytes()
        + _TRAILER.pack(int(product_overflow_events), int(accumulator_overflow_events))
    )


def encode_stream_close(key: str) -> bytes:
    """Encode a close request for session ``key``."""
    encoded_key = _session_key(key)
    return _frame(_STREAM_CLOSE_HEAD.pack(KIND_STREAM_CLOSE, 0, len(encoded_key)) + encoded_key)


def encode_stream_closed(
    key: str, chunks: int, samples: int, windows: int, status: int = 200
) -> bytes:
    """Encode the close acknowledgement with the session's lifetime totals."""
    encoded_key = _session_key(key)
    head = _STREAM_CLOSED_HEAD.pack(
        KIND_STREAM_CLOSED,
        0,
        int(status),
        len(encoded_key),
        int(chunks),
        int(samples),
        int(windows),
    )
    return _frame(head + encoded_key)


# --------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------- #
def _decode_request(body: bytes) -> WireRequest:
    _kind, dtype, reserved, deadline_ms, key_len, n, m = _head(_REQUEST_HEAD, body, "request")
    if dtype not in (DTYPE_FLOAT64, DTYPE_RAW_INT64):
        raise DataError(f"unknown request payload dtype {dtype}")
    _at_most(key_len, MAX_MODEL_KEY_BYTES, "model key length")
    if n < 1 or m < 1:
        raise DataError(f"request declares an empty batch ({n} x {m})")
    _at_most(n, MAX_SAMPLES_PER_FRAME, "request sample count")
    key_end = _REQUEST_HEAD.size + key_len
    _sized(body, reserved, key_end + 8 * n * m, "request")
    model = _text(body, _REQUEST_HEAD.size, key_len, "model key")
    raw = dtype == DTYPE_RAW_INT64
    features = np.frombuffer(
        body, dtype="<i8" if raw else "<f8", count=n * m, offset=key_end
    ).reshape(n, m)
    if not raw:
        _finite(features, "request features")
    return WireRequest(
        features=features, raw=raw, model=model or None, deadline_ms=int(deadline_ms)
    )


def _decode_response(body: bytes) -> WireResponse:
    _kind, reserved, status, hash_len, n = _head(_RESPONSE_HEAD, body, "response")
    hash_end = _RESPONSE_HEAD.size + hash_len
    _sized(body, reserved, hash_end + 9 * n + _TRAILER.size, "response")
    product, accumulator = _TRAILER.unpack_from(body, hash_end + 9 * n)
    return WireResponse(
        status=int(status),
        content_hash=_text(body, _RESPONSE_HEAD.size, hash_len, "content hash", "ascii"),
        projection_raws=np.frombuffer(body, dtype="<i8", count=n, offset=hash_end),
        labels=np.frombuffer(body, dtype=np.uint8, count=n, offset=hash_end + 8 * n),
        product_overflow_events=int(product),
        accumulator_overflow_events=int(accumulator),
    )


def _decode_error(body: bytes) -> WireError:
    _kind, shed, status, msg_len = _head(_ERROR_HEAD, body, "error")
    _sized(body, 0, _ERROR_HEAD.size + msg_len, "error")  # byte 1 is the shed flag
    message = _text(body, _ERROR_HEAD.size, msg_len, "error message")
    return WireError(status=int(status), message=message, shed=bool(shed))


def _decode_stream_open(body: bytes) -> StreamOpen:
    _kind, reserved, key_len, config_len = _head(_STREAM_OPEN_HEAD, body, "stream-open")
    _at_most(config_len, MAX_CONFIG_BYTES, "stream config length")
    config_start = _STREAM_OPEN_HEAD.size + key_len
    _sized(body, reserved, config_start + config_len, "stream-open")
    key = _key(body, _STREAM_OPEN_HEAD.size, key_len)
    try:
        config = json.loads(_text(body, config_start, config_len, "stream config"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DataError(f"stream config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise DataError(
            f"stream config must be a JSON object, got {type(config).__name__}"
        )
    return StreamOpen(key=key, config=config)


def _decode_stream_opened(body: bytes) -> StreamOpened:
    _kind, reserved, status, key_len, hash_len = _head(
        _STREAM_OPENED_HEAD, body, "stream-opened"
    )
    hash_start = _STREAM_OPENED_HEAD.size + key_len
    _sized(body, reserved, hash_start + hash_len, "stream-opened")
    return StreamOpened(
        status=int(status),
        key=_key(body, _STREAM_OPENED_HEAD.size, key_len),
        content_hash=_text(body, hash_start, hash_len, "content hash", "ascii"),
    )


def _decode_stream_chunk(body: bytes) -> StreamChunk:
    _kind, reserved, key_len, seq, n = _head(_STREAM_CHUNK_HEAD, body, "stream-chunk")
    if n < 1:
        raise DataError("stream chunk declares zero samples")
    _at_most(n, MAX_SAMPLES_PER_FRAME, "stream chunk sample count")
    samples_start = _STREAM_CHUNK_HEAD.size + key_len
    _sized(body, reserved, samples_start + 8 * n, "stream-chunk")
    key = _key(body, _STREAM_CHUNK_HEAD.size, key_len)
    samples = np.frombuffer(body, dtype="<f8", count=n, offset=samples_start)
    _finite(samples, "stream chunk samples")
    return StreamChunk(key=key, seq=int(seq), samples=samples)


def _decode_stream_result(body: bytes) -> StreamResult:
    _kind, reserved, status, seq, n = _head(_STREAM_RESULT_HEAD, body, "stream-result")
    offset = _STREAM_RESULT_HEAD.size
    _sized(body, reserved, offset + 13 * n + _TRAILER.size, "stream-result")
    product, accumulator = _TRAILER.unpack_from(body, offset + 13 * n)
    return StreamResult(
        status=int(status),
        seq=int(seq),
        window_indices=np.frombuffer(body, dtype="<u4", count=n, offset=offset),
        projection_raws=np.frombuffer(body, dtype="<i8", count=n, offset=offset + 4 * n),
        labels=np.frombuffer(body, dtype=np.uint8, count=n, offset=offset + 12 * n),
        product_overflow_events=int(product),
        accumulator_overflow_events=int(accumulator),
    )


def _decode_stream_close(body: bytes) -> StreamClose:
    _kind, reserved, key_len = _head(_STREAM_CLOSE_HEAD, body, "stream-close")
    _sized(body, reserved, _STREAM_CLOSE_HEAD.size + key_len, "stream-close")
    return StreamClose(key=_key(body, _STREAM_CLOSE_HEAD.size, key_len))


def _decode_stream_closed(body: bytes) -> StreamClosed:
    _kind, reserved, status, key_len, chunks, samples, windows = _head(
        _STREAM_CLOSED_HEAD, body, "stream-closed"
    )
    _sized(body, reserved, _STREAM_CLOSED_HEAD.size + key_len, "stream-closed")
    return StreamClosed(
        status=int(status),
        key=_key(body, _STREAM_CLOSED_HEAD.size, key_len),
        chunks=int(chunks),
        samples=int(samples),
        windows=int(windows),
    )


# Indexed by ``kind - 1``: a tuple, because RPC005 rejects module-level
# dicts in serving modules.
_DECODERS: "Tuple[Callable[[bytes], _Frame], ...]" = (
    _decode_request,
    _decode_response,
    _decode_error,
    _decode_stream_open,
    _decode_stream_opened,
    _decode_stream_chunk,
    _decode_stream_result,
    _decode_stream_close,
    _decode_stream_closed,
)


def read_header(header: bytes) -> int:
    """Check one 8-byte frame header; returns its declared body length.

    The single frame-boundary check: :func:`decode_frame`,
    :func:`split_frames`, :class:`WireClient` and the server's connection
    loop all read headers here, so bad magic and the
    :data:`MAX_BODY_BYTES` cap are rejected the same way everywhere —
    before any body byte is read.
    """
    _need(header, _HEADER.size, "frame header")
    magic, body_len = _HEADER.unpack_from(header)
    if magic != WIRE_MAGIC:
        raise DataError(f"not a {WIRE_SCHEMA} frame (magic {magic!r} != {WIRE_MAGIC!r})")
    _at_most(body_len, MAX_BODY_BYTES, "frame body length")
    return body_len


def decode_body(body: bytes) -> _Frame:
    """Decode one frame body (everything after magic + length prefix).

    Raises :class:`~repro.errors.DataError` on any malformation; never
    returns partially-decoded data.
    """
    _at_most(len(body), MAX_BODY_BYTES, "frame body length")
    _need(body, 1, "kind byte")
    if not 1 <= body[0] <= len(_DECODERS):
        raise DataError(f"unknown wire frame kind {body[0]}")
    return _DECODERS[body[0] - 1](body)


def decode_frame(data: bytes) -> Tuple[_Frame, int]:
    """Decode the first complete frame in ``data``.

    Returns ``(decoded, consumed_bytes)``.  Raises
    :class:`~repro.errors.DataError` when ``data`` does not start with a
    complete, well-formed frame — including truncation, so stream callers
    should buffer until the declared length is available (see
    :func:`split_frames`).
    """
    end = _HEADER.size + read_header(data)
    _need(data, end, "frame body")
    return decode_body(data[_HEADER.size:end]), end


def split_frames(data: bytes) -> Tuple[list, bytes]:
    """Decode every complete frame in ``data``; returns ``(frames, rest)``.

    ``rest`` is the trailing bytes of an incomplete frame (empty when the
    buffer ended exactly on a frame boundary).  A malformed complete frame
    still raises :class:`~repro.errors.DataError`.
    """
    frames = []
    offset = 0
    while len(data) - offset >= _HEADER.size:
        start = offset + _HEADER.size
        end = start + read_header(data[offset:start])
        if end > len(data):
            break
        frames.append(decode_body(data[start:end]))
        offset = end
    return frames, data[offset:]


class WireClient:
    """Blocking client for one persistent wire connection.

    Used by the tests, the conformance oracles, the saturation benchmark,
    and the CI smoke script — anything that wants to speak the binary
    protocol without hand-rolling socket code.  One client = one
    connection = frames answered in order; each call reads exactly one
    answer frame and keeps any bytes after it for the next call.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._buffer = b""

    def close(self) -> None:
        """Close the underlying connection."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _take(self, count: int) -> bytes:
        while len(self._buffer) < count:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ServeError("connection closed before a full response frame")
            self._buffer += chunk
        data, self._buffer = self._buffer[:count], self._buffer[count:]
        return data

    def _read_frame(self):
        # The body is taken off the buffer before it is decoded, so a
        # malformed frame raises once and the next call reads the next one.
        decoded = decode_body(self._take(read_header(self._take(_HEADER.size))))
        if isinstance(decoded, (WireRequest, StreamOpen, StreamChunk, StreamClose)):
            raise DataError("server sent a client-to-server frame to a client")
        return decoded

    def request(
        self,
        features: np.ndarray,
        raw: bool = False,
        model: Optional[str] = None,
        deadline_ms: int = 0,
    ) -> "WireResponse | WireError":
        """Send one predict frame and block for its answer.

        Returns the decoded :class:`WireResponse` on success or the
        :class:`WireError` the server answered with (sheds, unknown
        models, malformed batches) — the caller distinguishes by type.
        """
        self._sock.sendall(
            encode_request(features, raw=raw, model=model, deadline_ms=deadline_ms)
        )
        return self._read_frame()

    def send_bytes(self, payload: bytes) -> "WireResponse | WireError":
        """Send arbitrary bytes and read one frame back (fuzzing hook)."""
        self._sock.sendall(payload)
        return self._read_frame()

    # ------------------------------------------------------------------ #
    # Streaming sessions (v2)
    # ------------------------------------------------------------------ #
    def open_stream(self, key: str, config: "dict | None" = None,
                    model: Optional[str] = None) -> "StreamOpened | WireError":
        """Open a streaming session; returns the ack with the pinned hash.

        ``config`` parameterizes the front end (see
        :class:`~repro.serve.stream.FrontEndConfig`); ``model``, when
        given, is folded into it as the registry key to serve.
        """
        payload = dict(config or {})
        if model is not None:
            payload["model"] = model
        self._sock.sendall(encode_stream_open(key, payload))
        return self._read_frame()

    def send_chunk(self, key: str, seq: int,
                   samples: np.ndarray) -> "StreamResult | WireError":
        """Push one waveform chunk; blocks for its per-chunk result frame."""
        self._sock.sendall(encode_stream_chunk(key, seq, samples))
        return self._read_frame()

    def close_stream(self, key: str) -> "StreamClosed | WireError":
        """Close the session; returns its lifetime totals."""
        self._sock.sendall(encode_stream_close(key))
        return self._read_frame()
