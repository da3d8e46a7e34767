"""Bit-exactness and error-path tests for the stateful signal steppers.

Every stepper in :mod:`repro.signal.stream` must reproduce its one-shot
reference **bit for bit** under any chunk partition — that equality is
what lets the streaming serving plane claim byte-identity with the
certified offline pipeline.  The ``stream_vs_batch`` oracle fuzzes random
partitions; these tests pin the named edge cases (single-sample chunks,
chunks larger than the state, signals shorter than the decimator's group
delay, hop larger than window) and the validation surface.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.conformance.oracles import fxfir_reference
from repro.errors import DataError, InputValidationError
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.rounding import RoundingMode
from repro.serve.stream import FrontEndConfig
from repro.serve.wire import MAX_SAMPLES_PER_FRAME
from repro.signal.filters import design_fir, fir_direct
from repro.signal.fxbiquad import FixedPointBiquad
from repro.signal.fxfir import FixedPointFir
from repro.signal.preprocess import (
    decimate,
    design_notch,
    remove_powerline,
)
from repro.signal.stream import (
    BiquadCascadeStream,
    BiquadStream,
    DecimatorStream,
    FirStream,
    FixedPointBiquadStream,
    FixedPointFirStream,
    PowerlineStream,
    WindowStream,
    _BLOCK_WORDS,
    slice_windows,
)


def partitions(n: int):
    """A fixed set of adversarial chunk partitions of length ``n``."""
    out = [[n]]  # one chunk == the one-shot call itself
    if n > 1:
        out.append([1] * n)  # sample at a time
        out.append([n - 1, 1])
        out.append([1, n - 1])
    if n > 7:
        sizes, remaining, step = [], n, 1
        while remaining > 0:
            take = min(step, remaining)
            sizes.append(take)
            remaining -= take
            step = step * 2 + 1
        out.append(sizes)
    return out


def chunked(stream, signal, sizes):
    pieces, start = [], 0
    for size in sizes:
        pieces.append(stream.process(signal[start : start + size]))
        start += size
    return np.concatenate(pieces)


@pytest.fixture()
def signal():
    return np.random.default_rng(42).uniform(-3.0, 3.0, size=97)


# --------------------------------------------------------------------- #
# Fixed-point FIR
# --------------------------------------------------------------------- #
class TestFixedPointFirStream:
    @pytest.mark.parametrize("rounding", [RoundingMode.NEAREST_AWAY, RoundingMode.FLOOR])
    def test_bit_exact_all_partitions(self, signal, rounding):
        fir = FixedPointFir(
            taps=design_fir(15, (1.0, 40.0), kind="bandpass", sample_rate=250.0),
            fmt=QFormat(3, 6),
            guard_bits=4,
            rounding=rounding,
        )
        want = fxfir_reference(fir, signal)
        assert np.array_equal(fir.apply(signal), want)
        for sizes in partitions(signal.size):
            assert np.array_equal(chunked(fir.stream(), signal, sizes), want)

    def test_zero_guard_bits_wrap_path(self, signal):
        # guard_bits=0 forces accumulator wraps; the kernel's single wrap
        # must reproduce the reference's wrap-after-every-add bits.
        fir = FixedPointFir(
            taps=np.full(9, 0.9), fmt=QFormat(2, 5), guard_bits=0
        )
        x = signal * 2.0
        exact = np.abs(fir.reference_apply(x))
        assert np.any(exact > fir.accumulator_format.max_value)
        want = fxfir_reference(fir, x)
        assert np.array_equal(fir.apply(x), want)
        got = chunked(fir.stream(), x, [13] * 7 + [6])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "fmt,guard_bits,gain",
        [
            # 2W + ceil(log2 31) = 85 > 63, and with large taps on a
            # near-full-scale signal the products really exceed int64.
            (QFormat(20, 20), 8, 1.5e5),
            # Products fit int64, but the 64-bit accumulator's modulus
            # does not.
            (QFormat(3, 5), 56, 1.0),
        ],
    )
    @pytest.mark.parametrize(
        "rounding", [RoundingMode.NEAREST_EVEN, RoundingMode.TOWARD_ZERO]
    )
    def test_object_path_matches_reference(self, signal, fmt, guard_bits, gain, rounding):
        taps = design_fir(31, (1.0, 40.0), kind="bandpass", sample_rate=250.0)
        fir = FixedPointFir(
            taps=taps * min(gain, 100.0),
            fmt=fmt,
            guard_bits=guard_bits,
            rounding=rounding,
        )
        x = signal * gain
        want = fxfir_reference(fir, x)
        assert np.array_equal(fir.apply(x), want)
        assert np.array_equal(chunked(fir.stream(), x, [40, 1, 56]), want)

    def test_block_edges(self):
        # Four full blocks and a partial one.  Each chunk restarts its
        # blocks, so chunks end one before, at and one after a block edge,
        # and an empty chunk sits between two multi-block chunks.
        fir = FixedPointFir(
            taps=design_fir(31, (1.0, 40.0), kind="bandpass", sample_rate=250.0),
            fmt=QFormat(3, 5),
        )
        cols = _BLOCK_WORDS // 31
        n = 4 * cols + cols // 2
        x = np.random.default_rng(5).uniform(-3.0, 3.0, size=n)
        want = fxfir_reference(fir, x)
        assert np.array_equal(fir.apply(x), want)
        for sizes in (
            [cols - 1, cols, cols + 1, n - 3 * cols],
            [2 * cols + 5, 0, n - 2 * cols - 5],
        ):
            assert np.array_equal(chunked(fir.stream(), x, sizes), want)

    def test_more_taps_than_block_words(self):
        # One output column per block.
        taps = np.random.default_rng(6).uniform(-0.1, 0.1, size=_BLOCK_WORDS + 1)
        fir = FixedPointFir(taps=taps, fmt=QFormat(3, 8))
        x = np.random.default_rng(7).uniform(-3.0, 3.0, size=40)
        want = fxfir_reference(fir, x)
        assert np.array_equal(fir.apply(x), want)
        assert np.array_equal(chunked(fir.stream(), x, [17, 23]), want)

    def test_largest_frame_working_set(self):
        # One wire frame's worth of samples through the default front end:
        # blocks keep the products to _BLOCK_WORDS words at a time.  An
        # unblocked (31, 65536) product matrix peaks at about 35 MiB.
        config = FrontEndConfig()
        fir = FixedPointFir(
            taps=design_fir(
                config.num_taps, config.band, kind="bandpass",
                sample_rate=config.sample_rate,
            ),
            fmt=QFormat(3, 5),
            guard_bits=config.guard_bits,
        )
        stream = fir.stream()
        x = np.random.default_rng(9).uniform(-3.0, 3.0, size=MAX_SAMPLES_PER_FRAME)
        tracemalloc.start()
        try:
            stream.process(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_empty_chunk_leaves_state(self, signal):
        stream = FixedPointFir(
            taps=np.array([0.5, -0.25, 0.125]), fmt=QFormat(3, 4)
        ).stream()
        head = stream.process(signal[:10])
        out = stream.process(np.zeros(0))
        assert out.shape == (0,) and out.dtype == np.float64
        assert stream.samples_in == 10
        tail = stream.process(signal[10:20])
        fresh = stream.fir.apply(signal[:20])
        assert np.array_equal(np.concatenate([head, tail]), fresh)

    def test_stream_counts_samples(self, signal):
        stream = FixedPointFirStream(
            FixedPointFir(taps=np.array([0.5, 0.25]), fmt=QFormat(3, 4))
        )
        stream.process(signal[:10])
        stream.process(signal[10:25])
        assert stream.samples_in == 25

    def test_rejects_2d_chunk(self):
        stream = FixedPointFir(taps=np.array([1.0]), fmt=QFormat(3, 4)).stream()
        with pytest.raises(InputValidationError):
            stream.process(np.zeros((2, 3)))

    def test_fxfir_validation(self):
        with pytest.raises(DataError):
            FixedPointFir(taps=np.zeros((2, 2)), fmt=QFormat(3, 4))
        with pytest.raises(DataError):
            FixedPointFir(taps=np.zeros(0), fmt=QFormat(3, 4))
        with pytest.raises(DataError):
            FixedPointFir(taps=np.array([1.0]), fmt=QFormat(3, 4), guard_bits=-1)
        with pytest.raises(DataError):
            FixedPointFir(taps=np.array([1.0]), fmt=QFormat(3, 4)).apply(
                np.zeros((2, 3))
            )


# --------------------------------------------------------------------- #
# Fixed-point biquad
# --------------------------------------------------------------------- #
class TestFixedPointBiquadStream:
    def test_bit_exact_all_partitions(self, signal):
        biquad = FixedPointBiquad(
            section=design_notch(50.0, 250.0, quality=10.0), fmt=QFormat(3, 10)
        )
        want = biquad.apply(signal)
        for sizes in partitions(signal.size):
            assert np.array_equal(chunked(biquad.stream(), signal, sizes), want)

    def test_saturating_inputs(self):
        biquad = FixedPointBiquad(
            section=design_notch(60.0, 500.0, quality=5.0), fmt=QFormat(2, 9)
        )
        loud = np.random.default_rng(7).uniform(-40.0, 40.0, size=50)
        assert np.array_equal(
            chunked(biquad.stream(), loud, [7] * 7 + [1]), biquad.apply(loud)
        )

    def test_stream_state_is_fresh_per_instance(self, signal):
        biquad = FixedPointBiquad(
            section=design_notch(50.0, 250.0, quality=10.0), fmt=QFormat(3, 10)
        )
        first = FixedPointBiquadStream(biquad)
        first.process(signal)
        # A second stream starts from zero registers, not the first's.
        assert np.array_equal(
            FixedPointBiquadStream(biquad).process(signal[:20]),
            biquad.apply(signal[:20]),
        )


# --------------------------------------------------------------------- #
# Float biquads, cascade, powerline
# --------------------------------------------------------------------- #
class TestFloatBiquadStreams:
    def test_single_section_bit_exact(self, signal):
        section = design_notch(50.0, 250.0)
        want = section.apply(signal)
        for sizes in partitions(signal.size):
            assert np.array_equal(chunked(BiquadStream(section), signal, sizes), want)

    def test_cascade_bit_exact(self, signal):
        want = remove_powerline(signal, 500.0, harmonics=3)
        got = chunked(PowerlineStream(500.0, harmonics=3), signal, [11] * 8 + [9])
        assert np.array_equal(got, want)

    def test_empty_cascade_rejected(self):
        with pytest.raises(InputValidationError):
            BiquadCascadeStream([])

    def test_powerline_stream_validates_design(self):
        with pytest.raises(InputValidationError):
            PowerlineStream(80.0, mains_hz=50.0)


# --------------------------------------------------------------------- #
# Float FIR + decimator
# --------------------------------------------------------------------- #
class TestFirStream:
    def test_bit_exact_all_partitions(self, signal):
        taps = design_fir(21, 0.2, kind="lowpass", sample_rate=1.0)
        want = fir_direct(taps, signal)
        for sizes in partitions(signal.size):
            assert np.array_equal(chunked(FirStream(taps), signal, sizes), want)

    def test_single_tap(self, signal):
        got = chunked(FirStream(np.array([2.0])), signal, [10] * 9 + [7])
        assert np.array_equal(got, 2.0 * signal)

    def test_validation(self):
        with pytest.raises(InputValidationError):
            FirStream(np.zeros(0))
        with pytest.raises(InputValidationError):
            FirStream(np.zeros((3, 3)))


class TestDecimatorStream:
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_bit_exact_with_flush(self, signal, factor):
        want = decimate(signal, factor, num_taps=31)
        for sizes in partitions(signal.size):
            stream = DecimatorStream(factor, num_taps=31)
            pieces = []
            start = 0
            for size in sizes:
                pieces.append(stream.process(signal[start : start + size]))
                start += size
            pieces.append(stream.flush())
            assert np.array_equal(np.concatenate(pieces), want)

    def test_signal_shorter_than_group_delay(self):
        # Regression (found by the stream_vs_batch oracle): the one-shot
        # aligned length has a floor of the FIR group delay, so an
        # 8-sample input at 31 taps still yields ceil(15/2) outputs.
        x = np.arange(8.0)
        want = decimate(x, 2, num_taps=31)
        stream = DecimatorStream(2, num_taps=31)
        got = np.concatenate([stream.process(x), stream.flush()])
        assert np.array_equal(got, want)
        assert got.size == want.size == 8

    def test_factor_one_is_identity(self, signal):
        stream = DecimatorStream(1)
        got = np.concatenate([stream.process(signal), stream.flush()])
        assert np.array_equal(got, signal)

    def test_flush_is_terminal(self, signal):
        stream = DecimatorStream(2)
        stream.process(signal)
        stream.flush()
        with pytest.raises(InputValidationError):
            stream.process(signal)
        with pytest.raises(InputValidationError):
            stream.flush()

    def test_validation(self):
        with pytest.raises(InputValidationError):
            DecimatorStream(0)


# --------------------------------------------------------------------- #
# Windowing
# --------------------------------------------------------------------- #
class TestWindowStream:
    @pytest.mark.parametrize(
        "window,hop",
        [(10, 10), (10, 3), (10, 17), (1, 1), (97, 1), (5, 100)],
    )
    def test_matches_slice_windows(self, signal, window, hop):
        want = slice_windows(signal, window, hop)
        for sizes in partitions(signal.size):
            stream = WindowStream(window, hop)
            got = []
            start = 0
            for size in sizes:
                got.extend(stream.process(signal[start : start + size]))
                start += size
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            assert stream.windows_out == len(want)

    def test_windows_are_copies(self):
        stream = WindowStream(3, 3)
        [window] = stream.process(np.arange(3.0))
        window[0] = 99.0
        assert stream.pending_samples == 0

    def test_pending_samples(self):
        stream = WindowStream(10, 10)
        stream.process(np.zeros(7))
        assert stream.pending_samples == 7

    def test_validation(self):
        with pytest.raises(InputValidationError):
            WindowStream(0, 1)
        with pytest.raises(InputValidationError):
            WindowStream(1, 0)
        with pytest.raises(InputValidationError):
            slice_windows(np.zeros(10), 0, 1)
        with pytest.raises(InputValidationError):
            slice_windows(np.zeros(10), 1, 0)
        with pytest.raises(InputValidationError):
            slice_windows(np.zeros((2, 5)), 1, 1)
