"""Tests for repro.fixedpoint.rounding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import InputValidationError
from repro.fixedpoint.rounding import (
    RoundingMode,
    round_to_int,
    shift_right_rounded,
    shift_right_rounded_array,
)

EXACT_MODES = [mode for mode in RoundingMode if mode is not RoundingMode.STOCHASTIC]


class TestCoerce:
    def test_enum_passthrough(self):
        assert RoundingMode.coerce(RoundingMode.FLOOR) is RoundingMode.FLOOR

    def test_string_coercion(self):
        assert RoundingMode.coerce("floor") is RoundingMode.FLOOR
        assert RoundingMode.coerce("nearest-even") is RoundingMode.NEAREST_EVEN

    def test_bad_string(self):
        with pytest.raises(ValueError):
            RoundingMode.coerce("bogus")


class TestRoundToInt:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, 1), (-0.5, -1), (1.5, 2), (-1.5, -2), (2.4, 2), (-2.4, -2)],
    )
    def test_nearest_away(self, value, expected):
        assert int(round_to_int(value, RoundingMode.NEAREST_AWAY)) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, 0), (-0.5, 0), (1.5, 2), (-1.5, -2), (2.5, 2), (3.5, 4)],
    )
    def test_nearest_even(self, value, expected):
        assert int(round_to_int(value, RoundingMode.NEAREST_EVEN)) == expected

    @pytest.mark.parametrize("value,expected", [(1.9, 1), (-1.1, -2), (-0.001, -1)])
    def test_floor(self, value, expected):
        assert int(round_to_int(value, RoundingMode.FLOOR)) == expected

    @pytest.mark.parametrize("value,expected", [(1.1, 2), (-1.9, -1), (0.001, 1)])
    def test_ceil(self, value, expected):
        assert int(round_to_int(value, RoundingMode.CEIL)) == expected

    @pytest.mark.parametrize("value,expected", [(1.9, 1), (-1.9, -1), (0.5, 0)])
    def test_toward_zero(self, value, expected):
        assert int(round_to_int(value, RoundingMode.TOWARD_ZERO)) == expected

    def test_vectorized(self):
        out = round_to_int(np.array([0.4, 0.6, -0.6]), RoundingMode.NEAREST_AWAY)
        assert out.dtype == np.int64
        assert list(out) == [0, 1, -1]

    def test_stochastic_requires_rng(self):
        with pytest.raises(ValueError):
            round_to_int(0.5, RoundingMode.STOCHASTIC)

    def test_stochastic_unbiased(self, rng):
        values = np.full(20_000, 0.25)
        out = round_to_int(values, RoundingMode.STOCHASTIC, rng=rng)
        assert set(np.unique(out)) <= {0, 1}
        assert abs(float(out.mean()) - 0.25) < 0.02

    def test_stochastic_exact_integers_unchanged(self, rng):
        values = np.array([1.0, -3.0, 0.0])
        out = round_to_int(values, RoundingMode.STOCHASTIC, rng=rng)
        assert list(out) == [1, -3, 0]

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_all_modes_within_one(self, value):
        for mode in (
            RoundingMode.NEAREST_AWAY,
            RoundingMode.NEAREST_EVEN,
            RoundingMode.FLOOR,
            RoundingMode.CEIL,
            RoundingMode.TOWARD_ZERO,
        ):
            out = int(round_to_int(value, mode))
            assert abs(out - value) <= 1.0


class TestShiftRightRounded:
    @given(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=0, max_value=20),
    )
    def test_matches_float_nearest_away(self, raw, shift):
        exact = raw / (2**shift)
        got = shift_right_rounded(raw, shift, RoundingMode.NEAREST_AWAY)
        expected = int(np.sign(exact) * np.floor(abs(exact) + 0.5))
        assert got == expected

    @given(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=0, max_value=20),
    )
    def test_matches_float_floor(self, raw, shift):
        assert shift_right_rounded(raw, shift, RoundingMode.FLOOR) == raw >> shift

    @given(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=0, max_value=20),
    )
    def test_matches_float_nearest_even(self, raw, shift):
        got = shift_right_rounded(raw, shift, RoundingMode.NEAREST_EVEN)
        expected = int(np.rint(raw / (2**shift)))
        assert got == expected

    @pytest.mark.parametrize(
        "raw,shift,mode,expected",
        [
            (-3, 1, RoundingMode.NEAREST_AWAY, -2),
            (3, 1, RoundingMode.NEAREST_AWAY, 2),
            (-1, 1, RoundingMode.NEAREST_AWAY, -1),
            (1, 1, RoundingMode.NEAREST_AWAY, 1),
            (-1, 1, RoundingMode.NEAREST_EVEN, 0),
            (1, 1, RoundingMode.NEAREST_EVEN, 0),
            (-3, 1, RoundingMode.TOWARD_ZERO, -1),
            (-3, 1, RoundingMode.CEIL, -1),
            (-3, 1, RoundingMode.FLOOR, -2),
        ],
    )
    def test_half_cases(self, raw, shift, mode, expected):
        assert shift_right_rounded(raw, shift, mode) == expected

    def test_zero_shift_identity(self):
        assert shift_right_rounded(12345, 0) == 12345

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            shift_right_rounded(1, -1)

    def test_exact_beyond_float53(self):
        # A value whose float division would lose bits.
        raw = (1 << 60) + 1
        assert shift_right_rounded(raw, 1, RoundingMode.FLOOR) == (raw - 1) // 2


class TestShiftRightRoundedArray:
    @pytest.mark.parametrize("mode", EXACT_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("shift", [0, 1, 3, 7])
    def test_int64_matches_scalar(self, mode, shift):
        raws = np.arange(-300, 301, dtype=np.int64)
        got = shift_right_rounded_array(raws, shift, mode)
        assert got.dtype == np.int64
        assert got.tolist() == [shift_right_rounded(r, shift, mode) for r in raws.tolist()]

    @pytest.mark.parametrize("mode", EXACT_MODES, ids=lambda m: m.value)
    def test_object_matches_scalar_beyond_int64(self, mode):
        # Half-way, just-off-half and exact multiples around 2**70 and -2**70,
        # where int64 would overflow and float64 would round.
        shift = 5
        base = [k << 70 for k in (-3, -1, 1, 3)]
        raws = np.array(
            [b + d for b in base for d in (-17, -16, -15, -1, 0, 1, 15, 16, 17, 32)],
            dtype=object,
        )
        got = shift_right_rounded_array(raws, shift, mode)
        assert got.tolist() == [shift_right_rounded(r, shift, mode) for r in raws.tolist()]

    @pytest.mark.parametrize("mode", EXACT_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("shift", [62, 63, 64, 70, 100])
    def test_object_wide_shift_offsets_stay_exact(self, mode, shift):
        # Each mode adds its rounding offset before the shift; at these
        # shifts half no longer fits int64, so an offset combined with a
        # bool array before it meets the words would overflow.
        half, div = 1 << (shift - 1), 1 << shift
        offsets = [-half - 1, -half, -half + 1, -1, 0, 1, half - 1, half, half + 1, div]
        raws = np.array(
            [b + d for b in (-(1 << 120), 0, 1 << 120) for d in offsets], dtype=object
        )
        got = shift_right_rounded_array(raws, shift, mode)
        assert got.dtype == object
        assert got.tolist() == [shift_right_rounded(r, shift, mode) for r in raws.tolist()]

    @pytest.mark.parametrize("mode", EXACT_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("shift", [1, 2, 5, 16, 40])
    def test_int64_mode_boundaries(self, mode, shift):
        # Every word sits on or next to a rounding boundary of its quotient.
        half, div = 1 << (shift - 1), 1 << shift
        raws = np.array(
            [
                q * div + d
                for q in range(-3, 4)
                for d in (-half - 1, -half, -half + 1, half - 1, half, half + 1)
            ],
            dtype=np.int64,
        )
        got = shift_right_rounded_array(raws, shift, mode)
        assert got.dtype == np.int64
        assert got.tolist() == [shift_right_rounded(r, shift, mode) for r in raws.tolist()]

    def test_stochastic_rejected(self):
        with pytest.raises(InputValidationError):
            shift_right_rounded_array(np.arange(4), 2, RoundingMode.STOCHASTIC)

    def test_negative_shift_rejected(self):
        with pytest.raises(InputValidationError):
            shift_right_rounded_array(np.arange(4), -1)
