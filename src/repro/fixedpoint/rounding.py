"""Rounding modes for fixed-point quantization.

A rounding mode maps a real-valued quantity (expressed in *quanta*, i.e.
already scaled by ``2**F``) to an integer raw word.  The paper uses simple
round-to-nearest when rounding training data and weights to ``QK.F``; we
additionally provide the other modes common in DSP hardware (truncation is
what a bare wire-dropping implementation does, convergent rounding is what
IEEE-style hardware does) so their effect on the classifier can be ablated.

All functions are vectorized over numpy arrays and also accept scalars.
"""

from __future__ import annotations

import enum
from typing import Callable, Union

import numpy as np

from ..errors import InputValidationError

__all__ = [
    "RoundingMode",
    "round_to_int",
    "shift_right_rounded",
    "shift_right_rounded_array",
    "float_to_int_exact",
    "ROUNDERS",
]

# Largest magnitude that survives a float64 -> int64 cast unharmed.  Beyond
# it the cast is undefined behaviour in numpy (it used to wrap to the
# opposite end of the range, so a saturating quantization of +huge landed on
# *min_raw*); see float_to_int_exact.
_INT64_SAFE = float(1 << 63)

ArrayLike = Union[float, np.ndarray]


class RoundingMode(enum.Enum):
    """Supported rounding modes.

    - ``NEAREST_EVEN``: round half to even (convergent rounding; unbiased).
    - ``NEAREST_AWAY``: round half away from zero (what ``round()`` in most
      hand calculators and the paper's MATLAB ``round`` do).
    - ``FLOOR``: round toward minus infinity (two's-complement truncation —
      the cheapest hardware realization: drop the low bits).
    - ``CEIL``: round toward plus infinity.
    - ``TOWARD_ZERO``: drop the fractional magnitude (sign-magnitude
      truncation).
    - ``STOCHASTIC``: round up with probability equal to the fractional
      part; requires a ``numpy.random.Generator``.  Unbiased in expectation;
      used in quantization-error ablations.
    """

    NEAREST_EVEN = "nearest-even"
    NEAREST_AWAY = "nearest-away"
    FLOOR = "floor"
    CEIL = "ceil"
    TOWARD_ZERO = "toward-zero"
    STOCHASTIC = "stochastic"

    @classmethod
    def coerce(cls, mode: "RoundingMode | str") -> "RoundingMode":
        """Accept either an enum member or its string value."""
        if isinstance(mode, cls):
            return mode
        return cls(str(mode))


def _round_nearest_even(scaled: ArrayLike) -> np.ndarray:
    return np.rint(scaled)


def _round_nearest_away(scaled: ArrayLike) -> np.ndarray:
    # trunc(v + copysign(0.5, v)) == copysign(floor(|v| + 0.5), v): both
    # shift the magnitude by one half and drop the fraction, so the float
    # results (ties, -0.0, and the >= 2**52 granularity quirks included)
    # are identical, in one allocation and three in-place ufuncs.  This
    # runs over every training sample at every sweep point, so array
    # passes dominate its cost.
    arr = np.asarray(scaled, dtype=np.float64)
    out = np.empty_like(arr)
    np.copysign(0.5, arr, out=out)
    np.add(out, arr, out=out)
    return np.trunc(out, out=out)


def _round_floor(scaled: ArrayLike) -> np.ndarray:
    return np.floor(scaled)


def _round_ceil(scaled: ArrayLike) -> np.ndarray:
    return np.ceil(scaled)


def _round_toward_zero(scaled: ArrayLike) -> np.ndarray:
    return np.trunc(scaled)


ROUNDERS: "dict[RoundingMode, Callable[[ArrayLike], np.ndarray]]" = {
    RoundingMode.NEAREST_EVEN: _round_nearest_even,
    RoundingMode.NEAREST_AWAY: _round_nearest_away,
    RoundingMode.FLOOR: _round_floor,
    RoundingMode.CEIL: _round_ceil,
    RoundingMode.TOWARD_ZERO: _round_toward_zero,
}


def float_to_int_exact(values: ArrayLike) -> np.ndarray:
    """Cast already-integral float(s) to integer words without overflow.

    ``float64 -> int64`` casts are only defined for magnitudes below
    ``2**63``; larger values used to wrap around to the opposite sign, so a
    *saturating* quantization of an out-of-range input could land on the
    wrong end of the range (min_raw instead of max_raw) for formats wider
    than ~62 bits.  This helper keeps the fast int64 cast whenever it is
    safe and otherwise converts element-wise through Python's unbounded
    ints (object dtype), which every downstream overflow policy accepts.

    Raises :class:`~repro.errors.InputValidationError` on non-finite input —
    there is no integer word for ``inf``.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return arr.astype(np.int64)
    # Two reductions instead of isfinite/abs temporaries: NaN propagates
    # through min/max and +/-inf fails the isfinite test on the extrema.
    lo, hi = arr.min(), arr.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InputValidationError("cannot convert non-finite values to raw words")
    if -_INT64_SAFE < lo and hi < _INT64_SAFE:
        return arr.astype(np.int64)
    flat = np.array([int(v) for v in arr.ravel()], dtype=object)
    return flat.reshape(arr.shape)


def round_to_int(
    scaled: ArrayLike,
    mode: "RoundingMode | str" = RoundingMode.NEAREST_AWAY,
    rng: "np.random.Generator | None" = None,
) -> np.ndarray:
    """Round value(s) already expressed in quanta to integer words.

    Parameters
    ----------
    scaled:
        Real value(s) in units of one LSB (i.e. ``value * 2**F``).
    mode:
        The rounding mode; see :class:`RoundingMode`.
    rng:
        Random generator, required only for ``STOCHASTIC`` mode.

    Returns
    -------
    numpy.ndarray of int64 (0-d for scalar input); object dtype holding
    Python ints when the rounded magnitudes exceed the int64 range (wide
    formats), so the caller's overflow policy sees the true value.
    """
    mode = RoundingMode.coerce(mode)
    arr = np.asarray(scaled, dtype=np.float64)
    if mode is RoundingMode.STOCHASTIC:
        if rng is None:
            raise InputValidationError("stochastic rounding requires an explicit rng")
        low = np.floor(arr)
        frac = arr - low
        bump = (rng.random(size=arr.shape) < frac).astype(np.float64)
        result = low + bump
    else:
        result = ROUNDERS[mode](arr)
    return float_to_int_exact(result)


def shift_right_rounded(
    raw: int, shift: int, mode: "RoundingMode | str" = RoundingMode.NEAREST_AWAY
) -> int:
    """Exact integer right-shift of ``raw`` by ``shift`` bits with rounding.

    Equivalent to rounding ``raw / 2**shift`` to an integer, computed in
    unbounded integer arithmetic so the result is bit-exact for any word
    length.  This is how the datapath narrows a ``2F``-fraction product back
    to ``F`` fractional bits.
    """
    mode = RoundingMode.coerce(mode)
    if shift < 0:
        raise InputValidationError(f"shift must be >= 0, got {shift}")
    if shift == 0:
        return int(raw)
    raw = int(raw)
    div = 1 << shift
    floor_q, rem = divmod(raw, div)  # Python divmod floors toward -inf
    if mode is RoundingMode.FLOOR:
        return floor_q
    if mode is RoundingMode.CEIL:
        return floor_q + (1 if rem else 0)
    if mode is RoundingMode.TOWARD_ZERO:
        return floor_q + (1 if (rem and raw < 0) else 0)
    half = div >> 1
    if mode is RoundingMode.NEAREST_AWAY:
        if rem > half or (rem == half and raw >= 0):
            return floor_q + 1
        if rem == half and raw < 0:
            return floor_q  # floor already moved toward -inf; half goes away from 0
        return floor_q
    if mode is RoundingMode.NEAREST_EVEN:
        if rem > half:
            return floor_q + 1
        if rem < half:
            return floor_q
        return floor_q + (floor_q & 1)
    raise InputValidationError(f"unsupported mode for exact shift: {mode}")


def shift_right_rounded_array(
    raws: np.ndarray, shift: int, mode: "RoundingMode | str" = RoundingMode.NEAREST_AWAY
) -> np.ndarray:
    """Vectorized exact ``raws / 2**shift`` rounding, dtype-generic.

    Mirrors :func:`shift_right_rounded` case by case.  Each mode is one
    arithmetic right shift, which floors on both int64 and object (Python
    int) dtypes, after a rounding offset: with ``raws = q * 2**shift + rem``
    and ``0 <= rem < 2**shift``, the offset carries ``rem`` over the next
    multiple exactly when the mode rounds ``q`` up.  So one body serves the
    int64 fast paths and the object-dtype wide-format paths of the serving
    engine and the fixed-point FIR, in one to five array passes.  Every
    offset is added to ``raws`` first, so on object arrays a wide ``half``
    never meets a bool array in int64.  Exact as long as ``raws`` itself
    is: the caller picks int64 only when every word fits (see
    :func:`repro.fixedpoint.qformat.int64_path_available`).
    """
    mode = RoundingMode.coerce(mode)
    if shift < 0:
        raise InputValidationError(f"shift must be >= 0, got {shift}")
    if shift == 0:
        return raws
    div = 1 << shift
    if mode is RoundingMode.FLOOR:
        return raws >> shift
    if mode is RoundingMode.CEIL:
        return (raws + (div - 1)) >> shift
    if mode is RoundingMode.TOWARD_ZERO:
        return np.where(raws < 0, raws + (div - 1), raws) >> shift
    half = div >> 1
    if mode is RoundingMode.NEAREST_AWAY:
        # rem == half carries over unless raws < 0.
        return (raws + half - (raws < 0)) >> shift
    if mode is RoundingMode.NEAREST_EVEN:
        # rem == half carries over exactly when the floor quotient is odd.
        floor_q = raws >> shift
        return (raws + (half - 1) + (floor_q & 1)) >> shift
    raise InputValidationError(f"unsupported mode for exact shift: {mode}")
