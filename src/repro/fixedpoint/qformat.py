"""``QK.F`` fixed-point format descriptors (two's complement).

The paper (Section 3, Figure 3) represents every number in the classifier in
a single signed two's-complement format ``QK.F`` with ``K`` integer bits
(including the sign bit) and ``F`` fractional bits, for a total word length
of ``K + F`` bits.  A word with raw integer value ``r`` (an integer in
``[-2**(K+F-1), 2**(K+F-1) - 1]``) represents the real number ``r * 2**-F``.

:class:`QFormat` is an immutable value object describing such a format; it
knows its representable range, its resolution (one least-significant bit),
and how to enumerate or count the representable values.  It performs no
arithmetic itself — see :mod:`repro.fixedpoint.quantize` for (vectorized)
quantization and :mod:`repro.fixedpoint.number` for scalar arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from ..errors import QFormatError

__all__ = ["QFormat", "int64_path_available"]

_QFORMAT_RE = re.compile(r"^Q(?P<k>\d+)\.(?P<f>\d+)$")

# numpy int64 carries 63 magnitude bits plus sign.
_INT64_MAGNITUDE_BITS = 63

# Guard against absurd formats that would overflow exact integer arithmetic
# or allocate astronomically large enumerations by accident.
_MAX_TOTAL_BITS = 64


@dataclass(frozen=True, order=False)
class QFormat:
    """A signed two's-complement fixed-point format with ``K + F`` bits.

    Parameters
    ----------
    integer_bits:
        ``K`` — number of integer bits *including* the sign bit.  Must be at
        least 1 (the sign bit itself).
    fraction_bits:
        ``F`` — number of fractional bits.  Must be non-negative.

    Examples
    --------
    >>> q = QFormat(3, 0)
    >>> (q.min_value, q.max_value)
    (-4.0, 3.0)
    >>> QFormat.from_string("Q2.6").word_length
    8
    """

    integer_bits: int
    fraction_bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.integer_bits, (int, np.integer)):
            raise QFormatError(f"integer_bits must be int, got {self.integer_bits!r}")
        if not isinstance(self.fraction_bits, (int, np.integer)):
            raise QFormatError(f"fraction_bits must be int, got {self.fraction_bits!r}")
        if self.integer_bits < 1:
            raise QFormatError(
                f"integer_bits must be >= 1 (it includes the sign bit), "
                f"got {self.integer_bits}"
            )
        if self.fraction_bits < 0:
            raise QFormatError(
                f"fraction_bits must be >= 0, got {self.fraction_bits}"
            )
        if self.integer_bits + self.fraction_bits > _MAX_TOTAL_BITS:
            raise QFormatError(
                f"word length {self.integer_bits + self.fraction_bits} exceeds "
                f"the supported maximum of {_MAX_TOTAL_BITS} bits"
            )
        # Normalize numpy integer types to plain int so hashing/repr is stable.
        object.__setattr__(self, "integer_bits", int(self.integer_bits))
        object.__setattr__(self, "fraction_bits", int(self.fraction_bits))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_string(cls, spec: str) -> "QFormat":
        """Parse a ``"QK.F"`` string such as ``"Q4.4"``."""
        match = _QFORMAT_RE.match(spec.strip())
        if match is None:
            raise QFormatError(
                f"cannot parse {spec!r} as a QK.F format (expected e.g. 'Q4.4')"
            )
        return cls(int(match.group("k")), int(match.group("f")))

    @classmethod
    def from_word_length(cls, word_length: int, integer_bits: int) -> "QFormat":
        """Build a format from a total word length and integer-bit count."""
        if word_length < integer_bits:
            raise QFormatError(
                f"word_length {word_length} is smaller than integer_bits "
                f"{integer_bits}"
            )
        return cls(integer_bits, word_length - integer_bits)

    @classmethod
    def for_range(cls, word_length: int, max_abs: float) -> "QFormat":
        """Choose the format of ``word_length`` bits that covers ``[-max_abs, max_abs]``.

        Picks the smallest ``K`` such that ``max_abs`` fits, maximizing the
        fractional precision ``F = word_length - K``.  This mirrors the
        paper's preprocessing: features are scaled so their dynamic range is
        known, then the integer width is chosen just large enough.
        """
        if max_abs < 0 or not np.isfinite(max_abs):
            raise QFormatError(f"max_abs must be finite and >= 0, got {max_abs!r}")
        # The positive end of QK.F stops one LSB short of 2**(K-1), so the
        # integer width must strictly exceed log2(max_abs) for +max_abs to
        # round without saturating by more than one LSB.
        k = 1
        while k < word_length and (2.0 ** (k - 1)) <= max_abs:
            k += 1
        if (2.0 ** (k - 1)) <= max_abs:
            raise QFormatError(
                f"no Q format of {word_length} bits covers |x| <= {max_abs}"
            )
        return cls(k, word_length - k)

    # ------------------------------------------------------------------ #
    # Derived properties
    # ------------------------------------------------------------------ #
    @property
    def word_length(self) -> int:
        """Total number of bits ``K + F``."""
        return self.integer_bits + self.fraction_bits

    @property
    def resolution(self) -> float:
        """The value of one least-significant bit, ``2**-F``."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def min_value(self) -> float:
        """The most negative representable value, ``-2**(K-1)``."""
        return -(2.0 ** (self.integer_bits - 1))

    @property
    def max_value(self) -> float:
        """The most positive representable value, ``2**(K-1) - 2**-F``."""
        return 2.0 ** (self.integer_bits - 1) - self.resolution

    @property
    def min_raw(self) -> int:
        """Most negative raw integer word, ``-2**(K+F-1)``."""
        return -(1 << (self.word_length - 1))

    @property
    def max_raw(self) -> int:
        """Most positive raw integer word, ``2**(K+F-1) - 1``."""
        return (1 << (self.word_length - 1)) - 1

    @property
    def num_values(self) -> int:
        """Number of representable values, ``2**(K+F)``."""
        return 1 << self.word_length

    @property
    def modulus(self) -> int:
        """Size of the raw-word ring, ``2**(K+F)`` — used by wrapping arithmetic."""
        return 1 << self.word_length

    @property
    def wrap_mask(self) -> int:
        """Bit mask ``2**(K+F) - 1`` selecting the word's two's-complement bits.

        These are the shared wrap-semantics constants: :meth:`wrap_raw`, the
        vectorized serving engine, and the generated C/Verilog all reduce a
        wide value into the ring as ``(v & wrap_mask)`` re-signed at
        :attr:`sign_bit` — keeping them here guarantees every backend wraps
        identically.
        """
        return self.modulus - 1

    @property
    def sign_bit(self) -> int:
        """The sign-bit mask ``2**(K+F-1)`` of the two's-complement word."""
        return 1 << (self.word_length - 1)

    # ------------------------------------------------------------------ #
    # Membership / enumeration
    # ------------------------------------------------------------------ #
    def contains(self, value: float) -> bool:
        """True if ``value`` is exactly representable in this format."""
        if not np.isfinite(value):
            return False
        if value < self.min_value or value > self.max_value:
            return False
        scaled = value * (1 << self.fraction_bits)
        return float(scaled) == float(int(round(scaled))) and abs(
            scaled - round(scaled)
        ) == 0.0

    def grid(self) -> np.ndarray:
        """All representable values in increasing order as a float64 array.

        Only sensible for small word lengths (the array has ``2**(K+F)``
        entries); guarded at 2**22 entries to avoid accidental huge
        allocations.
        """
        if self.word_length > 22:
            raise QFormatError(
                f"refusing to enumerate 2**{self.word_length} grid values; "
                "use arithmetic on raw words instead"
            )
        raws = np.arange(self.min_raw, self.max_raw + 1, dtype=np.int64)
        return raws.astype(np.float64) * self.resolution

    # ------------------------------------------------------------------ #
    # Raw <-> real conversions (exact, no rounding)
    # ------------------------------------------------------------------ #
    def to_real(self, raw: "int | np.ndarray") -> "float | np.ndarray":
        """Convert raw integer word(s) to real value(s): ``raw * 2**-F``."""
        if isinstance(raw, np.ndarray):
            return raw.astype(np.float64) * self.resolution
        return float(raw) * self.resolution

    def to_raw(self, value: "float | np.ndarray") -> "int | np.ndarray":
        """Convert exactly representable real value(s) to raw word(s).

        The caller is responsible for quantizing first; values that are not
        on the grid are rounded to the nearest raw integer without range
        checking (use :func:`repro.fixedpoint.quantize.quantize` for checked
        conversion).
        """
        from .rounding import float_to_int_exact

        scaled = np.multiply(value, 1 << self.fraction_bits)
        if isinstance(value, np.ndarray):
            return float_to_int_exact(np.rint(scaled))
        return int(round(float(scaled)))

    def wrap_raw(self, raw: "int | np.ndarray") -> "int | np.ndarray":
        """Reduce raw word(s) into range by two's-complement wrapping.

        This is the hardware behaviour the paper relies on (Section 3): sums
        are taken modulo ``2**(K+F)`` and re-interpreted as signed words.
        """
        modulus = self.modulus
        half = modulus >> 1
        if isinstance(raw, np.ndarray):
            wrapped = np.mod(raw.astype(object) + half, modulus) - half
            return np.asarray(wrapped).astype(np.int64)
        return int((int(raw) + half) % modulus - half)

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def widen(self, extra_integer: int = 0, extra_fraction: int = 0) -> "QFormat":
        """Return a new format with additional integer and/or fractional bits."""
        return QFormat(
            self.integer_bits + extra_integer, self.fraction_bits + extra_fraction
        )

    def __str__(self) -> str:
        return f"Q{self.integer_bits}.{self.fraction_bits}"

    def __repr__(self) -> str:
        return f"QFormat(integer_bits={self.integer_bits}, fraction_bits={self.fraction_bits})"


def int64_path_available(fmt: QFormat, num_terms: int) -> bool:
    """True when int64 arithmetic is exact for sums of ``num_terms`` products.

    The widest intermediate is a full-precision product of two ``fmt``
    words (``2 * (K + F)`` bits); summing ``M`` of them adds at most
    ``ceil(log2(M))`` carry bits.  The int64 path is exact iff the total
    fits in 63 magnitude bits.  This is the rule behind the serving
    engine's fast path (``M`` features) and the fixed-point FIR kernel
    (``M`` taps).
    """
    carry_bits = math.ceil(math.log2(max(int(num_terms), 2)))
    return 2 * fmt.word_length + carry_bits <= _INT64_MAGNITUDE_BITS
