"""Fixed-point arithmetic substrate (``QK.F`` two's complement).

Public surface:

- :class:`QFormat` — format descriptor (range, resolution, grid).
- :class:`RoundingMode`, :class:`OverflowMode` — hardware policies.
- :func:`quantize` / :func:`quantize_raw` / :func:`dequantize_raw` —
  vectorized grid snapping.
- :func:`shift_right_rounded_array`, :func:`int64_path_available` — the
  exact vectorized narrowing shared by the serving engine and the
  fixed-point FIR, and the rule choosing their int64 or object dtype.
- :class:`Fx` — scalar fixed-point number (reference semantics).
- :class:`FixedPointDatapath` — bit-accurate MAC/classifier simulator.
- :func:`analyze_quantization`, :func:`greedy_wordlength_allocation` —
  analysis and word-length-allocation extensions.
"""

from .analysis import (
    QuantizationReport,
    analyze_quantization,
    required_integer_bits,
    theoretical_sqnr_db,
)
from .allocation import (
    AllocationResult,
    choose_uniform_format,
    greedy_wordlength_allocation,
)
from .datapath import DatapathConfig, DatapathTrace, FixedPointDatapath
from .number import Fx
from .overflow import OverflowMode, apply_overflow_raw
from .qformat import QFormat, int64_path_available
from .quantize import (
    dequantize_raw,
    nearest_grid_neighbors,
    quantization_noise,
    quantize,
    quantize_raw,
)
from .rounding import (
    RoundingMode,
    round_to_int,
    shift_right_rounded,
    shift_right_rounded_array,
)

__all__ = [
    "QFormat",
    "RoundingMode",
    "OverflowMode",
    "Fx",
    "DatapathConfig",
    "DatapathTrace",
    "FixedPointDatapath",
    "QuantizationReport",
    "AllocationResult",
    "quantize",
    "quantize_raw",
    "dequantize_raw",
    "quantization_noise",
    "nearest_grid_neighbors",
    "round_to_int",
    "shift_right_rounded",
    "shift_right_rounded_array",
    "int64_path_available",
    "apply_overflow_raw",
    "analyze_quantization",
    "required_integer_bits",
    "theoretical_sqnr_db",
    "choose_uniform_format",
    "greedy_wordlength_allocation",
]
