"""Shared exception types.

Exit-code mapping used by the CLI: TapeExhaustedError -> 3, FormatError
and EncodeOverflowError (and OSError) -> 4, TransportError -> 5,
ProtocolDesyncError -> 7, ReluBudgetError -> 8.  A completed run whose
logits break the declared error budget exits 6.
"""

import math


class ArpError(Exception):
    """Base class for all package errors."""


class EncodeOverflowError(ArpError):
    """A real value was not finite, or its rounded value fell outside the
    representable fixed-point range [lo, hi)."""

    def __init__(self, index, value, lo, hi):
        self.index = index
        self.value = value
        why = "is not finite" if not math.isfinite(value) else f"outside representable range [{lo}, {hi})"
        super().__init__(f"value {value!r} at flat index {index} {why}")


class TransportError(ArpError):
    """Channel-level failure: timeout, disconnect, short read."""


class ProtocolDesyncError(ArpError):
    """The two parties disagreed about the current protocol step."""


class TapeExhaustedError(ArpError):
    """The dealer tape ran out of correlated randomness."""


class TripleReuseError(ArpError):
    """A single-use triple or pair was consumed twice."""


class FormatError(ArpError):
    """A serialized artifact (tape, model file, report) is malformed."""


class ReluBudgetError(ArpError):
    """Replacement training ended with more ReLUs kept than its budget."""


class DegenerateDistributionError(ArpError):
    """A sample set has no variance; polynomial fitting is ill-posed."""
