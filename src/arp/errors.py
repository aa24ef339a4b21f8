"""Shared exception types.

Exit-code mapping used by the CLI: TapeExhaustedError -> 3, FormatError
(and OSError) -> 4, TransportError -> 5, ProtocolDesyncError -> 7.  A
completed run whose logits break the declared error budget exits 6.
"""


class ArpError(Exception):
    """Base class for all package errors."""


class EncodeOverflowError(ArpError):
    """A real value fell outside the representable fixed-point range."""

    def __init__(self, index, value, lo, hi):
        self.index = index
        self.value = value
        super().__init__(
            f"value {value!r} at flat index {index} outside representable "
            f"range [{lo}, {hi}]"
        )


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


class DegenerateDistributionError(ArpError):
    """A sample set has no variance; polynomial fitting is ill-posed."""
