"""Error taxonomy shared by every module.

Each class maps to one failure family and one CLI exit code (see the table in
``cli.py``). Library code raises these instead of bare ValueError so callers
can route on type without string matching.
"""
from __future__ import annotations


class EEError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeError(EEError):
    """Operand dimensions are incompatible or a tensor has the wrong shape."""


class DomainError(EEError):
    """Plaintext/ciphertext tag misuse, or an argument outside a function's domain."""


class ConfigError(EEError):
    """A configuration value violates its invariants or a required piece is missing."""


class RangeError(EEError):
    """A scalar is outside its documented range (token id, probability, ...)."""


class PairingError(EEError):
    """A key was applied to a model it was not generated for."""


class FormatError(EEError):
    """A serialized container is malformed. Carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class IntegrityError(EEError):
    """Checksums or cross-checked metadata disagree with the payload."""


class VersionError(EEError):
    """A container declares a format version this build does not understand."""


class PipelineError(EEError):
    """The sharded pipeline cannot make progress (no replacement node left)."""


class RefusalError(EEError):
    """A request was rejected because it is computationally infeasible by design."""


class NumericsError(EEError):
    """An operation met non-finite values it cannot give a meaningful answer for."""
