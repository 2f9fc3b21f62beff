"""Error taxonomy shared by every module.

Each class maps to one failure family and carries the CLI exit code for it as
``exit_code``. Library code raises these instead of bare ValueError so callers
can route on type without string matching.
"""
from __future__ import annotations


class EEError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 1


class ShapeError(EEError):
    """Operand dimensions are incompatible or a tensor has the wrong shape."""

    exit_code = 7


class DomainError(EEError):
    """Plaintext/ciphertext tag misuse, or an argument outside a function's domain."""

    exit_code = 6


class ConfigError(EEError):
    """A configuration value violates its invariants or a required piece is missing."""

    exit_code = 7


class RangeError(EEError):
    """A scalar is outside its documented range (token id, probability, ...)."""

    exit_code = 10


class PairingError(EEError):
    """A key was applied to a model it was not generated for."""

    exit_code = 5


class FormatError(EEError):
    """A serialized container is malformed. Carries the byte offset when known."""

    exit_code = 3

    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class IntegrityError(EEError):
    """Checksums or cross-checked metadata disagree with the payload."""

    exit_code = 4


class VersionError(EEError):
    """A container declares a format version this build does not understand."""

    exit_code = 8


class PipelineError(EEError):
    """The sharded pipeline cannot make progress (no replacement node left)."""

    exit_code = 13


class RefusalError(EEError):
    """A request was rejected because it is computationally infeasible by design."""

    exit_code = 9


class NumericsError(EEError):
    """An operation met non-finite values it cannot give a meaningful answer for."""

    exit_code = 14
