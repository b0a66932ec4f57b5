"""Exception hierarchy shared by all cellgrade modules.

Each class maps to one CLI exit code (see cli.py): configuration problems
exit 2, data/decoding problems exit 3, checkpoint integrity problems exit 4.
"""


class CellgradeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CellgradeError):
    """Invalid parameter or option combination (exit code 2)."""


class ShapeError(ConfigError):
    """Tensor/network shape mismatch, a configuration problem; message names the dimensions."""


class DataError(CellgradeError):
    """Dataset layout or content problem (exit code 3)."""


class DecodeError(DataError):
    """Malformed image file; message names the offending chunk/offset."""


class UnsupportedFormatError(DataError):
    """Well-formed image in a format this package does not handle."""


class IntegrityError(CellgradeError):
    """Checkpoint failed a magic/version/digest/checksum check (exit code 4)."""
