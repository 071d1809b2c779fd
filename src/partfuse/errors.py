"""Exception hierarchy shared by all partfuse modules, and the one opener
of input files."""


class PartfuseError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PartfuseError):
    """Domain-level violation: bad taxonomy, inconsistent dimensions,
    out-of-range parameters, unknown ids or strategy names, a missing
    input file."""


class FormatError(PartfuseError):
    """A file exists but its bytes do not form a valid container
    (bad magic, truncated payload, unsupported header fields)."""


def open_input(path, mode: str = "rb", **kwargs):
    """``open(path, mode, **kwargs)`` for an input file: a missing file,
    whichever input names it, raises ValidationError; a file that exists
    but cannot be opened stays an OSError."""
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError:
        raise ValidationError(f"{path}: file not found") from None
