"""Exception types shared across the package."""


class PgfError(Exception):
    """Base class for errors raised by this package."""


class CapExceeded(PgfError):
    """A computation would exceed a size limit."""


class PcFileError(PgfError):
    """Syntax or consistency problem in a power-commutator input file."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
            if line is not None:
                loc += f"{line}:"
            loc += " "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line


class InvalidCertificate(PgfError):
    """A construction certificate fails validation during evaluation."""


class NotNormal(PgfError):
    """An operation requiring a normal subgroup received a non-normal one."""
