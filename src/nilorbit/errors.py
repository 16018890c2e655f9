"""Every exception class of the package derives from one of these two, and
the CLI maps them to exit codes; any other exception reaching it is a bug."""


class UsageError(ValueError):
    """Input from outside the package is malformed or out of range (exit 2)."""


class MathError(ValueError):
    """Well-formed input that the mathematics rejects (exit 1)."""
