"""The package's three exception types, one for each nonzero exit code of
the CLI that a caller can cause.

Each is a ValueError, and the type alone decides the exit code:
ConfigError exits 2, Infeasible 3 and NumericalError 4.  Any other
exception that reaches the CLI is a bug in the program: it exits 1 with a
traceback.
"""


class ConfigError(ValueError):
    """Input the call does not accept: a malformed config or code file, an
    argument outside its range or domain, or operands that do not fit
    together (exit 2)."""


class Infeasible(ValueError):
    """A well-formed request past a cap or a dimension limit: a size or
    search cap, a dimension overflow or a retry limit (exit 3)."""


class NumericalError(ValueError):
    """A numerical precondition failed, such as a rank deficiency or
    ||A+||_2 ||N||_2 >= 1 (exit 4)."""
