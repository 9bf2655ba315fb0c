"""Exception types shared across the package.

There are two, one per CLI exit code: InputError is a usage error (exit
2), whatever the argument, file or parameter set it refuses, and
GuardError is a deliberate "this would be too expensive" refusal (exit 3).
A failed verification check is not an exception; it exits 1.
"""


class InputError(ValueError):
    """An argument, parameter set or input file that the package refuses:
    a structural requirement (divisibility, range), a mismatch with the
    configured system, a root search with no sign change, or a zero symbol
    probability."""


class GuardError(RuntimeError):
    """Refusal to run an exhaustive computation past its size guard."""
