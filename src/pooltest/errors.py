"""Exception types shared across the package.

The CLI maps these to distinct exit codes, so the split matters:
configuration/input problems are usage errors, guard refusals are a
deliberate "this would be too expensive" signal, and verification
failures mean a numerical check did not hold.
"""


class ConfigurationError(ValueError):
    """A parameter set violates a structural requirement (divisibility, range)."""


class InputError(ValueError):
    """A runtime argument does not fit the configured system (length, symbol, range)."""


class GuardError(RuntimeError):
    """Refusal to run an exhaustive computation past its size guard."""


class NoThresholdError(RuntimeError):
    """A root finder found no sign change on its search interval."""


class ReducedAlphabetError(ValueError):
    """A symbol probability is zero; drop the symbol and retry with a smaller alphabet."""
