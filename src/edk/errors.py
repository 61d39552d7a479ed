"""Exception types shared across the package."""


class PropertyFormatError(ValueError):
    """Raised when a property or graph file cannot be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, lineno=None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class UsageError(ValueError):
    """Raised when a flag value or an environment setting is malformed."""


class TrivialPropertyError(ValueError):
    """The property is degenerate: no editing bound or admissible type exists."""


class AsymmetricFamilyError(ValueError):
    """The family is not invariant under color permutations."""


class CertificateError(ValueError):
    """An upper-bound certificate failed re-verification; names the check."""


class EnumerationGuardError(RuntimeError):
    """Type enumeration refused because the raw search space is too large."""

    def __init__(self, candidates, ceiling):
        self.candidates = candidates
        self.ceiling = ceiling
        super().__init__(
            f"enumeration would examine about {candidates} candidate types, "
            f"above the configured ceiling of {ceiling}; raise the ceiling to proceed"
        )


class SizeGuardError(RuntimeError):
    """Exact search refused because the instance exceeds the size guard."""
