"""Typed errors raised by the fibfield library."""


class FibfieldError(Exception):
    """Base class for all fibfield errors."""


class NotInvertible(FibfieldError):
    """Element is not a unit modulo n (gcd != 1)."""


class BadGroupOrder(FibfieldError):
    """Claimed group order is not annihilating: a^order != 1."""


class BadPrime(FibfieldError):
    """Argument fails the primality (or special-prime) precondition."""


class CapExceeded(FibfieldError):
    """Modulus exceeds the configured enumeration cap."""


class ContextMismatch(FibfieldError):
    """Binary operation on quadratic elements from different contexts."""


class ModulusMismatch(FibfieldError):
    """Binary operation on matrices over different moduli."""


class SplitContext(FibfieldError):
    """Field-only operation requested in a split (non-field) quadratic ring."""


class ZeroElement(FibfieldError):
    """Order of the zero element requested."""


class SingularMatrix(FibfieldError):
    """Companion matrix is not invertible: gcd(Q, N) != 1."""


class DegenerateDiscriminant(FibfieldError):
    """p divides the discriminant P^2 - 4Q (repeated eigenvalue)."""


class SpecialPrime(FibfieldError):
    """p in {2, 5}: handled by the special-case report, not the main sweep."""


class InternalInvariantViolation(FibfieldError):
    """A runtime self-check failed; indicates an implementation bug."""
