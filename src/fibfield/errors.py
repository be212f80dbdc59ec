"""Typed errors raised by the fibfield library."""


class FibfieldError(Exception):
    """Base class for all fibfield errors."""


class NotInvertible(FibfieldError):
    """Element is not a unit: a residue with gcd(a, n) != 1, or a companion
    matrix with gcd(Q, N) != 1."""


class BadGroupOrder(FibfieldError):
    """A claimed multiple of an order or period is not one (a^t != 1,
    B^t != Id or B^t v != v); raised by modarith.least_dividing."""


class BadPrime(FibfieldError):
    """Argument fails the primality precondition (p is not an odd prime)."""


class CapExceeded(FibfieldError):
    """A prime, modulus or period exceeds its configured cap."""


class ModulusMismatch(FibfieldError):
    """Binary operation on matrices over different moduli."""


class DegenerateDiscriminant(FibfieldError):
    """p divides the discriminant P^2 - 4Q (repeated eigenvalue), or Q, or
    in a sweep P: the rule of theorem.degeneracy."""


class InternalInvariantViolation(FibfieldError):
    """A runtime self-check failed; indicates an implementation bug."""
