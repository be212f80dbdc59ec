"""Typed errors raised by the fibfield library."""


class FibfieldError(Exception):
    """Base class for all fibfield errors."""


class NotInvertible(FibfieldError):
    """Element is not a unit: a residue with gcd(a, n) != 1, a companion
    matrix with gcd(Q, N) != 1, or the zero element of F_{p^2}."""


class BadGroupOrder(FibfieldError):
    """A claimed multiple of an order or period is not one (a^t != 1,
    B^t != Id or B^t v != v); raised by modarith.least_dividing."""


class BadPrime(FibfieldError):
    """Argument fails the primality precondition (p is not an odd prime)."""


class CapExceeded(FibfieldError):
    """A prime, modulus or period exceeds its configured cap."""


class ModulusMismatch(FibfieldError):
    """Binary operation on matrices over different moduli, or on quadratic
    elements from different contexts."""


class SplitContext(FibfieldError):
    """x^2 - Px + Q has a root mod p, so F_p[x]/(x^2 - Px + Q) is not a
    field; QuadContext refuses it when it is built."""


class DegenerateDiscriminant(FibfieldError):
    """p divides the discriminant P^2 - 4Q (repeated eigenvalue), or Q, or
    in a sweep P: the rule of theorem.degeneracy."""


class InternalInvariantViolation(FibfieldError):
    """A runtime self-check failed; indicates an implementation bug."""
