"""Typed errors raised by the fibfield library."""


class FibfieldError(Exception):
    """Base class for all fibfield errors."""


class NotInvertible(FibfieldError):
    """Element is not a unit modulo n (gcd != 1)."""


class BadGroupOrder(FibfieldError):
    """A claimed multiple of an order or period is not one (a^t != 1,
    B^t != Id or B^t v != v); raised by modarith.least_dividing."""


class BadPrime(FibfieldError):
    """Argument fails the primality (or special-prime) precondition."""


class CapExceeded(FibfieldError):
    """A prime, modulus or period exceeds its configured cap."""


class ContextMismatch(FibfieldError):
    """Binary operation on quadratic elements from different contexts."""


class ModulusMismatch(FibfieldError):
    """Binary operation on matrices over different moduli."""


class SplitContext(FibfieldError):
    """x^2 - Px + Q has a root mod p, so F_p[x]/(x^2 - Px + Q) is not a
    field; QuadContext refuses it when it is built."""


class ZeroElement(FibfieldError):
    """Order of the zero element requested."""


class SingularMatrix(FibfieldError):
    """Companion matrix is not invertible: gcd(Q, N) != 1."""


class DegenerateDiscriminant(FibfieldError):
    """p divides the discriminant P^2 - 4Q (repeated eigenvalue)."""


class SpecialPrime(FibfieldError):
    """p in {2, 5}: a Fibonacci sweep skips it; enumerate_star lists its orbits."""


class InternalInvariantViolation(FibfieldError):
    """A runtime self-check failed; indicates an implementation bug."""
