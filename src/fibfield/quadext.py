"""Arithmetic in the field F_p[x]/(x^2 - Px + Q), isomorphic to F_{p^2}.

Elements are written c0 + c1*lam in the basis {1, lam} of the companion
polynomial, so the root lam itself is always the element (0, 1) and no
root-finding in F_{p^2} is needed.  The ring is a field exactly when the
discriminant D = P^2 - 4Q is a non-residue mod p (the inert case); a
context is refused with SplitContext when it is built otherwise, so every
QuadContext is F_{p^2}.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadPrime, InternalInvariantViolation, ModulusMismatch, NotInvertible, SplitContext
from .modarith import factorize, is_prime, least_dividing, legendre, multiplicative_order


class _QuadContextFields(NamedTuple):
    p: int
    P: int
    Q: int


class QuadContext(_QuadContextFields):
    """The field F_p[x]/(x^2 - Px + Q): lam has trace P and norm Q.

    Raises BadPrime unless p is an odd prime, and SplitContext unless
    P^2 - 4Q is a non-residue mod p.
    """

    __slots__ = ()

    def __new__(cls, p: int, P: int, Q: int):
        if p < 3 or not is_prime(p):
            raise BadPrime(f"p = {p} is not an odd prime")
        if legendre(P * P - 4 * Q, p) != -1:
            raise SplitContext(f"x^2 - {P % p}x + {Q % p} splits mod {p}; not a field")
        return super().__new__(cls, p, P % p, Q % p)

    def element(self, c0: int, c1: int = 0) -> "QuadElement":
        return QuadElement(c0 % self.p, c1 % self.p, self)

    def one(self) -> "QuadElement":
        return self.element(1)

    def lam(self) -> "QuadElement":
        return self.element(0, 1)


class QuadElement(NamedTuple):
    """c0 + c1*lam with lam^2 = P*lam - Q; components reduced mod p."""

    c0: int
    c1: int
    ctx: QuadContext

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0


def _same_ctx(x: QuadElement, y: QuadElement) -> QuadContext:
    if x.ctx != y.ctx:
        raise ModulusMismatch(f"{x.ctx} vs {y.ctx}")
    return x.ctx


def q_mul(x: QuadElement, y: QuadElement) -> QuadElement:
    """Product reduced by lam^2 = P*lam - Q."""
    ctx = _same_ctx(x, y)
    p, P, Q = ctx.p, ctx.P, ctx.Q
    cross = x.c1 * y.c1
    c0 = (x.c0 * y.c0 - Q * cross) % p
    c1 = (x.c0 * y.c1 + x.c1 * y.c0 + P * cross) % p
    return QuadElement(c0, c1, ctx)


def q_pow(x: QuadElement, e: int) -> QuadElement:
    """x^e by square-and-multiply; e = 0 gives 1."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    acc = x.ctx.one()
    base = x
    while e:
        if e & 1:
            acc = q_mul(acc, base)
        base = q_mul(base, base)
        e >>= 1
    return acc


def conjugate(x: QuadElement) -> QuadElement:
    """The other root of the minimal polynomial: lam -> P - lam.

    This is the Frobenius x -> x^p (tested property).
    """
    p = x.ctx.p
    return QuadElement((x.c0 + x.c1 * x.ctx.P) % p, (-x.c1) % p, x.ctx)


def norm(x: QuadElement) -> int:
    """Nr(x) = x * conjugate(x), which lands in the base field.

    Symbolically (c0 + c1*lam)(c0 + c1*P - c1*lam)
      = c0^2 + P*c0*c1 - c1^2*lam^2 + P*c1^2*lam ... = c0^2 + P*c0*c1 + Q*c1^2
    after reducing lam^2 = P*lam - Q; the lam-component cancels exactly, and
    we assert that at runtime.
    """
    prod = q_mul(x, conjugate(x))
    if prod.c1 != 0:
        raise InternalInvariantViolation(f"norm of {x} has lam-component {prod.c1}")
    return prod.c0


def ext_order(x: QuadElement) -> int:
    """Multiplicative order l of x in F_{p^2}^x, read off its norm.

    x^p is the conjugate of x, so x^{p+1} = norm(x) lies in F_p^x, and
    n = ord(norm(x)) = l / gcd(l, p+1).  Then l = n*g with g = gcd(l, p+1),
    and since n | l, y = x^n has order l / n = g, a divisor of p+1.  So
    l = n * ord(y), where ord(y) is found by stripping the primes of p+1
    alone; least_dividing raises BadGroupOrder unless y^{p+1} = 1.
    """
    if x.is_zero():
        raise NotInvertible("order of 0 is undefined")
    p = x.ctx.p
    one = x.ctx.one()
    n = multiplicative_order(norm(x), p)
    y = q_pow(x, n)
    return n * least_dividing(factorize(p + 1), lambda t: q_pow(y, t) == one)
