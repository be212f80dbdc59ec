"""Arithmetic in the quadratic extension ring F_p[x]/(x^2 - Px + Q).

Elements are written c0 + c1*lam in the basis {1, lam} of the companion
polynomial, so in the inert case the root lam itself is always the element
(0, 1) and no root-finding in F_{p^2} is needed.  The context is inert (a
field isomorphic to F_{p^2}) exactly when the discriminant D = P^2 - 4Q is a
non-residue mod p; split contexts still support ring operations, conjugation
and the norm form, but refuse field-only operations (orders, norm subgroups)
with SplitContext.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    ContextMismatch,
    InternalInvariantViolation,
    SplitContext,
    ZeroElement,
)
from .modarith import factorize_product, is_prime, least_dividing, legendre


class _QuadContextFields(NamedTuple):
    p: int
    P: int
    Q: int


class QuadContext(_QuadContextFields):
    """The ring F_p[x]/(x^2 - Px + Q): lam has trace P and norm Q."""

    __slots__ = ()

    def __new__(cls, p: int, P: int, Q: int):
        if p < 3 or not is_prime(p):
            raise ValueError(f"p = {p} must be an odd prime")
        return super().__new__(cls, p, P % p, Q % p)

    @property
    def discriminant(self) -> int:
        return (self.P * self.P - 4 * self.Q) % self.p

    @property
    def is_inert(self) -> bool:
        return legendre(self.discriminant, self.p) == -1

    def element(self, c0: int, c1: int = 0) -> "QuadElement":
        return QuadElement(c0 % self.p, c1 % self.p, self)

    def one(self) -> "QuadElement":
        return self.element(1)

    def lam(self) -> "QuadElement":
        return self.element(0, 1)

    def require_inert(self) -> None:
        if not self.is_inert:
            raise SplitContext(
                f"x^2 - {self.P}x + {self.Q} splits mod {self.p}; not a field"
            )


class QuadElement(NamedTuple):
    """c0 + c1*lam with lam^2 = P*lam - Q; components reduced mod p."""

    c0: int
    c1: int
    ctx: QuadContext

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0


def _same_ctx(x: QuadElement, y: QuadElement) -> QuadContext:
    if x.ctx != y.ctx:
        raise ContextMismatch(f"{x.ctx} vs {y.ctx}")
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

    In inert contexts this is the Frobenius x -> x^p (tested property).
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
    """Multiplicative order of x in F_{p^2}^x (inert contexts only)."""
    x.ctx.require_inert()
    if x.is_zero():
        raise ZeroElement("order of 0 is undefined")
    one = x.ctx.one()
    return least_dividing(factorize_product(x.ctx.p - 1, x.ctx.p + 1),
                          lambda t: q_pow(x, t) == one)
