"""Shared naive oracles, independent of the library's fast paths,
the F_{p^2} algebra `QuadContext` with `ext_order`, an eigenvalue order
that shares nothing with `mat_order`, `orbit_sizes`, which reads the
library's pair walker over every pair, `check_eigen_invariants`, the
proof-ingredient self-checks of `eigen_data`, and `reference_pool`, the
recorded point-query answers of perfbench."""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import pytest

from fibfield.errors import BadPrime, ModulusMismatch, NotInvertible
from fibfield.fibseq import FIBONACCI, RecurrenceParams, _orbits, mat_order
from fibfield.modarith import factorize, is_prime, least_dividing, legendre, multiplicative_order
from fibfield.theorem import EigenData, eigen_data

# The literal value-set condition is satisfiable at m = p-1 for p = 13 and 17
# (zero-free orbits of period 2(p+1) covering all of F_p^x) although the
# period and order conditions fail there: both primes are inert.
KNOWN_NONUNIFORM = {13: 12, 17: 16}

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def naive_order(a: int, n: int) -> int:
    """Least t >= 1 with a^t = 1 mod n, by plain iteration."""
    x = a % n
    t = 1
    while x != 1:
        x = x * a % n
        t += 1
        assert t <= n, "not a unit"
    return t


def naive_period(N: int, a1: int, a2: int, P: int = 1, Q: int = -1) -> int:
    """Minimal period of the pair orbit by direct iteration."""
    a, b = a1 % N, a2 % N
    t = 0
    while True:
        a, b = b, (P * b - Q * a) % N
        t += 1
        if (a, b) == (a1 % N, a2 % N):
            return t


def naive_orbits(N: int, P: int = 1, Q: int = -1) -> list[list[int]]:
    """Every orbit of nonzero pairs mod N (Q a unit), by direct iteration.

    Each orbit starts at its lexicographically least pair (a1, a2) and is
    given as its first coordinates a1, a2, a3, ... over one period.
    """
    seen = set()
    orbits = []
    for a1 in range(N):
        for a2 in range(N):
            if (a1, a2) == (0, 0) or (a1, a2) in seen:
                continue
            terms = []
            a, b = a1, a2
            while (a, b) not in seen:
                seen.add((a, b))
                terms.append(a)
                a, b = b, (P * b - Q * a) % N
            orbits.append(terms)
    return orbits


def naive_star_summary(p: int, P: int = 1, Q: int = -1) -> tuple[set[int], set[int]]:
    """The full-scan reference for `star_summary` at the prime p: every orbit
    from `naive_orbits`, those containing 0 dropped, gives its period, and m
    counts when the order-m subgroup, found by `power_subgroup`, is one of
    their value sets."""
    star = [terms for terms in naive_orbits(p, P, Q) if 0 not in terms]
    value_sets = {frozenset(terms) for terms in star}
    subgroup_ms = {m for m in range(1, p) if (p - 1) % m == 0
                   and frozenset(power_subgroup(p, (p - 1) // m)) in value_sets}
    return {len(terms) for terms in star}, subgroup_ms


def orbit_sizes(N: int, params: RecurrenceParams = FIBONACCI) -> list[int]:
    """Sizes of the library walker's orbits of nonzero pairs (star or not),
    in its order; they must partition the N^2 - 1 nonzero pairs."""
    return [len(values) for _, values in _orbits(N, params)]


def power_subgroup(p: int, r: int) -> set[int]:
    """The set {a^r : a in F_p^x}, the unique subgroup of order (p-1)/r,
    by scanning every unit."""
    if (p - 1) % r != 0:
        raise ValueError(f"{r} does not divide {p - 1}")
    sub = {pow(a, r, p) for a in range(1, p)}
    if len(sub) != (p - 1) // r:
        raise AssertionError(f"{len(sub)} {r}-th powers mod {p}, not {(p - 1) // r}")
    return sub


def naive_fib_eigen_orders(p: int) -> tuple[int, int]:
    """Orders of phi = x and phi' = 1 - x in F_p[x]/(x^2 - x - 1) for an
    inert prime p, by repeated multiplication.  With x^2 = x + 1:
    (c0 + c1 x) x = c1 + (c0 + c1) x and (c0 + c1 x)(1 - x) = (c0 - c1) - c0 x.
    """

    def order(step) -> int:
        c, t = step((1, 0)), 1
        while c != (1, 0):
            c, t = step(c), t + 1
        return t

    return (
        order(lambda c: (c[1], (c[0] + c[1]) % p)),
        order(lambda c: ((c[0] - c[1]) % p, -c[0] % p)),
    )


class _QuadContextFields(NamedTuple):
    p: int
    P: int
    Q: int


class QuadContext(_QuadContextFields):
    """The field F_p[x]/(x^2 - Px + Q), isomorphic to F_{p^2}: lam has
    trace P and norm Q.  Elements are c0 + c1*lam in the basis {1, lam}, so
    the root lam is always (0, 1).

    Raises BadPrime unless p is an odd prime, and ValueError unless
    P^2 - 4Q is a non-residue mod p (the inert case), so every context is a
    field.
    """

    __slots__ = ()

    def __new__(cls, p: int, P: int, Q: int):
        if p < 3 or not is_prime(p):
            raise BadPrime(f"p = {p} is not an odd prime")
        if legendre(P * P - 4 * Q, p) != -1:
            raise ValueError(f"x^2 - {P % p}x + {Q % p} splits mod {p}; not a field")
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


def q_mul(x: QuadElement, y: QuadElement) -> QuadElement:
    """Product reduced by lam^2 = P*lam - Q."""
    if x.ctx != y.ctx:
        raise ModulusMismatch(f"{x.ctx} vs {y.ctx}")
    p, P, Q = x.ctx
    cross = x.c1 * y.c1
    c0 = (x.c0 * y.c0 - Q * cross) % p
    c1 = (x.c0 * y.c1 + x.c1 * y.c0 + P * cross) % p
    return QuadElement(c0, c1, x.ctx)


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
    """The other root of the minimal polynomial: lam -> P - lam, which is
    the Frobenius x -> x^p (tested property)."""
    p = x.ctx.p
    return QuadElement((x.c0 + x.c1 * x.ctx.P) % p, (-x.c1) % p, x.ctx)


def norm(x: QuadElement) -> int:
    """Nr(x) = x * conjugate(x) = c0^2 + P*c0*c1 + Q*c1^2, which lands in
    the base field: the lam-component cancels, and that is checked."""
    prod = q_mul(x, conjugate(x))
    _check(prod.c1 == 0, f"norm of {x} in F_p", x.ctx.p)
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


def check_eigen_invariants(p: int, params: RecurrenceParams = FIBONACCI) -> EigenData:
    """Run the proof-ingredient self-checks for one prime and return the data.

    Checks: trace/norm relations of the eigenvalue pair, for inert p in
    `QuadContext` and with phi' of the order l' that eigen_data sets equal
    to l (read by `ext_order`, not by `mat_order`), the mutual divisibility
    l' | 2l and l | 2l', M1 in {M0, 2*M0}, and that the companion matrix
    has order exactly M1.
    """
    ed = eigen_data(p, params)
    if ed.splitting == "split":
        _check((ed.phi + ed.phi_prime) % p == params.P % p, "trace", p)
        _check((ed.phi * ed.phi_prime) % p == params.Q % p, "norm", p)
        if params.is_fibonacci:
            _check(ed.phi * ed.phi_prime % p == p - 1, "phi' = -phi^{-1}", p)
    else:
        ctx = QuadContext(p, params.P, params.Q)
        phi, phi_prime = ctx.element(*ed.phi), ctx.element(*ed.phi_prime)
        s = (phi.c0 + phi_prime.c0) % p, (phi.c1 + phi_prime.c1) % p
        _check(s == (params.P % p, 0), "trace", p)
        _check(q_mul(phi, phi_prime) == ctx.element(params.Q), "norm", p)
        _check(ext_order(phi_prime) == ed.l_prime, "ord(phi') = l'", p)
    _check((2 * ed.l) % ed.l_prime == 0, "l' | 2l", p)
    _check((2 * ed.l_prime) % ed.l == 0, "l | 2l'", p)
    _check(ed.M1 in (ed.M0, 2 * ed.M0), "M1 in {M0, 2 M0}", p)
    _check(mat_order(params, p) == ed.M1, "mat_order = M1", p)
    return ed


def _check(ok: bool, what: str, p: int) -> None:
    """Raise AssertionError even under python -O, where assert is stripped."""
    if not ok:
        raise AssertionError(f"{what} fails at p = {p}")


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if trial_division_is_prime(p)]


@pytest.fixture(scope="session")
def small_primes() -> list[int]:
    return primes_upto(200)


def reference_pool() -> list:
    """perfbench's point-query pool, read-only: [argv, sha256[:16] of the
    answer's stdout line] per query, `analyze p` (p < 2^31) and
    `period N a1 a2` (N < 10^5)."""
    with open(REFERENCE) as f:
        return json.load(f)["queries"]
