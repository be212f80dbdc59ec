"""Exact modular arithmetic over Z/NZ.

Primality of n <= 10^4 is read from a sieve of Eratosthenes; above it,
deterministic Miller-Rabin with the fixed base set
(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37) decides it, which is correct for
all n < 3.3 * 10^24 and in particular for every 64-bit input.  Factorization is
trial division by the primes below 10^4 followed by Brent's variant of
Pollard rho with deterministic seeding (c = 1, 2, 3, ... until a factor
splits off).

Residues are plain ints in least-non-negative form; every function takes the
modulus explicitly.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from typing import NamedTuple

from .config import INT_WIDTH_CAP
from .errors import BadGroupOrder, NotInvertible

MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

TRIAL_DIVISION_BOUND = 10_000


def _sieve(n: int) -> bytearray:
    """sieve[k] == 1 iff k is prime, for 0 <= k <= n (Eratosthenes)."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return sieve


_SIEVE = _sieve(TRIAL_DIVISION_BOUND)
_TRIAL_PRIMES = tuple(itertools.compress(range(TRIAL_DIVISION_BOUND + 1), _SIEVE))


def _check_width(n: int) -> None:
    if n >= INT_WIDTH_CAP:
        raise ValueError(f"input {n} exceeds the 2^62 width cap")


def mod_inv(a: int, n: int) -> int:
    """Inverse of a modulo n; raises NotInvertible."""
    a %= n
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotInvertible(f"gcd({a}, {n}) = {math.gcd(a, n)} != 1") from None


def is_prime(n: int) -> bool:
    """Read from the sieve for n <= TRIAL_DIVISION_BOUND, deterministic
    Miller-Rabin above it; exact for all n < 2^64."""
    if n < 2:
        return False
    if n <= TRIAL_DIVISION_BOUND:
        return _SIEVE[n] == 1
    _check_width(n)
    # trial division by the bases leaves n > 37, so no base is a multiple of n
    for p in MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _FactorizationFields(NamedTuple):
    n: int
    factors: tuple[tuple[int, int], ...]


class Factorization(_FactorizationFields):
    """Complete factorization: factors sorted by prime, product equals n."""

    __slots__ = ()

    def __new__(cls, n: int, factors: tuple[tuple[int, int], ...]):
        prod = 1
        last = 0
        for p, e in factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1 or not is_prime(p):
                raise ValueError(f"bad factor ({p}, {e})")
            prod *= p**e
            last = p
        if prod != n:
            raise ValueError(f"factors reassemble to {prod}, not {n}")
        return super().__new__(cls, n, factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _pollard_rho(n: int) -> int:
    """Brent-cycle rho; n must be odd composite > 1.  Deterministic: the
    polynomial constant c walks 1, 2, 3, ... until a proper factor appears."""
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")  # unreachable for composite n


def factorize(n: int) -> Factorization:
    """Complete factorization of n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_width(n)
    original = n
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(original, tuple(sorted(counts.items())))


def divisors(f: Factorization) -> list[int]:
    """All divisors of f.n in increasing order."""
    divs = [1]
    for p, e in f.factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def least_dividing(f: Factorization, holds: Callable[[int], bool]) -> int:
    """Least t | f.n with holds(t), by stripping primes from f.n.

    The divisors of f.n that satisfy holds must be exactly the multiples of
    one of them, as for x^t = 1 (t a multiple of the order of x) or
    B^t v = v (t a multiple of the period of v).  f.n must be such a
    multiple: BadGroupOrder is raised when holds(f.n) is false.  Every order
    and period in fibfield is computed here; the naive loops live in the
    test oracles.
    """
    t = f.n
    if not holds(t):
        raise BadGroupOrder(f"{t} is not a multiple of the order or period sought")
    for p in f.primes:
        while t % p == 0 and holds(t // p):
            t //= p
    return t


def multiplicative_order(a: int, n: int) -> int:
    """Least t >= 1 with a^t = 1 mod n, by stripping the primes of n - 1.

    For prime n, Lagrange gives ord(a) | n - 1.  For any n, least_dividing
    raises BadGroupOrder unless a^(n-1) = 1, and when that holds ord(a)
    divides n - 1, so the result is the exact order even for composite n.
    """
    a %= n
    if math.gcd(a, n) != 1:
        raise NotInvertible(f"gcd({a}, {n}) != 1")
    return least_dividing(factorize(n - 1), lambda t: pow(a, t, n) == 1)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) by Euler's criterion; p an odd prime."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def sqrt_mod(a: int, p: int) -> tuple[int, int] | None:
    """Both square roots of a mod p (smaller first), or None if a is a
    non-residue; (0, 0) for a = 0.  Tonelli-Shanks for every odd prime p."""
    a %= p
    if a == 0:
        return (0, 0)
    if legendre(a, p) != 1:
        return None
    # Tonelli-Shanks: write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return (r, p - r) if r <= p - r else (p - r, r)
