"""Recurrence orbits a_n = P*a_{n-1} - Q*a_{n-2} over Z/NZ.

Sequences are 1-based: the seed is (a_1, a_2) and the value set includes the
seed terms.  A sequence is identified with the cycle of consecutive pairs
(a_n, a_{n+1}) under the companion matrix B = (0 1; -Q P); two sequences are
shifts of each other iff their pairs share an orbit.  The zero pair is
assigned minimal period 1 (B fixes it).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import DEFAULT_THEOREM_CAP, theorem_cap
from .errors import BadPrime, CapExceeded, InternalInvariantViolation, ModulusMismatch, NotInvertible
from .modarith import Factorization, factorize, is_prime, least_dividing, legendre, multiplicative_order


class RecurrenceParams(NamedTuple):
    """Coefficients of a_n = P*a_{n-1} - Q*a_{n-2}."""

    P: int
    Q: int

    @property
    def discriminant(self) -> int:
        return self.P * self.P - 4 * self.Q

    @property
    def is_fibonacci(self) -> bool:
        return (self.P, self.Q) == (1, -1)


FIBONACCI = RecurrenceParams(1, -1)


class Mat2(NamedTuple):
    """2x2 matrix (a b; c d) over Z/nZ, entries reduced."""

    n: int
    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def identity(n: int) -> "Mat2":
        return Mat2(n, 1 % n, 0, 0, 1 % n)

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        x, y = v
        return ((self.a * x + self.b * y) % self.n, (self.c * x + self.d * y) % self.n)


def companion_matrix(params: RecurrenceParams, N: int) -> Mat2:
    """B_{P,Q} = (0 1; -Q P); Fibonacci params give A = (0 1; 1 1)."""
    return Mat2(N, 0, 1 % N, (-params.Q) % N, params.P % N)


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    if x.n != y.n:
        raise ModulusMismatch(f"{x.n} vs {y.n}")
    n = x.n
    return Mat2(
        n,
        (x.a * y.a + x.b * y.c) % n,
        (x.a * y.b + x.b * y.d) % n,
        (x.c * y.a + x.d * y.c) % n,
        (x.c * y.b + x.d * y.d) % n,
    )


def mat_pow(x: Mat2, e: int) -> Mat2:
    if e < 0:
        raise ValueError("exponent must be non-negative")
    acc = Mat2.identity(x.n)
    while e:
        if e & 1:
            acc = mat_mul(acc, x)
        x = mat_mul(x, x)
        e >>= 1
    return acc


def _factored_product(counts: dict[int, int], pieces: list[tuple[int, int]]) -> Factorization:
    """The factorization of prod(q^j for q, j in counts) * prod(k^times for
    k, times in pieces), each k factored on its own: the product may pass the
    width cap.  counts must map primes to exponents; it is updated in place."""
    for k, times in pieces:
        for q, j in factorize(k).factors:
            counts[q] = counts.get(q, 0) + j * times
    bound = 1
    for q, j in counts.items():
        bound *= q**j
    return Factorization(bound, tuple(sorted(counts.items())))


def _gl2_exponent_bound(N: int) -> Factorization:
    """A factored multiple of the order of any element of GL2(Z/NZ).

    Composed per prime power l^e || N from l^(4e-3) * (l-1) * (l^2-1)
    (the order of GL2(Z/l^e)).
    """
    counts: dict[int, int] = {}
    pieces: list[tuple[int, int]] = []
    for ell, e in factorize(N).factors:
        counts[ell] = 4 * e - 3
        # (l-1)(l^2-1) = (l-1)^2 (l+1)
        pieces += [(ell - 1, 2), (ell + 1, 1)]
    return _factored_product(counts, pieces)


def mat_order(params: RecurrenceParams, N: int) -> int:
    """Least t >= 1 with B^t = Id (the Pisano-type period for Fibonacci).

    For prime N the primes are stripped from a multiple that the roots of
    x^2 - Px + Q, the eigenvalues of B, give through D = P^2 - 4Q mod N
    alone (Wall's bounds, for Fibonacci):
    - N | D: one root lam, a unit, so B = lam(Id + X) with X^2 = 0, and
      lam^(N-1) = 1 and (Id + X)^N = Id + NX = Id give an order dividing N(N-1);
    - N odd and D a nonzero square: two distinct roots in F_N^x, so B is
      diagonalizable over F_N and its order divides N - 1;
    - otherwise (N = 2 included, where x^2 + x + 1 is irreducible) F_N[B] is
      F_{N^2}, whose Frobenius takes the root B to the other root P - B, so
      B^(N+1) = B(P - B) = Q*Id and the order divides ord_N(Q) * (N+1).
    Composite N strips from the order of GL2(Z/N), `_gl2_exponent_bound`.
    In every case `least_dividing` raises BadGroupOrder unless B to the
    bound is Id.
    """
    _check_modulus(N)
    _require_invertible(params, N)
    D = params.discriminant % N
    if not is_prime(N):
        bound = _gl2_exponent_bound(N)
    elif D == 0:
        bound = _factored_product({N: 1}, [(N - 1, 1)])
    elif N > 2 and legendre(D, N) == 1:
        bound = factorize(N - 1)
    else:
        bound = _factored_product({}, [(multiplicative_order(params.Q, N), 1), (N + 1, 1)])
    B = companion_matrix(params, N)
    ident = Mat2.identity(N)
    return least_dividing(bound, lambda t: mat_pow(B, t) == ident)


class _SequenceIdFields(NamedTuple):
    N: int
    a1: int
    a2: int
    params: RecurrenceParams


class SequenceId(_SequenceIdFields):
    """One recurrence orbit: modulus, seed pair (reduced mod N) and coefficients."""

    __slots__ = ()

    def __new__(cls, N: int, a1: int, a2: int, params: RecurrenceParams):
        _check_modulus(N)
        return super().__new__(cls, N, a1 % N, a2 % N, params)


class PeriodReport(NamedTuple):
    """Minimal period, nonvanishing flag, and value set of one sequence."""

    minimal_period: int
    nonvanishing: bool
    value_set: frozenset[int]


def generate(seq: SequenceId, count: int) -> list[int]:
    """First `count` terms a_1, a_2, a_3 = P*a_2 - Q*a_1, ..."""
    N, P, Q = seq.N, seq.params.P, seq.params.Q
    out: list[int] = []
    a, b = seq.a1, seq.a2
    for _ in range(count):
        out.append(a)
        a, b = b, (P * b - Q * a) % N
    return out


def minimal_period(seq: SequenceId) -> int:
    """Least k >= 1 with B^k (a1,a2)^T = (a1,a2)^T; the zero pair gives 1.

    The period divides mat_order, so it is found by stripping primes from
    it, and a mat_order that the period does not divide raises
    BadGroupOrder; the direct iteration strategy lives in the test oracles
    and must agree.
    """
    if seq.a1 == 0 and seq.a2 == 0:
        return 1
    B = companion_matrix(seq.params, seq.N)
    v = (seq.a1, seq.a2)
    return least_dividing(factorize(mat_order(seq.params, seq.N)),
                          lambda t: mat_pow(B, t).apply(v) == v)


def period_report(seq: SequenceId) -> PeriodReport:
    """Minimal period, nonvanishing flag and value set from one period of terms.

    One period is held in memory, so a period longer than the pair budget of
    the largest `enumerate` (DEFAULT_THEOREM_CAP^2 terms) raises CapExceeded
    before any term is generated.
    """
    k = minimal_period(seq)
    if k > DEFAULT_THEOREM_CAP**2:
        raise CapExceeded(f"period {k} exceeds the cap of {DEFAULT_THEOREM_CAP**2} terms")
    terms = generate(seq, k)
    return PeriodReport(len(terms), 0 not in terms, frozenset(terms))


def is_star(seq: SequenceId) -> bool:
    """True iff no term over one minimal period is 0."""
    return period_report(seq).nonvanishing


def value_set(seq: SequenceId) -> frozenset[int]:
    """Set of terms over one minimal period."""
    return period_report(seq).value_set


def _check_modulus(N: int) -> None:
    if N < 1:
        raise ValueError(f"modulus N = {N} must be at least 1")


def _check_cap(N: int) -> None:
    # `_orbits` walks all N^2 pairs in N^2 bytes
    if N > DEFAULT_THEOREM_CAP:
        raise CapExceeded(f"N = {N} exceeds the enumeration cap {DEFAULT_THEOREM_CAP}")


def _require_invertible(params: RecurrenceParams, N: int) -> None:
    if math.gcd(params.Q, N) != 1:
        raise NotInvertible(f"gcd(Q={params.Q}, N={N}) != 1")


def _orbits(N: int, params: RecurrenceParams):
    """Walk all N^2 - 1 nonzero pairs once, grouped into orbits under B.

    Yields (a1 * N + a2 of the orbit's lexicographically least pair, first
    coordinates over one period) per orbit, in increasing order of that
    pair: a scan in index order meets each orbit first at its least pair.
    It serves `enumerate_star` only, with one step (a, b) -> (b, P*b - Q*a)
    for every (P, Q): a Fibonacci add-and-compare step measured no faster.
    """
    _check_modulus(N)
    _check_cap(N)
    _require_invertible(params, N)
    P = params.P % N
    negQ = (-params.Q) % N
    visited = bytearray(N * N)
    for start in range(1, N * N):
        if visited[start]:
            continue
        a, b = divmod(start, N)
        idx = start
        values = []
        append = values.append
        while True:
            visited[idx] = 1
            append(a)
            a, b = b, (P * b + negQ * a) % N
            idx = a * N + b
            if idx == start:
                break
        yield start, values


def _line_map(p: int, params: RecurrenceParams) -> list[int]:
    """nxt[r] = P - Q/r mod the prime p: where B takes the line r = b/a of
    P^1(F_p).  nxt[0] = P stands for the step 0 -> infinity -> P, so nxt
    is a permutation of F_p when Q is a unit mod p."""
    P, negQ = params.P % p, (-params.Q) % p
    # inv[r] = -(p // r) * inv[p % r], from p = (p // r) * r + p % r; inv[0] = 0
    inv = [0, 1] + [0] * (p - 2)
    for r in range(2, p):
        inv[r] = -(p // r) * inv[p % r] % p
    return [(P + negQ * i) % p for i in inv]


def star_summary(
    p: int, params: RecurrenceParams = FIBONACCI
) -> tuple[set[int], set[int]]:
    """Periods of the zero-free orbits mod the prime p, and the m whose
    order-m subgroup of F_p^x is one of their value sets, from one walk over
    the line orbits of F_p under `_line_map`, starting at the line 0; memory
    is O(p), and so are the steps and the modular powers taken.

    B takes (a, a*r) to (a*r, a*(P - Q/r)): the scalar a is multiplied by r,
    and the line r steps to nxt[r] = P - Q/r.  The walk takes each line
    orbit r_0, ..., r_{k-1} once, and raises if it meets a line already
    walked (nxt is no permutation).  It takes the orbit of the line 0 first
    and only marks its lines: they are the lines of the pair orbits through
    0, about 58% of all lines for Fibonacci at p <= 400.  On every other
    orbit, after k steps the scalar has been multiplied by
    mu = r_0 * ... * r_{k-1}, which is nonzero.  Every pair on those lines
    has period k*d with d = ord(mu), and the pair
    orbit of (c, c*r_0) has value set c*S, where S = <mu> * V_k and
    V_k = {1, r_0, r_0*r_1, ...} holds the first coordinates of its first k
    steps.  <mu> is the kernel of v -> v^d, so |S| = d * |{v^d : v in V_k}|,
    and some c*S is the order-m subgroup iff m = |S|, m | p-1 and v^m takes
    one value on V_k (x^m - 1 has at most m roots).

    B commutes with scalars, so the walk from (c, c*r_0) is c times the walk
    from (1, r_0), and d is read by iterating mu on that one walk: the least
    d with mu^d = 1, once per multiplier, since every line orbit off the
    eigenlines has the same mu.  The check on d is theorem.census: both
    sweeps compare these periods with the ones the eigenvalues predict.

    Raises CapExceeded for p above the sweep cap, `config.theorem_cap()`.
    """
    _check_modulus(p)
    cap = theorem_cap()
    if p > cap:
        raise CapExceeded(f"p = {p} exceeds the theorem sweep cap {cap}")
    if not is_prime(p):
        raise BadPrime(f"p = {p} is not prime")
    _require_invertible(params, p)
    nxt = _line_map(p, params)
    periods: set[int] = set()
    subgroup_ms: set[int] = set()
    orders: dict[int, int] = {}
    walked = bytearray(p)
    # the orbit of the line 0 holds no zero-free pair: it is only marked
    r0 = r = 0
    while not walked[r]:
        walked[r] = 1
        r = nxt[r]
    while True:
        if r != r0:
            raise InternalInvariantViolation(
                f"walk from line {r0} mod {p} meets a line already walked")
        r0 = walked.find(0, r0 + 1)
        if r0 < 0:
            return periods, subgroup_ms
        values = []
        mu, r = 1, r0
        while not walked[r]:
            walked[r] = 1
            values.append(mu)
            mu = mu * r % p
            r = nxt[r]
        d = orders.get(mu)
        if d is None:
            d = orders[mu] = _multiplier_order(mu, p)
        periods.add(len(values) * d)
        m = d * len({pow(v, d, p) for v in values})
        if (p - 1) % m == 0 and len({pow(v, m, p) for v in values}) == 1:
            subgroup_ms.add(m)


def _multiplier_order(mu: int, p: int) -> int:
    """ord(mu) mod the prime p by direct iteration: the least d >= 1 with
    mu^d = 1.  Every unit mod p has one below p; raises if mu has none."""
    a = mu
    for d in range(1, p):
        if a == 1:
            return d
        a = a * mu % p
    raise InternalInvariantViolation(f"multiplier {mu} mod {p} has no order below {p}")


def enumerate_star(
    N: int, params: RecurrenceParams = FIBONACCI
) -> list[tuple[SequenceId, PeriodReport]]:
    """One representative per zero-free orbit (its lexicographically least
    pair) with its report, in order of that pair."""
    return [
        (SequenceId(N, *divmod(rep, N), params),
         PeriodReport(len(values), True, frozenset(values)))
        for rep, values in _orbits(N, params)
        if 0 not in values
    ]
