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

from .config import DEFAULT_THEOREM_CAP
from .errors import CapExceeded, InternalInvariantViolation, ModulusMismatch, SingularMatrix
from .modarith import Factorization, factorize, least_dividing


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


def _gl2_exponent_bound(N: int) -> Factorization:
    """A factored multiple of the order of any element of GL2(Z/NZ).

    Composed per prime power l^e || N from l^(4e-3) * (l-1) * (l^2-1)
    (the order of GL2(Z/l^e)); for prime N this is N(N-1)(N^2-1).
    """
    counts: dict[int, int] = {}

    def merge(f: Factorization) -> None:
        for p, e in f.factors:
            counts[p] = counts.get(p, 0) + e

    for ell, e in factorize(N).factors:
        counts[ell] = counts.get(ell, 0) + 4 * e - 3
        if ell > 2:
            merge(factorize(ell - 1))
        merge(factorize(ell * ell - 1))
    bound = 1
    for p, e in counts.items():
        bound *= p**e
    return Factorization(bound, tuple(sorted(counts.items())))


def mat_order(params: RecurrenceParams, N: int) -> int:
    """Least t >= 1 with B^t = Id (the Pisano-type period for Fibonacci)."""
    _check_modulus(N)
    _require_invertible(params, N)
    B = companion_matrix(params, N)
    ident = Mat2.identity(N)
    bound = _gl2_exponent_bound(N)
    if mat_pow(B, bound.n) != ident:
        raise InternalInvariantViolation(f"B^{bound.n} != Id mod {N}")
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
    it; the direct iteration strategy lives in the test oracles and must
    agree.
    """
    if seq.a1 == 0 and seq.a2 == 0:
        return 1
    B = companion_matrix(seq.params, seq.N)
    v = (seq.a1, seq.a2)
    return least_dividing(factorize(mat_order(seq.params, seq.N)),
                          lambda t: mat_pow(B, t).apply(v) == v)


def period_report(seq: SequenceId) -> PeriodReport:
    """Minimal period, nonvanishing flag and value set from one period of terms."""
    terms = generate(seq, minimal_period(seq))
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
    # the walk allocates N^2 bytes and takes O(N^2) steps
    if N > DEFAULT_THEOREM_CAP:
        raise CapExceeded(f"N = {N} exceeds the enumeration cap {DEFAULT_THEOREM_CAP}")


def _require_invertible(params: RecurrenceParams, N: int) -> None:
    if math.gcd(params.Q, N) != 1:
        raise SingularMatrix(f"gcd(Q={params.Q}, N={N}) != 1")


def _orbits(N: int, params: RecurrenceParams):
    """Walk all N^2 - 1 nonzero pairs once, grouped into orbits under B.

    Yields (a1 * N + a2 of the orbit's lexicographically least pair, first
    coordinates over one period) per orbit, in increasing order of that
    pair: a scan in index order meets each orbit first at its least pair.
    """
    _check_modulus(N)
    _check_cap(N)
    _require_invertible(params, N)
    P = params.P % N
    negQ = (-params.Q) % N
    fib_step = P == 1 and negQ == 1
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
            if fib_step:
                t = a + b
                if t >= N:
                    t -= N
                a, b = b, t
            else:
                a, b = b, (P * b + negQ * a) % N
            idx = a * N + b
            if idx == start:
                break
        yield start, values


def star_summary(
    p: int, params: RecurrenceParams = FIBONACCI
) -> tuple[set[int], set[int]]:
    """Periods of the zero-free orbits mod the prime p, and the m whose
    order-m subgroup of F_p^x is one of their value sets, from one walk.

    A value set V of m residues is that subgroup iff m | p-1 and v^m = 1 for
    every v in V: x^m - 1 has at most m roots, so V is all of them.
    """
    periods: set[int] = set()
    subgroup_ms: set[int] = set()
    for _, values in _orbits(p, params):
        if 0 in values:
            continue
        periods.add(len(values))
        distinct = set(values)
        m = len(distinct)
        if (p - 1) % m == 0 and all(pow(v, m, p) == 1 for v in distinct):
            subgroup_ms.add(m)
    return periods, subgroup_ms


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
