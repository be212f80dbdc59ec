"""Eigenvalue analysis of companion matrices and exhaustive verification.

verify_main sweeps every divisor m of p-1 and checks that the three
conditions of the main equivalence (value set equals a power subgroup,
zero-free sequence of minimal period m, split prime with an eigenvalue of
order m) agree.  Disagreement on a main sweep is either an implementation
bug or a finding about the literal conditions, such as p = 13 and 17, where
a zero-free orbit of period 2(p+1) covers all of F_p^x; the CLI treats it
as a hard failure (exit 1) either way.

verify_complementary does the analogous sweep over divisors of 2(p+1) for
the norm-subgroup statement, but only *reports* the verdicts.  F_{p^2}^x is
cyclic and F_p^x is its only subgroup of order p-1, so the item-(1)
subgroup of order m lies in F_p exactly when m | p-1; for every other m the
value-set reading is recorded as "inapplicable".  There are small primes
with no zero-free sequence at all where the order condition is still
satisfiable, so nothing here is asserted as a theorem.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import theorem_cap
from .errors import (
    BadPrime,
    CapExceeded,
    DegenerateDiscriminant,
    InternalInvariantViolation,
    SpecialPrime,
)
from .fibseq import (
    FIBONACCI,
    PeriodReport,
    RecurrenceParams,
    SequenceId,
    enumerate_star,
    mat_order,
    star_summary,
)
from .modarith import (
    divisors,
    factorize,
    is_prime,
    legendre,
    mod_inv,
    multiplicative_order,
    sqrt_mod,
)
from .quadext import QuadContext, QuadElement, conjugate, ext_order, q_mul

SPECIAL_PRIMES = (2, 5)

INAPPLICABLE = "inapplicable"


def _check_prime(p: int, params: RecurrenceParams) -> None:
    if p == 2 or not is_prime(p):
        raise BadPrime(f"p = {p} is not an odd prime")
    D = params.discriminant
    if D % p == 0:
        raise DegenerateDiscriminant(f"p = {p} divides discriminant {D}")
    if params.Q % p == 0:
        raise DegenerateDiscriminant(f"p = {p} divides Q = {params.Q}")


def _check_cap(p: int) -> None:
    cap = theorem_cap()
    if p > cap:
        raise CapExceeded(f"p = {p} exceeds the theorem sweep cap {cap}")


def splitting_type(p: int, params: RecurrenceParams = FIBONACCI) -> str:
    """'split' iff the characteristic polynomial has its roots in F_p."""
    _check_prime(p, params)
    split = legendre(params.discriminant, p) == 1
    if params.is_fibonacci and split != (p % 5 in (1, 4)):
        # independent check via the residue of p mod 5
        raise InternalInvariantViolation(f"Legendre symbol disagrees with p mod 5 at p = {p}")
    return "split" if split else "inert"


class EigenData(NamedTuple):
    """Eigenvalues of the companion matrix and their multiplicative orders.

    In the split case phi and phi_prime are residues mod p; in the inert
    case they are conjugate elements of F_{p^2}.  l and l_prime are the
    orders in F_{p^2}^x (which coincide with the F_p^x orders when split).
    """

    p: int
    params: RecurrenceParams
    splitting: str
    phi: int | QuadElement
    phi_prime: int | QuadElement
    l: int
    l_prime: int

    @property
    def M0(self) -> int:
        return min(self.l, self.l_prime)

    @property
    def M1(self) -> int:
        return max(self.l, self.l_prime)


def eigen_data(p: int, params: RecurrenceParams = FIBONACCI) -> EigenData:
    """Eigenvalues and orders; phi takes the smaller square root of D."""
    kind = splitting_type(p, params)
    if kind == "split":
        roots = sqrt_mod(params.discriminant % p, p)
        if roots is None:
            raise InternalInvariantViolation(f"split p = {p} but no square root of D")
        r = roots[0]
        inv2 = mod_inv(2, p)
        phi = (params.P + r) * inv2 % p
        phi_prime = (params.P - r) * inv2 % p
        l = multiplicative_order(phi, p, p - 1)
        l_prime = multiplicative_order(phi_prime, p, p - 1)
        return EigenData(p, params, kind, phi, phi_prime, l, l_prime)
    ctx = QuadContext(p, params.P, params.Q)
    phi = ctx.lam()
    phi_prime = conjugate(phi)
    return EigenData(p, params, kind, phi, phi_prime, ext_order(phi), ext_order(phi_prime))


def cond_order(ed: EigenData, m: int) -> bool:
    """Split prime and some eigenvalue has order exactly m in F_p^x."""
    return ed.splitting == "split" and (ed.l == m or ed.l_prime == m)


class ConditionTriple(NamedTuple):
    """Verdicts of the three equivalent conditions for one (p, m)."""

    cond_powerset: bool
    cond_period: bool
    cond_order: bool

    @property
    def uniform(self) -> bool:
        return self.cond_powerset == self.cond_period == self.cond_order


class MainReport(NamedTuple):
    """Per-m condition triples over all m | p-1 and the overall verdict."""

    p: int
    params: RecurrenceParams
    triples: dict[int, ConditionTriple]
    consistent: bool
    theorem_proven: bool = True

    def payload(self) -> dict:
        return {
            "p": self.p,
            "conditions": {
                str(m): {
                    "powerset": t.cond_powerset,
                    "period": t.cond_period,
                    "order": t.cond_order,
                }
                for m, t in self.triples.items()
            },
            "consistent": self.consistent,
            "theorem_proven": self.theorem_proven,
        }


def verify_main(p: int, params: RecurrenceParams = FIBONACCI) -> MainReport:
    """Evaluate all three conditions for every m | p-1 by one O(p^2) sweep."""
    if params.is_fibonacci and p in SPECIAL_PRIMES:
        raise SpecialPrime(f"p = {p}: use special_case_report")
    ed = eigen_data(p, params)
    _check_cap(p)
    periods, subgroup_ms = star_summary(p, params)
    triples: dict[int, ConditionTriple] = {}
    for m in divisors(factorize(p - 1)):
        triples[m] = ConditionTriple(
            cond_powerset=m in subgroup_ms,
            cond_period=m in periods,
            cond_order=cond_order(ed, m),
        )
    consistent = all(t.uniform for t in triples.values())
    return MainReport(p, params, triples, consistent, theorem_proven=params.is_fibonacci)


def verify_lucas(p: int, params: RecurrenceParams) -> MainReport:
    """Same sweep for a general Lucas recurrence.

    For non-Fibonacci params the equivalence is an empirical finding, not an
    asserted theorem: theorem_proven is False on the report.
    """
    if math.gcd(params.P * params.Q, p) != 1:
        raise DegenerateDiscriminant(f"gcd(PQ, {p}) != 1")
    return verify_main(p, params)


class ComplementaryEntry(NamedTuple):
    cond_period: bool
    cond_order: bool
    cond_powerset_interp_a: bool | str  # bool or INAPPLICABLE


class ComplementaryReport(NamedTuple):
    """Reporting-only sweep over m | 2(p+1) for the norm-subgroup statement."""

    p: int
    entries: dict[int, ComplementaryEntry]
    equivalence_23: bool
    notes: list[str]

    def payload(self) -> dict:
        return {
            "p": self.p,
            "entries": {
                str(m): {
                    "period": e.cond_period,
                    "order": e.cond_order,
                    "powerset": e.cond_powerset_interp_a,
                }
                for m, e in self.entries.items()
            },
            "equivalence_23": self.equivalence_23,
            "notes": self.notes,
        }


def verify_complementary(p: int) -> ComplementaryReport:
    """Record, per m | 2(p+1), the period condition (brute force), the
    inert-order condition, and the literal value-set reading of the norm
    subgroup statement.  Never asserts the equivalence.

    For inert p the order-m subgroup of the norm subgroup lies in F_p iff
    m | p-1, and is then the order-m subgroup of F_p^x; the value-set
    reading is tested only there and is "inapplicable" otherwise.
    """
    if p in SPECIAL_PRIMES:
        raise SpecialPrime(f"p = {p}: use special_case_report")
    params = FIBONACCI
    ed = eigen_data(p, params)
    _check_cap(p)
    periods, subgroup_ms = star_summary(p, params)
    inert = ed.splitting == "inert"
    size = 2 * (p + 1)
    entries: dict[int, ComplementaryEntry] = {}
    notes: list[str] = []
    for m in divisors(factorize(size)):
        period_ok = m in periods
        order_ok = inert and (ed.l == m or ed.l_prime == m)
        powerset: bool | str = INAPPLICABLE
        if inert and (p - 1) % m == 0:
            powerset = m in subgroup_ms
        if powerset == INAPPLICABLE and (period_ok or order_ok):
            notes.append(f"m={m}: item-(1) subgroup leaves F_p, recorded inapplicable")
        if period_ok != order_ok:
            notes.append(f"m={m}: period={period_ok} but order={order_ok}")
        entries[m] = ComplementaryEntry(period_ok, order_ok, powerset)
    equivalence_23 = all(e.cond_period == e.cond_order for e in entries.values())
    return ComplementaryReport(p, entries, equivalence_23, notes)


def special_case_report(
    p: int, params: RecurrenceParams = FIBONACCI
) -> list[tuple[SequenceId, PeriodReport]]:
    """Concrete zero-free orbit listing for the excluded primes 2 and 5."""
    if p not in SPECIAL_PRIMES:
        raise BadPrime(f"p = {p} is not a special prime (2 or 5)")
    return enumerate_star(p, params)


def check_eigen_invariants(p: int, params: RecurrenceParams = FIBONACCI) -> EigenData:
    """Run the proof-ingredient self-checks for one prime and return the data.

    Checks: trace/norm relations of the eigenvalue pair, the mutual
    divisibility l' | 2l and l | 2l', M1 in {M0, 2*M0}, and that the
    companion matrix has order exactly M1.
    """
    ed = eigen_data(p, params)
    if ed.splitting == "split":
        _check((ed.phi + ed.phi_prime) % p == params.P % p, "trace", p)
        _check((ed.phi * ed.phi_prime) % p == params.Q % p, "norm", p)
        if params.is_fibonacci:
            _check(ed.phi * ed.phi_prime % p == p - 1, "phi' = -phi^{-1}", p)
    else:
        s = (ed.phi.c0 + ed.phi_prime.c0) % p, (ed.phi.c1 + ed.phi_prime.c1) % p
        _check(s == (params.P % p, 0), "trace", p)
        prod = q_mul(ed.phi, ed.phi_prime)
        _check((prod.c0, prod.c1) == (params.Q % p, 0), "norm", p)
    _check((2 * ed.l) % ed.l_prime == 0, "l' | 2l", p)
    _check((2 * ed.l_prime) % ed.l == 0, "l | 2l'", p)
    _check(ed.M1 in (ed.M0, 2 * ed.M0), "M1 in {M0, 2 M0}", p)
    _check(mat_order(params, p) == ed.M1, "mat_order = M1", p)
    return ed


def _check(ok: bool, what: str, p: int) -> None:
    """Raise AssertionError even under python -O, where assert is stripped."""
    if not ok:
        raise AssertionError(f"{what} fails at p = {p}")
