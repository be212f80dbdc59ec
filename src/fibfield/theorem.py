"""Eigenvalue analysis of companion matrices and exhaustive verification.

eigen_data needs no F_{p^2} arithmetic: at a split p the eigenvalues are
residues, and at an inert p F_{p^2} is F_p[B] with the eigenvalue phi = B,
so its order is the order of the companion matrix, fibseq.mat_order.

verify_main sweeps every divisor m of p-1 and checks that the three
conditions of the main equivalence (value set equals a power subgroup,
zero-free sequence of minimal period m, split prime with an eigenvalue of
order m) agree.  Disagreement on a main sweep is either an implementation
bug or a finding about the literal conditions, such as p = 13 and 17, where
a zero-free orbit of period 2(p+1) covers all of F_p^x; the CLI treats it
as a hard failure (exit 1) either way.  The same function sweeps a Lucas
recurrence (params other than FIBONACCI), where the equivalence is only
reported: theorem_proven is False.

verify_complementary does the analogous sweep over divisors of 2(p+1) for
the norm-subgroup statement, but only *reports* the verdicts.  F_{p^2}^x is
cyclic and F_p^x is its only subgroup of order p-1, so the item-(1)
subgroup of order m lies in F_p exactly when m | p-1; for every other m the
value-set reading is recorded as "inapplicable".  There are small primes
with no zero-free sequence at all where the order condition is still
satisfiable, so nothing here is asserted as a theorem.

Both sweeps return the payload dict of one JSONL record, keyed by str(m),
which the CLI writes as is.  Both also compare the periods that
star_summary walks with the ones `census` predicts from the eigenvalues,
and raise InternalInvariantViolation when they differ; the census never
enters a record.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BadPrime, DegenerateDiscriminant, InternalInvariantViolation
from .fibseq import FIBONACCI, RecurrenceParams, mat_order, star_summary
from .modarith import (
    divisors,
    factorize,
    is_prime,
    least_dividing,
    mod_inv,
    multiplicative_order,
    sqrt_mod,
)

SPECIAL_PRIMES = (2, 5)

INAPPLICABLE = "inapplicable"


def degeneracy(p: int, params: RecurrenceParams, sweep: bool = True) -> str | None:
    """Why the odd prime p is degenerate for these params, or None.

    The one rule behind the verify skip and every DegenerateDiscriminant:
    p | D gives a repeated eigenvalue and p | Q a singular companion
    matrix, so `eigen_data` (sweep=False) refuses both; a sweep also leaves
    out p | P.  For Fibonacci params only p = 5 is degenerate.
    """
    D = params.discriminant
    if D % p == 0:
        return f"p = {p} divides discriminant {D}"
    if params.Q % p == 0:
        return f"p = {p} divides Q = {params.Q}"
    if sweep and params.P % p == 0:
        return f"p = {p} divides P = {params.P}"
    return None


def _check_prime(p: int, params: RecurrenceParams, sweep: bool = False) -> None:
    if p == 2 or not is_prime(p):
        raise BadPrime(f"p = {p} is not an odd prime")
    reason = degeneracy(p, params, sweep)
    if reason is not None:
        raise DegenerateDiscriminant(reason)


class EigenData(NamedTuple):
    """Eigenvalues of the companion matrix and their multiplicative orders.

    In the split case phi and phi_prime are residues mod p.  In the inert
    case F_{p^2} is F_p[B], and they are the coordinates [c0, c1] of the
    conjugate roots c0 + c1*B: phi = B is [0, 1] and phi' = P - B is
    [P mod p, p-1].  l and l_prime are the orders in F_{p^2}^x (which
    coincide with the F_p^x orders when split).
    """

    p: int
    splitting: str
    phi: int | list[int]
    phi_prime: int | list[int]
    l: int
    l_prime: int

    @property
    def M0(self) -> int:
        return min(self.l, self.l_prime)

    @property
    def M1(self) -> int:
        return max(self.l, self.l_prime)


def eigen_data(p: int, params: RecurrenceParams = FIBONACCI) -> EigenData:
    """Eigenvalues and orders; p splits iff D has square roots mod p, and phi takes the smaller."""
    _check_prime(p, params)
    roots = sqrt_mod(params.discriminant, p)
    if params.is_fibonacci and (roots is not None) != (p % 5 in (1, 4)):
        # independent check via the residue of p mod 5
        raise InternalInvariantViolation(f"square root of D disagrees with p mod 5 at p = {p}")
    if roots is not None:
        r = roots[0]
        inv2 = mod_inv(2, p)
        phi = (params.P + r) * inv2 % p
        phi_prime = (params.P - r) * inv2 % p
        # phi * phi' = Q, a unit mod p, so both lie in F_p^x and their orders divide p - 1
        group = factorize(p - 1)
        l = least_dividing(group, lambda t: pow(phi, t, p) == 1)
        l_prime = least_dividing(group, lambda t: pow(phi_prime, t, p) == 1)
        return EigenData(p, "split", phi, phi_prime, l, l_prime)
    # phi = B in F_p[B], so l = ord(B); phi' = phi^p by Frobenius, and
    # gcd(p, p^2 - 1) = 1, so l' = l
    l = mat_order(params, p)
    return EigenData(p, "inert", [0, 1], [params.P % p, p - 1], l, l)


def census(ed: EigenData) -> set[int]:
    """The periods of the zero-free orbits, predicted from the eigenvalues.

    B acts on the p+1 lines of P^1(F_p) with order e in PGL2, the least e
    with phi^e = phi'^e.  A line off the eigenlines is fixed by B^j only
    when B^j is a scalar, so its orbit has length e, and B^e = phi^e * I
    gives its pairs the period e * ord(phi^e) = lcm(l, l').  The line at
    infinity is no eigenline, and its orbit is the one through 0.  So a
    split p has the periods l and l' of its eigenlines, plus lcm(l, l') when
    the p-1 other lines form two orbits or more; an inert p, with no
    eigenline in F_p, has the period l when its p+1 lines form two orbits or
    more, and none otherwise.  Inert, phi' = phi^p by Frobenius, so
    phi^e = phi'^e iff l | e(p-1), and e = l / gcd(l, p-1).
    """
    p = ed.p
    if ed.splitting == "split":
        e = multiplicative_order(ed.phi * mod_inv(ed.phi_prime, p), p)
        periods = {ed.l, ed.l_prime}
        if (p - 1) // e >= 2:
            periods.add(math.lcm(ed.l, ed.l_prime))
        return periods
    e = ed.l // math.gcd(ed.l, p - 1)
    return {ed.l} if (p + 1) // e >= 2 else set()


def _sweep_prime(p: int, params: RecurrenceParams) -> tuple[EigenData, set[int], set[int]]:
    """The checks and facts both sweeps start from: the eigenvalue data,
    and the zero-free periods and value-set subgroup orders of star_summary,
    checked against the census.  Raises BadPrime unless p is an odd prime
    (the Fibonacci p = 2), then DegenerateDiscriminant (p | P as well; the
    Fibonacci p = 5), then CapExceeded from star_summary, which checks the
    sweep cap."""
    _check_prime(p, params, sweep=True)
    ed = eigen_data(p, params)
    periods, subgroup_ms = star_summary(p, params)
    predicted = census(ed)
    if periods != predicted:
        raise InternalInvariantViolation(
            f"zero-free periods {sorted(periods)} mod {p} differ from the "
            f"eigenvalue census {sorted(predicted)}")
    return ed, periods, subgroup_ms


def cond_order(ed: EigenData, m: int) -> bool:
    """Split prime and some eigenvalue has order exactly m in F_p^x."""
    return ed.splitting == "split" and (ed.l == m or ed.l_prime == m)


def verify_main(p: int, params: RecurrenceParams = FIBONACCI) -> dict:
    """Evaluate all three conditions for every m | p-1 by one sweep and
    return the record payload.

    For non-Fibonacci params the equivalence is an empirical finding, not an
    asserted theorem: theorem_proven is False.
    """
    ed, periods, subgroup_ms = _sweep_prime(p, params)
    conditions = {
        str(m): {
            "powerset": m in subgroup_ms,
            "period": m in periods,
            "order": cond_order(ed, m),
        }
        for m in divisors(factorize(p - 1))
    }
    return {
        "p": p,
        "conditions": conditions,
        "consistent": all(c["powerset"] == c["period"] == c["order"]
                          for c in conditions.values()),
        "theorem_proven": params.is_fibonacci,
    }


def verify_complementary(p: int) -> dict:
    """Record, per m | 2(p+1), the period condition (star_summary), the
    inert-order condition, and the literal value-set reading of the norm
    subgroup statement, as the record payload.  Never asserts the
    equivalence.

    For inert p the order-m subgroup of the norm subgroup lies in F_p iff
    m | p-1, and is then the order-m subgroup of F_p^x; the value-set
    reading is tested only there and is "inapplicable" otherwise.
    """
    ed, periods, subgroup_ms = _sweep_prime(p, FIBONACCI)
    inert = ed.splitting == "inert"
    size = 2 * (p + 1)
    entries: dict[str, dict] = {}
    notes: list[str] = []
    for m in divisors(factorize(size)):
        period_ok = m in periods
        order_ok = inert and ed.l == m
        powerset: bool | str = INAPPLICABLE
        if inert and (p - 1) % m == 0:
            powerset = m in subgroup_ms
        if powerset == INAPPLICABLE and (period_ok or order_ok):
            notes.append(f"m={m}: item-(1) subgroup leaves F_p, recorded inapplicable")
        if period_ok != order_ok:
            notes.append(f"m={m}: period={period_ok} but order={order_ok}")
        entries[str(m)] = {"period": period_ok, "order": order_ok, "powerset": powerset}
    return {
        "p": p,
        "entries": entries,
        "equivalence_23": all(e["period"] == e["order"] for e in entries.values()),
        "notes": notes,
    }
