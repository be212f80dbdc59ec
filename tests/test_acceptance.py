"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.

Criteria 1 and 6 assert the finding the verifier makes on the literal
value-set condition.  At (p, m) = (13, 12) and (17, 16) it holds while the
period and order conditions do not: F_{1,3} mod 13 is zero-free with minimal
period 28 and value set all of F_13^x, and likewise mod 17 with period 36.
So `verify 3 1000` reports p = 13 and 17 as inconsistent and exits 1, and
the complementary sweep finds period and order in agreement there
(equivalence_23 True).  These values are proved by direct pair iteration,
independently of the sweep, in tests/test_theorem.py::TestKnownFindingByHand.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from fibfield.fibseq import (
    FIBONACCI,
    Mat2,
    RecurrenceParams,
    SequenceId,
    companion_matrix,
    enumerate_star,
    mat_order,
    mat_pow,
    minimal_period,
    value_set,
    is_star,
)
from fibfield.modarith import (
    is_prime,
    legendre,
    multiplicative_order,
)
from fibfield.theorem import eigen_data

from conftest import (
    KNOWN_NONUNIFORM,
    QuadContext,
    check_eigen_invariants,
    ext_order,
    naive_order,
    naive_period,
    norm,
    power_subgroup,
    primes_upto,
    q_mul,
)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def run_verify(*args):
    cmd = [sys.executable, "-m", "fibfield", "verify", *args, "--json"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    recs = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    return proc, recs, elapsed


@pytest.fixture(scope="module")
def sweep_1000():
    """The criterion-1 sweep, run with --jobs 8 and --jobs 1 (criterion 7)."""
    proc8, recs8, elapsed8 = run_verify("3", "1000", "--jobs", "8")
    proc1, _, _ = run_verify("3", "1000", "--jobs", "1")
    return {"proc8": proc8, "recs8": recs8, "elapsed8": elapsed8, "proc1": proc1}


def test_criterion_1_main_theorem_sweep(sweep_1000):
    """verify 3 1000: every prime swept in order, under 60 seconds; the only
    inconsistent primes are 13 and 17, each non-uniform at m = p-1 alone with
    (powerset, period, order) = (True, False, False); exit 1."""
    proc = sweep_1000["proc8"]
    recs = sweep_1000["recs8"]
    elapsed = sweep_1000["elapsed8"]
    mains = [r["payload"] for r in recs if r["kind"] == "verify_main"]
    expected = [p for p in primes_upto(1000) if p not in (2, 5) and p >= 3]
    inconsistent = [r["p"] for r in mains if not r["consistent"]]
    nonuniform = {
        r["p"]: {m: (c["powerset"], c["period"], c["order"])
                 for m, c in r["conditions"].items()
                 if not c["powerset"] == c["period"] == c["order"]}
        for r in mains
    }
    expected_nonuniform = {p: {str(m): (True, False, False)}
                           for p, m in KNOWN_NONUNIFORM.items()}
    ok = (
        [r["p"] for r in mains] == expected
        and inconsistent == sorted(KNOWN_NONUNIFORM)
        and {p: bad for p, bad in nonuniform.items() if bad} == expected_nonuniform
        and proc.returncode == 1
        and elapsed < 60
    )
    report(1, ok,
           f"{len(mains)} primes in {elapsed:.1f}s, exit {proc.returncode}, "
           f"inconsistent at {inconsistent}")


def test_criterion_2_special_cases():
    """Fib*(F_2) empty; Fib*(F_5) is the single orbit of (1,3), period 4."""
    empty = enumerate_star(2) == []
    five = enumerate_star(5)
    ok = (
        empty
        and len(five) == 1
        and (five[0][0].a1, five[0][0].a2) == (1, 3)
        and five[0][1].minimal_period == 4
        and five[0][1].value_set == {1, 2, 3, 4}
    )
    report(2, ok)


def test_criterion_3_proof_ingredient_invariants():
    """Eigenvalue/order/norm invariants for p <= 2000 (norm counts <= 100)."""
    failures = []
    for p in primes_upto(2000):
        if p in (2, 5):
            continue
        try:
            ed = check_eigen_invariants(p)
            B = companion_matrix(FIBONACCI, p)
            assert mat_pow(B, ed.M1) == Mat2.identity(p)
        except AssertionError:
            failures.append(p)
    for p in primes_upto(100):
        if p in (2, 5) or p % 5 in (1, 4):
            continue
        ctx = QuadContext(p, 1, -1)
        elements = [ctx.element(c0, c1) for c0 in range(p) for c1 in range(p)
                    if (c0, c1) != (0, 0)]
        if sum(1 for x in elements if norm(x) in (1, p - 1)) != 2 * (p + 1):
            failures.append(p)
        if {norm(x) for x in elements} != set(range(1, p)):
            failures.append(p)
    report(3, not failures, f"failures at {failures}")


def test_criterion_4_oracle_equivalence():
    """Fast order and period computations agree with naive iteration."""
    failures = []
    for p in primes_upto(100):
        for a in range(1, p):
            if multiplicative_order(a, p) != naive_order(a, p):
                failures.append(("order", p, a))
    for p in (3, 7, 13, 17):  # inert Fibonacci contexts, p <= 20
        ctx = QuadContext(p, 1, -1)
        one = ctx.one()
        for c0 in range(p):
            for c1 in range(p):
                if (c0, c1) == (0, 0):
                    continue
                x = ctx.element(c0, c1)
                acc, t = x, 1
                while acc != one:
                    acc = q_mul(acc, x)
                    t += 1
                if ext_order(x) != t:
                    failures.append(("ext_order", p, (c0, c1)))
    rng = random.Random(4)
    small_primes = [p for p in primes_upto(200) if p > 2]
    for _ in range(1000):
        p = rng.choice(small_primes)
        a1, a2 = rng.randrange(p), rng.randrange(p)
        if (a1, a2) == (0, 0):
            continue
        if minimal_period(SequenceId(p, a1, a2, FIBONACCI)) != naive_period(p, a1, a2):
            failures.append(("period", p, (a1, a2)))
    report(4, not failures, f"failures: {failures[:5]}")


def test_criterion_5_lucas_constructive_direction():
    """F_{1,lambda} at split primes: star, period ord(lambda), subgroup values."""
    checked = 0
    failures = []
    for Q in (1, -1):
        for P in range(1, 11):
            if P * P - 4 * Q == 0:
                continue
            params = RecurrenceParams(P, Q)
            D = params.discriminant
            for p in primes_upto(200):
                if p == 2 or (2 * Q * D) % p == 0:
                    continue
                if legendre(D, p) != 1:
                    continue
                ed = eigen_data(p, params)
                for lam in (ed.phi, ed.phi_prime):
                    seq = SequenceId(p, 1, lam, params)
                    order = multiplicative_order(lam, p)
                    if not (
                        is_star(seq)
                        and minimal_period(seq) == order
                        and value_set(seq) == power_subgroup(p, (p - 1) // order)
                    ):
                        failures.append((P, Q, p, lam))
                    checked += 1
    report(5, checked > 0 and not failures, f"{checked} cases, failures: {failures[:5]}")


def test_criterion_6_complementary_reporting():
    """verify 3 200 --complementary: equivalence_23 False at 3, 7, 23 (no
    zero-free orbit, yet an eigenvalue of order 2(p+1)) and True at 13, 17,
    47 (zero-free periods equal the eigenvalue orders); exit 0."""
    proc, recs, _ = run_verify("3", "200", "--complementary")
    verdicts = {r["payload"]["p"]: r["payload"]["equivalence_23"]
                for r in recs if r["kind"] == "verify_complementary"}
    p47 = next(r["payload"] for r in recs
               if r["kind"] == "verify_complementary" and r["payload"]["p"] == 47)
    star47 = [(s, rep) for s, rep in enumerate_star(47) if rep.minimal_period == 32]
    expected = {3: False, 7: False, 23: False, 13: True, 17: True, 47: True}
    wrong = sorted(p for p, v in expected.items() if verdicts.get(p) is not v)
    ok = (
        proc.returncode == 0
        and not wrong
        and p47["entries"]["32"]["period"] is True
        and bool(star47)
    )
    report(6, ok,
           f"exit {proc.returncode}; equivalence_23 wrong at {wrong} "
           f"(actual: {[(p, verdicts.get(p)) for p in sorted(expected)]})")


def test_criterion_7_jobs_determinism(sweep_1000):
    """verify 3 1000 with --jobs 1 and --jobs 8 is byte-identical."""
    a = sweep_1000["proc8"].stdout
    b = sweep_1000["proc1"].stdout
    report(7, a == b and len(a) > 0, f"{len(a.splitlines())} lines")
