import math
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibfield import fibseq, theorem
from fibfield.errors import (
    BadPrime,
    DegenerateDiscriminant,
    InternalInvariantViolation,
)
from fibfield.fibseq import FIBONACCI, RecurrenceParams, mat_order, mat_pow, companion_matrix, Mat2
from fibfield.modarith import mod_inv, multiplicative_order
from fibfield.theorem import (
    census,
    cond_order,
    degeneracy,
    eigen_data,
    verify_complementary,
    verify_main,
)

import conftest
from conftest import (
    KNOWN_NONUNIFORM,
    QuadContext,
    check_eigen_invariants,
    ext_order,
    naive_fib_eigen_orders,
    naive_orbits,
    naive_period,
    naive_star_summary,
    power_subgroup,
    primes_upto,
)


def uniform(condition: dict) -> bool:
    """The three verdicts of one verify_main condition entry agree."""
    return condition["powerset"] == condition["period"] == condition["order"]


class TestSplittingType:
    def test_fibonacci(self):
        assert eigen_data(11).splitting == "split"
        assert eigen_data(7).splitting == "inert"
        assert eigen_data(19).splitting == "split"

    def test_degenerate(self):
        with pytest.raises(DegenerateDiscriminant):
            eigen_data(5)  # 5 divides the discriminant
        with pytest.raises(DegenerateDiscriminant):
            eigen_data(7, RecurrenceParams(1, 7))  # p divides Q

    def test_bad_prime(self):
        with pytest.raises(BadPrime):
            eigen_data(9)
        with pytest.raises(BadPrime):
            eigen_data(2)

    @pytest.mark.parametrize("p, roots", [(11, None), (7, (3, 4))],
                             ids=["split-without-root", "inert-with-root"])
    def test_root_disagreeing_with_p_mod_5_raises(self, monkeypatch, p, roots):
        # the splitting is whatever sqrt_mod finds, cross-checked for
        # Fibonacci by p mod 5 (D = 5 is a square mod p iff p = ±1 mod 5)
        monkeypatch.setattr(theorem, "sqrt_mod", lambda a, q: roots)
        with pytest.raises(InternalInvariantViolation, match="p mod 5"):
            eigen_data(p)


class TestEigenData:
    def test_split_p11(self):
        ed = eigen_data(11)
        assert (ed.splitting, ed.phi, ed.phi_prime) == ("split", 8, 4)
        assert (ed.l, ed.l_prime, ed.M0, ed.M1) == (10, 5, 5, 10)

    def test_inert_p7(self):
        ed = eigen_data(7)
        assert ed.splitting == "inert"
        assert ed.l == ed.l_prime == 16
        assert ed.M0 == ed.M1 == 16

    def test_inert_p3(self):
        ed = eigen_data(3)
        assert ed.l == ed.l_prime == 8

    def test_invariants_small_primes(self):
        for p in primes_upto(300):
            if p in (2, 5):
                continue
            ed = check_eigen_invariants(p)
            B = companion_matrix(FIBONACCI, p)
            assert mat_pow(B, ed.M1) == Mat2.identity(p)

    def test_invariant_failure_raises_under_optimize(self):
        # check_eigen_invariants must not rely on assert, which python -O strips
        code = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {os.path.dirname(__file__)!r})
            import conftest
            conftest.mat_order = lambda params, N: 1
            try:
                conftest.check_eigen_invariants(11)
            except AssertionError as exc:
                print("raised", exc)
        """)
        r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert r.stdout == "raised mat_order = M1 fails at p = 11\n", r.stderr

    def test_wrong_phi_prime_order_raises(self, monkeypatch):
        # eigen_data sets l' = l for inert p without computing it, so the
        # invariants compute ord(phi') and raise when it differs: 13 is inert
        real = conftest.ext_order
        monkeypatch.setattr(conftest, "ext_order",
                            lambda x: real(x) if x == x.ctx.lam() else 2 * real(x))
        with pytest.raises(AssertionError, match=r"ord\(phi'\) = l' fails at p = 13"):
            check_eigen_invariants(13)

    def test_root_choice_immaterial(self):
        # the order condition only sees the unordered pair of orders
        for p in (11, 19, 29, 31):
            ed = eigen_data(p)
            for m in range(1, p):
                assert cond_order(ed, m) == (m in (ed.l, ed.l_prime))


class TestConditions:
    def test_cond_order(self):
        ed11 = eigen_data(11)
        assert cond_order(ed11, 5)
        assert not cond_order(ed11, 2)
        ed7 = eigen_data(7)
        assert not any(cond_order(ed7, m) for m in (1, 2, 3, 6, 16))

    def test_cond_period(self):
        conditions = verify_main(11)["conditions"]
        assert conditions["5"]["period"]
        assert not conditions["2"]["period"]
        assert not verify_complementary(7)["entries"]["16"]["period"]

    def test_cond_powerset(self):
        conditions = verify_main(11)["conditions"]
        assert conditions["5"]["powerset"]
        assert conditions["10"]["powerset"]  # F_{1,8} covers all of F_11^x
        assert not conditions["1"]["powerset"]  # no constant nonzero sequence


class TestVerifyMain:
    def test_p11(self):
        r = verify_main(11)
        assert r["consistent"] and r["theorem_proven"]
        for m, t in r["conditions"].items():
            assert uniform(t)
            assert t["period"] == (m in ("5", "10"))
        assert set(r["conditions"]) == {"1", "2", "5", "10"}

    def test_p7_all_false(self):
        r = verify_main(7)
        assert r["consistent"]
        assert all(not t["period"] and not t["order"] and not t["powerset"]
                   for t in r["conditions"].values())

    def test_p19(self):
        assert verify_main(19)["consistent"]

    def test_special_prime_routed(self):
        # Fibonacci p = 5 divides the discriminant, and p = 2 is no odd prime
        with pytest.raises(DegenerateDiscriminant, match="^p = 5 divides discriminant 5$"):
            verify_main(5)
        with pytest.raises(BadPrime, match="^p = 2 is not an odd prime$"):
            verify_main(2)

    def test_non_prime_refused(self):
        # both sweeps check primality before the degeneracy rule, which would
        # read p = 1 as a divisor of D and divide by p = 0
        for p in (0, 1, 9):
            with pytest.raises(BadPrime):
                verify_main(p)
            with pytest.raises(BadPrime):
                verify_complementary(p)
            with pytest.raises(BadPrime):
                verify_main(p, RecurrenceParams(2, 3))

    def test_sweep_to_300(self):
        # Uniform triples everywhere except the two known value-set
        # counterexamples at m = p-1 (independently brute-forced and hand
        # checked: F_{1,3} mod 13 is zero-free, period 28, values = F_13^x).
        for p in primes_upto(300):
            if p in (2, 5):
                continue
            r = verify_main(p)
            if p in KNOWN_NONUNIFORM:
                assert not r["consistent"]
                bad = [m for m, t in r["conditions"].items() if not uniform(t)]
                assert bad == [str(KNOWN_NONUNIFORM[p])]
                t = r["conditions"][str(KNOWN_NONUNIFORM[p])]
                assert (t["powerset"], t["period"], t["order"]) == (True, False, False)
            else:
                assert r["consistent"]

    def test_powerset_implies_period_except_known(self):
        for p in primes_upto(200):
            if p in (2, 5):
                continue
            for m, t in verify_main(p)["conditions"].items():
                if t["powerset"] and not t["period"]:
                    assert KNOWN_NONUNIFORM.get(p) == int(m)


class TestVerifyComplementary:
    def test_p7(self):
        r = verify_complementary(7)
        assert not r["equivalence_23"]
        assert r["entries"]["16"]["order"] and not r["entries"]["16"]["period"]
        assert any("m=16" in note for note in r["notes"])

    def test_p3(self):
        r = verify_complementary(3)
        assert not r["equivalence_23"]
        assert r["entries"]["8"]["order"] and not r["entries"]["8"]["period"]

    def test_p47(self):
        r = verify_complementary(47)
        assert r["equivalence_23"]
        assert r["entries"]["32"]["period"] and r["entries"]["32"]["order"]

    def test_keys_are_divisors_of_2p_plus_2(self):
        for p in (3, 7, 11, 13, 23):
            r = verify_complementary(p)
            size = 2 * (p + 1)
            assert set(r["entries"]) == {str(d) for d in range(1, size + 1) if size % d == 0}

    def test_deterministic(self):
        assert verify_complementary(23) == verify_complementary(23)

    def test_inapplicable_marker(self):
        # subgroups of order > p-1 cannot embed in F_p^x
        r = verify_complementary(7)
        assert r["entries"]["16"]["powerset"] == "inapplicable"

    def test_split_prime_all_inapplicable(self):
        r = verify_complementary(11)
        assert all(e["powerset"] == "inapplicable" for e in r["entries"].values())
        assert not any(e["order"] for e in r["entries"].values())

    @pytest.mark.parametrize("p", [3, 7, 13, 17, 23])  # every inert p <= 23
    def test_powerset_vs_scanned_subgroups(self, p):
        # the order-m subgroup of F_{p^2}^x, found by scanning every nonzero
        # element, either leaves F_p (inapplicable) or is a set of residues
        # that must be a zero-free value set exactly when the sweep says so
        ctx = QuadContext(p, 1, -1)
        units = [ctx.element(c0, c1) for c0 in range(p) for c1 in range(p)
                 if (c0, c1) != (0, 0)]
        orders = [ext_order(x) for x in units]
        value_sets = {frozenset(terms) for terms in naive_orbits(p) if 0 not in terms}
        entries = verify_complementary(p)["entries"]
        size = 2 * (p + 1)
        assert set(entries) == {str(m) for m in range(1, size + 1) if size % m == 0}
        for key, entry in entries.items():
            m = int(key)
            sub = [x for x, t in zip(units, orders) if m % t == 0]
            assert len(sub) == m
            if any(x.c1 != 0 for x in sub):
                expected = "inapplicable"
            else:
                expected = frozenset(x.c0 for x in sub) in value_sets
            assert entry["powerset"] == expected, m

    def test_lucas_inert_census(self):
        # at an inert p, phi^(p+1) = N(phi) = Q, so l | ord_p(Q)*(p+1) and the
        # order condition holds at m = l alone; the census has the period l
        # unless B cycles all p+1 lines (e = l / gcd(l, p-1) = p+1), so (2)
        # and (3) disagree exactly there
        inert = disagree = 0
        for P in range(-4, 5):
            for Q in range(-4, 5):
                params = RecurrenceParams(P, Q)
                for p in primes_upto(1000)[1:]:
                    if not Q or degeneracy(p, params) is not None:
                        continue
                    ed = eigen_data(p, params)
                    if ed.splitting == "split":
                        continue
                    size = multiplicative_order(Q, p) * (p + 1)
                    assert size % ed.l == 0, (P, Q, p)
                    r = verify_complementary(p, params)
                    assert [m for m, e in r["entries"].items() if e["order"]] == [str(ed.l)]
                    one_cycle = ed.l // math.gcd(ed.l, p - 1) == p + 1
                    assert r["equivalence_23"] is not one_cycle, (P, Q, p)
                    inert += 1
                    disagree += one_cycle
        assert (disagree, inert) == (1178, 4861)


class TestCensus:
    @pytest.mark.parametrize("p, periods", [(13, {28}), (17, {36})])
    def test_known_finding(self, p, periods):
        # the 2(p+1) of TestKnownFindingByHand, from the eigenvalues alone
        assert census(eigen_data(p)) == periods

    @given(st.sampled_from([p for p in primes_upto(60) if p > 2]),
           st.integers(-60, 60), st.integers(-60, 60))
    @settings(max_examples=120, deadline=None)
    def test_naive_oracle_property(self, p, P, Q):
        params = RecurrenceParams(P, Q)
        assume(degeneracy(p, params) is None)
        assert census(eigen_data(p, params)) == naive_star_summary(p, P, Q)[0]

    @pytest.mark.parametrize("P, Q, e0", [
        (1, 1, 3), (-1, 1, 3), (2, 4, 3), (-2, 4, 3),
        (2, 2, 4), (-2, 2, 4), (3, 3, 6), (-3, 3, 6),
    ])
    def test_root_of_unity_families(self, P, Q, e0):
        # P^2 in {Q, 2Q, 3Q} makes phi/phi' a root of unity of order e0 at
        # every admissible p, so B^e0 is the first scalar power of B and the
        # census follows from e0 and the eigenvalue orders alone
        params = RecurrenceParams(P, Q)
        for p in primes_upto(1000)[1:]:
            if degeneracy(p, params) is not None:
                continue
            a, b, c, d = 0, 1, -Q % p, P % p  # B^e by plain iteration
            e = 1
            while b or c or a != d:
                a, b, c, d = b * -Q % p, (a + b * P) % p, d * -Q % p, (c + d * P) % p
                e += 1
            assert e == e0, p
            ed = eigen_data(p, params)
            if ed.splitting == "split":
                predicted = {ed.l, ed.l_prime}
                if (p - 1) // e0 >= 2:
                    predicted.add(math.lcm(ed.l, ed.l_prime))
            else:
                predicted = {ed.l} if (p + 1) // e0 >= 2 else set()
            assert census(ed) == predicted, p

    def test_square_discriminant_family(self):
        # D = P^2 - 4Q a nonzero square puts both roots in Z, so every
        # admissible p splits, and at p not dividing P the only subgroup value
        # sets of zero-free orbits are the eigenlines' <phi> and <phi'>
        pairs = [(P, Q) for P in range(-4, 5) for Q in range(-4, 5)
                 if Q and P * P - 4 * Q > 0 and math.isqrt(P * P - 4 * Q) ** 2 == P * P - 4 * Q]
        checked = 0
        for P, Q in pairs:
            params = RecurrenceParams(P, Q)
            for p in primes_upto(1000)[1:]:
                if degeneracy(p, params) is not None:
                    continue
                ed = eigen_data(p, params)
                assert ed.splitting == "split", (P, Q, p)
                if P % p:
                    assert fibseq.star_summary(p, params)[1] <= {ed.l, ed.l_prime}, (P, Q, p)
                    checked += 1
        # the two pairs with P = 0 have p | P at every p
        assert (len(pairs), checked) == (12, 1658)

    def test_square_discriminant_at_p_dividing_p(self):
        # at p | P the claim above can fail: for (0, -4) mod 5, a_n = -a_{n-2}
        # and phi, phi' = 3, 2 both have order 4, yet the seed (1, 1) runs
        # through 1, 1, 4, 4, whose value set is the order-2 subgroup {1, 4}
        params = RecurrenceParams(0, -4)
        ed = eigen_data(5, params)
        assert (ed.splitting, ed.phi, ed.phi_prime, ed.l, ed.l_prime) == ("split", 3, 2, 4, 4)
        assert fibseq.star_summary(5, params) == naive_star_summary(5, 0, -4) == ({4}, {2, 4})

    @pytest.mark.parametrize("sweep", [verify_main, verify_complementary])
    def test_extra_period_raises(self, monkeypatch, sweep):
        # a walk that reports one period too many disagrees with the census
        real = theorem.star_summary

        def one_more(p, params):
            periods, subgroup_ms = real(p, params)
            return periods | {1}, subgroup_ms

        monkeypatch.setattr(theorem, "star_summary", one_more)
        with pytest.raises(InternalInvariantViolation, match="census"):
            sweep(13)

    @pytest.mark.parametrize("wrong", [lambda d: 2 * d, lambda d: d // 2],
                             ids=["doubled", "halved"])
    def test_wrong_multiplier_order_raises(self, monkeypatch, wrong):
        # mod 13 the one zero-free line orbit has length 7 and d = 4, so
        # period 28; a walk that reads d as 8 or 2 reports 56 or 14, and
        # both sweeps raise from the census rather than record either
        real = fibseq._multiplier_order
        monkeypatch.setattr(fibseq, "_multiplier_order", lambda mu, p: wrong(real(mu, p)))
        for sweep in (verify_main, verify_complementary):
            with pytest.raises(InternalInvariantViolation, match="census"):
                sweep(13)

    def test_wrong_multiplier_order_raises_under_optimize(self):
        # the census comparison must not rely on assert, which python -O strips
        code = textwrap.dedent("""
            import fibfield.fibseq as fibseq
            from fibfield.errors import InternalInvariantViolation
            from fibfield.theorem import verify_main
            fibseq._multiplier_order = lambda mu, p: 1
            try:
                verify_main(13)
            except InternalInvariantViolation as exc:
                print("raised", exc)
        """)
        r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert r.stdout == ("raised zero-free periods [7] mod 13 differ from the "
                            "eigenvalue census [28]\n"), r.stderr


class TestKnownFindingByHand:
    """The p = 13, 17 finding and the complementary verdicts, checked by
    direct pair iteration (conftest oracles), never by star_summary or
    verify_main.  Acceptance criteria 1 and 6 expect exactly these values."""

    # p: (number of nonzero pair orbits, their common length, the
    # lexicographically least pair of each zero-free orbit)
    CENSUS = {
        13: (6, 28, [(1, 3), (1, 4), (1, 5)]),
        17: (8, 36, [(1, 3), (1, 4), (1, 7), (1, 9)]),
    }

    def test_orbit_census(self):
        for p, (count, length, star_reps) in self.CENSUS.items():
            orbits = naive_orbits(p)
            assert len(orbits) == count
            assert {len(terms) for terms in orbits} == {length} == {2 * (p + 1)}
            star = [terms for terms in orbits if 0 not in terms]
            assert [(terms[0], terms[1]) for terms in star] == star_reps
            # each zero-free orbit covers all of F_p^x
            assert all(set(terms) == set(range(1, p)) for terms in star)

    def test_criterion_1_witnesses(self):
        # F_{1,3} is zero-free with value set F_p^x, the power subgroup of
        # order m = p-1: condition (1) holds at m = p-1 ...
        for p, period in ((13, 28), (17, 36)):
            assert naive_period(p, 1, 3) == period
            terms, a, b = [], 1, 3
            for _ in range(period):
                terms.append(a)
                a, b = b, (a + b) % p
            assert 0 not in terms
            assert set(terms) == set(range(1, p))
            # ... while (3) fails, as x^2 - x - 1 has no root in F_p (inert) ...
            assert all((x * x - x - 1) % p for x in range(p))
            # ... and (2) fails, as no nonzero pair has period p-1 at all.
            assert all(naive_period(p, a1, a2) != p - 1
                       for a1 in range(p) for a2 in range(p) if (a1, a2) != (0, 0))

    @pytest.mark.parametrize("p, expected", [
        (3, False), (7, False), (23, False), (13, True), (17, True), (47, True),
    ])
    def test_complementary_verdicts(self, p, expected):
        star_periods = {len(terms) for terms in naive_orbits(p) if 0 not in terms}
        orders = naive_fib_eigen_orders(p)
        ed = eigen_data(p)
        assert (ed.l, ed.l_prime) == orders
        if p in self.CENSUS:
            assert orders == (2 * (p + 1),) * 2
        size = 2 * (p + 1)
        by_hand = all((m in star_periods) == (m in orders)
                      for m in range(1, size + 1) if size % m == 0)
        assert by_hand is expected
        assert verify_complementary(p)["equivalence_23"] is expected


class TestVerifyLucas:
    def test_inert_lucas(self):
        r = verify_main(7, RecurrenceParams(3, 1))
        assert not r["theorem_proven"]
        assert r["consistent"]
        assert all(not t["order"] for t in r["conditions"].values())

    def test_split_lucas_constructive(self):
        r = verify_main(11, RecurrenceParams(4, 1))
        assert r["consistent"]
        ed = eigen_data(11, RecurrenceParams(4, 1))
        assert ed.splitting == "split"
        assert r["conditions"][str(ed.l)]["period"]

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDiscriminant, match="divides Q"):
            verify_main(7, RecurrenceParams(1, 7))
        with pytest.raises(DegenerateDiscriminant, match="divides discriminant"):
            verify_main(5, RecurrenceParams(3, 1))

    def test_unit_q_literal_failures(self):
        # for Q = +-1 and |P| <= 4 the literal reading fails at exactly these
        # (P, Q, p, m), always as powerset alone; every zero-free orbit with
        # the order-m subgroup as its value set has a period other than m,
        # so the strict reading (|value set| = period) removes all of them
        expected = {(P, Q, p, m) for p, m, pairs in [
            # mod 3, (3, 1) is a_n = -a_{n-2}: the seed (1, 1) has value set {1, 2} and period 4
            (3, 2, [(3, 1), (-3, 1)]),
            (5, 4, [(1, 1), (-4, 1), (2, -1), (-2, -1), (3, -1), (-3, -1)]),
            (13, 12, [(1, -1), (-1, -1), (2, -1), (-2, -1), (4, -1), (-4, -1)]),
            (17, 16, [(1, -1), (-1, -1)]),
            (17, 8, [(4, -1), (-4, -1)]),
        ] for P, Q in pairs}
        found = set()
        for P in (1, -1, 2, -2, 3, -3, 4, -4):
            for Q in (1, -1):
                params = RecurrenceParams(P, Q)
                for p in primes_upto(1000)[1:]:
                    if degeneracy(p, params) is not None:
                        continue
                    for m, t in verify_main(p, params)["conditions"].items():
                        if not uniform(t):
                            assert (t["powerset"], t["period"], t["order"]) == (
                                True, False, False), (P, Q, p, m)
                            found.add((P, Q, p, int(m)))
        assert found == expected
        for P, Q, p, m in expected:
            subgroup = power_subgroup(p, (p - 1) // m)
            periods = [len(terms) for terms in naive_orbits(p, P, Q)
                       if 0 not in terms and set(terms) == subgroup]
            assert periods and m not in periods, (P, Q, p, m)

    def test_zero_p_family(self):
        # (0, Q) is a_n = -Q a_{n-2}, swept at every odd p not dividing Q D = -4Q^3;
        # its literal failures are powerset alone, so no zero-free orbit with the
        # order-m subgroup as its value set has period m, and the strict reading
        # (|value set| = period) removes each of them
        inconsistent = {}
        for Q in (1, -1, 2, -2, 3, -3, 4, -4):
            params = RecurrenceParams(0, Q)
            inconsistent[Q] = 0
            for p in primes_upto(1000)[1:]:
                if degeneracy(p, params) is not None:
                    continue
                r = verify_main(p, params)
                bad = {m: (t["powerset"], t["period"], t["order"])
                       for m, t in r["conditions"].items() if not uniform(t)}
                assert set(bad.values()) <= {(True, False, False)}, (Q, p)
                if Q == 1:
                    assert list(bad) == ["2"], p
                inconsistent[Q] += not r["consistent"]
        assert inconsistent == {1: 167, -1: 0, 2: 121, -2: 117, 3: 110, -3: 110, 4: 111, -4: 71}

    def test_period_order_disagreement_from_census(self):
        # (2) and (3) disagree only at a split p, at m = lcm(l, l') when that
        # is neither eigenvalue order and the lines off the eigenlines form
        # two orbits or more; an inert p never has l | p-1 (phi^p = phi' != phi)
        records = 0
        for P in (1, -1, 2, -2, 3, -3, 4, -4):
            for Q in (1, -1, 2, -2, 3, -3, 4, -4):
                params = RecurrenceParams(P, Q)
                for p in primes_upto(300)[1:]:
                    if degeneracy(p, params) is not None:
                        continue
                    records += 1
                    conditions = verify_main(p, params)["conditions"]
                    disagree = {int(m) for m, t in conditions.items()
                                if t["period"] != t["order"]}
                    ed = eigen_data(p, params)
                    predicted = set()
                    if ed.splitting == "split":
                        lcm = math.lcm(ed.l, ed.l_prime)
                        e = multiplicative_order(ed.phi * mod_inv(ed.phi_prime, p), p)
                        if lcm not in (ed.l, ed.l_prime) and (p - 1) // e >= 2:
                            predicted = {lcm}
                    else:
                        assert (p - 1) % ed.l != 0, (P, Q, p)
                    assert disagree == predicted, (P, Q, p)
        assert records == 3600


class TestDegeneracy:
    GRID = [RecurrenceParams(P, Q) for P in range(-6, 7) for Q in range(-6, 7) if Q]

    def test_sweep_rule_is_gcd_with_2QD(self):
        # the verify skip: p = 2 or a degenerate odd prime, exactly gcd(p, 2*Q*D) != 1
        for params in self.GRID:
            for p in primes_upto(40):
                product = 2 * params.Q * params.discriminant
                assert (p == 2 or degeneracy(p, params) is not None) == (
                    math.gcd(p, product) != 1), (params, p)

    def test_sweeps_at_p_dividing_p_match_naive(self):
        # p | P gives B^2 = -Q*I and nothing degenerate: both sweeps record
        # there what a scan of every pair orbit finds
        checked = 0
        for params in self.GRID:
            P, Q = params.P, params.Q
            for p in primes_upto(90)[1:]:
                if P % p or degeneracy(p, params) is not None:
                    continue
                periods, subgroup_ms = naive_star_summary(p, P, Q)
                main = verify_main(p, params)["conditions"]
                assert {int(m) for m, t in main.items() if t["period"]} == {
                    m for m in periods if (p - 1) % m == 0}, (params, p)
                assert {int(m) for m, t in main.items() if t["powerset"]} == subgroup_ms
                entries = verify_complementary(p, params)["entries"]
                assert {int(m) for m, e in entries.items() if e["period"]} == {
                    m for m in periods if str(m) in entries}, (params, p)
                tested = {int(m): e["powerset"] for m, e in entries.items()
                          if e["powerset"] != "inapplicable"}
                assert tested == {m: m in subgroup_ms for m in tested}, (params, p)
                checked += 1
        assert checked == 322

    def test_fibonacci_only_five(self):
        assert [p for p in primes_upto(200)[1:] if degeneracy(p, FIBONACCI)] == [5]

    def test_raises_follow_the_rule(self):
        # eigen_data and both sweeps refuse exactly the primes degeneracy names
        for params in self.GRID:
            for p in (3, 7):
                reason = degeneracy(p, params)
                if reason is None:
                    assert eigen_data(p, params).p == verify_main(p, params)["p"] == p
                    assert verify_complementary(p, params)["p"] == p
                    continue
                for refuse in (eigen_data, verify_main, verify_complementary):
                    with pytest.raises(DegenerateDiscriminant, match=reason):
                        refuse(p, params)
