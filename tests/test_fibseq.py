import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fibfield import fibseq
from fibfield.errors import (
    BadGroupOrder,
    BadPrime,
    CapExceeded,
    InternalInvariantViolation,
    ModulusMismatch,
    NotInvertible,
)
from fibfield.fibseq import (
    FIBONACCI,
    Mat2,
    PeriodReport,
    RecurrenceParams,
    SequenceId,
    companion_matrix,
    enumerate_star,
    generate,
    is_star,
    mat_mul,
    mat_order,
    mat_pow,
    minimal_period,
    period_report,
    _line_map,
    star_summary,
    value_set,
)
from fibfield.modarith import legendre, multiplicative_order
from fibfield.theorem import degeneracy, eigen_data

from conftest import (
    QuadContext,
    ext_order,
    naive_orbits,
    naive_period,
    naive_star_summary,
    orbit_sizes,
    power_subgroup,
    primes_upto,
    reference_pool,
)


def naive_mat_order(params, N):
    B = companion_matrix(params, N)
    acc = B
    t = 1
    while acc != Mat2.identity(N):
        acc = mat_mul(acc, B)
        t += 1
    return t


class TestCompanion:
    def test_fibonacci(self):
        assert companion_matrix(FIBONACCI, 11) == Mat2(11, 0, 1, 1, 1)
        assert companion_matrix(FIBONACCI, 2) == Mat2(2, 0, 1, 1, 1)

    def test_general(self):
        assert companion_matrix(RecurrenceParams(3, 1), 7) == Mat2(7, 0, 1, 6, 3)


class TestMatOps:
    def test_pow_zero(self):
        A = companion_matrix(FIBONACCI, 11)
        assert mat_pow(A, 0) == Mat2.identity(11)

    def test_pow_applied(self):
        # 1, 4, 5, 9, 3, 1, 4 mod 11: period 5
        A = companion_matrix(FIBONACCI, 11)
        assert mat_pow(A, 5).apply((1, 4)) == (1, 4)

    def test_pow_matches_naive_product(self):
        A = companion_matrix(FIBONACCI, 7)
        acc = Mat2.identity(7)
        for _ in range(16):
            acc = mat_mul(acc, A)
        assert acc == Mat2.identity(7)
        assert mat_pow(A, 16) == acc

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            mat_mul(Mat2.identity(7), Mat2.identity(11))


class TestMatOrder:
    def test_pisano(self):
        assert mat_order(FIBONACCI, 11) == 10
        assert mat_order(FIBONACCI, 7) == 16
        assert mat_order(FIBONACCI, 2) == 3
        assert mat_order(FIBONACCI, 5) == 20  # ramified: order not dividing p^2-1
        assert mat_order(FIBONACCI, 1) == 1  # every matrix mod 1 is the identity

    def test_singular(self):
        with pytest.raises(NotInvertible, match=r"^gcd\(Q=2, N=6\) != 1$"):
            mat_order(RecurrenceParams(1, 2), 6)

    @pytest.mark.parametrize("N", [0, -3])
    def test_modulus_below_one_rejected(self, N):
        with pytest.raises(ValueError, match=f"modulus N = {N} must be at least 1"):
            mat_order(FIBONACCI, N)

    def test_naive_oracle(self):
        for N in range(1, 60):
            assert mat_order(FIBONACCI, N) == naive_mat_order(FIBONACCI, N)
        for params in (RecurrenceParams(3, 1), RecurrenceParams(2, -1), RecurrenceParams(4, 3)):
            for N in range(1, 40):
                if math.gcd(params.Q, N) != 1:
                    continue
                assert mat_order(params, N) == naive_mat_order(params, N)
        # prime N: N = 2, N | D at N = 5 for (1,-1) and (3,1) and at every N for
        # D = 0, (2,1) and (6,9); D = 9 and 4 are squares, so (1,-2) and (4,3) split;
        # for (3,5), ord_N(Q) is neither 1 nor 2 at inert N, and (1,1), with
        # x^2 - x + 1 irreducible mod 2, takes N = 2 through the inert case
        for params in (FIBONACCI, RecurrenceParams(3, 1), RecurrenceParams(1, -2),
                       RecurrenceParams(2, 1), RecurrenceParams(6, 9), RecurrenceParams(4, 3),
                       RecurrenceParams(3, 5), RecurrenceParams(1, 1)):
            for N in primes_upto(300):
                if params.Q % N:
                    assert mat_order(params, N) == naive_mat_order(params, N), (params, N)

    @pytest.mark.parametrize("P, Q", [(1, -1), (3, 5), (3, 1)])
    def test_inert_orders_match_field_oracle(self, P, Q):
        # at an inert p, F_p[B] is F_{p^2} and B is the root lam, so ord(B) is
        # the order of lam that the test-side F_{p^2} algebra reads off its norm
        inert = [p for p in primes_upto(4096)[1:] if legendre(P * P - 4 * Q, p) == -1]
        assert len(inert) > 250
        assert [p for p in inert
                if mat_order(RecurrenceParams(P, Q), p) != ext_order(QuadContext(p, P, Q).lam())] == []

    @pytest.mark.parametrize("N, symbol", [(7, 1), (11, -1)], ids=["inert-as-split", "split-as-inert"])
    def test_wrong_prime_case_raises(self, monkeypatch, N, symbol):
        # a bound taken from the wrong case is no multiple of ord(B): 16 does not
        # divide 6 at 7, and 10 does not divide ord_11(-1) * 12 = 24 at 11
        monkeypatch.setattr(fibseq, "legendre", lambda a, q: symbol)
        with pytest.raises(BadGroupOrder):
            mat_order(FIBONACCI, N)

    def test_prime_bound_skips_gl2_order(self, monkeypatch):
        # the branch follows the primality of N: only composite N reaches the GL2 bound
        def no_gl2_bound(N):
            raise RuntimeError(f"GL2 bound taken at N = {N}")

        monkeypatch.setattr(fibseq, "_gl2_exponent_bound", no_gl2_bound)
        for N in (2, 5, 7, 11, 101):
            assert mat_order(FIBONACCI, N) == naive_mat_order(FIBONACCI, N)
        with pytest.raises(RuntimeError, match="GL2 bound taken at N = 10"):
            mat_order(FIBONACCI, 10)

    def test_eigen_orders_on_pool_primes(self):
        # at the sizes the benchmark serves, the order of B must be lcm(l, l'),
        # and an inert l, which eigen_data reads from mat_order, must be the
        # order of lam in the test-side F_{p^2} algebra;
        # the ten largest pool primes of each Fibonacci splitting (p = +-1 mod 5 split)
        primes = sorted({int(argv[1]) for argv, _ in reference_pool() if argv[0] == "analyze"})
        split = [p for p in primes if p % 5 in (1, 4)][-10:]
        inert = [p for p in primes if p % 5 in (2, 3)][-10:]
        chosen = split + inert
        cases = [(FIBONACCI, p) for p in chosen] + [(RecurrenceParams(3, 5), p) for p in chosen[::4]]
        splittings = set()
        for params, p in cases:
            ed = eigen_data(p, params)
            splittings.add(ed.splitting)
            assert mat_order(params, p) == math.lcm(ed.l, ed.l_prime), (params, p)
            if ed.splitting == "inert":
                assert ed.l == ext_order(QuadContext(p, params.P, params.Q).lam()), (params, p)
        assert splittings == {"split", "inert"}

    @pytest.mark.parametrize("params", [FIBONACCI, RecurrenceParams(3, 5), RecurrenceParams(1, -2),
                                        RecurrenceParams(3, 1)], ids=["1,-1", "3,5", "1,-2", "3,1"])
    def test_split_order_is_lcm_of_eigen_orders(self, params):
        # analyze reports lcm(l, l') as the matrix order: at a split p, B has two
        # distinct eigenvalues in F_p^x and is diagonalizable over F_p
        split = 0
        for p in primes_upto(4096)[1:]:
            if degeneracy(p, params, sweep=False) is not None:
                continue
            ed = eigen_data(p, params)
            if ed.splitting == "split":
                split += 1
                assert mat_order(params, p) == math.lcm(ed.l, ed.l_prime), p
        assert split > 200


def trial_factors(n):
    """{prime: exponent} of n by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestGl2ExponentBound:
    def test_composed_per_prime_power(self):
        for N in range(1, 2001):
            expected = 1
            for ell, e in trial_factors(N).items():
                expected *= ell ** (4 * e - 3) * (ell - 1) ** 2 * (ell + 1)
            assert fibseq._gl2_exponent_bound(N).n == expected, N

    def test_each_factor_once(self, monkeypatch):
        # N, then l - 1 and l + 1 once for each prime l | N
        calls = []
        real = fibseq.factorize

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(fibseq, "factorize", counting)
        N = 2**3 * 3 * 5**2 * 7 * 13
        fibseq._gl2_exponent_bound(N)
        assert calls == [N, 1, 3, 2, 4, 4, 6, 6, 8, 12, 14]


class TestGenerate:
    def test_period_1342(self):
        seq = SequenceId(5, 1, 3, FIBONACCI)
        assert generate(seq, 8) == [1, 3, 4, 2, 1, 3, 4, 2]

    def test_zero_pair(self):
        assert generate(SequenceId(7, 0, 0, FIBONACCI), 5) == [0] * 5

    def test_hand_iteration(self):
        assert generate(SequenceId(11, 1, 4, FIBONACCI), 6) == [1, 4, 5, 9, 3, 1]

    def test_lucas_recurrence(self):
        # a_n = 3 a_{n-1} - 1 a_{n-2} mod 7: 1, 3, 8-1=1, 0, ...
        assert generate(SequenceId(7, 1, 3, RecurrenceParams(3, 1)), 4) == [1, 3, 1, 0]


class TestMinimalPeriod:
    def test_zero_pair(self):
        assert minimal_period(SequenceId(11, 0, 0, FIBONACCI)) == 1

    def test_known(self):
        assert minimal_period(SequenceId(11, 1, 4, FIBONACCI)) == 5
        assert minimal_period(SequenceId(5, 1, 3, FIBONACCI)) == 4

    def test_divides_mat_order(self):
        rng = random.Random(3)
        for _ in range(200):
            N = rng.randrange(2, 80)
            seq = SequenceId(N, rng.randrange(N), rng.randrange(N), FIBONACCI)
            assert mat_order(FIBONACCI, N) % minimal_period(seq) == 0

    def test_wrong_mat_order_raises(self, monkeypatch):
        # (1, 1) mod 7 has period 16, which does not divide a claimed order of 1
        monkeypatch.setattr(fibseq, "mat_order", lambda params, N: 1)
        with pytest.raises(BadGroupOrder):
            minimal_period(SequenceId(7, 1, 1, FIBONACCI))

    def test_iteration_oracle(self):
        for p in primes_upto(100):
            rng = random.Random(p)
            for _ in range(10):
                a1, a2 = rng.randrange(p), rng.randrange(p)
                if (a1, a2) == (0, 0):
                    continue
                assert minimal_period(SequenceId(p, a1, a2, FIBONACCI)) == naive_period(p, a1, a2)

    @given(st.integers(2, 60), st.integers(0, 59), st.integers(0, 59))
    @settings(max_examples=60, deadline=None)
    def test_iteration_oracle_property(self, N, a1, a2):
        a1 %= N
        a2 %= N
        if (a1, a2) == (0, 0):
            return
        assert minimal_period(SequenceId(N, a1, a2, FIBONACCI)) == naive_period(N, a1, a2)

    @given(st.integers(2, 40), st.integers(-40, 40), st.integers(-40, 40),
           st.integers(0, 39), st.integers(0, 39))
    @settings(max_examples=100, deadline=None)
    def test_iteration_oracle_lucas_property(self, N, P, Q, a1, a2):
        assume(math.gcd(Q, N) == 1 and (a1 % N, a2 % N) != (0, 0))
        seq = SequenceId(N, a1, a2, RecurrenceParams(P, Q))
        assert minimal_period(seq) == naive_period(N, a1, a2, P, Q)


class TestStarAndValues:
    def test_examples(self):
        assert is_star(SequenceId(5, 1, 3, FIBONACCI))
        assert not is_star(SequenceId(7, 1, 1, FIBONACCI))  # 1,1,2,3,5,1,6,0
        assert not is_star(SequenceId(11, 0, 1, FIBONACCI))
        assert not is_star(SequenceId(11, 0, 0, FIBONACCI))

    def test_value_sets(self):
        assert value_set(SequenceId(5, 1, 3, FIBONACCI)) == {1, 2, 3, 4}
        assert value_set(SequenceId(11, 1, 4, FIBONACCI)) == {1, 3, 4, 5, 9}
        assert value_set(SequenceId(7, 0, 0, FIBONACCI)) == {0}

    def test_scaling_invariance(self):
        for p in (11, 19, 31):
            for c in range(2, p):
                base = SequenceId(p, 1, 4 % p, FIBONACCI)
                scaled = SequenceId(p, c, 4 * c % p, FIBONACCI)
                assert minimal_period(base) == minimal_period(scaled)
                assert value_set(scaled) == {c * v % p for v in value_set(base)}

    def test_split_prime_eigen_sequence(self):
        # F_{1,phi} = (phi^n): period = ord(phi), value set = the subgroup <phi>
        for p in [q for q in primes_upto(100) if q % 5 in (1, 4)]:
            ed = eigen_data(p)
            seq = SequenceId(p, 1, ed.phi, FIBONACCI)
            m = multiplicative_order(ed.phi, p)
            assert minimal_period(seq) == m
            assert value_set(seq) == power_subgroup(p, (p - 1) // m)


class TestEnumerateStar:
    def test_special_cases(self):
        assert enumerate_star(2) == []
        assert enumerate_star(3) == []
        reports = enumerate_star(5)
        assert len(reports) == 1
        seq, rep = reports[0]
        assert (seq.a1, seq.a2) == (1, 3)
        assert rep == PeriodReport(4, True, frozenset({1, 2, 3, 4}))

    def test_reports_agree_with_pointwise_ops(self):
        for N in (7, 11, 13, 21):
            for seq, rep in enumerate_star(N):
                assert minimal_period(seq) == rep.minimal_period
                assert is_star(seq)
                assert value_set(seq) == rep.value_set
                assert period_report(seq) == rep

    def test_representative_is_lexicographically_least(self):
        for seq, rep in enumerate_star(13):
            orbit_pairs = set()
            a, b = seq.a1, seq.a2
            for _ in range(rep.minimal_period):
                orbit_pairs.add((a, b))
                a, b = b, (a + b) % 13
            assert (seq.a1, seq.a2) == min(orbit_pairs)

    @given(st.integers(2, 40), st.integers(-40, 40), st.integers(-40, 40))
    @settings(max_examples=60, deadline=None)
    @example(13, 1, -1)
    @example(20, 1, -1)
    def test_orbit_walk_oracle_property(self, N, P, Q):
        # Fibonacci params included: every (P, Q) takes the one generic step
        assume(math.gcd(Q, N) == 1)
        params = RecurrenceParams(P, Q)
        orbits = naive_orbits(N, P, Q)
        assert orbit_sizes(N, params) == [len(o) for o in orbits]
        assert [((seq.a1, seq.a2), rep.minimal_period, rep.value_set)
                for seq, rep in enumerate_star(N, params)] == [
            ((o[0], o[1 % len(o)]), len(o), frozenset(o)) for o in orbits if 0 not in o
        ]

    def test_partition(self):
        for N in (2, 3, 5, 7, 10, 11, 13, 31, 40):
            sizes = orbit_sizes(N)
            assert sum(sizes) == N * N - 1

    def test_singular_composite_rejected(self):
        with pytest.raises(NotInvertible, match=r"^gcd\(Q=2, N=6\) != 1$"):
            enumerate_star(6, RecurrenceParams(1, 2))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_star((1 << 20) + 1)

    def test_deterministic_order(self):
        assert enumerate_star(41) == enumerate_star(41)


ODD_PRIMES_TO_60 = [p for p in primes_upto(60) if p > 2]


class TestStarSummary:
    @given(st.sampled_from(ODD_PRIMES_TO_60), st.integers(-60, 60), st.integers(-60, 60))
    @settings(max_examples=80, deadline=None)
    @example(13, 1, -1)
    @example(17, 1, -1)
    @example(31, 1, -2)
    def test_naive_oracle_property(self, p, P, Q):
        assume(Q * (P * P - 4 * Q) % p != 0)
        star = [terms for terms in naive_orbits(p, P, Q) if 0 not in terms]
        value_sets = {frozenset(terms) for terms in star}
        subgroup_ms = {m for m in range(1, p) if (p - 1) % m == 0
                       and frozenset(power_subgroup(p, (p - 1) // m)) in value_sets}
        assert star_summary(p, RecurrenceParams(P, Q)) == (
            {len(terms) for terms in star}, subgroup_ms)

    @pytest.mark.parametrize("p", [13, 17])
    def test_known_finding(self, p):
        # F_{1,3} covers all of F_p^x with period 2(p+1), and no orbit has period p-1
        periods, subgroup_ms = star_summary(p)
        assert p - 1 in subgroup_ms
        assert p - 1 not in periods

    def test_full_scan_oracle_fibonacci(self):
        assert [p for p in primes_upto(400)[1:]
                if star_summary(p) != naive_star_summary(p)] == []

    @pytest.mark.parametrize("P,Q", [(3, 1), (1, -2), (2, -1), (4, 3), (0, 1), (2, 1)])
    def test_full_scan_oracle_lucas(self, P, Q):
        # includes the primes dividing P or the discriminant; with P = 0 the
        # orbit of infinity is {infinity, 0}, and with D = 0 the line r = 1 is
        # fixed and its pairs have period 1
        assert [p for p in primes_upto(200)[1:] if Q % p != 0
                and star_summary(p, RecurrenceParams(P, Q)) != naive_star_summary(p, P, Q)] == []

    @pytest.mark.parametrize("P,Q", [(1, -1), (3, 1), (1, -2), (0, 1), (2, 1)])
    def test_starts_are_the_zero_free_pairs(self, P, Q):
        # the line map permutes F_p, nxt[0] = P stands for 0 -> infinity -> P,
        # and the lines off the orbit of 0 are exactly the lines b/a of the
        # zero-free pairs
        for p in (3, 5, 7, 11, 13, 17, 19):
            if Q % p == 0:
                continue
            nxt = _line_map(p, RecurrenceParams(P, Q))
            assert sorted(nxt) == list(range(p))
            assert nxt[0] == P % p
            zero_orbit, r = {0}, nxt[0]
            while r:
                zero_orbit.add(r)
                r = nxt[r]
            inv = [0] + [pow(a, -1, p) for a in range(1, p)]
            zero_free_lines = {
                terms[(i + 1) % len(terms)] * inv[terms[i]] % p
                for terms in naive_orbits(p, P, Q) if 0 not in terms
                for i in range(len(terms))
            }
            assert set(range(p)) - zero_orbit == zero_free_lines

    def test_orbit_through_zero_raises(self, monkeypatch):
        # mod 13 the orbit of 0 is 0, 1, 2, 8, 6, 12 and the zero-free lines
        # form one orbit from 3; a map sending 3 onto the line 1 is no
        # permutation, and the walk from 3 meets a line already walked and
        # raises rather than loops (the guard fails the test if it loops)
        class Guarded(list):
            lookups = 0

            def __getitem__(self, r):
                self.lookups += 1
                if self.lookups > len(self):
                    raise RuntimeError("the line walk loops")
                return super().__getitem__(r)

        leaky = Guarded(_line_map(13, FIBONACCI))
        leaky[3] = 1
        monkeypatch.setattr(fibseq, "_line_map", lambda p, params: leaky)
        with pytest.raises(InternalInvariantViolation, match="already walked"):
            star_summary(13)

    @pytest.mark.parametrize("P,Q", [(1, -1), (1, -2), (3, 1)])
    def test_orders_by_iteration_alone(self, monkeypatch, P, Q):
        # each ord(mu) is read by iterating mu, with no factoring or prime
        # stripping: the walk and the census it is checked against share no
        # order routine
        params = RecurrenceParams(P, Q)
        primes = [p for p in primes_upto(200) if Q % p != 0]
        expected = [star_summary(p, params) for p in primes]

        def unused(*args):
            raise AssertionError("star_summary factors or strips primes")

        monkeypatch.setattr(fibseq, "factorize", unused)
        monkeypatch.setattr(fibseq, "least_dividing", unused)
        assert [star_summary(p, params) for p in primes] == expected

    def test_no_quadratic_buffer(self):
        # p = 2017 has one zero-free period, 4036; a p^2-byte table would be 4 MB
        tracemalloc.start()
        try:
            assert star_summary(2017)[0] == {4036}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sweep_cap(self, monkeypatch):
        # the walk checks the sweep cap, which FIBFIELD_CAP lowers, not the enumeration cap
        monkeypatch.setenv("FIBFIELD_CAP", "100")
        with pytest.raises(CapExceeded, match="^p = 101 exceeds the theorem sweep cap 100$"):
            star_summary(101)

    def test_singular_rejected(self):
        # Q = 0 mod 7: the sequence 0, 1, 1, 1, ... never returns to 0, so this raises, not loops
        with pytest.raises(NotInvertible, match=r"^gcd\(Q=7, N=7\) != 1$"):
            star_summary(7, RecurrenceParams(1, 7))

    @pytest.mark.parametrize("N", [9, 15])
    def test_composite_rejected(self, N):
        with pytest.raises(BadPrime):
            star_summary(N)

    def test_two(self):
        # every nonzero pair mod 2 is on the orbit of (0, 1)
        assert star_summary(2) == (set(), set())
