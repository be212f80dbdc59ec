import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibfield.errors import BadGroupOrder, NotInvertible
from fibfield.modarith import (
    MILLER_RABIN_BASES,
    TRIAL_DIVISION_BOUND,
    Factorization,
    divisors,
    factorize,
    is_prime,
    least_dividing,
    legendre,
    mod_inv,
    multiplicative_order,
    sqrt_mod,
    _TRIAL_PRIMES,
)

from conftest import naive_order, power_subgroup, primes_upto, trial_division_is_prime


class TestModInv:
    def test_identity(self):
        assert mod_inv(1, 97) == 1

    def test_known(self):
        assert mod_inv(2, 11) == 6  # 2*6 = 12 = 1 mod 11

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            mod_inv(4, 8)

    def test_exhaustive_small(self):
        for n in range(2, 301):
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert mod_inv(a, n) * a % n == 1

    @given(st.integers(2, 10**4), st.integers(1, 10**4))
    def test_sampled(self, n, a):
        a %= n
        if a and math.gcd(a, n) == 1:
            assert mod_inv(a, n) * a % n == 1


class TestIsPrime:
    def test_unit(self):
        assert not is_prime(1)

    def test_small(self):
        assert is_prime(11)

    def test_carmichael(self):
        assert not is_prime(561)  # 3 * 11 * 17

    def test_base_set_documented(self):
        assert MILLER_RABIN_BASES == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

    def test_trial_division_oracle(self):
        for n in range(1, 3000):
            assert is_prime(n) == trial_division_is_prime(n)

    def test_miller_rabin_oracle(self):
        # past the sieve, so every n here is decided by Miller-Rabin
        assert TRIAL_DIVISION_BOUND == 10**4
        for n in range(10**4 + 1, 12_001):
            assert is_prime(n) == trial_division_is_prime(n)

    @pytest.mark.parametrize("n", [3215031751, 2152302898747, 3474749660383,
                                   341550071728321, 3825123056546413051])
    def test_strong_pseudoprimes_composite(self, n):
        # strong pseudoprimes to every prime base up to 7, 11, 13, 19 and 31
        # in turn, so the first base each one fails is 11, 13, 17, 23 and 37
        assert not is_prime(n)

    def test_sieve_edge(self):
        assert [is_prime(n) for n in (9973, 10000, 10007, 0, 1, -7)] == [
            True, False, True, False, False, False]

    def test_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**19 - 1))


class TestFactorize:
    def test_one(self):
        assert factorize(1).factors == ()

    def test_known(self):
        assert factorize(10).factors == ((2, 1), (5, 1))
        assert factorize(48).factors == ((2, 4), (3, 1))
        assert factorize(16).factors == ((2, 4),)

    def test_roundtrip_exhaustive(self):
        for n in range(1, 10001):
            f = factorize(n)
            prod = 1
            for p, e in f.factors:
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    def test_roundtrip_random(self):
        rng = random.Random(0)
        for _ in range(500):
            n = rng.randrange(1, 10**6)
            factorize(n)  # __post_init__ validates primes and the product
        for _ in range(1000):
            n = rng.getrandbits(60) | 1
            if n > 1:
                factorize(n)
        # past the 2^62 width cap factorize refuses; p^2 - 1 is factored as
        # its parts p - 1 and p + 1 instead
        p = 3000000019
        assert p * p - 1 >= 1 << 62
        with pytest.raises(ValueError):
            factorize(p * p - 1)

    def test_trial_prime_table(self):
        assert _TRIAL_PRIMES == tuple(p for p in range(TRIAL_DIVISION_BOUND + 1)
                                      if trial_division_is_prime(p))
        assert _TRIAL_PRIMES[-1] == 9973

    @pytest.mark.parametrize("n, factors", [
        (9973**2, ((9973, 2),)),
        (9973 * 10007, ((9973, 1), (10007, 1))),
        (10007**2, ((10007, 2),)),
        (10007 * 10009, ((10007, 1), (10009, 1))),
        (2 * 10007**3, ((2, 1), (10007, 3))),
        ((2**31 - 1) ** 2, ((2**31 - 1, 2),)),
    ], ids=["9973^2", "9973*10007", "10007^2", "10007*10009", "2*10007^3", "(2^31-1)^2"])
    def test_past_the_prime_table(self, n, factors):
        # 9973 is the last prime of the trial table; 10007 and 10009 are left to rho
        assert factorize(n).factors == factors

    def test_invalid_factorization_rejected(self):
        with pytest.raises(ValueError):
            Factorization(6, ((2, 1), (4, 1)))  # 4 is not prime
        with pytest.raises(ValueError):
            Factorization(6, ((2, 2),))  # wrong product


class TestDivisors:
    def test_one(self):
        assert divisors(factorize(1)) == [1]

    def test_known(self):
        assert divisors(factorize(10)) == [1, 2, 5, 10]
        assert divisors(factorize(16)) == [1, 2, 4, 8, 16]

    @given(st.integers(1, 5000))
    def test_direct_enumeration(self, n):
        assert divisors(factorize(n)) == [d for d in range(1, n + 1) if n % d == 0]


class TestLeastDividing:
    def test_known(self):
        f = factorize(360)
        assert least_dividing(f, lambda t: t % 12 == 0) == 12
        assert least_dividing(f, lambda t: True) == 1
        assert least_dividing(f, lambda t: t == 360) == 360

    def test_not_a_multiple(self):
        # 360 is no multiple of 7, so no divisor of it holds
        with pytest.raises(BadGroupOrder):
            least_dividing(factorize(360), lambda t: t % 7 == 0)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_multiples_of_a_divisor(self, n, k):
        d = math.gcd(n, k)
        assert least_dividing(factorize(n), lambda t: t % d == 0) == d


class TestMultiplicativeOrder:
    def test_identity(self):
        assert multiplicative_order(1, 17) == 1

    def test_known(self):
        assert multiplicative_order(8, 11) == 10
        assert multiplicative_order(4, 11) == 5
        # composite n: 561 = 3 * 11 * 17 is a Carmichael number, so 2^560 = 1
        # and stripping the primes of 560 gives the exact order
        assert multiplicative_order(2, 561) == 40 == naive_order(2, 561)

    def test_errors(self):
        with pytest.raises(NotInvertible):
            multiplicative_order(4, 8)
        with pytest.raises(BadGroupOrder):
            multiplicative_order(2, 15)  # 2^14 = 4 mod 15

    def test_naive_oracle_exhaustive(self):
        for p in primes_upto(100):
            for a in range(1, p):
                assert multiplicative_order(a, p) == naive_order(a, p)

    def test_certificate_sampled(self):
        # minimality certificate without the naive loop: t annihilates, t/q doesn't
        rng = random.Random(1)
        for p in primes_upto(1000)[-30:]:
            for a in rng.sample(range(2, p), 5):
                t = multiplicative_order(a, p)
                assert pow(a, t, p) == 1
                for q, _ in factorize(t).factors:
                    assert pow(a, t // q, p) != 1


class TestLegendre:
    def test_zero(self):
        assert legendre(0, 13) == 0

    def test_known(self):
        assert legendre(5, 11) == 1  # 4^2 = 16 = 5
        assert legendre(5, 7) == -1  # squares mod 7 are {1, 2, 4}

    def test_exhaustive_squares_oracle(self):
        for p in primes_upto(200):
            if p == 2:
                continue
            squares = {a * a % p for a in range(1, p)}
            for a in range(p):
                expect = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre(a, p) == expect


class TestSqrtMod:
    def test_zero(self):
        assert sqrt_mod(0, 13) == (0, 0)

    def test_known(self):
        assert sqrt_mod(5, 11) == (4, 7)
        assert sqrt_mod(5, 7) is None

    def test_properties_exhaustive(self):
        for p in primes_upto(200):
            if p == 2:
                continue
            for a in range(p):
                got = sqrt_mod(a, p)
                if legendre(a, p) == -1:
                    assert got is None
                else:
                    r, s = got
                    assert r * r % p == a
                    assert s == (p - r) % p
                    assert r <= s or a == 0

    @pytest.mark.parametrize("p, two_adic", [(2013265921, 27), (2147483579, 1)])
    def test_large_primes(self, p, two_adic):
        # Tonelli-Shanks with s = 27 (2^27 || p - 1), and with s = 1 for
        # p = 3 mod 4, where it returns a^((p+1)/4) without entering its loop
        assert is_prime(p) and (p - 1) & -(p - 1) == 1 << two_adic
        for x in (2, 3, 12345, 987654321, p - 2):
            a = x * x % p
            r, s = sqrt_mod(a, p)
            assert r * r % p == a
            assert s == p - r
            assert r <= s
            assert x in (r, s)
        non_residue = next(a for a in range(2, 100) if pow(a, (p - 1) // 2, p) == p - 1)
        assert sqrt_mod(non_residue, p) is None
        assert sqrt_mod(non_residue * 4, p) is None


class TestPowerSubgroup:
    """The scanning oracle that the value-set tests compare against."""

    def test_full_group(self):
        assert power_subgroup(11, 1) == set(range(1, 11))

    def test_squares(self):
        assert power_subgroup(11, 2) == {1, 3, 4, 5, 9}

    def test_trivial(self):
        assert power_subgroup(11, 10) == {1}

    def test_bad_divisor(self):
        with pytest.raises(ValueError):
            power_subgroup(11, 3)

    def test_composite_modulus_caught(self):
        # the squares mod 15 are {1, 4, 6, 9, 10}, not a subgroup of order 7
        with pytest.raises(AssertionError):
            power_subgroup(15, 2)

    def test_sizes(self):
        for p in primes_upto(500):
            if p == 2:
                continue
            for r in divisors(factorize(p - 1)):
                assert len(power_subgroup(p, r)) == (p - 1) // r
