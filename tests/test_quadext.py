"""The F_{p^2} algebra of conftest, the test-side oracle for inert
eigenvalue orders: ring laws, conjugation, norm and ext_order."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibfield.errors import BadPrime, ModulusMismatch, NotInvertible
from fibfield.modarith import legendre

from conftest import QuadContext, conjugate, ext_order, norm, primes_upto, q_mul, q_pow

FIB_INERT = [p for p in primes_upto(200) if p > 2 and p % 5 in (2, 3)]


def all_elements(ctx):
    for c0 in range(ctx.p):
        for c1 in range(ctx.p):
            yield ctx.element(c0, c1)


def naive_ext_order(x):
    acc = x
    t = 1
    while acc != x.ctx.one():
        acc = q_mul(acc, x)
        t += 1
    return t


class TestRingOps:
    def test_mul_identity(self):
        ctx = QuadContext(7, 1, -1)
        x = ctx.element(3, 5)
        assert q_mul(x, ctx.one()) == x

    def test_char_poly_reduction(self):
        ctx = QuadContext(7, 1, -1)
        lam = ctx.lam()
        assert q_mul(lam, lam) == ctx.element(1, 1)  # lam^2 = lam + 1
        # lam * (1 + lam) = lam + lam^2 = 1 + 2 lam
        assert q_mul(lam, ctx.element(1, 1)) == ctx.element(1, 2)

    def test_pow(self):
        ctx = QuadContext(7, 1, -1)
        lam = ctx.lam()
        assert q_pow(lam, 0) == ctx.one()
        assert q_pow(lam, 8) == ctx.element(6, 0)  # Nr(lam) = lam^{p+1} = -1
        assert q_pow(lam, 16) == ctx.one()

    def test_context_mismatch(self):
        message = r"^QuadContext\(p=7, P=1, Q=6\) vs QuadContext\(p=13, P=1, Q=12\)$"
        with pytest.raises(ModulusMismatch, match=message):
            q_mul(QuadContext(7, 1, -1).lam(), QuadContext(13, 1, -1).lam())

    def test_pow_matches_repeated_mul(self):
        ctx = QuadContext(13, 1, -1)
        rng = random.Random(2)
        for _ in range(50):
            x = ctx.element(rng.randrange(13), rng.randrange(13))
            acc = ctx.one()
            for e in range(8):
                assert q_pow(x, e) == acc
                acc = q_mul(acc, x)


class TestConjugate:
    def test_fixed_field(self):
        ctx = QuadContext(7, 1, -1)
        assert conjugate(ctx.element(4)) == ctx.element(4)

    def test_lambda(self):
        assert conjugate(QuadContext(7, 1, -1).lam()) == QuadContext(7, 1, -1).element(1, 6)
        ctx = QuadContext(11, 1, 1)  # D = -3, inert mod 11
        assert conjugate(ctx.lam()) == ctx.element(1, 10)

    @given(st.sampled_from([3, 7, 13, 17]), st.integers(0, 16), st.integers(0, 16))
    def test_involution(self, p, c0, c1):
        x = QuadContext(p, 1, -1).element(c0, c1)
        assert conjugate(conjugate(x)) == x

    def test_frobenius_identity(self):
        for p in FIB_INERT:
            ctx = QuadContext(p, 1, -1)
            rng = random.Random(p)
            sample = [ctx.element(rng.randrange(p), rng.randrange(p)) for _ in range(20)]
            if p <= 20:
                sample = list(all_elements(ctx))
            for x in sample:
                assert conjugate(x) == q_pow(x, p)


class TestNorm:
    def test_one(self):
        assert norm(QuadContext(7, 1, -1).one()) == 1

    def test_lambda(self):
        ctx = QuadContext(7, 1, -1)
        assert norm(ctx.lam()) == 6  # lam(1 - lam) = -1
        assert norm(ctx.element(0, 2)) == 3  # Nr(2) * Nr(lam) = 4 * -1

    def test_multiplicative(self):
        for p in (7, 13, 43):
            ctx = QuadContext(p, 1, -1)
            rng = random.Random(p)
            for _ in range(1000):
                x = ctx.element(rng.randrange(p), rng.randrange(p))
                y = ctx.element(rng.randrange(p), rng.randrange(p))
                assert norm(q_mul(x, y)) == norm(x) * norm(y) % p

    def test_surjective(self):
        for p in [q for q in FIB_INERT if q <= 100]:
            ctx = QuadContext(p, 1, -1)
            images = {norm(x) for x in all_elements(ctx) if not x.is_zero()}
            assert images == set(range(1, p))

    def test_norm_pm_one_count(self):
        for p in [q for q in FIB_INERT if q <= 100]:
            ctx = QuadContext(p, 1, -1)
            count = sum(1 for x in all_elements(ctx) if norm(x) in (1, p - 1))
            assert count == 2 * (p + 1)


class TestExtOrder:
    def test_one(self):
        assert ext_order(QuadContext(7, 1, -1).one()) == 1

    def test_lambda(self):
        assert ext_order(QuadContext(7, 1, -1).lam()) == 16
        assert ext_order(QuadContext(3, 1, -1).lam()) == 8  # |F_9^x| = 8

    def test_zero(self):
        with pytest.raises(NotInvertible, match="^order of 0 is undefined$"):
            ext_order(QuadContext(7, 1, -1).element(0, 0))

    def test_split_context_refused(self):
        with pytest.raises(ValueError, match="splits mod"):
            QuadContext(11, 1, -1)  # 11 = 1 mod 5: split

    def test_divides_group_order_and_naive(self):
        for p in [q for q in FIB_INERT if q <= 47]:
            ctx = QuadContext(p, 1, -1)
            rng = random.Random(p)
            sample = [ctx.element(rng.randrange(p), rng.randrange(p)) for _ in range(15)]
            if p <= 20:
                sample = list(all_elements(ctx))
            for x in sample:
                if x.is_zero():
                    continue
                t = ext_order(x)
                assert (p * p - 1) % t == 0
                assert t == naive_ext_order(x)

    @pytest.mark.parametrize("P, Q", [(3, 5), (1, 2), (2, 3), (3, 1), (0, 1), (4, -3), (5, 7)])
    def test_lucas_contexts_match_naive(self, P, Q):
        # N(lam) = Q, so the norm's order n takes values other than 1 and 2 here
        for p in primes_upto(30)[1:]:
            if legendre(P * P - 4 * Q, p) != -1:
                continue
            for x in all_elements(QuadContext(p, P, Q)):
                if not x.is_zero():
                    assert ext_order(x) == naive_ext_order(x), (p, x)


class TestContext:
    def test_inertness_matches_legendre(self):
        # built iff D = 5 is a non-residue; p = 5, where D = 0, is refused too
        for p in primes_upto(100):
            if p <= 2:
                continue
            if legendre(5, p) == -1:
                assert QuadContext(p, 1, -1).p == p
            else:
                with pytest.raises(ValueError, match="splits mod"):
                    QuadContext(p, 1, -1)

    def test_rejects_bad_prime(self):
        with pytest.raises(BadPrime, match="^p = 8 is not an odd prime$"):
            QuadContext(8, 1, 1)
        with pytest.raises(BadPrime, match="^p = 2 is not an odd prime$"):
            QuadContext(2, 1, 1)

    def test_rejects_odd_composite(self):
        with pytest.raises(BadPrime, match="p = 9 is not an odd prime"):
            QuadContext(9, 1, -1)
