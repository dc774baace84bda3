import random

import pytest

from eisenring import INFINITY, Polynomial, builtin_semiring
from eisenring.errors import (
    DegreeTooLargeError,
    LiteralError,
    PolySyntaxError,
    SemiringMismatchError,
)
from eisenring.polynomials import MAX_PARSE_DEGREE

BUILTIN_NAMES = ["nat", "bool", "tropical-min", "gcd-nat"]


def random_poly(rng, S, max_degree=6):
    if S.flags.is_finite:
        pool = list(range(S.table.order))
    elif S.name == "tropical-min":
        pool = list(range(0, 9)) + [INFINITY]
    else:
        pool = list(range(0, 9))
    degree = rng.randrange(0, max_degree + 1)
    return Polynomial(S, [rng.choice(pool) for _ in range(degree + 1)])


def all_semirings(n3, nilpotent3):
    return [builtin_semiring(name) for name in BUILTIN_NAMES] + [n3, nilpotent3]


class TestArithmetic:
    def test_bool_square(self, boolean):
        f = Polynomial.parse("x + 1", boolean)
        assert (f * f).format() == "x^2 + x + 1"

    def test_nat_product(self, nat):
        f = Polynomial.parse("x + 1", nat) * Polynomial.parse("x + 2", nat)
        assert f == Polynomial(nat, (2, 3, 1))

    def test_tropical_convolution(self, tropical):
        f = Polynomial(tropical, (2, 1))  # 1*x + 2
        g = Polynomial(tropical, (1, 0))  # x + 1
        product = f * g
        assert product == Polynomial(tropical, (3, 2, 1))
        assert product.coeff_value(1) == min(1 + 1, 2 + 0)

    def test_mismatch(self, nat, gcdnat):
        with pytest.raises(SemiringMismatchError):
            Polynomial(nat, (1, 1)) * Polynomial(gcdnat, (1, 1))

    def test_coefficient_validation(self, nat):
        with pytest.raises(LiteralError):
            Polynomial(nat, (1, -2))


class TestDegree:
    def test_zero_polynomial(self, nat):
        assert Polynomial(nat, ()).degree is None
        assert Polynomial(nat, (0, 0)).degree is None

    def test_plain(self, nat):
        assert Polynomial(nat, (2, 2, 1)).degree == 2

    def test_tropical_zero_constant(self, tropical):
        # the constant inf alone is the zero polynomial
        assert Polynomial(tropical, (INFINITY,)).degree is None

    def test_degree_law_entire(self, nat, tropical):
        rng = random.Random(7)
        for S in (nat, tropical):
            for _ in range(200):
                f, g = random_poly(rng, S), random_poly(rng, S)
                if f.is_zero or g.is_zero:
                    continue
                assert (f * g).degree == f.degree + g.degree

    def test_degree_can_drop_with_zero_divisors(self, nilpotent3):
        S = nilpotent3
        rng = random.Random(11)
        dropped = False
        for _ in range(500):
            f, g = random_poly(rng, S, 3), random_poly(rng, S, 3)
            if f.is_zero or g.is_zero:
                continue
            d = (f * g).degree
            assert d is None or d <= f.degree + g.degree
            if d is None or d < f.degree + g.degree:
                dropped = True
        assert dropped


class TestEval:
    def test_nat(self, nat):
        assert Polynomial(nat, (2, 2, 1)).eval(3) == 17

    def test_zero_poly(self, tropical, nat):
        assert Polynomial(nat, ()).eval(5) == 0
        assert Polynomial(tropical, ()).eval(5) == INFINITY

    def test_tropical(self, tropical):
        # (0*x + 1)(5) = min(0 + 5, 1)
        assert Polynomial(tropical, (1, 0)).eval(5) == 1

    def test_homomorphism_samples(self, nat, boolean, tropical, gcdnat):
        rng = random.Random(23)
        for S in (nat, boolean, tropical, gcdnat):
            pool = [0, 1] if S.flags.is_finite else [0, 1, 2, 5]
            for _ in range(100):
                f, g = random_poly(rng, S, 4), random_poly(rng, S, 4)
                x = rng.choice(pool)
                assert (f * g).eval(x) == S.mul_values(f.eval(x), g.eval(x))
                assert (f + g).eval(x) == S.add_values(f.eval(x), g.eval(x))


class TestParsing:
    def test_nat_example(self, nat):
        f = Polynomial.parse("x^2 + 2*x + 2", nat)
        assert f.coeffs == (2, 2, 1)

    def test_tropical_canonicalization(self, tropical):
        f = Polynomial.parse("1*x + inf", tropical)
        assert f.format() == "1*x"
        assert f.coeffs == (INFINITY, 1)

    def test_bool_rejects_inf(self, boolean):
        with pytest.raises(LiteralError):
            Polynomial.parse("x^2 + inf", boolean)

    def test_nat_rejects_inf(self, nat):
        with pytest.raises(LiteralError):
            Polynomial.parse("inf", nat)

    def test_finite_element_names(self, n3):
        f = Polynomial.parse("2*x^2 + 1", n3)
        assert f.coeffs == (1, 0, 2)

    def test_repeated_exponents_use_semiring_addition(self, nat, boolean):
        assert Polynomial.parse("x + x", nat) == Polynomial(nat, (0, 2))
        assert Polynomial.parse("x + x", boolean) == Polynomial(boolean, (0, 1))

    def test_whitespace_insensitive(self, nat):
        assert Polynomial.parse("x^2+2*x+2", nat) == Polynomial.parse(" x^2 + 2 * x + 2 ", nat)

    @pytest.mark.parametrize("bad", ["", "2x", "x^", "x +", "* x", "x^-1", "x & 1"])
    def test_syntax_errors(self, nat, bad):
        with pytest.raises(PolySyntaxError):
            Polynomial.parse(bad, nat)

    def test_error_position(self, nat):
        with pytest.raises(PolySyntaxError) as err:
            Polynomial.parse("x^2 + &", nat)
        assert err.value.position == 6

    def test_degree_cap(self, nat):
        assert Polynomial.parse(f"x^{MAX_PARSE_DEGREE} + 2", nat).degree == MAX_PARSE_DEGREE
        for exponent in (MAX_PARSE_DEGREE + 1, 10**8, "9" * 5000):
            with pytest.raises(DegreeTooLargeError):
                Polynomial.parse(f"x^{exponent} + 2", nat)

    def test_zero_literal(self, nat, tropical):
        assert Polynomial.parse("0", nat).is_zero
        assert Polynomial.parse("inf", tropical).is_zero


class TestRoundTrip:
    def test_round_trip_corpus(self, n3, nilpotent3):
        rng = random.Random(99)
        for S in all_semirings(n3, nilpotent3):
            for _ in range(150):
                f = random_poly(rng, S)
                assert Polynomial.parse(f.format(), S) == f


class TestRingLaws:
    def test_poly_laws(self, n3, nilpotent3):
        rng = random.Random(41)
        for S in all_semirings(n3, nilpotent3):
            one = Polynomial(S, (S.one_value,))
            for _ in range(60):
                f = random_poly(rng, S, 5)
                g = random_poly(rng, S, 5)
                h = random_poly(rng, S, 5)
                assert f * g == g * f
                assert (f * g) * h == f * (g * h)
                assert f * (g + h) == f * g + f * h
                assert f * one == f
                assert f + g == g + f
                assert (f + g) + h == f + (g + h)
