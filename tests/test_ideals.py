import itertools

import pytest

from eisenring import (
    INFINITY,
    enumerate_ideals,
    enumerate_semirings,
    from_table,
    ideal_closure,
    principal_ideal,
)
from eisenring.errors import BoundRequiredError, SemiringMismatchError
from eisenring.ideals import FiniteSetIdeal, PrincipalIdeal

from conftest import sample_values


class TestClosure:
    def test_n3_generator_two(self, n3):
        assert ideal_closure(n3, [2]).elements == {0, 2}

    def test_empty_generators(self, n3):
        assert ideal_closure(n3, []).elements == {0}

    def test_one_generates_everything(self, n3):
        assert ideal_closure(n3, [1]).elements == {0, 1, 2}

    def test_idempotent_and_minimal(self, n3):
        closure = ideal_closure(n3, [2])
        again = ideal_closure(n3, sorted(closure.elements))
        assert again.elements == closure.elements
        # minimality: every enumerated ideal containing the generators
        # contains the closure
        for subset in enumerate_ideals(n3.table):
            if 2 in subset:
                assert closure.elements <= set(subset)

    def test_infinite_carrier_rejected(self, nat):
        with pytest.raises(SemiringMismatchError):
            ideal_closure(nat, [2])


class TestPrincipal:
    def test_nat_evenness(self, nat):
        P = principal_ideal(nat, 2)
        assert P.contains(6) and not P.contains(3) and P.contains(0)

    def test_tropical_threshold(self, tropical):
        P = principal_ideal(tropical, 1)
        assert not P.contains(0)
        assert P.contains(1) and P.contains(7) and P.contains(INFINITY)

    def test_nat_unit_generator_improper(self, nat):
        P = principal_ideal(nat, 1)
        assert P.contains(17)
        assert not P.predicates(16).proper.holds

    def test_finite_carrier_builds_closure(self, n3):
        P = principal_ideal(n3, 2)
        assert isinstance(P, FiniteSetIdeal)
        assert P.elements == {0, 2}

    def test_principal_ideal_class_refuses_finite_carrier(self, boolean):
        # its certificates and membership tests are the infinite-carrier
        # closed forms; principal_ideal builds the element set instead
        with pytest.raises(SemiringMismatchError):
            PrincipalIdeal(boolean, 0)

    def test_finite_multiples_equal_closure(self):
        # {s*p} against the general closure fixpoint as the reference
        for order in (2, 3, 4):
            for fs in enumerate_semirings(order):
                S = from_table(fs)
                for p in range(order):
                    assert principal_ideal(S, p) == ideal_closure(S, [p]), (fs.digest(), p)

    def test_every_ideal_contains_zero(self, nat, tropical, n3):
        assert principal_ideal(nat, 5).contains(0)
        assert principal_ideal(tropical, 3).contains(INFINITY)
        assert ideal_closure(n3, [1]).contains(0)


class TestPredicates:
    def test_n3_prime_not_subtractive(self, n3):
        P = ideal_closure(n3, [2])
        report = P.predicates()
        assert report.proper.holds and report.proper.exact
        assert report.prime.holds and report.prime.exact
        assert not report.subtractive.holds
        a, b = (n3.parse_literal(t) for t in report.subtractive.witness)
        # witness re-check: a + b in I and a in I but b not in I
        assert P.contains_value(n3.add_values(a, b))
        assert P.contains_value(a) and not P.contains_value(b)

    def test_nat_two(self, nat):
        report = principal_ideal(nat, 2).predicates(128)
        assert report.all_hold
        assert report.prime.exact and report.subtractive.exact

    def test_bool_zero_ideal(self, boolean):
        report = FiniteSetIdeal(boolean, {0}).predicates()
        assert report.all_hold

    def test_improper_whole_carrier(self, n3):
        report = FiniteSetIdeal(n3, {0, 1, 2}).predicates()
        assert not report.proper.holds
        assert not report.prime.holds
        assert report.proper.witness == ("1",)

    def test_nat_composite_witness(self, nat):
        report = principal_ideal(nat, 6).predicates(64)
        assert not report.prime.holds
        x, y = (int(t) for t in report.prime.witness)
        assert x * y % 6 == 0 and x % 6 and y % 6

    def test_nat_zero_ideal(self, nat):
        report = principal_ideal(nat, 0).predicates(32)
        assert report.all_hold

    def test_tropical_one(self, tropical):
        report = principal_ideal(tropical, 1).predicates(64)
        assert report.all_hold
        assert report.prime.exact and report.prime.bound is None
        assert report.subtractive.exact and report.subtractive.bound is None

    def test_tropical_prime_beyond_bound(self, tropical):
        # (1000) holds 500 + 500 but neither 500; a bound-64 scan never
        # reaches such a pair, the closed form does
        report = principal_ideal(tropical, 1000).predicates(64)
        assert not report.prime.holds and report.prime.exact
        assert report.prime.witness == ("1", "999")
        assert report.subtractive.holds and report.subtractive.exact

    def test_tropical_closed_forms_match_scans(self, tropical):
        # the former bounded scans, kept as a cross-check: over 0..12 and
        # inf they agree with the closed forms for every p in that range
        values = list(range(13)) + [INFINITY]
        for p in values[1:]:
            P = principal_ideal(tropical, p)
            report = P.predicates(12)
            inside = [v for v in values if P.contains_value(v)]
            outside = [v for v in values if not P.contains_value(v)]
            prime_pairs = [(a, b) for a in outside for b in outside if P.contains_value(a + b)]
            assert report.prime.holds == (not prime_pairs), p
            if prime_pairs:
                assert (1, p - 1) in prime_pairs
            assert not [(a, b) for a in inside for b in outside if P.contains_value(min(a, b))]

    def test_tropical_composite(self, tropical):
        report = principal_ideal(tropical, 3).predicates(64)
        assert not report.prime.holds
        x, y = (tropical.parse_literal(t) for t in report.prime.witness)
        assert tropical.divides_values(3, x + y)
        assert not tropical.divides_values(3, x)

    def test_tropical_infinity_generator(self, tropical):
        report = principal_ideal(tropical, INFINITY).predicates(32)
        assert report.all_hold

    def test_bound_required(self, nat):
        with pytest.raises(BoundRequiredError):
            principal_ideal(nat, 2).predicates(0)

    def test_finite_agrees_with_definitions(self, n3, boolean):
        # independent definitional scans over all pairs
        for S in (n3, boolean):
            fs = S.table
            n = fs.order
            for subset in enumerate_ideals(fs):
                ideal = FiniteSetIdeal(S, subset)
                report = ideal.predicates()
                s = set(subset)
                proper = len(s) < n
                prime = proper and all(
                    (fs.mul_table[a][b] not in s) or (a in s) or (b in s)
                    for a, b in itertools.product(range(n), repeat=2)
                )
                subtractive = all(
                    (fs.add_table[a][b] not in s) or (a not in s) or (b in s)
                    for a, b in itertools.product(range(n), repeat=2)
                )
                assert report.proper.holds == proper
                assert report.prime.holds == prime
                assert report.subtractive.holds == subtractive


class TestSquare:
    def test_nat_square_of_two(self, nat):
        P = principal_ideal(nat, 2)
        P2 = P.square()
        assert P2.describe() == "(4)"
        assert not P2.contains(2)
        assert P2.contains(8)
        assert not P2.contains(6)

    def test_nat_square_cross_check(self, nat):
        # sums of products of members, enumerated up to 64, must agree with
        # divisibility by 4
        P2 = principal_ideal(nat, 2).square()
        members = [a for a in range(0, 65, 2)]
        products = {p * q for p in members for q in members if p * q <= 64}
        sums = set(products) | {0}
        changed = True
        while changed:
            changed = False
            for a, b in itertools.product(sorted(sums), repeat=2):
                s = a + b
                if s <= 64 and s not in sums:
                    sums.add(s)
                    changed = True
        for v in range(65):
            assert P2.contains(v) == (v in sums)

    def test_n3_square_saturates(self, n3):
        P = ideal_closure(n3, [2])
        assert P.square().elements == {0, 2}

    def test_tropical_square(self, tropical):
        P2 = principal_ideal(tropical, 1).square()
        assert P2.describe() == "(2)"
        assert not P2.contains(1)
        assert P2.contains(2) and P2.contains(5) and P2.contains(INFINITY)

    def test_square_contained_in_ideal(self, nat, tropical, n3, gcdnat):
        ideals = [
            principal_ideal(nat, 3),
            principal_ideal(tropical, 2),
            principal_ideal(gcdnat, 4),
            ideal_closure(n3, [2]),
            FiniteSetIdeal(n3, {0}),
        ]
        for ideal in ideals:
            square = ideal.square()
            sample = (
                sorted(ideal.elements)
                if isinstance(ideal, FiniteSetIdeal)
                else sample_values(ideal.semiring, 40)
            )
            for v in sample:
                if square.contains_value(v):
                    assert ideal.contains_value(v)

    def test_square_is_cached(self, nat):
        P = principal_ideal(nat, 2)
        assert P.square() is P.square()
