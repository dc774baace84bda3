import itertools
import random

import pytest

from eisenring import (
    Polynomial,
    Verdict,
    check_corollary,
    check_eisenstein,
    enumerate_ideals,
    enumerate_semirings,
    from_table,
    ideal_closure,
    principal_ideal,
    proof_trace,
    search_factorizations,
)
from eisenring.eisenstein import (
    OUTCOME_CONSTANT_TERMS_IN_IDEAL,
    OUTCOME_TRACED,
    ROUTE_IDEAL_CERTIFICATE,
    ROUTE_SEMIRING_FLAGS,
    evaluate_conditions,
    first_failing_condition,
)
from eisenring.errors import (
    DegreeTooSmallError,
    HypothesisNotEstablishedError,
    NotPrimeElementError,
    SemiringMismatchError,
)
from eisenring.ideals import FiniteSetIdeal

BOUND = 128


class TestCheckEisenstein:
    def test_satisfied_and_oracle_agrees(self, nat):
        f = Polynomial.parse("x^2 + 2*x + 2", nat)
        report = check_eisenstein(f, principal_ideal(nat, 2), BOUND)
        assert report.verdict is Verdict.SATISFIED
        outcome = search_factorizations(f)
        assert not outcome.found and outcome.complete

    def test_condition_three_failure(self, nat):
        f = Polynomial.parse("x^2 + 2*x + 4", nat)
        report = check_eisenstein(f, principal_ideal(nat, 2), BOUND)
        assert report.verdict is Verdict.NOT_APPLICABLE
        assert report.failing_condition == 3
        assert report.witness_value == 4

    def test_condition_one_failure(self, nat):
        f = Polynomial.parse("2*x^2 + 2*x + 2", nat)
        report = check_eisenstein(f, principal_ideal(nat, 2), BOUND)
        assert report.failing_condition == 1
        assert report.witness_index == 2

    def test_condition_two_failure_first_index(self, nat):
        f = Polynomial.parse("x^3 + 3*x^2 + 2*x + 2", nat)
        report = check_eisenstein(f, principal_ideal(nat, 2), BOUND)
        assert report.failing_condition == 2
        assert report.witness_index == 2  # 2 and 2 pass, 3 is the first failure

    def test_tropical_satisfied(self, tropical):
        f = Polynomial.parse("x^2 + 1*x + 1", tropical)
        report = check_eisenstein(f, principal_ideal(tropical, 1), BOUND)
        assert report.verdict is Verdict.SATISFIED
        outcome = search_factorizations(f)
        assert not outcome.found and outcome.complete

    def test_bool_zero_ideal_always_clashes(self, boolean):
        P = ideal_closure(boolean, [0])
        for text in ("x^2", "x^3"):
            report = check_eisenstein(Polynomial.parse(text, boolean), P)
            assert report.verdict is Verdict.NOT_APPLICABLE
            assert report.failing_condition == 3

    def test_hypothesis_not_established_composite(self, nat):
        f = Polynomial.parse("x^2 + 4*x + 4", nat)
        report = check_eisenstein(f, principal_ideal(nat, 4), BOUND)
        assert report.verdict is Verdict.HYPOTHESIS_NOT_ESTABLISHED
        assert report.hypothesis_failure == "prime"
        assert report.hypothesis.prime.witness == ("2", "2")

    def test_hypothesis_not_established_non_subtractive(self, n3):
        P = ideal_closure(n3, [2])
        report = check_eisenstein(Polynomial.parse("x + 2", n3), P)
        assert report.verdict is Verdict.HYPOTHESIS_NOT_ESTABLISHED
        assert report.hypothesis_failure == "subtractive"

    def test_hypothesis_not_established_improper(self, nat):
        report = check_eisenstein(
            Polynomial.parse("x + 1", nat), principal_ideal(nat, 1), BOUND
        )
        assert report.verdict is Verdict.HYPOTHESIS_NOT_ESTABLISHED
        assert report.hypothesis_failure == "proper"

    def test_degree_too_small(self, nat):
        P = principal_ideal(nat, 2)
        with pytest.raises(DegreeTooSmallError):
            check_eisenstein(Polynomial.parse("2", nat), P, BOUND)
        with pytest.raises(DegreeTooSmallError):
            check_eisenstein(Polynomial(nat, ()), P, BOUND)

    def test_mismatch(self, nat, gcdnat):
        with pytest.raises(SemiringMismatchError):
            check_eisenstein(Polynomial.parse("x + 2", gcdnat), principal_ideal(nat, 2), BOUND)

    def test_degree_one_allowed(self, nat):
        report = check_eisenstein(Polynomial.parse("x + 2", nat), principal_ideal(nat, 2), BOUND)
        assert report.verdict is Verdict.SATISFIED

    def test_monotone_evidence(self, nat):
        P = principal_ideal(nat, 2)
        rng = random.Random(5)
        for _ in range(300):
            coeffs = [rng.randrange(0, 9) for _ in range(rng.randrange(2, 5))]
            coeffs.append(rng.randrange(1, 9))
            f = Polynomial(nat, coeffs)
            report = check_eisenstein(f, P, BOUND)
            if report.verdict is not Verdict.NOT_APPLICABLE:
                continue
            k = report.failing_condition
            ev = report.evidence
            if k >= 2:
                assert ev.leading_in_ideal is False
            if k == 2:
                assert all(ok for _, _, ok in ev.lower[:-1])
                assert not ev.lower[-1][2]
            if k == 3:
                assert all(ok for _, _, ok in ev.lower)
                assert ev.constant_in_square is True


class TestConditionPredicate:
    def test_raw_tuples_agree_with_evaluate_conditions(self):
        # the batch paths of verify_theorem and hunt test raw tuples against
        # the ideal's element sets; the report path must give the same
        # first failure for every ideal and every polynomial up to degree 3
        outcomes = set()
        for order in (2, 3):
            for fs in enumerate_semirings(order):
                S = from_table(fs)
                leads = [v for v in range(order) if v != fs.zero_index]
                for subset in enumerate_ideals(fs):
                    P = FiniteSetIdeal(S, subset)
                    in_p, in_p_square = P.elements.__contains__, P.square().elements.__contains__
                    for d in range(4):
                        for lower in itertools.product(range(order), repeat=d):
                            for lead in leads:
                                tup = lower + (lead,)
                                want = evaluate_conditions(Polynomial(S, tup), P)[:2]
                                assert first_failing_condition(tup, in_p, in_p_square) == want
                                outcomes.add(want[0])
        assert outcomes == {None, 1, 2, 3}


class TestCorollary:
    def test_gcd_nat_satisfied(self, gcdnat):
        f = Polynomial.parse("3*x^2 + 2*x + 2", gcdnat)
        report = check_corollary(f, 2, BOUND)
        assert report.verdict is Verdict.SATISFIED
        assert report.hypothesis_route == ROUTE_SEMIRING_FLAGS
        outcome = search_factorizations(f)
        assert not outcome.found and outcome.complete  # (1,1) splits are complete

    def test_gcd_nat_condition_three(self, gcdnat):
        f = Polynomial.parse("3*x^2 + 2*x + 4", gcdnat)
        report = check_corollary(f, 2, BOUND)
        assert report.verdict is Verdict.NOT_APPLICABLE
        assert report.failing_condition == 3

    def test_nat_route_is_per_ideal(self, nat):
        f = Polynomial.parse("x^3 + 2*x^2 + 4*x + 2", nat)
        report = check_corollary(f, 2, BOUND)
        assert report.verdict is Verdict.SATISFIED
        assert report.hypothesis_route == ROUTE_IDEAL_CERTIFICATE
        outcome = search_factorizations(f)
        assert not outcome.found and outcome.complete

    def test_zero_and_unit_rejected(self, nat, tropical):
        f = Polynomial.parse("x + 2", nat)
        with pytest.raises(NotPrimeElementError):
            check_corollary(f, 0, BOUND)
        with pytest.raises(NotPrimeElementError):
            check_corollary(f, 1, BOUND)
        with pytest.raises(NotPrimeElementError):
            check_corollary(Polynomial.parse("x + 1", tropical), 0, BOUND)

    def test_composite_gives_hypothesis_verdict(self, nat):
        f = Polynomial.parse("x + 6", nat)
        report = check_corollary(f, 6, BOUND)
        assert report.verdict is Verdict.HYPOTHESIS_NOT_ESTABLISHED

    def test_consistency_sample(self, nat, gcdnat):
        rng = random.Random(17)
        for S in (nat, gcdnat):
            for _ in range(100):
                coeffs = [rng.randrange(0, 20) for _ in range(rng.randrange(2, 5))]
                coeffs.append(rng.randrange(1, 20))
                f = Polynomial(S, coeffs)
                p = rng.randrange(2, 14)
                direct = check_eisenstein(f, principal_ideal(S, p), BOUND)
                lowered = check_corollary(f, p, BOUND)
                assert lowered.verdict is direct.verdict
                assert lowered.failing_condition == direct.failing_condition


class TestProofTrace:
    def test_nat_example(self, nat):
        P = principal_ideal(nat, 2)
        report = proof_trace(
            Polynomial.parse("x + 1", nat), Polynomial.parse("x + 2", nat), P, BOUND
        )
        assert report.outcome == OUTCOME_TRACED
        assert report.b_factor == "x + 1" and report.c_factor == "x + 2"
        assert report.m == 1
        assert report.a_m == "3" and report.a_m_in_ideal is False
        assert [(t.value, t.in_ideal) for t in report.terms] == [("1", False), ("2", True)]
        assert report.subtractivity_used is True

    def test_role_normalization_symmetry(self, nat):
        P = principal_ideal(nat, 2)
        first = proof_trace(
            Polynomial.parse("x + 1", nat), Polynomial.parse("x + 2", nat), P, BOUND
        )
        swapped = proof_trace(
            Polynomial.parse("x + 2", nat), Polynomial.parse("x + 1", nat), P, BOUND
        )
        assert first == swapped

    def test_n3_near_miss(self, n3):
        P = ideal_closure(n3, [2])
        report = proof_trace(
            Polynomial.parse("x + 1", n3), Polynomial.parse("x + 2", n3), P
        )
        assert report.outcome == OUTCOME_TRACED
        assert report.product == "x^2 + 2*x + 2"
        assert report.m == 1
        assert report.a_m == "2" and report.a_m_in_ideal is True
        assert report.subtractivity_used is False
        assert report.terms[0].value == "1" and report.terms[0].in_ideal is False
        assert report.nonmember_terms == (0,)

    def test_both_constants_inside(self, nat):
        P = principal_ideal(nat, 2)
        report = proof_trace(
            Polynomial.parse("x + 2", nat), Polynomial.parse("x + 4", nat), P, BOUND
        )
        assert report.outcome == OUTCOME_CONSTANT_TERMS_IN_IDEAL
        assert report.constant_product == "8"
        assert report.constant_product_in_square is True

    def test_c_side_fully_inside_rejected(self, nat):
        P = principal_ideal(nat, 2)
        with pytest.raises(ValueError):
            proof_trace(
                Polynomial.parse("x + 1", nat), Polynomial.parse("2*x + 2", nat), P, BOUND
            )

    def test_needs_prime(self, nat):
        with pytest.raises(HypothesisNotEstablishedError):
            proof_trace(
                Polynomial.parse("x + 1", nat),
                Polynomial.parse("x + 2", nat),
                principal_ideal(nat, 6),
                BOUND,
            )

    def test_constant_factors_rejected(self, nat):
        P = principal_ideal(nat, 2)
        with pytest.raises(DegreeTooSmallError):
            proof_trace(Polynomial.parse("3", nat), Polynomial.parse("x + 2", nat), P, BOUND)

    def test_m_zero_when_both_constants_outside(self, nat):
        P = principal_ideal(nat, 2)
        report = proof_trace(
            Polynomial.parse("x + 1", nat), Polynomial.parse("x + 3", nat), P, BOUND
        )
        assert report.m == 0
        assert report.b_factor == "x + 1"  # first argument wins the b role
        assert report.a_m_in_ideal is False

    def test_lemma_sample(self, nat, gcdnat, tropical):
        # focused version of the randomized lemma run in the acceptance suite
        rng = random.Random(3)
        for S, p in ((nat, 2), (gcdnat, 2), (tropical, 1)):
            P = principal_ideal(S, p)
            members = [v for v in S.sample_values(24) if P.contains_value(v)]
            nonmembers = [v for v in S.sample_values(24) if not P.contains_value(v)]
            nonzero = [v for v in S.sample_values(24) if v != S.zero_value]
            pool = S.sample_values(24)
            for _ in range(150):
                b = [rng.choice(nonmembers)]
                b += [rng.choice(pool) for _ in range(rng.randrange(0, 2))]
                b.append(rng.choice(nonzero))
                m = rng.randrange(0, 3)
                extra = rng.randrange(0, 2) if m >= 1 else rng.randrange(1, 3)
                c = [rng.choice(members) for _ in range(m)]
                c.append(rng.choice(nonmembers))  # position m; nonmembers exclude zero
                if extra:
                    c += [rng.choice(pool) for _ in range(extra - 1)]
                    c.append(rng.choice(nonzero))
                report = proof_trace(Polynomial(S, b), Polynomial(S, c), P, 64)
                assert report.a_m_in_ideal is False
