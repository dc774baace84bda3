import itertools
import random
from dataclasses import dataclass

import pytest

from eisenring import (
    INFINITY,
    Polynomial,
    Verdict,
    builtin_semiring,
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
    first_failing_condition,
)
from eisenring.errors import (
    DegreeTooSmallError,
    HypothesisNotEstablishedError,
    NotPrimeElementError,
    SemiringMismatchError,
)
from eisenring.ideals import FiniteSetIdeal

from conftest import sample_values

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

    def test_report_is_immutable(self, nat):
        f = Polynomial.parse("x^2 + 2*x + 2", nat)
        report = check_eisenstein(f, principal_ideal(nat, 2), BOUND)
        for field in ("verdict", "failing_condition", "hypothesis_route"):
            with pytest.raises(AttributeError):
                setattr(report, field, None)
        with pytest.raises(AttributeError):
            report.extra = 1
        assert report.verdict is Verdict.SATISFIED

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
            conditions = report.as_dict()["conditions"]
            if k >= 2:
                assert conditions["1"]["in_ideal"] is False
            if k == 2:
                memberships = conditions["2"]["memberships"]
                assert all(m["in_ideal"] for m in memberships[:-1])
                assert not memberships[-1]["in_ideal"]
            if k == 3:
                assert all(m["in_ideal"] for m in conditions["2"]["memberships"])
                assert conditions["3"]["in_ideal_square"] is True


class TestConditionPredicate:
    def test_set_membership_agrees_with_contains_value(self):
        # check_eisenstein and the batch paths of verify_theorem and hunt
        # test raw tuples with condition_tests (the element sets here);
        # contains_value must give the same first failure for every ideal
        # and every polynomial up to degree 3
        outcomes = set()
        for order in (2, 3):
            for fs in enumerate_semirings(order):
                S = from_table(fs)
                leads = [v for v in range(order) if v != fs.zero_index]
                for subset in enumerate_ideals(fs):
                    P = FiniteSetIdeal(S, subset)
                    in_p, in_p_square = P.condition_tests()
                    contains, contains_square = P.contains_value, P.square().contains_value
                    for d in range(4):
                        for lower in itertools.product(range(order), repeat=d):
                            for lead in leads:
                                tup = lower + (lead,)
                                want = first_failing_condition(tup, contains, contains_square)
                                assert first_failing_condition(tup, in_p, in_p_square) == want
                                outcomes.add(want[0])
        assert outcomes == {None, 1, 2, 3}

    @pytest.mark.parametrize("name,p", [
        (name, p)
        for name in ("nat", "gcd-nat", "tropical-min")
        for p in (0, 1, 2, 4, 6, 9, INFINITY)
        if p != INFINITY or name == "tropical-min"
    ])
    def test_principal_tests_agree_with_contains_value(self, name, p):
        # the closed forms of condition_tests against divides_values, on
        # P = (p) and P^2, over 0..64 plus inf where inf is a value
        S = builtin_semiring(name)
        P = principal_ideal(S, p)
        in_p, in_p_square = P.condition_tests()
        assert P.condition_tests() == (in_p, in_p_square)  # built once
        square = P.square()
        for v in sample_values(S, 64):
            assert in_p(v) == P.contains_value(v), v
            assert in_p_square(v) == square.contains_value(v), v


@dataclass(frozen=True)
class ConditionEvidence:
    """The membership facts a report once stored beside its verdict.
    ``lower`` lists (index, value, in P) for the coefficients below the
    degree, in ascending order up to and including the first failure."""

    leading_in_ideal: bool | None = None
    lower: tuple = ()
    constant_in_square: bool | None = None


def stored_evidence_report(f, P, bound):
    """``check_eisenstein(f, P, bound).as_dict()`` as it was rendered from
    a stored ConditionEvidence record, with every membership test made one
    by one, in order, until the first failure."""
    fmt = f.semiring.format_value
    hypothesis = P.predicates(bound)
    failure = hypothesis.first_failure()
    failing = index = None
    ev = ConditionEvidence()
    if failure is None:
        a, n = f.coeffs, f.degree
        if P.contains_value(a[n]):
            failing, index, ev = 1, n, ConditionEvidence(leading_in_ideal=True)
        else:
            lower = []
            for i in range(n):
                lower.append((i, a[i], P.contains_value(a[i])))
                if not lower[-1][2]:
                    failing, index = 2, i
                    break
            in_square = None
            if failing is None:
                in_square = P.square().contains_value(a[0])
                if in_square:
                    failing, index = 3, 0
            ev = ConditionEvidence(False, tuple(lower), in_square)
    conditions = {}
    if ev.leading_in_ideal is not None:
        conditions["1"] = {
            "coefficient_index": f.degree,
            "value": fmt(f.coeffs[-1]),
            "in_ideal": ev.leading_in_ideal,
            "holds": not ev.leading_in_ideal,
        }
    if ev.lower:
        conditions["2"] = {
            "memberships": [
                {"index": i, "value": fmt(v), "in_ideal": ok} for i, v, ok in ev.lower
            ],
            "holds": all(ok for _, _, ok in ev.lower),
        }
    if ev.constant_in_square is not None:
        conditions["3"] = {
            "value": fmt(f.coeffs[0]),
            "in_ideal_square": ev.constant_in_square,
            "holds": not ev.constant_in_square,
        }
    if failure is not None:
        verdict = Verdict.HYPOTHESIS_NOT_ESTABLISHED
    else:
        verdict = Verdict.SATISFIED if failing is None else Verdict.NOT_APPLICABLE
    return {
        "polynomial": f.format(),
        "ideal": P.describe(),
        "verdict": verdict.value,
        "failing_condition": failing,
        "witness_index": index,
        "witness_value": None if index is None else fmt(f.coeffs[index]),
        "conditions": conditions,
        "hypothesis": hypothesis.as_dict(),
        "hypothesis_failure": None if failure is None else failure[0],
        "hypothesis_bound": bound,
        "hypothesis_route": ROUTE_IDEAL_CERTIFICATE,
    }


class TestDerivedEvidence:
    """The report keeps only the first failing condition and its witness
    index; the evidence it prints must equal the stored-evidence rendering."""

    def test_finite_every_ideal_up_to_degree_three(self):
        verdicts = set()
        for order in (2, 3):
            for fs in enumerate_semirings(order):
                S = from_table(fs)
                leads = [v for v in range(order) if v != fs.zero_index]
                for subset in enumerate_ideals(fs):
                    P = FiniteSetIdeal(S, subset)
                    for d in range(1, 4):
                        for lower in itertools.product(range(order), repeat=d):
                            for lead in leads:
                                f = Polynomial(S, lower + (lead,))
                                got = check_eisenstein(f, P, BOUND).as_dict()
                                assert got == stored_evidence_report(f, P, BOUND)
                                verdicts.add((got["verdict"], got["failing_condition"]))
        assert {v for v, _ in verdicts} == {v.value for v in Verdict}
        assert {k for _, k in verdicts} == {None, 1, 2, 3}

    def test_principal_ideals_seeded(self, nat, gcdnat, tropical):
        rng = random.Random(7)
        cases = (
            (nat, (1, 2, 3, 4), lambda p: p * rng.randrange(4), lambda: rng.randrange(20)),
            (gcdnat, (2, 3, 4), lambda p: p * rng.randrange(4), lambda: rng.randrange(20)),
            # (1) is {v >= 1} plus inf, and (1)^2 is {v >= 2} plus inf
            (tropical, (0, 1, 2), lambda p: p + rng.randrange(3),
             lambda: INFINITY if rng.random() < 0.1 else rng.randrange(4)),
        )
        for S, primes, member, anything in cases:
            ideals = {p: principal_ideal(S, p) for p in primes}
            verdicts = set()
            for i in range(240):
                p = rng.choice(primes)
                d = 1 + i % 4
                if i % 2:
                    coeffs = [member(p) for _ in range(d)] + [rng.choice((S.one_value, anything()))]
                    coeffs[0] = rng.choice((p, anything()))
                else:
                    coeffs = [anything() for _ in range(d)] + [rng.randrange(1, 20)]
                f = Polynomial(S, coeffs)
                if f.degree is None or f.degree < 1:
                    continue
                got = check_eisenstein(f, ideals[p], BOUND).as_dict()
                assert got == stored_evidence_report(f, ideals[p], BOUND)
                verdicts.add(got["verdict"])
            assert verdicts == {v.value for v in Verdict}, S.name


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

    def test_report_is_the_direct_report_with_its_route(self, gcdnat):
        f = Polynomial.parse("3*x^2 + 2*x + 2", gcdnat)
        direct = check_eisenstein(f, principal_ideal(gcdnat, 2), BOUND)
        lowered = check_corollary(f, 2, BOUND)
        assert direct.hypothesis_route == ROUTE_IDEAL_CERTIFICATE
        assert lowered.hypothesis_route == ROUTE_SEMIRING_FLAGS
        assert lowered._replace(hypothesis_route=ROUTE_IDEAL_CERTIFICATE) == direct
        assert lowered.as_dict()["hypothesis_route"] == ROUTE_SEMIRING_FLAGS

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
            pool = sample_values(S, 24)
            members = [v for v in pool if P.contains_value(v)]
            nonmembers = [v for v in pool if not P.contains_value(v)]
            nonzero = [v for v in pool if v != S.zero_value]
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
