"""The criterion checker, its prime-element corollary form, and the
proof-trace engine.

Given a subtractive prime ideal P and f = a_n x^n + ... + a_0, the three
conditions are

    (1) a_n not in P,
    (2) a_i in P for every i < n,
    (3) a_0 not in P^2.

A Satisfied verdict certifies exactly one thing: f has no factorization
into two non-constant polynomials over the carrier.  NotApplicable makes
no claim about f either way; the criterion is sufficient, not necessary.

The conditions themselves live in one predicate on raw coefficient
tuples, ``first_failing_condition``.  It takes the two membership tests
of ``Ideal.condition_tests``, raw callables for P and P^2 built once per
ideal (closed forms of divisibility on the infinite carriers, set
membership on finite ones).  ``check_eisenstein`` calls it on a
polynomial's coefficients; the exhaustive scans of the oracle generate
the tuples it accepts.

A report is an immutable named tuple that keeps only the first failing
condition and its witness index: since the conditions are tested in
order, these fix every membership fact, and ``as_dict`` derives the
printed evidence from them and the coefficients.  Building one costs a
tuple, so a check is the hypothesis lookup, the degree test and a few
membership calls.

The trace engine replays the underlying argument on a concrete candidate
factorization g*h.  After normalizing roles so the b-factor has its
constant term outside P, it finds the least m with c_m outside P and
splits the product coefficient a_m into its convolution terms.  The role
rule lives in one raw-tuple helper, ``trace_roles``, which the hunt's
near-miss scan also calls, to read m and a_m without a trace.  Every
term except b_0*c_m lies in P; when P is subtractive and prime that
forces a_m outside P, and when P is not subtractive the trace shows
exactly where the sum absorbed the non-member term.

Hypothesis certificates are carried verbatim in each report; every
ideal certificate the package builds is exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DegreeTooSmallError,
    HypothesisNotEstablishedError,
    NoMinimalIndexError,
    NotPrimeElementError,
    SemiringMismatchError,
)
from .ideals import Ideal, IdealPredicateReport, principal_ideal
from .polynomials import Polynomial

DEFAULT_HYPOTHESIS_BOUND = 4096

ROUTE_IDEAL_CERTIFICATE = "ideal-certificate"
ROUTE_SEMIRING_FLAGS = "semiring-flags"


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    NOT_APPLICABLE = "not-applicable"
    HYPOTHESIS_NOT_ESTABLISHED = "hypothesis-not-established"


class EisensteinReport(NamedTuple):
    """One criterion check.  Immutable; ``check_corollary`` derives its
    report with ``_replace``."""

    polynomial: Polynomial
    ideal: Ideal
    verdict: Verdict
    failing_condition: int | None
    witness_index: int | None
    hypothesis: IdealPredicateReport
    hypothesis_failure: str | None
    hypothesis_bound: int
    hypothesis_route: str = ROUTE_IDEAL_CERTIFICATE

    @property
    def satisfied(self) -> bool:
        return self.verdict is Verdict.SATISFIED

    @property
    def witness_value(self):
        """The raw coefficient at ``witness_index``, or None."""
        i = self.witness_index
        return None if i is None else self.polynomial.coeffs[i]

    def as_dict(self) -> dict:
        f = self.polynomial
        fmt = f.semiring.format_value
        a = f.coeffs
        n = f.degree
        failing = self.failing_condition
        conditions = {}
        if self.verdict is not Verdict.HYPOTHESIS_NOT_ESTABLISHED:
            conditions["1"] = {
                "coefficient_index": n,
                "value": fmt(a[n]),
                "in_ideal": failing == 1,
                "holds": failing != 1,
            }
        if failing == 2:
            # every lower coefficient before the failure was seen in P
            w = self.witness_index
            conditions["2"] = {
                "memberships": [
                    {"index": i, "value": fmt(a[i]), "in_ideal": i != w} for i in range(w + 1)
                ],
                "holds": False,
            }
        elif self.verdict is Verdict.SATISFIED or failing == 3:
            conditions["2"] = {
                "memberships": [
                    {"index": i, "value": fmt(a[i]), "in_ideal": True} for i in range(n)
                ],
                "holds": True,
            }
            conditions["3"] = {
                "value": fmt(a[0]),
                "in_ideal_square": failing == 3,
                "holds": failing != 3,
            }
        witness = self.witness_value
        return {
            "polynomial": f.format(),
            "ideal": self.ideal.describe(),
            "verdict": self.verdict.value,
            "failing_condition": failing,
            "witness_index": self.witness_index,
            "witness_value": None if witness is None else fmt(witness),
            "conditions": conditions,
            "hypothesis": self.hypothesis.as_dict(),
            "hypothesis_failure": self.hypothesis_failure,
            "hypothesis_bound": self.hypothesis_bound,
            "hypothesis_route": self.hypothesis_route,
        }


def first_failing_condition(coeffs, in_p, in_p_square):
    """The first failing condition of a raw coefficient tuple (constant
    first, nonzero leader) and its witness index, or (None, None) when all
    three hold.  ``in_p`` and ``in_p_square`` test a raw value for
    membership in P and in P^2.  Conditions are tested in order, condition
    2 from index 0 up, and the first failure wins; ``in_p_square`` is
    called only once conditions 1 and 2 hold.

    This is the one implementation of the three conditions:
    ``check_eisenstein`` calls it on a polynomial's coefficients.  The
    batch paths of ``verify_theorem`` and ``hunt_subtractivity`` generate
    the tuples it accepts instead of testing every tuple, and the tests
    hold them to a scan that calls it on each."""
    n = len(coeffs) - 1
    if in_p(coeffs[n]):
        return 1, n
    for i in range(n):
        if not in_p(coeffs[i]):
            return 2, i
    if in_p_square(coeffs[0]):
        return 3, 0
    return None, None


def trace_roles(g, h, in_p, add, mul):
    """The proof trace's role rule on raw coefficient tuples (constant
    first): ``(b_is_g, m, a_m)``.  b is the factor whose constant term
    lies outside P, and g wins when both do; m is the first index of c
    outside P; a_m is coefficient m of b*c, folded from b_0*c_m up with
    the carrier's ``add`` and ``mul``.  None when both constant terms lie
    in P, and m and a_m are None when c lies wholly in P.

    This is the one implementation of the roles: ``proof_trace`` calls it
    on a polynomial pair, and the near-miss scan of ``hunt_subtractivity``
    calls it on raw tuples and records m and a_m without a trace."""
    b_is_g = not in_p(g[0])
    if not b_is_g and in_p(h[0]):
        return None
    b, c = (g, h) if b_is_g else (h, g)
    m = next((k for k, v in enumerate(c) if not in_p(v)), None)
    if m is None:
        return b_is_g, None, None
    a_m = mul(b[0], c[m])
    for i in range(1, min(m, len(b) - 1) + 1):
        a_m = add(a_m, mul(b[i], c[m - i]))
    return b_is_g, m, a_m


def check_eisenstein(
    f: Polynomial, P: Ideal, hypothesis_bound: int = DEFAULT_HYPOTHESIS_BOUND
) -> EisensteinReport:
    """Full criterion check: certify P proper, prime and subtractive, then
    test the three conditions.

    Satisfied certifies that f cannot be written as a product of two
    non-constant polynomials.  NotApplicable carries the first failing
    condition and its witness.  A failed hypothesis is reported as the
    HypothesisNotEstablished verdict with the failing certificate.
    """
    S = f.semiring
    if S is not P.semiring and S != P.semiring:
        raise SemiringMismatchError(
            f"polynomial over {S.name}, ideal over {P.semiring.name}"
        )
    if len(f.coeffs) < 2:
        raise DegreeTooSmallError("the criterion needs a non-constant polynomial")
    hypothesis = P.predicates(hypothesis_bound)
    if not hypothesis.all_hold:
        name, _ = hypothesis.first_failure()
        return EisensteinReport(
            f, P, Verdict.HYPOTHESIS_NOT_ESTABLISHED, None, None,
            hypothesis, name, hypothesis_bound,
        )
    failing, index = first_failing_condition(f.coeffs, *P.condition_tests())
    verdict = Verdict.SATISFIED if failing is None else Verdict.NOT_APPLICABLE
    return EisensteinReport(
        f, P, verdict, failing, index, hypothesis, None, hypothesis_bound
    )


def check_corollary(
    f: Polynomial, p, hypothesis_bound: int = DEFAULT_HYPOTHESIS_BOUND
) -> EisensteinReport:
    """Prime-element form: p does not divide a_n, p divides every a_i
    below the degree, and p^2 does not divide a_0.

    Lowers to the ideal form over (p), where p | a is membership in (p)
    and p^2 | a_0 is membership in (p)^2 = (p^2).  The subtractivity
    hypothesis is taken from the semiring flags when the carrier declares
    every prime ideal subtractive alongside factoriality; otherwise the
    per-ideal certificate for (p) is used.  The naturals need the second
    route: they are not weak Gaussian, but (p) itself is subtractive
    prime, which is all the argument uses.
    """
    S = f.semiring
    p = S.check_value(p)
    if p == S.zero_value:
        raise NotPrimeElementError("the corollary needs a nonzero element")
    if S.divides_values(p, S.one_value):
        raise NotPrimeElementError(
            "units are excluded from the prime-element role"
        )
    report = check_eisenstein(f, principal_ideal(S, p), hypothesis_bound)
    flags = S.flags
    if flags.is_weak_gaussian and flags.is_factorial and flags.is_semidomain:
        route = ROUTE_SEMIRING_FLAGS
    else:
        route = ROUTE_IDEAL_CERTIFICATE
    return report._replace(hypothesis_route=route)


# ---------------------------------------------------------------------------
# proof trace

OUTCOME_TRACED = "traced"
OUTCOME_CONSTANT_TERMS_IN_IDEAL = "constant-terms-in-ideal"


@dataclass(frozen=True, slots=True)
class TraceTerm:
    i: int
    j: int
    value: str
    in_ideal: bool

    def as_dict(self) -> dict:
        return {"i": self.i, "j": self.j, "value": self.value, "in_ideal": self.in_ideal}


@dataclass(frozen=True, slots=True)
class TraceReport:
    outcome: str
    ideal: str
    b_factor: str
    c_factor: str
    product: str
    m: int | None
    terms: tuple[TraceTerm, ...]
    a_m: str | None
    a_m_in_ideal: bool | None
    subtractivity_used: bool
    nonmember_terms: tuple[int, ...]
    hypothesis_bound: int
    constant_product: str | None = None
    constant_product_in_square: bool | None = None

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "ideal": self.ideal,
            "hypothesis_bound": self.hypothesis_bound,
            "roles": {"b": self.b_factor, "c": self.c_factor},
            "product": self.product,
            "m": self.m,
            "terms": [t.as_dict() for t in self.terms],
            "a_m": self.a_m,
            "a_m_in_ideal": self.a_m_in_ideal,
            "subtractivity_used": self.subtractivity_used,
            "nonmember_terms": list(self.nonmember_terms),
            "constant_product": self.constant_product,
            "constant_product_in_square": self.constant_product_in_square,
        }


def proof_trace(
    g: Polynomial, h: Polynomial, P: Ideal,
    hypothesis_bound: int = DEFAULT_HYPOTHESIS_BOUND,
) -> TraceReport:
    """Replay the contradiction argument on the candidate product g*h.

    P must be certified proper and prime; subtractivity may fail, which is
    the instructive case.  Roles, m and a_m come from ``trace_roles``:
    the b-factor has its constant term outside P (g wins the role when
    both do), and a_m is folded from the terms b_i*c_(m-i) the report
    lists.  If both constant terms lie in P the roles are unassignable and
    the report instead exhibits a_0 = b_0*c_0 inside P^2, the
    condition-(3) clash.
    """
    S = g.semiring
    if h.semiring != S or P.semiring != S:
        raise SemiringMismatchError("trace inputs live over different semirings")
    if g.degree is None or g.degree < 1 or h.degree is None or h.degree < 1:
        raise DegreeTooSmallError("trace factors must be non-constant")
    hypothesis = P.predicates(hypothesis_bound)
    if not (hypothesis.proper.holds and hypothesis.prime.holds):
        name, cert = hypothesis.first_failure()
        raise HypothesisNotEstablishedError(
            f"trace needs a proper prime ideal; {name} failed"
            + (f" with witness {cert.witness}" if cert.witness else "")
        )
    subtractive = hypothesis.subtractive.holds
    fmt = S.format_value
    product = g * h

    in_p, in_p_square = P.condition_tests()
    roles = trace_roles(g.coeffs, h.coeffs, in_p, *S.value_ops())
    if roles is None:
        a0 = product.coeff_value(0)
        return TraceReport(
            outcome=OUTCOME_CONSTANT_TERMS_IN_IDEAL,
            ideal=P.describe(),
            b_factor=g.format(),
            c_factor=h.format(),
            product=product.format(),
            m=None, terms=(), a_m=None, a_m_in_ideal=None,
            subtractivity_used=subtractive, nonmember_terms=(),
            hypothesis_bound=hypothesis_bound,
            constant_product=fmt(a0),
            constant_product_in_square=in_p_square(a0),
        )

    b_is_g, m, a_m = roles
    b, c = (g, h) if b_is_g else (h, g)
    if m is None:
        raise NoMinimalIndexError(
            "the factor playing c has every coefficient in the ideal; "
            "no minimal index exists"
        )
    terms = []
    nonmembers = []
    for i in range(0, min(m, b.degree) + 1):
        j = m - i
        value = S.mul_values(b.coeff_value(i), c.coeff_value(j))
        in_ideal = in_p(value)
        if not in_ideal:
            nonmembers.append(len(terms))
        terms.append(TraceTerm(i, j, fmt(value), in_ideal))
    return TraceReport(
        outcome=OUTCOME_TRACED,
        ideal=P.describe(),
        b_factor=b.format(),
        c_factor=c.format(),
        product=product.format(),
        m=m,
        terms=tuple(terms),
        a_m=fmt(a_m),
        a_m_in_ideal=in_p(a_m),
        subtractivity_used=subtractive,
        nonmember_terms=tuple(nonmembers),
        hypothesis_bound=hypothesis_bound,
    )
