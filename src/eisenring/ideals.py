"""Membership-decidable ideals and the predicates the criterion needs.

Two representations are supported.  Finite-set ideals live over finite
carriers and are stored as closed index sets: a principal ideal is the
set of multiples {s*p}, any other the least fixpoint of its generators
under addition and scaling.  Principal ideals (p) live over
the infinite built-ins, where membership is the divisibility test p | a.

Predicate verdicts are Certificates.  ``exact=True`` means the verdict is
decided; otherwise it only says "no violation among values <= bound", a
deliberately distinct state that is never collapsed into plain truth.
Every certificate built here is exact: finite-set ideals are decided by
exhaustive scans; principal ideals by integer primality, by closed forms
on tropical-min, and on nat and gcd-nat subtractivity by a bounded scan
whose note states the argument that makes it exact.  Negative
certificates always carry a witness that re-checks against the
definitions.

Membership has two forms.  ``contains_value`` answers one query through
the carrier's ``divides_values`` (or the element set); ``condition_tests``
hands out the raw tests for P and P^2 as plain one-argument callables,
built once per ideal, for the criterion checker, the proof trace and the
exhaustive scans.  On principal ideals they are the closed forms of
divisibility: ``v == 0`` or ``v % p == 0`` on nat and gcd-nat, and
``v == inf`` or ``v >= p`` on tropical-min.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundRequiredError, SemiringMismatchError
from .semirings import (
    INFINITY,
    CarrierKind,
    SemiringDescriptor,
    _is_prime_int,
    _smallest_factor_pair,
)
from .tables import multiples, prime_violation, subtractive_violation


@dataclass(frozen=True)
class Certificate:
    holds: bool
    exact: bool
    bound: int | None = None
    witness: tuple[str, ...] | None = None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "exact": self.exact,
            "bound": self.bound,
            "witness": list(self.witness) if self.witness else None,
            "note": self.note,
        }


@dataclass(frozen=True)
class IdealPredicateReport:
    proper: Certificate
    prime: Certificate
    subtractive: Certificate

    @property
    def all_hold(self) -> bool:
        return self.proper.holds and self.prime.holds and self.subtractive.holds

    def first_failure(self):
        for name in ("proper", "prime", "subtractive"):
            cert = getattr(self, name)
            if not cert.holds:
                return name, cert
        return None

    def as_dict(self) -> dict:
        return {
            "proper": self.proper.as_dict(),
            "prime": self.prime.as_dict(),
            "subtractive": self.subtractive.as_dict(),
        }


class Ideal:
    """Common behaviour: membership, predicates (memoized per bound), square."""

    def __init__(self, semiring: SemiringDescriptor):
        self.semiring = semiring
        self._predicate_cache: dict[int, IdealPredicateReport] = {}
        self._square = None
        self._tests = None

    def contains_value(self, v) -> bool:
        raise NotImplementedError

    def contains(self, a) -> bool:
        """Membership of a raw value, checked with ``check_value`` first;
        ``contains_value`` is the unchecked form, and loops take
        ``condition_tests``."""
        return self.contains_value(self.semiring.check_value(a))

    def square(self) -> "Ideal":
        if self._square is None:
            self._square = self._compute_square()
        return self._square

    def _compute_square(self) -> "Ideal":
        raise NotImplementedError

    def condition_tests(self):
        """``(in_p, in_p_square)``: membership in P and in P^2 as plain
        one-argument callables on raw values, agreeing with
        ``contains_value`` and ``square().contains_value``.  Built once per
        ideal, so a loop over coefficients pays no dispatch per value."""
        if self._tests is None:
            self._tests = (self._membership_test(), self.square()._membership_test())
        return self._tests

    def _membership_test(self):
        raise NotImplementedError

    def predicates(self, bound: int = 0) -> IdealPredicateReport:
        key = bound
        report = self._predicate_cache.get(key)
        if report is None:
            report = self._compute_predicates(bound)
            self._predicate_cache[key] = report
        return report

    def _compute_predicates(self, bound: int) -> IdealPredicateReport:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class FiniteSetIdeal(Ideal):
    """An explicit closed subset of a finite carrier."""

    def __init__(self, semiring: SemiringDescriptor, elements):
        if semiring.kind is not CarrierKind.FINITE:
            raise SemiringMismatchError("finite-set ideals need a finite carrier")
        super().__init__(semiring)
        self.elements = frozenset(elements)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSetIdeal)
            and self.semiring == other.semiring
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.semiring, self.elements))

    def contains_value(self, v) -> bool:
        return v in self.elements

    def _membership_test(self):
        return self.elements.__contains__

    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    def describe(self) -> str:
        names = self.semiring.format_value
        return "{" + ", ".join(names(v) for v in self.sorted_elements()) + "}"

    def _compute_square(self) -> "FiniteSetIdeal":
        S = self.semiring
        products = {
            S.mul_values(p, q) for p in self.elements for q in self.elements
        }
        return FiniteSetIdeal(S, _close_under_ideal_ops(S, products))

    def _compute_predicates(self, bound: int) -> IdealPredicateReport:
        S = self.semiring
        fs = S.table
        fmt = S.format_value
        subset = self.elements
        proper_holds = len(subset) < fs.order
        proper = Certificate(
            proper_holds,
            exact=True,
            witness=None if proper_holds else (fmt(fs.one_index),),
            note="" if proper_holds else "contains the multiplicative identity",
        )
        if not proper_holds:
            prime = Certificate(
                False,
                exact=True,
                witness=(fmt(fs.one_index),),
                note="improper: prime ideals are proper by definition",
            )
        else:
            violation = prime_violation(fs, subset)
            if violation is None:
                prime = Certificate(True, exact=True)
            else:
                a, b = violation
                prime = Certificate(
                    False,
                    exact=True,
                    witness=(fmt(a), fmt(b)),
                    note="product lies in the ideal, neither factor does",
                )
        violation = subtractive_violation(fs, subset)
        if violation is None:
            subtractive = Certificate(True, exact=True)
        else:
            a, b = violation
            subtractive = Certificate(
                False,
                exact=True,
                witness=(fmt(a), fmt(b)),
                note="a + b and a lie in the ideal, b does not",
            )
        return IdealPredicateReport(proper, prime, subtractive)


class PrincipalIdeal(Ideal):
    """(p) = {s*p : s in S} with divisibility membership; infinite carriers.
    ``generator`` is the raw value p, checked with ``check_value``."""

    def __init__(self, semiring: SemiringDescriptor, generator):
        super().__init__(semiring)
        self.generator = semiring.check_value(generator)
        if semiring.kind is CarrierKind.FINITE:
            # its certificates and membership tests are infinite-carrier forms
            raise SemiringMismatchError(
                "a principal ideal of a finite carrier is a FiniteSetIdeal; "
                "use principal_ideal"
            )

    def __eq__(self, other):
        return (
            isinstance(other, PrincipalIdeal)
            and self.semiring == other.semiring
            and self.generator == other.generator
        )

    def __hash__(self):
        return hash((self.semiring, self.generator))

    def contains_value(self, v) -> bool:
        return self.semiring.divides_values(self.generator, v)

    def _membership_test(self):
        # the closed forms of divides_values(p, v) for a fixed p
        p = self.generator
        if self.semiring.kind is CarrierKind.TROPICAL_MIN:
            if p == INFINITY:
                return lambda v: v == INFINITY
            return lambda v: v >= p  # inf passes too
        if p == 0:
            return lambda v: v == 0
        return lambda v: v % p == 0

    def describe(self) -> str:
        return f"({self.semiring.format_value(self.generator)})"

    def _compute_square(self) -> "PrincipalIdeal":
        # (p)^2 = (p^2): the products (ap)(bp) = ab p^2 generate it, and sums
        # of multiples of p^2 are multiples of p^2 by distributivity.
        S = self.semiring
        p = self.generator
        return PrincipalIdeal(S, S.mul_values(p, p))

    def _compute_predicates(self, bound: int) -> IdealPredicateReport:
        if bound <= 0:
            raise BoundRequiredError(
                f"ideal predicates over {self.semiring.name} need a positive bound"
            )
        S = self.semiring
        p = self.generator
        fmt = S.format_value
        one = S.one_value

        improper = S.divides_values(p, one)
        proper = Certificate(
            not improper,
            exact=True,
            witness=(fmt(one),) if improper else None,
            note="generated by a unit" if improper else "",
        )

        if S.kind in (CarrierKind.NATURALS, CarrierKind.GCD_NATURALS):
            prime = self._nat_prime_certificate(p, improper, fmt)
            subtractive = self._nat_subtractive_certificate(p, bound, fmt)
        else:
            prime = self._tropical_prime_certificate(p, improper, fmt)
            subtractive = _TROPICAL_SUBTRACTIVE
        return IdealPredicateReport(proper, prime, subtractive)

    # nat and gcd-nat share the ordinary-product multiplication, so the same
    # integer arguments settle both carriers.

    def _nat_prime_certificate(self, p, improper, fmt) -> Certificate:
        if improper:
            return Certificate(
                False, exact=True, witness=(fmt(1),),
                note="improper: prime ideals are proper by definition",
            )
        if p == 0:
            return Certificate(
                True, exact=True,
                note="(0) = {0} and the carrier has no zero divisors",
            )
        if _is_prime_int(p):
            return Certificate(True, exact=True, note="prime integer")
        d, e = _smallest_factor_pair(p)
        return Certificate(
            False, exact=True, witness=(fmt(d), fmt(e)),
            note=f"{p} divides {d}*{e} but neither factor",
        )

    def _nat_subtractive_certificate(self, p, bound, fmt) -> Certificate:
        S = self.semiring
        # Scan all pairs with values <= bound.  Pairs whose hypothesis fails
        # are vacuously fine, so only members a and nonmembers b can violate.
        members = [a for a in range(bound + 1) if S.divides_values(p, a)]
        nonmembers = [b for b in range(bound + 1) if not S.divides_values(p, b)]
        for a in members:
            for b in nonmembers:
                if S.divides_values(p, S.add_values(a, b)):
                    return Certificate(
                        False, exact=True, witness=(fmt(a), fmt(b)),
                        note="a + b and a lie in the ideal, b does not",
                    )
        if S.kind is CarrierKind.NATURALS:
            note = (
                f"scanned all pairs <= {bound}; exact because naturals embed "
                f"in the integers: p | a+b and p | a force p | (a+b)-a = b"
            )
        else:
            note = (
                f"scanned all pairs <= {bound}; exact because b is a multiple "
                f"of gcd(a, b), so scaling closure puts b in the ideal"
            )
        return Certificate(True, exact=True, bound=bound, note=note)

    # Over tropical-min, p | v means v = s + p for some s, so (p) is the
    # upward-closed threshold set {v >= p} plus inf.

    def _tropical_prime_certificate(self, p, improper, fmt) -> Certificate:
        if improper:
            return Certificate(
                False, exact=True, witness=(fmt(0),),
                note="improper: prime ideals are proper by definition",
            )
        if p == INFINITY:
            return Certificate(
                True, exact=True,
                note="(inf) = {inf}, and a min-plus product a + b is inf "
                "only if a or b is",
            )
        if p == 1:
            return Certificate(
                True, exact=True,
                note="(1) = {v >= 1} plus inf, and a min-plus product "
                "a + b >= 1 forces a >= 1 or b >= 1",
            )
        return Certificate(
            False, exact=True, witness=(fmt(1), fmt(p - 1)),
            note="product lies in the ideal, neither factor does",
        )


_TROPICAL_SUBTRACTIVE = Certificate(
    True, exact=True,
    note="(p) = {v >= p} plus inf: for a inside and b outside, b < a, "
    "so a + b = min(a, b) = b lies outside",
)


def _close_under_ideal_ops(S: SemiringDescriptor, seed) -> frozenset:
    fs = S.table
    current = set(seed)
    current.add(fs.zero_index)
    while True:
        nxt = set(current)
        for a in current:
            for b in current:
                nxt.add(fs.add_table[a][b])
            for s in range(fs.order):
                nxt.add(fs.mul_table[s][a])
        if nxt == current:
            return frozenset(current)
        current = nxt


def ideal_closure(S: SemiringDescriptor, generators) -> FiniteSetIdeal:
    """Least ideal of a finite carrier containing the generators: the
    fixpoint of adding sums of members and multiples of members."""
    if S.kind is not CarrierKind.FINITE:
        raise SemiringMismatchError(
            f"ideal closure needs a finite carrier, got {S.name}"
        )
    gens = [S.check_value(g) for g in generators]
    return FiniteSetIdeal(S, _close_under_ideal_ops(S, gens))


def principal_ideal(S: SemiringDescriptor, p) -> Ideal:
    """(p); over a finite carrier the explicit set {s*p} is built, which is
    already addition-closed by distributivity."""
    if S.kind is CarrierKind.FINITE:
        return FiniteSetIdeal(S, multiples(S.table, S.check_value(p)))
    return PrincipalIdeal(S, p)
