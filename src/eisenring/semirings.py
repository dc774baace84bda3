"""Semiring descriptors: built-in carriers, arithmetic on raw values, flags.

A semiring here is a commutative addition monoid with identity 0, a
commutative multiplication monoid with identity 1 != 0, distributivity,
and 0 absorbing under multiplication.  Four built-ins are registered:

    nat          (N, +, *, 0, 1)
    bool         ({0,1}, OR, AND)            realized as a finite table
    tropical-min (N u {inf}, min, +, zero=inf, one=0)
    gcd-nat      (N, gcd, *, zero=0, one=1)  the ideal semiring of Z

Finite carriers get every capability flag computed from their tables,
with one scan per fact from ``tables``.  Infinite built-ins carry
declared flags, each with a written justification in ``flag_notes``, and
their elements are classified by closed forms, so no verdict here depends
on a search bound.  Naturals are Python ints, so there is no overflow
anywhere; the tropical infinity is ``math.inf``.

Carrier values are plain Python objects: ints (table indices on finite
carriers) and ``math.inf``.  ``check_value`` validates one where it
enters the package, at the input edges of polynomials, ideals and the
classifiers, and ``check_values`` a whole coefficient sequence in one
pass; everything past that edge works on the raw values.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    AxiomCheckFailedError,
    FactoringLimitError,
    LiteralError,
    UnknownSemiringError,
)
from .tables import (
    FiniteSemiring,
    cancellation_violation,
    check_axioms,
    enumerate_ideals,
    factor_pair,
    multiples,
    prime_violation,
    subtractive_violation,
    units,
)

INFINITY = math.inf

BUILTIN_NAMES = ("nat", "bool", "tropical-min", "gcd-nat")


class CarrierKind(enum.Enum):
    FINITE = "finite-table"
    NATURALS = "naturals"
    TROPICAL_MIN = "tropical-min"
    GCD_NATURALS = "gcd-naturals"


@dataclass(frozen=True)
class CapabilityFlags:
    is_finite: bool
    is_semidomain: bool
    is_entire: bool
    all_ideals_subtractive: bool
    is_factorial: bool
    is_weak_gaussian: bool

    def as_dict(self) -> dict:
        return {
            "is_finite": self.is_finite,
            "is_semidomain": self.is_semidomain,
            "is_entire": self.is_entire,
            "all_ideals_subtractive": self.all_ideals_subtractive,
            "is_factorial": self.is_factorial,
            "is_weak_gaussian": self.is_weak_gaussian,
        }


class SemiringDescriptor:
    """A usable semiring instance: carrier, operations, 0, 1 and flags.

    Descriptors are immutable after construction and all operations are
    pure queries, so instances are safe to share freely.
    """

    __slots__ = ("name", "kind", "table", "flags", "flag_notes", "ideal_sets", "_key",
                 "zero_value", "one_value")

    def __init__(self, name: str, kind: CarrierKind, table: FiniteSemiring | None,
                 flags: CapabilityFlags, flag_notes: dict,
                 ideal_sets: tuple[tuple[int, ...], ...] | None = None):
        self.name = name
        self.kind = kind
        self.table = table
        self.flags = flags
        self.flag_notes = dict(flag_notes)
        # every ideal of a finite table, as enumerate_ideals lists them
        self.ideal_sets = ideal_sets
        self._key = (name, kind, table)
        # the distinguished values, as raw carrier values
        if kind is CarrierKind.FINITE:
            self.zero_value, self.one_value = table.zero_index, table.one_index
        elif kind is CarrierKind.TROPICAL_MIN:
            self.zero_value, self.one_value = INFINITY, 0
        else:
            self.zero_value, self.one_value = 0, 1

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, SemiringDescriptor) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"SemiringDescriptor({self.name!r})"

    # -- value validation -----------------------------------------------------

    def check_value(self, v):
        """Validate a raw carrier value, returning its normal form; a value
        outside the carrier raises LiteralError."""
        if self.kind is CarrierKind.FINITE:
            if isinstance(v, bool) or not isinstance(v, int):
                raise LiteralError(f"finite-carrier values are indices, got {v!r}")
            if not 0 <= v < self.table.order:
                raise LiteralError(f"index {v} out of range for order {self.table.order}")
            return v
        if self.kind is CarrierKind.TROPICAL_MIN:
            if isinstance(v, float) and math.isinf(v) and v > 0:
                return INFINITY
            if isinstance(v, int) and v >= 0:
                return int(v)
            raise LiteralError(f"tropical values are naturals or inf, got {v!r}")
        if isinstance(v, int) and v >= 0:
            return int(v)
        raise LiteralError(f"values of {self.name} are naturals, got {v!r}")

    def check_values(self, seq) -> list:
        """``[check_value(v) for v in seq]`` in one pass: a plain in-range
        int is taken as it is, and any other value goes through
        ``check_value``, which normalizes it or raises its LiteralError at
        the first bad value."""
        check = self.check_value
        if self.kind is CarrierKind.FINITE:
            order = self.table.order
            return [v if type(v) is int and 0 <= v < order else check(v) for v in seq]
        return [v if type(v) is int and v >= 0 else check(v) for v in seq]

    # -- arithmetic -----------------------------------------------------------

    def add_values(self, x, y):
        k = self.kind
        if k is CarrierKind.NATURALS:
            return x + y
        if k is CarrierKind.FINITE:
            return self.table.add_table[x][y]
        if k is CarrierKind.TROPICAL_MIN:
            return x if x <= y else y
        return math.gcd(x, y)

    def mul_values(self, x, y):
        k = self.kind
        if k is CarrierKind.NATURALS or k is CarrierKind.GCD_NATURALS:
            return x * y
        if k is CarrierKind.FINITE:
            return self.table.mul_table[x][y]
        return x + y  # tropical multiplication; inf is absorbing

    def value_ops(self):
        """``(add, mul)`` as plain two-argument callables on raw values,
        equal to ``add_values`` and ``mul_values`` on every pair.  A hot
        loop takes them once instead of dispatching on the carrier kind
        per operation."""
        k = self.kind
        if k is CarrierKind.FINITE:
            add_rows, mul_rows = self.table.add_table, self.table.mul_table
            return (lambda x, y: add_rows[x][y]), (lambda x, y: mul_rows[x][y])
        if k is CarrierKind.NATURALS:
            return operator.add, operator.mul
        if k is CarrierKind.GCD_NATURALS:
            return math.gcd, operator.mul
        return min, operator.add  # tropical-min; inf is absorbing under +

    def divides_values(self, x, y) -> bool:
        """x | y, i.e. some s has y = s*x."""
        k = self.kind
        if k is CarrierKind.NATURALS or k is CarrierKind.GCD_NATURALS:
            if x == 0:
                return y == 0
            return y % x == 0
        if k is CarrierKind.TROPICAL_MIN:
            if y == INFINITY:
                return True
            return x != INFINITY and y >= x
        if k is CarrierKind.FINITE:
            row = self.table.mul_table
            return any(row[s][x] == y for s in range(self.table.order))

    # -- literals -------------------------------------------------------------

    def format_value(self, v) -> str:
        if self.kind is CarrierKind.FINITE:
            return self.table.element_names[v]
        if self.kind is CarrierKind.TROPICAL_MIN and v == INFINITY:
            return "inf"
        return str(v)

    def parse_literal(self, text: str):
        if self.kind is CarrierKind.FINITE:
            if text in self.table.element_names:
                return self.table.element_names.index(text)
            raise LiteralError(f"{text!r} is not an element of {self.name}")
        if text == "inf":
            if self.kind is CarrierKind.TROPICAL_MIN:
                return INFINITY
            raise LiteralError(f"'inf' is not a value of {self.name}")
        if text.isascii() and text.isdigit():
            try:
                return int(text)
            except ValueError:  # past Python's integer string-conversion limit
                raise LiteralError(
                    f"a {len(text)}-digit literal is too long for {self.name}"
                ) from None
        raise LiteralError(f"{text!r} is not a value of {self.name}")


# ---------------------------------------------------------------------------
# built-in registry

_NAT_NOTES = {
    "is_semidomain": "ab = ac with a != 0 cancels in the naturals",
    "is_entire": "no zero divisors among the naturals",
    "all_ideals_subtractive": (
        "fails: N minus {1} is an ideal (sums avoid 1, scalings avoid 1) "
        "but 2 + 1 = 3 and 2 lie in it while 1 does not"
    ),
    "is_factorial": "unique factorization of integers; the only unit is 1",
    "is_weak_gaussian": (
        "fails: N minus {1} is a prime ideal (a, b outside it force ab = 1 "
        "outside it) that is not subtractive, witness a = 2, b = 1"
    ),
}

_GCD_NOTES = {
    "is_semidomain": "multiplication is the ordinary integer product",
    "is_entire": "ordinary product of nonzero naturals is nonzero",
    "all_ideals_subtractive": (
        "every ideal: b is a multiple of gcd(a, b), so gcd(a, b) in I "
        "forces b in I by scaling closure"
    ),
    "is_factorial": (
        "the multiplicative monoid is ordinary integer factorization; "
        "irreducibles are the prime numbers and each generates a prime ideal"
    ),
    "is_weak_gaussian": "implied: every ideal is subtractive",
}

_TROPICAL_NOTES = {
    "is_semidomain": "min-plus product is addition: a + b = a + c cancels for finite a",
    "is_entire": "a + b = inf forces a = inf or b = inf",
    "all_ideals_subtractive": (
        "every ideal is upward closed (scaling adds arbitrary naturals) and "
        "contains inf; min(a, b) in I with b >= min(a, b) forces b in I"
    ),
    "is_factorial": (
        "the only unit is 0 and the only irreducible is 1; every finite "
        "k >= 1 is the k-fold product of 1, and (1) is a prime ideal"
    ),
    "is_weak_gaussian": "implied: every ideal is subtractive",
}

_COMPUTED_NOTE = "computed exhaustively from the operation tables"


def _finite_flags(fs: FiniteSemiring):
    """Every capability flag of a table that satisfies the axioms, and its
    ideals as ``enumerate_ideals`` lists them.  The ideal-based flags need
    enumerate_ideals, which refuses orders above its subset-scan cap; it
    runs first, so such a table fails before the cubic scans.  Each fact
    is decided once: the units, and whether each ideal is subtractive."""
    ideals = enumerate_ideals(fs)
    n = fs.order
    rng = range(n)
    mul = fs.mul_table
    z, o = fs.zero_index, fs.one_index

    entire = all(mul[a][b] != z for a in rng for b in rng if a != z and b != z)
    semidomain = cancellation_violation(fs) is None
    subtractive = [subtractive_violation(fs, i) is None for i in ideals]
    all_subtractive = all(subtractive)
    weak_gaussian = all(
        sub
        for i, sub in zip(ideals, subtractive)
        if len(i) < n and prime_violation(fs, i) is None
    )

    unit = units(fs)
    nonunits = [a for a in rng if a != z and a not in unit]
    irreducibles = {a for a in nonunits if factor_pair(fs, a, unit) is None}
    primes = set()
    for p in rng:
        if p == o:
            continue
        principal = multiples(fs, p)
        if len(principal) < n and prime_violation(fs, principal) is None:
            primes.add(p)
    reachable = set(irreducibles)
    frontier = set(irreducibles)
    while frontier:
        frontier = {
            mul[a][i] for a in reachable for i in irreducibles
        } - reachable
        reachable |= frontier
    factorial = (
        semidomain
        and irreducibles <= primes
        and all(a in reachable for a in nonunits)
    )
    flags = CapabilityFlags(
        is_finite=True,
        is_semidomain=semidomain,
        is_entire=entire,
        all_ideals_subtractive=all_subtractive,
        is_factorial=factorial,
        is_weak_gaussian=weak_gaussian,
    )
    return flags, tuple(ideals)


def from_table(fs: FiniteSemiring, name: str | None = None) -> SemiringDescriptor:
    """Build a usable descriptor from a table, verifying the axioms first."""
    report = check_axioms(fs)
    if not report.all_pass:
        failed = ", ".join(r.name for r in report.failures())
        raise AxiomCheckFailedError(f"axioms failed: {failed}", report=report)
    return _table_descriptor(fs, name)


def _table_descriptor(fs: FiniteSemiring, name: str | None = None) -> SemiringDescriptor:
    """``from_table`` without the axiom check, for a table known to
    satisfy the axioms, such as one ``enumerate_semirings`` built."""
    flags, ideal_sets = _finite_flags(fs)
    notes = {flag: _COMPUTED_NOTE for flag in flags.as_dict()}
    return SemiringDescriptor(
        name or f"finite-{fs.digest()}", CarrierKind.FINITE, fs, flags, notes, ideal_sets
    )


@lru_cache(maxsize=None)
def builtin_semiring(name: str) -> SemiringDescriptor:
    """The registered built-in semirings: nat, bool, tropical-min, gcd-nat."""
    if name == "nat":
        flags = CapabilityFlags(False, True, True, False, True, False)
        return SemiringDescriptor("nat", CarrierKind.NATURALS, None, flags, _NAT_NOTES)
    if name == "bool":
        from .tables import boolean_table

        return from_table(boolean_table(), name="bool")
    if name == "tropical-min":
        flags = CapabilityFlags(False, True, True, True, True, True)
        return SemiringDescriptor(
            "tropical-min", CarrierKind.TROPICAL_MIN, None, flags, _TROPICAL_NOTES
        )
    if name == "gcd-nat":
        flags = CapabilityFlags(False, True, True, True, True, True)
        return SemiringDescriptor(
            "gcd-nat", CarrierKind.GCD_NATURALS, None, flags, _GCD_NOTES
        )
    raise UnknownSemiringError(
        f"unknown semiring {name!r}; choose one of {', '.join(BUILTIN_NAMES)}"
    )


# ---------------------------------------------------------------------------
# element classification

@dataclass(frozen=True)
class ElementClassification:
    value: str
    is_zero: bool
    is_unit: bool
    is_irreducible: bool
    is_prime_element: bool
    factorization_witness: tuple[str, str] | None
    nonprime_witness: tuple[str, str] | None
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "is_zero": self.is_zero,
            "is_unit": self.is_unit,
            "is_irreducible": self.is_irreducible,
            "is_prime_element": self.is_prime_element,
            "factorization_witness": list(self.factorization_witness)
            if self.factorization_witness
            else None,
            "nonprime_witness": list(self.nonprime_witness)
            if self.nonprime_witness
            else None,
            "notes": list(self.notes),
        }


# Miller-Rabin with the primes 2..41 as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson & Webster, Math.
# Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime_int(p: int) -> bool:
    """Exact primality by deterministic Miller-Rabin.  A base that
    witnesses compositeness is a proof at any size; a p at or above
    ``_MR_EXACT_BELOW`` that no base refutes raises FactoringLimitError,
    since no proof of its primality is at hand."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _MR_EXACT_BELOW:
        raise FactoringLimitError(
            f"{p} passes Miller-Rabin, which is proven exact only below {_MR_EXACT_BELOW}"
        )
    return True


_TRIAL_DIVISORS_UP_TO = 1000  # trial division finds every factor up to here
_RHO_STEP_BUDGET = 1 << 19  # rho squarings per factorization: 0.3 s on a 2-CPU x86 host


def _smallest_factor_pair(a: int):
    """(d, a // d) for the smallest prime factor d of a composite a, else
    None.  Factors up to ``_TRIAL_DIVISORS_UP_TO`` are found by trial
    division; past that, Pollard-Brent rho splits a into prime factors,
    each proven prime by ``_is_prime_int``, and the least one is d.  rho
    shares ``_RHO_STEP_BUDGET`` squarings across the whole factorization
    and raises FactoringLimitError when they run out, as does
    ``_is_prime_int`` on a factor it cannot decide."""
    for d in range(2, min(math.isqrt(a), _TRIAL_DIVISORS_UP_TO) + 1):
        if a % d == 0:
            return (d, a // d)
    if a < 4 or _is_prime_int(a):
        return None
    budget = [_RHO_STEP_BUDGET]
    smallest = a
    pending = [a]
    while pending:
        m = pending.pop()
        if _is_prime_int(m):
            smallest = min(smallest, m)
            continue
        d = _rho_factor(m, budget)
        pending += [d, m // d]
    return (smallest, a // smallest)


def _rho_factor(n: int, budget: list) -> int:
    """A factor 1 < d < n of the composite n, which has no factor up to
    ``_TRIAL_DIVISORS_UP_TO``, by Brent's variant of Pollard's rho with
    f(y) = y^2 + c, c = 1, 2, ... and start 2: differences are multiplied
    together in batches and the gcd is taken once per batch, going back
    over the last batch one step at a time when it overshoots to n.
    ``budget[0]`` holds the squarings left; running out raises
    FactoringLimitError."""
    batch = 128
    for c in itertools.count(1):
        y, q, g, r = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            budget[0] -= 2 * r  # r steps to move x ahead, at most r more to compare
            if budget[0] < 0:
                raise FactoringLimitError(
                    f"no factor of {n} within {_RHO_STEP_BUDGET} Pollard-Brent steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def classify_element(S: SemiringDescriptor, a) -> ElementClassification:
    """Zero/unit/irreducible/prime-element verdicts with explicit witnesses.

    Every verdict is exact.  Finite carriers are decided by the table scans
    in ``tables``.  On nat and gcd-nat the multiplication is the ordinary
    product, so irreducibility and primality reduce to integer primality,
    decided by ``_is_prime_int``; only a composite is searched for its
    smallest factor pair, the witness.
    On tropical-min the product is ordinary addition of naturals: the only
    unit is 0 (a + b = 0 forces a = b = 0), the only irreducible is 1, and
    the prime elements are 1 and inf, with the proofs in ``notes``.
    Negative verdicts always carry a concrete witness.
    """
    v = S.check_value(a)
    fmt = S.format_value
    notes = []

    if S.kind is CarrierKind.FINITE:
        fs = S.table
        is_zero = v == fs.zero_index
        unit = units(fs)
        is_unit = v in unit
        pair = None if is_zero or is_unit else factor_pair(fs, v, unit)
        irreducible = not is_zero and not is_unit and pair is None
        fact_witness = (fmt(pair[0]), fmt(pair[1])) if pair else None
        prime = False
        nonprime_witness = None
        if v != fs.one_index:
            principal = multiples(fs, v)
            if len(principal) == fs.order:
                notes.append("principal ideal is improper")
            else:
                violation = prime_violation(fs, principal)
                if violation is None:
                    prime = True
                else:
                    nonprime_witness = (fmt(violation[0]), fmt(violation[1]))
        else:
            notes.append("the multiplicative identity is excluded from primality")
        return ElementClassification(
            fmt(v), is_zero, is_unit, irreducible, prime,
            fact_witness, nonprime_witness, notes=tuple(notes),
        )

    if S.kind in (CarrierKind.NATURALS, CarrierKind.GCD_NATURALS):
        is_zero = v == 0
        is_unit = v == 1
        irreducible = _is_prime_int(v)
        pair = _smallest_factor_pair(v) if v >= 2 and not irreducible else None
        fact_witness = (fmt(pair[0]), fmt(pair[1])) if pair else None
        if is_zero:
            prime = True
            notes.append("(0) = {0} is prime because the carrier has no zero divisors")
        elif is_unit:
            prime = False
            notes.append("the multiplicative identity is excluded from primality")
        else:
            prime = irreducible
        nonprime_witness = fact_witness
        return ElementClassification(
            fmt(v), is_zero, is_unit, irreducible, prime,
            fact_witness, nonprime_witness, notes=tuple(notes),
        )

    # tropical-min: (v) = {u >= v} plus inf.  For v >= 2 the witnesses
    # refute both verdicts: 1 + (v-1) = v, and (v-1) + (v-1) >= v although
    # v - 1 < v.
    is_zero = v == INFINITY
    is_unit = v == 0
    irreducible = v == 1
    prime = is_zero or v == 1
    fact_witness = None
    nonprime_witness = None
    if is_zero:
        notes.append("(inf) = {inf} is prime: a + b = inf forces a factor inf")
    elif is_unit:
        notes.append("the multiplicative identity is excluded from primality")
    elif v == 1:
        notes.append(
            "irreducible: a min-plus product a + b = 1 forces a = 0 or b = 0, "
            "and 0 is the unit"
        )
        notes.append(
            "prime: (1) = {v >= 1} plus inf, and a min-plus product a + b >= 1 "
            "forces a >= 1 or b >= 1"
        )
    else:
        fact_witness = (fmt(1), fmt(v - 1))
        nonprime_witness = (fmt(v - 1), fmt(v - 1))
    return ElementClassification(
        fmt(v), is_zero, is_unit, irreducible, prime,
        fact_witness, nonprime_witness, notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# semidomain check

@dataclass(frozen=True)
class SemidomainVerdict:
    holds: bool
    counterexample: tuple[str, str, str] | None
    note: str

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "counterexample": list(self.counterexample) if self.counterexample else None,
            "note": self.note,
        }


def semidomain_check(S: SemiringDescriptor) -> SemidomainVerdict:
    """Cancellation test: ab = ac with a != 0 must force b = c.

    Finite carriers are decided by the table scan, with the first
    counterexample triple on failure.  Infinite built-ins return the
    declared flag; the note is the flag's written justification.
    """
    note = S.flag_notes["is_semidomain"]
    violation = cancellation_violation(S.table) if S.kind is CarrierKind.FINITE else None
    if violation is None:
        return SemidomainVerdict(S.flags.is_semidomain, None, note)
    return SemidomainVerdict(False, tuple(map(S.format_value, violation)), note)
