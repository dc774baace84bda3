"""Independent answer checks for the benchmark.

Nothing here imports the program.  Carrier arithmetic, polynomial
multiplication, the polynomial text format, table files and the three
criterion conditions are re-implemented from their definitions, so a
wrong answer from the program cannot also be the reference it is checked
against.

A checker returns a failure reason (a short string) or None.  Failures a
ROADMAP item already names as open are tagged ``KNOWN_*``; they are still
failures and still counted, but they do not make a run incorrect, while
any other failure does.
"""

from __future__ import annotations

import itertools
import math
import operator

KNOWN_NOT_ENTIRE = "known: false Satisfied on a carrier with zero divisors (ROADMAP item 1)"
KNOWN_ROBUSTNESS = "known: pathological input ends without a report or a clean exit 1 (ROADMAP item 5)"

INF = math.inf


class Carrier:
    """A semiring given by its two operations and identities."""

    def __init__(self, name, add, mul, zero, one, names=None):
        self.name = name
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.names = names  # element names of a finite carrier, else None

    def literal(self, token: str):
        if self.names is not None:
            return self.names.index(token)
        if token == "inf":
            if self.zero != INF:
                raise ValueError(f"inf is not a value of {self.name}")
            return INF
        return int(token)

    def fmt(self, v) -> str:
        if self.names is not None:
            return self.names[v]
        return "inf" if v == INF else str(v)


NAT = Carrier("nat", operator.add, operator.mul, 0, 1)
GCD = Carrier("gcd-nat", math.gcd, operator.mul, 0, 1)
TROPICAL = Carrier("tropical-min", min, operator.add, INF, 0)


def table_carrier(name, names, add_rows, mul_rows) -> Carrier:
    """Finite carrier over indices; index 0 is zero and index 1 is one."""
    add_rows = tuple(tuple(r) for r in add_rows)
    mul_rows = tuple(tuple(r) for r in mul_rows)
    c = Carrier(name, lambda a, b: add_rows[a][b], lambda a, b: mul_rows[a][b], 0, 1,
                tuple(names))
    c.add_rows, c.mul_rows = add_rows, mul_rows
    return c


BOOL = table_carrier("bool", ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)))


def read_table_file(text: str, name: str) -> Carrier:
    """The table file format: 'order n', 'elements ...', 'add' and 'mul'
    sections of n rows each; '#' starts a comment."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0][1])
    names = lines[1][1:]
    index = {v: i for i, v in enumerate(names)}
    rows = [[index[t] for t in ln] for ln in lines[3:3 + n]]
    mul = [[index[t] for t in ln] for ln in lines[4 + n:4 + 2 * n]]
    return table_carrier(name, names, rows, mul)


def table_text(c: Carrier) -> str:
    out = [f"order {len(c.names)}", "elements " + " ".join(c.names)]
    for label, rows in (("add", c.add_rows), ("mul", c.mul_rows)):
        out.append(label)
        out.extend(" ".join(c.names[v] for v in row) for row in rows)
    return "\n".join(out) + "\n"


def is_entire(c: Carrier) -> bool:
    n = len(c.names)
    return all(c.mul_rows[a][b] != 0 for a in range(1, n) for b in range(1, n))


# -- polynomials --------------------------------------------------------------

def trim(c: Carrier, coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == c.zero:
        out.pop()
    return tuple(out)


def convolve(c: Carrier, a, b) -> tuple:
    """Coefficients (low degree first) of the product of a and b."""
    if not a or not b:
        return ()
    out = [c.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = c.add(out[i + j], c.mul(x, y))
    return trim(c, out)


def format_poly(c: Carrier, coeffs) -> str:
    """Highest degree first, '*' and '^' explicit, zero terms omitted."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        v = coeffs[k]
        if v == c.zero and len(coeffs) > 1:
            continue
        x = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if not x:
            terms.append(c.fmt(v))
        elif v == c.one:
            terms.append(x)
        else:
            terms.append(f"{c.fmt(v)}*{x}")
    return " + ".join(terms) if terms else c.fmt(c.zero)


def parse_poly(c: Carrier, text: str) -> tuple:
    """Inverse of format_poly; repeated exponents combine with the carrier's
    addition."""
    terms = {}
    for raw in text.split("+"):
        term = raw.strip()
        if "x" in term:
            coeff, _, power = term.rpartition("x")
            coeff = coeff.rstrip("*").strip()
            value = c.literal(coeff) if coeff else c.one
            k = int(power.lstrip("^")) if power else 1
        else:
            value, k = c.literal(term), 0
        terms[k] = c.add(terms[k], value) if k in terms else value
    return trim(c, [terms.get(k, c.zero) for k in range(max(terms) + 1)])


# -- ideals and the criterion ---------------------------------------------------

class PrincipalSpec:
    """(p) over nat or gcd-nat (divisibility) or tropical-min (v >= p)."""

    def __init__(self, c: Carrier, p):
        self.carrier, self.p = c, p

    def member(self, v) -> bool:
        if self.carrier is TROPICAL:
            return v == INF or v >= self.p
        return v == 0 if self.p == 0 else v % self.p == 0

    def member_square(self, v) -> bool:
        return PrincipalSpec(self.carrier, self.carrier.mul(self.p, self.p)).member(v)

    def hypothesis(self) -> bool:
        """Proper, prime and subtractive, decided by the integer argument."""
        if self.carrier is TROPICAL:
            return self.p == 1  # (p) is prime iff p is 1 (or inf); always subtractive
        return self.p > 1 and all(self.p % d for d in range(2, math.isqrt(self.p) + 1))


class SetSpec:
    """An ideal of a finite carrier as an explicit set of indices."""

    def __init__(self, c: Carrier, elements):
        self.carrier = c
        self.elements = frozenset(elements)
        self.square = closure(c, {c.mul(a, b) for a in self.elements for b in self.elements})

    def member(self, v) -> bool:
        return v in self.elements

    def member_square(self, v) -> bool:
        return v in self.square

    def hypothesis(self) -> bool:
        c, inside = self.carrier, self.elements
        outside = [v for v in range(len(c.names)) if v not in inside]
        proper = c.one not in inside
        prime = not any(c.mul(a, b) in inside for a in outside for b in outside)
        subtractive = not any(c.add(a, b) in inside for a in inside for b in outside)
        return proper and prime and subtractive


def closure(c: Carrier, gens) -> frozenset:
    n = len(c.names)
    current = set(gens) | {c.zero}
    while True:
        nxt = set(current)
        nxt.update(c.add(a, b) for a in current for b in current)
        nxt.update(c.mul(s, a) for s in range(n) for a in current)
        if nxt == current:
            return frozenset(current)
        current = nxt


def finite_polys(c: Carrier, degree: int):
    """Every polynomial of exactly this degree over a finite carrier."""
    n = len(c.names)
    for lower in itertools.product(range(n), repeat=degree):
        for lead in range(1, n):
            yield lower + (lead,)


def census_expectation(c: Carrier, max_degree: int, window: int):
    """(Satisfied pairs, refuted pairs) of a finite carrier.

    Every proper prime subtractive ideal meets every polynomial of degree
    1..max_degree; a Satisfied pair is refuted when its polynomial of
    degree n is g*h with both factors non-constant and deg g + deg h = n
    on an entire carrier, or in max(2, n)..n+window on one with zero
    divisors, where leading terms can cancel.
    """
    n = len(c.names)
    ideals = []
    for bits in range(1 << (n - 1)):
        subset = {0} | {v for v in range(1, n) if bits >> (v - 1) & 1}
        if closure(c, subset) == subset:
            spec = SetSpec(c, subset)
            if spec.hypothesis():
                ideals.append(spec)
    entire = is_entire(c)
    top = max_degree if entire else max_degree + window
    polys = {d: list(finite_polys(c, d)) for d in range(1, top)}
    splits = {}  # product -> the degree sums r + s it arises from
    for r in range(1, top // 2 + 1):
        for s in range(r, top - r + 1):
            for g in polys[r]:
                for h in polys[s]:
                    splits.setdefault(convolve(c, g, h), set()).add(r + s)
    satisfied = refuted = 0
    for degree in range(1, max_degree + 1):
        sums = {degree} if entire else set(range(max(2, degree), degree + window + 1))
        for coeffs in finite_polys(c, degree):
            hits = sum(expected_verdict(s, coeffs)[0] == "satisfied" for s in ideals)
            satisfied += hits
            if hits and splits.get(coeffs, set()) & sums:
                refuted += hits
    return satisfied, refuted


def expected_verdict(spec, coeffs):
    """(verdict, failing condition) from the definitions, in the order the
    conditions are stated."""
    if not spec.hypothesis():
        return "hypothesis-not-established", None
    n = len(coeffs) - 1
    if spec.member(coeffs[n]):
        return "not-applicable", 1
    for i in range(n):
        if not spec.member(coeffs[i]):
            return "not-applicable", 2
    if spec.member_square(coeffs[0]):
        return "not-applicable", 3
    return "satisfied", None


# -- answer checks ---------------------------------------------------------------

def check_witness(c: Carrier, f, g, h):
    """A claimed factorization f = g*h into two non-constant factors."""
    if len(g) < 2 or len(h) < 2:
        return "witness factor is constant"
    if convolve(c, g, h) != trim(c, f):
        return "witness does not multiply back to the polynomial"
    return None


def check_verdict(spec, coeffs, verdict, failing):
    want = expected_verdict(spec, coeffs)
    if (verdict, failing) != want:
        return f"verdict {verdict}/{failing}, expected {want[0]}/{want[1]}"
    return None


def check_satisfied_search(c: Carrier, coeffs, found, g=None, h=None, entire=True):
    """A Satisfied verdict met by the factor search.  A genuine witness
    refutes the certificate."""
    if not found:
        return None
    wrong = check_witness(c, coeffs, g, h)
    if wrong:
        return "search witness is wrong: " + wrong
    if entire:
        return "Satisfied verdict refuted by a factorization"
    return KNOWN_NOT_ENTIRE


def is_known(reason: str) -> bool:
    return reason.startswith("known:")


def self_check() -> list[str]:
    """Feed the checkers a wrong witness and a refuted Satisfied verdict;
    return the planted failures they missed (empty when both are caught)."""
    missed = []
    # x^2 + 3x + 2 = (x + 1)(x + 2); (x + 1)(x + 3) is a wrong witness
    if check_witness(NAT, (2, 3, 1), (1, 1), (3, 1)) is None:
        missed.append("wrong witness accepted")
    # Z/4: x + 2 meets the criterion for {0, 2} yet equals (2x + 1)(2x^2 + x + 2)
    z4 = table_carrier(
        "z4", ("0", "1", "2", "3"),
        [[(a + b) % 4 for b in range(4)] for a in range(4)],
        [[(a * b) % 4 for b in range(4)] for a in range(4)],
    )
    f = parse_poly(z4, "x + 2")
    if expected_verdict(SetSpec(z4, {0, 2}), f) != ("satisfied", None):
        missed.append("criterion reference disagrees on the planted case")
    reason = check_satisfied_search(
        z4, f, True, parse_poly(z4, "2*x + 1"), parse_poly(z4, "2*x^2 + x + 2"),
        entire=is_entire(z4),
    )
    if reason is None:
        missed.append("refuted Satisfied verdict accepted")
    return missed
