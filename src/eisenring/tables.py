"""Finite commutative semirings presented by Cayley tables.

A finite semiring of order n is a pair of n-by-n operation tables over
element indices 0..n-1.  By convention (and by the table file format)
index 0 is the additive identity, which must absorb under multiplication,
and index 1 is the multiplicative identity.  This module parses and
serializes the table file format, verifies the eight semiring axioms by
exhaustive scan, decides the element and ideal facts the criterion rests
on (units, factor pairs, principal ideals, cancellation, prime and
subtractive ideals) with one scan each, enumerates ideals by subset scan,
and enumerates all commutative semirings of order at most 5 up to
isomorphism: the addition and multiplication monoids are each built once
by backtracking over table cells, then paired, tested for distributivity
and deduplicated.

Table file format (line oriented, whitespace separated, '#' comments):

    order <n>
    elements <name_0> ... <name_{n-1}>     # name_0 is zero, name_1 is one
    add
    <n rows of n names>                    # row i, column j = i + j
    mul
    <n rows of n names>                    # row i, column j = i * j

The names of elements are restricted to [A-Za-z0-9_]+ and may not be
'x' or 'inf', which are reserved by the polynomial expression grammar.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    MissingSectionError,
    OrderTooLargeError,
    OrderTooSmallError,
    TableShapeError,
    TableSyntaxError,
)

MAX_IDEAL_ORDER = 10  # enumerate_ideals scans 2^(n-1) subsets
MAX_ENUMERATION_ORDER = 5

AXIOM_NAMES = (
    "add-commutative",
    "add-associative",
    "add-identity",
    "mul-commutative",
    "mul-associative",
    "mul-identity",
    "distributive",
    "zero-absorbing",
)

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_RESERVED_NAMES = frozenset({"x", "inf"})


@dataclass(frozen=True)
class FiniteSemiring:
    """An order-n operation table pair, structurally validated but with the
    semiring axioms not necessarily checked (run :func:`check_axioms`)."""

    order: int
    element_names: tuple[str, ...]
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]
    zero_index: int = 0
    one_index: int = 1

    def __post_init__(self):
        n = self.order
        if n < 2:
            raise TableShapeError(f"order must be at least 2, got {n}")
        if len(self.element_names) != n:
            raise TableShapeError(
                f"expected {n} element names, got {len(self.element_names)}"
            )
        if len(set(self.element_names)) != n:
            raise TableShapeError("element names must be distinct")
        for label, table in (("add", self.add_table), ("mul", self.mul_table)):
            if len(table) != n:
                raise TableShapeError(f"{label} table must have {n} rows")
            for row in table:
                if len(row) != n:
                    raise TableShapeError(
                        f"{label} table row has {len(row)} entries, expected {n}"
                    )
                for v in row:
                    if not 0 <= v < n:
                        raise TableShapeError(f"{label} table entry {v} out of range")
        if not (0 <= self.zero_index < n and 0 <= self.one_index < n):
            raise TableShapeError("identity indices out of range")
        if self.zero_index == self.one_index:
            raise TableShapeError("zero and one must be distinct elements")

    def digest(self) -> str:
        """Short content id over the literal tables, stable across runs."""
        blob = repr((self.order, self.add_table, self.mul_table)).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class AxiomResult:
    name: str
    holds: bool
    counterexample: tuple[int, ...] | None


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts; a failing axiom carries element indices that can
    be re-checked directly against the tables."""

    semiring: FiniteSemiring
    results: tuple[AxiomResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.holds for r in self.results)

    def failures(self) -> tuple[AxiomResult, ...]:
        return tuple(r for r in self.results if not r.holds)

    def result(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def as_dict(self) -> dict:
        names = self.semiring.element_names
        axioms = {}
        for r in self.results:
            cx = None if r.counterexample is None else [names[i] for i in r.counterexample]
            axioms[r.name] = {"holds": r.holds, "counterexample": cx}
        return {"order": self.semiring.order, "all_pass": self.all_pass, "axioms": axioms}


def check_axioms(fs: FiniteSemiring) -> AxiomReport:
    """Verify all eight axioms by exhaustive scan (O(n^3) triples).

    Identity, distributivity and absorption are checked on both sides so
    the per-axiom verdicts stay truthful even on tables whose
    commutativity is already broken.  Each scan loops over table rows
    and stops at its counterexample, the first element tuple in
    lexicographic order (pairs a < b for commutativity) that breaks the
    axiom.
    """
    n = fs.order
    add, mul = fs.add_table, fs.mul_table
    z, o = fs.zero_index, fs.one_index
    results = (
        AxiomResult("add-commutative", *_commutes(add, n)),
        AxiomResult("add-associative", *_associates(add, n)),
        AxiomResult("add-identity", *_identity(add, z, n)),
        AxiomResult("mul-commutative", *_commutes(mul, n)),
        AxiomResult("mul-associative", *_associates(mul, n)),
        AxiomResult("mul-identity", *_identity(mul, o, n)),
        AxiomResult("distributive", *_distributes(add, mul, n)),
        AxiomResult("zero-absorbing", *_absorbs(mul, z, n)),
    )
    return AxiomReport(fs, results)


# Each scan returns (holds, counterexample or None).

def _commutes(table, n):
    for a in range(n):
        row_a = table[a]
        for b in range(a + 1, n):
            if row_a[b] != table[b][a]:
                return False, (a, b)
    return True, None


def _associates(table, n):
    rng = range(n)
    for a in rng:
        row_a = table[a]
        for b in rng:
            row_ab, row_b = table[row_a[b]], table[b]
            for c in rng:
                if row_ab[c] != row_a[row_b[c]]:
                    return False, (a, b, c)
    return True, None


def _identity(table, e, n):
    row_e = table[e]
    for a in range(n):
        if table[a][e] != a or row_e[a] != a:
            return False, (a,)
    return True, None


def _distributes(add, mul, n):
    """a(b + c) = ab + ac and (b + c)a = ba + ca."""
    rng = range(n)
    for a in rng:
        mul_a = mul[a]
        for b in rng:
            add_b, add_ab, add_ba = add[b], add[mul_a[b]], add[mul[b][a]]
            for c in rng:
                bc = add_b[c]
                if mul_a[bc] != add_ab[mul_a[c]] or mul[bc][a] != add_ba[mul[c][a]]:
                    return False, (a, b, c)
    return True, None


def _absorbs(mul, z, n):
    row_z = mul[z]
    for s in range(n):
        if mul[s][z] != z or row_z[s] != z:
            return False, (s,)
    return True, None


# ---------------------------------------------------------------------------
# ideals as index subsets


def subset_is_ideal(fs: FiniteSemiring, subset) -> bool:
    """Definitional check: contains zero, closed under + and under
    multiplication by every carrier element."""
    s = frozenset(subset)
    if fs.zero_index not in s:
        return False
    add, mul = fs.add_table, fs.mul_table
    for a in s:
        for b in s:
            if add[a][b] not in s:
                return False
        for t in range(fs.order):
            if mul[t][a] not in s:
                return False
    return True


def subtractive_violation(fs: FiniteSemiring, subset):
    """First (a, b) with a + b in I and a in I but b not in I, else None."""
    s = frozenset(subset)
    add = fs.add_table
    for a in sorted(s):
        for b in range(fs.order):
            if b not in s and add[a][b] in s:
                return (a, b)
    return None


def prime_violation(fs: FiniteSemiring, subset):
    """First (a, b) with a*b in I but neither factor in I, else None.

    Properness is not checked here; callers decide how an improper ideal
    should be reported.
    """
    s = frozenset(subset)
    mul = fs.mul_table
    outside = [a for a in range(fs.order) if a not in s]
    for a in outside:
        for b in outside:
            if mul[a][b] in s:
                return (a, b)
    return None


def units(fs: FiniteSemiring) -> frozenset:
    """The elements a with s*a = 1 for some s."""
    o = fs.one_index
    return frozenset(a for a in range(fs.order) if any(row[a] == o for row in fs.mul_table))


def factor_pair(fs: FiniteSemiring, v, unit: frozenset):
    """First (s1, s2) in row-major order with s1*s2 = v and neither factor
    in ``unit``, the set ``units(fs)``, else None.  A nonzero non-unit
    without one is irreducible."""
    rng = range(fs.order)
    mul = fs.mul_table
    return next(
        (
            (s1, s2)
            for s1 in rng
            if s1 not in unit
            for s2 in rng
            if s2 not in unit and mul[s1][s2] == v
        ),
        None,
    )


def multiples(fs: FiniteSemiring, p) -> frozenset:
    """The principal ideal (p) = {s*p}.  It is an ideal without a closure
    step when fs satisfies the axioms: s*p + t*p = (s + t)*p and
    u*(s*p) = (u*s)*p."""
    return frozenset(row[p] for row in fs.mul_table)


def cancellation_violation(fs: FiniteSemiring):
    """First (a, b, c) with a != 0, b < c and ab = ac, else None.  Rows a
    are scanned in order and, within a row, c before b, so the triple is
    the first repeated product of the first row that has one: the first
    row with fewer than n distinct products."""
    n = fs.order
    rng = range(n)
    mul, z = fs.mul_table, fs.zero_index
    a = next((a for a in rng if a != z and len(set(mul[a])) < n), None)
    if a is None:
        return None
    row = mul[a]
    return next((a, b, c) for c in rng for b in range(c) if row[b] == row[c])


def enumerate_ideals(fs: FiniteSemiring):
    """All ideals of fs, found by scanning the 2^(n-1) subsets containing
    zero.  Output is canonical: sorted index tuples, ordered by size then
    lexicographically.  Includes the improper ideal (the whole carrier).
    Orders above MAX_IDEAL_ORDER are refused."""
    if fs.order > MAX_IDEAL_ORDER:
        raise OrderTooLargeError(
            f"ideal enumeration supports order <= {MAX_IDEAL_ORDER}, got {fs.order}"
        )
    z = fs.zero_index
    others = [i for i in range(fs.order) if i != z]
    found = []
    for k in range(len(others) + 1):
        for extra in itertools.combinations(others, k):
            subset = frozenset((z, *extra))
            if subset_is_ideal(fs, subset):
                found.append(tuple(sorted(subset)))
    found.sort(key=lambda t: (len(t), t))
    return found


# ---------------------------------------------------------------------------
# file format

def parse_semiring_file(text) -> FiniteSemiring:
    """Parse the table file format.  The result is structurally valid but the
    axioms are NOT yet verified; run :func:`check_axioms` before use."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body.split()))
    pos = 0

    def take(section: str):
        nonlocal pos
        if pos >= len(lines):
            raise MissingSectionError(f"missing {section!r} section")
        lineno, tokens = lines[pos]
        pos += 1
        return lineno, tokens

    lineno, tokens = take("order")
    if tokens[0] != "order" or len(tokens) != 2:
        raise TableSyntaxError("expected 'order <n>'", line=lineno)
    try:
        order = int(tokens[1])
    except ValueError:
        raise TableSyntaxError(f"order is not an integer: {tokens[1]!r}", line=lineno) from None
    if order < 2:
        raise TableShapeError(f"order must be at least 2, got {order}", line=lineno)

    lineno, tokens = take("elements")
    if tokens[0] != "elements":
        raise TableSyntaxError("expected 'elements <names...>'", line=lineno)
    names = tuple(tokens[1:])
    if len(names) != order:
        raise TableShapeError(
            f"expected {order} element names, got {len(names)}", line=lineno
        )
    for name in names:
        if not _NAME_RE.match(name):
            raise TableSyntaxError(f"invalid element name {name!r}", line=lineno)
        if name in _RESERVED_NAMES:
            raise TableSyntaxError(
                f"element name {name!r} is reserved by the polynomial grammar",
                line=lineno,
            )
    if len(set(names)) != order:
        raise TableShapeError("element names must be distinct", line=lineno)
    index = {name: i for i, name in enumerate(names)}

    def read_table(section: str):
        lineno, tokens = take(section)
        if tokens != [section]:
            raise MissingSectionError(f"expected {section!r} section header", line=lineno)
        rows = []
        for _ in range(order):
            lineno, tokens = take(f"{section} row")
            if len(tokens) != order:
                raise TableShapeError(
                    f"{section} row has {len(tokens)} entries, expected {order}",
                    line=lineno,
                )
            row = []
            for tok in tokens:
                if tok not in index:
                    raise TableShapeError(f"unknown element name {tok!r}", line=lineno)
                row.append(index[tok])
            rows.append(tuple(row))
        return tuple(rows)

    add_table = read_table("add")
    mul_table = read_table("mul")
    if pos != len(lines):
        lineno, _ = lines[pos]
        raise TableSyntaxError("unexpected trailing content", line=lineno)
    return FiniteSemiring(order, names, add_table, mul_table)


def format_semiring_file(fs: FiniteSemiring) -> str:
    """Serialize to the table file format; parse(format(fs)) == fs."""
    names = fs.element_names
    out = [f"order {fs.order}", "elements " + " ".join(names)]
    for label, table in (("add", fs.add_table), ("mul", fs.mul_table)):
        out.append(label)
        for row in table:
            out.append(" ".join(names[v] for v in row))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# reference tables

def boolean_table() -> FiniteSemiring:
    """({0,1}, OR, AND)."""
    return FiniteSemiring(
        2, ("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1))
    )


def mod2_table() -> FiniteSemiring:
    """The ring Z/2 viewed as a semiring."""
    return FiniteSemiring(
        2, ("0", "1"), ((0, 1), (1, 0)), ((0, 0), (0, 1))
    )


def mod3_table() -> FiniteSemiring:
    """The ring Z/3 viewed as a semiring."""
    return FiniteSemiring(
        3,
        ("0", "1", "2"),
        ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
        ((0, 0, 0), (0, 1, 2), (0, 2, 1)),
    )


def n3_saturating_table() -> FiniteSemiring:
    """{0,1,2} with addition and multiplication capped at 2.  Its ideal
    {0,2} is prime but not subtractive."""
    return FiniteSemiring(
        3,
        ("0", "1", "2"),
        ((0, 1, 2), (1, 2, 2), (2, 2, 2)),
        ((0, 0, 0), (0, 1, 2), (0, 2, 2)),
    )


# ---------------------------------------------------------------------------
# enumeration of small commutative semirings

def canonical_form(fs: FiniteSemiring):
    """Lexicographically minimal (add, mul) table pair over carrier
    permutations fixing zero and one.  Two tables are isomorphic iff their
    canonical forms coincide: any isomorphism preserves the identities, and
    here both identities sit at fixed indices."""
    n = fs.order
    best = None
    for tail in itertools.permutations(range(2, n)):
        perm = (0, 1, *tail)
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        key = (
            tuple(tuple(perm[fs.add_table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)),
            tuple(tuple(perm[fs.mul_table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)),
        )
        if best is None or key < best:
            best = key
    return best


def _commutative_monoids(n: int, identity: int, absorbing: int | None = None):
    """Yield every associative symmetric table on {0..n-1} in which
    ``identity`` is the identity and ``absorbing`` (if given) absorbs.

    The free cells are the upper-triangle cells outside the rows of the
    fixed elements.  They are filled depth first in row-major order with
    values in ascending order, so the tables come out in the order
    ``itertools.product`` would list their free values.  A partial table
    is dropped as soon as an associativity triple whose four cells are all
    filled fails; every triple is checked once the last cell is filled.
    """
    table = [[0] * n for _ in range(n)]
    rank = [[-1] * n for _ in range(n)]  # fill step of each cell, -1 if fixed
    for x in range(n):
        table[identity][x] = table[x][identity] = x
        if absorbing is not None:
            table[absorbing][x] = table[x][absorbing] = absorbing
    rest = [x for x in range(n) if x not in (identity, absorbing)]
    free = [(i, j) for i in rest for j in rest if i <= j]
    for k, (i, j) in enumerate(free):
        rank[i][j] = rank[j][i] = k
    # a triple holding a fixed element associates whatever the free cells hold
    triples = [
        [(a, b, c) for a in rest for b in rest for c in rest
         if rank[a][b] <= k and rank[b][c] <= k]
        for k in range(len(free))
    ]
    rng = range(n)

    def fill(k):
        if k == len(free):
            yield tuple(map(tuple, table))
            return
        i, j = free[k]
        row_i, row_j = table[i], table[j]
        for v in rng:
            row_i[j] = row_j[i] = v
            for a, b, c in triples[k]:
                t, u = table[a][b], table[b][c]
                if rank[t][c] <= k and rank[a][u] <= k and table[t][c] != table[a][u]:
                    break
            else:
                yield from fill(k + 1)

    return fill(0)


def _table_distributes(mul, add, n) -> bool:
    """a(b + c) = ab + ac for a commutative addition with identity 0 and a
    commutative multiplication with identity 1 and absorbing 0.  Those
    identities settle every triple with a < 2 or 0 in {b, c}, and
    commutativity of addition settles (c, b) with (b, c)."""
    for a in range(2, n):
        ma = mul[a]
        for b in range(1, n):
            mab, add_b = ma[b], add[b]
            for c in range(b, n):
                if ma[add_b[c]] != add[mab][ma[c]]:
                    return False
    return True


def enumerate_semirings(order: int, budget: int | None = None):
    """Yield every commutative semiring on {0..order-1} with zero at index 0
    and one at index 1, deduplicated up to isomorphism, in a deterministic
    order.

    Identities are unique, so pinning them to indices 0 and 1 loses no
    structures.  The commutative monoids are built once each by
    backtracking: the additive ones with identity 0, the multiplicative
    ones with identity 1 and absorbing 0.  Every (addition, multiplication)
    pair is then tested for distributivity, and the first table of each
    isomorphism class is kept.  Pairs are visited in the lexicographic
    order of their free cells, addition first.

    ``budget`` caps the number of (associative addition, associative
    multiplication) pairs examined; exceeding it raises
    BudgetExceededError, and everything yielded before that is a prefix of
    the full stream.
    """
    if order < 2:
        raise OrderTooSmallError(f"order must be at least 2, got {order}")
    if order > MAX_ENUMERATION_ORDER:
        raise OrderTooLargeError(
            f"semiring enumeration supports order <= {MAX_ENUMERATION_ORDER}, got {order}"
        )
    n = order
    names = tuple(str(i) for i in range(n))
    muls = list(_commutative_monoids(n, identity=1, absorbing=0))
    seen = set()
    nodes = 0

    for add in _commutative_monoids(n, identity=0):
        for mul in muls:
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError(
                    f"semiring enumeration budget {budget} exhausted at order {order}"
                )
            if not _table_distributes(mul, add, n):
                continue
            fs = FiniteSemiring(n, names, add, mul)
            key = canonical_form(fs)
            if key in seen:
                continue
            seen.add(key)
            yield fs
