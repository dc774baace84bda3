"""Independent brute-force verification of the criterion's conclusion.

``search_factorizations`` looks for f = g*h with both factors
non-constant.  Candidate degree pairs are r+s = n on entire carriers; on
carriers with zero divisors leading terms can cancel, so the pair window
widens to r+s in [max(2, n), n+window], with window in
0..MAX_DEGREE_WINDOW.  Mirrored pairs (r > s) are skipped because
multiplication is commutative.

One driver serves every carrier.  Per degree pair it walks g's
coefficient tuples in lexicographic order, constant term first, over
per-position candidate lists; for each g the carrier gives h's
per-position candidate lists, and the driver walks h depth-first, one
position at a time, constant first.  Product coefficient j <= s needs
only g and h_0..h_j, so it is compared with a_j as soon as h_j is fixed
and a mismatch rejects the whole prefix; coefficients s+1..r+s are
compared at the leaf.  The budget counts full h candidates: a leaf costs
one node and a rejected prefix costs the product of the remaining list
lengths, the number of full h candidates beneath it, so the first
witness, ``nodes``, ``complete`` and the budget cut-off are exactly
those of trying every full h tuple in turn.  Candidates are compared as
raw coefficient tuples; only the accepted pair becomes Polynomial
objects.  On a finite table the walk reads the operation tables' rows:
a candidate v at position j is tested as ``add_rows[rest][mul_rows[g_0]
[v]]``.  Every full h candidate costs one node whether a prefix or the
leaf rejects it, so that walk only finds the first h and charges its
rank plus one, or the full h count when there is none, in one step.
Other carriers take their addition and multiplication once per search
from ``SemiringDescriptor.value_ops``.  Only the candidate rules differ:

  finite tables   every element, nonzero leading coefficient, for g and
                  h alike.  A g has no cofactor when no h_0 has b_0*h_0
                  = a_0, or when no h leader has b_r*h_s = a_(r+s); the
                  g walk gives each run of such tuples as its node
                  count, every h candidate of each, at its place in the
                  order, and ``nodes`` takes it in one step.  Complete
                  within the window.
  nat             every convolution term is non-negative, so b_i * c_s
                  <= a_(i+s) and with c_s >= 1 every g coefficient is at
                  most max(f); extreme coefficients must divide a_n and
                  a_0 exactly; h is the unique quotient in integer
                  polynomials, derived top-down.  Middles are walked
                  lazily up to the cap.  With a_0 > 0 the same bounds
                  cut the walk: c_0 = a_0 / b_0 >= 1 caps middle i at
                  a_i // c_0 and the lead at a_r // c_0, and after
                  b_0..b_(r-1) the lead must keep c_s = a_n / b_r <=
                  a_(k+s) // b_k for every b_k > 0, one run of the
                  ascending divisors.  A cut g has no quotient, so
                  ``nodes`` still counts every g tuple up to the cap:
                  the walk reports each cut run as its length, at its
                  place in the order, and the driver charges it in
                  bulk.  Complete.
  tropical-min    b_r + c_s = a_n and b_0 + c_0 = a_0 hold exactly;
                  middle candidates are capped at the largest finite
                  coefficient of f with inf included, since any larger
                  value can only avoid affecting minima the way inf
                  does.  Complete.
  gcd-nat         b_r * c_s = a_n and b_0 * c_0 = a_0 hold exactly, so
                  degree-(1,1) splits are complete.  Longer factors have
                  unbounded middle coefficients (the target is a gcd of
                  terms), so candidates run over divisors of the product
                  of f's nonzero coefficients: a semi-decision,
                  complete=False.

``verify_theorem`` exhausts a finite semiring: every ideal (the list
the descriptor kept from ``from_table``), every subtractive prime, every
polynomial up to a degree cap, and a complete search behind every
Satisfied verdict.  The tuples that meet the three conditions are
generated, not scanned: a_0 in P but not in P^2, a_1..a_(d-1) in P and
the lead outside P.  That product of filtered element lists is exactly
the subsequence of the full scan that ``first_failing_condition``
accepts, in the same order, and ``polynomials_scanned`` is the count of
the full scan in closed form.  ``hunt_subtractivity`` streams
enumerated semirings, built without a second axiom check, looking for
prime-but-not-subtractive ideals, for genuine counterexamples to the
criterion-without-subtractivity, and for proof-trace near misses where
a_m lands in the ideal.  Its counterexample scan takes the same
generated tuples and charges its budget one unit per tuple of the full
scan: in bulk just before each tuple it searches and for the rest at
the end, so any budget runs out after the same findings.  The near-miss
scan applies the trace's role rule, ``trace_roles``, to raw factor
tuples and computes the trace's m, a_m and nonmember terms on the
tuples; only g, h and a_m of a recorded pair are formatted, and no
``proof_trace`` runs.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from .errors import (
    BudgetError,
    BudgetExceededError,
    CoefficientBoundError,
    DegreeTooLargeError,
    DegreeTooSmallError,
    OrderTooLargeError,
    OrderTooSmallError,
    WindowOutOfRangeError,
)
from .eisenstein import trace_roles
from .ideals import FiniteSetIdeal
from .polynomials import Polynomial
from .semirings import (
    INFINITY,
    CarrierKind,
    SemiringDescriptor,
    _table_descriptor,
    from_table,
)
from .tables import enumerate_semirings

DEFAULT_DEGREE_WINDOW = 2
DEFAULT_NODE_BUDGET = 2_000_000
MAX_VERIFY_ORDER = 4
MAX_VERIFY_DEGREE = 4
MAX_DEGREE_WINDOW = 4
NEAR_MISS_CAP = 10

MIRROR_NOTE = "degree pairs with r > s are covered by commutativity"


@dataclass(frozen=True)
class FactorizationOutcome:
    """Either a verified witness pair or a bounded 'none found'."""

    g: Polynomial | None
    h: Polynomial | None
    complete: bool
    degree_pairs: tuple[tuple[int, int], ...]
    coefficient_bound: str
    nodes: int
    note: str = ""

    @property
    def found(self) -> bool:
        return self.g is not None

    def as_dict(self) -> dict:
        return {
            "result": "found" if self.found else "none-within-bounds",
            "g": self.g.format() if self.g is not None else None,
            "h": self.h.format() if self.h is not None else None,
            "complete": self.complete,
            "degree_pairs": [list(p) for p in self.degree_pairs],
            "coefficient_bound": self.coefficient_bound,
            "nodes": self.nodes,
            "note": self.note,
        }


class _CandidateSpace(NamedTuple):
    """``pair(r, s)`` gives g's coefficient tuples in lexicographic
    order, constant first, and a function from a g tuple to h's
    per-position candidate lists, constant first, or None when that g is
    ruled out.  An int among the g tuples stands for a run of g tuples,
    at that place in the order, that are ruled out without a look, and is
    the nodes the run costs: one per g tuple on nat, where a ruled-out g
    costs one node, and every h candidate of each g on a finite table.
    Its h lists are None."""

    pair: Callable
    coefficient_bound: str
    complete: bool
    note: str


def _divisors(v: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(v) + 1) if v % d == 0]
    return sorted({*small, *(v // d for d in small)})


def search_factorizations(
    f: Polynomial,
    window: int = DEFAULT_DEGREE_WINDOW,
    coeff_bound: int | None = None,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> FactorizationOutcome:
    """First factorization of f into two non-constant polynomials in a
    deterministic lexicographic order, else NoneWithinBounds.

    ``window`` must lie in 0..MAX_DEGREE_WINDOW.  ``coeff_bound``, when
    given, must be at least 0; it overrides the derived coefficient cap
    of nat and tropical-min, and a cap below the derived one demotes the
    outcome to complete=False.  Finite tables and gcd-nat have no such
    cap, so a bound there raises CoefficientBoundError rather than being
    ignored.
    ``node_budget``, when given, must be at least 0; it limits candidates
    examined, and running out returns a partial outcome instead of
    raising.
    """
    _check_window(window)
    if node_budget is not None and node_budget < 0:
        raise BudgetError(f"the node budget must be at least 0, got {node_budget}")
    if coeff_bound is not None and coeff_bound < 0:
        raise CoefficientBoundError(
            f"the coefficient bound must be at least 0, got {coeff_bound}"
        )
    S = f.semiring
    if coeff_bound is not None and S.kind not in _CAPPED_KINDS:
        raise CoefficientBoundError(
            f"a coefficient bound applies to nat and tropical-min, not to {S.name}"
        )
    n = f.degree
    if n is None or n < 1:
        raise DegreeTooSmallError("factor search needs a non-constant polynomial")
    entire = S.flags.is_entire
    totals = [n] if entire else range(max(2, n), n + window + 1)
    pairs = tuple((r, t - r) for t in totals for r in range(1, t // 2 + 1))
    if entire and n == 1:
        return FactorizationOutcome(
            None, None, True, (), "none needed", 0,
            "degree 1 over an entire carrier cannot split into two non-constant factors",
        )
    limit = math.inf if node_budget is None else node_budget
    space = _CANDIDATE_SPACES[S.kind](f, pairs, window, coeff_bound)
    found, nodes = _first_factorization(f, pairs, space.pair, limit)
    complete, note = space.complete, space.note + "; " + MIRROR_NOTE
    if nodes > limit:
        complete, note = False, "node budget exhausted; " + note
    g, h = found or (None, None)
    return FactorizationOutcome(g, h, complete, pairs, space.coefficient_bound, nodes, note)


def _check_window(window: int) -> None:
    """A negative window searches no degree pair and would pass off an
    empty search as complete; a huge one builds degree pairs without end."""
    if not 0 <= window <= MAX_DEGREE_WINDOW:
        raise WindowOutOfRangeError(
            f"the degree window must be in 0..{MAX_DEGREE_WINDOW}, got {window}"
        )


def _first_factorization(f: Polynomial, pairs, pair_space, limit):
    """The first (g, h) in candidate order with g*h == f, or None, and the
    nodes spent: one per full h candidate, and ``limit + 1`` when the
    budget runs out.  A g whose h lists are None was ruled out while they
    were derived; it costs one node.  An int k among the g tuples stands
    for a run of g tuples ruled out without a look and costs k nodes.

    h is walked one position at a time, constant first, by
    ``_first_table_cofactor`` on a finite table and ``_first_cofactor``
    elsewhere.  Product coefficient j <= s needs only g and h_0..h_j, so
    it is compared with f as soon as h_j is fixed; a mismatch rejects the
    prefix and the full h candidates beneath it.  Coefficients s+1..r+s
    are compared at the leaf.  Candidate order, nodes and the budget
    cut-off are those of trying every full h tuple in turn; only the
    accepted pair becomes Polynomial objects.

    The carrier's operations are taken once per search.  The padded target
    and the leaf table of a degree pair are built when its first g
    reaches the h walk, so a pair without such a g costs nothing."""
    S = f.semiring
    if S.kind is CarrierKind.FINITE:
        walk, ops = _first_table_cofactor, (S.table.add_table, S.table.mul_table)
    else:
        walk, ops = _first_cofactor, S.value_ops()
    nodes = 0
    for r, s in pairs:
        g_tuples, h_lists = pair_space(r, s)
        top = None
        for g in g_tuples:
            lists = h_lists(g)
            if lists is None:
                nodes += g if type(g) is int else 1
                if nodes > limit:
                    return None, limit + 1
                continue
            if top is None:
                target = f.coeffs + (S.zero_value,) * (r + s - f.degree)
                top = [
                    (target[k], [(i, k - i) for i in range(k - s, r + 1)])
                    for k in range(s + 1, r + s + 1)
                ]
            h, nodes = walk(*ops, g, lists, target, top, nodes, limit)
            if h is not None:
                return (Polynomial(S, g), Polynomial(S, h)), nodes
            if nodes > limit:
                return None, nodes
    return None, nodes


def _first_cofactor(add, mul, g, lists, target, top, nodes, limit):
    """Depth-first walk of h over ``lists`` for one g: the first h with
    g*h equal to ``target``, or None, and the running node count (``limit
    + 1`` once the budget runs out).  ``add`` and ``mul`` are the
    carrier's ``value_ops()``.  At position j the terms of coefficient j
    that use h_0..h_(j-1) are folded once per prefix and g_0*h_j is added
    per candidate; the carrier's addition is associative and commutative,
    so this gives the value Polynomial.__mul__ does.  Leaf coefficients
    fold from the lowest g index up."""
    r, s = len(g) - 1, len(lists) - 1
    below = [1] * (s + 1)  # full h candidates beneath one prefix h_0..h_j
    for j in range(s, 0, -1):
        below[j - 1] = below[j] * len(lists[j])
    g0 = g[0]
    h = [None] * (s + 1)
    rests = [None] * (s + 1)
    walks = [iter(lists[0])] + [None] * s
    j = 0
    while j >= 0:
        want, rest = target[j], rests[j]
        for v in walks[j]:
            acc = mul(g0, v) if rest is None else add(mul(g0, v), rest)
            if acc != want:
                nodes += below[j]
                if nodes > limit:
                    return None, limit + 1
                continue
            h[j] = v
            if j < s:
                j += 1
                rest = None
                for i in range(1, min(j, r) + 1):
                    t = mul(g[i], h[j - i])
                    rest = t if rest is None else add(rest, t)
                rests[j] = rest
                walks[j] = iter(lists[j])
                break
            nodes += 1
            if nodes > limit:
                return None, nodes
            for a_k, ((i, k), *terms) in top:
                acc = mul(g[i], h[k])
                for i, k in terms:
                    acc = add(acc, mul(g[i], h[k]))
                if acc != a_k:
                    break
            else:
                return tuple(h), nodes
        else:
            j -= 1
    return None, nodes


def _first_table_cofactor(add_rows, mul_rows, g, lists, target, top, nodes, limit):
    """``_first_cofactor`` on a finite carrier, with the operation tables'
    rows in place of ``add`` and ``mul``.

    Every full h candidate costs one node whether it is rejected by a
    prefix or at the leaf, so the nodes a walk spends are the rank of the
    first h with g*h = target, plus one, or the count of all h candidates
    when there is none; the budget runs out inside the walk exactly when
    that total passes ``limit``.  So the walk only finds the first h and
    charges its nodes in one step.  At position j it keeps the candidates
    v with ``add_rows[rest][mul_rows[g_0][v]]`` equal to a_j, where rest
    folds the terms that use h_0..h_(j-1)."""
    r, s = len(g) - 1, len(lists) - 1
    g_rows = [mul_rows[b] for b in g]
    g0_row = g_rows[0]
    h = [None] * (s + 1)
    want = target[0]
    fits = [iter([v for v in lists[0] if g0_row[v] == want])] + [None] * s
    j = 0
    while j >= 0:
        for v in fits[j]:
            h[j] = v
            if j < s:
                j += 1
                rest = g_rows[1][h[j - 1]]
                for i in range(2, min(j, r) + 1):
                    rest = add_rows[rest][g_rows[i][h[j - i]]]
                rest_row, want = add_rows[rest], target[j]
                fits[j] = iter([v for v in lists[j] if rest_row[g0_row[v]] == want])
                break
            for a_k, ((i, k), *terms) in top:
                acc = g_rows[i][h[k]]
                for i, k in terms:
                    acc = add_rows[acc][g_rows[i][h[k]]]
                if acc != a_k:
                    break
            else:
                rank = 0
                for v, candidates in zip(h, lists):
                    rank = rank * len(candidates) + candidates.index(v)
                nodes += rank + 1
                return (tuple(h), nodes) if nodes <= limit else (None, limit + 1)
        else:
            j -= 1
    nodes += math.prod(map(len, lists))
    return None, nodes if nodes <= limit else limit + 1


def _finite_positions(S: SemiringDescriptor, d: int) -> list:
    """Coefficient candidates of a degree-d polynomial over a finite
    carrier, constant first: every element, then a nonzero leader."""
    elements = range(S.table.order)
    return [elements] * d + [[v for v in elements if v != S.table.zero_index]]


def _finite_space(f: Polynomial, pairs, window, coeff_bound) -> _CandidateSpace:
    S = f.semiring
    a = f.coeffs

    def pair(r, s):
        h_positions = _finite_positions(S, s)
        a_top = a[r + s] if r + s < len(a) else S.zero_value

        def h_lists(g):  # an int stands for a run of g tuples the walk ruled out
            return None if type(g) is int else h_positions

        return _finite_g_walk(S, r, a[0], a_top, h_positions), h_lists

    note = (
        "all coefficient tuples; degrees add exactly on an entire carrier"
        if S.flags.is_entire
        else f"all coefficient tuples within the degree window (window={window})"
    )
    return _CandidateSpace(pair, "all carrier elements", True, note)


def _finite_g_walk(S: SemiringDescriptor, r, a0, a_top, h_positions):
    """The degree-r g tuples over ``_finite_positions`` in lexicographic
    order, constant first, with every run of tuples that an extreme
    coefficient rules out given as its node count.  A g has no cofactor
    when no h_0 has b_0*h_0 = a_0, or when no leader h_s in
    ``h_positions`` has b_r*h_s = a_top, the target's coefficient r+s;
    the walk would reject each of its h candidates, so it costs their
    number."""
    mul_rows = S.table.mul_table
    h_count = math.prod(map(len, h_positions))
    consts, *middles, leads = _finite_positions(S, r)
    # each live lead as a 1-tuple, each dead one as its nodes
    pattern = [
        (b,) if any(mul_rows[b][v] == a_top for v in h_positions[-1]) else h_count
        for b in leads
    ]
    run = math.prod(map(len, middles)) * len(leads) * h_count  # the g tuples sharing b_0
    for b0 in consts:
        if a0 not in mul_rows[b0]:
            yield run
            continue
        for prefix in itertools.product((b0,), *middles):
            for item in pattern:
                yield item if type(item) is int else prefix + item


def _nat_space(f: Polynomial, pairs, window, coeff_bound) -> _CandidateSpace:
    a = f.coeffs
    n = f.degree
    derived = max(a)
    cap = derived if coeff_bound is None else coeff_bound
    leads = [d for d in _divisors(a[n]) if d <= cap]
    consts = [d for d in _divisors(a[0]) if d <= cap] if a[0] > 0 else range(cap + 1)

    def pair(r, s):
        cofactor = partial(_nat_cofactor, a, n, r)

        def h_lists(g):  # an int stands for a run of g tuples the walk ruled out
            return None if type(g) is int else cofactor(g)

        return _nat_g_walk(a, r, cap, consts, leads), h_lists

    return _CandidateSpace(
        pair,
        f"coefficients <= {cap} (derived cap {derived} = max coefficient)",
        cap >= derived,
        "derived cofactors make the divisor-pruned scan exhaustive",
    )


def _nat_g_walk(a, r, cap, consts, leads):
    """The degree-r g tuples over ``consts``, range(cap + 1) for each
    middle and ``leads``, in lexicographic order, constant first, with
    every run that the convolution bounds rule out given as its length.

    With a_0 > 0, c_0 = a_0 / b_0 >= 1 and every convolution term is
    non-negative, so b_i * c_0 <= a_i: middle i runs only to
    min(cap, a_i // c_0) and the lead to a_r // c_0.  For a full prefix
    b_0..b_(r-1), c_s = a_n / b_r must also satisfy b_k * c_s <= a_(k+s)
    for every b_k > 0, which bounds the lead from below; the allowed leads
    are one run of the ascending ``leads``.  A ruled-out g has no cofactor,
    so charging it in bulk at its place in the order keeps every g at its
    rank in the full walk.  Each prefix gives at least one g tuple or one
    run, so the driver's budget bounds the walk.  With a_0 = 0 nothing is
    ruled out."""
    if not leads:
        return
    n = len(a) - 1
    s = n - r
    below = [len(leads)] * r  # g tuples that share a prefix b_0..b_i
    for i in range(r - 1, 0, -1):
        below[i - 1] = below[i] * (cap + 1)
    for b0 in consts:
        if a[0]:
            c0 = a[0] // b0
            tops = [min(cap, a[i] // c0) for i in range(r)]
            hi = bisect_right(leads, a[r] // c0)
        else:
            tops, hi = [cap] * r, len(leads)
        if hi == 0:
            yield below[0]
            continue
        b = [b0] + [0] * (r - 1)
        while True:
            lo = 0
            if a[0]:
                m = min(a[k + s] // b[k] for k in range(r) if b[k])
                lo = min(bisect_left(leads, -(-a[n] // m)), hi) if m else hi
            if lo:
                yield lo
            prefix = tuple(b)
            for lead in leads[lo:hi]:
                yield (*prefix, lead)
            cut = len(leads) - hi
            i = r - 1
            while i > 0 and b[i] == tops[i]:
                cut += (cap - tops[i]) * below[i]
                b[i] = 0
                i -= 1
            if cut:
                yield cut
            if i == 0:
                break
            b[i] += 1


def _nat_cofactor(a, n, r, b):
    """The unique h with g*h = f over the naturals as one-element
    position lists: solve the convolution top-down (exact division in
    integer polynomials), then verify the remaining equations and
    non-negativity.  A g that fails is ruled out as None.  The solved
    coefficients grow one at a time, so a g rejected after a few
    equations costs only those equations, not a list as long as h."""
    s = n - r
    br = b[r]
    q, rem = divmod(a[n], br)
    if rem:
        return None
    top = [q]  # top[i] is c[s - i]
    for k in range(n - 1, r - 1, -1):
        acc = 0
        for j in range(k - r + 1, min(s, k) + 1):
            acc += b[k - j] * top[s - j]
        d = a[k] - acc
        if d < 0:
            return None
        q, rem = divmod(d, br)
        if rem:
            return None
        top.append(q)
    c = top[::-1]
    for k in range(r - 1, -1, -1):
        acc = 0
        for j in range(0, min(s, k) + 1):
            acc += b[k - j] * c[j]
        if acc != a[k]:
            return None
    return [[v] for v in c]


def _exact_split_pairs(f: Polynomial, middles: list, split) -> Callable:
    """Candidate pairs on carriers where b_r*c_s = a_n and b_0*c_0 = a_0
    hold exactly.  ``split(t)`` lists the (b, c) with b*c = t for a
    nonzero t; a zero a_0 pairs a zero b_0 with every middle candidate
    and any other b_0 with zero.  h's extremes follow from g's."""
    zero = f.semiring.zero_value
    a0 = f.coeffs[0]
    leads = {b: [c] for b, c in split(f.coeffs[-1])}
    if a0 == zero:
        consts = {b: middles if b == zero else [zero] for b in middles}
    else:
        consts = {b: [c] for b, c in split(a0)}

    def pair(r, s):
        h_middles = [middles] * (s - 1)
        return (
            itertools.product(consts, *[middles] * (r - 1), leads),
            lambda g_tup: [consts[g_tup[0]], *h_middles, leads[g_tup[-1]]],
        )

    return pair


def _tropical_space(f: Polynomial, pairs, window, coeff_bound) -> _CandidateSpace:
    derived = max(v for v in f.coeffs if v != INFINITY)  # the leading coefficient is finite
    cap = derived if coeff_bound is None else coeff_bound
    middles = list(range(cap + 1)) + [INFINITY]
    return _CandidateSpace(
        _exact_split_pairs(f, middles, lambda t: [(b, t - b) for b in range(t + 1)]),
        f"finite coefficients <= {cap} plus inf (derived cap {derived})",
        cap >= derived,
        "middle coefficients above the cap behave like inf",
    )


def _product_divisors(values) -> list[int]:
    """The divisors of the product of ``values``, built one value at a
    time: every divisor of a*b is d*e with d | a and e | b.  Trial division
    of the whole product would run to its square root."""
    out = {1}
    for v in values:
        out = {d * e for d in out for e in _divisors(v)}
    return sorted(out)


def _gcd_space(f: Polynomial, pairs, window, coeff_bound) -> _CandidateSpace:
    middles = [0] + _product_divisors(v for v in f.coeffs if v > 0)
    return _CandidateSpace(
        _exact_split_pairs(f, middles, lambda t: [(d, t // d) for d in _divisors(t)]),
        "extreme coefficients over divisor pairs of the extreme target "
        "coefficients; middle coefficients over divisors of the product "
        "of the nonzero target coefficients",
        all(r == 1 and s == 1 for r, s in pairs),
        "divisor-pair splits are exhaustive for degree (1,1); longer "
        "factors have unbounded middles, so this is a semi-decision",
    )


_CAPPED_KINDS = (CarrierKind.NATURALS, CarrierKind.TROPICAL_MIN)  # honour coeff_bound

_CANDIDATE_SPACES = {
    CarrierKind.FINITE: _finite_space,
    CarrierKind.NATURALS: _nat_space,
    CarrierKind.TROPICAL_MIN: _tropical_space,
    CarrierKind.GCD_NATURALS: _gcd_space,
}


# ---------------------------------------------------------------------------
# whole-theorem validation over a finite semiring

@dataclass(frozen=True)
class ViolationWitness:
    polynomial: str
    ideal: str
    g: str
    h: str

    def as_dict(self) -> dict:
        return {"polynomial": self.polynomial, "ideal": self.ideal, "g": self.g, "h": self.h}


@dataclass(frozen=True)
class TheoremStats:
    semiring_id: str
    order: int
    max_degree: int
    window: int
    ideals_found: int
    subtractive_primes: int
    subtractive_prime_sets: tuple[str, ...]
    polynomials_scanned: int
    criterion_applicable: int
    violations: int
    violation_witnesses: tuple[ViolationWitness, ...]

    def as_dict(self) -> dict:
        return {
            "semiring_id": self.semiring_id,
            "order": self.order,
            "max_degree": self.max_degree,
            "window": self.window,
            "ideals_found": self.ideals_found,
            "subtractive_primes": self.subtractive_primes,
            "subtractive_prime_sets": list(self.subtractive_prime_sets),
            "polynomials_scanned": self.polynomials_scanned,
            "criterion_applicable": self.criterion_applicable,
            "violations": self.violations,
            "violation_witnesses": [w.as_dict() for w in self.violation_witnesses],
        }


def _coefficient_tuple_count(S: SemiringDescriptor, max_degree: int) -> int:
    """The number of canonical polynomials of degree 1..max_degree over a
    finite carrier: k^d * (k - 1) of degree d, with k elements."""
    k = S.table.order
    return sum(k**d * (k - 1) for d in range(1, max_degree + 1))


def _applicable_tuples(S: SemiringDescriptor, max_degree: int, in_p, in_p_square):
    """Every coefficient tuple of degree 1..max_degree over a finite
    carrier that meets the three conditions, with its rank among all
    ``_coefficient_tuple_count`` canonical tuples: degree by degree, each
    in lexicographic order over the positions of ``_finite_positions``.

    A tuple meets them exactly when a_0 lies in P but not in P^2, a_1 ..
    a_(d-1) lie in P and the lead lies outside P, so the product of those
    filtered element lists is the subsequence of the full scan that
    ``first_failing_condition`` accepts, in the same order.  P holds zero,
    so every lead outside it is nonzero."""
    elements = range(S.table.order)
    k = len(elements)
    members = [v for v in elements if in_p(v)]
    consts = [v for v in members if not in_p_square(v)]
    leads = [v for v in elements if not in_p(v)]
    lead_rank = {v: i for i, v in enumerate(_finite_positions(S, 0)[-1])}  # among nonzero leads
    offset = 0  # the tuples of lower degree
    for d in range(1, max_degree + 1):
        for tup in itertools.product(consts, *[members] * (d - 1), leads):
            rank = 0
            for v in tup[:-1]:
                rank = rank * k + v
            yield offset + rank * (k - 1) + lead_rank[tup[-1]], tup
        offset += k**d * (k - 1)


def verify_theorem(
    semiring, max_degree: int, window: int = DEFAULT_DEGREE_WINDOW
) -> TheoremStats:
    """Exhaustive validation harness for one finite semiring.

    Every subtractive prime ideal is tried against every polynomial; each
    one meeting the three conditions (a Satisfied verdict) is answered
    with a complete windowed search; any factorization found is a
    violation witness and re-checks end to end.  The expected count is zero; a non-zero count is a finding to
    investigate, not an assertion failure here.
    """
    order = semiring.table.order if isinstance(semiring, SemiringDescriptor) else semiring.order
    if order > MAX_VERIFY_ORDER:
        raise OrderTooLargeError(
            f"verify_theorem supports order <= {MAX_VERIFY_ORDER}, got {order}"
        )
    S = semiring if isinstance(semiring, SemiringDescriptor) else from_table(semiring)
    fs = S.table
    if max_degree > MAX_VERIFY_DEGREE or max_degree < 1:
        raise DegreeTooLargeError(
            f"verify_theorem supports max_degree in 1..{MAX_VERIFY_DEGREE}, got {max_degree}"
        )
    _check_window(window)
    ideals = [FiniteSetIdeal(S, subset) for subset in S.ideal_sets]
    sub_primes = [i for i in ideals if i.predicates().all_hold]
    applicable = 0
    witnesses = []
    for ideal in sub_primes:
        for _, tup in _applicable_tuples(S, max_degree, *ideal.condition_tests()):
            applicable += 1
            f = Polynomial(S, tup)
            outcome = search_factorizations(f, window=window, node_budget=None)
            if outcome.found:
                witnesses.append(
                    ViolationWitness(
                        f.format(), ideal.describe(), outcome.g.format(), outcome.h.format()
                    )
                )
    return TheoremStats(
        semiring_id=fs.digest(),
        order=fs.order,
        max_degree=max_degree,
        window=window,
        ideals_found=len(ideals),
        subtractive_primes=len(sub_primes),
        subtractive_prime_sets=tuple(i.describe() for i in sub_primes),
        polynomials_scanned=_coefficient_tuple_count(S, max_degree),
        criterion_applicable=applicable,
        violations=len(witnesses),
        violation_witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# hunting the necessity of subtractivity

KIND_NON_SUBTRACTIVE_PRIME = "non-subtractive-prime"
KIND_CRITERION_COUNTEREXAMPLE = "criterion-counterexample"
KIND_TRACE_NEAR_MISS = "trace-near-miss"


@dataclass(frozen=True)
class Finding:
    kind: str
    order: int
    semiring_id: str
    add_table: tuple
    mul_table: tuple
    ideal: str
    detail: dict

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "order": self.order,
            "semiring_id": self.semiring_id,
            "add_table": [list(r) for r in self.add_table],
            "mul_table": [list(r) for r in self.mul_table],
            "ideal": self.ideal,
            "detail": dict(self.detail),
        }


@dataclass(frozen=True)
class HuntReport:
    findings: tuple[Finding, ...]
    partial: bool
    orders: tuple[int, ...]
    semirings_examined: int

    def counterexamples(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.kind == KIND_CRITERION_COUNTEREXAMPLE)

    def as_dict(self) -> dict:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "partial": self.partial,
            "orders": list(self.orders),
            "semirings_examined": self.semirings_examined,
        }


def hunt_subtractivity(
    max_order: int, max_degree: int, budget: int | None = None
) -> HuntReport:
    """Probe whether subtractivity is a needed hypothesis.

    For every enumerated semiring up to ``max_order``, every proper prime
    ideal that is NOT subtractive is reported.  Against each such ideal the
    hunt looks for a polynomial meeting all three conditions that still
    factors (a genuine counterexample to the criterion without the
    subtractivity hypothesis) and records proof traces whose a_m lands in
    the ideal (near misses showing where subtractivity would have bitten).
    Nothing found within budget is reported as exactly that: no claim.
    ``budget``, when given, must be at least 0; 0 examines nothing and
    reports a partial hunt.
    """
    if budget is not None and budget < 0:
        raise BudgetError(f"the hunt budget must be at least 0, got {budget}")
    if max_order < 2:
        raise OrderTooSmallError(f"max_order must be at least 2, got {max_order}")
    if max_order > MAX_VERIFY_ORDER:
        raise OrderTooLargeError(
            f"hunt supports max_order <= {MAX_VERIFY_ORDER}, got {max_order}"
        )
    if max_degree < 1 or max_degree > MAX_VERIFY_DEGREE:
        raise DegreeTooLargeError(
            f"hunt supports max_degree in 1..{MAX_VERIFY_DEGREE}, got {max_degree}"
        )
    remaining = [budget]

    def spend(k: int = 1):
        if remaining[0] is None:
            return
        remaining[0] -= k
        if remaining[0] < 0:
            raise BudgetExceededError("hunt budget exhausted")

    findings: list[Finding] = []
    examined = 0
    partial = False
    orders = tuple(range(2, max_order + 1))
    try:
        for order in orders:
            for fs in enumerate_semirings(order):
                spend()
                examined += 1
                S = _table_descriptor(fs)
                for subset in S.ideal_sets:
                    ideal = FiniteSetIdeal(S, subset)
                    preds = ideal.predicates()
                    if not (preds.proper.holds and preds.prime.holds):
                        continue
                    if preds.subtractive.holds:
                        continue
                    base = dict(
                        kind=KIND_NON_SUBTRACTIVE_PRIME,
                        order=order,
                        semiring_id=fs.digest(),
                        add_table=fs.add_table,
                        mul_table=fs.mul_table,
                        ideal=ideal.describe(),
                    )
                    findings.append(
                        Finding(
                            **base,
                            detail={
                                "subtractivity_witness": list(preds.subtractive.witness),
                            },
                        )
                    )
                    _hunt_counterexamples(S, ideal, max_degree, spend, findings, base)
                    _hunt_near_misses(S, ideal, max_degree, spend, findings, base)
    except BudgetExceededError:
        partial = True
    return HuntReport(tuple(findings), partial, orders, examined)


def _hunt_counterexamples(S, ideal, max_degree, spend, findings, base):
    """Search every polynomial that meets the three conditions against the
    ideal.  The budget is charged one unit per canonical tuple, as a scan
    of every tuple would be: the tuples up to each applicable one are
    charged just before it is searched, and the rest at the end."""
    charged = 0
    for rank, tup in _applicable_tuples(S, max_degree, *ideal.condition_tests()):
        spend(rank + 1 - charged)
        charged = rank + 1
        f = Polynomial(S, tup)
        outcome = search_factorizations(f, window=DEFAULT_DEGREE_WINDOW, node_budget=None)
        if outcome.found:
            findings.append(
                Finding(
                    **{**base, "kind": KIND_CRITERION_COUNTEREXAMPLE},
                    detail={
                        "polynomial": f.format(),
                        "g": outcome.g.format(),
                        "h": outcome.h.format(),
                    },
                )
            )
    spend(_coefficient_tuple_count(S, max_degree) - charged)


def _hunt_near_misses(S, ideal, max_degree, spend, findings, base):
    """Record the proof-trace facts of degree <= 2 factor pairs whose a_m
    lies in the ideal: m, a_m and the indices i of the terms b_i*c_(m-i)
    outside it, the trace's ``nonmember_terms``.  The trace's role rule,
    ``trace_roles``, runs on raw tuples, and only g, h and a_m of a
    recorded pair are formatted."""
    recorded = 0
    in_p, _ = ideal.condition_tests()
    add, mul = S.value_ops()
    top = min(2, max_degree)
    for dg in range(1, top + 1):
        for dh in range(1, top + 1):
            for g_tup in itertools.product(*_finite_positions(S, dg)):
                for h_tup in itertools.product(*_finite_positions(S, dh)):
                    spend()
                    roles = trace_roles(g_tup, h_tup, in_p, add, mul)
                    if roles is None:
                        continue
                    b_is_g, m, a_m = roles
                    if m is None or not in_p(a_m):
                        continue
                    b, c = (g_tup, h_tup) if b_is_g else (h_tup, g_tup)
                    findings.append(
                        Finding(
                            **{**base, "kind": KIND_TRACE_NEAR_MISS},
                            detail={
                                "g": Polynomial(S, g_tup).format(),
                                "h": Polynomial(S, h_tup).format(),
                                "m": m,
                                "a_m": S.format_value(a_m),
                                "nonmember_terms": [
                                    i for i in range(min(m, len(b) - 1) + 1)
                                    if not in_p(mul(b[i], c[m - i]))
                                ],
                            },
                        )
                    )
                    recorded += 1
                    if recorded >= NEAR_MISS_CAP:
                        return
