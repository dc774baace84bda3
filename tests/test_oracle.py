import itertools
import math
import random

import pytest

from eisenring import (
    INFINITY,
    FiniteSetIdeal,
    Polynomial,
    boolean_table,
    builtin_semiring,
    enumerate_ideals,
    enumerate_semirings,
    from_table,
    hunt_subtractivity,
    mod2_table,
    mod3_table,
    n3_saturating_table,
    search_factorizations,
    verify_theorem,
)
from eisenring.errors import (
    BudgetError,
    BudgetExceededError,
    CoefficientBoundError,
    DegreeTooLargeError,
    DegreeTooSmallError,
    OrderTooLargeError,
    WindowOutOfRangeError,
)
from eisenring import oracle, proof_trace
from eisenring.eisenstein import first_failing_condition
from eisenring.oracle import (
    KIND_CRITERION_COUNTEREXAMPLE,
    KIND_NON_SUBTRACTIVE_PRIME,
    KIND_TRACE_NEAR_MISS,
    MAX_DEGREE_WINDOW,
    NEAR_MISS_CAP,
    Finding,
)

Z4_DIGEST = "7e43d690036d"  # the integers mod 4 among the order-4 semirings


def z4():
    return next(from_table(fs) for fs in enumerate_semirings(4) if fs.digest() == Z4_DIGEST)


def naive_nat_search(coeffs, cap):
    """Independent reference search over the naturals: explicit nested loops
    over both factor tuples with coefficients <= cap, checking the raw
    convolution equations directly.  Existence only; mirrored splits are
    equivalent by commutativity."""
    n = len(coeffs) - 1
    if n == 2:
        a0, a1, a2 = coeffs
        for b1 in range(1, cap + 1):
            for c1 in range(1, cap + 1):
                if b1 * c1 != a2:
                    continue
                for b0 in range(cap + 1):
                    for c0 in range(cap + 1):
                        if b0 * c0 != a0:
                            continue
                        if b0 * c1 + b1 * c0 == a1:
                            return (b0, b1), (c0, c1)
        return None
    if n == 3:
        a0, a1, a2, a3 = coeffs
        for b1 in range(1, cap + 1):
            for c2 in range(1, cap + 1):
                if b1 * c2 != a3:
                    continue
                for b0 in range(cap + 1):
                    for c0 in range(cap + 1):
                        if b0 * c0 != a0:
                            continue
                        for c1 in range(cap + 1):
                            if b0 * c2 + b1 * c1 == a2 and b0 * c1 + b1 * c0 == a1:
                                return (b0, b1), (c0, c1, c2)
        return None
    raise NotImplementedError(n)


def naive_tropical_search(coeffs, cap):
    """Independent reference search over min-plus degree-2 polynomials:
    nested loops over both linear factors, finite leading coefficients and
    other coefficients in 0..cap or inf, checking the raw min-plus
    convolution equations.  Existence only."""
    a0, a1, a2 = coeffs
    values = list(range(cap + 1)) + [INFINITY]
    for b1 in range(cap + 1):
        for c1 in range(cap + 1):
            if b1 + c1 != a2:
                continue
            for b0 in values:
                for c0 in values:
                    if b0 + c0 == a0 and min(b0 + c1, b1 + c0) == a1:
                        return (b0, b1), (c0, c1)
    return None


def full_allocation_nat_cofactor(a, n, r, b):
    """Reference for ``oracle._nat_cofactor``: the same equations in the
    same order, with h's coefficient list allocated in full before the
    first one is checked."""
    s = n - r
    br = b[r]
    q, rem = divmod(a[n], br)
    if rem:
        return None
    c = [0] * (s + 1)
    c[s] = q
    for k in range(n - 1, r - 1, -1):
        j0 = k - r
        acc = 0
        for j in range(j0 + 1, min(s, k) + 1):
            acc += b[k - j] * c[j]
        d = a[k] - acc
        if d < 0:
            return None
        q, rem = divmod(d, br)
        if rem:
            return None
        c[j0] = q
    for k in range(r - 1, -1, -1):
        acc = 0
        for j in range(0, min(s, k) + 1):
            acc += b[k - j] * c[j]
        if acc != a[k]:
            return None
    return [[v] for v in c]


EXHAUSTED = object()  # a position's iterator ran out


def lazy_product(*seqs):
    """``itertools.product(*seqs)`` in the same order without copying its
    inputs into tuples first, which a huge nat ``range`` of middles cannot
    survive: an odometer of one iterator per position, the last turning
    fastest."""
    walks = [iter(seq) for seq in seqs]
    try:
        current = [next(walk) for walk in walks]
    except StopIteration:
        return
    while True:
        yield tuple(current)
        i = len(seqs) - 1
        while True:
            if i < 0:
                return
            v = next(walks[i], EXHAUSTED)
            if v is not EXHAUSTED:
                current[i] = v
                break
            walks[i] = iter(seqs[i])
            current[i] = next(walks[i])
            i -= 1


def full_nat_walk(a, r, cap, consts, leads):
    """Reference for ``oracle._nat_g_walk``: every g tuple over ``consts``,
    range(cap + 1) for each middle and ``leads``, in the same order, none
    ruled out by the convolution bounds."""
    return lazy_product(consts, *[range(cap + 1)] * (r - 1), leads)


def full_finite_g_walk(S, r, a0, a_top, h_positions):
    """Reference for ``oracle._finite_g_walk``: every g tuple over the
    finite positions, in the same order, none ruled out."""
    return itertools.product(*oracle._finite_positions(S, r))


def polynomial_product_driver(f, pairs, pair_space, limit):
    """Reference for ``oracle._first_factorization``: the same candidates,
    order and node rule, but every full h tuple is expanded with
    ``itertools.product``, one node each (a g ruled out with None is one
    node), built as Polynomial objects and accepted only when g * h == f."""
    S = f.semiring
    nodes = 0
    for r, s in pairs:
        g_tuples, h_lists = pair_space(r, s)
        for g_tup in g_tuples:
            lists = h_lists(g_tup)
            for h_tup in [None] if lists is None else itertools.product(*lists):
                nodes += 1
                if nodes > limit:
                    return None, nodes
                if h_tup is None:
                    continue
                g, h = Polynomial(S, g_tup), Polynomial(S, h_tup)
                if g * h == f:
                    return (g, h), nodes
    return None, nodes


def finite_search_polynomials():
    """Every polynomial of degree 1..3 over every semiring of order <= 3,
    and over every semiring of order 4 a seeded sample of four of degree
    1..2: all of those would cost the Polynomial-product reference about
    20 s."""
    rng = random.Random(16)
    for order in (2, 3, 4):
        for fs in enumerate_semirings(order):
            S = from_table(fs)
            polys = [
                Polynomial(S, tup)
                for d in ((1, 2) if order == 4 else (1, 2, 3))
                for tup in itertools.product(range(order), repeat=d + 1)
                if tup[-1] != 0
            ]
            yield from (polys if order < 4 else rng.sample(polys, 4))


def canonical_tuples(S, max_degree):
    """Every canonical coefficient tuple of degree 1..max_degree over a
    finite carrier, degree by degree, each in lexicographic order."""
    k = S.table.order
    for d in range(1, max_degree + 1):
        for tup in itertools.product(range(k), repeat=d + 1):
            if tup[-1] != S.zero_value:
                yield tup


def scan_every_tuple_verify(S, max_degree, window):
    """Reference for ``verify_theorem``: the ideals from ``enumerate_ideals``,
    and every canonical tuple tested with ``first_failing_condition``."""
    ideals = [FiniteSetIdeal(S, subset) for subset in enumerate_ideals(S.table)]
    sub_primes = [i for i in ideals if i.predicates().all_hold]
    tuples = list(canonical_tuples(S, max_degree))
    applicable, witnesses = 0, []
    for ideal in sub_primes:
        for tup in tuples:
            if first_failing_condition(
                tup, ideal.contains_value, ideal.square().contains_value
            )[0] is not None:
                continue
            applicable += 1
            f = Polynomial(S, tup)
            outcome = search_factorizations(f, window=window, node_budget=None)
            if outcome.found:
                witnesses.append({
                    "polynomial": f.format(), "ideal": ideal.describe(),
                    "g": outcome.g.format(), "h": outcome.h.format(),
                })
    return {
        "semiring_id": S.table.digest(),
        "order": S.table.order,
        "max_degree": max_degree,
        "window": window,
        "ideals_found": len(ideals),
        "subtractive_primes": len(sub_primes),
        "subtractive_prime_sets": [i.describe() for i in sub_primes],
        "polynomials_scanned": len(tuples),
        "criterion_applicable": applicable,
        "violations": len(witnesses),
        "violation_witnesses": witnesses,
    }


def scan_every_tuple_counterexamples(S, ideal, max_degree, spend, findings, base):
    """Reference for ``oracle._hunt_counterexamples``: one unit of budget
    per canonical tuple, spent before the tuple is tested with
    ``first_failing_condition``."""
    for tup in canonical_tuples(S, max_degree):
        spend()
        if first_failing_condition(
            tup, ideal.contains_value, ideal.square().contains_value
        )[0] is not None:
            continue
        f = Polynomial(S, tup)
        outcome = search_factorizations(f, node_budget=None)
        if outcome.found:
            findings.append(
                Finding(
                    **{**base, "kind": KIND_CRITERION_COUNTEREXAMPLE},
                    detail={"polynomial": f.format(), "g": outcome.g.format(),
                            "h": outcome.h.format()},
                )
            )


def trace_every_pair_near_misses(S, ideal, max_degree, spend, findings, base):
    """Reference for ``oracle._hunt_near_misses``: the same pairs, order,
    spending and cap, but every pair with roles and an m is traced in full
    and kept when the report's a_m lies in the ideal."""
    recorded = 0
    members = ideal.elements
    top = min(2, max_degree)
    for dg in range(1, top + 1):
        for dh in range(1, top + 1):
            for g_tup in itertools.product(*oracle._finite_positions(S, dg)):
                for h_tup in itertools.product(*oracle._finite_positions(S, dh)):
                    spend()
                    # both constants in P leave no roles; a c wholly in P has no m
                    g0_in = g_tup[0] in members
                    if g0_in and h_tup[0] in members:
                        continue
                    if all(v in members for v in (g_tup if g0_in else h_tup)):
                        continue
                    g, h = Polynomial(S, g_tup), Polynomial(S, h_tup)
                    trace = proof_trace(g, h, ideal)
                    if not trace.a_m_in_ideal:
                        continue
                    findings.append(
                        Finding(
                            **{**base, "kind": KIND_TRACE_NEAR_MISS},
                            detail={
                                "g": g.format(),
                                "h": h.format(),
                                "m": trace.m,
                                "a_m": trace.a_m,
                                "nonmember_terms": list(trace.nonmember_terms),
                            },
                        )
                    )
                    recorded += 1
                    if recorded >= NEAR_MISS_CAP:
                        return


def non_subtractive_primes(orders):
    """``(fs, S, ideal)`` for every prime, not subtractive ideal of every
    enumerated semiring of the given orders: the ideals the hunt scans."""
    for order in orders:
        for fs in enumerate_semirings(order):
            S = from_table(fs)
            for subset in S.ideal_sets:
                ideal = FiniteSetIdeal(S, subset)
                preds = ideal.predicates()
                if preds.prime.holds and not preds.subtractive.holds:
                    yield fs, S, ideal


def record_scan(scan, S, ideal, max_degree, budget=None):
    """Run one of the hunt's scans on its own: its finding dicts, the units
    spent by the time each was recorded, every charge in order, and
    whether ``budget`` ran out."""
    spent, marks, charges = [0], [], []

    def spend(k=1):
        charges.append(k)
        spent[0] += k
        if budget is not None and spent[0] > budget:
            raise BudgetExceededError("hunt budget exhausted")

    class Findings(list):
        def append(self, item):
            marks.append(spent[0])
            super().append(item)

    findings = Findings()
    base = {"order": S.table.order, "semiring_id": "", "add_table": (),
            "mul_table": (), "ideal": ideal.describe()}
    try:
        scan(S, ideal, max_degree, spend, findings, base)
        cut = False
    except BudgetExceededError:
        cut = True
    return [f.as_dict() for f in findings], marks, charges, cut


class TestSearchExamples:
    def test_nat_found(self, nat):
        outcome = search_factorizations(Polynomial.parse("x^2 + 3*x + 2", nat))
        assert outcome.found
        assert outcome.g.format() == "x + 1"
        assert outcome.h.format() == "x + 2"

    def test_nat_complete_none(self, nat):
        outcome = search_factorizations(Polynomial.parse("x^2 + 2*x + 2", nat))
        assert not outcome.found and outcome.complete

    def test_bool_idempotent_square(self, boolean):
        outcome = search_factorizations(Polynomial.parse("x^2 + x + 1", boolean))
        assert outcome.found
        assert outcome.g.format() == "x + 1"
        assert outcome.h.format() == "x + 1"

    def test_degree_one_entire(self, nat):
        outcome = search_factorizations(Polynomial.parse("x + 2", nat))
        assert not outcome.found and outcome.complete
        assert outcome.degree_pairs == ()

    def test_degree_zero_rejected(self, nat):
        with pytest.raises(DegreeTooSmallError):
            search_factorizations(Polynomial.parse("4", nat))

    def test_criterion_not_necessary(self, nat):
        # x^2 + 4 has no factorization yet fails condition 3 for (2)
        outcome = search_factorizations(Polynomial.parse("x^2 + 4", nat))
        assert not outcome.found and outcome.complete


class TestFoundInvariant:
    def test_products_reverify(self, nat, tropical, boolean, gcdnat):
        rng = random.Random(13)
        for S in (nat, tropical, boolean, gcdnat):
            if S.flags.is_finite:
                pool = list(range(S.table.order))
            elif S.name == "tropical-min":
                pool = list(range(0, 6)) + [INFINITY]
            else:
                pool = list(range(0, 6))
            nonzero = [v for v in pool if v != S.zero_value]
            for _ in range(40):
                g = Polynomial(S, [rng.choice(pool), rng.choice(nonzero)])
                h = Polynomial(S, [rng.choice(pool), rng.choice(nonzero)])
                f = g * h
                if f.degree is None or f.degree < 2:
                    continue
                outcome = search_factorizations(f)
                if S.name == "gcd-nat" and f.degree > 2:
                    continue  # semi-decision zone
                assert outcome.found, f"{S.name}: {f.format()} = ({g.format()})({h.format()})"
                assert outcome.g * outcome.h == f
                assert outcome.g.degree >= 1 and outcome.h.degree >= 1

    def test_gcd_found(self, gcdnat):
        g = Polynomial(gcdnat, (2, 1))
        h = Polynomial(gcdnat, (1, 6))
        f = g * h
        outcome = search_factorizations(f)
        assert outcome.found and outcome.g * outcome.h == f

    def test_gcd_middles_built_per_coefficient(self):
        # the divisors of a product, built one factor at a time, are the
        # divisors found by trial division of the whole product
        rng = random.Random(11)
        for _ in range(2000):
            values = [rng.choice((1, rng.randrange(1, 40), rng.randrange(1, 1000)))
                      for _ in range(rng.randrange(1, 5))]
            want = oracle._divisors(math.prod(values))
            assert oracle._product_divisors(values) == want


class TestWindow:
    def test_degree_can_collapse_on_zero_divisors(self, nilpotent3):
        S = nilpotent3
        # pick a nilpotent element a (a*a = 0) and square a*x + 1
        a = next(
            v
            for v in range(1, S.table.order)
            if S.mul_values(v, v) == S.zero_value
        )
        g = Polynomial(S, (S.one_value, a))
        f = g * g
        assert f.degree is not None and f.degree < 2
        outcome = search_factorizations(f, window=2)
        assert outcome.found
        assert outcome.g * outcome.h == f
        assert outcome.g.degree >= 1 and outcome.h.degree >= 1

    def test_window_zero_misses_collapse(self, nilpotent3):
        S = nilpotent3
        a = next(
            v for v in range(1, S.table.order) if S.mul_values(v, v) == S.zero_value
        )
        g = Polynomial(S, (S.one_value, a))
        f = g * g
        if f.degree == 1:
            outcome = search_factorizations(f, window=0)
            # pairs r+s in [2, 1] is empty only if window makes totals empty;
            # totals = [max(2, 1)..1+0] = [] so nothing is searched
            assert not outcome.found

    def test_bad_window_rejected(self, nilpotent3, nat):
        # a negative window searched no degree pair yet claimed complete,
        # so verify_theorem certified 0 violations on Z/4
        S = z4()
        for window in (-1, -2, MAX_DEGREE_WINDOW + 1, 10**12):
            with pytest.raises(WindowOutOfRangeError):
                search_factorizations(Polynomial(nilpotent3, (1, 1, 1)), window=window)
            with pytest.raises(WindowOutOfRangeError):
                search_factorizations(Polynomial.parse("x^2 + 3*x + 2", nat), window=window)
            with pytest.raises(WindowOutOfRangeError):
                verify_theorem(S, 3, window=window)
        assert verify_theorem(S, 1, window=MAX_DEGREE_WINDOW).violations > 0


class TestCompleteness:
    def test_nat_degree2_exhaustive_cross_check(self, nat):
        for a0, a1 in itertools.product(range(7), repeat=2):
            for a2 in range(1, 7):
                coeffs = (a0, a1, a2)
                f = Polynomial(nat, coeffs)
                outcome = search_factorizations(f)
                naive = naive_nat_search(coeffs, 36)
                assert outcome.found == (naive is not None), coeffs

    def test_nat_degree3_sampled_cross_check(self, nat):
        rng = random.Random(31)
        for _ in range(60):
            coeffs = (
                rng.randrange(0, 7),
                rng.randrange(0, 7),
                rng.randrange(0, 7),
                rng.randrange(1, 7),
            )
            f = Polynomial(nat, coeffs)
            outcome = search_factorizations(f)
            naive = naive_nat_search(coeffs, 36)
            assert outcome.found == (naive is not None), coeffs

    def test_tropical_degree2_exhaustive_cross_check(self, tropical):
        values = list(range(4)) + [INFINITY]
        for a0, a1 in itertools.product(values, repeat=2):
            for a2 in range(4):
                coeffs = (a0, a1, a2)
                outcome = search_factorizations(Polynomial(tropical, coeffs))
                assert outcome.complete, coeffs
                cap = max(v for v in coeffs if v != INFINITY)
                # a wider cap must find nothing more: larger values act like inf
                for bound in (cap, cap + 2):
                    naive = naive_tropical_search(coeffs, bound)
                    assert outcome.found == (naive is not None), (coeffs, bound)

    def test_custom_coeff_bound_demotes_completeness(self, nat):
        f = Polynomial.parse("x^2 + 5*x + 6", nat)
        outcome = search_factorizations(f, coeff_bound=1)
        assert not outcome.found and not outcome.complete

    def test_huge_nat_middles_stay_lazy(self, nat):
        # the middle coefficients of a degree-(2, 2) split run up to
        # 2^40 + 15; they must be walked, not copied, until the budget ends
        f = Polynomial(nat, [2**40 + 15, 0, 0, 0, 1])
        outcome = search_factorizations(f, node_budget=1000)
        assert not outcome.found and not outcome.complete
        assert outcome.nodes == 1001

    def test_empty_degree_pairs_cost_nothing(self, nat):
        # with coefficients capped at 0 no g exists for any of the 800
        # degree pairs, so none of them may build its leaf table
        f = Polynomial.parse("x^1600 + 1", nat)
        outcome = search_factorizations(f, coeff_bound=0)
        assert not outcome.found
        assert outcome.nodes == 0
        assert outcome.complete is False

    def test_negative_coeff_bound_rejected(self, nat):
        f = Polynomial.parse("x^2 + 2*x + 1", nat)
        with pytest.raises(CoefficientBoundError):
            search_factorizations(f, coeff_bound=-1)

    @pytest.mark.parametrize("seqs", [
        (), ([],), ([1],), ([1, 2, 3],), ([1, 2], []), ([], [1, 2]), ([0], [5], [7]),
        ([1, 2], [3], [4, 5, 6]), (range(3), [9], range(2), [], [1]),
        (range(2), range(3), range(2), [8, 9]),
    ])
    def test_lazy_product_matches_itertools(self, seqs):
        assert list(lazy_product(*seqs)) == list(itertools.product(*seqs))

    def test_nat_cofactor_matches_full_allocation(self):
        # seeded products g*h (the cofactor exists) and perturbed g (it
        # mostly does not), against the reference that allocates h first
        rng = random.Random(41)
        found = 0
        for _ in range(600):
            r, s = rng.randint(1, 5), rng.randint(1, 5)
            g = [rng.randint(0, 4) for _ in range(r)] + [rng.randint(1, 4)]
            h = [rng.randint(0, 4) for _ in range(s)] + [rng.randint(1, 4)]
            a = [0] * (r + s + 1)
            for i, gi in enumerate(g):
                for j, hj in enumerate(h):
                    a[i + j] += gi * hj
            for b in (g, [*g[:-1], g[-1] + 1], [rng.randint(0, 4) for _ in range(r)] + [g[-1]]):
                got = oracle._nat_cofactor(a, r + s, r, b)
                assert got == full_allocation_nat_cofactor(a, r + s, r, b), (a, b)
                found += got is not None
        assert found >= 600

    def test_nat_search_matches_full_allocation(self, nat, monkeypatch):
        rng = random.Random(43)
        cases = [Polynomial(nat, [rng.randint(0, 9) for _ in range(d)] + [rng.randint(1, 9)])
                 for d in (2, 3, 4, 5) for _ in range(10)]
        cases += [f * Polynomial(nat, [rng.randint(0, 3), rng.randint(1, 3)]) for f in cases[:20]]
        runs = [(f, budget) for f in cases for budget in (None, 0, 3, 50)]
        fast = [search_factorizations(f, node_budget=b).as_dict() for f, b in runs]
        monkeypatch.setattr(oracle, "_nat_cofactor", full_allocation_nat_cofactor)
        reference = [search_factorizations(f, node_budget=b).as_dict() for f, b in runs]
        assert fast == reference
        assert any(o["result"] == "found" for o in fast)

    def test_nat_rejected_g_cost_independent_of_degree(self, nat):
        # every g is ruled out, by the convolution bounds or at the first
        # cofactor equation, which must cost the same at degree 100,000 as
        # at degree 2: no work in the length of h
        f = Polynomial.parse("x^100000 + 1", nat)
        outcome = search_factorizations(f, node_budget=20_000)
        assert outcome.nodes == 20_001
        assert outcome.complete is False

    def test_negative_node_budget_rejected(self, nat):
        f = Polynomial.parse("x^2 + 3*x + 2", nat)
        with pytest.raises(BudgetError):
            search_factorizations(f, node_budget=-1)

    def test_node_budget_partial(self, boolean):
        f = Polynomial.parse("x^2 + x + 1", boolean)
        outcome = search_factorizations(f, node_budget=0)
        assert not outcome.found and not outcome.complete
        assert "budget" in outcome.note


class TestDeterminism:
    def test_search_stable(self, nat):
        f = Polynomial.parse("x^4 + 5*x^2 + 4", nat)
        first = search_factorizations(f).as_dict()
        second = search_factorizations(f).as_dict()
        assert first == second

    def test_verify_stable(self):
        a = verify_theorem(n3_saturating_table(), 3).as_dict()
        b = verify_theorem(n3_saturating_table(), 3).as_dict()
        assert a == b


class TestVerifyTheorem:
    def test_n3(self):
        stats = verify_theorem(n3_saturating_table(), 3)
        assert stats.subtractive_prime_sets == ("{0}",)
        assert stats.criterion_applicable == 0
        assert stats.violations == 0
        assert stats.polynomials_scanned == 78
        assert stats.ideals_found == 3

    def test_bool_and_rings(self):
        for table in (boolean_table(), mod2_table(), mod3_table()):
            stats = verify_theorem(table, 3)
            assert stats.criterion_applicable == 0
            assert stats.violations == 0

    def test_order_four_violations_only_without_entireness(self):
        # the criterion's conclusion fails at order 4 only where degrees do
        # not add: every violation lies on a carrier with zero divisors
        violations = {}
        for fs in enumerate_semirings(4):
            S = from_table(fs)
            stats = verify_theorem(S, 3, window=2)
            if S.flags.is_entire:
                assert stats.violations == 0, stats.as_dict()
            elif stats.violations:
                violations[stats.semiring_id] = stats.violations
        assert violations == {
            "86877ad288ac": 14, "f16831ab76b5": 7, "acc3f1ba3c46": 27, Z4_DIGEST: 14,
        }

    def test_applicable_tuples_are_the_accepted_subsequence(self):
        # every ideal, not only subtractive primes: each tuple that meets
        # the three conditions, with its rank in the scan of every tuple
        for order in (2, 3, 4):
            for fs in enumerate_semirings(order):
                S = from_table(fs)
                scan = list(canonical_tuples(S, 3))
                assert oracle._coefficient_tuple_count(S, 3) == len(scan)
                for subset in S.ideal_sets:
                    in_p, in_p_square = FiniteSetIdeal(S, subset).condition_tests()
                    want = [
                        (rank, tup) for rank, tup in enumerate(scan)
                        if first_failing_condition(tup, in_p, in_p_square)[0] is None
                    ]
                    assert list(oracle._applicable_tuples(S, 3, in_p, in_p_square)) == want

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_matches_scan_of_every_tuple(self, order):
        for fs in enumerate_semirings(order):
            S = from_table(fs)
            for max_degree in (1, 2, 3):
                for window in (0, 2):
                    got = verify_theorem(S, max_degree, window=window).as_dict()
                    assert got == scan_every_tuple_verify(S, max_degree, window)

    def test_limits(self):
        from eisenring.tables import FiniteSemiring

        with pytest.raises(DegreeTooLargeError):
            verify_theorem(boolean_table(), 5)
        n = 5
        add = tuple(tuple(min(i + j, n - 1) for j in range(n)) for i in range(n))
        mul = tuple(tuple(min(i * j, n - 1) for j in range(n)) for i in range(n))
        big = FiniteSemiring(n, tuple(map(str, range(n))), add, mul)
        with pytest.raises(OrderTooLargeError):
            verify_theorem(big, 2)


class TestHunt:
    def test_order_two_empty(self):
        report = hunt_subtractivity(2, 3)
        assert report.findings == ()
        assert not report.partial

    def test_order_three_findings(self):
        report = hunt_subtractivity(3, 3)
        assert not report.partial
        n3_id = n3_saturating_table().digest()
        primes = [f for f in report.findings if f.kind == KIND_NON_SUBTRACTIVE_PRIME]
        assert any(f.semiring_id == n3_id and f.ideal == "{0, 2}" for f in primes)
        near = [
            f
            for f in report.findings
            if f.kind == KIND_TRACE_NEAR_MISS and f.semiring_id == n3_id
        ]
        assert near[0].detail["g"] == "x + 1"
        assert near[0].detail["h"] == "x + 2"
        assert near[0].detail["m"] == 1
        assert near[0].detail["a_m"] == "2"
        assert not any(
            f.kind == KIND_CRITERION_COUNTEREXAMPLE for f in report.findings
        )

    def test_budget_zero(self):
        report = hunt_subtractivity(3, 3, budget=0)
        assert report.findings == ()
        assert report.partial

    def test_negative_budget_rejected(self):
        # refused, not reported as a partial hunt that examined nothing
        with pytest.raises(BudgetError):
            hunt_subtractivity(2, 1, budget=-1)

    @pytest.mark.parametrize("args", [
        *((order, degree, budget) for order in (2, 3, 4) for degree in (1, 2, 3)
          for budget in (None, 50, 500, 5000)),
        *((3, 2, k) for k in (0, 1, 5, 17, 200, 1000)),
    ])
    def test_near_miss_filter_matches_reference(self, args, monkeypatch):
        # the counterexample scan's generated tuples and bulk budget charge
        # too, against a scan that spends and tests every tuple
        fast = hunt_subtractivity(*args).as_dict()
        monkeypatch.setattr(oracle, "_hunt_near_misses", trace_every_pair_near_misses)
        monkeypatch.setattr(oracle, "_hunt_counterexamples", scan_every_tuple_counterexamples)
        assert fast == hunt_subtractivity(*args).as_dict()

    @pytest.mark.parametrize("max_degree", [1, 2, 3])
    def test_counterexample_scan_spends_like_every_tuple_scan(self, max_degree):
        # the budget spent by the time each counterexample is recorded, and
        # in all, equals that of a scan spending one unit per canonical
        # tuple, so every hunt budget cuts both scans after the same findings
        checked = 0
        for fs, S, ideal in non_subtractive_primes((3, 4)):
            runs = []
            for scan in (oracle._hunt_counterexamples, scan_every_tuple_counterexamples):
                found, marks, charges, _ = record_scan(scan, S, ideal, max_degree)
                runs.append((found, marks, sum(charges)))
            assert runs[0] == runs[1], (fs, ideal.describe())
            checked += bool(runs[0][1])
        assert checked or max_degree == 1

    def test_near_miss_bulk_charges_every_budget_to_order_three(self, monkeypatch):
        budget = 0
        while True:
            fast = hunt_subtractivity(3, 3, budget).as_dict()
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_hunt_near_misses", trace_every_pair_near_misses)
                assert fast == hunt_subtractivity(3, 3, budget).as_dict(), budget
            if not fast["partial"]:
                break
            budget += 1
        assert budget > 100

    @pytest.mark.parametrize("max_degree", [1, 2])
    def test_near_miss_bulk_charges_at_run_edges_order_four(self, max_degree):
        # every budget at each edge +-1 of a run charged in one step, plus a
        # seeded sample.  The reference spends one unit before each pair, so
        # a budget keeps exactly the findings recorded within it and runs
        # out when the full spend exceeds it: one reference run gives its
        # result at every budget.
        rng = random.Random(28)
        runs = 0
        for fs, S, ideal in non_subtractive_primes((4,)):
            want, marks, charges, _ = record_scan(trace_every_pair_near_misses, S, ideal, max_degree)
            total = sum(charges)
            _, _, fast_charges, _ = record_scan(oracle._hunt_near_misses, S, ideal, max_degree)
            assert sum(fast_charges) == total
            edges = set()
            for start, k in zip(itertools.accumulate([0, *fast_charges]), fast_charges):
                if k > 1:
                    edges.update((start, start + k))
                    runs += 1
            budgets = {e + d for e in edges for d in (-1, 0, 1) if e + d >= 0}
            budgets.update(rng.sample(range(total + 2), 10))
            for budget in sorted(budgets):
                found, _, _, cut = record_scan(
                    oracle._hunt_near_misses, S, ideal, max_degree, budget
                )
                kept = [f for f, mark in zip(want, marks) if mark <= budget]
                assert (found, cut) == (kept, budget < total), (fs, ideal.describe(), budget)
        assert runs

    def test_order_four_counterexamples_reverify(self):
        # at order 4 the hunt finds polynomials meeting all three conditions
        # against a prime-but-not-subtractive ideal that nonetheless factor;
        # re-check every reported witness end to end
        from eisenring import FiniteSemiring, Polynomial, from_table
        from eisenring.eisenstein import first_failing_condition
        from eisenring.ideals import FiniteSetIdeal

        report = hunt_subtractivity(4, 3, budget=2_000_000)
        assert not report.partial
        counterexamples = report.counterexamples()
        assert counterexamples  # subtractivity is a load-bearing hypothesis
        # ...and on entire carriers, where the subtractive criterion holds,
        # so it is the missing subtractivity, not zero divisors, that fails
        assert len(counterexamples) == 13
        assert len({f.semiring_id for f in counterexamples}) == 4
        for finding in counterexamples:
            fs = FiniteSemiring(
                finding.order,
                tuple(str(i) for i in range(finding.order)),
                tuple(tuple(r) for r in finding.add_table),
                tuple(tuple(r) for r in finding.mul_table),
            )
            S = from_table(fs)
            members = {
                S.parse_literal(tok)
                for tok in finding.ideal.strip("{}").split(", ")
            }
            ideal = FiniteSetIdeal(S, members)
            preds = ideal.predicates()
            assert preds.proper.holds and preds.prime.holds
            assert not preds.subtractive.holds
            f = Polynomial.parse(finding.detail["polynomial"], S)
            failing, _ = first_failing_condition(
                f.coeffs, ideal.contains_value, ideal.square().contains_value
            )
            assert failing is None  # all three conditions hold
            assert S.flags.is_entire
            g = Polynomial.parse(finding.detail["g"], S)
            h = Polynomial.parse(finding.detail["h"], S)
            assert g.degree >= 1 and h.degree >= 1
            assert g * h == f


class TestRawProductCheck:
    """The driver's raw-tuple product check against the Polynomial-product
    reference: identical outcomes, witnesses and node counts included."""

    @staticmethod
    def cases():
        for f in finite_search_polynomials():
            for window in (0, 2):
                yield f, {"window": window, "node_budget": None}
        rng = random.Random(7)
        nat, tropical = builtin_semiring("nat"), builtin_semiring("tropical-min")
        tropical_values = list(range(6)) + [INFINITY]
        for _ in range(40):
            d = rng.randint(2, 4)
            f = Polynomial(nat, [rng.randint(0, 9) for _ in range(d)] + [rng.randint(1, 9)])
            g = Polynomial(nat, [rng.randint(0, 3), rng.randint(1, 3)])
            t = Polynomial(
                tropical, [rng.choice(tropical_values) for _ in range(d)] + [rng.randint(0, 5)]
            )
            for poly in (f, f * g, t):
                yield poly, {}
                yield poly, {"node_budget": 7}

    def test_matches_polynomial_product_reference(self, monkeypatch):
        cases = list(self.cases())
        fast = [search_factorizations(f, **kw).as_dict() for f, kw in cases]
        monkeypatch.setattr(oracle, "_first_factorization", polynomial_product_driver)
        monkeypatch.setattr(oracle, "_nat_g_walk", full_nat_walk)
        monkeypatch.setattr(oracle, "_finite_g_walk", full_finite_g_walk)
        reference = [search_factorizations(f, **kw).as_dict() for f, kw in cases]
        assert fast == reference
        assert sum(o["result"] == "found" for o in fast) > len(fast) // 10

    def test_budget_sweep_matches_reference(
        self, monkeypatch, nilpotent3, tropical, gcdnat, nat
    ):
        # every cut-off from 0 to one past the nodes a full search spends:
        # a pruned h prefix must be charged every h candidate beneath it,
        # and a run of nat g tuples cut by the bounds every g in it
        cases = [
            Polynomial(nilpotent3, (1, 1, 1)),
            Polynomial(nilpotent3, (1, 2)),
            Polynomial(z4(), (2, 1)),  # x + 2 = (2*x + 1)(2*x^2 + x + 2)
            Polynomial(tropical, (0, 1, 2)),
            Polynomial(tropical, (2, 4, 2, 1)),
            Polynomial(gcdnat, (2, 13, 6)),
            Polynomial(gcdnat, (4, 2, 6, 3)),
            Polynomial(nat, (2, 3, 1)),  # (x + 1)(x + 2)
            Polynomial(nat, (3, 1, 2, 1, 3)),
            # degree 6: at b_0 = 1, c_0 = 2 caps a cubic g's middles b_1 at
            # 1 and b_2 at 0, which cuts whole sub-blocks beneath b_1
            Polynomial(nat, (2, 2, 1, 3, 1, 3, 2)),
            Polynomial(nat, (4, 4, 5, 6, 3, 2, 1)),  # (x^3 + x^2 + x + 2)^2
            Polynomial(nat, (0, 2, 1, 3, 1)),  # a_0 = 0: the plain walk
        ]
        cases = [(f, oracle.DEFAULT_DEGREE_WINDOW) for f in cases]
        # a seeded sample of finite searches small enough to sweep: the
        # table walk charges a found h by its rank and a dead constant term
        # by its whole run of g tuples
        finite = [(f, w) for f in finite_search_polynomials() for w in (0, 2)]
        sample = random.Random(61).sample(finite, 80)
        cases += [
            (f, w) for f, w in sample
            if 0 < search_factorizations(f, window=w, node_budget=None).nodes <= 150
        ][:16]
        runs = []
        for f, w in cases:
            nodes = search_factorizations(f, window=w, node_budget=None).nodes
            runs += [(f, w, budget) for budget in (None, *range(nodes + 2))]
        fast = [search_factorizations(f, window=w, node_budget=b).as_dict() for f, w, b in runs]
        monkeypatch.setattr(oracle, "_first_factorization", polynomial_product_driver)
        monkeypatch.setattr(oracle, "_nat_g_walk", full_nat_walk)
        monkeypatch.setattr(oracle, "_finite_g_walk", full_finite_g_walk)
        reference = [
            search_factorizations(f, window=w, node_budget=b).as_dict() for f, w, b in runs
        ]
        assert fast == reference
        assert {o["result"] for o in fast} == {"found", "none-within-bounds"}

    def test_nat_bounds_match_full_walk(self, nat, monkeypatch):
        # seeded random polynomials and products of degree 1..7 under
        # assorted budgets and coefficient bounds, against the walk over
        # every g tuple
        rng = random.Random(47)
        runs = []
        for _ in range(2000):
            d = rng.randint(1, 7)
            if rng.random() < 0.5:
                top = rng.choice((3, 5, 9))
                coeffs = [rng.randint(0, top) for _ in range(d)] + [rng.randint(1, top)]
                if rng.random() < 0.2:
                    coeffs[0] = 0
                f = Polynomial(nat, coeffs)
            else:
                r = rng.randint(1, max(1, d - 1))
                g = Polynomial(nat, [rng.randint(0, 3) for _ in range(r)] + [rng.randint(1, 3)])
                h = Polynomial(
                    nat, [rng.randint(0, 3) for _ in range(max(1, d - r))] + [rng.randint(1, 3)]
                )
                f = g * h
            budget = rng.choice((None, 0, 1, 3, 50, 300, 2000))
            runs.append((f, budget, rng.choice((None, None, 0, 1, 2, 4, 7))))
        fast = [
            search_factorizations(f, coeff_bound=c, node_budget=b).as_dict() for f, b, c in runs
        ]
        monkeypatch.setattr(oracle, "_nat_g_walk", full_nat_walk)
        reference = [
            search_factorizations(f, coeff_bound=c, node_budget=b).as_dict() for f, b, c in runs
        ]
        assert fast == reference
        results = {(o["result"], o["complete"]) for o in fast}
        assert results == {(r, c) for r in ("found", "none-within-bounds") for c in (True, False)}
