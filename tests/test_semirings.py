import itertools
import math
import random
import time
import timeit

import pytest

from eisenring import (
    INFINITY,
    CapabilityFlags,
    FiniteSemiring,
    Polynomial,
    PrincipalIdeal,
    builtin_semiring,
    check_corollary,
    classify_element,
    enumerate_ideals,
    enumerate_semirings,
    from_table,
    ideal_closure,
    principal_ideal,
    semidomain_check,
)
from eisenring.errors import (
    FactoringLimitError,
    LiteralError,
    OrderTooLargeError,
    UnknownSemiringError,
)
from eisenring.semirings import (
    _finite_flags,
    _is_prime_int,
    _smallest_factor_pair,
    _table_descriptor,
)

from conftest import chain_lattice, sample_values, table_fact_inputs

# the law and divisibility checks sample the naturals <= 64
SAMPLE_BOUND = 64


class TestBuiltins:
    def test_bool_descriptor(self, boolean):
        assert boolean.format_value(boolean.zero_value) == "0"
        assert boolean.format_value(boolean.one_value) == "1"
        assert boolean.flags.is_finite

    def test_tropical_identities(self, tropical):
        assert tropical.zero_value == INFINITY
        assert tropical.one_value == 0

    def test_gcd_nat_flags(self, gcdnat):
        assert gcdnat.flags.all_ideals_subtractive
        assert gcdnat.flags.is_factorial
        assert gcdnat.flags.is_weak_gaussian

    def test_nat_flags(self, nat):
        assert nat.flags.is_semidomain
        assert nat.flags.is_entire
        assert nat.flags.is_factorial
        assert not nat.flags.is_weak_gaussian
        assert not nat.flags.all_ideals_subtractive
        assert nat.flag_notes["is_weak_gaussian"]

    def test_unknown_name(self):
        with pytest.raises(UnknownSemiringError):
            builtin_semiring("integers")

    def test_builtins_are_cached(self):
        assert builtin_semiring("nat") is builtin_semiring("nat")


class TestArithmetic:
    def test_bool_idempotent_or(self, boolean):
        assert boolean.add_values(1, 1) == 1

    def test_tropical_min_plus(self, tropical):
        assert tropical.mul_values(2, 3) == 5
        assert tropical.add_values(2, 3) == 2

    def test_gcd_nat_ops(self, gcdnat):
        assert gcdnat.add_values(6, 10) == 2
        assert gcdnat.mul_values(6, 10) == 60

    def test_value_validation(self, nat, tropical, boolean):
        with pytest.raises(LiteralError):
            nat.check_value(-1)
        with pytest.raises(LiteralError):
            nat.check_value(INFINITY)
        assert tropical.check_value(INFINITY) == INFINITY
        with pytest.raises(LiteralError):
            boolean.check_value(2)

    def test_value_ops_agree_with_dispatch(self):
        # every pair of every order-2..4 table, and seeded infinite-carrier
        # values with the identities, inf and a value past 64 bits
        rng = random.Random(17)
        cases = []
        for order in (2, 3, 4):
            for fs in enumerate_semirings(order):
                S = from_table(fs)
                cases.append((S, list(itertools.product(range(order), repeat=2))))
        for name in ("nat", "gcd-nat", "tropical-min"):
            S = builtin_semiring(name)
            pool = [0, 1, 2**70 + 3] + [rng.randrange(0, 1000) for _ in range(30)]
            if name == "tropical-min":
                pool.append(INFINITY)
            cases.append((S, list(itertools.product(pool, repeat=2))))
        for S, pairs in cases:
            add, mul = S.value_ops()
            for x, y in pairs:
                got = add(x, y), mul(x, y)
                want = S.add_values(x, y), S.mul_values(x, y)
                assert [(type(v), v) for v in got] == [(type(v), v) for v in want], (S.name, x, y)


class TestLaws:
    @pytest.mark.parametrize("name", ["nat", "bool", "tropical-min", "gcd-nat"])
    def test_semiring_laws_on_samples(self, name):
        S = builtin_semiring(name)
        vals = sample_values(S, SAMPLE_BOUND)
        zero, one = S.zero_value, S.one_value
        add, mul = S.add_values, S.mul_values
        for a in vals:
            assert add(a, zero) == a
            assert mul(a, one) == a
            assert mul(a, zero) == zero
            for b in vals:
                assert add(a, b) == add(b, a)
                assert mul(a, b) == mul(b, a)
        # associativity and distributivity on a thinner triple grid
        triple = vals[::2] + [vals[-1]]
        for a in triple:
            for b in triple:
                for c in triple:
                    assert add(add(a, b), c) == add(a, add(b, c))
                    assert mul(mul(a, b), c) == mul(a, mul(b, c))
                    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


class TestDivides:
    def test_nat(self, nat):
        assert nat.divides_values(3, 12)
        assert not nat.divides_values(5, 12)
        assert nat.divides_values(0, 0)
        assert not nat.divides_values(0, 3)

    def test_tropical(self, tropical):
        assert tropical.divides_values(1, 3)
        assert tropical.divides_values(2, INFINITY)
        assert not tropical.divides_values(INFINITY, 2)
        assert tropical.divides_values(INFINITY, INFINITY)

    def test_bool_absorbing(self, boolean):
        assert boolean.divides_values(1, 0)

    @pytest.mark.parametrize("name", ["nat", "bool", "tropical-min", "gcd-nat"])
    def test_transitivity(self, name):
        S = builtin_semiring(name)
        vals = sample_values(S, SAMPLE_BOUND)
        for a, b, c in itertools.product(vals, repeat=3):
            if S.divides_values(a, b) and S.divides_values(b, c):
                assert S.divides_values(a, c)


def definitional_classification(S, v, values):
    """(is_unit, is_irreducible, is_prime_element) of v from the
    definitions, with every quantifier ranging over ``values``."""
    mul, divides = S.mul_values, S.divides_values
    is_unit = any(mul(s, v) == S.one_value for s in values)
    unit = {s for s in values if any(mul(t, s) == S.one_value for t in values)}
    irreducible = v != S.zero_value and not is_unit and not any(
        mul(s1, s2) == v for s1 in values if s1 not in unit for s2 in values if s2 not in unit
    )
    proper = not divides(v, S.one_value)
    prime = v != S.one_value and proper and all(
        divides(v, x) or divides(v, y)
        for x in values for y in values if divides(v, mul(x, y))
    )
    return is_unit, irreducible, prime


class TestClassify:
    def test_nat_unit(self, nat):
        cls = classify_element(nat, 1)
        assert cls.is_unit and not cls.is_irreducible and not cls.is_prime_element

    def test_nat_two(self, nat):
        cls = classify_element(nat, 2)
        assert cls.is_irreducible and cls.is_prime_element

    def test_gcd_six_reducible(self, gcdnat):
        cls = classify_element(gcdnat, 6)
        assert not cls.is_irreducible
        assert cls.factorization_witness == ("2", "3")
        s1, s2 = (int(w) for w in cls.factorization_witness)
        assert s1 * s2 == 6

    def test_nat_zero_is_prime_element(self, nat):
        cls = classify_element(nat, 0)
        assert cls.is_zero and cls.is_prime_element and not cls.is_irreducible

    def test_tropical_one(self, tropical):
        cls = classify_element(tropical, 1)
        assert cls.is_irreducible and cls.is_prime_element
        # the proofs argue from the min-plus product a + b, not from min(a, b)
        assert all("a + b" in note for note in cls.notes) and len(cls.notes) == 2

    def test_tropical_composite(self, tropical):
        cls = classify_element(tropical, 5)
        assert not cls.is_prime_element
        assert cls.nonprime_witness == ("4", "4")
        assert cls.factorization_witness == ("1", "4")

    def test_tropical_matches_brute_force(self, tropical):
        # the closed forms against the definitions over 0..40 and inf; a
        # value v <= 20 has all its factor pairs and prime witnesses there
        values = list(range(41)) + [INFINITY]
        for v in list(range(21)) + [INFINITY]:
            cls = classify_element(tropical, v)
            want = definitional_classification(tropical, v, values)
            assert (cls.is_unit, cls.is_irreducible, cls.is_prime_element) == want, v
            if cls.factorization_witness:
                s1, s2 = (tropical.parse_literal(t) for t in cls.factorization_witness)
                assert s1 + s2 == v and 0 not in (s1, s2)
            if cls.nonprime_witness:
                x, y = (tropical.parse_literal(t) for t in cls.nonprime_witness)
                assert x + y >= v > max(x, y)

    def test_finite_two_in_n3(self, n3):
        cls = classify_element(n3, 2)
        assert not cls.is_irreducible  # 2 = 2*2 with 2 a non-unit
        assert cls.is_prime_element  # (2) = {0, 2} is a prime ideal

    def test_finite_matches_definitions(self):
        for order in (2, 3, 4):
            for fs in enumerate_semirings(order):
                S = from_table(fs)
                values = range(order)
                for v in values:
                    cls = classify_element(S, v)
                    want = definitional_classification(S, v, values)
                    got = (cls.is_unit, cls.is_irreducible, cls.is_prime_element)
                    assert got == want, (fs.digest(), v)

    @pytest.mark.parametrize(
        "name,p", [("nat", 2), ("nat", 3), ("tropical-min", 1), ("gcd-nat", 5)]
    )
    def test_prime_elements_behave_primely(self, name, p):
        # p | xy must force p | x or p | y on sampled pairs
        S = builtin_semiring(name)
        assert classify_element(S, p).is_prime_element
        vals = sample_values(S, SAMPLE_BOUND)
        for x, y in itertools.product(vals, repeat=2):
            if S.divides_values(p, S.mul_values(x, y)):
                assert S.divides_values(p, x) or S.divides_values(p, y)


def _trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestPrimality:
    def test_matches_trial_division(self):
        for n in range(200_000):
            assert _is_prime_int(n) == _trial_division_prime(n), n

    @pytest.mark.parametrize("n,factor", [
        (3215031751, 151),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, 149491),  # strong pseudoprime to bases 2..23
    ])
    def test_strong_pseudoprimes_are_composite(self, nat, n, factor):
        assert not _is_prime_int(n)
        cls = classify_element(nat, n)
        assert not cls.is_irreducible and not cls.is_prime_element
        assert cls.factorization_witness == (str(factor), str(n // factor))

    def test_large_primes(self, nat, gcdnat):
        for p in (2**31 - 1, 2**61 - 1, 10**18 + 3):
            assert _is_prime_int(p)
        # a product of two large primes, which trial division would not
        # split in reasonable time
        assert not _is_prime_int((2**31 - 1) * (10**9 + 7))
        for S in (nat, gcdnat):
            cls = classify_element(S, 2**61 - 1)
            assert cls.is_irreducible and cls.is_prime_element
            assert cls.factorization_witness is None

    def test_smallest_factor_pair_matches_trial_division(self):
        # products of primes past the trial-division range, which rho splits
        rng = random.Random(89)
        primes = [p for p in range(1000, 60_000) if _trial_division_prime(p)]
        for _ in range(300):
            factors = sorted(rng.sample(primes, rng.choice((2, 2, 3))))
            if rng.random() < 0.2:
                factors.insert(0, factors[0])  # a square of the least factor
            n = math.prod(factors)
            assert _smallest_factor_pair(n) == (factors[0], n // factors[0]), factors
        for p in primes[:30]:  # rho walks mod p^k: prime powers must still split
            assert _smallest_factor_pair(p * p) == (p, p)
            assert _smallest_factor_pair(p**3) == (p, p * p)
        for n in range(2, 5000):
            d = next((d for d in range(2, n) if n % d == 0), None)
            assert _smallest_factor_pair(n) == (None if d is None else (d, n // d)), n

    def test_large_semiprime_splits_promptly(self):
        t0 = time.perf_counter()
        n = (2**31 - 1) * (10**9 + 7)
        assert _smallest_factor_pair(n) == (10**9 + 7, 2**31 - 1)
        # past the exact Miller-Rabin bound a base still proves compositeness
        big = (2**61 - 1) * (2**31 - 1) * (10**9 + 7)
        assert not _is_prime_int(big)
        assert _smallest_factor_pair(big) == (10**9 + 7, big // (10**9 + 7))
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("n", [
        2**89 - 1,  # a prime past the bound where Miller-Rabin is proven exact
        35184372088891 * 70368744177679,  # two 45-bit primes: past the rho budget
    ])
    def test_undecidable_inputs_raise_promptly(self, n):
        t0 = time.perf_counter()
        with pytest.raises(FactoringLimitError):
            _smallest_factor_pair(n)
        assert time.perf_counter() - t0 < 1.0

    def test_mersenne_classification_is_fast(self, nat):
        # Miller-Rabin, not trial division up to 2^30.5
        runs = timeit.repeat(lambda: classify_element(nat, 2**61 - 1), number=1, repeat=3)
        assert min(runs) < 0.01


class TestCheckValues:
    CASES = [
        ("nat", (3, True, 0)),
        ("nat", (1, -1, 2)),
        ("nat", (2, -1, INFINITY)),  # the first bad value raises
        ("nat", (1, INFINITY)),
        ("nat", (1, 2.0)),
        ("tropical-min", (0, INFINITY, 5)),
        ("tropical-min", (INFINITY, -1)),
        ("gcd-nat", (4, 6)),
        ("bool", (1, 2)),  # a finite index equal to the order
        ("bool", (0, True)),
        ("bool", ()),
    ]

    @pytest.mark.parametrize("name,seq", CASES)
    def test_equals_check_value_per_element(self, name, seq):
        S = builtin_semiring(name)
        try:
            want = [S.check_value(v) for v in seq]
        except LiteralError as exc:
            with pytest.raises(LiteralError) as caught:
                S.check_values(seq)
            assert str(caught.value) == str(exc)
        else:
            got = S.check_values(seq)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]


class TestSemidomain:
    def test_nat(self, nat):
        verdict = semidomain_check(nat)
        assert verdict.holds and verdict.counterexample is None
        assert verdict.note == nat.flag_notes["is_semidomain"]

    def test_bool(self, boolean):
        verdict = semidomain_check(boolean)
        assert verdict.holds and verdict.counterexample is None

    def test_n3_counterexample(self, n3):
        verdict = semidomain_check(n3)
        assert not verdict.holds
        assert verdict.counterexample == ("2", "1", "2")
        a, b, c = verdict.counterexample
        av, bv, cv = (n3.parse_literal(t) for t in (a, b, c))
        assert av != n3.zero_value and bv != cv
        assert n3.mul_values(av, bv) == n3.mul_values(av, cv)

    @pytest.mark.parametrize("name", ["nat", "tropical-min", "gcd-nat"])
    def test_declared_flag_survives_scan(self, name):
        # a bounded cancellation scan as a cross-check of the declared flag
        S = builtin_semiring(name)
        vals = sample_values(S, 16)
        cancels = all(
            S.mul_values(a, b) != S.mul_values(a, c)
            for a in vals if a != S.zero_value
            for b in vals for c in vals if b != c
        )
        assert cancels == S.flags.is_semidomain == semidomain_check(S).holds

    def test_finite_matches_definition(self):
        for order in (2, 3, 4):
            for fs in enumerate_semirings(order):
                S = from_table(fs)
                verdict = semidomain_check(S)
                mul = fs.mul_table
                cancels = all(
                    mul[a][b] != mul[a][c]
                    for a in range(1, order) for b in range(order) for c in range(order)
                    if b != c
                )
                assert verdict.holds == S.flags.is_semidomain == cancels, fs.digest()
                assert (verdict.counterexample is None) == verdict.holds


def definitional_flags(fs):
    """Reference for ``semirings._finite_flags``: the flags and the ideals
    straight from the definitions, one element tuple at a time, with s*a
    read as ``mul[s][a]`` as the table scans read it."""
    n, add, mul = fs.order, fs.add_table, fs.mul_table
    z, o = fs.zero_index, fs.one_index
    rng = range(n)

    def is_ideal(s):
        return (z in s and all(add[a][b] in s for a in s for b in s)
                and all(mul[t][a] in s for t in rng for a in s))

    def is_prime(s):
        return all(mul[a][b] not in s for a in rng for b in rng if a not in s and b not in s)

    def is_subtractive(s):
        return all(b in s for a in s for b in rng if add[a][b] in s)

    subsets = {frozenset(c) | {z} for k in range(n + 1) for c in itertools.combinations(rng, k)}
    ideals = [s for s in subsets if is_ideal(s)]
    units = {a for a in rng if any(mul[s][a] == o for s in rng)}
    nonunits = {a for a in rng if a != z and a not in units}
    irreducibles = {
        a for a in nonunits
        if not any(mul[s][t] == a for s in rng for t in rng if s not in units and t not in units)
    }
    prime_elements = set()
    for p in rng:
        principal = {mul[s][p] for s in rng}
        if p != o and len(principal) < n and is_prime(principal):
            prime_elements.add(p)
    products = set(irreducibles)  # every product of irreducibles, left to right
    while True:
        more = {mul[a][i] for a in products for i in irreducibles} - products
        if not more:
            break
        products |= more
    semidomain = all(
        mul[a][b] != mul[a][c] for a in rng if a != z for b in rng for c in rng if b != c
    )
    flags = CapabilityFlags(
        is_finite=True,
        is_semidomain=semidomain,
        is_entire=all(mul[a][b] != z for a in rng for b in rng if a != z and b != z),
        all_ideals_subtractive=all(is_subtractive(s) for s in ideals),
        is_factorial=semidomain and irreducibles <= prime_elements and nonunits <= products,
        is_weak_gaussian=all(
            is_subtractive(s) for s in ideals if len(s) < n and is_prime(s)
        ),
    )
    return flags, tuple(sorted((tuple(sorted(s)) for s in ideals), key=lambda t: (len(t), t)))


class TestFiniteFlags:
    def test_match_definitions(self):
        for fs in table_fact_inputs():
            assert _finite_flags(fs) == definitional_flags(fs), fs

    def test_descriptor_keeps_the_ideals(self):
        for order in (2, 3, 4):
            for fs in enumerate_semirings(order):
                S = from_table(fs)
                assert S.ideal_sets == tuple(enumerate_ideals(fs))
                # the hunt's path for enumerator tables skips only the axiom check
                T = _table_descriptor(fs)
                assert T == S and T.flags == S.flags and T.ideal_sets == S.ideal_sets

    def test_over_cap_order_refused_before_axiom_scan(self):
        chain = chain_lattice(200)
        t0 = time.perf_counter()
        with pytest.raises(OrderTooLargeError):
            from_table(chain)
        assert time.perf_counter() - t0 < 0.1
        # the order is checked first, so it also wins over a failing axiom
        broken = FiniteSemiring(
            chain.order, chain.element_names, chain.add_table,
            ((1,) + chain.mul_table[0][1:], *chain.mul_table[1:]),
        )
        with pytest.raises(OrderTooLargeError):
            from_table(broken)

    def test_semidomain_implies_entire(self):
        for order in (2, 3):
            for fs in enumerate_semirings(order):
                flags = from_table(fs).flags
                if flags.is_semidomain:
                    assert flags.is_entire

    def test_n3_flags(self, n3):
        assert not n3.flags.is_semidomain
        assert n3.flags.is_entire
        assert not n3.flags.is_weak_gaussian  # {0,2} is prime, not subtractive

    def test_mod3_is_field_like(self):
        from eisenring import mod3_table

        flags = from_table(mod3_table()).flags
        assert flags.is_semidomain and flags.is_factorial and flags.is_weak_gaussian


# Every public entry point that takes a raw carrier value checks it with
# check_value.  ideal_closure refuses an infinite carrier before it looks
# at a value, so it is exercised on the finite table only.
INPUT_EDGES = {
    "Polynomial": lambda S, v: Polynomial(S, (S.one_value, v)),
    "Polynomial.eval": lambda S, v: Polynomial(S, (S.one_value,)).eval(v),
    "principal_ideal": principal_ideal,
    "PrincipalIdeal": PrincipalIdeal,
    "ideal_closure": lambda S, v: ideal_closure(S, [v]),
    "Ideal.contains": lambda S, v: principal_ideal(S, S.one_value).contains(v),
    "classify_element": classify_element,
    "check_corollary": lambda S, v: check_corollary(Polynomial(S, (1, 1)), v),
}
BAD_VALUES = {"nat-neg": ("nat", -1), "nat-inf": ("nat", INFINITY),
              "tropical-neg": ("tropical-min", -1), "bool-order": ("bool", 2)}


@pytest.mark.parametrize("edge,bad", [
    (edge, bad) for edge in INPUT_EDGES for bad in BAD_VALUES
    if edge != "ideal_closure" or bad == "bool-order"
])
def test_input_edge_rejects_value_outside_carrier(edge, bad):
    name, value = BAD_VALUES[bad]
    with pytest.raises(LiteralError):
        INPUT_EDGES[edge](builtin_semiring(name), value)
