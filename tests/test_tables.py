import itertools

import pytest

from eisenring import (
    boolean_table,
    canonical_form,
    check_axioms,
    enumerate_ideals,
    enumerate_semirings,
    format_semiring_file,
    mod2_table,
    mod3_table,
    n3_saturating_table,
    parse_semiring_file,
)
from eisenring.errors import (
    BudgetExceededError,
    MissingSectionError,
    OrderTooLargeError,
    TableShapeError,
    TableSyntaxError,
)
from eisenring.tables import AXIOM_NAMES, FiniteSemiring, _commutative_monoids

from conftest import table_fact_inputs

N3_TEXT = """\
# saturating semiring
order 3
elements 0 1 2
add
0 1 2
1 2 2
2 2 2
mul
0 0 0
0 1 2
0 2 2
"""


def mutate(fs: FiniteSemiring, which: str, i: int, j: int, v: int) -> FiniteSemiring:
    """Replace one cell (and its mirror, keeping the table commutative)."""
    table = list(list(row) for row in (fs.add_table if which == "add" else fs.mul_table))
    table[i][j] = v
    table[j][i] = v
    table = tuple(tuple(row) for row in table)
    if which == "add":
        return FiniteSemiring(fs.order, fs.element_names, table, fs.mul_table)
    return FiniteSemiring(fs.order, fs.element_names, fs.add_table, table)


def _associates(table, n) -> bool:
    rng = range(n)
    return all(table[table[a][b]][c] == table[a][table[b][c]] for a in rng for b in rng for c in rng)


def _distributes(mul, add, n) -> bool:
    rng = range(n)
    return all(
        mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]] for a in rng for b in rng for c in rng
    )


def product_tables(n: int, identity: int, absorbing=None):
    """Every symmetric table with the given identity (and absorbing element),
    free upper-triangle cells listed by itertools.product in row-major order."""
    rest = [x for x in range(n) if x not in (identity, absorbing)]
    free = [(i, j) for i in rest for j in rest if i <= j]
    for vals in itertools.product(range(n), repeat=len(free)):
        table = [[0] * n for _ in range(n)]
        for x in range(n):
            table[identity][x] = table[x][identity] = x
            if absorbing is not None:
                table[absorbing][x] = table[x][absorbing] = absorbing
        for (i, j), v in zip(free, vals):
            table[i][j] = table[j][i] = v
        yield tuple(tuple(row) for row in table)


def product_loop_reference(order: int):
    """Reference for enumerate_semirings: every pair of candidate tables
    from itertools.product, then associativity, distributivity and the
    canonical-form dedupe, each checked on whole tables."""
    n = order
    names = tuple(str(i) for i in range(n))
    seen = set()
    for add in product_tables(n, identity=0):
        if not _associates(add, n):
            continue
        for mul in product_tables(n, identity=1, absorbing=0):
            if not (_associates(mul, n) and _distributes(mul, add, n)):
                continue
            fs = FiniteSemiring(n, names, add, mul)
            key = canonical_form(fs)
            if key not in seen:
                seen.add(key)
                yield fs


class TestParsing:
    def test_n3_parses_and_passes(self):
        fs = parse_semiring_file(N3_TEXT)
        assert fs.order == 3
        assert fs.zero_index == 0 and fs.one_index == 1
        assert check_axioms(fs).all_pass

    def test_bool_file(self):
        fs = parse_semiring_file(format_semiring_file(boolean_table()))
        assert fs == boolean_table()

    def test_row_too_long(self):
        bad = N3_TEXT.replace("1 2 2\n2 2 2\nmul", "1 2 2 2\n2 2 2\nmul")
        with pytest.raises(TableShapeError):
            parse_semiring_file(bad)

    def test_missing_mul_section(self):
        bad = N3_TEXT.split("mul")[0]
        with pytest.raises(MissingSectionError):
            parse_semiring_file(bad)

    def test_unknown_element_name(self):
        bad = N3_TEXT.replace("0 2 2\n", "0 2 q\n", 1)
        with pytest.raises(TableShapeError):
            parse_semiring_file(bad)

    def test_reserved_name_rejected(self):
        bad = N3_TEXT.replace("elements 0 1 2", "elements 0 1 x")
        with pytest.raises(TableSyntaxError):
            parse_semiring_file(bad)

    def test_bad_order_line(self):
        with pytest.raises(TableSyntaxError):
            parse_semiring_file("order three\nelements a b\n")

    def test_error_carries_line_number(self):
        bad = N3_TEXT.replace("1 2 2\n", "1 2 2 2\n", 1)
        with pytest.raises(TableShapeError) as err:
            parse_semiring_file(bad)
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "table", [boolean_table, mod2_table, mod3_table, n3_saturating_table]
    )
    def test_round_trip(self, table):
        fs = table()
        assert parse_semiring_file(format_semiring_file(fs)) == fs


def scan_axioms(fs):
    """Reference for check_axioms: each axiom's first counterexample, in
    lexicographic order of its element tuple (pairs a < b for
    commutativity), or None, found by testing one tuple at a time."""
    n, add, mul = fs.order, fs.add_table, fs.mul_table
    z, o = fs.zero_index, fs.one_index
    singles = [(a,) for a in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    triples = list(itertools.product(range(n), repeat=3))

    def first(tuples, fails):
        return next((t for t in tuples if fails(*t)), None)

    return {
        "add-commutative": first(pairs, lambda a, b: add[a][b] != add[b][a]),
        "add-associative": first(
            triples, lambda a, b, c: add[add[a][b]][c] != add[a][add[b][c]]),
        "add-identity": first(singles, lambda a: add[a][z] != a or add[z][a] != a),
        "mul-commutative": first(pairs, lambda a, b: mul[a][b] != mul[b][a]),
        "mul-associative": first(
            triples, lambda a, b, c: mul[mul[a][b]][c] != mul[a][mul[b][c]]),
        "mul-identity": first(singles, lambda a: mul[a][o] != a or mul[o][a] != a),
        "distributive": first(
            triples,
            lambda a, b, c: mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]
            or mul[add[b][c]][a] != add[mul[b][a]][mul[c][a]],
        ),
        "zero-absorbing": first(singles, lambda s: mul[s][z] != z or mul[z][s] != z),
    }


class TestAxioms:
    def test_matches_tuple_scan(self):
        checked = failing = 0
        for fs in table_fact_inputs():
            report = check_axioms(fs)
            want = scan_axioms(fs)
            assert [r.name for r in report.results] == list(AXIOM_NAMES)
            got = {r.name: r.counterexample for r in report.results}
            assert got == want, fs
            assert all(r.holds == (r.counterexample is None) for r in report.results)
            checked += 1
            failing += not report.all_pass
        assert checked == 44 + 232 and 0 < failing < checked

    def test_reference_tables_pass(self):
        for fs in (boolean_table(), mod2_table(), mod3_table(), n3_saturating_table()):
            assert check_axioms(fs).all_pass

    def test_absorbing_mutation(self):
        # bool with 1*0 forced to 1
        fs = mutate(boolean_table(), "mul", 1, 0, 1)
        report = check_axioms(fs)
        result = report.result("zero-absorbing")
        assert not result.holds
        assert result.counterexample == (1,)

    def test_add_identity_mutation(self):
        # bool with 0+1 forced to 0
        fs = mutate(boolean_table(), "add", 0, 1, 0)
        report = check_axioms(fs)
        result = report.result("add-identity")
        assert not result.holds
        (a,) = result.counterexample
        assert fs.add_table[a][fs.zero_index] != a

    def test_single_cell_commutativity_break(self):
        add = ((0, 1, 2), (1, 2, 2), (0, 2, 2))  # only add[2][0] changed
        fs = FiniteSemiring(3, ("0", "1", "2"), add, n3_saturating_table().mul_table)
        report = check_axioms(fs)
        assert not report.result("add-commutative").holds


class TestIdealEnumeration:
    def test_bool(self):
        assert enumerate_ideals(boolean_table()) == [(0,), (0, 1)]

    def test_n3(self):
        assert enumerate_ideals(n3_saturating_table()) == [(0,), (0, 2), (0, 1, 2)]

    def test_mod3(self):
        assert enumerate_ideals(mod3_table()) == [(0,), (0, 1, 2)]

    def test_cap(self):
        # the naturals saturating at 10: a semiring of order 11
        rng = range(11)
        add = tuple(tuple(min(a + b, 10) for b in rng) for a in rng)
        mul = tuple(tuple(min(a * b, 10) for b in rng) for a in rng)
        fs = FiniteSemiring(11, tuple(map(str, rng)), add, mul)
        assert check_axioms(fs).all_pass
        with pytest.raises(OrderTooLargeError):
            enumerate_ideals(fs)

    def test_agreement_with_definition(self):
        # definitional closure re-check, written out independently here
        for fs in (boolean_table(), mod3_table(), n3_saturating_table()):
            emitted = set(enumerate_ideals(fs))
            n = fs.order
            for k in range(n + 1):
                for subset in itertools.combinations(range(n), k):
                    s = set(subset)
                    is_ideal = (
                        fs.zero_index in s
                        and all(fs.add_table[a][b] in s for a in s for b in s)
                        and all(fs.mul_table[t][a] in s for a in s for t in range(n))
                    )
                    assert (tuple(sorted(s)) in emitted) == is_ideal


class TestEnumeration:
    def test_order_two_ground_truth(self):
        found = list(enumerate_semirings(2))
        assert len(found) == 2
        assert all(check_axioms(fs).all_pass for fs in found)
        forms = {canonical_form(fs) for fs in found}
        assert forms == {canonical_form(boolean_table()), canonical_form(mod2_table())}

    def test_order_three_contains_references(self):
        forms = [canonical_form(fs) for fs in enumerate_semirings(3)]
        assert canonical_form(mod3_table()) in forms
        assert canonical_form(n3_saturating_table()) in forms
        assert len(forms) == len(set(forms))  # pairwise non-isomorphic

    def test_all_emitted_pass_axioms(self):
        for order in (2, 3):
            for fs in enumerate_semirings(order):
                assert check_axioms(fs).all_pass

    def test_order_six_rejected(self):
        with pytest.raises(OrderTooLargeError):
            list(enumerate_semirings(6))

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_semirings(1))

    def test_budget(self):
        # order 3 has 9 associative addition tables and 3 multiplication ones
        with pytest.raises(BudgetExceededError):
            list(enumerate_semirings(3, budget=5))
        full = list(enumerate_semirings(3))
        assert list(enumerate_semirings(3, budget=27)) == full
        for budget in range(27):
            collected = []
            with pytest.raises(BudgetExceededError):
                for fs in enumerate_semirings(3, budget=budget):
                    collected.append(fs)
            # everything yielded before exhaustion is a prefix of the stream
            assert collected == full[: len(collected)]
        assert all(check_axioms(fs).all_pass for fs in collected)

    def test_deterministic(self):
        first = [fs.digest() for fs in enumerate_semirings(3)]
        second = [fs.digest() for fs in enumerate_semirings(3)]
        assert first == second


class TestBacktracking:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_same_stream_as_product_loop(self, order):
        got = list(enumerate_semirings(order))
        want = list(product_loop_reference(order))
        assert got == want
        assert [fs.digest() for fs in got] == [fs.digest() for fs in want]

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("identity, absorbing", [(0, None), (1, 0)])
    def test_monoids_are_associative_product_subset(self, order, identity, absorbing):
        want = [
            t for t in product_tables(order, identity, absorbing) if _associates(t, order)
        ]
        assert list(_commutative_monoids(order, identity, absorbing)) == want

    def test_order_five(self):
        found = list(enumerate_semirings(5))
        assert len(found) == 228
        assert all(check_axioms(fs).all_pass for fs in found)
        forms = {canonical_form(fs) for fs in found}
        assert len(forms) == len(found)


class TestStructuralValidation:
    def test_entry_out_of_range(self):
        with pytest.raises(TableShapeError):
            FiniteSemiring(2, ("0", "1"), ((0, 1), (1, 5)), ((0, 0), (0, 1)))

    def test_duplicate_names(self):
        with pytest.raises(TableShapeError):
            FiniteSemiring(2, ("0", "0"), ((0, 1), (1, 1)), ((0, 0), (0, 1)))
