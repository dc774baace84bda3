"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import io
import itertools
import random
import time

from eisenring import (
    Polynomial,
    Verdict,
    boolean_table,
    builtin_semiring,
    canonical_form,
    check_axioms,
    check_corollary,
    check_eisenstein,
    enumerate_semirings,
    format_semiring_file,
    from_table,
    mod2_table,
    mod3_table,
    n3_saturating_table,
    parse_semiring_file,
    principal_ideal,
    proof_trace,
    search_factorizations,
    verify_theorem,
)
from eisenring.cli import run_cli
from eisenring.tables import FiniteSemiring

from conftest import GOLDEN_DIR, TABLES_DIR, sample_values, single_cell_mutations


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_nat_theorem_validation():
    """Every Satisfied verdict over the naturals is confirmed by the
    complete search: degrees 1..4, coefficients <= 12, p in {2, 3, 5}."""
    t0 = time.time()
    nat = builtin_semiring("nat")
    ideals = [(p, principal_ideal(nat, p)) for p in (2, 3, 5)]
    for _, ideal in ideals:
        ideal.predicates(64)  # certificates are memoized per ideal
    scanned = 0
    applicable = 0
    contains_reference = False
    for n in range(1, 5):
        for lower in itertools.product(range(13), repeat=n):
            for lead in range(1, 13):
                f = Polynomial(nat, lower + (lead,))
                scanned += 1
                for p, ideal in ideals:
                    report = check_eisenstein(f, ideal, 64)
                    if report.verdict is not Verdict.SATISFIED:
                        continue
                    applicable += 1
                    if p == 2 and f.coeffs == (2, 2, 1):
                        contains_reference = True
                    outcome = search_factorizations(f)
                    assert outcome.complete, f.format()
                    assert not outcome.found, (
                        f"{f.format()} satisfied the criterion for p={p} but "
                        f"factors as ({outcome.g.format()})({outcome.h.format()})"
                    )
    assert applicable > 0
    assert contains_reference  # x^2 + 2*x + 2 for p = 2 is in the applicable set
    _report(
        1,
        f"{scanned} polynomials, {applicable} applicable instances, "
        f"0 violations, {time.time() - t0:.1f}s",
    )


def test_criterion_2_finite_exhaustive_validation():
    t0 = time.time()
    semirings = 0
    applicable = 0
    for order in (2, 3):
        for fs in enumerate_semirings(order):
            stats = verify_theorem(fs, 3, window=2)
            assert stats.violations == 0, stats.as_dict()
            semirings += 1
            applicable += stats.criterion_applicable
    _report(
        2,
        f"{semirings} semirings of order <= 3, {applicable} applicable "
        f"instances, 0 violations, {time.time() - t0:.1f}s",
    )


def test_criterion_3_proof_engine_lemma():
    t0 = time.time()
    rng = random.Random(20260810)
    configs = [
        (builtin_semiring("nat"), 2),
        (builtin_semiring("nat"), 3),
        (builtin_semiring("gcd-nat"), 2),
        (builtin_semiring("tropical-min"), 1),
    ]
    per_config = 2500
    total = 0
    for S, p in configs:
        P = principal_ideal(S, p)
        pool = sample_values(S, 30)
        members = [v for v in pool if P.contains_value(v)]
        nonmembers = [v for v in pool if not P.contains_value(v)]
        nonzero = [v for v in pool if v != S.zero_value]
        for _ in range(per_config):
            b = [rng.choice(nonmembers)]
            b += [rng.choice(pool) for _ in range(rng.randrange(0, 3))]
            b.append(rng.choice(nonzero))
            m = rng.randrange(0, 4)
            extra = rng.randrange(0, 2) if m >= 1 else rng.randrange(1, 3)
            c = [rng.choice(members) for _ in range(m)]
            c.append(rng.choice(nonmembers))
            if extra:
                c += [rng.choice(pool) for _ in range(extra - 1)]
                c.append(rng.choice(nonzero))
            report = proof_trace(Polynomial(S, b), Polynomial(S, c), P, 64)
            assert report.a_m_in_ideal is False, (S.name, p, b, c)
            total += 1
    assert total == 10_000
    _report(3, f"{total} randomized instances, 0 failures, {time.time() - t0:.1f}s")


def test_criterion_4_near_miss_golden():
    out = io.StringIO()
    code = run_cli(
        [
            "--json", "trace", "--file", str(TABLES_DIR / "n3.semiring"),
            "--ideal-gens", "2", "--g", "x + 1", "--h", "x + 2",
        ],
        stdout=out,
    )
    assert code == 0
    golden = (GOLDEN_DIR / "trace_n3.json").read_text()
    assert out.getvalue() == golden  # byte-exact
    # and the content says exactly what it should
    assert '"m": 1' in golden
    assert '"a_m": "2"' in golden
    assert '"a_m_in_ideal": true' in golden
    assert '"value": "1"' in golden and '"in_ideal": false' in golden
    _report(4, "byte-exact golden trace over the saturating order-3 semiring")


def test_criterion_5_oracle_sanity():
    nat = builtin_semiring("nat")
    boolean = builtin_semiring("bool")
    found = search_factorizations(Polynomial.parse("x^2 + 3*x + 2", nat))
    assert found.found
    assert found.g.format() == "x + 1" and found.h.format() == "x + 2"
    found_bool = search_factorizations(Polynomial.parse("x^2 + x + 1", boolean))
    assert found_bool.found
    assert found_bool.g.format() == "x + 1" and found_bool.h.format() == "x + 1"
    none = search_factorizations(Polynomial.parse("x^2 + 2*x + 2", nat))
    assert not none.found and none.complete
    _report(5, "three exact oracle outcomes")


def test_criterion_6_corollary_theorem_consistency():
    t0 = time.time()
    rng = random.Random(1723)
    total = 0
    for name in ("gcd-nat", "nat"):
        S = builtin_semiring(name)
        for _ in range(500):
            degree = rng.randrange(1, 5)
            coeffs = [rng.randrange(0, 25) for _ in range(degree)]
            coeffs.append(rng.randrange(1, 25))
            f = Polynomial(S, coeffs)
            p = rng.randrange(2, 14)
            lowered = check_corollary(f, p, 64)
            direct = check_eisenstein(f, principal_ideal(S, p), 64)
            assert lowered.verdict is direct.verdict, (name, coeffs, p)
            assert lowered.failing_condition == direct.failing_condition
            total += 1
    assert total == 1000
    _report(6, f"{total} random (f, p) pairs agree, {time.time() - t0:.1f}s")


def _independent_axiom_failures(fs: FiniteSemiring) -> set[str]:
    """Definition-level scan written out independently of check_axioms."""
    n, add, mul = fs.order, fs.add_table, fs.mul_table
    z, o = fs.zero_index, fs.one_index
    rng = range(n)
    failures = set()
    if any(add[a][b] != add[b][a] for a in rng for b in rng):
        failures.add("add-commutative")
    if any(
        add[add[a][b]][c] != add[a][add[b][c]] for a in rng for b in rng for c in rng
    ):
        failures.add("add-associative")
    if any(add[a][z] != a or add[z][a] != a for a in rng):
        failures.add("add-identity")
    if any(mul[a][b] != mul[b][a] for a in rng for b in rng):
        failures.add("mul-commutative")
    if any(
        mul[mul[a][b]][c] != mul[a][mul[b][c]] for a in rng for b in rng for c in rng
    ):
        failures.add("mul-associative")
    if any(mul[a][o] != a or mul[o][a] != a for a in rng):
        failures.add("mul-identity")
    if any(
        mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]
        or mul[add[b][c]][a] != add[mul[b][a]][mul[c][a]]
        for a in rng
        for b in rng
        for c in rng
    ):
        failures.add("distributive")
    if any(mul[s][z] != z or mul[z][s] != z for s in rng):
        failures.add("zero-absorbing")
    return failures


_RECHECK = {
    "add-commutative": lambda fs, cx: fs.add_table[cx[0]][cx[1]] != fs.add_table[cx[1]][cx[0]],
    "add-associative": lambda fs, cx: fs.add_table[fs.add_table[cx[0]][cx[1]]][cx[2]]
    != fs.add_table[cx[0]][fs.add_table[cx[1]][cx[2]]],
    "add-identity": lambda fs, cx: fs.add_table[cx[0]][fs.zero_index] != cx[0]
    or fs.add_table[fs.zero_index][cx[0]] != cx[0],
    "mul-commutative": lambda fs, cx: fs.mul_table[cx[0]][cx[1]] != fs.mul_table[cx[1]][cx[0]],
    "mul-associative": lambda fs, cx: fs.mul_table[fs.mul_table[cx[0]][cx[1]]][cx[2]]
    != fs.mul_table[cx[0]][fs.mul_table[cx[1]][cx[2]]],
    "mul-identity": lambda fs, cx: fs.mul_table[cx[0]][fs.one_index] != cx[0]
    or fs.mul_table[fs.one_index][cx[0]] != cx[0],
    "distributive": lambda fs, cx: fs.mul_table[cx[0]][fs.add_table[cx[1]][cx[2]]]
    != fs.add_table[fs.mul_table[cx[0]][cx[1]]][fs.mul_table[cx[0]][cx[2]]]
    or fs.mul_table[fs.add_table[cx[1]][cx[2]]][cx[0]]
    != fs.add_table[fs.mul_table[cx[1]][cx[0]]][fs.mul_table[cx[2]][cx[0]]],
    "zero-absorbing": lambda fs, cx: fs.mul_table[cx[0]][fs.zero_index] != fs.zero_index
    or fs.mul_table[fs.zero_index][cx[0]] != fs.zero_index,
}


def test_criterion_7_axiom_mutation_kill_rate():
    tables = [boolean_table(), mod2_table(), mod3_table(), n3_saturating_table()]
    mutations = 0
    breaking = 0
    killed = 0
    for fs in tables:
        for which, i, j, v, mutated in single_cell_mutations(fs):
            mutations += 1
            broken = _independent_axiom_failures(mutated)
            report = check_axioms(mutated)
            failing = {r.name for r in report.failures()}
            assert failing == broken, (which, i, j, v, failing, broken)
            if not broken:
                continue
            breaking += 1
            killed += 1
            for result in report.failures():
                assert result.counterexample is not None
                assert _RECHECK[result.name](mutated, result.counterexample), (
                    result.name,
                    result.counterexample,
                )
    assert killed == breaking
    _report(
        7,
        f"{mutations} single-cell mutations, {breaking} axiom-breaking, "
        f"kill rate {killed}/{breaking}",
    )


def test_criterion_8_enumeration_ground_truth():
    order2 = list(enumerate_semirings(2))
    assert len(order2) == 2
    assert all(check_axioms(fs).all_pass for fs in order2)
    forms2 = {canonical_form(fs) for fs in order2}
    assert forms2 == {canonical_form(boolean_table()), canonical_form(mod2_table())}
    forms3 = [canonical_form(fs) for fs in enumerate_semirings(3)]
    assert canonical_form(mod3_table()) in forms3
    assert canonical_form(n3_saturating_table()) in forms3
    assert len(forms3) == len(set(forms3))
    _report(
        8,
        f"order 2 yields exactly 2 semirings; order 3 stream of {len(forms3)} "
        "contains the mod-3 ring and the saturating semiring",
    )


def test_criterion_9_round_trips():
    # polynomial parse/format across every carrier in the corpus
    rng = random.Random(424242)
    semirings = [builtin_semiring(n) for n in ("nat", "bool", "tropical-min", "gcd-nat")]
    semirings.append(from_table(n3_saturating_table(), name="n3"))
    semirings.extend(from_table(fs) for fs in enumerate_semirings(3))
    poly_count = 0
    for S in semirings:
        if S.flags.is_finite:
            pool = list(range(S.table.order))
        elif S.name == "tropical-min":
            from eisenring import INFINITY

            pool = list(range(0, 9)) + [INFINITY]
        else:
            pool = list(range(0, 9))
        for _ in range(120):
            f = Polynomial(S, [rng.choice(pool) for _ in range(rng.randrange(1, 8))])
            assert Polynomial.parse(f.format(), S) == f
            poly_count += 1
    # semiring file serialize/parse across the table corpus
    tables = [boolean_table(), mod2_table(), mod3_table(), n3_saturating_table()]
    tables.extend(enumerate_semirings(2))
    tables.extend(enumerate_semirings(3))
    for fs in tables:
        assert parse_semiring_file(format_semiring_file(fs)) == fs
    # CLI goldens byte-stable across runs
    golden_cases = {
        "eisenstein_nat_satisfied.json": [
            "--json", "eisenstein", "--semiring", "nat", "--prime", "2",
            "--hypothesis-bound", "128", "x^2 + 2*x + 2",
        ],
        "trace_n3.json": [
            "--json", "trace", "--file", str(TABLES_DIR / "n3.semiring"),
            "--ideal-gens", "2", "--g", "x + 1", "--h", "x + 2",
        ],
        "factor_nat_found.json": [
            "--json", "factor", "--semiring", "nat", "x^2 + 3*x + 2",
        ],
    }
    for name, argv in golden_cases.items():
        golden = (GOLDEN_DIR / name).read_text()
        for _ in range(2):
            out = io.StringIO()
            run_cli(argv, stdout=out)
            assert out.getvalue() == golden
    _report(
        9,
        f"{poly_count} polynomial round-trips, {len(tables)} table round-trips, "
        f"{len(golden_cases)} byte-stable goldens",
    )
