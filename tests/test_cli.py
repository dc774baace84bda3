import io
import json
import time

import pytest

from eisenring import (
    Polynomial,
    builtin_semiring,
    cli,
    format_semiring_file,
    oracle,
    principal_ideal,
)
from eisenring.cli import run_cli

from conftest import GOLDEN_DIR, TABLES_DIR, chain_lattice

N3 = str(TABLES_DIR / "n3.semiring")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


GOLDEN_CASES = {
    "eisenstein_nat_satisfied.json": (
        0,
        ["--json", "eisenstein", "--semiring", "nat", "--prime", "2",
         "--hypothesis-bound", "128", "x^2 + 2*x + 2"],
    ),
    "eisenstein_nat_condition3.json": (
        2,
        ["--json", "eisenstein", "--semiring", "nat", "--prime", "2",
         "--hypothesis-bound", "128", "x^2 + 2*x + 4"],
    ),
    "trace_n3.json": (
        0,
        ["--json", "trace", "--file", N3, "--ideal-gens", "2",
         "--g", "x + 1", "--h", "x + 2"],
    ),
    "factor_nat_found.json": (
        0,
        ["--json", "factor", "--semiring", "nat", "x^2 + 3*x + 2"],
    ),
    "axioms_n3.json": (
        0,
        ["--json", "axioms", "--file", N3],
    ),
    "corollary_gcd_satisfied.json": (
        0,
        ["--json", "corollary", "--semiring", "gcd-nat", "--prime", "2",
         "--hypothesis-bound", "128", "3*x^2 + 2*x + 2"],
    ),
}


class TestGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_stable_against_golden(self, name):
        expected_code, argv = GOLDEN_CASES[name]
        code, out, err = invoke(argv)
        assert err == ""
        assert code == expected_code
        golden = (GOLDEN_DIR / name).read_text()
        assert out == golden

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_repeat_runs_identical(self, name):
        _, argv = GOLDEN_CASES[name]
        assert invoke(argv)[1] == invoke(argv)[1]


class TestExitCodes:
    def test_satisfied_zero(self):
        code, _, _ = invoke(
            ["--quiet", "eisenstein", "--semiring", "nat", "--prime", "2",
             "--hypothesis-bound", "64", "x^2 + 2*x + 2"]
        )
        assert code == 0

    def test_not_applicable_two(self):
        code, _, _ = invoke(
            ["--quiet", "eisenstein", "--semiring", "nat", "--prime", "2",
             "--hypothesis-bound", "64", "x^2 + 2*x + 4"]
        )
        assert code == 2

    def test_hypothesis_failure_one(self):
        code, _, err = invoke(
            ["--quiet", "eisenstein", "--semiring", "nat", "--prime", "4",
             "--hypothesis-bound", "64", "x^2 + 2*x + 2"]
        )
        assert code == 1

    def test_unknown_semiring_one(self):
        code, _, err = invoke(["eisenstein", "--semiring", "rationals", "--prime", "2", "x"])
        assert code == 1
        assert err

    def test_poly_parse_error_one(self):
        code, _, err = invoke(
            ["eisenstein", "--semiring", "nat", "--prime", "2", "x^2 ++ 1"]
        )
        assert code == 1
        assert "error" in err

    def test_missing_file_one(self):
        code, _, err = invoke(["axioms", "--file", "no-such-file.semiring"])
        assert code == 1

    def test_axioms_fail_two(self, tmp_path):
        broken = (TABLES_DIR / "n3.semiring").read_text().replace(
            "0 0 0\n0 1 2\n0 2 2", "0 0 1\n0 1 2\n1 2 2"
        )
        path = tmp_path / "broken.semiring"
        path.write_text(broken)
        code, out, _ = invoke(["--json", "axioms", "--file", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert doc["all_pass"] is False
        failing = [name for name, r in doc["axioms"].items() if not r["holds"]]
        assert "zero-absorbing" in failing

    def test_table_over_ideal_cap(self, tmp_path):
        # the order-200 chain passes every axiom; axioms still answers, and
        # a subcommand that needs the ideals refuses the order
        path = tmp_path / "chain200.semiring"
        path.write_text(format_semiring_file(chain_lattice(200)))
        code, out, _ = invoke(["--json", "axioms", "--file", str(path)])
        assert code == 0
        assert json.loads(out)["all_pass"] is True
        code, out, err = invoke(["factor", "--file", str(path), "x + 1"])
        assert code == 1
        assert out == ""
        assert "order <= 10, got 200" in err

    def test_verify_theorem_clean_zero(self):
        code, out, _ = invoke(
            ["--json", "verify-theorem", "--file", N3, "--max-degree", "2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert doc["subtractive_prime_sets"] == ["{0}"]

    def test_factor_none_two(self):
        code, _, _ = invoke(["--quiet", "factor", "--semiring", "nat", "x^2 + 2*x + 2"])
        assert code == 2

    def test_hunt_zero(self):
        code, out, _ = invoke(["--json", "hunt", "--max-order", "2", "--max-degree", "2"])
        assert code == 0
        assert json.loads(out)["findings"] == []

    def test_ideal_gens_on_infinite_carrier_one(self):
        code, _, err = invoke(["ideal", "--semiring", "nat", "--ideal-gens", "2"])
        assert code == 1

    def test_usage_error_one(self):
        code, _, err = invoke(["eisenstein", "--semiring", "nat", "x"])
        assert code == 1

    def test_trace_c_factor_inside_ideal_one(self):
        # every coefficient of 2*x + 2 lies in (2), so no minimal index m exists
        code, out, err = invoke(
            ["trace", "--semiring", "nat", "--prime", "2", "--hypothesis-bound", "64",
             "--g", "x + 1", "--h", "2*x + 2"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_hunt_order_one_one(self):
        code, out, err = invoke(["hunt", "--max-order", "1", "--max-degree", "2"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["factor", "--semiring", "nat", "--window", "-1", "x^2 + 3*x + 2"],
        ["factor", "--file", N3, "--window", "1000000", "x^2 + 1"],
        ["verify-theorem", "--file", N3, "--max-degree", "2", "--window", "-1"],
    ])
    def test_bad_window_one(self, argv):
        code, out, err = invoke(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_negative_coeff_bound_one(self):
        # a negative bound searched nothing and reported (x + 1)^2 unfactored
        code, out, err = invoke(
            ["factor", "--semiring", "nat", "--coeff-bound", "-1", "x^2+2*x+1"]
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        code, out, _ = invoke(
            ["--json", "factor", "--semiring", "nat", "--coeff-bound", "0", "x^2+2*x+1"]
        )
        assert code == 2
        assert json.loads(out)["complete"] is False

    def test_negative_hunt_budget_one(self):
        # refused with exit 1; a budget of 0 is a valid, empty partial hunt
        code, out, err = invoke(
            ["hunt", "--max-order", "2", "--max-degree", "1", "--budget", "-1"]
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        code, out, _ = invoke(
            ["--json", "hunt", "--max-order", "2", "--max-degree", "1", "--budget", "0"]
        )
        assert code == 0
        assert json.loads(out)["partial"] is True

    @pytest.mark.parametrize("argv", [
        ["factor", "--semiring", "bool", "--coeff-bound", "0", "x^2+x+1"],
        ["factor", "--semiring", "gcd-nat", "--coeff-bound", "0", "6*x^2+5*x+1"],
    ])
    def test_ignored_coeff_bound_one(self, argv):
        # finite tables and gcd-nat have no coefficient cap for the bound to
        # replace, so it is refused rather than silently ignored
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_memory_error_one(self, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "factor", exhausted)
        code, out, err = invoke(["factor", "--semiring", "nat", "x^2 + 1"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_factor_huge_constant_term_completes(self):
        # the derived coefficient cap is 2^40 + 15: candidates up to it must
        # stay lazy, since a list of them does not fit in memory
        code, out, err = invoke(
            ["--json", "factor", "--semiring", "nat", "x^2 + 1099511627791"]
        )
        assert (code, err) == (2, "")
        doc = json.loads(out)
        assert doc["result"] == "none-within-bounds"
        assert doc["complete"] is True


    def test_factor_exhausted_budget_cuts_runs_in_bulk(self, monkeypatch):
        # the convolution bounds rule out every g of every degree pair, so
        # the default 2M-node budget runs out on bulk counts, not cofactors
        calls = []
        cofactor = oracle._nat_cofactor
        monkeypatch.setattr(
            oracle, "_nat_cofactor", lambda *args: calls.append(args) or cofactor(*args)
        )
        code, out, err = invoke(["--json", "factor", "--semiring", "nat", "x^50 + 1"])
        assert (code, err) == (2, "")
        doc = json.loads(out)
        assert (doc["result"], doc["complete"]) == ("none-within-bounds", False)
        assert doc["nodes"] == 2_000_001
        assert len(calls) < 100

    def test_factor_gcd_large_coefficients_completes(self):
        # the middle candidates are the divisors of a product near 10^18;
        # they are built from each coefficient's divisors
        code, out, err = invoke(
            ["--json", "factor", "--semiring", "gcd-nat", "999983*x^2 + 999979*x + 999961"]
        )
        assert (code, err) == (2, "")
        assert json.loads(out)["complete"] is True

    def test_huge_exponent_one(self):
        code, out, err = invoke(
            ["eisenstein", "--semiring", "nat", "--prime", "2", "x^100000000 + 2"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "prime, poly",
        [("2", "1" * 5000 + "*x + 2"), ("1" * 5000, "x + 2"), ("²", "x + 2")],
        ids=["long-coefficient", "long-prime", "superscript-prime"],
    )
    def test_unparsable_literal_one(self, prime, poly):
        # past Python's 4,300-digit conversion limit, and a non-ASCII digit
        code, out, err = invoke(["eisenstein", "--semiring", "nat", "--prime", prime, poly])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestMoreSurfaces:
    def test_prime_flag_on_table_file(self):
        # a principal ideal over a finite carrier is realized as its closure
        code, out, _ = invoke(
            ["--json", "ideal", "--file", N3, "--prime", "2"]
        )
        assert code == 2  # not subtractive
        doc = json.loads(out)
        assert doc["ideal"] == "{0, 2}"
        assert doc["predicates"]["prime"]["holds"] is True
        assert doc["predicates"]["subtractive"]["holds"] is False

    @pytest.mark.parametrize("semiring,prime", [
        ("nat", "1000000000000000003"),
        ("gcd-nat", str(2**61 - 1)),
    ])
    def test_ideal_on_large_prime_is_prompt(self, semiring, prime):
        # the primality certificate is Miller-Rabin, not trial division
        t0 = time.perf_counter()
        code, out, _ = invoke(
            ["--json", "ideal", "--semiring", semiring, "--prime", prime,
             "--hypothesis-bound", "64"]
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        prime_cert = json.loads(out)["predicates"]["prime"]
        assert prime_cert["holds"] is True and prime_cert["note"] == "prime integer"

    def test_ideal_on_large_semiprime_is_prompt(self):
        # the factor witness comes from Pollard-Brent rho, not trial division
        t0 = time.perf_counter()
        code, out, _ = invoke(
            ["--json", "ideal", "--semiring", "nat", "--prime", str((2**31 - 1) * (10**9 + 7)),
             "--hypothesis-bound", "64"]
        )
        assert time.perf_counter() - t0 < 1.0
        prime_cert = json.loads(out)["predicates"]["prime"]
        assert prime_cert["holds"] is False
        assert prime_cert["witness"] == [str(10**9 + 7), str(2**31 - 1)]
        assert code == 2  # an answer: not all predicates hold

    def test_ideal_past_exact_primality_exits_1(self):
        t0 = time.perf_counter()
        code, out, err = invoke(["ideal", "--semiring", "nat", "--prime", str(2**89 - 1)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == ""
        assert "Miller-Rabin" in err

    def test_eisenstein_on_table_file(self):
        code, out, _ = invoke(
            ["--json", "eisenstein", "--file", N3, "--ideal-gens", "2", "x + 2"]
        )
        assert code == 1  # hypothesis failure: {0,2} is not subtractive
        doc = json.loads(out)
        assert doc["verdict"] == "hypothesis-not-established"
        assert doc["hypothesis_failure"] == "subtractive"

    def test_corollary_tropical_flags_route(self):
        code, out, _ = invoke(
            ["--json", "corollary", "--semiring", "tropical-min", "--prime", "1",
             "--hypothesis-bound", "64", "x^2 + 1*x + 1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "satisfied"
        assert doc["hypothesis_route"] == "semiring-flags"
        assert doc["hypothesis"]["prime"]["exact"] is True  # closed form
        assert doc["hypothesis"]["subtractive"]["exact"] is True

    def test_tropical_composite_prime_beyond_bound(self):
        # (1000) is not prime: 1 + 999 lands in it.  A scan up to the bound
        # never met such a pair and let the criterion report satisfied,
        # yet the polynomial factors as (x + 600)(400*x + 1000).
        code, out, _ = invoke(
            ["--json", "eisenstein", "--semiring", "tropical-min", "--prime", "1000",
             "--hypothesis-bound", "64", "400*x^2 + 1000*x + 1600"]
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "hypothesis-not-established"
        assert doc["hypothesis_failure"] == "prime"
        assert doc["hypothesis"]["prime"]["witness"] == ["1", "999"]
        S = builtin_semiring("tropical-min")
        g, h = Polynomial.parse("x + 600", S), Polynomial.parse("400*x + 1000", S)
        assert (g * h).format() == doc["polynomial"]

    def test_factor_window_flag(self):
        code, out, _ = invoke(
            ["--json", "factor", "--semiring", "nat", "--coeff-bound", "1",
             "x^2 + 5*x + 6"]
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["complete"] is False  # cap below the derived bound


class TestQuietAndPlacement:
    def test_quiet_suppresses_stdout(self):
        code, out, _ = invoke(
            ["--quiet", "--json", "ideal", "--semiring", "nat", "--prime", "2",
             "--hypothesis-bound", "32"]
        )
        assert code == 0 and out == ""

    def test_flags_after_subcommand(self):
        _, before, _ = invoke(
            ["--json", "factor", "--semiring", "nat", "x^2 + 3*x + 2"]
        )
        _, after, _ = invoke(
            ["factor", "--semiring", "nat", "x^2 + 3*x + 2", "--json"]
        )
        assert before == after


class TestReportsRevalidate:
    def test_eisenstein_document_recheck(self):
        code, out, _ = invoke(
            ["--json", "eisenstein", "--semiring", "nat", "--prime", "2",
             "--hypothesis-bound", "64", "x^3 + 2*x^2 + 4*x + 2"]
        )
        doc = json.loads(out)
        nat = builtin_semiring("nat")
        f = Polynomial.parse(doc["polynomial"], nat)
        assert f.format() == doc["polynomial"]  # round-trips to the same canonical form
        p = int(doc["ideal"].strip("()"))
        P = principal_ideal(nat, p)
        cond = doc["conditions"]
        n = f.degree
        assert cond["1"]["in_ideal"] == P.contains(nat.parse_literal(cond["1"]["value"]))
        assert cond["1"]["value"] == nat.format_value(f.coeff_value(n))
        for entry in cond["2"]["memberships"]:
            v = nat.parse_literal(entry["value"])
            assert v == f.coeff_value(entry["index"])
            assert entry["in_ideal"] == P.contains(v)
        assert cond["3"]["in_ideal_square"] == P.square().contains(
            nat.parse_literal(cond["3"]["value"])
        )

    def test_trace_document_recheck(self):
        code, out, _ = invoke(
            ["--json", "trace", "--file", N3, "--ideal-gens", "2",
             "--g", "x + 1", "--h", "x + 2"]
        )
        doc = json.loads(out)
        from eisenring import from_table, ideal_closure, n3_saturating_table

        S = from_table(n3_saturating_table())
        P = ideal_closure(S, [2])
        b = Polynomial.parse(doc["roles"]["b"], S)
        c = Polynomial.parse(doc["roles"]["c"], S)
        product = Polynomial.parse(doc["product"], S)
        assert b * c == product
        m = doc["m"]
        for k in range(m):
            assert P.contains(c.coeff_value(k))
        assert not P.contains(c.coeff_value(m))
        assert doc["a_m_in_ideal"] == P.contains(product.coeff_value(m))
        for term in doc["terms"]:
            value = S.mul_values(b.coeff_value(term["i"]), c.coeff_value(term["j"]))
            assert S.format_value(value) == term["value"]
            assert term["in_ideal"] == P.contains_value(value)
