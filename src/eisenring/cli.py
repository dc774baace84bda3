"""Command-line front end.

Commands: axioms, ideal, eisenstein, corollary, factor, trace,
verify-theorem, hunt.  Reports are printed human-readable by default or
as one byte-stable JSON document with --json.  Exit codes:

    0   satisfied / all verified / axioms pass / witness found (factor)
    2   a definite negative answer: not applicable, axioms fail,
        violations found, no factorization within bounds
    1   usage or input errors, including hypothesis failures, and
        requests that run out of memory
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .eisenstein import (
    DEFAULT_HYPOTHESIS_BOUND,
    Verdict,
    check_corollary,
    check_eisenstein,
    proof_trace,
)
from .errors import EisenringError
from .ideals import ideal_closure, principal_ideal
from .oracle import (
    DEFAULT_DEGREE_WINDOW,
    hunt_subtractivity,
    search_factorizations,
    verify_theorem,
)
from .polynomials import Polynomial
from .semirings import BUILTIN_NAMES, CarrierKind, builtin_semiring, from_table
from .tables import check_axioms, parse_semiring_file


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="eisenring", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    parser.add_argument("--quiet", action="store_true", help="suppress report output")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_semiring_source(p, file_only=False, builtin_only=False):
        if builtin_only:
            p.add_argument("--semiring", required=True, choices=BUILTIN_NAMES)
            return
        group = p.add_mutually_exclusive_group(required=True)
        if not file_only:
            group.add_argument("--semiring", choices=BUILTIN_NAMES)
        group.add_argument("--file", help="semiring table file")

    def add_ideal_spec(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--prime", help="generator of a principal ideal")
        group.add_argument(
            "--ideal-gens", help="comma-separated generators (finite carriers only)"
        )

    def add_bound(p):
        p.add_argument(
            "--hypothesis-bound", type=int, default=DEFAULT_HYPOTHESIS_BOUND,
            help="verification bound for infinite-carrier certificates",
        )

    p = sub.add_parser("axioms", parents=[common], help="check a table file against the axioms")
    p.add_argument("--file", required=True)

    p = sub.add_parser("ideal", parents=[common], help="proper/prime/subtractive certificates")
    add_semiring_source(p)
    add_ideal_spec(p)
    add_bound(p)

    p = sub.add_parser("eisenstein", parents=[common], help="criterion check over an ideal")
    add_semiring_source(p)
    add_ideal_spec(p)
    add_bound(p)
    p.add_argument("poly")

    p = sub.add_parser("corollary", parents=[common], help="criterion check over a prime element")
    add_semiring_source(p, builtin_only=True)
    p.add_argument("--prime", required=True)
    add_bound(p)
    p.add_argument("poly")

    p = sub.add_parser("factor", parents=[common], help="brute-force factorization search")
    add_semiring_source(p)
    p.add_argument("--window", type=int, default=DEFAULT_DEGREE_WINDOW)
    p.add_argument("--coeff-bound", type=int, default=None)
    p.add_argument("poly")

    p = sub.add_parser("trace", parents=[common], help="replay the contradiction argument on g*h")
    add_semiring_source(p)
    add_ideal_spec(p)
    add_bound(p)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)

    p = sub.add_parser("verify-theorem", parents=[common], help="exhaustive finite-carrier validation")
    p.add_argument("--file", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--window", type=int, default=DEFAULT_DEGREE_WINDOW)

    p = sub.add_parser("hunt", parents=[common], help="probe the necessity of subtractivity")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    return parser


def _load_semiring(args):
    file = getattr(args, "file", None)
    if file:
        text = Path(file).read_text()
        fs = parse_semiring_file(text)
        return from_table(fs, name=Path(file).name), Path(file).name
    return builtin_semiring(args.semiring), args.semiring


def _build_ideal(S, args):
    if args.prime is not None:
        return principal_ideal(S, S.parse_literal(args.prime))
    if S.kind is not CarrierKind.FINITE:
        raise _UsageError("--ideal-gens needs a finite carrier; use --prime")
    gens = [S.parse_literal(tok) for tok in args.ideal_gens.split(",") if tok]
    return ideal_closure(S, gens)


def _render(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _human_lines(doc: dict, prefix="") -> list[str]:
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_human_lines(value, prefix + "  "))
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _cmd_axioms(args):
    text = Path(args.file).read_text()
    fs = parse_semiring_file(text)
    report = check_axioms(fs)
    doc = {"command": "axioms", "file": Path(args.file).name}
    doc.update(report.as_dict())
    return (0 if report.all_pass else 2), doc


def _cmd_ideal(args):
    S, source = _load_semiring(args)
    ideal = _build_ideal(S, args)
    report = ideal.predicates(args.hypothesis_bound)
    doc = {
        "command": "ideal",
        "semiring": source,
        "ideal": ideal.describe(),
        "hypothesis_bound": args.hypothesis_bound,
        "predicates": report.as_dict(),
        "all_hold": report.all_hold,
    }
    return (0 if report.all_hold else 2), doc


def _verdict_exit(report) -> int:
    if report.verdict is Verdict.SATISFIED:
        return 0
    if report.verdict is Verdict.NOT_APPLICABLE:
        return 2
    return 1


def _cmd_eisenstein(args):
    S, source = _load_semiring(args)
    ideal = _build_ideal(S, args)
    f = Polynomial.parse(args.poly, S)
    report = check_eisenstein(f, ideal, args.hypothesis_bound)
    doc = {"command": "eisenstein", "semiring": source}
    doc.update(report.as_dict())
    return _verdict_exit(report), doc


def _cmd_corollary(args):
    S, source = _load_semiring(args)
    f = Polynomial.parse(args.poly, S)
    report = check_corollary(f, S.parse_literal(args.prime), args.hypothesis_bound)
    doc = {"command": "corollary", "semiring": source, "prime": args.prime}
    doc.update(report.as_dict())
    return _verdict_exit(report), doc


def _cmd_factor(args):
    S, source = _load_semiring(args)
    f = Polynomial.parse(args.poly, S)
    outcome = search_factorizations(f, window=args.window, coeff_bound=args.coeff_bound)
    doc = {"command": "factor", "semiring": source, "polynomial": f.format()}
    doc.update(outcome.as_dict())
    return (0 if outcome.found else 2), doc


def _cmd_trace(args):
    S, source = _load_semiring(args)
    ideal = _build_ideal(S, args)
    g = Polynomial.parse(args.g, S)
    h = Polynomial.parse(args.h, S)
    report = proof_trace(g, h, ideal, args.hypothesis_bound)
    doc = {"command": "trace", "semiring": source}
    doc.update(report.as_dict())
    return 0, doc


def _cmd_verify_theorem(args):
    text = Path(args.file).read_text()
    fs = parse_semiring_file(text)
    stats = verify_theorem(fs, args.max_degree, window=args.window)
    doc = {"command": "verify-theorem", "file": Path(args.file).name}
    doc.update(stats.as_dict())
    return (0 if stats.violations == 0 else 2), doc


def _cmd_hunt(args):
    report = hunt_subtractivity(args.max_order, args.max_degree, budget=args.budget)
    doc = {"command": "hunt"}
    doc.update(report.as_dict())
    return (2 if report.counterexamples() else 0), doc


_HANDLERS = {
    "axioms": _cmd_axioms,
    "ideal": _cmd_ideal,
    "eisenstein": _cmd_eisenstein,
    "corollary": _cmd_corollary,
    "factor": _cmd_factor,
    "trace": _cmd_trace,
    "verify-theorem": _cmd_verify_theorem,
    "hunt": _cmd_hunt,
}


def run_cli(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    try:
        code, doc = _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    except (EisenringError, OSError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=stderr)
        return 1
    if not args.quiet:
        if args.json:
            stdout.write(_render(doc))
        else:
            stdout.write("\n".join(_human_lines(doc)) + "\n")
    return code


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
