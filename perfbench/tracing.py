"""Spans and counters around the program's public names.

The span pass wraps each public name below at every module attribute it
is bound under (``eisenring.oracle.check_eisenstein`` as well as
``eisenring.eisenstein.check_eisenstein``), so calls between modules are
seen too.  A span records its name, start, end, parent span and the op it
belongs to; spans stay in memory until the run ends.  The hot carrier
and membership calls are only counted, in a separate pass, so that their
wrappers do not inflate the self times of the span pass.
"""

from __future__ import annotations

import gzip
import json
import random
import sys
import time

import eisenring
from eisenring import cli, eisenstein, ideals, oracle, polynomials, semirings, tables

# (module, public name, span name)
SPAN_FUNCTIONS = (
    (cli, "run_cli", "cli.run_cli"),
    (eisenstein, "check_eisenstein", "eisenstein.check"),
    (eisenstein, "check_corollary", "eisenstein.corollary"),
    (eisenstein, "proof_trace", "eisenstein.trace"),
    (oracle, "search_factorizations", "oracle.search"),
    (oracle, "verify_theorem", "oracle.verify_theorem"),
    (oracle, "hunt_subtractivity", "oracle.hunt"),
    (tables, "enumerate_semirings", "tables.enumerate"),
    (tables, "canonical_form", "tables.canonical_form"),
    (tables, "check_axioms", "tables.check_axioms"),
    (tables, "enumerate_ideals", "tables.enumerate_ideals"),
    (tables, "parse_semiring_file", "tables.parse"),
    (semirings, "from_table", "semirings.from_table"),
)
SPAN_METHODS = (
    (ideals.Ideal, "predicates", "ideals.predicates"),
    (polynomials.Polynomial, "__mul__", "polynomials.mul"),
    (polynomials.Polynomial, "parse", "polynomials.parse"),
)
COUNT_METHODS = (
    (semirings.SemiringDescriptor, "add_values", "semirings.add_calls"),
    (semirings.SemiringDescriptor, "mul_values", "semirings.mul_calls"),
    (semirings.SemiringDescriptor, "divides_values", "semirings.divides_calls"),
    (ideals.FiniteSetIdeal, "contains_value", "ideals.membership_calls"),
    (ideals.PrincipalIdeal, "contains_value", "ideals.membership_calls"),
    (polynomials.Polynomial, "__init__", "polynomials.construct_calls"),
)
CARRIERS = ("nat", "gcd-nat", "tropical-min", "finite")
_KIND_LABEL = {
    semirings.CarrierKind.NATURALS: "nat",
    semirings.CarrierKind.GCD_NATURALS: "gcd-nat",
    semirings.CarrierKind.TROPICAL_MIN: "tropical-min",
    semirings.CarrierKind.FINITE: "finite",
}


def _bindings(original):
    """Every (module, attribute) of the package bound to ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "eisenring" or name.startswith("eisenring."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    yield module, attr


class Patches:
    """Replacements that ``restore`` undoes."""

    def __init__(self):
        self.saved = []

    def function(self, module, attr, make):
        original = getattr(module, attr)
        wrapper = make(original)
        for mod, name in _bindings(original):
            self.saved.append((mod, name, original))
            setattr(mod, name, wrapper)

    def method(self, cls, attr, make):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(make(original.__func__))
        else:
            wrapper = make(original)
        self.saved.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.stack = []
        self.op = "setup"
        self.satisfied = 0
        self.search = {c: [0, 0] for c in CARRIERS}  # nodes, found
        self.complete = 0

    def _wrap(self, name, fn, namer=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = namer(args) if namer else name
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label, t0, t1, stack[-1] if stack else -1, self.op)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _wrap_generator(self, name, fn):
        """One span per resumption of the generator."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    spans[idx] = (name, t0, clock(), stack[-1] if stack else -1, self.op)
                yield item
        return wrapper

    def _after_check(self, args, report):
        self.satisfied += report.satisfied

    def _after_search(self, args, outcome):
        entry = self.search[_KIND_LABEL[args[0].semiring.kind]]
        entry[0] += outcome.nodes
        entry[1] += outcome.found
        self.complete += outcome.complete

    def install(self) -> Patches:
        patches = Patches()
        for module, attr, name in SPAN_FUNCTIONS:
            if attr == "enumerate_semirings":
                make = lambda fn, name=name: self._wrap_generator(name, fn)
            elif attr == "check_eisenstein":
                make = lambda fn, name=name: self._wrap(name, fn, after=self._after_check)
            elif attr == "search_factorizations":
                make = lambda fn, name=name: self._wrap(
                    name, fn, namer=lambda a: f"{name}.{_KIND_LABEL[a[0].semiring.kind]}",
                    after=self._after_search)
            else:
                make = lambda fn, name=name: self._wrap(name, fn)
            patches.function(module, attr, make)
        for cls, attr, name in SPAN_METHODS:
            patches.method(cls, attr, lambda fn, name=name: self._wrap(name, fn))
        return patches

    def self_times(self):
        """Per span name: (calls, total self seconds).  Self time is a span's
        duration minus the durations of its direct children."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _) in enumerate(spans):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += t1 - t0 - child[i]
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent index, op id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def count_calls(run) -> dict:
    """Run ``run()`` with counting wrappers on the hot carrier, membership
    and construction calls; return the counts."""
    counts = {}
    patches = Patches()

    def make(key):
        counts.setdefault(key, 0)

        def wrap(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    for cls, attr, key in COUNT_METHODS:
        patches.method(cls, attr, make(key))
    try:
        run()
    finally:
        patches.restore()
    return counts


def layer_metrics(tracer: Tracer, counts: dict) -> dict:
    """Per-layer metrics from one traced pass (and its traced set-up) and
    one counting pass of the same inputs."""
    st = tracer.self_times()

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def secs(*names):
        return sum(st.get(n, (0, 0.0))[1] for n in names)

    checks_made = calls("eisenstein.check")
    searches = sum(calls(f"oracle.search.{c}") for c in CARRIERS)
    found = sum(tracer.search[c][1] for c in CARRIERS)
    m = {
        "ideals.predicates_calls": (calls("ideals.predicates"), "count"),
        "ideals.predicates_s": (secs("ideals.predicates"), "s"),
        "ideals.membership_calls": (counts["ideals.membership_calls"], "count"),
        "eisenstein.check_calls": (checks_made, "count"),
        "eisenstein.check_s": (secs("eisenstein.check", "eisenstein.corollary"), "s"),
        "eisenstein.satisfied_ratio": (tracer.satisfied / checks_made if checks_made else 0.0, "ratio"),
        "eisenstein.trace_calls": (calls("eisenstein.trace"), "count"),
        "eisenstein.trace_s": (secs("eisenstein.trace"), "s"),
        "polynomials.construct_calls": (counts["polynomials.construct_calls"], "count"),
        "polynomials.mul_calls": (calls("polynomials.mul"), "count"),
        "polynomials.mul_s": (secs("polynomials.mul"), "s"),
        "polynomials.parse_s": (secs("polynomials.parse"), "s"),
        "oracle.search_s": (secs(*(f"oracle.search.{c}" for c in CARRIERS)), "s"),
        "oracle.found_ratio": (found / searches if searches else 0.0, "ratio"),
        "oracle.complete_ratio": (tracer.complete / searches if searches else 0.0, "ratio"),
        "oracle.verify_theorem_s": (secs("oracle.verify_theorem"), "s"),
        "oracle.hunt_s": (secs("oracle.hunt"), "s"),
        "tables.enumerate_s": (secs("tables.enumerate"), "s"),
        "tables.canonical_form_calls": (calls("tables.canonical_form"), "count"),
        "tables.canonical_form_s": (secs("tables.canonical_form"), "s"),
        "tables.check_axioms_calls": (calls("tables.check_axioms"), "count"),
        "tables.enumerate_ideals_s": (secs("tables.enumerate_ideals"), "s"),
        "tables.parse_s": (secs("tables.parse"), "s"),
        "semirings.from_table_calls": (calls("semirings.from_table"), "count"),
        "semirings.from_table_s": (secs("semirings.from_table"), "s"),
        "semirings.add_calls": (counts["semirings.add_calls"], "count"),
        "semirings.mul_calls": (counts["semirings.mul_calls"], "count"),
        "semirings.divides_calls": (counts["semirings.divides_calls"], "count"),
        "cli.self_s": (secs("cli.run_cli"), "s"),
    }
    for c in CARRIERS:
        m[f"oracle.searches.{c}"] = (calls(f"oracle.search.{c}"), "count")
        m[f"oracle.nodes.{c}"] = (tracer.search[c][0], "count")
        m[f"oracle.search_s.{c}"] = (secs(f"oracle.search.{c}"), "s")
    return m


# -- micro rates ------------------------------------------------------------------

MICRO_MIN_S = 0.2  # each repeat runs at least this long
MICRO_REPEATS = 3  # the median repeat is reported


def _rate(body, ops_per_call):
    rates = []
    for _ in range(MICRO_REPEATS):
        calls = 0
        t0 = time.perf_counter()
        while True:
            body()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= MICRO_MIN_S:
                break
        rates.append(calls * ops_per_call / elapsed)
    return sorted(rates)[len(rates) // 2]


def micro_rates(seed: int) -> dict:
    """add_values/mul_values per second for each carrier kind and
    Polynomial.__mul__ per second at degrees 4 and 8, on seeded values."""
    rng = random.Random(f"micro:{seed}")
    n3 = eisenring.from_table(eisenring.n3_saturating_table())
    values = {
        "nat": (eisenring.builtin_semiring("nat"), lambda: rng.randrange(10**6)),
        "gcd-nat": (eisenring.builtin_semiring("gcd-nat"), lambda: rng.randrange(10**6)),
        "tropical-min": (eisenring.builtin_semiring("tropical-min"),
                         lambda: eisenring.INFINITY if rng.random() < 0.1 else rng.randrange(1000)),
        "finite": (n3, lambda: rng.randrange(3)),
    }
    out = {}
    for label, (S, draw) in values.items():
        pairs = [(draw(), draw()) for _ in range(1000)]
        add, mul = S.add_values, S.mul_values

        def body(pairs=pairs, add=add, mul=mul):
            for x, y in pairs:
                add(x, y)
                mul(x, y)
        out[f"semirings.ops_per_s.{label}"] = (_rate(body, 2 * len(pairs)), "1/s")
    nat = eisenring.builtin_semiring("nat")
    for degree in (4, 8):
        polys = [
            (eisenring.Polynomial(nat, [rng.randrange(100) for _ in range(degree)] + [1 + rng.randrange(99)]),
             eisenring.Polynomial(nat, [rng.randrange(100) for _ in range(degree)] + [1 + rng.randrange(99)]))
            for _ in range(100)
        ]

        def body(polys=polys):
            for g, h in polys:
                g * h
        out[f"polynomials.mul_per_s.deg{degree}"] = (_rate(body, len(polys)), "1/s")
    return out
