"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
passes.  A pass is a fixed-composition batch of ops, so every pass and
every seed load the layers in the same proportions; only the values
differ.  ``run_pass`` returns one (latency seconds, record) pair per op and
``check_pass`` turns the records into failure reasons with the
independent checks in ``checks``; checking happens outside the timed
passes.

cli-oneshot  sequential ``python -m eisenring.cli --json`` children, one
             at a time; every request builds its own ideals, so the
             hypothesis certificate is paid on each call.
sweep        library calls over seeded polynomials against ideals whose
             certificates are built once in set-up.
census       every semiring of order 2..4, each through ``from_table`` and
             ``verify_theorem``, plus one ``hunt_subtractivity(4, 3)``.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
from checks import BOOL, GCD, INF, NAT, TROPICAL, PrincipalSpec, SetSpec

ROOT = Path.cwd()
TABLE_NAMES = ("bool", "z2", "z3", "n3")
MEMORY_LIMIT_BYTES = 256 << 20  # address space of one CLI request child
REQUEST_TIMEOUT_S = 20.0  # about 4x the slowest well-behaved request

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
SMALL_BOUNDS = (64, 128, 256, 512)
COMPOSITES = (4, 6, 8, 9, 10, 12, 14, 15)


def table_carriers() -> dict:
    return {
        name: checks.read_table_file((ROOT / "tables" / f"{name}.semiring").read_text(), name)
        for name in TABLE_NAMES
    }


def criterion_coeffs(rng, p, degree, shape, top=4):
    """Coefficients for (p) over nat or gcd-nat, multiples of p up to
    top*p below the degree.  Shape 0 meets all three conditions; shape k in
    1..3 breaks condition k."""
    if shape == 1:
        lead = p * rng.randint(1, top)
    else:
        lead = rng.choice([k for k in range(1, 5 * top) if k % p])
    lower = [p * rng.randint(0, top) for _ in range(degree)]
    lower[0] = p * rng.choice([k for k in range(1, 2 * top) if k % p])
    if shape == 2:
        lower[rng.randrange(degree)] = p * rng.randint(0, 4) + rng.randint(1, p - 1)
    if shape == 3:
        lower[0] = p * p * rng.randint(1, 3)
    return tuple(lower) + (lead,)


def tropical_coeffs(rng, degree, shape):
    """Coefficients for (1) over tropical-min, shaped like criterion_coeffs."""
    lead = rng.randint(1, 3) if shape == 1 else 0
    lower = [rng.choice((1, 2, 3, 4, INF)) for _ in range(degree)]
    lower[0] = 1
    if shape == 2:
        lower[rng.randrange(degree)] = 0
    if shape == 3:
        lower[0] = rng.choice((2, 3, INF))
    return tuple(lower) + (lead,)


def random_coeffs(rng, degree, top):
    return tuple(rng.randint(0, top) for _ in range(degree)) + (rng.randint(1, top),)


def finite_coeffs(rng, order, degree):
    """Element indices of a finite carrier; index 0 is zero."""
    return tuple(rng.randrange(order) for _ in range(degree)) + (rng.randrange(1, order),)


def _no_mark(i):
    pass


def _raised(exc) -> str:
    """The failure reason for an op that raised instead of answering."""
    return f"traceback: {type(exc).__name__}: {exc}"[:200]


# ---------------------------------------------------------------------------
# cli-oneshot

class Request:
    __slots__ = ("kind", "argv", "data")

    def __init__(self, kind, argv, **data):
        self.kind, self.argv, self.data = kind, argv, data


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


class RequestTimeout(BaseException):
    """Raised by the alarm in an in-process request; BaseException so the
    program cannot swallow it."""


def _alarm(signum, frame):
    raise RequestTimeout()


class CliOneshot:
    name = "cli-oneshot"
    same_inputs_each_pass = False
    rss_of = "largest request child of the first pass, robustness inputs aside"

    def __init__(self, seed: int):
        self.rng = random.Random(f"cli-oneshot:{seed}")
        self.in_process = False

    def setup(self):
        self.tables = table_carriers()
        self.seen = set()
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        self.workdir = tempfile.TemporaryDirectory(dir=ROOT / ".perfbench", prefix="work-")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.batches = {}
        self.child_peaks = {False: 0.0, True: 0.0}  # by "is a robustness input"
        self.batch(0)

    def close(self):
        self.workdir.cleanup()

    # -- request generation ------------------------------------------------

    def _unique(self, make):
        """Draw requests until one has not been sent in this run."""
        for _ in range(1000):
            req = make()
            key = tuple(req.argv)
            if key not in self.seen:
                self.seen.add(key)
                return req
        raise RuntimeError("request space exhausted")

    def _criterion(self, command, carrier, bound, primes=SMALL_PRIMES):
        rng = self.rng

        def make():
            if carrier is TROPICAL:
                p, coeffs = 1, tropical_coeffs(rng, rng.randint(1, 3), rng.randrange(4))
            else:
                p = rng.choice(primes)
                coeffs = criterion_coeffs(rng, p, rng.randint(1, 3), rng.randrange(4))
            argv = [command, "--semiring", carrier.name, "--prime", str(p)]
            if bound is not None:
                argv += ["--hypothesis-bound", str(bound)]
            argv.append(checks.format_poly(carrier, coeffs))
            return Request("criterion", argv, carrier=carrier, spec=PrincipalSpec(carrier, p),
                           coeffs=coeffs)
        return self._unique(make)

    def _ideal(self, carrier, bound, primes):
        rng = self.rng

        def make():
            p = rng.choice(primes)
            argv = ["ideal", "--semiring", carrier.name, "--prime", str(p)]
            if bound is not None:
                argv += ["--hypothesis-bound", str(bound)]
            if carrier.names is None:
                spec = PrincipalSpec(carrier, p)
            else:
                spec = SetSpec(carrier, checks.closure(carrier, {p}))
            return Request("ideal", argv, spec=spec)
        return self._unique(make)

    def _factor_found(self, carrier, file=None):
        rng = self.rng

        def make():
            c = carrier
            if c.names is not None:
                g, h = finite_coeffs(rng, len(c.names), 1), finite_coeffs(rng, len(c.names), 1)
            elif c is TROPICAL:
                g, h = (rng.randint(0, 4), rng.randint(0, 3)), (rng.randint(0, 4), rng.randint(0, 3))
            elif c is GCD:
                g, h = (rng.randint(1, 6), rng.randint(1, 6)), (rng.randint(1, 6), rng.randint(1, 6))
            else:
                g = random_coeffs(rng, 1, 5)
                h = random_coeffs(rng, rng.randint(1, 2), 5)
            f = checks.convolve(c, g, h)
            source = ["--file", file] if file else ["--semiring", c.name]
            return Request("factor", ["factor", *source, checks.format_poly(c, f)],
                           carrier=c, coeffs=f, found=True)
        return self._unique(make)

    def _factor_none(self, carrier, degree, primes):
        rng = self.rng

        def make():
            p = rng.choice(primes)
            if degree == 4:  # small coefficients keep the gcd-nat divisor candidates few
                f = (p,) + tuple(p * rng.randint(0, 2) for _ in range(3)) + (rng.choice((1, 5, 7)),)
            else:
                f = criterion_coeffs(rng, p, degree, 0)
            argv = ["factor", "--semiring", carrier.name, checks.format_poly(carrier, f)]
            return Request("factor", argv, carrier=carrier, coeffs=f, found=False)
        return self._unique(make)

    def _trace(self, carrier, spec, source):
        rng = self.rng

        def make():
            while True:
                if carrier.names is not None:
                    n = len(carrier.names)
                    g = finite_coeffs(rng, n, rng.randint(1, 2))
                    h = finite_coeffs(rng, n, rng.randint(1, 2))
                else:
                    g = random_coeffs(rng, rng.randint(1, 2), 9)
                    h = random_coeffs(rng, rng.randint(1, 2), 9)
                if _trace_precondition(spec, g, h):
                    break
            argv = ["trace", *source, "--g", checks.format_poly(carrier, g),
                    "--h", checks.format_poly(carrier, h)]
            return Request("trace", argv, carrier=carrier, spec=spec, g=g, h=h)
        return self._unique(make)

    def _axioms(self, valid):
        rng = self.rng

        def make():
            c = self.tables[rng.choice(TABLE_NAMES)]
            n = len(c.names)
            names = [f"e{rng.randrange(100)}{i}" for i in range(n)]
            add, mul = relabel([0, 1] + rng.sample(range(2, n), n - 2), c.add_rows, c.mul_rows)
            if not valid:  # break commutativity of addition in one cell
                a, b = rng.sample(range(n), 2)
                add[a][b] = (add[b][a] + 1) % n
            text = checks.table_text(checks.table_carrier(c.name, names, add, mul))
            path = Path(self.workdir.name) / f"t{len(self.seen)}.semiring"
            path.write_text(text)
            return Request("axioms", ["axioms", "--file", str(path)], valid=valid)
        return self._unique(make)

    def _malformed(self, which):
        def make():
            k = self.rng.randrange(10**6)
            return Request("malformed", (
                ["eisenstein", "--semiring", "nat", "--prime", "2", f"x^2 + + {k}"],
                ["factor", "--semiring", f"ring{k}", "x + 1"],
                ["factor", "--file", f"tables/missing-{k}.semiring", "x + 1"],
                ["ideal", "--semiring", "nat", "--ideal-gens", f"{k},2"],
            )[which])
        return self._unique(make)

    def _robustness(self, batch):
        rng = self.rng
        if batch == 0:  # the two pathological inputs of the ROADMAP baseline
            big = ["factor", "--semiring", "nat", "x^2 + 1099511627791"]
            huge = ["eisenstein", "--semiring", "nat", "--prime", "2", "x^100000000 + 2"]
        else:
            big = ["factor", "--semiring", "nat", f"x^2 + {2**40 + 2 * rng.randrange(10**6) + 1}"]
            huge = ["eisenstein", "--semiring", "nat", "--prime", "2",
                    f"x^{10**8 + rng.randrange(10**6)} + 2"]
        p = rng.choice(SMALL_PRIMES)
        # the factor that plays c has every coefficient in (p): no minimal index
        in_ideal = ["trace", "--semiring", "nat", "--prime", str(p), "--hypothesis-bound", "64",
                    "--g", f"x + {rng.choice([k for k in range(1, 9) if k % p])}",
                    "--h", f"{p * rng.randint(1, 3)}*x + {p * rng.randint(1, 3)}"]
        return [self._unique(lambda a=a: Request("robustness", a)) for a in (big, huge, in_ideal)]

    def batch(self, b: int) -> list:
        """One fixed-composition batch; request values are drawn from the
        seed and never repeat within a run."""
        if b in self.batches:
            return self.batches[b]
        rng, t = self.rng, self.tables
        reqs = []
        for carrier in (NAT, GCD):  # certificates at the default --hypothesis-bound
            # the scan cost depends on the prime alone, so each slot keeps its
            # prime for every seed; later batches move to the next primes
            p = [(SMALL_PRIMES[(k + b) % len(SMALL_PRIMES)],) for k in range(3)]
            reqs.append(self._criterion("eisenstein", carrier, None, p[0]))
            reqs.append(self._criterion("corollary", carrier, None, p[1]))
            reqs.append(self._ideal(carrier, None, p[2]))
        for command, carrier, count in (("eisenstein", NAT, 3), ("corollary", NAT, 2),
                                        ("eisenstein", GCD, 2), ("corollary", GCD, 2),
                                        ("eisenstein", TROPICAL, 2)):
            for _ in range(count):
                reqs.append(self._criterion(command, carrier, rng.choice(SMALL_BOUNDS)))
        for carrier in (NAT, GCD):
            reqs.append(self._ideal(carrier, rng.choice(SMALL_BOUNDS), SMALL_PRIMES))
            reqs.append(self._ideal(carrier, rng.choice(SMALL_BOUNDS), COMPOSITES))
        reqs.append(self._ideal(TROPICAL, rng.choice(SMALL_BOUNDS), (1,)))
        reqs.append(self._ideal(TROPICAL, rng.choice(SMALL_BOUNDS), (2, 3, 4, 5)))
        reqs.append(self._ideal(BOOL, None, (0, 1)))
        reqs.append(self._unique(lambda: self._finite_criterion("n3", "--ideal-gens", "2")))
        reqs.append(self._unique(lambda: self._finite_criterion(
            rng.choice(("z2", "z3", "bool")), "--prime", "0")))
        reqs.append(self._unique(lambda: Request(
            "ideal", ["ideal", "--file", "tables/n3.semiring", "--ideal-gens", "2",
                      "--hypothesis-bound", str(rng.randrange(1, 10**6))],
            spec=SetSpec(t["n3"], {0, 2}))))
        reqs.append(self._factor_found(NAT))
        reqs.append(self._factor_found(NAT))
        reqs.append(self._factor_none(NAT, rng.randint(2, 3), (2, 3, 5)))
        reqs.append(self._factor_found(GCD))
        reqs.append(self._factor_none(GCD, 4, (2, 3)))
        reqs.append(self._factor_found(TROPICAL))
        name = rng.choice(TABLE_NAMES)
        reqs.append(self._factor_found(t[name], file=f"tables/{name}.semiring"))
        reqs.append(self._trace(t["n3"], SetSpec(t["n3"], {0, 2}),
                                ["--file", "tables/n3.semiring", "--ideal-gens", "2"]))
        p = rng.choice(SMALL_PRIMES)
        reqs.append(self._trace(NAT, PrincipalSpec(NAT, p),
                                ["--semiring", "nat", "--prime", str(p),
                                 "--hypothesis-bound", str(rng.choice(SMALL_BOUNDS))]))
        reqs.append(self._unique(lambda: Request(
            "verify", ["verify-theorem", "--file", f"tables/{rng.choice(TABLE_NAMES)}.semiring",
                       "--max-degree", str(rng.randint(1, 3)), "--window", str(rng.randint(1, 3))])))
        reqs.append(self._unique(lambda: Request(
            "hunt", ["hunt", "--max-order", str(rng.randint(2, 3)), "--max-degree",
                     str(rng.randint(1, 2)), "--budget", str(rng.randrange(10**5, 10**6))])))
        reqs.append(self._axioms(True))
        reqs.append(self._axioms(False))
        for which in rng.sample(range(4), 3):
            reqs.append(self._malformed(which))
        reqs.extend(self._robustness(b))
        rng.shuffle(reqs)
        self.batches[b] = reqs
        return reqs

    def _finite_criterion(self, name, flag, gens):
        c = self.tables[name]
        coeffs = finite_coeffs(self.rng, len(c.names), self.rng.randint(1, 3))
        spec = SetSpec(c, checks.closure(c, {c.literal(gens)}))
        argv = ["eisenstein", "--file", f"tables/{name}.semiring", flag, gens,
                checks.format_poly(c, coeffs)]
        return Request("criterion", argv, carrier=c, spec=spec, coeffs=coeffs)

    # -- running -----------------------------------------------------------

    def run_pass(self, b, mark=_no_mark):
        run = self._run_in_process if self.in_process else self._run_child
        out = []
        for i, req in enumerate(self.batch(b)):
            mark(i)
            t0 = time.perf_counter()
            result, rss_mb = run(req.argv)
            out.append((time.perf_counter() - t0, result))
            robust = req.kind == "robustness"
            self.child_peaks[robust] = max(self.child_peaks[robust], rss_mb)
        return out

    def _run_child(self, argv):
        """(code, stdout, stderr, timed out) and the child's own peak RSS in
        MB, read from its rusage when it is reaped."""
        cmd = [sys.executable, "-m", "eisenring.cli", "--json", *argv]
        with tempfile.TemporaryFile(dir=self.workdir.name) as out, \
                tempfile.TemporaryFile(dir=self.workdir.name) as err:
            p = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                                 preexec_fn=_limit_child)
            status = None
            old = signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except RequestTimeout:
                pass
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            timed_out = status is None
            if timed_out:
                p.kill()
                _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
            out.seek(0)
            err.seek(0)
            text = (out.read().decode(errors="replace"), err.read().decode(errors="replace"))
        code = None if timed_out else p.returncode
        return (code, *text, timed_out), usage.ru_maxrss / 1024

    def _run_in_process(self, argv):
        from eisenring.cli import run_cli

        out, err = io.StringIO(), io.StringIO()
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
        try:
            code = run_cli(["--json", *argv], stdout=out, stderr=err)
        except RequestTimeout:
            return (None, "", "", True), 0.0
        except Exception:  # a traceback is the answer being measured
            err.write(traceback.format_exc())
            code = 1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        return (code, out.getvalue(), err.getvalue(), False), 0.0

    def check_pass(self, b, records):
        return [check_request(req, rec) for req, (_, rec) in zip(self.batch(b), records)]

    def peak_rss_mb(self):
        """The largest peak RSS of one request child, robustness inputs
        aside: those run until the child's memory limit stops them."""
        return self.child_peaks[False]

    def notes(self):
        kinds = {}
        for reqs in self.batches.values():
            for req in reqs:
                kinds[req.kind] = kinds.get(req.kind, 0) + 1
        return {"requests_by_kind": kinds,
                "robustness_child_peak_rss_mb": self.child_peaks[True]}


def _trace_precondition(spec, g, h):
    """The argument needs the factor playing c to have a coefficient
    outside the ideal whenever roles are assignable."""
    g0_in, h0_in = spec.member(g[0]), spec.member(h[0])
    if g0_in and h0_in:
        return True
    c = h if not g0_in else g
    return any(not spec.member(v) for v in c)


def _expected_trace(spec, g, h):
    c_ = spec.carrier
    product = checks.convolve(c_, g, h)
    g0_in, h0_in = spec.member(g[0]), spec.member(h[0])
    if g0_in and h0_in:
        return product, {"outcome": "constant-terms-in-ideal",
                         "constant_product_in_square": spec.member_square(product[0])}
    c = h if not g0_in else g
    m = next(k for k, v in enumerate(c) if not spec.member(v))
    a_m = product[m] if m < len(product) else c_.zero
    return product, {"outcome": "traced", "m": m, "a_m_in_ideal": spec.member(a_m)}


def check_request(req, result):
    code, out, err, timed_out = result
    reason = _request_failure(req, code, out, err, timed_out)
    if reason and req.kind == "robustness":
        return f"{checks.KNOWN_ROBUSTNESS}: {reason}"
    return reason


def _request_failure(req, code, out, err, timed_out):
    if timed_out:
        return f"timeout after {REQUEST_TIMEOUT_S:g} s"
    if code is not None and code < 0:
        return f"killed by signal {-code}"
    if "Traceback" in err:
        return "traceback: " + (err.strip().splitlines() or ["?"])[-1][:120]
    if req.kind in ("malformed", "robustness") and code == 1:
        return None if err.startswith("error:") else "exit 1 without an error message"
    if req.kind == "malformed":
        return f"exit {code} for a malformed input, expected 1"
    d = req.data
    if req.kind == "criterion":
        verdict, failing = checks.expected_verdict(d["spec"], d["coeffs"])
        want = {"satisfied": 0, "not-applicable": 2}.get(verdict, 1)
    elif req.kind == "ideal":
        want = 0 if d["spec"].hypothesis() else 2
    elif req.kind == "factor":
        want = 0 if d["found"] else 2
    elif req.kind == "axioms":
        want = 0 if d["valid"] else 2
    else:  # trace, verify, hunt and robustness answers are reports
        want = code if req.kind in ("hunt", "robustness") and code in (0, 2) else 0
    if code != want:
        return f"exit {code}, expected {want}"
    if code == 1:
        return None
    try:
        doc = json.loads(out)
    except ValueError:
        return "no JSON report"
    if req.kind == "criterion":
        if checks.parse_poly(d["carrier"], doc["polynomial"]) != d["coeffs"]:
            return "report is about another polynomial"
        return checks.check_verdict(d["spec"], d["coeffs"], doc["verdict"], doc["failing_condition"])
    if req.kind == "ideal":
        return None if doc["all_hold"] == d["spec"].hypothesis() else "all_hold disagrees"
    if req.kind == "factor" and doc["result"] == "found":
        c = d["carrier"]
        return checks.check_witness(c, d["coeffs"], checks.parse_poly(c, doc["g"]),
                                    checks.parse_poly(c, doc["h"]))
    if req.kind == "trace":
        c = d["carrier"]
        product, fields = _expected_trace(d["spec"], d["g"], d["h"])
        if checks.parse_poly(c, doc["product"]) != product:
            return "trace product does not match g*h"
        for key, value in fields.items():
            if doc[key] != value:
                return f"trace {key} is {doc[key]}, expected {value}"
    if req.kind == "verify":
        if doc["violations"]:  # every table file is an entire carrier
            return "violations reported on an entire carrier"
    if req.kind == "hunt":
        return _check_hunt_findings(doc["findings"], code)
    if req.kind == "axioms" and doc["all_pass"] != d["valid"]:
        return "axiom verdict disagrees"
    return None


def _check_hunt_findings(findings, code=None):
    counterexamples = [f for f in findings if f["kind"] == "criterion-counterexample"]
    if code is not None and code != (2 if counterexamples else 0):
        return "hunt exit code disagrees with its findings"
    for f in counterexamples:
        n = len(f["add_table"])
        c = checks.table_carrier("hunt", [str(i) for i in range(n)], f["add_table"], f["mul_table"])
        d = f["detail"]
        wrong = checks.check_witness(c, checks.parse_poly(c, d["polynomial"]),
                                     checks.parse_poly(c, d["g"]), checks.parse_poly(c, d["h"]))
        if wrong:
            return "hunt witness: " + wrong
    return None


# ---------------------------------------------------------------------------
# sweep

SWEEP_BOUND = 1024  # a user-chosen bound; its certificates are built in set-up
# polynomials per pass: (carrier, count, criterion-shaped share)
SWEEP_MIX = (("nat", 6000, 0.10), ("gcd-nat", 2000, 0.10), ("tropical-min", 2000, 0.10),
             ("bool", 500, 0.0), ("z2", 500, 0.0), ("z3", 500, 0.0), ("n3", 500, 0.0))


class Sweep:
    name = "sweep"
    same_inputs_each_pass = True
    rss_of = "the workload process after set-up and the first pass"

    def __init__(self, seed: int):
        self.rng = random.Random(f"sweep:{seed}")

    def setup(self):
        import eisenring as er

        self.er = er
        own = {"nat": NAT, "gcd-nat": GCD, "tropical-min": TROPICAL, **table_carriers()}
        self.own = own
        carriers, ideals, specs = {}, {}, {}
        for name, primes in (("nat", (2, 3, 5)), ("gcd-nat", (2, 3)), ("tropical-min", (1,))):
            S = er.builtin_semiring(name)
            carriers[name] = S
            ideals[name] = [er.principal_ideal(S, p) for p in primes]
            specs[name] = [PrincipalSpec(own[name], p) for p in primes]
        for name in TABLE_NAMES:
            fs = er.parse_semiring_file((ROOT / "tables" / f"{name}.semiring").read_text())
            S = er.from_table(fs, name=name)
            carriers[name] = S
            subsets = er.enumerate_ideals(fs)
            ideals[name] = [er.FiniteSetIdeal(S, s) for s in subsets]
            specs[name] = [SetSpec(own[name], s) for s in subsets]
        for group in ideals.values():
            for ideal in group:
                ideal.predicates(SWEEP_BOUND)
        self.carriers, self.ideals, self.specs = carriers, ideals, specs
        self.inputs = self._inputs()
        self.expected = None

    def close(self):
        pass

    def _inputs(self):
        rng = self.rng
        out = []
        for name, count, shaped in SWEEP_MIX:
            c = self.own[name]
            for i in range(count):
                if name == "nat":
                    degree = 1 + i % 4
                    if i < count * shaped:
                        coeffs = criterion_coeffs(rng, rng.choice((2, 3, 5)), degree, 0)
                    else:
                        coeffs = random_coeffs(rng, degree, 30)
                elif name == "gcd-nat":
                    # small coefficients: the semi-decision search runs over the
                    # divisors of their product, whose count varies widely
                    degree = 1 + i % 3
                    if i < count * shaped:
                        coeffs = criterion_coeffs(rng, rng.choice((2, 3)), degree, 0, top=2)
                    else:
                        coeffs = random_coeffs(rng, degree, 8)
                elif name == "tropical-min":
                    degree = 1 + i % 3
                    shape = 0 if i < count * shaped else rng.randint(1, 3)
                    coeffs = tropical_coeffs(rng, degree, shape)
                else:
                    coeffs = finite_coeffs(rng, len(c.names), 1 + i % 3)
                out.append((name, coeffs))
        rng.shuffle(out)
        return out

    def run_pass(self, b, mark=_no_mark):
        er = self.er
        Polynomial, check, search = er.Polynomial, er.check_eisenstein, er.search_factorizations
        carriers, ideals = self.carriers, self.ideals
        clock = time.perf_counter
        out = []
        for i, (name, coeffs) in enumerate(self.inputs):
            mark(i)
            t0 = clock()
            try:
                f = Polynomial(carriers[name], coeffs)
                verdicts = []
                searched = None
                for ideal in ideals[name]:
                    r = check(f, ideal, SWEEP_BOUND)
                    verdicts.append((r.verdict.value, r.failing_condition))
                    if searched is None and r.satisfied:
                        s = search(f)
                        searched = (s.found, s.complete,
                                    s.g.coeffs if s.found else None, s.h.coeffs if s.found else None)
                record = (tuple(verdicts), searched)
            except Exception as exc:  # counted as a failed op
                record = (_raised(exc), None)
            out.append((clock() - t0, record))
        return out

    def check_pass(self, b, records):
        if self.expected is None:
            self.expected = [
                tuple(checks.expected_verdict(spec, coeffs) for spec in self.specs[name])
                for name, coeffs in self.inputs
            ]
        reasons = []
        for (name, coeffs), want, (_, (verdicts, searched)) in zip(self.inputs, self.expected, records):
            reason = None
            if isinstance(verdicts, str):
                reason = verdicts
            elif verdicts != want:
                reason = f"{name}: verdicts {verdicts}, expected {want}"
            elif searched is not None:
                found, complete, g, h = searched
                reason = checks.check_satisfied_search(self.own[name], coeffs, found, g, h)
                if reason is None and not complete and name != "gcd-nat":
                    # only gcd-nat's search is a semi-decision; the others are exhaustive
                    reason = f"{name}: the factor search gave up (complete=False)"
            elif any(v == "satisfied" for v, _ in verdicts):
                reason = "Satisfied verdict without a search"
            reasons.append(reason)
        return reasons

    def notes(self):
        satisfied = sum(any(v == "satisfied" for v, _ in w) for w in self.expected)
        return {"polynomials_per_pass": len(self.inputs),
                "satisfied_share": satisfied / len(self.inputs)}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# census

CENSUS_ORDERS = (2, 3, 4)
CENSUS_COUNTS = {2: 2, 3: 6, 4: 36}  # commutative semirings up to isomorphism
CENSUS_DEGREE = {2: 3, 3: 3, 4: 2}  # degree caps that fit a pass in a few seconds
CENSUS_WINDOW = 2  # factor degree sums up to n + 2 where leading terms can cancel
HUNT_ARGS = (4, 3)


class Census:
    name = "census"
    same_inputs_each_pass = True
    rss_of = "the workload process after set-up and the first pass"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        import eisenring as er

        self.er = er
        self.perms = {}
        self.expected = {}

    def close(self):
        pass

    def _perm(self, order, i):
        """A seeded relabelling of the non-identity elements: an isomorphic
        copy of the enumerated table, so every count is seed-independent."""
        key = (order, i)
        if key not in self.perms:
            rng = random.Random(f"census:{self.seed}:{order}:{i}")
            self.perms[key] = [0, 1] + rng.sample(range(2, order), order - 2)
        return self.perms[key]

    def run_pass(self, b, mark=_no_mark):
        er = self.er
        clock = time.perf_counter
        tables = []
        for order in CENSUS_ORDERS:
            for i, fs in enumerate(er.enumerate_semirings(order)):
                tables.append((order, i, fs))
        self.enumerated = {o: sum(1 for t in tables if t[0] == o) for o in CENSUS_ORDERS}
        random.Random(f"census-order:{self.seed}").shuffle(tables)
        out = []
        for k, (order, i, fs) in enumerate(tables):
            mark(k)
            add, mul = relabel(self._perm(order, i), fs.add_table, fs.mul_table)
            own = checks.table_carrier("census", fs.element_names, add, mul)
            relabelled = er.FiniteSemiring(order, fs.element_names, own.add_rows, own.mul_rows)
            t0 = clock()
            try:
                stats = er.verify_theorem(er.from_table(relabelled), CENSUS_DEGREE[order],
                                          window=CENSUS_WINDOW)
                record = ("semiring", (order, i, own), (stats.criterion_applicable, [
                    (w.polynomial, w.g, w.h) for w in stats.violation_witnesses]))
            except Exception as exc:  # counted as a failed op
                record = ("error", None, _raised(exc))
            out.append((clock() - t0, record))
        mark(len(tables))
        t0 = clock()
        try:
            report = er.hunt_subtractivity(*HUNT_ARGS)
            record = ("hunt", None, [f.as_dict() for f in report.findings])
        except Exception as exc:
            record = ("error", None, _raised(exc))
        out.append((clock() - t0, record))
        return out

    def check_pass(self, b, records):
        if self.enumerated != CENSUS_COUNTS:
            wrong = f"enumeration gave {self.enumerated}, expected {CENSUS_COUNTS}"
            return [wrong] * len(records)
        reasons = []
        self.wrong_certificates = 0
        for _, (kind, key, found) in records:
            if kind != "semiring":
                reasons.append(found if kind == "error" else _check_hunt_findings(found))
                continue
            order, i, own = key
            applicable, found = found
            if (order, i) not in self.expected:
                self.expected[order, i] = checks.census_expectation(
                    own, CENSUS_DEGREE[order], CENSUS_WINDOW)
            want_applicable, want_refuted = self.expected[order, i]
            reason = None
            if applicable != want_applicable:
                reason = f"{applicable} Satisfied verdicts, expected {want_applicable}"
            elif len(found) != want_refuted:
                reason = f"{len(found)} violations reported, the factor search finds {want_refuted}"
            entire = checks.is_entire(own)
            for poly, g, h in found:
                r = checks.check_satisfied_search(
                    own, checks.parse_poly(own, poly), True,
                    checks.parse_poly(own, g), checks.parse_poly(own, h), entire=entire)
                if not r.startswith("search witness is wrong"):
                    self.wrong_certificates += 1
                if reason is None or checks.is_known(reason):
                    reason = r
            reasons.append(reason)
        return reasons

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def notes(self):
        return {"wrong_certificates_per_pass": self.wrong_certificates,
                "semirings_per_order": self.enumerated}


def relabel(perm, add, mul):
    """The tables of the isomorphic copy that renames element a to perm[a]."""
    n = len(perm)
    add2 = [[0] * n for _ in range(n)]
    mul2 = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            add2[perm[a]][perm[b]] = perm[add[a][b]]
            mul2[perm[a]][perm[b]] = perm[mul[a][b]]
    return add2, mul2


WORKLOADS = {w.name: w for w in (CliOneshot, Sweep, Census)}
