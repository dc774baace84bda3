"""Dense univariate polynomials over an arbitrary semiring.

Coefficients are stored low degree first as raw carrier values.  The
canonical form is eager: either the sequence is empty (the zero
polynomial) or the leading coefficient differs from the semiring zero,
which for the tropical carrier is infinity.  Equality is structural.

Expression grammar (whitespace insensitive):

    poly   := term ('+' term)*
    term   := coeff | coeff '*' xpow | xpow
    xpow   := 'x' | 'x' '^' nat
    coeff  := nat-literal | 'inf' | element-name

'+' always denotes the addition of the active semiring, so repeated
exponents are combined with it.  Exponents above MAX_PARSE_DEGREE are
rejected before any coefficient list is built.
"""

from __future__ import annotations

import re

from .errors import DegreeTooLargeError, PolySyntaxError, SemiringMismatchError
from .semirings import SemiringDescriptor

MAX_PARSE_DEGREE = 100_000

_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<word>[A-Za-z_][A-Za-z0-9_]*|\d+)|(?P<op>[+*^])")


class Polynomial:
    """An immutable coefficient sequence tied to one semiring."""

    __slots__ = ("semiring", "coeffs")

    def __init__(self, semiring: SemiringDescriptor, coefficients=()):
        vals = semiring.check_values(coefficients)
        zero = semiring.zero_value
        while vals and vals[-1] == zero:
            vals.pop()
        object.__setattr__(self, "semiring", semiring)
        object.__setattr__(self, "coeffs", tuple(vals))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ------------------------------------------------------

    @property
    def degree(self):
        """Index of the leading nonzero coefficient; None for the zero
        polynomial.  Non-constant means degree >= 1."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff_value(self, k: int):
        """Raw coefficient of x^k (the semiring zero beyond the degree)."""
        return self.coeffs[k] if k < len(self.coeffs) else self.semiring.zero_value

    # -- equality -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.semiring == other.semiring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.semiring, self.coeffs))

    # -- arithmetic -------------------------------------------------------------

    def _check_same(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected a Polynomial, got {type(other).__name__}")
        if other.semiring != self.semiring:
            raise SemiringMismatchError(
                f"polynomials over {self.semiring.name} and {other.semiring.name}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same(other)
        S = self.semiring
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = S.add_values(out[i], v)
        return Polynomial(S, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same(other)
        S = self.semiring
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial(S, ())
        add, mul = S.add_values, S.mul_values
        out = [None] * (len(a) + len(b) - 1)
        for i, av in enumerate(a):
            for j, bv in enumerate(b):
                t = mul(av, bv)
                k = i + j
                out[k] = t if out[k] is None else add(out[k], t)
        return Polynomial(S, out)

    def eval(self, x):
        """f(x) by Horner's rule with the semiring operations.  ``x`` is a
        raw carrier value, checked with ``check_value``; the result is a
        raw carrier value too."""
        S = self.semiring
        xv = S.check_value(x)
        acc = S.zero_value
        for c in reversed(self.coeffs):
            acc = S.add_values(S.mul_values(acc, xv), c)
        return acc

    # -- text -----------------------------------------------------------------

    def format(self) -> str:
        """Highest degree first, explicit '*' and '^'; coefficients equal to
        the semiring one are omitted in front of x powers."""
        S = self.semiring
        if not self.coeffs:
            return S.format_value(S.zero_value)
        one = S.one_value
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == S.zero_value:
                continue
            if k == 0:
                parts.append(S.format_value(c))
            else:
                xpow = "x" if k == 1 else f"x^{k}"
                parts.append(xpow if c == one else f"{S.format_value(c)}*{xpow}")
        return " + ".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"Polynomial({self.semiring.name}: {self.format()})"

    @classmethod
    def parse(cls, text: str, semiring: SemiringDescriptor) -> "Polynomial":
        tokens = _tokenize(text)
        pos = 0

        def peek():
            return tokens[pos]

        def advance():
            nonlocal pos
            tok = tokens[pos]
            pos += 1
            return tok

        def parse_xpow(start):
            # caller consumed the 'x'
            if peek()[0] == "op" and peek()[1] == "^":
                advance()
                kind, text_, at = advance()
                if kind != "word" or not text_.isdigit():
                    raise PolySyntaxError("expected a natural exponent after '^'", position=at)
                digits = text_.lstrip("0") or "0"
                if len(digits) > len(str(MAX_PARSE_DEGREE)) or int(digits) > MAX_PARSE_DEGREE:
                    raise DegreeTooLargeError(
                        f"position {at}: exponents above {MAX_PARSE_DEGREE} are not supported"
                    )
                return int(digits)
            return 1

        def parse_term():
            kind, text_, at = advance()
            if kind != "word":
                raise PolySyntaxError(f"expected a term, got {text_!r}", position=at)
            if text_ == "x":
                return parse_xpow(at), semiring.one_value
            try:
                coeff = semiring.parse_literal(text_)
            except PolySyntaxError as exc:
                raise type(exc)(str(exc), position=at) from None
            if peek()[0] == "op" and peek()[1] == "*":
                advance()
                kind, text_, at = advance()
                if kind != "word" or text_ != "x":
                    raise PolySyntaxError("expected 'x' after '*'", position=at)
                return parse_xpow(at), coeff
            return 0, coeff

        terms = {}
        while True:
            exp, coeff = parse_term()
            if exp in terms:
                terms[exp] = semiring.add_values(terms[exp], coeff)
            else:
                terms[exp] = coeff
            kind, text_, at = peek()
            if kind == "end":
                break
            if kind == "op" and text_ == "+":
                advance()
                continue
            raise PolySyntaxError(f"expected '+' or end of input, got {text_!r}", position=at)

        top = max(terms)
        zero = semiring.zero_value
        return cls(semiring, [terms.get(k, zero) for k in range(top + 1)])


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolySyntaxError(f"unexpected character {text[pos]!r}", position=pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    if not tokens:
        raise PolySyntaxError("empty polynomial expression", position=0)
    tokens.append(("end", "", len(text)))
    return tokens
