"""Exact scalar arithmetic: rationals, sparse parameter polynomials, and a
single-square-root quadratic extension.

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always normalised, positive denominator).  A polynomial is a dict mapping
monomials to rational coefficients; a monomial is a tuple of ``(name, exp)``
pairs sorted by name, so equal polynomials have identical representations
and the zero polynomial is the empty dict.  This makes identity testing a
structural comparison, with no tolerances anywhere.

Coefficient expressions in files and on the command line use a small grammar
over the indeterminates ``a``, ``b``, ``g``, ``l``::

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := rational ('*' factor)* | factor ('*' factor)*
    rational := integer ('/' positive-integer)?
    factor   := name ('^' positive-integer)?

Whitespace is insignificant.  Examples: ``1/2``, ``-1-b``, ``2*a*b``, ``a^2``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import CoefficientSyntaxError, MissingAssignment

Rational = Fraction

#: Indeterminates admitted in files and CLI arguments (ASCII spellings).
PARAM_NAMES = ("a", "b", "g", "l")

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by name
Scalar = Union[int, Fraction, "Poly"]


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mono_key(m: Monomial):
    # total degree, then lexicographic; used only for canonical printing
    return (sum(e for _, e in m), m)


class Poly:
    """Sparse multivariate polynomial with Fraction coefficients.

    Instances are treated as immutable: every operation returns a new
    polynomial, and constructors prune zero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None, _trusted: bool = False):
        if terms is None:
            self.terms = {}
        elif _trusted:
            self.terms = dict(terms)
        else:
            self.terms = {m: Fraction(c) for m, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value) -> "Poly":
        c = Fraction(value)
        if c == 0:
            return cls()
        return cls({(): c}, _trusted=True)

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({((name, 1),): Fraction(1)}, _trusted=True)

    @classmethod
    def coerce(cls, value: Scalar) -> "Poly":
        if isinstance(value, Poly):
            return value
        return cls.const(value)

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero for the empty one)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms[()]

    def variables(self) -> frozenset:
        return frozenset(name for m in self.terms for name, _ in m)

    def degree_in(self, names) -> int:
        """Total degree counting only the listed variable names."""
        names = set(names)
        best = 0
        for m in self.terms:
            d = sum(e for n, e in m if n in names)
            if d > best:
                best = d
        return best

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: Scalar) -> "Poly":
        other = Poly.coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(out, _trusted=True)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, _trusted=True)

    def __sub__(self, other: Scalar) -> "Poly":
        return self + (-Poly.coerce(other))

    def __rsub__(self, other: Scalar) -> "Poly":
        return Poly.coerce(other) + (-self)

    def __mul__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            if c0 == 0:
                return Poly()
            return Poly({m: c * c0 for m, c in self.terms.items()}, _trusted=True)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(out, _trusted=True)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Poly":
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- substitution / evaluation -------------------------------------------

    def subs(self, mapping: Mapping[str, Scalar]) -> "Poly":
        """Substitute polynomials or rationals for variables.

        Variables absent from ``mapping`` are kept.  Substitution is a ring
        homomorphism, so it distributes over the stored terms: each term's
        expansion is accumulated straight into one coefficient dict, and each
        power of a substituted value is expanded once per call.
        """
        if not mapping:
            return self
        touched = self.variables() & set(mapping)
        if not touched:
            return self
        powers: dict = {}
        out: dict = {}
        for m, c in self.terms.items():
            partial = {tuple(f for f in m if f[0] not in touched): c}
            for name, e in m:
                if name not in touched:
                    continue
                power = powers.get((name, e))
                if power is None:
                    power = Poly.coerce(mapping[name])
                    power = powers[(name, e)] = (power if e == 1 else power ** e).terms
                expanded: dict = {}
                for m1, c1 in partial.items():
                    for m2, c2 in power.items():
                        mono = _mono_mul(m1, m2)
                        coeff = c1 * c2
                        expanded[mono] = (expanded[mono] + coeff
                                          if mono in expanded else coeff)
                partial = expanded
            for mono, coeff in partial.items():
                out[mono] = out[mono] + coeff if mono in out else coeff
        return Poly({m: c for m, c in out.items() if c}, _trusted=True)

    def eval(self, assign: Mapping[str, Fraction]) -> Fraction:
        """Exact evaluation; every occurring variable must be assigned."""
        missing = self.variables() - set(assign)
        if missing:
            raise MissingAssignment(
                "no value for " + ", ".join(sorted(missing)))
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for name, e in m:
                v *= Fraction(assign[name]) ** e
            total += v
        return total

    # -- solver helpers --------------------------------------------------------

    def linear_parts(self, name: str) -> tuple["Poly", "Poly"]:
        """Write ``self = A*name + B`` with neither part containing ``name``.

        Requires the degree in ``name`` to be at most one.
        """
        a: dict = {}
        b: dict = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.pop(name, 0)
            if e == 0:
                b[m] = c
            elif e == 1:
                a[tuple(sorted(exps.items()))] = c
            else:
                raise ValueError(f"degree in {name} exceeds 1")
        return Poly(a, _trusted=True), Poly(b, _trusted=True)

    def divide_by_var(self, name: str) -> "Poly | None":
        """Quotient by ``name`` if it divides every term, else None."""
        out: dict = {}
        for m, c in self.terms.items():
            exps = dict(m)
            if exps.get(name, 0) < 1:
                return None
            exps[name] -= 1
            if exps[name] == 0:
                del exps[name]
            out[tuple(sorted(exps.items()))] = c
        return Poly(out, _trusted=True)

    def normalized_key(self) -> tuple:
        """Canonical key identifying the equation ``self = 0`` up to scaling."""
        if not self.terms:
            return ()
        items = sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]))
        lead = items[-1][1]
        if lead == 1:
            return tuple(items)
        return tuple((m, c / lead) for m, c in items)

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


def format_poly(p: Poly) -> str:
    """Canonical text form; parsing it back yields the same polynomial."""
    if not p.terms:
        return "0"
    pieces = []
    for m in sorted(p.terms, key=_mono_key):
        c = p.terms[m]
        factors = ["%s^%d" % (n, e) if e > 1 else n for n, e in m]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += sign + body
    return text


# -- coefficient-expression parser ---------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def fail(self, message: str):
        raise CoefficientSyntaxError(message, self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        return int(self.text[start:self.pos])


def poly_parse(text: str, names: Iterable[str] = PARAM_NAMES) -> Poly:
    """Parse a coefficient expression into a canonical polynomial.

    ``names`` lists the admissible indeterminates; anything else is an
    error with a position.  Parsing then printing then parsing is a fixed
    point.
    """
    names = tuple(names)
    sc = _Scanner(text)
    result = _parse_expr(sc, names)
    sc.skip_ws()
    if sc.pos != len(text):
        sc.fail(f"unexpected character {text[sc.pos]!r}")
    return result


def _parse_expr(sc: _Scanner, names) -> Poly:
    total = Poly.zero()
    sign = 1
    if sc.peek() in ("+", "-"):
        sign = -1 if sc.take() == "-" else 1
    total = total + _parse_term(sc, names) * sign
    while sc.peek() in ("+", "-"):
        sign = -1 if sc.take() == "-" else 1
        total = total + _parse_term(sc, names) * sign
    return total


def _parse_term(sc: _Scanner, names) -> Poly:
    ch = sc.peek()
    if ch.isdigit():
        value = _parse_rational(sc)
        term = Poly.const(value)
    elif ch.isalpha():
        term = _parse_factor(sc, names)
    else:
        sc.fail("expected a rational or an indeterminate")
    while sc.peek() == "*":
        sc.take()
        term = term * _parse_factor(sc, names)
    return term


def _parse_rational(sc: _Scanner) -> Fraction:
    num = sc.integer()
    if sc.peek() == "/":
        at = sc.pos
        sc.take()
        den = sc.integer()
        if den == 0:
            raise CoefficientSyntaxError("division by zero literal", at)
        return Fraction(num, den)
    return Fraction(num)


def _parse_factor(sc: _Scanner, names) -> Poly:
    sc.skip_ws()
    start = sc.pos
    while sc.pos < len(sc.text) and (sc.text[sc.pos].isalnum() or sc.text[sc.pos] == "_"):
        sc.pos += 1
    name = sc.text[start:sc.pos]
    if not name:
        sc.fail("expected an indeterminate name")
    if name not in names:
        raise CoefficientSyntaxError(f"unknown indeterminate {name!r}", start)
    exp = 1
    if sc.peek() == "^":
        at = sc.pos
        sc.take()
        exp = sc.integer()
        if exp < 1:
            raise CoefficientSyntaxError("exponent must be positive", at)
    return Poly({((name, exp),): Fraction(1)}, _trusted=True)


def parse_rational(text: str) -> Fraction:
    """Parse a (possibly signed) rational literal such as ``-3/4``."""
    sc = _Scanner(text)
    sign = 1
    if sc.peek() in ("+", "-"):
        sign = -1 if sc.take() == "-" else 1
    value = _parse_rational(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        sc.fail(f"unexpected character {text[sc.pos]!r}")
    return sign * value


# -- quadratic extension ---------------------------------------------------------


def is_rational_square(q: Fraction) -> bool:
    """True when ``q`` is the square of a rational."""
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    return rn * rn == n and rd * rd == d


def rational_sqrt(q: Fraction) -> Fraction:
    """Exact square root of a rational square."""
    if not is_rational_square(q):
        raise ValueError(f"{q} is not a rational square")
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


class QuadExt:
    """Element a + b*sqrt(d) of the quadratic extension with radicand d.

    The radicand must not be a rational square; otherwise the value would
    be an ordinary rational and the construction is rejected.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = Fraction(d)
        if is_rational_square(self.d):
            raise ValueError(f"radicand {self.d} is a rational square")

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError("mixed radicands")
            return other
        return QuadExt(Fraction(other), 0, self.d)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadExt(self.a * o.a + self.b * o.b * self.d,
                       self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """a^2 - b^2*d, the product with the conjugate (a rational)."""
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("element has zero norm")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a or self.b)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        b = str(self.b) + "*" if abs(self.b) != 1 else ("-" if self.b < 0 else "")
        root = f"sqrt({self.d})"
        if self.a == 0:
            return b + root
        tail = b + root if b.startswith("-") else "+" + b + root
        return str(self.a) + tail

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"
