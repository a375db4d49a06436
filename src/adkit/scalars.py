"""Exact scalar arithmetic: rationals, sparse parameter polynomials, and a
single-square-root quadratic extension.

Rationals are plain ``fractions.Fraction`` values (arbitrary precision,
always normalised, positive denominator).  A polynomial is a dict mapping
monomials to rational coefficients; a monomial is a tuple of ``(name, exp)``
pairs sorted by name, so equal polynomials have identical representations
and the zero polynomial is the empty dict.  This makes identity testing a
structural comparison, with no tolerances anywhere.

A coefficient is stored as an ``int`` when it is integral and as a
``Fraction`` only when its denominator exceeds 1; every operation that
builds a polynomial turns an integral result back into an ``int``, and
``eval`` returns its value under the same rule.  The solver's systems come
from integer structure constants, so nearly every coefficient and sampled
value is an integer, and int arithmetic skips the normalisation that each
Fraction operation pays for.  The two types compare and hash alike, and
both have ``numerator`` and ``denominator``, so the rule changes no value,
key or printed form.  A coefficient or value that is to be divided must be
made a Fraction first (``constant_value`` returns one), since int / int is
a float.

Coefficient expressions in files and on the command line use a small grammar
over the indeterminates ``a``, ``b``, ``g``, ``l``::

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := rational ('*' factor)* | factor ('*' factor)*
    rational := integer ('/' positive-integer)?
    factor   := name ('^' positive-integer)?

Integers are ASCII digits.  Whitespace is insignificant.  Examples: ``1/2``,
``-1-b``, ``2*a*b``, ``a^2``.
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


def _num(c):
    """``c`` as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _ints(terms: dict) -> dict:
    """``terms`` with each integral Fraction turned into an int, in place."""
    for m, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[m] = c.numerator
    return terms


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) == 1 == len(m2):  # u*v, the solver's most common product
        (n1, e1), = m1
        (n2, e2), = m2
        if n1 == n2:
            return ((n1, e1 + e2),)
        return m1 + m2 if n1 < n2 else m2 + m1
    exps: dict = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _times(p: dict, q: dict) -> dict:
    """The terms of the product of the polynomials with terms p and q."""
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            if m not in out:
                out[m] = c1 * c2
                continue
            s = out[m] + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return _ints(out)


def _plus(p: dict, q: dict, sign: int) -> dict:
    """The terms of p + sign*q, sign being 1 or -1, in one pass over q."""
    out = dict(p)
    for m, c in q.items():
        if sign < 0:
            c = -c
        if m not in out:
            out[m] = c
            continue
        s = out[m] + c
        if not s:
            del out[m]
        elif type(s) is int or s.denominator != 1:
            out[m] = s
        else:
            out[m] = s.numerator
    return out


def _power(powers: dict, mapping: Mapping, f: tuple) -> dict:
    """The terms of ``mapping[name] ** e`` for the factor f = (name, e),
    expanded on first use and kept in ``powers``."""
    power = powers.get(f)
    if power is None:
        value = Poly.coerce(mapping[f[0]])
        power = powers[f] = (value if f[1] == 1 else value ** f[1]).terms
    return power


def _primitive(monos: tuple, nums) -> tuple:
    """The key of ``monos`` with integer coefficients ``nums``: divided by
    their gcd, signed to make the last one positive."""
    g = math.gcd(*nums)
    if nums[-1] < 0:
        g = -g
    if g != 1:
        nums = [x // g for x in nums]
    return monos + tuple(nums)


def _mono_key(m: Monomial):
    # total degree, then lexicographic; used only for canonical printing
    return (sum(e for _, e in m), m)


class Poly:
    """Sparse multivariate polynomial with rational coefficients.

    Instances are treated as immutable: every operation returns a new
    polynomial, and constructors prune zero coefficients.  A coefficient is
    an ``int`` when integral and a ``Fraction`` otherwise (see the module
    docstring): the solver's coefficients are almost all integers, and int
    arithmetic is several times cheaper than Fraction arithmetic.
    ``_trusted`` callers pass a dict of their own whose terms already follow
    this rule; the polynomial keeps that dict instead of copying it.
    """

    __slots__ = ("terms", "_key")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None, _trusted: bool = False):
        self._key = None
        if terms is None:
            self.terms = {}
        elif _trusted:
            self.terms = terms
        else:
            self.terms = {m: _num(c) for m, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value) -> "Poly":
        c = _num(value)
        if c == 0:
            return cls()
        return cls({(): c}, _trusted=True)

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1}, _trusted=True)

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
        return Fraction(self.terms[()])

    def variables(self) -> frozenset:
        return frozenset(name for m in self.terms for name, _ in m)

    def degree_in(self, names) -> int:
        """Total degree counting only the listed names (a set is read as is)."""
        if not isinstance(names, (set, frozenset)):
            names = set(names)
        best = 0
        for m in self.terms:
            d = sum(e for n, e in m if n in names)
            if d > best:
                best = d
        return best

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: Scalar) -> "Poly":
        return Poly(_plus(self.terms, Poly.coerce(other).terms, 1), _trusted=True)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()}, _trusted=True)

    def __sub__(self, other: Scalar) -> "Poly":
        return Poly(_plus(self.terms, Poly.coerce(other).terms, -1), _trusted=True)

    def __rsub__(self, other: Scalar) -> "Poly":
        return Poly.coerce(other) - self

    def __mul__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c0 = _num(other)
            if c0 == 0:
                return Poly()
            return Poly(_ints({m: c * c0 for m, c in self.terms.items()}),
                        _trusted=True)
        return Poly(_times(self.terms, other.terms), _trusted=True)

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
        if self.is_constant():  # equal to its value, so hashed as it
            return hash(self.terms.get((), 0))
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- substitution / evaluation -------------------------------------------

    def subs(self, mapping: Mapping[str, Scalar]) -> "Poly":
        """Substitute polynomials or rationals for variables, simultaneously.

        Variables absent from ``mapping`` are kept, and no value is itself
        substituted into.  Substitution is a ring homomorphism, so it
        distributes over the stored terms, and each term is read once: a
        term with no mapped variable passes through, a term with a mapped
        variable whose value is zero is dropped, and any other term adds its
        remaining monomial times the power of the value (times the powers of
        the values, when several mapped variables occur in it).  Each power
        is expanded once per call.  Returns ``self`` itself when no term
        holds a mapped variable.
        """
        out: dict = {}
        powers: dict = {}
        hit = False
        for m, c in self.terms.items():
            for f in m:
                if f[0] in mapping:
                    break
            else:  # no mapped variable: the term passes through as is
                if m in out:
                    c += out[m]
                    if not c:
                        del out[m]
                        continue
                    if type(c) is not int and c.denominator == 1:
                        c = c.numerator
                out[m] = c
                continue
            hit = True
            power = _power(powers, mapping, f)
            if not power:  # the value is zero, and so is the term
                continue
            i = m.index(f)
            rest = m[:i] + m[i + 1:]
            if len(mapping) > 1 and any(g[0] in mapping for g in rest):
                for g in rest:
                    if g[0] in mapping:
                        power = _times(power, _power(powers, mapping, g))
                rest = tuple(g for g in rest if g[0] not in mapping)
            for m2, c2 in power.items():
                mono = _mono_mul(rest, m2)
                c2 *= c
                if mono in out:
                    c2 += out[mono]
                    if not c2:
                        del out[mono]
                        continue
                if type(c2) is not int and c2.denominator == 1:
                    c2 = c2.numerator
                out[mono] = c2
        return Poly(out, _trusted=True) if hit else self

    def eval(self, assign: Mapping[str, Fraction]) -> int | Fraction:
        """Exact evaluation; every occurring variable must be assigned.

        Each term is read once.  A value that is neither an int nor a
        Fraction goes through ``Fraction``; the variable set is built only
        to name the missing ones in ``MissingAssignment``.  The result
        follows the coefficient rule: an int when integral, else a Fraction.
        """
        total = 0
        try:
            for m, c in self.terms.items():
                for name, e in m:
                    x = assign[name]
                    if type(x) is not int and type(x) is not Fraction:
                        x = Fraction(x)
                    c *= x if e == 1 else x ** e
                total += c
        except KeyError:
            raise MissingAssignment("no value for " + ", ".join(
                sorted(self.variables() - set(assign)))) from None
        return _num(total)

    # -- solver helpers --------------------------------------------------------

    def coefficients(self, name: str) -> dict:
        """Write ``self = sum of c_e * name^e``; returns ``{e: c_e}``.

        No c_e holds ``name`` and none is zero, so the keys are exactly the
        powers of ``name`` that occur (0 included when a term lacks it).
        Each term is read once; a monomial stays sorted when its ``name``
        factor is cut out.  The solver reads every move from this view: a
        linear pivot has the keys {0, 1} and a rational c_1, a solvable
        quadratic the keys {0, 1, 2} or fewer with a rational c_2, and
        ``name`` divides the polynomial exactly when 0 is not a key.
        """
        parts: dict = {}
        for m, c in self.terms.items():
            e = 0
            for i, (n, k) in enumerate(m):
                if n == name:
                    e = k
                    m = m[:i] + m[i + 1:]
                    break
            parts.setdefault(e, {})[m] = c
        return {e: Poly(part, _trusted=True) for e, part in parts.items()}

    def normalized_key(self) -> tuple:
        """Canonical key identifying the equation ``self = 0`` up to scaling.

        The key is the primitive integer form: the monomials in tuple order,
        then their coefficients scaled to coprime integers with the last one
        positive, so two polynomials share a key exactly when one is a
        nonzero rational multiple of the other.  It is computed once and
        kept on the polynomial.
        """
        key = self._key
        if key is None:
            if not self.terms:
                key = ()
            else:
                monos, coeffs = zip(*sorted(self.terms.items()))
                den = math.lcm(*[c.denominator for c in coeffs])
                nums = (list(coeffs) if den == 1 else
                        [c.numerator * (den // c.denominator) for c in coeffs])
                key = _primitive(monos, nums)
            self._key = key
        return key

    def part(self, terms: dict) -> "Poly":
        """The polynomial of ``terms``, some of this one's terms (the dict is
        kept, not copied), with its key read off this one's kept key: a
        key's integers are proportional to the coefficients, so the kept
        ones, in key order, only need ``_primitive`` again."""
        p = Poly(terms, _trusted=True)
        key = self._key
        if key:
            half = len(key) // 2
            monos, nums = [], []
            for i in range(half):
                if key[i] in terms:
                    monos.append(key[i])
                    nums.append(key[half + i])
            p._key = _primitive(tuple(monos), nums) if monos else ()
        return p

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


def _is_digit(ch: str) -> bool:
    """An ASCII digit; ``str.isdigit`` also takes superscripts, which
    ``int`` rejects, and other scripts' digits, which it reads."""
    return "0" <= ch <= "9"


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
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
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
    if _is_digit(ch):
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
    return Poly({((name, exp),): 1}, _trusted=True)


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

    Ring operations only: sums, differences, negation, products and
    comparison, with an int, a Fraction or a QuadExt of the same radicand.
    The radicand must not be a rational square, or the value would be an
    ordinary rational; the constructor rejects one, and arithmetic results
    share the checked radicand (``_make``).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = Fraction(d)
        if is_rational_square(self.d):
            raise ValueError(f"radicand {self.d} is a rational square")

    def _make(self, a: Fraction, b: Fraction) -> "QuadExt":
        out = object.__new__(QuadExt)
        out.a, out.b, out.d = a, b, self.d
        return out

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError("mixed radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return self._make(Fraction(other), Fraction(0))
        raise TypeError(f"cannot combine QuadExt with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return self._make(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._make(self.a * other, self.b * other)
        o = self._coerce(other)
        return self._make(self.a * o.a + self.b * o.b * self.d,
                          self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

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
