import operator
import random
from fractions import Fraction

import pytest

from adkit.errors import CoefficientSyntaxError, MissingAssignment
from adkit.scalars import (Poly, QuadExt, _mono_mul, format_poly,
                           is_rational_square, parse_rational, poly_parse,
                           rational_sqrt)

from conftest import off_int_rule, random_poly


def test_parse_constant():
    assert poly_parse("1/2") == Poly.const(Fraction(1, 2))


def test_parse_affine():
    p = poly_parse("-1-b")
    assert p == Poly.const(-1) - Poly.var("b")


def test_parse_difference_of_names():
    assert poly_parse("l-a") == Poly.var("l") - Poly.var("a")


def test_parse_product_and_power():
    assert poly_parse("2*a*b") == Poly.var("a") * Poly.var("b") * 2
    assert poly_parse("a^2") == Poly.var("a") ** 2


def test_parse_whitespace_insignificant():
    assert poly_parse(" 1/2 + 2 * a ") == poly_parse("1/2+2*a")


def test_parse_syntax_error_carries_position():
    with pytest.raises(CoefficientSyntaxError) as err:
        poly_parse("1+*a")
    assert err.value.position == 2


def test_parse_division_by_zero_literal():
    with pytest.raises(CoefficientSyntaxError):
        poly_parse("1/0")


def test_parse_unknown_indeterminate():
    with pytest.raises(CoefficientSyntaxError):
        poly_parse("x+1")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(CoefficientSyntaxError):
        poly_parse("a b")


@pytest.mark.parametrize("text", ["a^\u00b2", "\u00b2", "1/\u00b2", "\u0663", "2\u0663"])
def test_parse_takes_only_ascii_digits(text):
    # str.isdigit takes superscripts, which int() rejects, and other scripts' digits
    with pytest.raises(CoefficientSyntaxError):
        poly_parse(text)
    with pytest.raises(CoefficientSyntaxError):
        parse_rational(text)


def test_parse_print_parse_is_fixed_point(rng):
    for _ in range(200):
        p = random_poly(rng, names=("a", "b", "g", "l"))
        text = format_poly(p)
        again = poly_parse(text)
        assert again == p
        assert format_poly(again) == text


def test_eval_linear_root():
    p = Poly.const(1) - Poly.var("a")
    assert p.eval({"a": Fraction(1)}) == 0


def test_eval_identity_on_indeterminate():
    assert Poly.var("l").eval({"l": Fraction(3)}) == 3


def test_eval_direct_substitution():
    # independent oracle: -1 - b at b = 2 is -1 - 2
    p = poly_parse("-1-b")
    assert p.eval({"b": Fraction(2)}) == Fraction(-1) - Fraction(2)


def test_eval_missing_assignment():
    with pytest.raises(MissingAssignment):
        poly_parse("a+b").eval({"a": Fraction(1)})


def test_eval_names_every_missing_parameter_sorted():
    p = poly_parse("l*b+a*g+1/2")
    with pytest.raises(MissingAssignment, match=r"^no value for b, l$"):
        p.eval({"g": Fraction(2), "a": 1})
    # int and string values convert as Fractions do; the value is an int
    # when integral and a Fraction otherwise
    value = p.eval({"a": 2, "b": "1/2", "g": "3", "l": -4})
    assert value == Fraction(-4) * Fraction(1, 2) + 2 * 3 + Fraction(1, 2)
    assert type(value) is Fraction and not off_int_rule(value)
    value = poly_parse("2*a").eval({"a": 3})
    assert value == 2 * Fraction(3) and type(value) is int


def test_additive_inverse_cancels():
    assert (poly_parse("a+b") + poly_parse("-a-b")).is_zero()


def test_schoolbook_expansion_oracle():
    # (a + b)^2 expanded by hand as a dict of monomials
    expected = Poly({(("a", 2),): Fraction(1),
                     (("a", 1), ("b", 1)): Fraction(2),
                     (("b", 2),): Fraction(1)})
    assert poly_parse("a+b") * poly_parse("a+b") == expected


def test_scalar_cancellation():
    assert poly_parse("2*a") * Fraction(1, 2) == Poly.var("a")


def test_eval_is_ring_homomorphism(rng):
    # 1000 random pairs of degree <= 4, random rational points
    for _ in range(1000):
        p = random_poly(rng)
        q = random_poly(rng)
        point = {"a": Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                 "b": Fraction(rng.randint(-5, 5), rng.randint(1, 3))}
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)
        assert (p + q).eval(point) == p.eval(point) + q.eval(point)


def test_subs_matches_termwise_expansion(rng):
    # simultaneous substitution, expanded term by term with ring operations
    values = [Fraction(0), Fraction(-3, 2), poly_parse("b"), poly_parse("-a"),
              poly_parse("a-g"), poly_parse("2*a*b+1"), Poly.zero()]
    cases = []
    for _ in range(300):
        p = random_poly(rng)
        mapping = {name: rng.choice(values)
                   for name in ("a", "b") if rng.random() < 0.8}
        cases.append((p, mapping))
    # the swap a -> b, b -> -a: applied one entry after the other, it would
    # send a to -a
    for _ in range(20):
        cases.append((random_poly(rng) + poly_parse("a^2*b+a"),
                      {"a": poly_parse("b"), "b": poly_parse("-a")}))
    # the elimination's shape: degree <= 2 in unknowns plus a parameter, the
    # substituted unknown squared, and one entry := 0, := a rational or
    # := a linear polynomial in other unknowns and the parameter
    unknowns = ("u1", "u2", "u3")
    for _ in range(200):
        p = (random_poly(rng, names=unknowns + ("l",), max_degree=2, terms=8)
             + random_poly(rng, names=("u1",), max_degree=2, terms=2)
             + Poly.var("u1") ** 2 * Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        value = rng.choice([
            Fraction(0),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            sum((Poly.var(x) * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for x in ("u2", "u3", "l")), Poly.const(rng.randint(-2, 2)))])
        cases.append((p, {"u1": value}))
    for p, mapping in cases:
        expected = Poly.zero()
        for mono, coeff in p.terms.items():
            term = Poly.const(coeff)
            for name, e in mono:
                base = Poly.coerce(mapping[name]) if name in mapping \
                    else Poly.var(name)
                term = term * base ** e
            expected = expected + term
        got = p.subs(mapping)
        assert got == expected
        assert all(c != 0 and (type(c) is int or c.denominator > 1)
                   for c in got.terms.values())


def test_subs_cancels_to_zero_and_keeps_untouched():
    assert poly_parse("a^2-b^2").subs({"a": poly_parse("-b")}).is_zero()
    p = poly_parse("a+1")
    assert p.subs({"b": Fraction(2)}) is p


def _fraction_key(p: Poly) -> tuple:
    """The earlier key: terms by total degree then monomial, divided by the
    last coefficient."""
    if not p.terms:
        return ()
    items = sorted(p.terms.items(),
                   key=lambda kv: (sum(e for _, e in kv[0]), kv[0]))
    lead = items[-1][1]
    return tuple((m, Fraction(c) / lead) for m, c in items)


def test_normalized_key_relates_what_the_fraction_key_relates(rng):
    scales = [Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-2, 7),
              Fraction(5), Fraction(-1, 6)]
    polys = [Poly.zero(), Poly.const(3), Poly.const(Fraction(-1, 2)),
             poly_parse("a-b"), poly_parse("b-a"), poly_parse("a+b")]
    for _ in range(60):
        p = random_poly(rng)
        polys.append(p)
        polys.extend(p * rng.choice(scales) for _ in range(3))
    keys = [p.normalized_key() for p in polys]
    oracle = [_fraction_key(p) for p in polys]
    for k1, o1 in zip(keys, oracle):
        for k2, o2 in zip(keys, oracle):
            assert (k1 == k2) == (o1 == o2)


def test_normalized_key_is_the_primitive_integer_form_kept_per_poly():
    p = poly_parse("2*a^2-4*b+6")
    key = p.normalized_key()
    assert key == ((), (("a", 2),), (("b", 1),), -3, -1, 2)
    assert p.normalized_key() is key
    assert (p * Fraction(-3, 4)).normalized_key() == key
    assert Poly.zero().normalized_key() == ()
    assert Poly.const(Fraction(-5, 3)).normalized_key() == ((), 1)
    # a derived polynomial has its own key, never its parent's, here once
    # with a sign flip (-3, -1 -> 3, 1) and once with a new gcd
    # (2, 4 -> 1, 2)
    q = poly_parse("2*a+4*b+3")
    q.normalized_key()
    no_b = {m: c for m, c in p.terms.items() if m != (("b", 1),)}
    for derived in (p.subs({"b": Fraction(1, 2)}), p + 1, p * poly_parse("a"),
                    Poly(no_b), Poly({m: c for m, c in q.terms.items() if m})):
        assert derived.normalized_key() == Poly(derived.terms).normalized_key()
        assert derived.normalized_key() != key


def test_canonical_difference_is_empty(rng):
    for _ in range(100):
        p = random_poly(rng)
        assert not (p - p).terms


def test_structural_equality_matches_evaluation(rng):
    # equal on (deg+1) points per indeterminate implies equal polynomials;
    # build q from p through a detour that must cancel
    for _ in range(100):
        p = random_poly(rng)
        noise = random_poly(rng)
        q = (p + noise) - noise
        assert q == p
        samples_equal = all(
            p.eval({"a": Fraction(i), "b": Fraction(j)})
            == q.eval({"a": Fraction(i), "b": Fraction(j)})
            for i in range(5) for j in range(5))
        assert samples_equal


def test_a_constant_hashes_as_the_value_it_equals():
    assert Poly.const(3) == 3 and len({Poly.const(3), 3}) == 1
    assert {Poly.const(Fraction(1, 2)): "x"}.get(Fraction(1, 2)) == "x"
    assert {Fraction(-5, 3): "y"}.get(Poly.const(Fraction(-5, 3))) == "y"
    assert Poly.zero() == 0 and hash(Poly.zero()) == hash(0)
    p = poly_parse("a-1")
    assert hash(p) == hash((p + 1) - 1) and hash(p) != hash(p + 1)


def test_distinct_polys_differ_somewhere(rng):
    p = poly_parse("a^2+b")
    q = poly_parse("a^2+b+1")
    assert p != q
    assert any(p.eval({"a": Fraction(i), "b": Fraction(j)})
               != q.eval({"a": Fraction(i), "b": Fraction(j)})
               for i in range(5) for j in range(5))


def _merged_monomial(m1, m2):
    """The product of two monomials by merging their exponents and sorting
    by name, as ``_mono_mul`` forms every product of several factors."""
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def test_single_factor_monomial_product_matches_the_general_path():
    u, v, l = ("u1_1_2", 1), ("u2_1_1", 1), ("l", 1)
    pairs = [((u,), (u,)), ((u,), (v,)), ((v,), (u,)), ((l,), (u,)),
             ((u,), (l,)), ((("a", 2),), (("a", 3),)), ((("b", 2),), (u,)),
             # several factors take the general path; the empty one is unit
             ((l, u), (v,)), ((u,), (l, v)), ((), (u,)), ((u,), ())]
    for m1, m2 in pairs:
        assert _mono_mul(m1, m2) == _merged_monomial(m1, m2)
    assert _mono_mul((u,), (u,)) == (("u1_1_2", 2),)
    assert _mono_mul((u,), (l,)) == (l, u)
    assert Poly.var("u1_1_2") * Poly.var("l") == Poly({(l, u): 1})


def test_difference_in_one_pass_matches_negate_then_add(rng):
    for _ in range(100):
        p, q = random_poly(rng), random_poly(rng)
        diff = p - q
        assert diff.terms == (p + (-q)).terms
        assert all(type(c) is int or c.denominator != 1
                   for c in diff.terms.values())
    a = poly_parse("a")
    assert (a - 1).terms == {(("a", 1),): 1, (): -1}
    assert (1 - a).terms == {(("a", 1),): -1, (): 1}
    assert (a - Fraction(1, 2) * 2).terms == (a - 1).terms


def test_degree_in_reads_a_set_or_any_iterable_of_names():
    p = poly_parse("a^2*b+b^3+g")
    for names in ({"a", "b"}, frozenset(("a", "b")), ["a", "b"], ("a", "b"),
                  iter(["a", "b"]), {"a": 0, "b": 0}):
        assert p.degree_in(names) == 3
    assert p.degree_in(frozenset("a")) == 2
    assert p.degree_in(()) == 0


def test_parse_rational_literals():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("17") == 17
    with pytest.raises(CoefficientSyntaxError):
        parse_rational("3/0")


# -- quadratic extension -----------------------------------------------------


def test_quadext_rejects_square_radicand():
    with pytest.raises(ValueError):
        QuadExt(1, 1, Fraction(9, 4))


def test_quadext_product_rule():
    x = QuadExt(Fraction(1, 2), 3, 2)
    y = QuadExt(2, Fraction(-1, 3), 2)
    z = x * y
    # (a+b sqrt d)(a'+b' sqrt d) = (aa'+bb'd) + (ab'+a'b) sqrt d
    assert z.a == Fraction(1, 2) * 2 + 3 * Fraction(-1, 3) * 2
    assert z.b == Fraction(1, 2) * Fraction(-1, 3) + 2 * 3


def test_quadext_arithmetic_matches_the_checking_constructor():
    # random sums, differences, negations and products, an int or a Fraction
    # on either side included, equal the elements that QuadExt(a, b, d)
    # builds from Fractions; any other operand raises
    rng = random.Random(11)
    d = Fraction(3, 2)
    formulas = {operator.add: lambda a, b, c, e: (a + c, b + e),
                operator.sub: lambda a, b, c, e: (a - c, b - e),
                operator.mul: lambda a, b, c, e: (a * c + b * e * d, a * e + b * c)}

    def parts(v):
        return (v.a, v.b) if isinstance(v, QuadExt) else (Fraction(v), Fraction(0))

    def same(value, expected):
        return (type(value), type(value.a), type(value.b), value.a, value.b, value.d) == (
            QuadExt, Fraction, Fraction, expected.a, expected.b, expected.d)

    def draw():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))

    for _ in range(200):
        x = QuadExt(draw(), draw(), d)
        assert same(-x, QuadExt(-x.a, -x.b, d))
        for y in (QuadExt(draw(), draw(), d), draw(), rng.randint(-9, 9)):
            for op, formula in formulas.items():
                assert same(op(x, y), QuadExt(*formula(*parts(x), *parts(y)), d))
                if not isinstance(y, QuadExt):
                    assert same(op(y, x), QuadExt(*formula(*parts(y), *parts(x)), d))
    x = QuadExt(1, 2, d)
    for other in (QuadExt(1, 1, 3), Poly.var("a"), 0.5, "1/2", None):
        for op in formulas:
            with pytest.raises((TypeError, ValueError)):
                op(x, other)
            if not isinstance(other, Poly):  # Poly o x is up to Poly
                with pytest.raises((TypeError, ValueError)):
                    op(other, x)


def test_rational_square_detection():
    assert is_rational_square(Fraction(9, 4))
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert not is_rational_square(Fraction(2))
    assert not is_rational_square(Fraction(-1))
