from fractions import Fraction

import pytest

from adkit.errors import CoefficientSyntaxError, MissingAssignment
from adkit.scalars import (Poly, QuadExt, format_poly, is_rational_square,
                           parse_rational, poly_parse,
                           rational_sqrt)

from conftest import random_poly


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
    for _ in range(300):
        p = random_poly(rng)
        mapping = {name: rng.choice(values)
                   for name in ("a", "b") if rng.random() < 0.8}
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
        assert all(c != 0 for c in got.terms.values())


def test_subs_cancels_to_zero_and_keeps_untouched():
    assert poly_parse("a^2-b^2").subs({"a": poly_parse("-b")}).is_zero()
    p = poly_parse("a+1")
    assert p.subs({"b": Fraction(2)}) is p


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


def test_distinct_polys_differ_somewhere(rng):
    p = poly_parse("a^2+b")
    q = poly_parse("a^2+b+1")
    assert p != q
    assert any(p.eval({"a": Fraction(i), "b": Fraction(j)})
               != q.eval({"a": Fraction(i), "b": Fraction(j)})
               for i in range(5) for j in range(5))


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


def test_quadext_conjugate_norm_is_rational():
    x = QuadExt(3, Fraction(1, 2), 5)
    prod = x * x.conjugate()
    assert prod.b == 0
    assert prod.a == x.norm() == 9 - Fraction(1, 4) * 5


def test_quadext_inverse_exists_iff_norm_nonzero():
    x = QuadExt(3, 1, 2)
    assert x * x.inverse() == 1
    y = QuadExt(0, 0, 2)
    with pytest.raises(ZeroDivisionError):
        y.inverse()


def test_rational_square_detection():
    assert is_rational_square(Fraction(9, 4))
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert not is_rational_square(Fraction(2))
    assert not is_rational_square(Fraction(-1))
