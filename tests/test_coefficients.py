"""Coefficient types of Poly: an int when integral, a Fraction otherwise.

The values are checked against a Fraction-only oracle written here, and the
types are checked on every polynomial built, whichever constructor or
operation built it, by watching ``Poly.__init__``.  Evaluated values, of a
polynomial (``Poly.eval``) or of a tensor at a point (``at``), follow the
same rule and are checked against the same oracle.
"""

import itertools
from fractions import Fraction

import pytest

from adkit import catalog, cli, solver
from adkit.algebra import AdPair
from adkit.scalars import Poly, _mono_mul, poly_parse

from conftest import off_int_rule, random_poly


def _bad_coefficients(p: Poly) -> list:
    """Coefficients that break the rule: a float or other type, or an
    integral Fraction."""
    return [c for c in p.terms.values() if off_int_rule(c)]


@pytest.fixture
def built(monkeypatch):
    """Every Poly constructed while the fixture is active, in order."""
    polys = []
    init = Poly.__init__

    def watched(self, terms=None, _trusted=False):
        init(self, terms, _trusted)
        polys.append(self)

    monkeypatch.setattr(Poly, "__init__", watched)
    return polys


# -- a Fraction-only oracle: dict monomial -> nonzero Fraction ---------------


def _f(p: Poly) -> dict:
    return {m: Fraction(c) for m, c in p.terms.items()}


def _f_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _f_scale(p: dict, c: Fraction) -> dict:
    return {m: x * c for m, x in p.items() if x * c}


def _f_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _f_subs(p: dict, mapping: dict) -> dict:
    total: dict = {}
    for m, c in p.items():
        term = {tuple(f for f in m if f[0] not in mapping): c}
        for name, e in m:
            if name in mapping:
                for _ in range(e):
                    term = _f_mul(term, mapping[name])
        total = _f_add(total, term)
    return total


def _check(p: Poly, oracle: dict):
    assert p.terms == oracle
    assert not _bad_coefficients(p)


SCALES = [Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 4),
          Fraction(4, 3), 3, -2]

#: Point values of every kind ``eval`` takes: int, integral Fraction,
#: non-integral Fraction and string.
POINT_VALUES = [0, 3, -2, Fraction(4, 2), Fraction(-3), Fraction(1, 2),
                Fraction(-3, 4), "5", "-1/3", "6/3"]


def _f_value(p: Poly, point: dict) -> Fraction:
    """p at a point that assigns all of its variables, by the oracle."""
    out = _f_subs(_f(p), {n: {(): Fraction(x)} for n, x in point.items()})
    assert set(out) <= {()}
    return out.get((), Fraction(0))


def test_random_arithmetic_matches_the_fraction_oracle(rng, built):
    polys = [random_poly(rng, names=("a", "b", "g")) for _ in range(40)]
    polys += [poly_parse("2*a-4"), poly_parse("1/2*a+1/2"), Poly.const(3),
              Poly.const(Fraction(6, 3)), Poly.var("b")]
    value_types = set()
    for _ in range(300):
        p, q = rng.choice(polys), rng.choice(polys)
        fp, fq = _f(p), _f(q)
        c = rng.choice(SCALES)
        _check(p + q, _f_add(fp, fq))
        _check(p - q, _f_add(fp, _f_scale(fq, Fraction(-1))))
        _check(p * q, _f_mul(fp, fq))
        _check(p * c, _f_scale(fp, Fraction(c)))
        _check(c * p, _f_scale(fp, Fraction(c)))
        _check(-p, _f_scale(fp, Fraction(-1)))
        _check(p - p, {})
        mapping = {"a": rng.choice(polys), "b": rng.choice(SCALES)}
        fmap = {"a": _f(mapping["a"]),
                "b": {(): Fraction(mapping["b"])}}
        _check(p.subs(mapping), _f_subs(fp, fmap))
        point = {name: rng.choice(POINT_VALUES) for name in ("a", "b", "g")}
        value = p.eval(point)
        assert value == _f_value(p, point) and not off_int_rule(value), point
        value_types.add(type(value))
        for r, name in ((p, "a"), (q * Poly.var("g"), "g")):
            parts = r.coefficients(name)
            g = Poly.var(name)
            rebuilt = Poly.zero()
            for e, c in parts.items():
                assert not c.is_zero() and name not in c.variables()
                assert not _bad_coefficients(c)
                assert all(list(m) == sorted(m) for m in c.terms)
                rebuilt = rebuilt + c * g ** e
            _check(rebuilt, _f(r))
        if not q.is_zero():
            assert 0 not in (q * Poly.var("g")).coefficients("g")
    assert value_types == {int, Fraction}
    for p in built:
        assert not _bad_coefficients(p), p.terms


def test_integral_results_come_back_as_int(built):
    half = poly_parse("1/2*a+1/2")
    assert (half * 2).terms == {(("a", 1),): 1, (): 1}
    assert (half + half).terms == {(("a", 1),): 1, (): 1}
    assert (half * half * 4).terms == {(("a", 2),): 1, (("a", 1),): 2, (): 1}
    assert half.subs({"a": 1}).terms == {(): 1}
    assert Poly({(): Fraction(4, 2), (("b", 1),): 2.0}).terms == {(): 2, (("b", 1),): 2}
    assert Poly.const(Fraction(-5, 5)).terms == {(): -1}
    assert Poly.const(Fraction(-5, 5)).constant_value() == Fraction(-1)
    assert type(Poly.const(7).constant_value()) is Fraction
    assert type(Poly.zero().constant_value()) is Fraction
    for value, expected in (((half * 2).eval({"a": 1}), 2),
                            (half.eval({"a": 1}), 1),
                            (half.eval({"a": Fraction(2)}), Fraction(3, 2))):
        assert value == Fraction(expected) and type(value) is type(expected)
    # every registry tensor at each point that analyze samples (a full grid
    # over DEFAULT_SAMPLE_VALUES) keeps the oracle's values under the rule
    kept_types = set()
    for e in catalog.entries():
        obj = e.tensors()
        pair = isinstance(obj, AdPair)
        names = sorted(obj.variables() if pair else obj.sc.variables())
        for combo in itertools.product(cli.DEFAULT_SAMPLE_VALUES, repeat=len(names)):
            point = dict(zip(names, combo))
            at = obj.at(point)
            for sc, sc_at in (((obj.rhd, at.rhd), (obj.lhd, at.lhd)) if pair
                              else ((obj.sc, at.sc),)):
                for row, row_at in zip((r for plane in sc.c for r in plane),
                                       (r for plane in sc_at.constant_tensor()
                                        for r in plane), strict=True):
                    for p, x in zip(row, row_at, strict=True):
                        assert x == _f_value(p, point) and not off_int_rule(x), \
                            (e.id, point)
                        kept_types.add(type(x))
    assert kept_types == {int, Fraction}
    for p in built:
        assert not _bad_coefficients(p), p.terms


def test_mu0_4_equations_are_integer_and_elimination_keeps_the_rule(built):
    system = solver.generate_constraints(catalog.null_filiform(4))
    for eq in system.equations:
        assert all(type(c) is int for c in eq.poly.terms.values()), eq.prov
    branches = solver.eliminate(system)
    assert [b.status for b in branches] == ["infeasible"]
    rhs = [p for b in branches for p in b.subs.values()]
    rhs += [s.poly for b in branches for s in b.trace if s.poly is not None]
    for p in rhs:
        assert not _bad_coefficients(p), p.terms
    # mu0(4) substitutes genuine halves (u1_2_3 := 1/2), which stay Fractions
    assert {type(c) for p in rhs for c in p.terms.values()} == {int, Fraction}
    assert all(solver.replay_certificate(system, b) for b in branches)
    for p in built:
        assert not _bad_coefficients(p), p.terms
