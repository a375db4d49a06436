"""Shared generators and oracles for the test suite."""

import random
from fractions import Fraction

import pytest

from adkit import catalog
from adkit.algebra import AdPair, StructureConstants
from adkit.scalars import Poly

SMALL_RATIONALS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                   Fraction(-2), Fraction(1, 2), Fraction(-1, 2), Fraction(3)]


def off_int_rule(c) -> bool:
    """Does the exact value c break the int rule: is it a float or another
    type, or an integral Fraction?"""
    return type(c) is not int and (type(c) is not Fraction or c.denominator == 1)


def random_poly(rng: random.Random, names=("a", "b"), max_degree=4, terms=4) -> Poly:
    p = Poly.zero()
    for _ in range(rng.randint(0, terms)):
        mono = {}
        for name in names:
            e = rng.randint(0, max_degree)
            if e:
                mono[name] = e
        if sum(mono.values()) > max_degree:
            continue
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + Poly({tuple(sorted(mono.items())): Fraction(1)}) * coeff
    return p


def random_tensor(rng: random.Random, dim: int, density=0.3) -> StructureConstants:
    entries = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                if rng.random() < density:
                    entries[(i, j, k)] = rng.choice(SMALL_RATIONALS)
    return StructureConstants.from_table(dim, entries)


def random_pair(rng: random.Random, dim: int, density=0.3) -> AdPair:
    return AdPair(random_tensor(rng, dim, density), random_tensor(rng, dim, density))


def random_invertible(rng: random.Random, dim: int):
    """Random invertible rational matrix, built as L*U with unit diagonals."""
    lower = [[Fraction(1) if i == j else
              (rng.choice(SMALL_RATIONALS) if j < i else Fraction(0))
              for j in range(dim)] for i in range(dim)]
    upper = [[rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])
              if i == j else
              (rng.choice(SMALL_RATIONALS) if j > i else Fraction(0))
              for j in range(dim)] for i in range(dim)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(dim))
             for j in range(dim)] for i in range(dim)]


def registry_points():
    """Every two-operation registry entry, parameters at 0, 1 and -1."""
    for e in catalog.entries():
        if e.kind != "antidendriform":
            continue
        for v in (Fraction(0), Fraction(1), Fraction(-1)) if e.params else (Fraction(0),):
            yield e.instantiate({p: v for p in e.params}, strict=False)


def constant_pair(rhd_entries, lhd_entries, dim) -> AdPair:
    return AdPair(StructureConstants.from_table(dim, rhd_entries),
                  StructureConstants.from_table(dim, lhd_entries))


@pytest.fixture
def rng():
    return random.Random(20240817)
