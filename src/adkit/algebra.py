"""Structure-constant algebras and the structural toolbox.

A bilinear product on an n-dimensional space is stored as an n*n*n tensor of
polynomials: ``e_i o e_j = sum_k c[i][j][k] e_k`` (indices 0-based internally,
1-based in files and reports).  A two-operation carrier holds one tensor for
each operation; the anti-dendriform laws are checked symbolically, identically
in any family parameters, on basis triples.  The seven identities and the
two defining equations read only six triple products; each triple's six are
expanded once (``_triple_products``) and every law is a signed combination of
them, the identities a table of signed pairs (``_IDENTITY_TERMS``).
Bilinearity makes the basis-triple check equivalent to the law on the whole
space.

Every product of structure constants goes through one kernel: ``combine``
forms a linear combination of rows, skipping zero coefficients and zero
entries, and ``contract`` (x o y = sum_{i,j} x_i y_j c[i][j]) is two
``combine`` calls.  They work over int, Fraction, QuadExt and Poly; the
caller passes the ring's zero, which stays in every coordinate where no
term lands.  The identities, sums, basis changes, power series, quotients
and isomorphism witnesses (``iso``) all use them.

Rank-based computations (centers, annihilators, power series, quotients)
require parameters to be instantiated first, because ranks can jump on
parameter subvarieties.  A caller substitutes a point once (``subs``) and
hands the instantiated tensors to every rank computation; none of them, nor
``constant_tensor`` itself, takes an assignment.  A tensor without
parameters is evaluated to Fractions once and kept (``constant_tensor``),
and the rank computations, basis changes and 2-nilpotency all read that
value: basis changes contract it over Fraction, and 2-nilpotency runs on
integers, the denominators cleared.  Parametric tensors run the same loops
over Poly; the ring is the only difference between the constant and the
parametric path.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to use concurrently; the one slot
filled later, a tensor's constant value, is the same whichever call fills it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import CenterMismatch, DimensionMismatch
from .scalars import Poly, Scalar

Vector = tuple  # tuple[Poly, ...] in the standard basis


def _coerce_vec(dim: int, v: Sequence[Scalar]) -> Vector:
    if len(v) != dim:
        raise DimensionMismatch(f"expected a vector of length {dim}, got {len(v)}")
    return tuple(Poly.coerce(x) for x in v)


def unit_vector(dim: int, i: int) -> Vector:
    return tuple(Poly.const(1 if j == i else 0) for j in range(dim))


class StructureConstants:
    """Tensor of structure constants for one bilinear operation."""

    __slots__ = ("dim", "c", "_constant")

    def __init__(self, dim: int, c):
        self.dim = dim
        self.c = tuple(tuple(tuple(Poly.coerce(x) for x in row) for row in plane)
                       for plane in c)
        self._constant = None  # constant_tensor() once evaluated

    @classmethod
    def zero(cls, dim: int) -> "StructureConstants":
        z = Poly.zero()
        return cls(dim, [[[z] * dim for _ in range(dim)] for _ in range(dim)])

    @classmethod
    def from_table(cls, dim: int, entries: Mapping[tuple, Scalar | str],
                   params=()) -> "StructureConstants":
        """Build from a sparse table with 1-based ``(i, j, k)`` keys.

        String values go through the coefficient grammar with the given
        parameter names; omitted entries are zero.
        """
        from .scalars import poly_parse
        tensor = [[[Poly.zero() for _ in range(dim)] for _ in range(dim)]
                  for _ in range(dim)]
        for (i, j, k), value in entries.items():
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise DimensionMismatch(f"index {(i, j, k)} out of range for dim {dim}")
            if isinstance(value, str):
                value = poly_parse(value, params or ("a", "b", "g", "l"))
            tensor[i - 1][j - 1][k - 1] = Poly.coerce(value)
        return cls(dim, tensor)

    def entries(self):
        """Iterate nonzero entries as ((i, j, k), poly) with 0-based indices."""
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    p = self.c[i][j][k]
                    if not p.is_zero():
                        yield (i, j, k), p

    def row(self, i: int, j: int) -> Vector:
        """The product e_i o e_j as a coordinate vector."""
        return self.c[i][j]

    def map_entries(self, fn) -> "StructureConstants":
        return StructureConstants(self.dim, [[[fn(x) for x in row] for row in plane]
                                             for plane in self.c])

    def subs(self, mapping) -> "StructureConstants":
        return self.map_entries(lambda p: p.subs(mapping))

    def variables(self) -> frozenset:
        out = frozenset()
        for _, p in self.entries():
            out |= p.variables()
        return out

    def add(self, other: "StructureConstants") -> "StructureConstants":
        if other.dim != self.dim:
            raise DimensionMismatch("tensor dimensions differ")
        return StructureConstants(
            self.dim,
            [[[self.c[i][j][k] + other.c[i][j][k] for k in range(self.dim)]
              for j in range(self.dim)] for i in range(self.dim)])

    def neg(self) -> "StructureConstants":
        return self.map_entries(lambda p: -p)

    def constant_tensor(self):
        """Every entry as a Fraction, in nested tuples.

        The value is computed on the first call and kept; a tensor with
        parameters raises ``MissingAssignment`` on every call and caches
        nothing.  A point is evaluated as ``sc.subs(point).constant_tensor()``.
        """
        if self._constant is None:
            self._constant = self._evaluate()
        return self._constant

    def _evaluate(self) -> tuple:
        return tuple(tuple(tuple(p.eval({}) for p in row) for row in plane)
                     for plane in self.c)

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.dim == other.dim and self.c == other.c

    def __hash__(self):
        return hash((self.dim, self.c))


@dataclass(frozen=True)
class UnaryAlgebra:
    """A single-operation algebra with an optional catalog label."""
    sc: StructureConstants
    label: str | None = None

    @property
    def dim(self) -> int:
        return self.sc.dim

    def subs(self, mapping) -> "UnaryAlgebra":
        return UnaryAlgebra(self.sc.subs(mapping), self.label)


@dataclass(frozen=True)
class AdPair:
    """Two-operation carrier: ``rhd`` and ``lhd`` tensors of equal dimension."""
    rhd: StructureConstants
    lhd: StructureConstants
    label: str | None = None

    def __post_init__(self):
        if self.rhd.dim != self.lhd.dim:
            raise DimensionMismatch("the two operation tensors have different dims")

    @property
    def dim(self) -> int:
        return self.rhd.dim

    def subs(self, mapping) -> "AdPair":
        return AdPair(self.rhd.subs(mapping), self.lhd.subs(mapping), self.label)

    def variables(self) -> frozenset:
        return self.rhd.variables() | self.lhd.variables()


def combine(coeffs: Sequence, rows: Sequence[Sequence], zero) -> list:
    """sum_k coeffs[k] * rows[k], entry by entry.

    Zero coefficients and zero entries are skipped, and an entry where no
    term lands is the caller's ``zero``, so the ring (int, Fraction, QuadExt
    or Poly) is whatever the operands and ``zero`` are.
    """
    out = [zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if not c:
            continue
        for m, entry in enumerate(row):
            if entry:
                out[m] = out[m] + c * entry
    return out


def contract(t: Sequence, x: Sequence, y: Sequence, zero) -> list:
    """x o y for the raw tensor t: sum_{i,j} x_i y_j t[i][j].

    A plane with x_i = 0 is not combined: ``combine`` never reads the row of
    a zero coefficient, so the plane's first row stands in for it.
    """
    return combine(x, [combine(y, plane, zero) if xi else plane[0]
                       for xi, plane in zip(x, t)], zero)


def product(sc: StructureConstants, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
    """Bilinear extension of the tensor to arbitrary coordinate vectors."""
    return tuple(contract(sc.c, _coerce_vec(sc.dim, x), _coerce_vec(sc.dim, y),
                          Poly.zero()))


def _apply_right(sc: StructureConstants, i: int, vec: Vector) -> list:
    """e_i o vec."""
    return combine(vec, sc.c[i], Poly.zero())


def _apply_left(sc: StructureConstants, vec: Vector, j: int) -> list:
    """vec o e_j."""
    return combine(vec, [plane[j] for plane in sc.c], Poly.zero())


def _vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def _vec_is_zero(v: Vector) -> bool:
    return all(p.is_zero() for p in v)


def sum_algebra(ad: AdPair) -> UnaryAlgebra:
    """The single operation x o y = x rhd y + x lhd y."""
    return UnaryAlgebra(ad.rhd.add(ad.lhd),
                        label=None if ad.label is None else f"sum({ad.label})")


@dataclass(frozen=True)
class AssociativityReport:
    dim: int
    violations: tuple  # ((i, j, k) 0-based, residual Vector)

    @property
    def ok(self) -> bool:
        return not self.violations


def is_associative(alg: UnaryAlgebra) -> AssociativityReport:
    """All basis triples with (e_i e_j) e_k != e_i (e_j e_k), symbolically."""
    sc = alg.sc
    n = sc.dim
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = _apply_left(sc, sc.row(i, j), k)
                right = _apply_right(sc, i, sc.row(j, k))
                res = _vec_sub(left, right)
                if not _vec_is_zero(res):
                    bad.append(((i, j, k), res))
    return AssociativityReport(n, tuple(bad))


def _triple_products(r: StructureConstants, l: StructureConstants,
                     s: StructureConstants, i: int, j: int, k: int) -> tuple:
    """The six products the laws read on (e_i, e_j, e_k), in the order
    A = x>(y>z), B = (x.y)>z, C = x<(y.z), D = (x<y)<z, E = (x>y)<z,
    F = x>(y<z), with x>y = r, x<y = l and x.y = s."""
    return (_apply_right(r, i, r.row(j, k)), _apply_left(r, s.row(i, j), k),
            _apply_right(l, i, s.row(j, k)), _apply_left(l, l.row(i, j), k),
            _apply_left(l, r.row(i, j), k), _apply_right(r, i, l.row(j, k)))


#: The seven component identities, in reporting order, each a signed pair
#: (first, sign, second) over the products A..F of ``_triple_products``:
#: id1 (x>y)<z = x>(y<z),   id2 x>(y>z) = -(x.y)>z,  id3 x>(y>z) = -x<(y.z),
#: id4 x>(y>z) = (x<y)<z,   id5 (x.y)>z = x<(y.z),   id6 -(x.y)>z = (x<y)<z,
#: id7 -x<(y.z) = (x<y)<z.
_IDENTITY_TERMS = {
    "id1": (4, -1, 5),  # E - F
    "id2": (0, 1, 1),   # A + B
    "id3": (0, 1, 2),   # A + C
    "id4": (0, -1, 3),  # A - D
    "id5": (1, -1, 2),  # B - C
    "id6": (1, 1, 3),   # B + D
    "id7": (2, 1, 3),   # C + D
}
IDENTITY_NAMES = tuple(_IDENTITY_TERMS)


def _identity_residual(name: str, prods: tuple) -> Vector:
    """The residual of one identity from a triple's six products."""
    a, sign, b = _IDENTITY_TERMS[name]
    return (_vec_add if sign > 0 else _vec_sub)(prods[a], prods[b])


@dataclass(frozen=True)
class AntidendriformReport:
    dim: int
    #: name -> tuple of ((i, j, k) 0-based, residual Vector), nonzero only
    failures: Mapping[str, tuple]
    #: residuals of the two defining equations, combined from the same six
    #: triple products as ``failures``; only the combination of laws differs
    chain_failures: Mapping[str, tuple]

    @property
    def ok(self) -> bool:
        return not any(self.failures.values())

    @property
    def chains_ok(self) -> bool:
        return not any(self.chain_failures.values())

    def failing_identities(self) -> tuple:
        return tuple(n for n in IDENTITY_NAMES if self.failures[n])


def check_antidendriform(ad: AdPair) -> AntidendriformReport:
    """Symbolic residuals of the seven identities on every basis triple.

    Also combines the same products into the two defining equations (the
    four-way chain and the middle-swap law); a pair is anti-dendriform
    exactly when all residuals vanish identically in the parameters.
    """
    r, l = ad.rhd, ad.lhd
    s = r.add(l)
    n = ad.dim
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    prods = [_triple_products(r, l, s, *t) for t in triples]
    failures = {name: [] for name in IDENTITY_NAMES}
    for name in IDENTITY_NAMES:
        for t, pr in zip(triples, prods):
            res = _identity_residual(name, pr)
            if not _vec_is_zero(res):
                failures[name].append((t, res))
    # The defining chain x>(y>z) = -(x.y)>z = -x<(y.z) = (x<y)<z as adjacent
    # differences, plus the middle-swap law, from the same six products.
    chain = {"eq_chain": [], "eq_swap": []}
    for t, (a, b, c, d, e, f) in zip(triples, prods):
        mid1 = tuple(-p for p in b)
        mid2 = tuple(-p for p in c)
        for u, v in ((a, mid1), (mid1, mid2), (mid2, d)):
            res = _vec_sub(u, v)
            if not _vec_is_zero(res):
                chain["eq_chain"].append((t, res))
        res = _vec_sub(e, f)
        if not _vec_is_zero(res):
            chain["eq_swap"].append((t, res))
    return AntidendriformReport(
        n,
        {name: tuple(v) for name, v in failures.items()},
        {name: tuple(v) for name, v in chain.items()})


def is_two_nilpotent(ad: AdPair) -> bool:
    """Do all triple products vanish, for every bracketing and operation mix?

    Equivalently, every product e_i o e_j of either operation is annihilated
    on both sides by both operations: v o e_k = 0 and e_k o v = 0 for all k.
    A pair without parameters runs this test on integers, its two tensors
    scaled by the common denominator of their entries (scaling does not
    change which products vanish); a parametric pair runs it on its Poly
    tensors, so the answer holds identically in the parameters.
    """
    n = ad.dim
    if ad.variables():
        tensors, zero = (ad.rhd.c, ad.lhd.c), Poly.zero()
    else:
        tensors, zero = _cleared(ad.rhd.constant_tensor(), ad.lhd.constant_tensor()), 0
    # e_k o v combines the rows of plane k; v o e_k combines the column k rows.
    sides = [rows for t in tensors for k in range(n)
             for rows in (t[k], [plane[k] for plane in t])]
    for t in tensors:
        for plane in t:
            for v in plane:
                if any(v) and any(any(combine(v, rows, zero)) for rows in sides):
                    return False
    return True


def _cleared(*tensors) -> list:
    """Rational tensors times the lcm of their denominators, as ints."""
    d = math.lcm(*(x.denominator for t in tensors for plane in t
                   for row in plane for x in row))
    return [[[[x.numerator * (d // x.denominator) for x in row] for row in plane]
             for plane in t] for t in tensors]


# -- rank computations at an instantiated point ---------------------------------


def _product_rows(tensors, left: bool):
    """Conditions on x for x o e_j = 0 (left) or e_j o x = 0, from the kept constants."""
    rows = []
    for sc in tensors:
        t = sc.constant_tensor()
        n = sc.dim
        for j in range(n):
            for m in range(n):
                if left:
                    rows.append([t[i][j][m] for i in range(n)])
                else:
                    rows.append([t[j][i][m] for i in range(n)])
    return rows


def center_associative(alg: UnaryAlgebra):
    """Rational basis of {x : x.y = y.x = 0 for all y}, from the kept constant."""
    rows = (_product_rows([alg.sc], left=True)
            + _product_rows([alg.sc], left=False))
    return linalg.nullspace(rows, alg.dim)


def center_ad(ad: AdPair):
    """Basis of the two-operation center (four conditions), from the kept constants."""
    tensors = [ad.rhd, ad.lhd]
    rows = (_product_rows(tensors, left=True)
            + _product_rows(tensors, left=False))
    return linalg.nullspace(rows, ad.dim)


def left_annihilator(tensors, dim: int):
    """Basis of {x : x o y = 0 for every y and tensor}, from the kept constants."""
    rows = _product_rows(tensors, left=True)
    return linalg.nullspace(rows, dim)


def right_annihilator(tensors, dim: int):
    """Basis of {x : y o x = 0 for every y and tensor}, from the kept constants."""
    rows = _product_rows(tensors, left=False)
    return linalg.nullspace(rows, dim)


@dataclass(frozen=True)
class PowerSeries:
    dims: tuple          # dim A^1, dim A^2, ... until 0 or stabilisation
    nilpotent: bool
    index: int | None    # smallest i with A^i = 0
    null_filiform: bool


def power_series(alg: UnaryAlgebra) -> PowerSeries:
    """Dimensions of the descending power series A^1 >= A^2 >= ...

    A^{i+1} = sum_k A^k A^{i+1-k}, computed on spanning sets of the kept
    constant.  Null-filiform means dim A^i = (n+1) - i for 1 <= i <= n+1.
    """
    n = alg.dim
    t = alg.sc.constant_tensor()

    powers = [[[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]]
    dims = [n]
    while True:
        i = len(powers)  # computing A^{i+1}
        spanning = []
        for k in range(i):
            spanning.extend(contract(t, u, v, Fraction(0))
                            for u in powers[k] for v in powers[i - 1 - k])
        basis = [list(v) for v in linalg.rref(spanning)[0]] if spanning else []
        d = len(basis)
        dims.append(d)
        powers.append(basis)
        if d == 0 or d == dims[-2]:
            break
    nil = dims[-1] == 0
    index = len(dims) if nil else None
    expected = [n + 1 - i for i in range(1, n + 2)]
    nf = nil and dims == expected
    return PowerSeries(tuple(dims), nil, index, nf)


@dataclass(frozen=True)
class QuotientResult:
    pair: AdPair
    kept_indices: tuple      # 0-based standard basis indices spanning the complement


def quotient_by_center(ad: AdPair) -> QuotientResult:
    """Induced pair on A/Z from the kept constants, via ``quotient_by_centers``."""
    return quotient_by_centers(ad, center_associative(sum_algebra(ad)),
                               center_ad(ad))


def quotient_by_centers(ad: AdPair, z_sum, z_ad) -> QuotientResult:
    """Project onto A/Z, given the centers of the sum and of the pair; they must agree.

    The complement is spanned by the standard basis vectors that are not
    pivotal in the center's reduced echelon form, which makes the output
    basis deterministic.
    """
    n = ad.dim
    if not linalg.same_span(z_sum, z_ad):
        raise CenterMismatch(
            "the associative and two-operation centers differ at this point")
    center_rows, pivots = linalg.rref(z_ad) if z_ad else ([], [])
    kept = [i for i in range(n) if i not in pivots]
    # Rows of ``basis`` are the center basis, then the kept unit vectors; a
    # vector's coordinates in that basis are its row times the inverse.
    basis = [list(v) for v in center_rows] + \
            [[Fraction(1 if i == k else 0) for i in range(n)] for k in kept]
    inv = linalg.invert(basis)

    def project(sc: StructureConstants) -> StructureConstants:
        t = sc.constant_tensor()
        return StructureConstants(len(kept), [
            [combine(t[a][b], inv, Fraction(0))[len(center_rows):] for b in kept]
            for a in kept])

    pair = AdPair(project(ad.rhd), project(ad.lhd),
                  label=None if ad.label is None else f"{ad.label}/Z")
    return QuotientResult(pair, tuple(kept))


# -- basis change ---------------------------------------------------------------


def transport_tensor(sc: StructureConstants, t_rows) -> StructureConstants:
    """Structure constants in the new basis e'_i = sum_j T[i][j] e_j.

    T has rational entries; tensor entries may still carry parameters.
    """
    n = sc.dim
    if len(t_rows) != n or any(len(r) != n for r in t_rows):
        raise DimensionMismatch("basis-change matrix has the wrong shape")
    t = [[Fraction(x) for x in row] for row in t_rows]
    inv = linalg.invert(t)
    if sc.variables():
        c, zero = sc.c, Poly.zero()
    else:
        c, zero = sc.constant_tensor(), Fraction(0)
    # inner[j][k] = e_k o e'_j, once per new basis vector; e'_i o e'_j is
    # then sum_k T[i][k] inner[j][k], written back in the new basis by inv
    inner = [[combine(row, plane, zero) for plane in c] for row in t]
    return StructureConstants(n, [[combine(combine(t[i], inner[j], zero), inv, zero)
                                   for j in range(n)] for i in range(n)])


def apply_basis_change(obj, t_rows):
    """Transport an algebra or pair along an invertible rational matrix."""
    if isinstance(obj, StructureConstants):
        return transport_tensor(obj, t_rows)
    if isinstance(obj, UnaryAlgebra):
        return UnaryAlgebra(transport_tensor(obj.sc, t_rows), obj.label)
    if isinstance(obj, AdPair):
        return AdPair(transport_tensor(obj.rhd, t_rows),
                      transport_tensor(obj.lhd, t_rows), obj.label)
    raise TypeError(f"cannot transport {type(obj).__name__}")
