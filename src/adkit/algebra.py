"""Structure-constant algebras and the structural toolbox.

A bilinear product on an n-dimensional space is stored as an n*n*n tensor of
polynomials: ``e_i o e_j = sum_k c[i][j][k] e_k`` (indices 0-based internally,
1-based in files and reports).  An ``Algebra`` carries its ``tensors``, one
per operation its class names in ``OPS`` (``("mul",)`` for ``UnaryAlgebra``,
``("rhd", "lhd")`` for ``AdPair``), and ``KINDS`` maps each class's file name
``KIND`` to it.  The anti-dendriform laws are checked symbolically,
identically in any family parameters, on basis triples.  Every law is a
signed pair of bracketed products, (x o' y) o z or x o (y o' z) over the
tensors checked, and one loop (``_law_residuals``) reads a table of laws,
forms each product it names once per triple and keeps each law's nonzero
residuals: associativity is the one law (xy)z - x(yz), and the seven
identities (``_IDENTITY_LAWS``) read six products of (rhd, lhd, rhd + lhd).
Bilinearity makes the basis-triple check equivalent to the law on the whole
space.

Every product of structure constants goes through one kernel: ``combine``
forms a linear combination of rows, skipping zero coefficients and zero
entries, and ``contract`` (x o y = sum_{i,j} x_i y_j c[i][j]) is two
``combine`` calls.  They work over int, Fraction, QuadExt and Poly; the
caller passes the ring's zero, which stays in every coordinate where no
term lands.  Over Poly, every product of a coefficient term and an entry
term adds straight into one terms dict per coordinate reached, and one
Poly is built per such coordinate, with no Poly per product or partial
sum.  The identities, sums, basis changes, power series, quotients
and isomorphism witnesses (``iso``) all use them.

Rank-based computations (centers, annihilators, power series, quotients)
require parameters to be instantiated first, because ranks can jump on
parameter subvarieties.  A caller evaluates a rational point once (``at``)
and hands the instantiated tensors to every rank computation; none of them,
nor ``constant_tensor`` itself, takes an assignment.  A tensor without
parameters is evaluated once and kept (``constant_tensor``), and the rank
computations, basis changes and 2-nilpotency all read that value.  An
evaluated value is an int when integral and a Fraction otherwise, the
coefficient rule of ``scalars``.  One center function reads the tensors of
either kind (``center_ad``, bound as ``center_associative`` too).  A pair's
center lies in its sum's, so the quotient compares the two by dimension and
reads coordinates on the complement off the center's reduced rows.

A tensor can also be made from its rationals alone
(``StructureConstants.from_constant``): a point evaluation, a basis change
of a constant tensor and the projection onto a quotient all make theirs
this way.  Such a tensor keeps the rationals as its constant value, has no
variables, and lists its nonzero entries from them; its Poly view ``c`` is
built only when something reads it (a sum, an identity check, a
parametric contraction), and that first read fills the slot, so every
later read is a plain slot read.  Basis changes, 2-nilpotency and the power
series run on integers: each rational operand is cleared once by the lcm
of its denominators (``_cleared`` for tensors, ``_cleared_rows`` for
matrices) and contracted over int.  A basis change inverts and clears its
matrix once per object (``apply_basis_change``), and every tensor of a pair
moves along those integer rows, a parametric one over Poly; a constant one
gets one Fraction per nonzero entry, kept, so a moved copy is never
evaluated back.  The power series keeps each power, and 2-nilpotency its
products when there are more than n of them, as the integer echelon rows
of ``linalg.echelon_int``, the pivot rows of the one fraction-free
elimination loop.  Parametric tensors run the same loops over Poly.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to use concurrently; the one slot
filled later, a tensor's constant value, is the same whichever call fills it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import CenterMismatch, DimensionMismatch, MissingAssignment
from .scalars import PARAM_NAMES, Poly, Scalar, _ints, _mono_mul, _num, poly_parse

Vector = tuple  # tuple[Poly, ...] in the standard basis


def _coerce_vec(dim: int, v: Sequence[Scalar]) -> Vector:
    if len(v) != dim:
        raise DimensionMismatch(f"expected a vector of length {dim}, got {len(v)}")
    return tuple(Poly.coerce(x) for x in v)


class StructureConstants:
    """Tensor of structure constants for one bilinear operation.

    ``c`` holds the entries as Polys; a tensor made by ``from_constant``
    builds it on first read (see the module docstring).
    """

    __slots__ = ("dim", "c", "_constant")

    def __init__(self, dim: int, c):
        self.dim = dim
        self.c = tuple(tuple(tuple(Poly.coerce(x) for x in row) for row in plane)
                       for plane in c)
        self._constant = None  # constant_tensor() once evaluated

    @classmethod
    def from_constant(cls, dim: int, t: tuple) -> "StructureConstants":
        """A tensor without parameters, kept as its nested tuples t of rationals."""
        sc = cls.__new__(cls)
        sc.dim = dim
        sc._constant = t
        return sc

    def __getattr__(self, name):
        # Reached only for a slot never set: the Poly view of a kept constant.
        if name != "c":
            raise AttributeError(name)
        self.c = tuple(tuple(tuple(Poly.const(x) for x in row) for row in plane)
                       for plane in self._constant)
        return self.c

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
        tensor = [[[Poly.zero() for _ in range(dim)] for _ in range(dim)]
                  for _ in range(dim)]
        for (i, j, k), value in entries.items():
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise DimensionMismatch(f"index {(i, j, k)} out of range for dim {dim}")
            if isinstance(value, str):
                value = poly_parse(value, params or PARAM_NAMES)
            tensor[i - 1][j - 1][k - 1] = Poly.coerce(value)
        return cls(dim, tensor)

    def entries(self):
        """Iterate nonzero entries as ((i, j, k), poly) with 0-based indices.

        A tensor with a kept constant reads it and builds a Poly only for
        each nonzero entry.
        """
        t = self._constant
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    if t is None:
                        p = self.c[i][j][k]
                        if p:
                            yield (i, j, k), p
                    elif t[i][j][k]:
                        yield (i, j, k), Poly.const(t[i][j][k])

    def map_entries(self, fn) -> "StructureConstants":
        return StructureConstants(self.dim, [[[fn(x) for x in row] for row in plane]
                                             for plane in self.c])

    def subs(self, mapping) -> "StructureConstants":
        return self.map_entries(lambda p: p.subs(mapping))

    def at(self, point) -> "StructureConstants":
        """The tensor at a rational point, kept as its values (``_at``)."""
        return _at((self,), point)[0]

    def variables(self) -> frozenset:
        if self._constant is not None:
            return frozenset()
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
        """Every entry as a rational (int or Fraction), in nested tuples.

        The value is computed on the first call and kept; a tensor with
        parameters raises ``MissingAssignment`` on every call and caches
        nothing.  A point is evaluated as ``sc.at(point)``.
        """
        if self._constant is None:
            self._constant = self._evaluate({})
        return self._constant

    def _evaluate(self, point) -> tuple:
        return tuple(tuple(tuple(p.eval(point) for p in row) for row in plane)
                     for plane in self.c)

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.dim == other.dim and self.c == other.c

    def __hash__(self):
        return hash((self.dim, self.c))


class Algebra:
    """Operation tensors (a subclass's ``tensors``, named by its ``OPS``) and
    a ``label``; what reads only those is written here once."""

    @property
    def dim(self) -> int:
        return self.tensors[0].dim

    def variables(self) -> frozenset:
        return frozenset().union(*(sc.variables() for sc in self.tensors))

    def subs(self, mapping):
        return type(self)(*(sc.subs(mapping) for sc in self.tensors), self.label)

    def at(self, point):
        return type(self)(*_at(self.tensors, point), self.label)


@dataclass(frozen=True)
class UnaryAlgebra(Algebra):
    """A single-operation algebra with an optional catalog label."""
    sc: StructureConstants
    label: str | None = None
    KIND = "associative"
    OPS = ("mul",)

    @property
    def tensors(self) -> tuple:
        return (self.sc,)


@dataclass(frozen=True)
class AdPair(Algebra):
    """Two-operation carrier: ``rhd`` and ``lhd`` tensors of equal dimension."""
    rhd: StructureConstants
    lhd: StructureConstants
    label: str | None = None
    KIND = "antidendriform"
    OPS = ("rhd", "lhd")

    def __post_init__(self):
        if self.rhd.dim != self.lhd.dim:
            raise DimensionMismatch("the two operation tensors have different dims")

    @property
    def tensors(self) -> tuple:
        return (self.rhd, self.lhd)


#: Each kind's file and catalog name to its class.
KINDS = {cls.KIND: cls for cls in (UnaryAlgebra, AdPair)}


def _at(tensors, point) -> list:
    """The tensors at a rational point that assigns each of their parameters.

    The point's integral values are made ints once (``_num``), so that
    evaluation multiplies ints; each tensor is evaluated once and kept as
    its values (``from_constant``), and one whose constant is already kept
    is returned as is.  A parameter without a value raises
    ``MissingAssignment`` naming every such parameter of the tensors, sorted.
    """
    point = {name: _num(x) for name, x in point.items()}
    try:
        return [sc if sc._constant is not None
                else StructureConstants.from_constant(sc.dim, sc._evaluate(point))
                for sc in tensors]
    except MissingAssignment:
        names = frozenset().union(*(sc.variables() for sc in tensors))
        raise MissingAssignment(
            "no value for " + ", ".join(sorted(names - set(point)))) from None


def combine(coeffs: Sequence, rows: Sequence[Sequence], zero) -> list:
    """sum_k coeffs[k] * rows[k], entry by entry.

    Zero coefficients and zero entries are skipped, and an entry where no
    term lands is the caller's ``zero``, so the ring (int, Fraction, QuadExt
    or Poly) is whatever the operands and ``zero`` are.  Over Poly the
    terms of each entry reached accumulate in one dict.
    """
    out = [zero] * len(rows[0])
    if type(zero) is not Poly:
        for c, row in zip(coeffs, rows):
            if not c:
                continue
            for m, entry in enumerate(row):
                if entry:
                    out[m] = out[m] + c * entry
        return out
    acc: dict = {}             # entry index -> terms dict
    for c, row in zip(coeffs, rows):
        if not c:
            continue
        cterms = c.terms.items() if type(c) is Poly else (((), c),)
        for m, entry in enumerate(row):
            if not entry:
                continue
            terms = acc.get(m)
            if terms is None:
                terms = acc[m] = {}
            for m2, c2 in (entry.terms.items() if type(entry) is Poly
                           else (((), entry),)):
                for m1, c1 in cterms:
                    mono = _mono_mul(m1, m2)
                    terms[mono] = terms.get(mono, 0) + c1 * c2
    for m, terms in acc.items():
        out[m] = Poly(_ints({mono: c for mono, c in terms.items() if c}), _trusted=True)
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


def _law_residuals(tensors, laws: Mapping) -> dict:
    """Each law's nonzero residuals ((i, j, k) 0-based, Vector), in triple order.

    A law (first, sign, second) pairs two products, and a product (outer,
    inner, left) is (e_i inner e_j) outer e_k when ``left``, else
    e_i outer (e_j inner e_k), the operations indexing ``tensors``.  Each
    product the laws name is formed once per basis triple, one ``combine``
    of the inner product's coordinates with the outer tensor's column k or
    plane i, and a residual is first + second or first - second, by sign.
    """
    cs = [sc.c for sc in tensors]
    n = len(cs[0])
    zero = Poly.zero()
    columns = [[[plane[k] for plane in c] for k in range(n)] for c in cs]
    products = list(dict.fromkeys(p for a, _, b in laws.values() for p in (a, b)))
    out = {name: [] for name in laws}
    for i, j, k in itertools.product(range(n), repeat=3):
        value = {(outer, inner, left):
                 combine(cs[inner][i][j], columns[outer][k], zero) if left
                 else combine(cs[inner][j][k], cs[outer][i], zero)
                 for outer, inner, left in products}
        for name, (a, sign, b) in laws.items():
            res = tuple(map(operator.add if sign > 0 else operator.sub,
                            value[a], value[b]))
            if any(res):
                out[name].append(((i, j, k), res))
    return {name: tuple(v) for name, v in out.items()}


#: (xy)z - x(yz) over the one tensor of an algebra.
_ASSOCIATIVITY = {"assoc": ((0, 0, True), -1, (0, 0, False))}


def is_associative(alg: UnaryAlgebra) -> AssociativityReport:
    """All basis triples with (e_i e_j) e_k != e_i (e_j e_k), symbolically."""
    return AssociativityReport(
        alg.dim, _law_residuals((alg.sc,), _ASSOCIATIVITY)["assoc"])


#: The seven component identities, in reporting order, each a law over the
#: tensors (>, <, .) = (rhd, lhd, rhd + lhd) (see ``_law_residuals``).
_IDENTITY_LAWS = {
    "id1": ((1, 0, True), -1, (0, 1, False)),  # (x>y)<z = x>(y<z)
    "id2": ((0, 0, False), 1, (0, 2, True)),   # x>(y>z) = -(x.y)>z
    "id3": ((0, 0, False), 1, (1, 2, False)),  # x>(y>z) = -x<(y.z)
    "id4": ((0, 0, False), -1, (1, 1, True)),  # x>(y>z) = (x<y)<z
    "id5": ((0, 2, True), -1, (1, 2, False)),  # (x.y)>z = x<(y.z)
    "id6": ((0, 2, True), 1, (1, 1, True)),    # -(x.y)>z = (x<y)<z
    "id7": ((1, 2, False), 1, (1, 1, True)),   # -x<(y.z) = (x<y)<z
}
IDENTITY_NAMES = tuple(_IDENTITY_LAWS)


@dataclass(frozen=True)
class AntidendriformReport:
    dim: int
    #: name -> tuple of ((i, j, k) 0-based, residual Vector), nonzero only
    failures: Mapping[str, tuple]

    @property
    def ok(self) -> bool:
        return not any(self.failures.values())

    @property
    def chains_ok(self) -> bool:
        # The chain x>(y>z) = -(x.y)>z = -x<(y.z) = (x<y)<z has the adjacent
        # differences id2, -id5 and -id7, and the middle-swap law is id1:
        # the two defining equations hold exactly when these four do.
        return not any(self.failures[n] for n in ("id1", "id2", "id5", "id7"))

    def failing_identities(self) -> tuple:
        return tuple(n for n in IDENTITY_NAMES if self.failures[n])


def check_antidendriform(ad: AdPair) -> AntidendriformReport:
    """Symbolic residuals of the seven identities on every basis triple.

    The identities are the laws of ``_IDENTITY_LAWS`` on (rhd, lhd, rhd +
    lhd), checked by the loop ``is_associative`` shares (``_law_residuals``).
    A pair is anti-dendriform exactly when all residuals vanish identically
    in the parameters; the two defining equations (the four-way chain and
    the middle-swap law) are read off four of them (``chains_ok``).
    """
    r, l = ad.rhd, ad.lhd
    return AntidendriformReport(ad.dim,
                                _law_residuals((r, l, r.add(l)), _IDENTITY_LAWS))


def is_two_nilpotent(ad: AdPair) -> bool:
    """Do all triple products vanish, for every bracketing and operation mix?

    Equivalently, every product e_i o e_j of either operation is annihilated
    on both sides by both operations: v o e_k = 0 and e_k o v = 0 for all k.
    A pair without parameters runs this test on integers, its two tensors
    scaled by the common denominator of their entries (scaling does not
    change which products vanish); when more than n of its product vectors
    are nonzero, they are first reduced to a basis of their span
    (``linalg.echelon_int``), since the products vanish on a spanning set
    exactly when they vanish on its span.  A parametric pair runs the test
    on all of its Poly product vectors, so the answer holds identically in
    the parameters.
    """
    n = ad.dim
    if ad.variables():
        tensors, zero = (ad.rhd.c, ad.lhd.c), Poly.zero()
    else:
        tensors, zero = _cleared(ad.rhd.constant_tensor(), ad.lhd.constant_tensor())[0], 0
    # e_k o v combines the rows of plane k; v o e_k combines the column k rows.
    sides = [rows for t in tensors for k in range(n)
             for rows in (t[k], [plane[k] for plane in t])]
    image = [v for t in tensors for plane in t for v in plane if any(v)]
    if type(zero) is int and len(image) > n:  # Poly.zero() == 0 holds too
        image = linalg.echelon_int(image)
    return not any(any(combine(v, rows, zero)) for v in image for rows in sides)


def _cleared(*tensors) -> tuple[list, int]:
    """Rational tensors times the lcm d of all their denominators, as ints,
    and d."""
    d = math.lcm(*(x.denominator for t in tensors for plane in t
                   for row in plane for x in row))
    return [[[[x.numerator * (d // x.denominator) for x in row] for row in plane]
             for plane in t] for t in tensors], d


def _cleared_rows(rows) -> tuple[list, int]:
    """Rational matrix rows times the lcm e of their denominators, as ints,
    and e."""
    e = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (e // x.denominator) for x in row] for row in rows], e


# -- rank computations at an instantiated point ---------------------------------


def _product_rows(tensors, left: bool):
    """Conditions on x for x o e_j = 0 (left) or e_j o x = 0, from raw tensors."""
    rows = []
    for t in tensors:
        n = len(t)
        for j in range(n):
            for m in range(n):
                if left:
                    rows.append([t[i][j][m] for i in range(n)])
                else:
                    rows.append([t[j][i][m] for i in range(n)])
    return rows


def center_ad(obj):
    """Basis of {x : x o y = y o x = 0 for all y and each operation of ``obj``},
    from the kept constants; ``center_associative`` is this same function."""
    tensors = [sc.constant_tensor() for sc in obj.tensors]
    rows = _product_rows(tensors, left=True) + _product_rows(tensors, left=False)
    return linalg.nullspace(rows, obj.dim)


center_associative = center_ad


def left_annihilator(tensors, dim: int):
    """Basis of {x : x o y = 0 for every y and tensor}, from the kept constants."""
    rows = _product_rows([sc.constant_tensor() for sc in tensors], left=True)
    return linalg.nullspace(rows, dim)


def right_annihilator(tensors, dim: int):
    """Basis of {x : y o x = 0 for every y and tensor}, from the kept constants."""
    rows = _product_rows([sc.constant_tensor() for sc in tensors], left=False)
    return linalg.nullspace(rows, dim)


@dataclass(frozen=True)
class PowerSeries:
    dims: tuple          # dim A^1, dim A^2, ... until 0 or stabilisation
    nilpotent: bool
    index: int | None    # smallest i with A^i = 0
    null_filiform: bool


def power_series(alg: UnaryAlgebra) -> PowerSeries:
    """Dimensions of the descending power series A^1 >= A^2 >= ...

    A^{i+1} = sum_k A^k A^{i+1-k}, computed on integers: the kept constant
    is scaled by the lcm of its denominators (a nonzero multiple of the
    product has the same powers), each A^k is kept as the integer echelon
    rows of its spanning set (``linalg.echelon_int``), and products of
    those rows are integer contractions.  Null-filiform means
    dim A^i = (n+1) - i for 1 <= i <= n+1.
    """
    n = alg.dim
    (t,), _ = _cleared(alg.sc.constant_tensor())

    powers = [[[1 if i == j else 0 for j in range(n)] for i in range(n)]]
    dims = [n]
    while True:
        i = len(powers)  # computing A^{i+1}
        spanning = []
        for k in range(i):
            spanning.extend(contract(t, u, v, 0)
                            for u in powers[k] for v in powers[i - 1 - k])
        basis = linalg.echelon_int(spanning)
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

    The pair's center lies in the sum's (x>y = y>x = x<y = y<x = 0 for all
    y gives x.y = y.x = 0), so the two agree exactly when their dimensions
    do.  The complement is spanned by the standard basis vectors that are
    not pivotal in the center's reduced echelon form, which makes the output
    basis deterministic.  With reduced rows z_r and pivots p_r, coordinate k
    of v on the complement is v[k] - sum_r v[p_r] z_r[k]: one ``combine``.
    """
    if len(z_sum) != len(z_ad):
        raise CenterMismatch(
            "the associative and two-operation centers differ at this point")
    center_rows, pivots = linalg.rref(z_ad)
    kept = [k for k in range(ad.dim) if k not in pivots]
    rows = [[z[k] for k in kept] for z in center_rows]

    def project(sc: StructureConstants) -> StructureConstants:
        t = sc.constant_tensor()
        return StructureConstants.from_constant(len(kept), tuple(tuple(
            tuple(combine([1] + [-t[a][b][p] for p in pivots],
                          [[t[a][b][k] for k in kept]] + rows, Fraction(0)))
            for b in kept) for a in kept))

    label = None if ad.label is None else f"{ad.label}/Z"
    return QuotientResult(type(ad)(*map(project, ad.tensors), label), tuple(kept))


# -- basis change ---------------------------------------------------------------


def transport_tensor(sc: StructureConstants, t, inv) -> StructureConstants:
    """Structure constants in the new basis e'_i = sum_j T[i][j] e_j.

    ``t`` is T = T'/e and ``inv`` is T^-1 = I'/f, each as (integer rows,
    scale), cleared once by ``apply_basis_change``, which checks the shape
    and inverts T for all the tensors it moves.  e'_i o e'_j is
    sum_k T[i][k] (e_k o e'_j) in the old basis, written in the new one by
    T^-1: the contraction of T', T', c and I', over e^2 f.  Over Poly each
    entry is scaled by 1/(e^2 f) at the end; a tensor without parameters is
    cleared too, c = C/D, and gets one Fraction over e^2 D f per nonzero
    entry, kept as its constant value, so it is never evaluated back.
    """
    n = sc.dim
    (t, e), (inv, f) = t, inv
    if sc.variables():
        c, zero, d = sc.c, Poly.zero(), 1
    else:
        (c,), d = _cleared(sc.constant_tensor())
        zero = 0
    # inner[j][k] = e_k o e'_j, once per new basis vector
    inner = [[combine(row, plane, zero) for plane in c] for row in t]
    moved = [[combine(combine(t[i], inner[j], zero), inv, zero) for j in range(n)]
             for i in range(n)]
    scale = e * e * d * f
    if type(zero) is Poly:
        s = Fraction(1, scale)
        return StructureConstants(n, [[[p * s for p in row] for row in plane]
                                      for plane in moved])
    frac0 = Fraction(0)
    return StructureConstants.from_constant(n, tuple(
        tuple(tuple(Fraction(x, scale) if x else frac0 for x in row) for row in plane)
        for plane in moved))


def apply_basis_change(obj, t_rows):
    """Transport a tensor, algebra or pair along an invertible rational matrix.

    The matrix is checked against the object's dimension, inverted, and it
    and its inverse are cleared to integer rows once; each of the object's
    tensors moves along those rows (``transport_tensor``).
    """
    if not isinstance(obj, (StructureConstants, Algebra)):
        raise TypeError(f"cannot transport {type(obj).__name__}")
    n = obj.dim
    if len(t_rows) != n or any(len(r) != n for r in t_rows):
        raise DimensionMismatch("basis-change matrix has the wrong shape")
    t = [[Fraction(x) for x in row] for row in t_rows]
    t, inv = _cleared_rows(t), _cleared_rows(linalg.invert(t))
    if isinstance(obj, StructureConstants):
        return transport_tensor(obj, t, inv)
    return type(obj)(*(transport_tensor(sc, t, inv) for sc in obj.tensors), obj.label)
