"""Isomorphism evidence: invariant fingerprints, witness checking, search.

A witness is an invertible matrix T whose rows express a new basis inside the
source algebra: e'_i = sum_j T[i][j] e_j.  It certifies source ~ target when
the products of the new basis vectors, computed in the source, follow the
target's multiplication table:

    sum_{p,q} T[i][p] T[j][q] src[p][q][m]  =  sum_k tgt[i][j][k] T[k][m]

for every basis pair (i, j), coordinate m and both operations.  This form is
division-free, so parametric witnesses are verified symbolically; only the
determinant must be (symbolically) nonzero.

Non-isomorphism is certified exclusively by fingerprint separation: every
fingerprint component is invariant under basis change, so differing values at
a single assignment rule out any witness there.  A failed bounded search
proves nothing and is reported as such.

Fingerprints and the search need pairs without parameters.  The caller
evaluates a point once (``ad.at(point)``) and passes the instantiated
pairs; both read the pairs' kept constants (``constant_tensor``), so a pair's
two tensors are evaluated once however many fingerprints and searches read
them.

Both run on cleared integers.  A fingerprint reads the pair scaled by the
common denominator of its two tensors; its left and right product rows are
reduced once each (``linalg.echelon_int``), and the two annihilator ranks
and the center's rank are read from those echelon rows.  The search scales
its four tensors by one common denominator, which the identity (linear in
each) does not see.

Once the first row of T is fixed, the pairs (0, 0), (0, j) and (j, 0) of
the identity are linear in rows 1..n-1.  The search solves them rather than
filtering candidates by them: one nullspace of the system [A | -b] gives a
particular solution and the homogeneous directions (``_solved_rows``), and
only the pairs (i, j) with i, j >= 1 are left to the free values.  A
candidate is the particular solution plus a combination of the directions
by free values, built at one scale e per first row (``_candidates``).  The
rational pass takes grid values and keeps an integer eT that has full rank
and carries the scaled source onto e times the scaled target; scaling eT
and e by a common k multiplies both sides by k^2, so neither test depends
on e.  With a radicand d, a second pass reads the same candidates with free
values a + b sqrt(d), a and b from the grid, and keeps one that carries the
pair over Q(sqrt d) and has a nonzero determinant.  Each pass checks the
first ``budget`` units of its stream: candidates, and first rows whose
linear pairs have no solution.  Only a found witness is divided by e; the
``Witness`` constructor puts it into its ring.  The identity is written out
once, in ``_transport_residuals``: the verifier and both passes of the
search test witnesses through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import islice, product as iproduct

from . import linalg
from .algebra import (AdPair, _cleared, _cleared_rows, _product_rows, combine, contract,
                      is_two_nilpotent, power_series, sum_algebra)
from .errors import BudgetExceeded, DimensionMismatch, SingularMatrix
from .scalars import Poly, QuadExt


@dataclass(frozen=True)
class Witness:
    """Invertible basis-change matrix over the parameter ring or Q(sqrt d).

    The radicand fixes the ring, and the constructor puts every entry into
    it: without one, each entry becomes a Poly; with one, a QuadExt over d,
    so a rational or a constant Poly is read as a + 0 sqrt(d).  A QuadExt
    entry without a radicand, a parametric entry with one, a QuadExt over
    another radicand and a square radicand raise ``ValueError``.
    """
    entries: tuple  # rows of Poly, or of QuadExt when there is a radicand
    radicand: Fraction | None = None

    def __post_init__(self):
        if self.radicand is None:
            def entry(c):
                if isinstance(c, QuadExt):
                    raise ValueError("a QuadExt entry needs the witness's radicand")
                return Poly.coerce(c)
        else:
            zero = QuadExt(0, 0, self.radicand)
            object.__setattr__(self, "radicand", zero.d)

            def entry(c):
                return zero + (c.constant_value() if isinstance(c, Poly) else c)
        object.__setattr__(self, "entries",
                           tuple(tuple(map(entry, row)) for row in self.entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, dim: int) -> "Witness":
        return cls([[int(i == j) for j in range(dim)] for i in range(dim)])

    def determinant(self):
        return (linalg.det_poly if self.radicand is None else linalg.det)(self.entries)


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    det: str
    #: ((op, i, j, m) 0-based, residual) for every failing coordinate
    failures: tuple


def _transport_residuals(src, tgt, t, zero, e=1):
    """((op, i, j, m), residual), op the tensor's index, at every coordinate
    where the witness rows ``t`` break the transport identity, in that order.

    ``src`` and ``tgt`` are raw tensors paired op by op, over the ring of
    ``zero``; a verifier stops at the first residual, a report takes them all.
    Rows ``t`` that are a witness T scaled by e are compared with e times the
    target, the identity times e^2: the search's integer test.
    Nonsingularity is the caller's test.
    """
    n = len(t)
    et = t if e == 1 else [[e * x for x in row] for row in t]
    for op, (s, g) in enumerate(zip(src, tgt)):
        for i in range(n):
            for j in range(n):
                lhs = contract(s, t[i], t[j], zero)
                rhs = combine(g[i][j], et, zero)
                if lhs != rhs:
                    for m in range(n):
                        res = lhs[m] - rhs[m]
                        if res:
                            yield (op, i, j, m), res


def verify_witness(source, target, witness: Witness) -> WitnessReport:
    """Does the witness carry the source onto the target?

    Takes two pairs, whose two operations are checked alike, or two
    single-operation algebras.  The check holds identically in any
    parameters of the tensors or the witness entries; over Q(sqrt d) the
    tensors' constants are read, so a parametric one raises
    ``MissingAssignment``.
    """
    src, tgt = source.tensors, target.tensors
    if len(src) != len(tgt):
        raise TypeError("a pair and a single-operation algebra cannot be compared")
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dims differ")
    if source.dim != witness.dim:
        raise DimensionMismatch("witness and tensors have different dims")
    d = witness.determinant()
    if d == 0:
        raise SingularMatrix("witness matrix has (identically) zero determinant")
    if witness.radicand is None:
        zero = Poly.zero()
        src, tgt = [sc.c for sc in src], [sc.c for sc in tgt]
    else:
        zero = QuadExt(0, 0, witness.radicand)
        src = [sc.constant_tensor() for sc in src]
        tgt = [sc.constant_tensor() for sc in tgt]
    failures = tuple(((source.OPS[op], *key), res) for (op, *key), res
                     in _transport_residuals(src, tgt, witness.entries, zero))
    return WitnessReport(not failures, str(d), failures)


# -- fingerprints ---------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Basis-invariant profile of a pair at an instantiated point.

    Every component is a rank or flag of an object that transports
    canonically under basis change, so equal pairs of fingerprints are a
    precondition for isomorphism and differing ones certify separation.
    """
    dim: int
    rhd_image_dim: int
    lhd_image_dim: int
    sum_image_dim: int
    sum_power_dims: tuple
    center_ad_dim: int
    center_sum_dim: int
    left_annihilator_dim: int
    right_annihilator_dim: int
    two_nilpotent: bool
    sum_commutative: bool
    sym_diff_image_dim: int

    def components(self) -> tuple:
        return tuple(getattr(self, name) for name in FINGERPRINT_COMPONENTS)

    def differing(self, other: "Fingerprint") -> tuple:
        return tuple(name for name in FINGERPRINT_COMPONENTS
                     if getattr(self, name) != getattr(other, name))


FINGERPRINT_COMPONENTS = tuple(f.name for f in fields(Fingerprint))


def _image_dim(tensor, n: int) -> int:
    return linalg.span_dim([tensor[i][j] for i in range(n) for j in range(n)])


def fingerprint(ad: AdPair) -> Fingerprint:
    """Compute the invariant profile from the pair's kept constants.

    Parameters must be instantiated (``ad.at(point)``) first; a parametric
    pair raises ``MissingAssignment``.  The ranks and flags are read on the
    pair cleared to integers by one common denominator, so r + l is a
    nonzero multiple of the sum's tensor, with its ranks and its symmetry.
    The left and right product rows are reduced once each; the annihilators'
    ranks are their echelon row counts, and the center's rank is that of the
    two echelons together, which span the same space as all the rows.
    """
    n = ad.dim
    (r, l), _ = _cleared(ad.rhd.constant_tensor(), ad.lhd.constant_tensor())
    s = [[[x + y for x, y in zip(xr, yr)] for xr, yr in zip(rp, lp)]
         for rp, lp in zip(r, l)]
    series = power_series(sum_algebra(ad))
    sym_rows = []
    for i in range(n):
        for j in range(i, n):
            sym_rows.append([r[i][j][k] - l[i][j][k] + r[j][i][k] - l[j][i][k]
                             for k in range(n)])
    # each center and annihilator is the nullspace of its product rows
    left = linalg.echelon_int([v for v in _product_rows([r, l], left=True) if any(v)])
    right = linalg.echelon_int([v for v in _product_rows([r, l], left=False) if any(v)])
    sum_rows = _product_rows([s], left=True) + _product_rows([s], left=False)
    return Fingerprint(
        dim=n,
        rhd_image_dim=_image_dim(r, n),
        lhd_image_dim=_image_dim(l, n),
        sum_image_dim=series.dims[1],  # dim A^2, spanned by the e_i.e_j
        sum_power_dims=series.dims,
        center_ad_dim=n - linalg.span_dim(left + right),
        center_sum_dim=n - linalg.span_dim(sum_rows),
        left_annihilator_dim=n - len(left),
        right_annihilator_dim=n - len(right),
        two_nilpotent=is_two_nilpotent(ad),
        sum_commutative=all(s[i][j] == s[j][i] for i in range(n) for j in range(n)),
        sym_diff_image_dim=linalg.span_dim(sym_rows),
    )


# -- bounded witness search -------------------------------------------------------

#: The largest ``bound`` the search admits.  The grid holds fewer than
#: 2*bound^2 + 1 rationals, and the sqrt(d) pass holds |grid|^2 scalars:
#: 101,761 at bound 16.
SEARCH_BOUND_BUDGET = 16
#: Candidates tried per first row, so that one first row with many free
#: values cannot spend the whole budget.
ROW_CANDIDATES = 64


def rational_grid(bound: int):
    """Rationals p/q with |p|, q <= bound, ordered simplest first."""
    values = {Fraction(0)}
    for q in range(1, bound + 1):
        for p in range(1, bound + 1):
            values.add(Fraction(p, q))
            values.add(Fraction(-p, q))
    return sorted(values, key=lambda f: (abs(f.numerator) + f.denominator,
                                         f.denominator, abs(f), f < 0))


def _first_rows(grid, n: int):
    """Nonzero rows of n grid values, lazily, simplest first: by total
    complexity |p| + q, then by (p, q) entry by entry.

    Rows are built entry by entry, each prefix passing down the complexity
    its suffix must add up to, so memory stays O(n) however large the grid.
    """
    def cost(v):
        return abs(v.numerator) + v.denominator

    values = sorted(grid, key=lambda v: (v.numerator, v.denominator))
    lo, hi = min(map(cost, values)), max(map(cost, values))

    def rows(k: int, total: int):
        if k == 0:
            yield ()
            return
        for v in values:
            rest = total - cost(v)
            if (k - 1) * lo <= rest <= (k - 1) * hi:
                for tail in rows(k - 1, rest):
                    yield (v,) + tail

    for total in range(n * lo, n * hi + 1):
        for row in rows(n, total):
            if any(row):
                yield row


@dataclass(frozen=True)
class SearchResult:
    status: str                       # "found" | "separated" | "not_found"
    witness: Witness | None = None
    separation: tuple = ()            # differing fingerprint components
    examined: int = 0
    fingerprints: tuple = ()          # (source, target), compared first


def search_witness(source: AdPair, target: AdPair, bound: int = 3,
                   radicand=None, budget: int = 200_000) -> SearchResult:
    """Bounded search for a witness between instantiated pairs.

    Fingerprints are compared first; unequal components short-circuit into a
    separation certificate.  Otherwise the identity is tried, and then the
    candidates of ``_candidates`` for the first rows of grid values p/q,
    |p|, q <= bound, in ``_first_rows`` order.  ``examined`` counts the
    candidates checked, the identity included, and one unit for each first
    row whose linear pairs have no solution, so it bounds the solves too.
    It never exceeds ``budget``; a budget below 1 or a radicand that is a
    rational square raises ``ValueError`` before any fingerprint.  A
    not-found outcome is inconclusive, never a
    proof.  With a radicand, and only when the rational pass finds nothing,
    the same candidates are read again with free values a + b*sqrt(d), a
    and b from the grid, up to ``budget`` units; ``examined`` counts the
    rational pass.  A bound above ``SEARCH_BOUND_BUDGET`` raises
    ``BudgetExceeded`` before anything is built.
    """
    if bound > SEARCH_BOUND_BUDGET:
        raise BudgetExceeded(
            "search-bound",
            f"bound {bound} exceeds the search-bound budget "
            f"({SEARCH_BOUND_BUDGET})")
    if budget < 1:
        raise ValueError(f"candidate budget {budget} is below 1")
    # the sqrt(d) pass's zero: a square radicand raises before any work
    zero = None if radicand is None else QuadExt(0, 0, radicand)
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dims differ")
    fp_s = fingerprint(source)
    fp_t = fingerprint(target)
    fps = (fp_s, fp_t)
    if fp_s != fp_t:
        return SearchResult("separated", separation=fp_s.differing(fp_t),
                            fingerprints=fps)
    n = source.dim
    # the identity is linear in src and in tgt: one scale clears all four
    cleared, _ = _cleared(source.rhd.constant_tensor(), source.lhd.constant_tensor(),
                          target.rhd.constant_tensor(), target.lhd.constant_tensor())
    src, tgt = cleared[:2], cleared[2:]

    def carries(t, e, ring_zero=0):
        return next(_transport_residuals(src, tgt, t, ring_zero, e), None) is None

    def found(t, e, radicand=None):
        rows = [[Fraction(1, e) * x for x in row] for row in t]
        return SearchResult("found", Witness(rows, radicand),
                            examined=examined, fingerprints=fps)

    examined = 1
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    if carries(ident, 1):
        return found(ident, 1)

    grid = rational_grid(bound)
    # the free values are c/g, c in Z or in Z[sqrt d]
    g = math.lcm(*(c.denominator for c in grid))
    for t, e in islice(_candidates(src, tgt, grid, g, [int(c * g) for c in grid], n),
                       budget - 1):
        examined += 1
        if t is not None and linalg.rank(t) == n and carries(t, e):
            return found(t, e)
    if zero is not None:
        scalars = [QuadExt(a * g, b * g, zero.d) for a in grid for b in grid]
        for t, e in islice(_candidates(src, tgt, grid, g, scalars, n), budget):
            if t is not None and carries(t, e, zero) and linalg.det(t) != 0:
                return found(t, e, zero.d)
    return SearchResult("not_found", examined=examined, fingerprints=fps)


def _candidates(src, tgt, grid, g, values, n: int):
    """(e T, e) for each candidate in search order: for each first row that
    ``_solved_rows`` solves, at most ``ROW_CANDIDATES``, the particular
    solution plus (c/g)-combinations of the homogeneous directions, c from
    ``values`` in product order, all at the row's one scale e.  A first row
    without a solution yields (None, 0), so that it costs one unit."""
    for f, e0, particular, directions in _solved_rows(src, tgt, grid, n):
        if particular is None:
            yield None, 0
            continue
        (part, *vecs), d = _cleared_rows([particular, *directions])
        e = e0 * d * g
        first = [x * d * g for x in f]
        for cs in islice(iproduct(values, repeat=len(vecs)), ROW_CANDIDATES):
            rest = [e0 * (g * x + sum(c * v[u] for c, v in zip(cs, vecs) if c and v[u]))
                    for u, x in enumerate(part)]
            yield [first, *(rest[k:k + n] for k in range(0, len(rest), n))], e


def _solved_rows(src, tgt, grid, n: int):
    """(f, e0, particular, directions) for each first row in search order;
    the last two are None when its linear pairs cannot be met.

    f is the first row cleared to integers at scale e0.  With it fixed, the
    pairs (0, 0), (0, j) and (j, 0) of the identity, on the cleared tensors
    ``src`` and ``tgt``, are linear in the rows 1..n-1 of e0 T, read row by
    row as y: the residual of each such pair is A y - b.  The null vectors
    of [A | -b] are canonical (``linalg.nullspace``), so the system is
    solvable exactly when the last column is free; its vector, cut to y and
    divided by e0, is the particular solution, and the others span the
    homogeneous solutions.
    """
    w = (n - 1) * n
    pairs = [(0, 0)] + [(0, k) for k in range(1, n)] + [(k, 0) for k in range(1, n)]
    # Per residual row (op, pair, m), the coefficients of y: the products
    # f o e_q and e_q o f, through which row k enters the pairs (0, k) and
    # (k, 0), as one table per entry f[p]; less the target's rows 1..n-1.
    # The target's row 0 and the product f o f go to the constant.
    prods = [[] for _ in range(n)]
    target, rows = [], []
    for o, (s, g) in enumerate(zip(src, tgt)):
        for i, j in pairs:
            for m in range(n):
                for p in range(n):
                    prods[p].extend((s[p][q][m] if i == 0 else s[q][p][m]) if i + j == k
                                    else 0 for k in range(1, n) for q in range(n))
                target.extend(g[i][j][k] * (q == m) for k in range(1, n) for q in range(n))
                rows.append((o, i == j, g[i][j][0], m))
    for first_row in _first_rows(grid, n):
        (f,), e0 = _cleared_rows([first_row])
        coeffs = combine([*f, -e0], [*prods, target], 0)
        ff = [contract(s, f, f, 0) for s in src]
        system = [coeffs[r * w:r * w + w] + [(ff[o][m] if origin else 0) - e0 * g0 * f[m]]
                  for r, (o, origin, g0, m) in enumerate(rows)]
        null = linalg.nullspace(system, w + 1)
        if null and null[-1][w]:
            yield f, e0, [y / e0 for y in null[-1][:w]], [v[:w] for v in null[:-1]]
        else:
            yield f, e0, None, None
