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
each) does not see.  All candidates of one first row share one scale e:
the lcm of the denominators of the first row, of its particular solutions
and of the null-vector combinations, which are built and cleared once per
search.  A candidate T is kept when the integer matrix eT has full rank and
carries the scaled source onto e times the scaled target; scaling eT and e
by a common integer k multiplies both sides by k^2, so neither test depends
on the choice of e.  Only a found witness is turned back into rationals.

Once the first row is fixed, the pairs (0, j) and (j, 0) of the identity
are the linear part of its system: affine in rows 1..n-1, so a constant
plus one vector per column value (``_affine_table``).  Candidates whose
vectors do not cancel are rejected without being assembled, and only the
survivors take the rank test and the full identity.  The search's
``examined`` counts every candidate passed over in canonical order, the
rejected ones included, so it is the count a candidate-by-candidate loop
gives.

The identity is written out in ``_transport_residuals``: the verifier, the
rational search and the sqrt(d) search all test witnesses through it.
``_affine_table`` is a second, hand-written expansion of its pairs (0, j)
and (j, 0), kept for speed and tied to the first by its unit test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations, product as iproduct

from . import linalg
from .algebra import (AdPair, _cleared, _cleared_rows, _product_rows, combine, contract,
                      is_two_nilpotent, power_series, sum_algebra)
from .errors import BudgetExceeded, DimensionMismatch, SingularMatrix
from .scalars import Poly, QuadExt


@dataclass(frozen=True)
class Witness:
    """Invertible basis-change matrix over Q, Q(sqrt d), or the parameter ring."""
    entries: tuple  # rows of Poly or QuadExt
    radicand: Fraction | None = None

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def is_quadratic(self) -> bool:
        return any(isinstance(c, QuadExt) for row in self.entries for c in row)

    @classmethod
    def from_rows(cls, rows, radicand=None) -> "Witness":
        out = []
        for row in rows:
            conv = []
            for c in row:
                if isinstance(c, (QuadExt, Poly)):
                    conv.append(c)
                else:
                    conv.append(Poly.const(c))
            out.append(tuple(conv))
        return cls(tuple(out), radicand)

    @classmethod
    def identity(cls, dim: int) -> "Witness":
        return cls.from_rows([[1 if i == j else 0 for j in range(dim)]
                              for i in range(dim)])

    def determinant(self):
        if self.is_quadratic:
            rows = [[c if isinstance(c, QuadExt) else QuadExt(c.constant_value(), 0, self.radicand)
                     for c in row] for row in self.entries]
            return linalg.det(rows)
        return linalg.det_poly([list(row) for row in self.entries])


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    det: str
    #: ((op, i, j, m) 0-based, residual) for every failing coordinate
    failures: tuple


def _transport_residuals(src, tgt, t, zero, e=1):
    """((op, i, j, m), residual) at every coordinate where the witness rows
    ``t`` break the transport identity, in (op, i, j, m) order.

    ``src`` and ``tgt`` are raw tensors paired op by op, over the ring of
    ``zero``; a verifier stops at the first residual, a report takes them all.
    Rows ``t`` that are a witness T scaled by e are compared with e times the
    target, the identity times e^2: the search's integer test.
    Nonsingularity is the caller's test.
    """
    n = len(t)
    et = t if e == 1 else [[e * x for x in row] for row in t]
    names = ("rhd", "lhd") if len(src) == 2 else ("mul",)
    for name, s, g in zip(names, src, tgt):
        for i in range(n):
            for j in range(n):
                lhs = contract(s, t[i], t[j], zero)
                rhs = combine(g[i][j], et, zero)
                if lhs != rhs:
                    for m in range(n):
                        res = lhs[m] - rhs[m]
                        if res:
                            yield (name, i, j, m), res


def verify_witness_tensors(src_tensors, tgt_tensors, witness: Witness) -> WitnessReport:
    """Transport identity for a list of paired tensors (shared witness)."""
    n = witness.dim
    if witness.is_quadratic and witness.radicand is None:
        raise ValueError("quadratic witness entries need a radicand")
    for sc in list(src_tensors) + list(tgt_tensors):
        if sc.dim != n:
            raise DimensionMismatch("witness and tensors have different dims")
    d = witness.determinant()
    if d == 0:
        raise SingularMatrix("witness matrix has (identically) zero determinant")
    if witness.is_quadratic:
        # QuadExt arithmetic coerces the rational entries as it meets them
        zero = QuadExt(0, 0, witness.radicand)
        src = [sc.constant_tensor() for sc in src_tensors]
        tgt = [sc.constant_tensor() for sc in tgt_tensors]
    else:
        zero = Poly.zero()
        src, tgt = [sc.c for sc in src_tensors], [sc.c for sc in tgt_tensors]
    failures = tuple(_transport_residuals(src, tgt, witness.entries, zero))
    return WitnessReport(not failures, str(d), failures)


def verify_witness(source: AdPair, target: AdPair, witness: Witness) -> WitnessReport:
    """Does the witness carry the source pair onto the target pair?

    Checks both operations identically in any parameters appearing in the
    tensors or the witness entries.
    """
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dims differ")
    return verify_witness_tensors((source.rhd, source.lhd),
                                  (target.rhd, target.lhd), witness)


# -- fingerprints ---------------------------------------------------------------


FINGERPRINT_COMPONENTS = (
    "dim", "rhd_image_dim", "lhd_image_dim", "sum_image_dim", "sum_power_dims",
    "center_ad_dim", "center_sum_dim", "left_annihilator_dim",
    "right_annihilator_dim", "two_nilpotent", "sum_commutative",
    "sym_diff_image_dim",
)


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
#: 101,760 at bound 16.
SEARCH_BOUND_BUDGET = 16


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
    """Bounded enumeration of rational witnesses between instantiated pairs.

    Fingerprints are compared first; unequal components short-circuit into a
    separation certificate.  Otherwise candidate matrices with entries p/q,
    |p|, |q| <= bound are passed over in canonical order, the identity
    first; the linear constraints imposed by the first-row image are solved
    before enumerating deeper rows, and the pairs (0, j) and (j, 0) of the
    identity, affine once the first row is fixed, reject candidates before
    they are assembled (``_affine_table``).  ``examined`` counts the
    candidates passed over, those rejected that way included, and never
    exceeds ``budget``; a budget below 1 raises ``ValueError`` before any
    fingerprint.  A not-found outcome is inconclusive, never a proof.

    With a radicand, a second pass tries diagonal-times-permutation matrices
    with entries a + b*sqrt(d); this covers the diagonal rescalings that need
    a square root.  Each pass examines at most ``budget`` candidates, and
    ``examined`` counts those of the rational pass.  A bound above
    ``SEARCH_BOUND_BUDGET`` raises ``BudgetExceeded`` before anything is
    built.
    """
    if bound > SEARCH_BOUND_BUDGET:
        raise BudgetExceeded(
            "search-bound",
            f"bound {bound} exceeds the search-bound budget "
            f"({SEARCH_BOUND_BUDGET})")
    if budget < 1:
        raise ValueError(f"candidate budget {budget} is below 1")
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dims differ")
    fp_s = fingerprint(source)
    fp_t = fingerprint(target)
    fps = (fp_s, fp_t)
    if fp_s != fp_t:
        return SearchResult("separated", separation=fp_s.differing(fp_t),
                            fingerprints=fps)
    n = source.dim
    src = (source.rhd.constant_tensor(), source.lhd.constant_tensor())
    tgt = (target.rhd.constant_tensor(), target.lhd.constant_tensor())
    # the identity is linear in src and in tgt: one scale clears all four
    cleared, _ = _cleared(*src, *tgt)
    src_int, tgt_int = cleared[:2], cleared[2:]

    def carries(t, e):
        return next(_transport_residuals(src_int, tgt_int, t, 0, e), None) is None

    examined = 1
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    if carries(*_cleared_rows(ident)):
        return SearchResult("found", Witness.from_rows(ident), examined=examined,
                            fingerprints=fps)

    grid = rational_grid(bound)
    # The (e'_1, e'_1) products fix rows 1..n-1 of each column m linearly:
    # sum_k tgt[o][0][0][k] T[k][m] = (first_row o first_row)_m for both
    # operations.  The coefficients (k >= 1) depend on neither the first row
    # nor the column, so their nullspace is one per search, and one rref of
    # [lead | rhs_0 ... rhs_{n-1}] per first row solves every column.
    w = n - 1
    lead = [list(tgt[o][0][0][1:]) for o in range(2)]
    null = linalg.nullspace(lead, w)
    per_cell_cap = 4096  # keeps one unconstrained first row from eating the budget
    # a column's values are its particular plus these combinations of the
    # null vectors, coefficients in grid product order: one list, cleared
    # once (dn), for every column of every first row
    combos, dn = _cleared_rows(
        [[sum(c * v[k] for c, v in zip(choice, null)) for k in range(w)]
         for choice in islice(iproduct(grid, repeat=len(null)),
                              min(per_cell_cap, budget))])
    for first_row in _first_rows(grid, n):
        if examined >= budget:
            break
        images = [contract(src[o], first_row, first_row, Fraction(0)) for o in range(2)]
        red, pivots = linalg.rref([lead[o] + [x - tgt[o][0][0][0] * v
                                              for x, v in zip(images[o], first_row)]
                                   for o in range(2)])
        if pivots and pivots[-1] >= w:
            continue  # some column has no solution
        particulars = []
        for m in range(n):
            particular = [Fraction(0)] * w
            for row, pc in zip(red, pivots):
                particular[pc] = row[w + m]
            particulars.append(particular)
        # a candidate takes one value per column, in product order, and the
        # first ``count`` candidates are passed over; they read only the
        # first ceil(count / size^(n-1-c)) values of column c, so no column
        # is built further
        limit = min(per_cell_cap, budget - examined)
        size = min(len(combos), limit)
        count = min(size ** n, limit)
        # every part at the one scale e: the candidate is e T
        (first,), e0 = _cleared_rows([first_row])
        parts, dp = _cleared_rows(particulars)
        e = math.lcm(e0, dp, dn)
        first = [x * (e // e0) for x in first]
        columns = [[[a * (e // dp) + b * (e // dn) for a, b in zip(part, combo)]
                    for combo in combos[:-(-count // size ** (w - c))]]
                   for c, part in enumerate(parts)]
        const, vectors = _affine_table(src_int, tgt_int, first, e, columns)
        for p, picks in _survivors(const, vectors, size, count):
            t = [first, *zip(*(col[i] for col, i in zip(columns, picks)))]
            if linalg.rank(t) == n and carries(t, e):
                rows = [[Fraction(x, e) for x in row] for row in t]
                return SearchResult("found", Witness.from_rows(rows),
                                    examined=examined + p, fingerprints=fps)
        examined += count

    if radicand is not None:
        found = _search_quadratic(src, tgt, n, bound, radicand, budget)
        if found is not None:
            return SearchResult("found", found, examined=examined, fingerprints=fps)
    return SearchResult("not_found", examined=examined, fingerprints=fps)


def _affine_table(src, tgt, first, e, columns) -> tuple[list, list]:
    """The residuals of the pairs (0, j) and (j, 0), j >= 1, as a constant
    plus one vector per column value.

    With the first row fixed, those pairs of the identity are affine in rows
    1..n-1, and each entry of those rows comes from one column value.
    ``src`` and ``tgt`` are the search's cleared tensors, and ``first`` and
    each value of ``columns`` are ints at the candidate's scale e.  A
    candidate's residual in ``_transport_residuals(src, tgt, t, 0, e)`` is
    the constant plus the vectors of its values, coordinate by coordinate in
    (op, i, j, m) order over the pairs with exactly one index 0.  Returns
    (const, vectors), with vectors[c][i] a tuple for columns[c][i].
    """
    n = len(first)
    const = []
    # gens[c][k]: per coordinate, the coefficient of row k+1 of column c
    gens = [[[] for _ in range(n - 1)] for _ in range(n)]
    for s, g in zip(src, tgt):
        # T0 o T_j = sum_b T[j][b] (T0 o e_b), T_j o T0 = sum_a T[j][a] (e_a o T0)
        right = [combine(first, [plane[b] for plane in s], 0) for b in range(n)]
        left = [combine(first, plane, 0) for plane in s]
        for i in range(n):
            for j in range(n):
                if (i == 0) == (j == 0):
                    continue
                row, prods, gij = i + j, (right if i == 0 else left), g[i][j]
                # minus e sum_k tgt[i][j][k] T[k][m]: k = 0 is the first row,
                # and k >= 1 reads column m's value
                const.extend(-e * gij[0] * x for x in first)
                for c in range(n):
                    for k in range(n - 1):
                        gens[c][k].extend((prods[c][m] if k + 1 == row else 0)
                                          - (e * gij[k + 1] if m == c else 0)
                                          for m in range(n))
    vectors = []
    for c, col in enumerate(columns):
        out = []
        for ints in col:
            vec = [0] * len(const)
            for x, gen in zip(ints, gens[c]):
                if x:
                    vec = [a + x * b for a, b in zip(vec, gen)]
            out.append(tuple(vec))
        vectors.append(out)
    return const, vectors


def _survivors(const, vectors, size: int, count: int):
    """(p, picks) for each of the first ``count`` candidates, in product
    order, whose affine residual ``const`` + sum of its values' ``vectors``
    vanishes: p is its 1-based position and picks its index in each column.

    Every column holds ``size`` values, of which ``vectors`` covers those
    that the first ``count`` products read.  The last column's values are
    indexed by their vector, so each prefix of the other columns looks up
    the values that cancel its sum.
    """
    *heads, last = vectors
    index = {}
    for i, v in enumerate(last):
        index.setdefault(v, []).append(i)
    for q in range(-(-count // size)):
        rest, picks, need = q, [], [-x for x in const]
        for h in reversed(heads):        # the digits of q in base size
            rest, i = divmod(rest, size)
            picks.insert(0, i)
            need = [a - b for a, b in zip(need, h[i])]
        for i in index.get(tuple(need), ()):
            p = q * size + i + 1
            if p > count:
                break
            yield p, (*picks, i)


def _search_quadratic(src, tgt, n, bound, d, budget):
    """Small search over matrices with entries a + b*sqrt(d).

    Only diagonal-times-permutation shapes are tried, e'_i = d_i e_{s(i)};
    these cover the square-root rescalings that arise in normalisation
    arguments.  Each candidate is tested on the rational tensors, which
    QuadExt arithmetic coerces into Q(sqrt d); after ``budget`` candidates
    the pass gives up.
    """
    grid = rational_grid(bound)
    zero = QuadExt(0, 0, d)
    scalars = [QuadExt(a, b, d) for a in grid for b in grid if a or b]
    idx = range(n)
    examined = 0
    for perm in permutations(idx):
        for diag in iproduct(scalars, repeat=n):
            examined += 1
            if examined > budget:
                return None
            rows = [[diag[i] if perm[i] == k else zero for k in idx] for i in idx]
            if next(_transport_residuals(src, tgt, rows, zero), None) is None:
                return Witness(tuple(tuple(r) for r in rows), Fraction(d))
    return None
