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
substitutes a point once (``ad.subs(point)``) and passes the instantiated
pairs; both read the pairs' kept constants (``constant_tensor``), so a pair's
two tensors are evaluated once however many fingerprints and searches read
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iproduct

from . import linalg
from .algebra import (AdPair, StructureConstants, center_ad, center_associative,
                      combine, contract, is_two_nilpotent, left_annihilator,
                      power_series, right_annihilator, sum_algebra)
from .errors import DimensionMismatch, SingularMatrix
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


def _transport_residuals(src, tgt, t, zero):
    """((op, i, j, m), residual) at every coordinate where the witness rows
    ``t`` break the transport identity, in (op, i, j, m) order.

    ``src`` and ``tgt`` are raw tensors paired op by op, over the ring of
    ``zero``; a verifier stops at the first residual, a report takes them all.
    """
    n = len(t)
    names = ("rhd", "lhd") if len(src) == 2 else ("mul",)
    for name, s, g in zip(names, src, tgt):
        for i in range(n):
            for j in range(n):
                lhs = contract(s, t[i], t[j], zero)
                rhs = combine(g[i][j], t, zero)
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
    quad = witness.is_quadratic
    zero = QuadExt(0, 0, witness.radicand) if quad else Poly.zero()

    def lifted(sc: StructureConstants):
        """The tensor over the witness's ring, lifted once if quadratic."""
        if not quad:
            return sc.c
        return [[[zero + p.constant_value() for p in row] for row in plane]
                for plane in sc.c]

    failures = tuple(_transport_residuals([lifted(sc) for sc in src_tensors],
                                          [lifted(sc) for sc in tgt_tensors],
                                          witness.entries, zero))
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

    Parameters must be instantiated (``ad.subs(point)``) first; a parametric
    pair raises ``MissingAssignment``.
    """
    n = ad.dim
    r = ad.rhd.constant_tensor()
    l = ad.lhd.constant_tensor()
    sum_alg = sum_algebra(ad)
    s = sum_alg.sc.constant_tensor()
    series = power_series(sum_alg)
    sym_rows = []
    for i in range(n):
        for j in range(i, n):
            sym_rows.append([r[i][j][k] - l[i][j][k] + r[j][i][k] - l[j][i][k]
                             for k in range(n)])
    return Fingerprint(
        dim=n,
        rhd_image_dim=_image_dim(r, n),
        lhd_image_dim=_image_dim(l, n),
        sum_image_dim=_image_dim(s, n),
        sum_power_dims=series.dims,
        center_ad_dim=len(center_ad(ad)),
        center_sum_dim=len(center_associative(sum_alg)),
        left_annihilator_dim=len(left_annihilator((ad.rhd, ad.lhd), n)),
        right_annihilator_dim=len(right_annihilator((ad.rhd, ad.lhd), n)),
        two_nilpotent=is_two_nilpotent(ad),
        sum_commutative=all(s[i][j] == s[j][i] for i in range(n) for j in range(n)),
        sym_diff_image_dim=linalg.span_dim(sym_rows),
    )


# -- bounded witness search -------------------------------------------------------


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


def search_witness(source: AdPair, target: AdPair, bound: int = 3,
                   radicand=None, budget: int = 200_000) -> SearchResult:
    """Bounded enumeration of rational witnesses between instantiated pairs.

    Fingerprints are compared first; unequal components short-circuit into a
    separation certificate.  Otherwise candidate matrices with entries p/q,
    |p|, |q| <= bound are tried in canonical order; the linear constraints
    imposed by the first-row image are solved before enumerating deeper rows.
    A not-found outcome is inconclusive, never a proof.

    With a radicand, a second pass retries first rows scaled by sqrt(d);
    this covers the diagonal-rescaling witnesses that need a square root.
    """
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dims differ")
    fp_s = fingerprint(source)
    fp_t = fingerprint(target)
    if fp_s != fp_t:
        return SearchResult("separated", separation=fp_s.differing(fp_t))
    n = source.dim
    src = (source.rhd.constant_tensor(), source.lhd.constant_tensor())
    tgt = (target.rhd.constant_tensor(), target.lhd.constant_tensor())

    def verifies(rows) -> bool:
        return next(_transport_residuals(src, tgt, rows, Fraction(0)), None) is None

    examined = 0
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    if verifies(ident):
        return SearchResult("found", Witness.from_rows(ident), examined=1)
    examined += 1

    grid = rational_grid(bound)

    def column_constraints(first_row):
        """Rows k>=1 constraints per column from the (e'_1, e'_1) products.

        Returns per-column (matrix, rhs) linear systems over T[1..n-1][m],
        or None when inconsistent.
        """
        images = [contract(src[o], first_row, first_row, Fraction(0))
                  for o in range(2)]
        systems = []
        for m in range(n):
            mat, rhs = [], []
            for o in range(2):
                row = [tgt[o][0][0][k] for k in range(1, n)]
                const = images[o][m] - tgt[o][0][0][0] * first_row[m]
                if any(row):
                    mat.append(row)
                    rhs.append(const)
                elif const != 0:
                    return None
            systems.append((mat, rhs))
        return systems

    def solve_column(mat, rhs):
        """Particular solution + nullspace basis, or None if inconsistent."""
        w = n - 1
        if not mat:
            return [Fraction(0)] * w, [[Fraction(1 if i == j else 0) for j in range(w)]
                                       for i in range(w)]
        aug = [list(r) + [v] for r, v in zip(mat, rhs)]
        red, pivots = linalg.rref(aug)
        if w in pivots:
            return None
        particular = [Fraction(0)] * w
        for row, pc in zip(red, pivots):
            particular[pc] = row[-1]
        null = linalg.nullspace([r[:-1] for r in red], w)
        return particular, null

    per_cell_cap = 4096  # keeps one unconstrained first row from eating the budget
    for first_row in _first_rows(grid, n):
        systems = column_constraints(list(first_row))
        if systems is None:
            continue
        solved = [solve_column(mat, rhs) for mat, rhs in systems]
        if any(s is None for s in solved):
            continue
        # each column's values particular + sum c * null over the grid, built
        # once per first row; a candidate takes one value per column
        columns = [[[x + sum(c * v[k] for c, v in zip(choice, null))
                     for k, x in enumerate(particular)]
                    for choice in iproduct(grid, repeat=len(null))]
                   for particular, null in solved]
        produced = 0
        for cols in iproduct(*columns):
            rows = [first_row, *zip(*cols)]
            examined += 1
            produced += 1
            if linalg.det(rows) != 0 and verifies(rows):
                return SearchResult("found", Witness.from_rows(rows), examined=examined)
            if examined >= budget or produced >= per_cell_cap:
                break
        if examined >= budget:
            break

    if radicand is not None:
        found = _search_quadratic(src, tgt, n, bound, radicand)
        if found is not None:
            return SearchResult("found", found, examined=examined)
    return SearchResult("not_found", examined=examined)


def _search_quadratic(src, tgt, n, bound, d, budget=500_000):
    """Small search over matrices with entries a + b*sqrt(d).

    Only diagonal-times-permutation shapes are tried; these cover the
    square-root rescalings that arise in normalisation arguments.  For a
    candidate e'_i = d_i e_{s(i)} the transport condition collapses to one
    scalar identity per tensor cell, so candidates are cheap to reject.
    """
    grid = rational_grid(bound)
    scalars = []
    for a in grid:
        for b in grid:
            if a == 0 and b == 0:
                continue
            scalars.append(QuadExt(a, b, d))
    idx = range(n)
    cells = [(i, j, k) for i in idx for j in idx for k in idx]
    examined = 0
    for perm in permutations(idx):
        for diag in iproduct(scalars, repeat=n):
            examined += 1
            if examined > budget:
                return None
            ok = True
            for o in range(2):
                s, g = src[o], tgt[o]
                for i, j, k in cells:
                    lhs = diag[i] * diag[j] * s[perm[i]][perm[j]][perm[k]]
                    rhs = diag[k] * g[i][j][k]
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                rows = [[QuadExt(0, 0, d) for _ in idx] for _ in idx]
                for i in idx:
                    rows[i][perm[i]] = diag[i]
                return Witness(tuple(tuple(r) for r in rows), Fraction(d))
    return None
