"""Small exact linear algebra over Q, and determinants over any commutative ring.

One elimination loop, ``_echelon``, on sparse integer rows: dicts column ->
int that never store a zero.  ``_integer_rows`` scales a rational row once
by the lcm of its denominators and takes a row of ints as it is.  The loop
pivots on the leftmost column that still has an entry at or below the
current row (first such row wins) and clears that column fraction-free,
after E. H. Bareiss (Math. Comp. 22, 1968): a row with entry f there becomes
(p/g)·row − (f/g)·pivot_row, g = gcd(p, f), divided by the gcd of its
entries.  Rows without that column are not touched, and a row left with no
entry in the pivot columns stays where it is, so later swaps are the field
loop's swaps.

At every step each row is a nonzero multiple of the row that the field
loop (divide the pivot row by its pivot, subtract f times it) would hold,
so the same entries are nonzero and every pivot choice is the same.
``rref_sparse`` back-substitutes the same way and then forms one
``Fraction(x, pivot)`` per kept entry: its reduced rows, pivots and lineage
are the field loop's, and no Fraction is formed inside the loop.  Its
``ncols`` keeps appended columns (an identity that records how each reduced
row combines the inputs) from taking a pivot; the solver's consequence step
builds such rows directly.  With ``start`` it back-substitutes and forms
Fractions only for the rows whose pivot is at or past that column, the only
ones the consequence step reads; the default 0 reduces every row.
``rref``, ``nullspace`` and ``invert`` convert dense rows (lists) at the
boundary.  ``rank`` (and so ``span_dim``) is the loop's pivot count on the
rows that are not all zero; ``echelon_int`` returns its integer pivot rows,
which the power series keeps.

``det`` is Berkowitz's division-free algorithm (S. J. Berkowitz, Inform.
Process. Lett. 18, 1984), O(n^4) ring operations, so the same code takes
int, Fraction, QuadExt and Poly matrices; ``det_poly`` is its value as a
Poly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, Sequence

from .errors import SingularMatrix
from .scalars import Poly

SparseRow = Dict[int, object]


def _integer_rows(rows: Sequence[SparseRow]) -> List[SparseRow]:
    """Integer rows with the spans of the rational ``rows``."""
    out = []
    for row in rows:
        for x in row.values():
            if type(x) is not int:
                d = math.lcm(*(x.denominator for x in row.values()))
                row = {j: x.numerator * (d // x.denominator) for j, x in row.items()}
                break
        out.append(row)
    return out


def _clear(row: SparseRow, col: int, p: int, tail: list) -> None:
    """Clear ``col`` from ``row`` against the pivot row whose entry there
    is p and whose other entries are the (column, value) pairs ``tail``."""
    f = row.pop(col)
    if not tail:  # the pivot row is p at col: dropping f leaves a multiple
        return
    g = math.gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, y in tail:
        x = row.get(j, 0) - b * y
        if x:
            row[j] = x
        else:
            del row[j]
    g = math.gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _echelon(m: List[SparseRow], ncols: int) -> List[int]:
    """Forward elimination of integer rows ``m`` in place, pivoting in
    columns < ncols; returns the pivot columns (pivot k sits in row k)."""
    pivots: List[int] = []
    n = len(m)
    for col in range(ncols):
        r = len(pivots)
        if r == n:
            break
        for k in range(r, n):
            if col in m[k]:
                break
        else:
            continue
        m[r], m[k] = m[k], m[r]
        p = m[r][col]
        tail = None
        for i in range(k + 1, n):  # rows r+1..k lack col
            if col in m[i]:
                if tail is None:
                    tail = [(j, y) for j, y in m[r].items() if j != col]
                _clear(m[i], col, p, tail)
        pivots.append(col)
    return pivots


def rref_sparse(rows: List[SparseRow], ncols: int,
                start: int = 0) -> tuple[List[SparseRow], List[int]]:
    """Reduced row echelon form of sparse rational rows; returns (rows of
    Fractions, pivot column indices).

    Pivots are taken only in columns < ncols; rows with no entry there are
    dropped.  Only the reduced rows whose pivot is at or past ``start`` are
    formed and returned: back-substitution changes a row only from the rows
    below it, so they are those of the full reduction.
    """
    m = _integer_rows(rows)
    pivots = _echelon(m, ncols)
    if start:
        first = bisect_left(pivots, start)
        m, pivots = m[first:len(pivots)], pivots[first:]
    for r in reversed(range(len(pivots))):
        col = pivots[r]
        p = m[r][col]
        tail = [(j, y) for j, y in m[r].items() if j != col]
        for i in range(r):
            if col in m[i]:
                _clear(m[i], col, p, tail)
    return [{j: Fraction(x, row[col]) for j, x in row.items()}
            for row, col in zip(m, pivots)], pivots


def _sparse(rows: Sequence[Sequence]) -> List[SparseRow]:
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def rref(rows: Sequence[Sequence], ncols: int | None = None) -> tuple[List[List], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Pivots are taken only in the first ``ncols`` columns (all by default);
    rows that are zero there are dropped.
    """
    if not rows:
        return [], []
    width = len(rows[0])
    red, pivots = rref_sparse(_sparse(rows), width if ncols is None else ncols)
    zero = Fraction(0)
    return [[row.get(j, zero) for j in range(width)] for row in red], pivots


def echelon_int(rows: Sequence[Sequence]) -> List[List[int]]:
    """Integer echelon rows spanning the same space as rational ``rows``:
    the pivot rows of the elimination loop, each divided by the gcd of its
    entries."""
    width = len(rows[0]) if rows else 0
    m = _integer_rows(_sparse(rows))
    out = []
    for row in m[:len(_echelon(m, width))]:
        g = math.gcd(*row.values())
        out.append([row.get(j, 0) // g for j in range(width)])
    return out


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q: the pivot count of the elimination loop, run without the
    all-zero rows, which can never hold a pivot."""
    width = len(rows[0]) if rows else 0
    return len(_echelon(_integer_rows(_sparse([r for r in rows if any(r)])), width))


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[List[Fraction]]:
    """Basis of the right nullspace, one vector per free column.

    The basis is canonical: reduced echelon constraints, free variables set
    to 1 one at a time, in increasing column order.
    """
    red, pivots = rref_sparse(_sparse(rows), ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def det(rows: Sequence[Sequence]):
    """Determinant by Berkowitz's algorithm, with no division.

    ``charpoly`` holds the coefficients of det(xI - A_k), highest first, for
    the leading k x k block A_k.  The next block adds diagonal entry a, row
    R and column C; its coefficients are the product of ``charpoly`` and the
    lower-triangular Toeplitz matrix with first column 1, -a, -R C,
    -R A_k C, ..., -R A_k^(k-1) C.  The determinant is (-1)^n times the
    constant coefficient.
    """
    n = len(rows)
    charpoly = [1]
    for k in range(n):
        row = rows[k][:k]
        col = [rows[i][k] for i in range(k)]
        toeplitz = [1, -rows[k][k]]
        for t in range(k):
            if t:
                col = [sum(x * y for x, y in zip(rows[i][:k], col) if x)
                       for i in range(k)]
            toeplitz.append(-sum(x * y for x, y in zip(row, col) if x))
        # charpoly[0] and the Toeplitz diagonal are 1: no product with either
        charpoly = [1] + [
            sum((toeplitz[i - j] * charpoly[j] for j in range(1, min(i, k + 1))),
                toeplitz[i] + charpoly[i] if i <= k else toeplitz[i])
            for i in range(1, k + 2)]
    return charpoly[n] if n % 2 == 0 else -charpoly[n]


def invert(rows: Sequence[Sequence]) -> List[List]:
    """Matrix inverse by reducing [A | I]; raises SingularMatrix when singular."""
    n = len(rows)
    red, pivots = rref([list(r) + [int(i == j) for j in range(n)]
                        for i, r in enumerate(rows)], n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in red]


def det_poly(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a polynomial matrix, as a Poly."""
    return Poly.coerce(det(rows))


def span_dim(vectors: Sequence[Sequence[Fraction]]) -> int:
    return rank(vectors)
