"""Small exact linear algebra over a field (Fraction or QuadExt).

Entries may also be ints, as a polynomial's integral coefficients are: the
field loop makes an int pivot a Fraction before dividing by it, so int rows
reduce to the same Fraction rows as the equal Fraction rows.

Two elimination loops.  ``_echelon`` is the field loop behind ``rref``,
``det``, ``invert`` and ``nullspace``; it runs on sparse rows: a row is a
dict column -> value that never stores a zero.  It pivots on the leftmost
column that still has a nonzero entry at or below the current row (first
such row wins), divides the pivot row by its pivot, clears it from the rows
below and negates the pivot product once per row swap.  It touches only
nonzero entries, with the exact operations a dense loop makes on them, so
reduced rows, pivots and determinants equal the dense ones.

``rref_sparse`` adds back-substitution; its ``ncols`` keeps appended columns
(an identity that records how each reduced row combines the inputs) from
taking a pivot.  The solver's consequence step builds such rows directly.
The dense functions (matrices as lists of row lists) convert at the
boundary and run the same loop; reduced rows come back with the zero of the
first entry's field (a QuadExt matrix gets QuadExt zeros).  ``det`` is the
pivot product of forward elimination and ``invert`` reduces ``[A | I]``.

``echelon_int`` is the fraction-free loop behind ``rank`` (and so
``span_dim`` and ``same_span``), which is over Q.  A rank needs no reduced
rows, pivot product or lineage, only the number of pivots, so it stands
apart from the field loop: a row of ints is taken as it is, any other row
is scaled to integers by the lcm of its denominators, which keeps the
span, and Bareiss elimination (E. H. Bareiss, Math. Comp. 22, 1968)
divides every update exactly by the previous pivot, so entries stay
integer minors and no Fraction is formed.  The fingerprint ranks and the
power series run on it, and the witness search tests each candidate for
nonsingularity by its rank, not by ``det``.

Determinants of polynomial matrices are computed by cofactor expansion
since no division is available there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence

from .errors import SingularMatrix
from .scalars import Poly

SparseRow = Dict[int, object]


def _clear(row: SparseRow, col: int, tail: list):
    """Subtract row[col] times the normalised pivot row, whose entries
    other than its 1 at ``col`` are the (column, value) pairs ``tail``."""
    f = row.pop(col)
    for j, y in tail:
        x = row.get(j)
        if x is None:
            row[j] = -(f * y)
        else:
            x = x - f * y
            if x:
                row[j] = x
            else:
                del row[j]


def _echelon(m: List[SparseRow], ncols: int) -> tuple[List[int], object]:
    """Forward elimination of ``m`` in place, pivoting in columns < ncols.

    Each pivot row is divided by its pivot and cleared from the rows below.
    Returns the pivot columns (pivot k sits in row k) and the product of
    the pivots, negated once per row swap.
    """
    pivots: List[int] = []
    product = Fraction(1)
    r = 0
    for col in range(ncols):
        if r == len(m):
            break
        for pivot in range(r, len(m)):
            if col in m[pivot]:
                break
        else:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            product = -product
        row = m[r]
        p = row.pop(col)
        if type(p) is int:  # int / int would be a float
            p = Fraction(p)
        product = product * p
        tail = [(j, x / p) for j, x in row.items()]
        m[r] = {col: p / p}
        m[r].update(tail)
        for i in range(r + 1, len(m)):
            if col in m[i]:
                _clear(m[i], col, tail)
        pivots.append(col)
        r += 1
    return pivots, product


def rref_sparse(rows: List[SparseRow], ncols: int) -> tuple[List[SparseRow], List[int]]:
    """Reduced row echelon form of sparse rows, reduced in place; returns
    (rows, pivot column indices).

    Pivots are taken only in columns < ncols; rows with no entry there are
    dropped.
    """
    pivots, _ = _echelon(rows, ncols)
    for r in reversed(range(len(pivots))):
        col = pivots[r]
        tail = [(j, y) for j, y in rows[r].items() if j != col]
        for i in range(r):
            if col in rows[i]:
                _clear(rows[i], col, tail)
    return rows[:len(pivots)], pivots


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
    zero = rows[0][0] - rows[0][0] if red else None  # a pivot needs a column
    return [[row.get(j, zero) for j in range(width)] for row in red], pivots


def echelon_int(rows: Sequence[Sequence]) -> List[List[int]]:
    """Integer echelon rows spanning the same space as rational ``rows``.

    A row of ints is taken as it is (and may come back as a pivot row; no
    row is changed in place); any other row is scaled by the lcm of its
    denominators.  The rows are then eliminated fraction-free: the leftmost
    column with a nonzero entry gives the pivot (first row wins), and every
    other row becomes ``(p*x - f*y) // prev``, where p is the pivot, f the
    row's entry in the pivot column, y the pivot row's entry and prev the
    previous pivot.  The division is exact (Sylvester's identity: each entry
    is a minor of the scaled input), also when a column has no pivot.  Rows
    that become zero are dropped.
    """
    rest = []
    for row in rows:
        if not all(type(x) is int for x in row):
            d = math.lcm(*(x.denominator for x in row))
            row = [x.numerator * (d // x.denominator) for x in row]
        if any(row):
            rest.append(row)
    out = []
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        if not rest:
            break
        for k, row in enumerate(rest):
            if row[col]:
                break
        else:
            continue
        pivot = rest.pop(k)
        p = pivot[col]
        out.append(pivot)
        reduced = []
        for row in rest:
            f = row[col]
            row = [(p * x - f * y) // prev for x, y in zip(row, pivot)]
            if any(row):
                reduced.append(row)
        rest, prev = reduced, p
    return out


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q: the number of fraction-free echelon rows."""
    return len(echelon_int(rows))


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
    """Determinant: the signed pivot product of forward elimination."""
    pivots, product = _echelon(_sparse(rows), len(rows))
    return product if len(pivots) == len(rows) else Fraction(0)


def invert(rows: Sequence[Sequence]) -> List[List]:
    """Matrix inverse by reducing [A | I]; raises SingularMatrix when singular."""
    n = len(rows)
    red, pivots = rref([list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
                        for i, r in enumerate(rows)], n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in red]


def det_poly(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a polynomial matrix by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Poly.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        cofactor = entry * det_poly(minor)
        total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total


def span_dim(vectors: Sequence[Sequence[Fraction]]) -> int:
    return rank(vectors)


def same_span(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> bool:
    ra = rank(a)
    return ra == rank(b) and rank(list(a) + list(b)) == ra
