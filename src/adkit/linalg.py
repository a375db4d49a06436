"""Small dense exact linear algebra over a field (Fraction or QuadExt).

Matrices are lists of row lists.  There is one elimination loop,
``_echelon``: forward elimination with exact division, pivoting on the
leftmost column that still has a nonzero entry at or below the current row
(first such row wins).  ``rref`` adds back-substitution; ``det`` is the
product of the pivots and ``invert`` is the reduced form of ``[A | I]``.
Row operations touch only the columns right of the pivot, where the pivot
row can be nonzero; the pivot column itself gets its exact 1 and 0 directly.

``rref``'s ``ncols`` limits the pivot search to the leading columns, so
appended columns (an identity that records how each reduced row combines
the inputs) are carried along without ever taking a pivot.  ``det`` stops
after forward elimination: back-substitution would not change the pivots,
and ``det`` runs once per candidate in the witness search.

Determinants of polynomial matrices are computed by cofactor expansion
since no division is available there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .errors import SingularMatrix
from .scalars import Poly


def _clear(row: List, col: int, tail: List):
    """Subtract row[col] times the normalised pivot row, whose entries right
    of ``col`` are ``tail``; row[col] becomes an exact zero (f - f)."""
    f = row[col]
    row[col:] = [f - f] + [x - f * y for x, y in zip(row[col + 1:], tail)]


def _echelon(m: List[List], ncols: int) -> tuple[List[int], object]:
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
            if m[pivot][col] != 0:
                break
        else:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            product = -product
        p = m[r][col]
        product = product * p
        tail = [x / p for x in m[r][col + 1:]]
        m[r][col:] = [p / p] + tail
        for i in range(r + 1, len(m)):
            if m[i][col] != 0:
                _clear(m[i], col, tail)
        pivots.append(col)
        r += 1
    return pivots, product


def rref(rows: Sequence[Sequence], ncols: int | None = None) -> tuple[List[List], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Pivots are taken only in the first ``ncols`` columns (all by default);
    rows that are zero there are dropped.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots, _ = _echelon(m, len(m[0]) if ncols is None else ncols)
    for r in reversed(range(len(pivots))):
        col = pivots[r]
        tail = m[r][col + 1:]
        for i in range(r):
            if m[i][col] != 0:
                _clear(m[i], col, tail)
    return m[:len(pivots)], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[List[Fraction]]:
    """Basis of the right nullspace, one vector per free column.

    The basis is canonical: reduced echelon constraints, free variables set
    to 1 one at a time, in increasing column order.
    """
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def det(rows: Sequence[Sequence]):
    """Determinant: the signed pivot product of forward elimination."""
    m = [list(r) for r in rows]
    pivots, product = _echelon(m, len(m))
    return product if len(pivots) == len(m) else Fraction(0)


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


def in_span(vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> bool:
    """Is ``target`` in the rational span of ``vectors``?"""
    base = [list(v) for v in vectors]
    return rank(base) == rank(base + [list(target)])


def span_dim(vectors: Sequence[Sequence[Fraction]]) -> int:
    return rank([list(v) for v in vectors])


def same_span(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> bool:
    ra = rank([list(v) for v in a])
    rb = rank([list(v) for v in b])
    if ra != rb:
        return False
    return rank([list(v) for v in a] + [list(v) for v in b]) == ra
