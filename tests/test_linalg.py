import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from adkit import linalg
from adkit.algebra import combine, contract
from adkit.errors import SingularMatrix
from adkit.iso import Witness
from adkit.scalars import Poly, QuadExt, poly_parse


def F(x, y=1):
    return Fraction(x, y)


def test_rref_and_rank():
    rows, pivots = linalg.rref([[F(2), F(4)], [F(1), F(2)]])
    assert rows == [[F(1), F(2)]]
    assert pivots == [0]
    assert linalg.rank([[F(1), F(0)], [F(0), F(1)]]) == 2


def test_rref_never_pivots_in_the_augmentation():
    # [A | I] with A of rank 1: the second reduced row would pivot in the
    # identity block, so with ncols=2 it is dropped instead
    a = [[F(1), F(2)], [F(2), F(4)], [F(0), F(0)]]
    aug = [row + [F(int(i == j)) for j in range(3)] for i, row in enumerate(a)]
    rows, pivots = linalg.rref(aug, 2)
    assert pivots == [0]
    assert rows == [[F(1), F(2), F(1), F(0), F(0)]]
    # the full reduction does pivot there
    assert linalg.rref(aug)[1] == [0, 2, 4]


def test_rref_lineage_reproduces_each_reduced_row(rng):
    for _ in range(20):
        a = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(5)]
        aug = [row + [F(int(i == j)) for j in range(5)] for i, row in enumerate(a)]
        rows, pivots = linalg.rref(aug, 4)
        assert all(c < 4 for c in pivots)
        assert ([row[:4] for row in rows], pivots) == linalg.rref(a)
        for row in rows:
            mix = [sum(row[4 + i] * a[i][c] for i in range(5)) for c in range(4)]
            assert mix == row[:4]


def test_nullspace_canonical():
    # x + 2y - z = 0 has the two canonical generators
    basis = linalg.nullspace([[F(1), F(2), F(-1)]], 3)
    assert basis == [[F(-2), F(1), F(0)], [F(1), F(0), F(1)]]
    for v in basis:
        assert v[0] + 2 * v[1] - v[2] == 0


def test_det_and_inverse():
    m = [[F(1), F(2)], [F(3), F(5)]]
    assert linalg.det(m) == -1
    inv = linalg.invert(m)
    ident = [[sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
    assert ident == [[1, 0], [0, 1]]
    with pytest.raises(SingularMatrix):
        linalg.invert([[F(1), F(2)], [F(2), F(4)]])


def test_quadext_field_operations_in_matrices():
    d = Fraction(2)
    m = [[QuadExt(1, 1, d), QuadExt(0, 0, d)],
         [QuadExt(0, 0, d), QuadExt(0, 1, d)]]
    # det of diag(1 + sqrt2, sqrt2) is sqrt2 + 2
    assert linalg.det(m) == QuadExt(2, 1, d)


def _cofactor_det(rows, zero):
    if len(rows) == 1:
        return rows[0][0]
    total = zero
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = entry * _cofactor_det(minor, zero)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _random_square(rng, n, draw, scale):
    """n x n matrix of ``draw()`` entries; about half of them have a
    last row that is a combination of the first two, so they are singular."""
    m = [[draw() for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.5:
        m[-1] = [x * scale + y for x, y in zip(m[0], m[1])]
    return m


def test_det_matches_cofactor_expansion(rng):
    d = F(3)
    polys = [poly_parse(t) for t in ("0", "0", "1", "-1", "a", "2*b", "a*b+1", "1/2*a^2")]
    rings = [
        (F(0), lambda: rng.choice([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4)]),
         F(2), (1, 2, 3, 4, 5)),
        (QuadExt(0, 0, d), lambda: QuadExt(rng.randint(-1, 1), rng.randint(-1, 1), d),
         QuadExt(1, 1, d), (1, 2, 3, 4)),
        (Poly.zero(), lambda: rng.choice(polys), poly_parse("a-b"), (1, 2, 3, 4)),
    ]
    for zero, draw, scale, sizes in rings:
        singular = 0
        for n in sizes * 12:
            m = _random_square(rng, n, draw, scale)
            expected = _cofactor_det(m, zero)
            assert linalg.det(m) == expected
            singular += expected == 0
        assert singular >= 10
    q = [[QuadExt(1, 1, d), QuadExt(2, 0, d), QuadExt(0, -1, d)],
         [QuadExt(0, 0, d), QuadExt(1, 2, d), QuadExt(1, 0, d)],
         [QuadExt(1, 0, d), QuadExt(0, 1, d), QuadExt(0, 0, d)]]
    assert linalg.det(q) == _cofactor_det(q, QuadExt(0, 0, d))
    assert linalg.det([q[0], q[0], q[1]]) == 0


def test_dense_constant_witness_determinant(rng):
    # a dense 12 x 12 determinant: Berkowitz takes O(n^4) ring operations,
    # where a cofactor expansion would take 12! products
    m = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(12)] for _ in range(12)]
    expected = _dense_det(m)
    assert expected != 0
    assert Witness(m).determinant() == Poly.const(expected)


def test_invert_rejects_singular_matrices():
    for m in ([[F(0)]],
              [[F(1), F(2), F(3)], [F(0), F(1), F(1)], [F(1), F(3), F(4)]],
              [[F(0), F(0)], [F(0), F(1)]]):
        with pytest.raises(SingularMatrix):
            linalg.invert(m)


def test_combine_matches_hand_expansion_in_every_ring():
    d = F(2)
    rings = [
        (0, [2, 0, -1], [[1, 2], [5, 7], [0, 3]]),
        (F(0), [F(1, 2), F(-3)], [[F(2), F(0)], [F(1, 3), F(1)]]),
        (QuadExt(0, 0, d), [QuadExt(1, 1, d), QuadExt(0, 0, d), QuadExt(0, 2, d)],
         [[QuadExt(1, 0, d), QuadExt(0, 1, d)], [QuadExt(5, 5, d), QuadExt(1, 1, d)],
          [QuadExt(0, 1, d), QuadExt(0, 0, d)]]),
        (Poly.zero(), [poly_parse("a"), poly_parse("1-b")],
         [[poly_parse("b"), Poly.zero(), poly_parse("2")],
          [poly_parse("a"), poly_parse("a*b"), Poly.zero()]]),
    ]
    for zero, coeffs, rows in rings:
        hand = [zero] * len(rows[0])
        for c, row in zip(coeffs, rows):
            hand = [h + c * x for h, x in zip(hand, row)]
        assert combine(coeffs, rows, zero) == hand


def test_combine_returns_the_given_zero_where_no_term_lands():
    for zero in (0, F(0), QuadExt(0, 0, F(5)), Poly.zero()):
        out = combine([zero, 1], [[F(1), F(1)], [zero, zero]], zero)
        assert len(out) == 2 and all(x is zero for x in out)
    out = combine([F(1)], [[F(0), F(2)]], F(0))
    assert out[0] == 0 and out[1] == 2


def test_contract_matches_hand_expansion_in_every_ring(rng):
    d = F(3)
    for zero, draw in ((0, lambda: rng.randint(-2, 2)),
                       (F(0), lambda: F(rng.randint(-2, 2), rng.randint(1, 3))),
                       (QuadExt(0, 0, d),
                        lambda: QuadExt(rng.randint(-1, 1), rng.randint(-1, 1), d)),
                       (Poly.zero(), lambda: poly_parse(rng.choice(
                           ["0", "0", "1", "a", "-2*b", "a*b+1"])))):
        n = 3
        t = [[[draw() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        x = [draw() for _ in range(n)]
        y = [draw() for _ in range(n)]
        hand = [zero] * n
        for i in range(n):
            for j in range(n):
                hand = [h + x[i] * y[j] * e for h, e in zip(hand, t[i][j])]
        assert contract(t, x, y, zero) == hand


# Monomials in parameter names (a, b, l) and unknown names (u...), few
# enough that products of drawn terms often meet and cancel.
_MONOS = [(), (("a", 1),), (("b", 1),), (("l", 1),), (("u1_1_1", 1),),
          (("u1_2_1", 1),), (("u1_1_1", 2),), (("a", 1), ("u1_2_1", 1)),
          (("l", 1), ("u1_1_1", 1))]
_COEFFS = [1, -1, 2, -2, F(1, 2), F(-1, 3)]
_SCALARS = [0, 1, -1, 3, F(1, 2), F(-2, 3)]

#: A sparse Poly: zero half the time, else up to three drawn terms.
_polys = st.one_of(
    st.just(Poly.zero()),
    st.dictionaries(st.sampled_from(_MONOS), st.sampled_from(_COEFFS),
                    min_size=1, max_size=3).map(Poly))


def _fold(coeffs, rows, zero):
    """The contraction as it was written before the Poly kernel: one
    ``h + c * x`` per nonzero coefficient and entry."""
    out = [zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            out = [h + c * x if x else h for h, x in zip(out, row)]
    return out


def _exact(vec) -> list:
    """Each entry's terms with the type of every coefficient, so that an
    int and an equal Fraction tell apart."""
    return [sorted((m, type(c).__name__, c) for m, c in Poly.coerce(p).terms.items())
            for p in vec]


@st.composite
def _combinations(draw, coeff, entry):
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeffs = draw(st.lists(coeff, min_size=k, max_size=k))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return coeffs, rows


@settings(max_examples=200, deadline=None)
@given(_combinations(_polys, _polys))
def test_poly_combine_equals_the_fold(case):
    coeffs, rows = case
    zero = Poly.zero()
    assert _exact(combine(coeffs, rows, zero)) == _exact(_fold(coeffs, rows, zero))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.lists(_polys, min_size=n, max_size=n), min_size=n,
                      max_size=n), min_size=n, max_size=n),
    st.lists(_polys, min_size=n, max_size=n),
    st.lists(_polys, min_size=n, max_size=n))))
def test_poly_contract_equals_the_fold(case):
    t, x, y = case
    zero = Poly.zero()
    fold = _fold(x, [_fold(y, plane, zero) for plane in t], zero)
    assert _exact(contract(t, x, y, zero)) == _exact(fold)


@settings(max_examples=100, deadline=None)
@given(_combinations(st.sampled_from(_SCALARS), _polys))
def test_rational_coefficients_with_poly_entries(case):
    # the Poly branch with rational coefficients on Poly rows
    coeffs, rows = case
    coeffs = [F(c) for c in coeffs]
    zero = Poly.zero()
    assert _exact(combine(coeffs, rows, zero)) == _exact(_fold(coeffs, rows, zero))


@settings(max_examples=100, deadline=None)
@given(_combinations(_polys, st.sampled_from(_SCALARS)))
def test_poly_coefficients_with_rational_entries(case):
    # the transport identity's right side on a parametric target
    coeffs, rows = case
    zero = Poly.zero()
    assert _exact(combine(coeffs, rows, zero)) == _exact(_fold(coeffs, rows, zero))


def test_int_coefficients_keep_the_zero_where_no_term_lands():
    zero = Poly.zero()
    a, u = poly_parse("a"), Poly.var("u1_1_1")
    rows = [[a, zero, u, zero], [u, zero, -u, zero], [zero, u, zero, a]]
    out = combine([2, 1, 0], rows, zero)
    assert out == [a * 2 + u, zero, u, zero]
    assert out[1] is zero and out[3] is zero
    # the u terms of coordinate 2 cancel: reached, so a new zero Poly
    assert out[2] == u and combine([1, 1], rows[:2], zero)[2] == zero
    assert combine([1, 1], rows[:2], zero)[2] is not zero
    assert _exact(out) == _exact(_fold([2, 1, 0], rows, zero))


def test_det_poly_cofactor():
    m = [[poly_parse("a"), poly_parse("1")],
         [poly_parse("1"), poly_parse("a")]]
    assert linalg.det_poly(m) == poly_parse("a^2-1")
    diag = [[poly_parse("a") if i == j else Poly.zero() for j in range(3)]
            for i in range(3)]
    assert linalg.det_poly(diag) == poly_parse("a^3")


def test_span_helpers():
    a = [[F(1), F(0), F(1)], [F(0), F(1), F(0)]]
    assert linalg.span_dim(a) == 2


# -- the sparse loop against a dense reference -------------------------------
#
# The dense forward elimination and back-substitution below are the field
# loop linalg ran before its rows became sparse integer rows: same pivot
# rule, but each pivot row is divided by its pivot, and the signed pivot
# product gives the determinant.  The fraction-free loop must reproduce its
# reduced rows, pivots and lineage exactly.


def _dense_clear(row, col, tail):
    f = row[col]
    row[col:] = [f - f] + [x - f * y for x, y in zip(row[col + 1:], tail)]


def _dense_echelon(m, ncols):
    pivots, product, r = [], Fraction(1), 0
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
                _dense_clear(m[i], col, tail)
        pivots.append(col)
        r += 1
    return pivots, product


def _dense_rref(rows, ncols=None):
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots, _ = _dense_echelon(m, len(m[0]) if ncols is None else ncols)
    for r in reversed(range(len(pivots))):
        col = pivots[r]
        tail = m[r][col + 1:]
        for i in range(r):
            if m[i][col] != 0:
                _dense_clear(m[i], col, tail)
    return m[:len(pivots)], pivots


def _dense_det(rows):
    m = [list(r) for r in rows]
    pivots, product = _dense_echelon(m, len(m))
    return product if len(pivots) == len(m) else Fraction(0)


def _sparse_matrix(rng, n_rows, n_cols, density):
    """Rational matrix with about ``density`` nonzeros; some rows repeat a
    rational combination of earlier rows, so they cancel to exact zero."""
    def entry():
        return F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3, 4]))

    m = [[entry() if rng.random() < density else F(0) for _ in range(n_cols)]
         for _ in range(n_rows)]
    for i in range(2, n_rows):
        if rng.random() < 0.25:
            a, b = rng.sample(range(i), 2)
            s, t = entry(), entry()
            m[i] = [s * x + t * y for x, y in zip(m[a], m[b])]
    return m


def _random_matrices(rng, count):
    for k in range(count):
        n_rows = rng.randint(13, 30) if k % 12 == 0 else rng.randint(1, 12)
        n_cols = n_rows if k % 4 == 0 else rng.randint(1, 40)
        yield _sparse_matrix(rng, n_rows, n_cols, rng.uniform(0.03, 0.30))


def test_sparse_loop_matches_the_dense_reference(rng):
    deficient = 0
    for m in _random_matrices(rng, 240):
        n_rows, n_cols = len(m), len(m[0])
        red = linalg.rref(m)
        assert red == _dense_rref(m)
        deficient += len(red[1]) < min(n_rows, n_cols)
        # an identity augmentation records each reduced row's lineage
        aug = [row + [F(int(i == j)) for j in range(n_rows)]
               for i, row in enumerate(m)]
        assert linalg.rref(aug, n_cols) == _dense_rref(aug, n_cols)
        assert linalg.rank(m) == len(red[1])
        if n_rows == n_cols:
            assert linalg.det(m) == _dense_det(m)
    assert deficient >= 40


def test_zero_rows_stay_in_place_for_later_swaps():
    # At the first pivot, row 1 cancels against row 0 in the pivot columns;
    # only its lineage is left.  Rows 2 and 3 both have column 1 and are
    # parallel, so the first of them must become the pivot and the other
    # cancel: a loop that moved the cancelled row away (say, by swapping the
    # last row into its place) would pick row 3 and give the reduced row
    # another lineage.
    m = [[F(1), F(1), F(0)],
         [F(1), F(1), F(0)],
         [F(0), F(1), F(0)],
         [F(0), F(2), F(0)]]
    aug = [row + [F(int(i == j)) for j in range(4)] for i, row in enumerate(m)]
    rows, pivots = linalg.rref(aug, 3)
    assert (rows, pivots) == _dense_rref(aug, 3)
    assert pivots == [0, 1]
    assert rows[1] == [F(0), F(1), F(0), F(0), F(0), F(1), F(0)]


def test_sparse_rows_never_store_a_zero(rng):
    for m in _random_matrices(rng, 120):
        n_rows, n_cols = len(m), len(m[0])
        rows = [{j: x for j, x in enumerate(row) if x} for row in m]
        for i, row in enumerate(rows):
            row[n_cols + i] = F(1)
        work = linalg._integer_rows(rows)
        linalg._echelon(work, n_cols)
        assert all(type(x) is int and x != 0 for row in work for x in row.values())
        red, pivots = linalg.rref_sparse(rows, n_cols)
        assert all(x != 0 for row in red for x in row.values())
        dense, dense_pivots = linalg.rref(
            [row + [F(int(i == j)) for j in range(n_rows)] for i, row in enumerate(m)],
            n_cols)
        assert pivots == dense_pivots
        assert red == [{j: x for j, x in enumerate(row) if x} for row in dense]


def test_echelon_origin_names_the_input_each_row_was_reduced_from(rng):
    # row k is a nonzero multiple of input origin[k] plus multiples of the
    # inputs of the pivot rows above it: the solver's presolve reads each
    # pivot row's provenance off origin, and certificate replay needs this
    for m in _random_matrices(rng, 120):
        n_rows, n_cols = len(m), len(m[0])
        rows = [{j: x for j, x in enumerate(row) if x} for row in m]
        for i, row in enumerate(rows):
            row[n_cols + i] = F(1)
        work = linalg._integer_rows(rows)
        origin = list(range(n_rows))
        pivots = linalg._echelon(work, n_cols, origin)
        assert sorted(origin) == list(range(n_rows))
        for k, row in enumerate(work):
            above = origin[:min(k, len(pivots))]
            lineage = {j - n_cols for j in row if j >= n_cols}
            assert origin[k] in lineage and lineage <= {origin[k], *above}


@st.composite
def _sparse_rows(draw):
    """(rows, ncols): 1-8 sparse rows over ncols pivot columns, of ints or
    of Fractions, half the time with an appended identity as in the
    solver's consequence step."""
    ncols = draw(st.integers(1, 8))
    entry = draw(st.sampled_from([st.integers(-3, 3),
                                  st.fractions(-3, 3, max_denominator=4)]))
    rows = [{j: x for j, x in draw(st.dictionaries(
                st.integers(0, ncols - 1), entry, max_size=ncols)).items() if x}
            for _ in range(draw(st.integers(1, 8)))]
    if draw(st.booleans()):
        for i, row in enumerate(rows):
            row[ncols + i] = 1
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(_sparse_rows())
@example(([{0: 2, 1: 4}, {0: 1, 1: 2, 2: 1}, {1: 1}], 5))  # pivots 0, 1, 2
def test_rref_sparse_from_start_is_the_tail_of_the_full_reduction(case):
    rows, ncols = case
    # int rows are reduced in place, so each call gets its own copies
    full, pivots = linalg.rref_sparse([dict(r) for r in rows], ncols)
    for start in range(ncols + 1):
        tail = [k for k, col in enumerate(pivots) if col >= start]
        assert linalg.rref_sparse([dict(r) for r in rows], ncols, start) == \
            ([full[k] for k in tail], [pivots[k] for k in tail])
    # past every pivot (start = ncols always is) nothing is formed
    assert linalg.rref_sparse([dict(r) for r in rows], ncols, ncols) == ([], [])


# -- the fraction-free rank loop against the field loop ------------------------
#
# Row scaling keeps the span and every division in the loop is by a common
# divisor, so the integer echelon rows reduce to the field loop's reduced rows.
# A truncating division anywhere would change some row and fail the match.


def _integer_matrix(rng, n_rows, n_cols):
    """Integers up to 10^6 in size; some rows and columns repeat small
    integer combinations of earlier ones, so rows cancel and columns go
    without a pivot."""
    big = 10 ** 6
    m = [[F(rng.randint(-big, big)) for _ in range(n_cols)] for _ in range(n_rows)]
    for i in range(2, n_rows):
        if rng.random() < 0.3:
            a, b = rng.sample(range(i), 2)
            s, t = rng.randint(-9, 9), rng.randint(-9, 9)
            m[i] = [s * x + t * y for x, y in zip(m[a], m[b])]
    for c in range(1, n_cols):
        if rng.random() < 0.3:
            k, s = rng.randrange(c), rng.randint(-3, 3)
            for row in m:
                row[c] = s * row[k]
    return m


def test_fraction_free_echelon_reduces_to_the_field_rref(rng):
    matrices = list(_random_matrices(rng, 240))
    matrices += [_integer_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
                 for _ in range(120)]
    # zero leading columns: the first pivot sits to the right
    for m in matrices[:60] + matrices[240:300]:
        lead = [F(0)] * rng.randint(1, 3)
        matrices.append([lead + row for row in m])
    skipped = 0
    for m in matrices:
        rows = linalg.echelon_int(m)
        assert all(type(x) is int for row in rows for x in row)
        red, pivots = linalg.rref(m)
        assert linalg.rref([[F(x) for x in row] for row in rows]) == (red, pivots)
        assert len(rows) == len(pivots)
        skipped += pivots != list(range(len(pivots)))
    assert skipped >= 150


def test_rank_is_over_q_for_ints_and_fractions():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[F(1, 3), F(1, 2)], [F(2), F(3)]]) == 1
    assert linalg.rank([[F(1, 3), F(1, 2)], [F(2), F(1)]]) == 2
    assert linalg.rank([]) == 0 and linalg.rank([[F(0), F(0)]]) == 0
    assert linalg.echelon_int([[F(1, 2), F(-1, 3)]]) == [[3, -2]]


def test_integer_rows_are_taken_as_they_are(monkeypatch):
    # rows of ints need no scaling, so no lcm is formed for them
    rows = [[2, 4, 6], [1, 2, 3], [0, 5, -1], [0, 0, 0]]
    expected = linalg.echelon_int([[F(x) for x in row] for row in rows])
    calls = []
    lcm = math.lcm
    monkeypatch.setattr(math, "lcm", lambda *xs: calls.append(xs) or lcm(*xs))
    assert linalg.echelon_int(rows) == expected == [[1, 2, 3], [0, 5, -1]]
    assert linalg.rank(rows) == 2
    assert calls == []
    # a row with one Fraction in it is still scaled
    assert linalg.echelon_int([[1, F(1, 2)]]) == [[2, 1]]
    assert len(calls) == 1


def test_integer_sparse_rows_reduce_to_the_fraction_rows(rng):
    # Poly coefficients are ints when integral, and the solver's consequence
    # step hands them to rref_sparse as they are: int rows must give the
    # Fraction input's rows, as Fractions (int / int would be a float)
    for _ in range(120):
        n_rows, n_cols = rng.randint(1, 10), rng.randint(1, 12)
        m = [[rng.choice([-3, -2, -1, 1, 2, 5, 6]) if rng.random() < 0.3 else 0
              for _ in range(n_cols)] for _ in range(n_rows)]
        if n_rows > 2:
            m[-1] = [2 * x - 3 * y for x, y in zip(m[0], m[1])]
        ints = [{j: x for j, x in enumerate(row) if x} for row in m]
        fracs = [{j: F(x) for j, x in row.items()} for row in ints]
        for i in range(n_rows):
            ints[i][n_cols + i] = 1
            fracs[i][n_cols + i] = F(1)
        red_i, piv_i = linalg.rref_sparse(ints, n_cols)
        red_f, piv_f = linalg.rref_sparse(fracs, n_cols)
        assert piv_i == piv_f
        assert red_i == red_f
        assert all(type(x) is Fraction for row in red_i for x in row.values())
        if n_rows == n_cols:
            fracs = [[F(x) for x in row] for row in m]
            assert linalg.det(m) == linalg.det(fracs) == _dense_det(fracs)
