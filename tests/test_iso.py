import random
import tracemalloc
from fractions import Fraction
from itertools import islice, permutations, product as iproduct

import pytest

from adkit import catalog, iso, linalg
from adkit.algebra import (AdPair, StructureConstants, _cleared, _cleared_rows,
                           apply_basis_change, center_ad, center_associative, contract,
                           left_annihilator, power_series, right_annihilator,
                           sum_algebra)
from adkit.errors import DimensionMismatch, MissingAssignment, SingularMatrix
from adkit.scalars import Poly, QuadExt, poly_parse

from conftest import constant_pair, random_invertible, registry_points

F = Fraction


def witness_from_exprs(rows):
    return iso.Witness([[poly_parse(c) for c in row] for row in rows])


# -- witness verification ---------------------------------------------------------


def test_identity_witness_passes_everywhere():
    for eid in ("AD3_1", "AD3_10", "AD2_3"):
        ad = catalog.entry(eid).tensors()
        assert iso.verify_witness(ad, ad, iso.Witness.identity(ad.dim)).ok


def test_symmetry_witness_of_as3_2_family():
    src = catalog.entry("AD3_8").tensors()
    tgt = src.subs({"a": poly_parse("-b"), "b": poly_parse("-a")})
    w = witness_from_exprs([["1", "0", "0"], ["-a-b", "1", "0"], ["0", "0", "1"]])
    assert iso.verify_witness(src, tgt, w).ok


def test_wrong_witness_reports_failures():
    src = catalog.entry("AD3_8").tensors()
    tgt = src.subs({"a": poly_parse("-b"), "b": poly_parse("-a")})
    w = witness_from_exprs([["1", "0", "0"], ["a", "1", "0"], ["0", "0", "1"]])
    rep = iso.verify_witness(src, tgt, w)
    assert not rep.ok and rep.failures


def test_scaling_witness_onto_second_corollary_algebra():
    fam = catalog.get("AD3_nullfiliform_family", {"a": F(2)}, strict=False)
    tgt = catalog.get("AD3_2")
    w = iso.Witness([[2, 0, 0], [0, 4, 0], [0, 0, 8]])
    assert iso.verify_witness(fam, tgt, w).ok


def test_singular_witness_rejected():
    ad = catalog.get("AD3_10")
    w = iso.Witness([[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrix):
        iso.verify_witness(ad, ad, w)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        iso.verify_witness(catalog.get("AD3_10"), catalog.get("AD2_2"),
                           iso.Witness.identity(3))
    # a pair has two operations and its sum one: there is nothing to pair up
    ad = catalog.get("AD3_10")
    with pytest.raises(TypeError, match="single-operation"):
        iso.verify_witness(ad, sum_algebra(ad), iso.Witness.identity(3))


# -- fingerprints ------------------------------------------------------------------


def test_corollary_pair_separated_only_by_symmetric_difference():
    f1 = iso.fingerprint(catalog.get("AD3_1"))
    f2 = iso.fingerprint(catalog.get("AD3_2"))
    assert f1.differing(f2) == ("sym_diff_image_dim",)
    assert f1.sym_diff_image_dim == 0 and f2.sym_diff_image_dim == 1


def test_zero_pair_fingerprint():
    zero = AdPair(StructureConstants.zero(3), StructureConstants.zero(3))
    fp = iso.fingerprint(zero)
    assert fp.rhd_image_dim == fp.lhd_image_dim == fp.sum_image_dim == 0
    assert fp.center_ad_dim == fp.center_sum_dim == 3
    assert fp.two_nilpotent and fp.sum_commutative


def test_annihilator_profile_of_flat_pairs():
    f5 = iso.fingerprint(catalog.get("AD3_5"))
    f6 = iso.fingerprint(catalog.get("AD3_6"))
    # the joint annihilator dims coincide; the two-operation centers differ
    assert f5.left_annihilator_dim == f6.left_annihilator_dim == 2
    assert f5.right_annihilator_dim == f6.right_annihilator_dim == 2
    assert (f5.center_ad_dim, f6.center_ad_dim) == (2, 1)
    assert f5.differing(f6) == ("center_ad_dim",)


def test_fingerprint_invariance_under_basis_change(rng):
    # quick spot check; the full 50-changes-per-entry sweep runs in the
    # acceptance suite
    for eid in ("AD3_1", "AD3_8", "AD3_10", "AD3_15", "AD2_3", "AD3_22"):
        e = catalog.entry(eid)
        assign = {p: F(2) for p in e.params}
        ad = e.instantiate(assign, strict=False) if e.params else e.tensors()
        base = iso.fingerprint(ad)
        for _ in range(5):
            t = random_invertible(rng, ad.dim)
            assert iso.fingerprint(apply_basis_change(ad, t)) == base


def _power_dims_by_rref(alg):
    """dim A^1, A^2, ... by the definition: Fraction rref of every product
    A^k A^(i-k), until 0 or stabilisation."""
    n = alg.dim
    t = alg.sc.constant_tensor()
    powers = [[[F(int(i == j)) for j in range(n)] for i in range(n)]]
    dims = [n]
    while dims[-1] and (len(dims) == 1 or dims[-1] != dims[-2]):
        i = len(powers)
        spanning = [contract(t, u, v, F(0))
                    for k in range(i) for u in powers[k] for v in powers[i - 1 - k]]
        basis = linalg.rref(spanning)[0]
        powers.append(basis)
        dims.append(len(basis))
    return tuple(dims)


def test_fingerprint_ranks_match_the_basis_helpers(rng):
    points = 0
    for ad in registry_points():
        for moved in [ad] + [apply_basis_change(ad, random_invertible(rng, ad.dim))
                             for _ in range(3)]:
            fp = iso.fingerprint(moved)
            pair = (moved.rhd, moved.lhd)
            total = sum_algebra(moved)
            assert fp.center_ad_dim == len(center_ad(moved))
            assert fp.center_sum_dim == len(center_associative(total))
            assert fp.left_annihilator_dim == len(left_annihilator(pair, moved.dim))
            assert fp.right_annihilator_dim == len(right_annihilator(pair, moved.dim))
            assert fp.sum_power_dims == power_series(total).dims
            assert fp.sum_power_dims == _power_dims_by_rref(total)
        points += 1
    assert points == 57


def test_moved_copy_keeps_the_constants_of_its_basis_change(monkeypatch, rng):
    # The basis change hands each moved tensor the Fractions it computed, so
    # a fingerprint of the copy evaluates only its sum tensor.
    moved = apply_basis_change(catalog.get("AD3_10"), random_invertible(rng, 3))
    evaluate = StructureConstants._evaluate
    calls = []

    def counted(self, point):
        calls.append(self)
        return evaluate(self, point)

    monkeypatch.setattr(StructureConstants, "_evaluate", counted)
    iso.fingerprint(moved)
    assert len(calls) == 1
    assert moved.rhd.constant_tensor() == evaluate(moved.rhd, {})
    assert moved.lhd.constant_tensor() == evaluate(moved.lhd, {})
    parametric = apply_basis_change(catalog.get("AD3_22"), random_invertible(rng, 3))
    with pytest.raises(MissingAssignment):
        parametric.rhd.constant_tensor()


# -- search --------------------------------------------------------------------------


def test_search_finds_identity_for_self():
    ad = catalog.get("AD3_10")
    res = iso.search_witness(ad, ad, bound=1)
    assert res.status == "found"
    assert res.witness.entries == iso.Witness.identity(3).entries


def test_search_reads_the_callers_constants(monkeypatch):
    # The pair's rhd and lhd are evaluated once, on the pair itself, and
    # each fingerprint's sum tensor once: 4 tensors of 27 entries; nothing
    # is substituted.
    calls = {"subs": 0, "eval": 0}
    for name in calls:
        original = getattr(Poly, name)

        def counted(self, mapping, name=name, original=original):
            calls[name] += 1
            return original(self, mapping)

        monkeypatch.setattr(Poly, name, counted)
    ad = catalog.get("AD3_10")
    assert iso.search_witness(ad, ad).status == "found"
    assert calls == {"subs": 0, "eval": 108}
    with pytest.raises(MissingAssignment):
        iso.fingerprint(catalog.get("AD3_22"))


def test_search_finds_the_boundary_identification():
    a21 = catalog.get("AD3_21", {"a": F(-1)}, strict=False)
    a20 = catalog.get("AD3_20", {"a": F(0)})
    res = iso.search_witness(a21, a20, bound=3)
    assert res.status == "found"
    assert iso.verify_witness(a21, a20, res.witness).ok


def test_search_rediscovers_the_symmetry_witness():
    a = catalog.get("AD3_8", {"a": F(1), "b": F(2)})
    b = catalog.get("AD3_8", {"a": F(-2), "b": F(-1)})
    res = iso.search_witness(a, b, bound=3)
    assert res.status == "found"
    assert iso.verify_witness(a, b, res.witness).ok


@pytest.mark.parametrize("bound, dim", [(1, 3), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_first_rows_follow_the_sorted_order(bound, dim):
    grid = iso.rational_grid(bound)
    expected = sorted(
        (row for row in iproduct(grid, repeat=dim) if any(row)),
        key=lambda row: (sum(abs(v.numerator) + v.denominator for v in row),
                         [(v.numerator, v.denominator) for v in row]))
    assert list(iso._first_rows(grid, dim)) == expected


def test_first_rows_are_generated_lazily():
    # bound 4 at dimension 4 has 23^4 (about 280k) rows; listing them all
    # would take seconds and well over 100 MB before the first candidate
    grid = iso.rational_grid(4)
    tracemalloc.start()
    try:
        head = list(islice(iso._first_rows(grid, 4), 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(head) == 10 and head[0] == (F(-1), F(0), F(0), F(0))
    assert peak < 2_000_000


def _fraction_column_values(particular, null, grid, limit):
    """Column values as rational rows: the first ``limit`` values
    particular + sum c * null, coefficients in grid product order."""
    return [[x + sum(c * v[k] for c, v in zip(choice, null))
             for k, x in enumerate(particular)]
            for choice in islice(iproduct(grid, repeat=len(null)), limit)]


def _lead(tgt):
    """The coefficients of rows 1..n-1 in the (e'_1, e'_1) products."""
    return [list(tgt[o][0][0][1:]) for o in range(2)]


def _solvable_first_rows(src, tgt, grid):
    """(first row, each column's particular solution) for every first row,
    in search order, whose (e'_1, e'_1) products some rows 1..n-1 meet."""
    n = len(src[0])
    w = n - 1
    lead = _lead(tgt)
    for first_row in iso._first_rows(grid, n):
        images = [contract(src[o], first_row, first_row, F(0)) for o in range(2)]
        red, pivots = linalg.rref([lead[o] + [x - tgt[o][0][0][0] * v
                                              for x, v in zip(images[o], first_row)]
                                   for o in range(2)])
        if pivots and pivots[-1] >= w:
            continue
        particulars = []
        for m in range(n):
            particular = [F(0)] * w
            for row, pc in zip(red, pivots):
                particular[pc] = row[w + m]
            particulars.append(particular)
        yield first_row, particulars


def _candidates(rng, witness):
    """Rows the search could try on a pair with this witness: the witness,
    random grid and invertible matrices, and singular ones (the zero matrix
    carries every pair)."""
    n = len(witness)
    grid = iso.rational_grid(2)
    out = [witness, [[F(0)] * n for _ in range(n)],
           [witness[0], witness[0]] + witness[2:],
           [[2 * x for x in witness[0]]] + witness[1:n - 1]
           + [[x + y for x, y in zip(witness[0], witness[-2])]]]
    out += [random_invertible(rng, n) for _ in range(3)]
    out += [[[rng.choice(grid) for _ in range(n)] for _ in range(n)] for _ in range(3)]
    return out


def test_integer_candidate_test_agrees_with_the_fraction_one(rng):
    # the search clears the four tensors by one lcm and each candidate by its
    # own; its transport check must match the Fraction residuals, and its
    # integer rank test the Fraction determinant
    outcomes = {"witness": 0, "scaled witness": 0, "singular carrier": 0,
                "singular": 0, "rejected": 0}
    for ad in registry_points():
        t = random_invertible(rng, ad.dim)
        moved = apply_basis_change(ad, t)
        for src_pair, tgt_pair, witness in ((ad, moved, t),
                                            (moved, ad, linalg.invert(t))):
            src = (src_pair.rhd.constant_tensor(), src_pair.lhd.constant_tensor())
            tgt = (tgt_pair.rhd.constant_tensor(), tgt_pair.lhd.constant_tensor())
            cleared, _ = _cleared(*src, *tgt)
            for rows in _candidates(rng, witness):
                ints, e = _cleared_rows(rows)
                carries = next(iso._transport_residuals(cleared[:2], cleared[2:],
                                                        ints, 0, e), None) is None
                assert carries == (
                    next(iso._transport_residuals(src, tgt, rows, F(0)), None) is None)
                nonsingular = linalg.rank(ints) == ad.dim
                assert nonsingular == (linalg.det(rows) != 0)
                if carries and nonsingular:
                    outcomes["scaled witness" if e > 1 else "witness"] += 1
                elif carries:
                    outcomes["singular carrier"] += 1
                else:
                    outcomes["singular" if not nonsingular else "rejected"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_search_clears_source_and_target_alike():
    # integer pairs against copies with denominators, both ways round: the
    # witness holds only if source and target are scaled by the same factor
    half = [[F(1, 2), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    for eid in ("AD3_5", "AD3_10", "AD3_14"):
        ad = catalog.get(eid)
        moved = apply_basis_change(ad, half)
        assert any(x.denominator > 1 for sc in (moved.rhd, moved.lhd)
                   for plane in sc.constant_tensor() for row in plane for x in row)
        for src, tgt in ((ad, moved), (moved, ad)):
            res = iso.search_witness(src, tgt, bound=2)
            assert res.status == "found", eid
            assert iso.verify_witness(src, tgt, res.witness).ok


def test_search_returns_separation_immediately():
    res = iso.search_witness(catalog.get("AD3_5"), catalog.get("AD3_6"))
    assert res.status == "separated"
    assert res.separation == ("center_ad_dim",)


def test_search_never_contradicts_separation_across_catalog():
    dim3 = [e for e in catalog.entries()
            if e.kind == "antidendriform" and e.dim == 3
            and not e.auxiliary and e.id != "AD3_17"]
    pairs = []
    instantiated = {}
    for e in dim3:
        assign = {p: F(2) for p in e.params}
        try:
            instantiated[e.id] = e.instantiate(assign) if e.params else e.tensors()
        except Exception:
            instantiated[e.id] = e.instantiate(assign, strict=False)
    ids = sorted(instantiated)
    for i, x in enumerate(ids):
        for y in ids[i + 1:]:
            fx = iso.fingerprint(instantiated[x])
            fy = iso.fingerprint(instantiated[y])
            if fx != fy:
                res = iso.search_witness(instantiated[x], instantiated[y])
                assert res.status == "separated", (x, y)
                pairs.append((x, y))
    assert pairs  # plenty of separated pairs exist


def test_found_witnesses_always_verify(rng):
    # search against basis-changed copies of catalog algebras
    for eid in ("AD3_5", "AD3_10", "AD2_2"):
        ad = catalog.get(eid)
        t = [[F(1), F(0), F(0)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]][:ad.dim]
        t = [row[:ad.dim] for row in t]
        moved = apply_basis_change(ad, t)
        res = iso.search_witness(ad, moved, bound=2)
        assert res.status == "found"
        assert iso.verify_witness(ad, moved, res.witness).ok


def test_search_budget_bounds_the_candidates_examined(monkeypatch):
    # budget 1 tries the identity alone, and no budget is overrun; a budget
    # below 1 and a square radicand are rejected before any fingerprint is
    # computed
    ad = catalog.get("AD3_10")
    moved = apply_basis_change(ad, [[F(0), F(1), F(0)], [F(-1), F(0), F(0)],
                                    [F(0), F(0), F(1)]])
    res = iso.search_witness(moved, ad, bound=2, budget=1)
    assert (res.status, res.examined) == ("not_found", 1)
    for budget in range(2, 40):
        res = iso.search_witness(moved, ad, bound=2, budget=budget)
        assert res.examined <= budget
        assert res.status == "found" or res.examined == budget
    computed = []
    monkeypatch.setattr(iso, "fingerprint", computed.append)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget"):
            iso.search_witness(moved, ad, budget=budget)
    for radicand in (4, 0):
        with pytest.raises(ValueError, match="rational square"):
            iso.search_witness(moved, ad, radicand=radicand)
    assert computed == []


def test_search_budget_bounds_the_first_rows_solved(monkeypatch):
    # a first row whose linear pairs have no solution costs one unit, so no
    # search solves more first rows than its budget: the seed-7 random
    # copies of AD3_12 at bound 3, where most first rows have no solution
    solves = []
    nullspace = linalg.nullspace

    def counted(*args):
        solves.append(args)
        return nullspace(*args)

    monkeypatch.setattr(linalg, "nullspace", counted)
    rng = random.Random(7)
    searched = 0
    for ad in registry_points():
        for _ in range(2):
            moved = apply_basis_change(ad, random_invertible(rng, ad.dim))
            if ad.label == "AD3_12":
                solves.clear()
                res = iso.search_witness(moved, ad, bound=3, budget=1000)
                assert len(solves) <= res.examined <= 1000
                searched += 1
    assert searched == 6


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[F(rng.choice((-1, 1))) if perm[i] == j else F(0) for j in range(n)]
            for i in range(n)]


def _carrier(cleared):
    """The search's integer transport test, on the source's and target's
    tensors cleared by one lcm."""
    def carries(t, e):
        return next(iso._transport_residuals(cleared[:2], cleared[2:], t, 0, e),
                    None) is None
    return carries


def _linear_solution(src, tgt, first_row):
    """(particular, directions) of rows 1..n-1 of T, read row by row, once
    its first row is fixed, or (None, None) when there is none.  The pairs of
    the transport identity with an index 0 are read off
    ``_transport_residuals`` on Fractions, probed with unit rows, and solved
    by one nullspace."""
    n = len(first_row)
    w = (n - 1) * n
    keys = [(op, i, j, m) for op in range(2) for i in range(n) for j in range(n)
            if 0 in (i, j) for m in range(n)]

    def residuals(x):
        rows = [list(first_row), *(x[k:k + n] for k in range(0, w, n))]
        res = dict(iso._transport_residuals(src, tgt, rows, F(0)))
        return [res.get(key, F(0)) for key in keys]

    const = residuals([F(0)] * w)
    columns = [[a - b for a, b in zip(residuals([F(int(u == v)) for v in range(w)]), const)]
               for u in range(w)]
    null = linalg.nullspace([list(row) for row in zip(*columns, const)], w + 1)
    if not null or not null[-1][w]:
        return None, None
    return null[-1][:w], [v[:w] for v in null[:-1]]


def test_solved_rows_are_the_linear_part_of_the_transport_residuals(rng):
    # with the first row fixed, the pairs with an index 0 are affine in the
    # other rows: on every fifth registry point the search tries every first
    # row, solves exactly those whose probed system has a solution, and
    # finds the same canonical solution; on the other points, a witness's
    # rows solve the system of its own first row
    solvable = 0
    for number, ad in enumerate(registry_points()):
        n = ad.dim
        t = random_invertible(rng, n)
        src, tgt = _constants(ad), _constants(apply_basis_change(ad, t))
        cleared, _ = _cleared(*src, *tgt)
        grid = iso.rational_grid(1) if number % 5 == 0 else sorted({F(0), *t[0]})
        solved = {tuple(F(x, e0) for x in f): (particular, directions)
                  for f, e0, particular, directions
                  in iso._solved_rows(cleared[:2], cleared[2:], grid, n)}
        if number % 5 == 0:
            for first_row in iso._first_rows(grid, n):
                solution = _linear_solution(src, tgt, first_row)
                assert solved.pop(first_row) == solution
                solvable += solution[0] is not None
            assert not solved
        else:
            particular, directions = solved[tuple(t[0])]
            offset = [x - p for x, p in zip((x for row in t[1:] for x in row), particular)]
            assert linalg.rank(directions + [offset]) == len(directions)
    assert solvable > 12


def _recording_solves(monkeypatch):
    """Record every (f, e0, particular, directions) the search takes from
    ``_solved_rows``, in order, in the returned list."""
    solves = []
    solved_rows = iso._solved_rows

    def recorded(*args):
        for solve in solved_rows(*args):
            solves.append(solve)
            yield solve

    monkeypatch.setattr(iso, "_solved_rows", recorded)
    return solves


def _oracle_candidates(solves, n, bound, budget):
    """The rational pass's units after the identity, in order, ``budget`` - 1
    in all: None for a first row whose linear pairs have no solution, and
    for a solved one its candidates as rational matrices, rows 1..n-1 the
    particular solution plus grid combinations of the directions, in
    product order, at most ``iso.ROW_CANDIDATES``."""
    grid = iso.rational_grid(bound)
    left = budget - 1
    for f, e0, particular, directions in solves:
        if left <= 0:
            return
        if particular is None:
            left -= 1
            yield None
            continue
        first_row = [F(x, e0) for x in f]
        for choice in islice(iproduct(grid, repeat=len(directions)),
                             min(iso.ROW_CANDIDATES, left)):
            left -= 1
            x = [p + sum(c * v[u] for c, v in zip(choice, directions) if c)
                 for u, p in enumerate(particular)]
            yield [first_row, *(x[k:k + n] for k in range(0, len(x), n))]


def _per_candidate_search(source, target, bound, budget):
    """The rational pass as a Fraction loop: each candidate is assembled as
    a rational matrix and cleared by the lcm of its own denominators, then
    tested, and a first row without a solution costs one unit and tests
    nothing.  An oracle for ``examined`` and for the witness found.  Returns
    (status, examined, witness rows or None); the pair's fingerprints are
    taken to agree.  A smaller budget only cuts the same candidates shorter,
    so one run answers for every budget up to its own (``_at_budget``)."""
    n = source.dim
    cleared, _ = _cleared(*_constants(source), *_constants(target))
    carries = _carrier(cleared)
    examined = 1
    ident = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    if carries(*_cleared_rows(ident)):
        return "found", examined, ident
    solves = iso._solved_rows(cleared[:2], cleared[2:], iso.rational_grid(bound), n)
    for rows in _oracle_candidates(solves, n, bound, budget):
        examined += 1
        if rows is None:
            continue
        t, e = _cleared_rows(rows)
        if linalg.rank(t) == n and carries(t, e):
            return "found", examined, rows
    return "not_found", examined, None


def _at_budget(outcome, budget):
    """The oracle's outcome at a budget no larger than the one it ran with."""
    status, examined, rows = outcome
    if status == "found" and examined <= budget:
        return outcome
    return "not_found", min(budget, examined), None


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_candidate_assembly_equals_clearing_the_matrix(monkeypatch, rng, bound):
    # every candidate that takes the rank test is an integer multiple of the
    # oracle's rational candidate at the same place, cleared by its own
    # denominators: the one scale of a first row changes no candidate
    solves = _recording_solves(monkeypatch)
    tested = []
    rank = linalg.rank

    def recorded(t):
        tested.append(t)
        return rank(t)

    monkeypatch.setattr(iso, "fingerprint", lambda ad: None)
    monkeypatch.setattr(linalg, "rank", recorded)
    checked = scaled = 0
    for ad in registry_points():
        moved = apply_basis_change(ad, random_invertible(rng, ad.dim))
        tested.clear()
        solves.clear()
        iso.search_witness(moved, ad, bound=bound, budget=100)
        oracle = [rows for rows in _oracle_candidates(solves, ad.dim, bound, 100)
                  if rows is not None][:len(tested)]
        assert len(oracle) == len(tested)
        for t, rows in zip(tested, oracle):
            ints, _ = _cleared_rows(rows)
            k = next(x // y for tr, ir in zip(t, ints) for x, y in zip(tr, ir) if y)
            assert [list(row) for row in t] == [[k * x for x in row] for row in ints]
            assert all(type(x) is int for row in t for x in row)
            checked += 1
            scaled += k > 1
    assert checked > 57 and (scaled > 0 or bound == 1)


def _grid_search_reference(source, target, bound, budget):
    """The rational pass as it was before the linear pairs were solved: the
    (0, 0) pair alone fixes each column of rows 1..n-1 up to the nullspace
    of its coefficients, and a candidate takes one value per column, grid
    combinations in product order, at most 4096 per first row.  Returns
    "found" or "not_found"; a reference for the reach of the search."""
    n = source.dim
    src, tgt = _constants(source), _constants(target)
    carries = _carrier(_cleared(*src, *tgt)[0])
    ident = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    if carries(*_cleared_rows(ident)):
        return "found"
    examined = 1
    grid = iso.rational_grid(bound)
    null = linalg.nullspace(_lead(tgt), n - 1)
    for first_row, particulars in _solvable_first_rows(src, tgt, grid):
        limit = min(4096, budget - examined)
        columns = [_fraction_column_values(particular, null, grid, limit)
                   for particular in particulars]
        for cols in islice(iproduct(*columns), limit):
            examined += 1
            t, e = _cleared_rows([first_row, *zip(*cols)])
            if linalg.rank(t) == n and carries(t, e):
                return "found"
        if examined >= budget:
            break
    return "not_found"


def _agrees_with_the_oracle(src, tgt, bound, budget, expected):
    res = iso.search_witness(src, tgt, bound=bound, budget=budget)
    status, examined, rows = expected
    assert (res.status, res.examined) == (status, examined), (bound, budget)
    if rows is None:
        assert res.witness is None
    else:
        assert res.witness.entries == iso.Witness(rows).entries
        assert iso.verify_witness(src, tgt, res.witness).ok
    return status


def _finds_what_the_grid_search_found(src, tgt, bound, budget, status):
    # run only where the search found nothing: the grid search must not
    # have found anything there either
    if status != "found":
        assert _grid_search_reference(src, tgt, bound, budget) == "not_found", (
            bound, budget)


@pytest.fixture(scope="module")
def copies_and_their_oracle():
    """Every registry point against a signed-permutation copy and a random
    copy, at bounds 1 and 2, with the oracle's outcome at budget 5000, the
    largest that ``test_search_matches_the_per_candidate_oracle`` takes."""
    rng = random.Random(20240817)
    cases = []
    for ad in registry_points():
        for t in (_signed_permutation(rng, ad.dim), random_invertible(rng, ad.dim)):
            moved = apply_basis_change(ad, t)
            for bound in (1, 2):
                cases.append((moved, ad, bound,
                              _per_candidate_search(moved, ad, bound, 5000)))
    return cases


@pytest.mark.parametrize("budget", [2, 57, 60, 1000, 5000])
def test_search_matches_the_per_candidate_oracle(copies_and_their_oracle, budget):
    # 57 and 60 cut the candidates of a first row short, 5000 outlasts the
    # first rows of most copies, and at 1000 every pair that the grid search
    # found is found
    outcomes = set()
    for moved, ad, bound, outcome in copies_and_their_oracle:
        status = _agrees_with_the_oracle(moved, ad, bound, budget,
                                         _at_budget(outcome, budget))
        if budget == 1000:
            _finds_what_the_grid_search_found(moved, ad, bound, budget, status)
        outcomes.add(status)
    assert outcomes == {"found", "not_found"}


def test_search_matches_the_oracle_on_fingerprint_equal_pairs():
    points = list(registry_points())
    prints = [iso.fingerprint(ad) for ad in points]
    pairs = [(a, b) for i, a in enumerate(points) for j, b in enumerate(points)
             if i < j and prints[i] == prints[j]]
    assert len(pairs) > 100
    found = 0
    for a, b in pairs:
        outcome = _per_candidate_search(a, b, 1, 1000)
        for budget in (2, 57, 1000):
            status = _agrees_with_the_oracle(a, b, 1, budget, _at_budget(outcome, budget))
        _finds_what_the_grid_search_found(a, b, 1, 1000, status)
        found += status == "found"
    assert 0 < found < len(pairs)


def test_search_matches_the_oracle_in_dimension_one():
    # e'_1 = t e_1 carries r = 1, l = -1/2 onto r = s, l = -s/2 when t = s
    src = constant_pair({(1, 1, 1): F(1)}, {(1, 1, 1): F(-1, 2)}, 1)
    for scale, status in ((F(2), "found"), (F(-1, 2), "found"), (F(3), "not_found")):
        tgt = constant_pair({(1, 1, 1): scale}, {(1, 1, 1): -scale / 2}, 1)
        for bound, budget in ((2, 1000), (2, 57), (2, 3), (1, 2)):
            _agrees_with_the_oracle(src, tgt, bound, budget,
                                    _per_candidate_search(src, tgt, bound, budget))
        assert iso.search_witness(src, tgt, bound=2).status == status


def test_search_reaches_random_and_signed_copies():
    # two copies of each registry point per kind (seed 7), bound 2, budget
    # 1000: every signed-permutation copy is found, and all but a few random
    # copies; the grid search found 103 and 68 of these
    copies = {"signed": (_signed_permutation, random.Random(7)),
              "random": (random_invertible, random.Random(7))}
    found = {"signed": 0, "random": 0}
    for ad in registry_points():
        for kind, (draw, rng) in copies.items():
            for _ in range(2):
                moved = apply_basis_change(ad, draw(rng, ad.dim))
                res = iso.search_witness(moved, ad, bound=2, budget=1000)
                if res.status == "found":
                    assert iso.verify_witness(moved, ad, res.witness).ok
                    found[kind] += 1
    assert found["signed"] == 114 and found["random"] >= 105, found


# -- quadratic extension witnesses ------------------------------------------------------


def quad_pair_needing_sqrt2():
    """A rescaled variant of AD3_22(0,0): e2>e2 = 2e3 instead of e3.

    Any witness onto AD3_22(0,0) must satisfy 2 t^2 = A1^2 with e2' = t e2,
    e1' = A1 e1, so the ratio is sqrt(2): no rational witness exists.
    """
    rhd = StructureConstants.from_table(3, {(2, 2, 3): "2"})
    lhd = StructureConstants.from_table(3, {(1, 1, 3): "1", (2, 2, 3): "-2"})
    return AdPair(rhd, lhd)


def test_quadratic_retry_finds_sqrt_witness():
    src = quad_pair_needing_sqrt2()
    tgt = catalog.get("AD3_22", {"a": F(0), "b": F(0)})
    assert iso.fingerprint(src) == iso.fingerprint(tgt)
    rational = iso.search_witness(src, tgt, bound=2, budget=20_000)
    assert rational.status == "not_found"
    res = iso.search_witness(src, tgt, bound=2, radicand=F(2), budget=20_000)
    assert res.status == "found"
    assert res.witness.radicand == 2
    assert iso.verify_witness(src, tgt, res.witness).ok


def test_sqrt_pass_keeps_to_the_candidate_budget(monkeypatch):
    # the sqrt(3) pass checks each candidate by the transport identity
    # first, and it checks only the first ``budget`` of them
    checks = []
    original = iso._transport_residuals

    def counted(src, tgt, t, zero, e=1):
        checks.append(type(zero))
        return original(src, tgt, t, zero, e)

    monkeypatch.setattr(iso, "_transport_residuals", counted)
    src = quad_pair_needing_sqrt2()
    tgt = catalog.get("AD3_22", {"a": F(0), "b": F(0)})
    res = iso.search_witness(src, tgt, bound=1, radicand=F(3), budget=10)
    assert (res.status, res.examined) == ("not_found", 10)
    assert checks.count(QuadExt) == 10


def test_sqrt_candidates_solve_the_linear_pairs(monkeypatch):
    # every candidate of the sqrt(2) pass meets the pairs with an index 0,
    # first rows with denominators included, and its first rows are those
    # of the search, in order: the sqrt(2) pair against a permuted
    # AD3_22(0,0), where no candidate at bound 2 carries.  The search checks
    # e T at its scale e, so T is the recorded rows over e.  Here the pairs
    # with an index 0 do not see the scale of the first row, its order does.
    candidates = []
    original = iso._transport_residuals

    def recorded(src, tgt, t, zero, e=1):
        if type(zero) is QuadExt:
            candidates.append([[x * F(1, e) for x in row] for row in t])
        return original(src, tgt, t, zero, e)

    monkeypatch.setattr(iso, "_transport_residuals", recorded)
    src = quad_pair_needing_sqrt2()
    perm = [[F(int(j == k)) for k in range(3)] for j in (2, 0, 1)]
    tgt = apply_basis_change(catalog.get("AD3_22", {"a": F(0), "b": F(0)}), perm)
    res = iso.search_witness(src, tgt, bound=2, radicand=F(2), budget=1000)
    assert res.status == "not_found"
    zero = QuadExt(0, 0, 2)
    for t in candidates:
        residuals = original(_constants(src), _constants(tgt), t, zero)
        assert not [key for key, _ in residuals if 0 in key[1:3]]
    assert len(candidates) > 300
    assert any(F(x).denominator > 1 for t in candidates for x in t[0])
    firsts = [tuple(t[0]) for t in candidates]
    first_rows = iso._first_rows(iso.rational_grid(2), 3)
    assert all(row in first_rows for row in dict.fromkeys(firsts))


def _per_cell_quadratic(src, tgt, n, bound, d, budget=500_000):
    """The sqrt(d) pass as a loop over tensor cells: for e'_i = d_i e_{s(i)}
    the transport identity is d_i d_j src[s(i)][s(j)][s(k)] = d_k tgt[i][j][k]
    cell by cell.  An oracle for the shared transport check."""
    grid = iso.rational_grid(bound)
    scalars = [QuadExt(a, b, d) for a in grid for b in grid if a or b]
    idx = range(n)
    cells = [(i, j, k) for i in idx for j in idx for k in idx]
    examined = 0
    for perm in permutations(idx):
        # d_i d_j and d_k are nonzero, so a zero cell must meet a zero cell
        if any((s[perm[i]][perm[j]][perm[k]] == 0) != (g[i][j][k] == 0)
               for s, g in zip(src, tgt) for i, j, k in cells):
            examined += len(scalars) ** n
            if examined > budget:
                return None
            continue
        for diag in iproduct(scalars, repeat=n):
            examined += 1
            if examined > budget:
                return None
            if all(diag[i] * diag[j] * s[perm[i]][perm[j]][perm[k]] == diag[k] * g[i][j][k]
                   for s, g in zip(src, tgt) for i, j, k in cells):
                rows = [[QuadExt(0, 0, d) for _ in idx] for _ in idx]
                for i in idx:
                    rows[i][perm[i]] = diag[i]
                return iso.Witness(tuple(tuple(r) for r in rows), F(d))
    return None


def _constants(ad):
    return (ad.rhd.constant_tensor(), ad.lhd.constant_tensor())


def test_quadratic_pass_matches_the_per_cell_oracle(rng):
    # every pair that the old diagonal pass (``_per_cell_quadratic``) links
    # is still found with the radicand: the sqrt(2) pair with its basis
    # permuted in all six ways on either side, where the old pass links 2
    # of the 12 and the search 10, and every third registry point against a
    # signed-permutation copy
    sqrt2 = quad_pair_needing_sqrt2()
    ad22 = catalog.get("AD3_22", {"a": F(0), "b": F(0)})
    pairs = []
    for perm in permutations(range(3)):
        p = [[F(int(perm[i] == j)) for j in range(3)] for i in range(3)]
        pairs += [(apply_basis_change(sqrt2, p), ad22, 2, 1000),
                  (sqrt2, apply_basis_change(ad22, p), 2, 1000)]
    for ad in list(registry_points())[::3]:
        bound, budget = (2, 300) if ad.dim == 2 else (1, 160)
        pairs.append((ad, apply_basis_change(ad, _signed_permutation(rng, ad.dim)),
                      bound, budget))
    linked, found = 0, []
    for src, tgt, bound, budget in pairs:
        old = _per_cell_quadratic(_constants(src), _constants(tgt), src.dim, bound,
                                  F(2), budget)
        res = iso.search_witness(src, tgt, bound=bound, radicand=F(2), budget=budget)
        if old is not None:
            linked += 1
            assert res.status == "found"
        if res.status == "found":
            assert iso.verify_witness(src, tgt, res.witness).ok
        found.append(res.status == "found")
    assert sum(found[:12]) >= 10 and 2 < linked < sum(found)


def test_quad_witness_verification_directly():
    # the rational entries may come as QuadExt, as Poly constants or as
    # ints: the witness reads each of them in Q(sqrt 2)
    src = quad_pair_needing_sqrt2()
    tgt = catalog.get("AD3_22", {"a": F(0), "b": F(0)})
    d = F(2)
    for rational in (lambda c: QuadExt(c, 0, d), Poly.const, int):
        zero, one, two = map(rational, (0, 1, 2))
        w = iso.Witness(((QuadExt(0, 1, d), zero, zero), (zero, one, zero),
                         (zero, zero, two)), d)
        assert all(type(c) is QuadExt and c.d == d for row in w.entries for c in row)
        rep = iso.verify_witness(src, tgt, w)
        assert rep.ok and rep.det == "2*sqrt(2)"


def test_witness_puts_its_entries_into_one_ring():
    w = iso.Witness([[Poly.const(1), Poly.const(F(1, 2))], [0, F(-3)]], radicand=3)
    assert w.radicand == 3
    assert w.entries == ((QuadExt(1, 0, 3), QuadExt(F(1, 2), 0, 3)),
                         (QuadExt(0, 0, 3), QuadExt(-3, 0, 3)))
    assert all(type(c) is QuadExt and c.d == 3 for row in w.entries for c in row)
    plain = iso.Witness([[1, F(1, 2)], [poly_parse("a"), 0]])
    assert plain.radicand is None
    assert all(type(c) is Poly for row in plain.entries for c in row)
    for rows, radicand, message in (
            ([[QuadExt(0, 1, 2)]], None, "radicand"),
            ([[poly_parse("a")]], 2, "not a constant"),
            ([[QuadExt(0, 1, 2)]], 3, "mixed radicands"),
            ([[1]], 4, "rational square")):
        with pytest.raises(ValueError, match=message):
            iso.Witness(rows, radicand)
