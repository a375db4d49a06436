import math
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

from conftest import constant_pair, random_invertible

F = Fraction


def witness_from_exprs(rows):
    return iso.Witness.from_rows([[poly_parse(c) for c in row] for row in rows])


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
    w = iso.Witness.from_rows([[2, 0, 0], [0, 4, 0], [0, 0, 8]])
    assert iso.verify_witness(fam, tgt, w).ok


def test_singular_witness_rejected():
    ad = catalog.get("AD3_10")
    w = iso.Witness.from_rows([[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrix):
        iso.verify_witness(ad, ad, w)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        iso.verify_witness(catalog.get("AD3_10"), catalog.get("AD2_2"),
                           iso.Witness.identity(3))


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


def _registry_points():
    """Every two-operation registry entry, parameters at 0, 1 and -1."""
    for e in catalog.entries():
        if e.kind != "antidendriform":
            continue
        for v in (F(0), F(1), F(-1)) if e.params else (F(0),):
            yield e.instantiate({p: v for p in e.params}, strict=False)


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
    for ad in _registry_points():
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


def test_search_columns_follow_the_budget_not_the_bound(monkeypatch):
    # the candidates of a first row are the first products of its column
    # lists, so combinations and columns cut at the candidate limit leave
    # every outcome as it was, at any bound; here the null-vector
    # combinations alone number 7,569 at bound 8
    ad = catalog.get("AD3_12", {"a": F(2), "b": F(2)})
    moved = apply_basis_change(ad, [[F(1), F(0), F(0)], [F(1), F(1), F(0)],
                                    [F(0), F(0), F(1)]])
    columns, cleared = [], []
    table, cleared_rows = iso._affine_table, iso._cleared_rows

    def recorded_table(src, tgt, first, e, cols):
        columns.extend(map(len, cols))
        return table(src, tgt, first, e, cols)

    def recorded_rows(rows):
        cleared.append(len(rows))
        return cleared_rows(rows)

    monkeypatch.setattr(iso, "_affine_table", recorded_table)
    monkeypatch.setattr(iso, "_cleared_rows", recorded_rows)
    for bound in (2, 4, 8):
        res = iso.search_witness(ad, moved, bound=bound, budget=1000)
        assert (res.status, res.examined) == ("not_found", 1000)
    assert columns and max(columns) <= min(4096, 1000)
    assert max(cleared) <= min(4096, 1000)


def _search_records(monkeypatch, rng, bound, budget):
    """Search every registry point from a random copy, and record what the
    search built: per pair (source, target, records), one record per first
    row reached, with the ``first`` row, scale ``e`` and ``columns`` handed
    to ``_affine_table``, and the ``picks`` and matrix ``t`` of every
    candidate that took the rank test."""
    records = []
    table, survivors, rank = iso._affine_table, iso._survivors, linalg.rank

    def recorded_table(src, tgt, first, e, columns):
        records.append({"first": first, "e": e, "columns": columns,
                        "picks": [], "t": []})
        return table(src, tgt, first, e, columns)

    def recorded_survivors(*args):
        for p, picks in survivors(*args):
            records[-1]["picks"].append(picks)
            yield p, picks

    def recorded_rank(t):
        if records:  # not a fingerprint's rank
            records[-1]["t"].append(t)
        return rank(t)

    monkeypatch.setattr(iso, "_affine_table", recorded_table)
    monkeypatch.setattr(iso, "_survivors", recorded_survivors)
    monkeypatch.setattr(linalg, "rank", recorded_rank)
    out = []
    for ad in _registry_points():
        moved = apply_basis_change(ad, random_invertible(rng, ad.dim))
        records.clear()
        iso.search_witness(moved, ad, bound=bound, budget=budget)
        out.append((moved, ad, list(records)))
    return out


def _oracle_rows(source, target, grid, records):
    """Each record with the oracle's first row and the column values it
    holds as rationals: particular + sum c * null, by
    ``_fraction_column_values``."""
    src, tgt = _constants(source), _constants(target)
    null = linalg.nullspace(_lead(tgt), source.dim - 1)
    for rec, (first_row, particulars) in zip(records,
                                            _solvable_first_rows(src, tgt, grid)):
        yield rec, first_row, [_fraction_column_values(particular, null, grid, len(col))
                               for particular, col in zip(particulars, rec["columns"])]


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_candidate_assembly_equals_clearing_the_matrix(monkeypatch, rng, bound):
    # every candidate that takes the rank test is e times the rational
    # candidate its picks name: a multiple of the matrix that clearing the
    # candidate by its own denominators gives
    grid = iso.rational_grid(bound)
    tested = scaled = 0
    for source, target, records in _search_records(monkeypatch, rng, bound, 1000):
        for rec, first_row, values in _oracle_rows(source, target, grid, records):
            e = rec["e"]
            assert len(rec["picks"]) == len(rec["t"])
            for picks, t in zip(rec["picks"], rec["t"]):
                rows = [first_row, *zip(*(col[i] for col, i in zip(values, picks)))]
                ints, lcm = _cleared_rows(rows)
                assert e % lcm == 0
                assert [list(row) for row in t] == [[x * (e // lcm) for x in row]
                                                    for row in ints]
                assert all(type(x) is int for row in t for x in row)
                tested += 1
                scaled += e != lcm
    assert tested > 57 and (scaled > 0 or bound == 1)


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
    for ad in _registry_points():
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
    # below 1 is rejected before any fingerprint is computed
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
    assert computed == []


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


def _per_candidate_search(source, target, bound, budget):
    """The rational search as a loop that assembles and tests every
    candidate in turn, with no affine filter: an oracle for ``examined`` and
    for the witness found.  Each candidate is a rational matrix, cleared by
    the lcm of its own denominators.  Returns (status, examined, witness
    rows or None); the pair's fingerprints are taken to agree."""
    n = source.dim
    src, tgt = _constants(source), _constants(target)
    cleared, _ = _cleared(*src, *tgt)
    src_int, tgt_int = cleared[:2], cleared[2:]

    def carries(t, e):
        return next(iso._transport_residuals(src_int, tgt_int, t, 0, e), None) is None

    ident = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    if carries(*_cleared_rows(ident)):
        return "found", 1, ident
    examined = 1
    grid = iso.rational_grid(bound)
    null = linalg.nullspace(_lead(tgt), n - 1)
    per_cell_cap = 4096
    for first_row, particulars in _solvable_first_rows(src, tgt, grid):
        limit = min(per_cell_cap, max(1, budget - examined))
        columns = [_fraction_column_values(particular, null, grid, limit)
                   for particular in particulars]
        produced = 0
        for cols in iproduct(*columns):
            examined += 1
            produced += 1
            t, e = _cleared_rows([first_row, *zip(*cols)])
            if linalg.rank(t) == n and carries(t, e):
                return "found", examined, [[F(x, e) for x in row] for row in t]
            if examined >= budget or produced >= per_cell_cap:
                break
        if examined >= budget:
            break
    return "not_found", examined, None


def _agrees_with_the_oracle(src, tgt, bound, budget):
    res = iso.search_witness(src, tgt, bound=bound, budget=budget)
    status, examined, rows = _per_candidate_search(src, tgt, bound, budget)
    assert (res.status, res.examined) == (status, examined), (bound, budget)
    if rows is None:
        assert res.witness is None
    else:
        assert res.witness.entries == iso.Witness.from_rows(rows).entries
    return status


def _ran_out_mid_block(monkeypatch):
    """Record whether a first row's candidates were cut inside a block of
    the last column by the budget (not by the per-row cap)."""
    seen = []
    survivors = iso._survivors

    def recorded(const, vectors, size, count):
        seen.append(count < size ** len(vectors) and count % size and count != 4096)
        return survivors(const, vectors, size, count)

    monkeypatch.setattr(iso, "_survivors", recorded)
    return seen


@pytest.mark.parametrize("budget", [2, 57, 60, 1000, 5000])
def test_search_matches_the_per_candidate_oracle(monkeypatch, rng, budget):
    # every registry point from a signed-permutation copy and a random copy;
    # 5000 crosses the per-row cap of 4096 on the 49 x 49 x 49 first rows
    cut = _ran_out_mid_block(monkeypatch)
    outcomes = set()
    for ad in _registry_points():
        n = ad.dim
        perm = list(range(n))
        rng.shuffle(perm)
        signed = [[F(rng.choice((-1, 1))) if perm[i] == j else F(0) for j in range(n)]
                  for i in range(n)]
        for t in (signed, random_invertible(rng, n)):
            for bound in (1, 2):
                outcomes.add(_agrees_with_the_oracle(apply_basis_change(ad, t), ad,
                                                     bound, budget))
    # at budget 2 a first row has one candidate, so no block to cut
    assert outcomes == {"found", "not_found"} and (any(cut) or budget == 2)


def test_search_matches_the_oracle_on_fingerprint_equal_pairs(monkeypatch):
    cut = _ran_out_mid_block(monkeypatch)
    points = list(_registry_points())
    prints = [iso.fingerprint(ad) for ad in points]
    pairs = [(a, b) for i, a in enumerate(points) for j, b in enumerate(points)
             if i < j and prints[i] == prints[j]]
    assert len(pairs) > 100
    found = 0
    for a, b in pairs:
        for bound, budget in ((1, 300), (2, 1000)):
            found += _agrees_with_the_oracle(a, b, bound, budget) == "found"
    assert 0 < found < len(pairs) and any(cut)


def test_search_matches_the_oracle_in_dimension_one():
    # e'_1 = t e_1 carries r = 1, l = -1/2 onto r = s, l = -s/2 when t = s
    src = constant_pair({(1, 1, 1): F(1)}, {(1, 1, 1): F(-1, 2)}, 1)
    for scale, status in ((F(2), "found"), (F(-1, 2), "found"), (F(3), "not_found")):
        tgt = constant_pair({(1, 1, 1): scale}, {(1, 1, 1): -scale / 2}, 1)
        for bound, budget in ((2, 1000), (2, 3), (1, 2)):
            _agrees_with_the_oracle(src, tgt, bound, budget)
        assert iso.search_witness(src, tgt, bound=2).status == status


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_column_values_on_ints_equal_the_cleared_fraction_ones(monkeypatch, rng, bound):
    # the first row and every column value the search builds is e times
    # its rational value, and e clears them all
    grid = iso.rational_grid(bound)
    reached = rescaled = 0
    for source, target, records in _search_records(monkeypatch, rng, bound, 300):
        for rec, first_row, values in _oracle_rows(source, target, grid, records):
            e = rec["e"]
            assert rec["first"] == [e * x for x in first_row]
            for col, oracle in zip(rec["columns"], values):
                assert col == [[e * x for x in v] for v in oracle]
                assert all(type(x) is int for v in col for x in v)
            reached += 1
            rescaled += e != _cleared_rows([first_row])[1]
    assert reached > 57 and rescaled > 0


def test_affine_table_is_the_linear_part_of_the_transport_residuals(rng):
    # at the candidates' scale e, const + the vectors of a candidate's
    # values is its residual on the pairs (0, j) and (j, 0), so it vanishes
    # exactly when those pairs carry; the witness's own parts are among the
    # values
    grid = iso.rational_grid(2)
    carried = rejected = 0
    for ad in _registry_points():
        n = ad.dim
        t = random_invertible(rng, n)
        cleared, _ = _cleared(*_constants(ad), *_constants(apply_basis_change(ad, t)))
        src, tgt = cleared[:2], cleared[2:]
        keys = [(op, i, j, m) for op in ("rhd", "lhd") for i in range(n) for j in range(n)
                if (i == 0) != (j == 0) for m in range(n)]
        for first_row in (t[0], [rng.choice(grid) for _ in range(n)]):
            values = [[[rng.choice(grid) for _ in range(n - 1)] for _ in range(3)]
                      for _ in range(n)]
            for c, col in enumerate(values):
                col.insert(rng.randint(0, 3), [row[c] for row in t[1:]])
            (first, *ints), e = _cleared_rows([first_row, *(v for col in values for v in col)])
            columns = [ints[4 * c:4 * c + 4] for c in range(n)]
            const, vectors = iso._affine_table(src, tgt, first, e, columns)
            assert len(const) == len(keys)
            for picks in iproduct(range(4), repeat=n):
                total = [sum(xs) for xs in zip(const, *(v[i] for v, i in zip(vectors, picks)))]
                rows = [first, *zip(*(col[i] for col, i in zip(columns, picks)))]
                res = dict(iso._transport_residuals(src, tgt, rows, 0, e))
                assert total == [res.get(key, 0) for key in keys]
                if any(total):
                    rejected += 1
                else:
                    carried += 1
    assert carried >= 57 and rejected > 57


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
    assert res.witness.is_quadratic
    assert iso.verify_witness(src, tgt, res.witness).ok


def test_sqrt_pass_keeps_to_the_candidate_budget(monkeypatch):
    # at bound 1 the sqrt(3) pass has 6 * 8^3 = 3,072 candidates, and it
    # tries only the first ``budget`` of them
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
    pairs = [(quad_pair_needing_sqrt2(), catalog.get("AD3_22", {"a": F(0), "b": F(0)}),
              2, 1000)]
    # every third registry point against a signed-permutation copy; the
    # budgets leave some pairs without a witness
    for ad in list(_registry_points())[::3]:
        n = ad.dim
        perm = list(range(n))
        rng.shuffle(perm)
        t = [[F(rng.choice((-1, 1))) if perm[i] == j else F(0) for j in range(n)]
             for i in range(n)]
        bound, budget = (2, 300) if n == 2 else (1, 160)
        pairs.append((ad, apply_basis_change(ad, t), bound, budget))
    found = 0
    for src, tgt, bound, budget in pairs:
        args = (_constants(src), _constants(tgt), src.dim, bound, F(2), budget)
        w = iso._search_quadratic(*args)
        assert w == _per_cell_quadratic(*args)
        if w is not None:
            found += 1
            assert iso.verify_witness(src, tgt, w).ok
    assert 2 < found < len(pairs) - 2


def test_quad_witness_verification_directly():
    src = quad_pair_needing_sqrt2()
    tgt = catalog.get("AD3_22", {"a": F(0), "b": F(0)})
    d = F(2)
    w = iso.Witness((
        (QuadExt(0, 1, d), QuadExt(0, 0, d), QuadExt(0, 0, d)),
        (QuadExt(0, 0, d), QuadExt(1, 0, d), QuadExt(0, 0, d)),
        (QuadExt(0, 0, d), QuadExt(0, 0, d), QuadExt(2, 0, d))), d)
    assert iso.verify_witness(src, tgt, w).ok
