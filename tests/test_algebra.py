import itertools
from fractions import Fraction

import pytest

from adkit import catalog
from adkit.algebra import (AdPair, StructureConstants, UnaryAlgebra,
                           apply_basis_change, center_ad, center_associative,
                           check_antidendriform, is_associative,
                           is_two_nilpotent, power_series, product,
                           quotient_by_center, sum_algebra, unit_vector)
from adkit.errors import (CenterMismatch, DimensionMismatch, MissingAssignment,
                          SingularMatrix)
from adkit.iso import Witness, verify_witness
from adkit.scalars import Poly, poly_parse

from conftest import random_pair, random_invertible, random_tensor

F = Fraction


def vec(*coords):
    return tuple(Poly.coerce(c) for c in coords)


# -- product -----------------------------------------------------------------


def test_product_null_filiform_basis():
    mu3 = catalog.null_filiform(3)
    assert product(mu3.sc, unit_vector(3, 0), unit_vector(3, 1)) == vec(0, 0, 1)


def test_product_abelian_is_zero():
    ab = catalog.get("As3_1")
    assert product(ab.sc, unit_vector(3, 0), unit_vector(3, 1)) == vec(0, 0, 0)


def test_product_on_first_operation_of_corollary_algebra():
    ad1 = catalog.get("AD3_1")
    assert product(ad1.rhd, unit_vector(3, 0), unit_vector(3, 1)) == vec(0, 0, 2)


def test_product_is_bilinear():
    mu3 = catalog.null_filiform(3)
    x = vec(1, 2, 0)
    y = vec(F(1, 2), 0, 3)
    lhs = product(mu3.sc, x, y)
    by_parts = [Poly.zero()] * 3
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            term = product(mu3.sc, unit_vector(3, i), unit_vector(3, j))
            by_parts = [acc + xi * yj * t for acc, t in zip(by_parts, term)]
    assert list(lhs) == by_parts


def test_product_dimension_mismatch():
    mu3 = catalog.null_filiform(3)
    with pytest.raises(DimensionMismatch):
        product(mu3.sc, vec(1, 0), unit_vector(3, 0))


# -- sum algebra ---------------------------------------------------------------


def test_sum_of_corollary_algebra_is_null_filiform():
    assert sum_algebra(catalog.get("AD3_1")).sc == catalog.get("As3_6").sc


def test_sum_of_zero_pair_is_abelian():
    zero = AdPair(StructureConstants.zero(3), StructureConstants.zero(3))
    assert sum_algebra(zero).sc == StructureConstants.zero(3)


def test_sum_of_two_dim_family_degenerates_at_minus_one():
    ad = catalog.get("AD2_3")
    total = sum_algebra(ad).sc
    assert total == StructureConstants.from_table(2, {(1, 1, 2): "1+l"})
    at_generic = total.subs({"l": F(3)})
    assert at_generic == StructureConstants.from_table(2, {(1, 1, 2): "4"})
    at_minus_one = total.subs({"l": F(-1)})
    assert at_minus_one == StructureConstants.zero(2)


# -- associativity ----------------------------------------------------------------


def brute_force_associativity_violations(alg: UnaryAlgebra):
    """Oracle: expand (e_i e_j) e_k and e_i (e_j e_k) coordinatewise."""
    n = alg.dim
    t = alg.sc.constant_tensor()
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = [sum(t[i][j][m] * t[m][k][c] for m in range(n))
                        for c in range(n)]
                right = [sum(t[j][k][m] * t[i][m][c] for m in range(n))
                         for c in range(n)]
                if left != right:
                    bad.append((i, j, k))
    return bad


def brute_force_identity_failures(ad: AdPair) -> dict:
    """Oracle: each identity's failing basis triples and residual vectors.

    The residual is lhs - rhs, expanded coordinatewise on the constant
    tensors, with each law written so that its left side carries no sign
    (id6 as (x.y)>z = -(x<y)<z, id7 as x<(y.z) = -(x<y)<z).
    """
    n = ad.dim
    r, l = ad.rhd.constant_tensor(), ad.lhd.constant_tensor()
    s = [[[r[i][j][k] + l[i][j][k] for k in range(n)] for j in range(n)]
         for i in range(n)]

    def left(a, b):  # (x a y) b z
        return lambda i, j, k: [sum(a[i][j][m] * b[m][k][c] for m in range(n))
                                for c in range(n)]

    def right(a, b):  # x a (y b z)
        return lambda i, j, k: [sum(b[j][k][m] * a[i][m][c] for m in range(n))
                                for c in range(n)]

    laws = {
        "id1": (left(r, l), 1, right(r, l)),    # (x>y)<z = x>(y<z)
        "id2": (right(r, r), -1, left(s, r)),   # x>(y>z) = -(x.y)>z
        "id3": (right(r, r), -1, right(l, s)),  # x>(y>z) = -x<(y.z)
        "id4": (right(r, r), 1, left(l, l)),    # x>(y>z) = (x<y)<z
        "id5": (left(s, r), 1, right(l, s)),    # (x.y)>z = x<(y.z)
        "id6": (left(s, r), -1, left(l, l)),    # (x.y)>z = -(x<y)<z
        "id7": (right(l, s), -1, left(l, l)),   # x<(y.z) = -(x<y)<z
    }
    failures = {}
    for name, (lhs, sign, rhs) in laws.items():
        failures[name] = []
        for t in itertools.product(range(n), repeat=3):
            res = [a - sign * b for a, b in zip(lhs(*t), rhs(*t))]
            if any(res):
                failures[name].append((t, res))
    return failures


def _evaluated(sc: StructureConstants):
    """Entries of a tensor without parameters, read off its constant terms."""
    return [[[p.constant_value() for p in row] for row in plane] for plane in sc.c]


def brute_force_nonzero_triple_forms(ad: AdPair) -> set:
    """Oracle: which of the eight forms (x o y) o' z and x o (y o' z), for
    o, o' in {rhd, lhd}, are nonzero on some basis triple?

    Each form is expanded coordinate by coordinate on the raw tensors:
    Fractions for a constant pair, Polys (so identically in the parameters)
    otherwise.
    """
    n = ad.dim
    if ad.variables():
        ops = {"rhd": ad.rhd.c, "lhd": ad.lhd.c}
    else:
        ops = {"rhd": _evaluated(ad.rhd), "lhd": _evaluated(ad.lhd)}
    forms = {}
    for (p, a), (q, b) in itertools.product(ops.items(), repeat=2):
        forms[f"(x {p} y) {q} z"] = lambda i, j, k, c, a=a, b=b: sum(
            (a[i][j][m] * b[m][k][c] for m in range(n) if a[i][j][m]))
        forms[f"x {p} (y {q} z)"] = lambda i, j, k, c, a=a, b=b: sum(
            (b[j][k][m] * a[i][m][c] for m in range(n) if b[j][k][m]))
    return {name for name, expand in forms.items()
            if any(expand(i, j, k, c)
                   for i, j, k, c in itertools.product(range(n), repeat=4))}


def test_null_filiform_4_is_associative():
    assert is_associative(catalog.null_filiform(4)).ok


def test_as3_2_is_associative():
    assert is_associative(catalog.get("As3_2")).ok


def test_non_associative_example_against_brute_force():
    alg = UnaryAlgebra(StructureConstants.from_table(
        2, {(1, 1, 1): "1", (1, 2, 1): "1"}))
    rep = is_associative(alg)
    assert not rep.ok
    triples = [t for t, _ in rep.violations]
    assert triples == brute_force_associativity_violations(alg)
    # (e1 e2) e1 = e1 while e1 (e2 e1) = 0, and likewise for z = e2
    assert triples == [(0, 1, 0), (0, 1, 1)]


# -- the defining identities -------------------------------------------------------


def test_checker_passes_on_table_with_second_basis_vector_image():
    ad = catalog.get("AD3_10")
    rep = check_antidendriform(ad)
    assert rep.ok and rep.chains_ok


def test_checker_passes_on_zero_pair():
    zero = AdPair(StructureConstants.zero(2), StructureConstants.zero(2))
    assert check_antidendriform(zero).ok


def test_checker_fails_on_null_filiform_with_zero_second_operation():
    ad = AdPair(catalog.null_filiform(3).sc, StructureConstants.zero(3))
    rep = check_antidendriform(ad)
    assert not rep.ok
    failing = dict(rep.failures)["id2"]
    first = [f for f in failing if f[0] == (0, 0, 0)]
    assert first, "expected a violation at the triple (1,1,1)"
    # e1>(e1>e1) = e3 while -(e1.e1)>e1 = -e3: residual 2*e3
    assert list(first[0][1]) == [Poly.zero(), Poly.zero(), Poly.const(2)]


def test_chain_equivalence_on_random_pairs(rng):
    # the two defining equations hold exactly when all seven identities do
    for _ in range(60):
        ad = random_pair(rng, rng.choice((2, 3)))
        rep = check_antidendriform(ad)
        assert rep.ok == rep.chains_ok


def test_checker_failures_match_law_oracle(rng):
    # every identity's failing triples and residuals, on constant pairs
    for dim in (2, 3):
        for _ in range(30):
            ad = random_pair(rng, dim)
            rep = check_antidendriform(ad)
            got = {name: [(t, [p.constant_value() for p in res]) for t, res in fails]
                   for name, fails in rep.failures.items()}
            assert got == brute_force_identity_failures(ad)


# -- centers ------------------------------------------------------------------------


def annihilates(alg, v):
    n = alg.dim
    vv = tuple(Poly.coerce(x) for x in v)
    return all(
        all(p.is_zero() for p in product(alg.sc, vv, unit_vector(n, j)))
        and all(p.is_zero() for p in product(alg.sc, unit_vector(n, j), vv))
        for j in range(n))


def test_center_of_as3_2_is_third_basis_vector():
    alg = catalog.get("As3_2")
    basis = center_associative(alg)
    assert len(basis) == 1
    assert basis[0] == [F(0), F(0), F(1)]
    assert annihilates(alg, basis[0])
    assert not annihilates(alg, [F(1), F(0), F(0)])


def test_center_of_abelian_is_everything():
    assert len(center_associative(catalog.get("As3_1"))) == 3


def test_center_of_null_filiform_3():
    basis = center_associative(catalog.null_filiform(3))
    assert len(basis) == 1 and basis[0] == [F(0), F(0), F(1)]


def test_two_operation_centers():
    assert center_ad(catalog.get("AD3_5")) == [[F(0), F(1), F(0)],
                                                   [F(0), F(0), F(1)]]
    zero = AdPair(StructureConstants.zero(3), StructureConstants.zero(3))
    assert len(center_ad(zero)) == 3
    assert center_ad(catalog.get("AD3_1")) == [[F(0), F(0), F(1)]]


# -- power series ---------------------------------------------------------------------


def test_power_series_null_filiform_3():
    ps = power_series(catalog.null_filiform(3))
    assert ps.dims == (3, 2, 1, 0)
    assert ps.index == 4 and ps.nilpotent and ps.null_filiform


def test_power_series_abelian():
    ps = power_series(catalog.get("As3_1"))
    assert ps.dims == (3, 0) and ps.index == 2 and not ps.null_filiform


def test_power_series_as3_6_is_null_filiform():
    assert power_series(catalog.get("As3_6")).null_filiform


def test_power_series_detects_non_nilpotent():
    ps = power_series(catalog.get("As2_2"))
    assert not ps.nilpotent and ps.index is None


# -- 2-nilpotency -----------------------------------------------------------------------


def test_two_nilpotent_examples():
    assert is_two_nilpotent(catalog.get("AD3_5"))
    zero = AdPair(StructureConstants.zero(2), StructureConstants.zero(2))
    assert is_two_nilpotent(zero)
    assert not is_two_nilpotent(catalog.get("AD3_10"))


def test_negative_pair_proposition(rng):
    # every pair (R, -R) satisfying the identities is 2-nilpotent
    checked = 0
    for _ in range(60):
        r = random_tensor(rng, rng.choice((2, 3)), density=0.2)
        ad = AdPair(r, r.neg())
        if check_antidendriform(ad).ok:
            checked += 1
            assert is_two_nilpotent(ad)
    assert checked >= 5  # the zero-ish tensors make plenty of hits


def _upper_pair(rng, dim: int) -> AdPair:
    """Products mostly land on e_k with k > max(i, j), about half the time in
    a 2-nilpotent pair; one pair in five is moved to a random basis, which
    fills its tables."""
    values = [F(1), F(-1), F(1, 2), F(-3, 2), F(2, 3), F(5)]

    def table():
        return {(i, j, k): rng.choice(values)
                for i, j, k in itertools.product(range(1, dim + 1), repeat=3)
                if rng.random() < (0.4 if k > max(i, j) else 0.02)}
    ad = AdPair(StructureConstants.from_table(dim, table()),
                StructureConstants.from_table(dim, table()))
    return apply_basis_change(ad, random_invertible(rng, dim)) if rng.random() < 0.2 else ad


def test_two_nilpotent_against_brute_force_on_random_pairs(rng):
    verdicts = []
    for _ in range(1000):
        ad = _upper_pair(rng, rng.choice((2, 3)))
        verdict = is_two_nilpotent(ad)
        assert verdict == (not brute_force_nonzero_triple_forms(ad))
        verdicts.append(verdict)
    assert 200 <= sum(verdicts) <= 800


def test_two_nilpotent_sees_each_single_mixed_form():
    # e1 rhd e1 = e2 and e2 lhd e1 = e3: only (e1 rhd e1) lhd e1 is nonzero
    ad = AdPair(StructureConstants.from_table(3, {(1, 1, 2): "1/2"}),
                StructureConstants.from_table(3, {(2, 1, 3): "-3"}))
    assert brute_force_nonzero_triple_forms(ad) == {"(x rhd y) lhd z"}
    assert not is_two_nilpotent(ad)
    # e1 rhd e1 = e2 and e1 lhd e2 = e3: only e1 lhd (e1 rhd e1) is nonzero
    ad = AdPair(StructureConstants.from_table(3, {(1, 1, 2): "2/3"}),
                StructureConstants.from_table(3, {(1, 2, 3): "1"}))
    assert brute_force_nonzero_triple_forms(ad) == {"x lhd (y rhd z)"}
    assert not is_two_nilpotent(ad)


def test_two_nilpotent_against_brute_force_on_parametric_registry():
    checked = 0
    for entry in catalog.entries():
        ad = catalog.get(entry.id)
        if isinstance(ad, AdPair) and ad.variables():
            assert is_two_nilpotent(ad) == (not brute_force_nonzero_triple_forms(ad))
            checked += 1
    assert checked >= 10


def test_two_nilpotent_is_identical_in_the_parameters():
    # (e1 rhd e1) lhd e1 = l e3 vanishes only at l = 0
    ad = AdPair(StructureConstants.from_table(3, {(1, 1, 2): "1"}),
                StructureConstants.from_table(3, {(2, 1, 3): "l"}))
    assert brute_force_nonzero_triple_forms(ad) == {"(x rhd y) lhd z"}
    assert not is_two_nilpotent(ad)
    assert is_two_nilpotent(ad.subs({"l": F(0)}))
    assert not is_two_nilpotent(ad.subs({"l": F(1, 3)}))


# -- constant tensors ---------------------------------------------------------------


def test_constant_tensor_is_evaluated_once_into_tuples(rng):
    sc = apply_basis_change(catalog.get("AD3_10"), random_invertible(rng, 3)).rhd
    first = sc.constant_tensor()
    assert first == tuple(tuple(tuple(row) for row in plane) for plane in _evaluated(sc))
    assert all(isinstance(row, tuple) for plane in first for row in plane)
    assert isinstance(first, tuple) and all(isinstance(p, tuple) for p in first)
    assert sc.constant_tensor() is first


def test_constant_tensor_of_parametric_tensor_is_never_cached():
    sc = catalog.get("AD3_22").rhd
    with pytest.raises(MissingAssignment):
        sc.constant_tensor()
    with pytest.raises(MissingAssignment):
        sc.constant_tensor()
    at_one = sc.subs({"a": F(1), "b": F(2)}).constant_tensor()
    at_two = sc.subs({"a": F(1, 2), "b": F(-1)}).constant_tensor()
    assert (at_one[0][0][2], at_one[1][0][2]) == (F(1), F(2))
    assert (at_two[0][0][2], at_two[1][0][2]) == (F(1, 2), F(-1))
    assert sc.subs({"a": F(1), "b": F(2)}).constant_tensor() == at_one
    with pytest.raises(MissingAssignment):
        sc.constant_tensor()


# -- quotient -----------------------------------------------------------------------------


def test_quotient_of_corollary_algebra():
    quo = quotient_by_center(catalog.get("AD3_1"))
    assert quo.pair.dim == 2
    expected = StructureConstants.from_table(2, {(1, 1, 2): "1/2"})
    assert quo.pair.rhd == expected and quo.pair.lhd == expected
    # rescaling e2' = e2/2 carries it onto the two-dimensional family at 1
    target = catalog.get("AD2_3", {"l": F(1)})
    w = Witness.from_rows([[1, 0], [0, F(1, 2)]])
    assert verify_witness(quo.pair, target, w).ok


def test_quotient_of_zero_pair_is_zero_dimensional():
    zero = AdPair(StructureConstants.zero(2), StructureConstants.zero(2))
    assert quotient_by_center(zero).pair.dim == 0


def test_quotient_kills_central_products():
    # AD3_10 has matching centers spanned by e3; the quotient keeps only
    # the e2-valued products
    quo = quotient_by_center(catalog.get("AD3_10"))
    assert quo.pair.dim == 2
    assert quo.pair.rhd == StructureConstants.from_table(2, {(1, 1, 2): "1"})
    assert quo.pair.lhd == StructureConstants.from_table(2, {(1, 1, 2): "-1"})


def test_quotient_requires_matching_centers():
    # the sum of AD3_5 is abelian, so its one-operation center is the whole
    # space while the two-operation center is only span{e2, e3}
    with pytest.raises(CenterMismatch):
        quotient_by_center(catalog.get("AD3_5"))


def test_quotient_passes_checker_when_defined(rng):
    for eid in ("AD3_1", "AD3_5", "AD3_10", "AD2_3"):
        entry = catalog.entry(eid)
        assign = {p: F(2) for p in entry.params}
        ad = catalog.get(eid, assign) if entry.params else catalog.get(eid)
        try:
            quo = quotient_by_center(ad)
        except CenterMismatch:
            continue
        assert check_antidendriform(quo.pair).ok
        # the sum of the quotient equals the quotient of the sum: project the
        # sum algebra through the same construction (as a pair with zero lhd)
        total = sum_algebra(ad)
        projected_sum = quotient_by_center(
            AdPair(total.sc, StructureConstants.zero(ad.dim))).pair.rhd
        assert sum_algebra(quo.pair).sc == projected_sum


# -- basis change ------------------------------------------------------------------------


def test_scaling_changes_family_parameter():
    fam = catalog.get("AD3_nullfiliform_family")
    t = [[F(2), F(0), F(0)], [F(0), F(4), F(0)], [F(0), F(0), F(8)]]
    moved = apply_basis_change(fam, t)
    # e1'>e1' = 1/2 e2' + (a/2) e3': the parameter rescales by 1/A1
    assert moved.rhd.c[0][0][1] == Poly.const(F(1, 2))
    assert moved.rhd.c[0][0][2] == poly_parse("a") * F(1, 2)


def test_transport_commutes_with_substitution(rng):
    ad = catalog.get("AD3_22")
    points = ({"a": F(0), "b": F(0)}, {"a": F(1), "b": F(-2)},
              {"a": F(1, 2), "b": F(3)})
    for _ in range(2):
        t = random_invertible(rng, 3)
        moved = apply_basis_change(ad, t)
        assert moved.variables() == {"a", "b"}
        for point in points:
            late, early = moved.subs(point), apply_basis_change(ad.subs(point), t)
            assert (late.rhd, late.lhd) == (early.rhd, early.lhd)


def test_identity_change_is_identity():
    ad = catalog.get("AD3_8")
    t = [[F(1 if i == j else 0) for j in range(3)] for i in range(3)]
    moved = apply_basis_change(ad, t)
    assert moved.rhd == ad.rhd and moved.lhd == ad.lhd


def test_swap_and_rescale_returns_as3_2():
    alg = catalog.get("As3_2")
    swap = [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    swapped = apply_basis_change(alg, swap)
    assert swapped.sc == StructureConstants.from_table(
        3, {(1, 2, 3): "-1", (2, 1, 3): "1"})
    flip = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(-1)]]
    assert apply_basis_change(swapped, flip).sc == alg.sc


def test_round_trip_through_inverse(rng):
    from adkit.linalg import invert
    ad = catalog.get("AD3_10")
    for _ in range(10):
        t = random_invertible(rng, 3)
        back = apply_basis_change(apply_basis_change(ad, t), invert(t))
        assert back.rhd == ad.rhd and back.lhd == ad.lhd


def test_singular_matrix_rejected():
    ad = catalog.get("AD3_10")
    with pytest.raises(SingularMatrix):
        apply_basis_change(ad, [[F(1), F(0), F(0)], [F(1), F(0), F(0)],
                                [F(0), F(0), F(1)]])


def test_transport_preserves_checker_verdict_and_invariants(rng):
    for eid in ("AD3_1", "AD3_10", "AD3_5"):
        ad = catalog.get(eid)
        for _ in range(5):
            t = random_invertible(rng, 3)
            moved = apply_basis_change(ad, t)
            assert check_antidendriform(moved).ok
            assert len(center_ad(moved)) == len(center_ad(ad))
            assert (power_series(sum_algebra(moved)).dims
                    == power_series(sum_algebra(ad)).dims)


def test_checker_pass_implies_associative_sum_across_catalog():
    for e in catalog.entries():
        if e.kind != "antidendriform" or e.id == "AD3_17":
            continue
        obj = e.tensors()
        assert check_antidendriform(obj).ok
        assert is_associative(sum_algebra(obj)).ok


def test_nilpotency_of_sums_across_catalog():
    # the sum algebra of every valid two-operation entry is nilpotent
    points = [F(0), F(1), F(-1), F(2), F(3)]
    for e in catalog.entries():
        if e.kind != "antidendriform" or e.id == "AD3_17":
            continue
        for value in points:
            assign = {p: value for p in e.params}
            ad = e.instantiate(assign, strict=False) if e.params else e.tensors()
            assert power_series(sum_algebra(ad)).nilpotent
