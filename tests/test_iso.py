import tracemalloc
from fractions import Fraction
from itertools import islice, product as iproduct

import pytest

from adkit import catalog, iso
from adkit.algebra import AdPair, StructureConstants, apply_basis_change
from adkit.errors import DimensionMismatch, MissingAssignment, SingularMatrix
from adkit.scalars import Poly, QuadExt, poly_parse

from conftest import random_invertible

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


def test_quad_witness_verification_directly():
    src = quad_pair_needing_sqrt2()
    tgt = catalog.get("AD3_22", {"a": F(0), "b": F(0)})
    d = F(2)
    w = iso.Witness((
        (QuadExt(0, 1, d), QuadExt(0, 0, d), QuadExt(0, 0, d)),
        (QuadExt(0, 0, d), QuadExt(1, 0, d), QuadExt(0, 0, d)),
        (QuadExt(0, 0, d), QuadExt(0, 0, d), QuadExt(2, 0, d))), d)
    assert iso.verify_witness(src, tgt, w).ok
