from fractions import Fraction

import pytest

from adkit import catalog, fileio
from adkit.algebra import StructureConstants, sum_algebra
from adkit.errors import (ConstraintViolation, MissingAssignment,
                          UnknownEntry)
from adkit.scalars import Poly, poly_parse

F = Fraction


def test_get_instantiated_entry():
    ad = catalog.get("AD3_8", {"a": F(1), "b": F(2)})
    # e2 lhd e1 = (-1-b) e3 = -3 e3 at b = 2
    assert ad.lhd.c[1][0][2] == Poly.const(-3)


def test_get_abelian_entry_is_zero():
    assert catalog.get("As3_1").sc == StructureConstants.zero(3)


def test_null_filiform_generator():
    alg = catalog.get("mu0", n=5)
    expected = {(i, j): i + j for i in range(1, 6) for j in range(1, 6)
                if i + j <= 5}
    for i in range(5):
        for j in range(5):
            for k in range(5):
                want = Poly.const(1) if expected.get((i + 1, j + 1)) == k + 1 \
                    else Poly.zero()
                assert alg.sc.c[i][j][k] == want


def test_get_unknown_id():
    with pytest.raises(UnknownEntry):
        catalog.get("AD9_99")


def test_get_missing_parameter():
    with pytest.raises(MissingAssignment):
        catalog.get("AD3_8", {"a": F(1)})
    with pytest.raises(MissingAssignment):
        catalog.get("mu0")


def test_constraint_violation_on_degenerate_point():
    full = {"a": F(0), "b": F(1), "g": F(1), "l": F(1)}
    with pytest.raises(ConstraintViolation):
        catalog.get("AD3_15", full)
    with pytest.raises(ConstraintViolation):
        catalog.get("AD3_21", {"a": F(-1)})
    # forcing skips the canonical-range check; the table is still an algebra
    ad = catalog.get("AD3_21", {"a": F(-1)}, strict=False)
    from adkit.algebra import check_antidendriform
    assert check_antidendriform(ad).ok


def test_listing_counts():
    entries = catalog.entries()
    assert sum(1 for e in entries
               if e.kind == "antidendriform" and e.dim == 3
               and not e.auxiliary) == 23
    assert sum(1 for e in entries
               if e.kind == "associative" and e.dim == 2) == 7
    assert sum(1 for e in entries
               if e.kind == "associative" and e.dim == 3) == 6
    assert sum(1 for e in entries
               if e.kind == "antidendriform" and e.dim == 2) == 3


def test_listing_order_is_lexicographic():
    names = [e.id for e in catalog.entries()]
    assert names == sorted(names)


def test_verify_all_reports_the_one_known_defect():
    reports = catalog.verify_all()
    failing = [r for r in reports if not r.ok]
    # AD3_17 cannot satisfy the identities: its sum forces e2e2 = e3 while
    # id1 on (1,1,2) and id2 on (2,1,1) pin both e2-products of e2 to zero
    assert [r.id for r in failing] == ["AD3_17"]
    bad = failing[0]
    assert not bad.axioms_ok and bad.sum_ok
    assert "id1" in bad.detail and "(1, 1, 2)" in bad.detail


def test_every_other_entry_passes_symbolically():
    for r in catalog.verify_all():
        if r.id == "AD3_17":
            continue
        assert r.ok, f"{r.id}: {r.detail}"


def test_stated_sums():
    checks = {
        "AD3_17": "As3_5",   # the sum itself does match
        "AD2_2": "As2_3",
        "AD3_14": "As3_4",
        "AD3_1": "As3_6",
    }
    for ad_id, as_id in checks.items():
        ad = catalog.entry(ad_id).tensors()
        assert sum_algebra(ad).sc == catalog.entry(as_id).tensors().sc


def test_two_dim_family_sum_matches_up_to_rescaling():
    rep = catalog.verify_entry(catalog.entry("AD2_3"))
    assert rep.ok and rep.sum_ok
    # the rescaling onto As2_3 is invertible exactly when 1+l != 0, and at
    # l = -1 the sum collapses onto the abelian As2_1
    (w1, w2), (w3, w4) = catalog.entry("AD2_3").sum_witness
    det = poly_parse(w1) * poly_parse(w4) - poly_parse(w2) * poly_parse(w3)
    assert det == poly_parse("1+l")
    ad = catalog.get("AD2_3", {"l": F(-1)})
    assert sum_algebra(ad).sc == catalog.get("As2_1").sc == StructureConstants.zero(2)


def test_iso_notes_verify_symbolically():
    for e in catalog.entries():
        for note in e.iso_notes:
            rep = catalog.verify_iso_note(note)
            assert rep.ok, f"{e.id}: {note.note}"


def test_family_collapse_notes():
    fam = catalog.entry("AD3_nullfiliform_family")
    notes = {n.target_id: n for n in fam.iso_notes}
    assert set(notes) == {"AD3_1", "AD3_2"}
    # the family at a = 0 literally equals the first target
    at_zero = catalog.get("AD3_nullfiliform_family", {"a": F(0)})
    ad1 = catalog.get("AD3_1")
    assert at_zero.rhd == ad1.rhd and at_zero.lhd == ad1.lhd


def test_symmetry_note_constraints_recorded():
    ad21 = catalog.entry("AD3_21")
    assert ad21.nonzero == ("1+a",)
    assert any(n.target_id == "AD3_20" for n in ad21.iso_notes)
    ad15 = catalog.entry("AD3_15")
    assert ad15.nonzero == ("a",)
    assert any(n.target_id == "AD3_15" for n in ad15.iso_notes)
    ad8 = catalog.entry("AD3_8")
    assert any(n.target_id == "AD3_8" for n in ad8.iso_notes)


def test_export_round_trip_every_entry():
    for e in catalog.entries():
        obj = e.tensors()
        text = fileio.render_algebra(obj)
        again = fileio.parse_algebra(text)
        if e.kind == "associative":
            assert again.sc == obj.sc
        else:
            assert again.rhd == obj.rhd and again.lhd == obj.lhd


def test_export_round_trip_null_filiform():
    alg = catalog.get("mu0", n=4)
    again = fileio.parse_algebra(fileio.render_algebra(alg))
    assert again.sc == alg.sc
