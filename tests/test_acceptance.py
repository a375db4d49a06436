"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets are wall-clock seconds from the criteria; every mathematical check
is exact (structural equality of canonical polynomials), so there are no
numeric tolerances anywhere.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from adkit import catalog, iso, solver
from adkit.algebra import (AdPair, apply_basis_change, check_antidendriform,
                           is_two_nilpotent, power_series, sum_algebra)
from adkit.errors import ConstraintViolation, SideConditionViolation
from adkit.scalars import Poly

from conftest import random_invertible, random_pair, random_tensor

F = Fraction


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "adkit", *args],
                          capture_output=True, text=True)


def announce(name, ok, elapsed, extra=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {name}: {verdict} ({elapsed:.2f}s){tail}")


def test_criterion_1_catalog_soundness():
    start = time.monotonic()
    reports = catalog.verify_all()
    failures = [r for r in reports if not r.ok]
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    announce("criterion 1 (catalog verifies symbolically)", ok, elapsed,
             extra="" if not failures else f"failing: {[r.id for r in failures]}")
    assert elapsed < 5.0
    assert not failures, (
        "catalog verification failed for "
        + ", ".join(f"{r.id} ({r.detail})" for r in failures)
        + ".  AD3_17 cannot satisfy the defining identities: its sum "
          "algebra forces e2*e2 = e3, while id2 on the triple (2,1,1) pins "
          "e2>e2 = 0 and id1 on (1,1,2) pins e2<e2 = 0, so no table of its "
          "shape exists; the registry keeps the entry as stated rather than "
          "silently editing it, and this criterion records the defect.")


def test_criterion_2_nonexistence_on_null_filiform_4(tmp_path):
    start = time.monotonic()
    out = tmp_path / "mu4.json"
    assert run_cli("catalog", "export", "mu0", "--n", "4",
                   "-o", str(out)).returncode == 0
    proc = run_cli("enumerate", str(out))
    report = json.loads(proc.stdout)
    result = solver.enumerate_compatible(catalog.null_filiform(4))
    elapsed = time.monotonic() - start

    cli_ok = proc.returncode == 1 and report["results"]["outcome"] == "no-structure"
    closed = result.status == "no-structure"
    constants = [b for b in result.infeasible
                 if b.trace[-1].kind == "equation-contradiction"]
    replays = all(solver.replay_certificate(result.system, b)
                  for b in result.infeasible)
    ok = cli_ok and closed and bool(constants) and replays and elapsed < 60.0
    announce("criterion 2 (mu0(4) infeasible with replayable certificate)",
             ok, elapsed,
             extra=f"branches={len(result.infeasible)}, "
                   f"constant-contradictions={len(constants)}")
    assert cli_ok and closed and constants and replays
    assert elapsed < 60.0


@pytest.mark.parametrize("eid", ["As2_2", "As2_4", "As2_5", "As2_6", "As2_7"])
def test_criterion_3_idempotent_obstruction(eid, tmp_path):
    start = time.monotonic()
    path = tmp_path / f"{eid}.json"
    assert run_cli("catalog", "export", eid, "-o", str(path)).returncode == 0
    proc = run_cli("enumerate", str(path))
    report = json.loads(proc.stdout)
    elapsed = time.monotonic() - start
    ok = (proc.returncode == 1
          and report["results"]["outcome"] == "no-structure"
          and elapsed < 10.0)
    announce(f"criterion 3 (idempotent obstruction, {eid})", ok, elapsed)
    assert proc.returncode == 1
    assert report["results"]["outcome"] == "no-structure"
    assert elapsed < 10.0


def _family_point_for_coefficient(fam, target):
    """Parameter value making the e3 coefficient of e1>e1 equal target."""
    poly = fam.rhd.c[0][0][2]
    (param,) = fam.params
    parts = poly.coefficients(param)
    assert set(parts) <= {0, 1}
    b = parts.get(0, Poly.zero())
    return (F(target) - b.constant_value()) / parts[1].constant_value()


def test_criterion_4_null_filiform_3_enumeration():
    start = time.monotonic()
    result = solver.enumerate_compatible(catalog.null_filiform(3))
    ok_shape = (result.status == "families" and len(result.families) == 1
                and not result.constrained)
    (fam,) = result.families
    ok_params = len(fam.params) == 1
    p = fam.params[0]

    at0 = solver.sample_branch(fam, {p: _family_point_for_coefficient(fam, 0)})
    at1 = solver.sample_branch(fam, {p: _family_point_for_coefficient(fam, 1)})
    ident = iso.Witness.identity(3)
    ok_first = iso.verify_witness(at0, catalog.get("AD3_1"), ident).ok
    ok_second = iso.verify_witness(at1, catalog.get("AD3_2"), ident).ok

    # the rescaling e1' = 2e1, e2' = 4e2, e3' = 8e3 halves the parameter,
    # carrying the member with coefficient 2 onto the one with coefficient 1
    at2 = solver.sample_branch(fam, {p: _family_point_for_coefficient(fam, 2)})
    scaling = iso.Witness([[2, 0, 0], [0, 4, 0], [0, 0, 8]])
    ok_scaling = iso.verify_witness(at2, catalog.get("AD3_2"), scaling).ok

    elapsed = time.monotonic() - start
    ok = all((ok_shape, ok_params, ok_first, ok_second, ok_scaling,
              elapsed < 10.0))
    announce("criterion 4 (mu0(3) gives the one-parameter family)", ok, elapsed)
    assert ok_shape and ok_params
    assert ok_first and ok_second and ok_scaling
    assert elapsed < 10.0


def test_criterion_5_stated_isomorphisms():
    start = time.monotonic()
    sym8 = catalog.verify_iso_note(
        next(n for n in catalog.entry("AD3_8").iso_notes))
    sym15 = catalog.verify_iso_note(
        next(n for n in catalog.entry("AD3_15").iso_notes))
    a21 = catalog.get("AD3_21", {"a": F(-1)}, strict=False)
    a20 = catalog.get("AD3_20", {"a": F(0)})
    search = iso.search_witness(a21, a20, bound=3)
    found = search.status == "found" and iso.verify_witness(
        a21, a20, search.witness).ok
    elapsed = time.monotonic() - start
    ok = sym8.ok and sym15.ok and found and elapsed < 10.0
    announce("criterion 5 (stated isomorphisms verified)", ok, elapsed)
    assert sym8.ok and sym15.ok and found
    assert elapsed < 10.0


def _catalog_pairs(include_defect=False):
    for e in catalog.entries():
        if e.kind != "antidendriform":
            continue
        if e.id == "AD3_17" and not include_defect:
            continue
        yield e


def test_criterion_6_property_suites():
    rng = random.Random(987654)
    start = time.monotonic()

    # the two defining equations agree with the seven identities (200 pairs)
    for _ in range(200):
        ad = random_pair(rng, rng.choice((2, 3)))
        rep = check_antidendriform(ad)
        assert rep.ok == rep.chains_ok
    print("  property: defining-equation equivalence on 200 random pairs")

    # pairs (R, -R) that satisfy the identities are 2-nilpotent (200 tensors)
    hits = 0
    for _ in range(200):
        r = random_tensor(rng, rng.choice((2, 3)), density=0.2)
        ad = AdPair(r, r.neg())
        if check_antidendriform(ad).ok:
            hits += 1
            assert is_two_nilpotent(ad)
    assert hits >= 10
    print(f"  property: negated-pair 2-nilpotency ({hits} passing pairs)")

    # the sum algebra of every registry family is nilpotent at 5 points
    points = [F(0), F(1), F(-1), F(2), F(3)]
    for e in _catalog_pairs():
        for value in (points if e.params else points[:1]):
            ad = e.instantiate({p: value for p in e.params}, strict=False)
            assert power_series(sum_algebra(ad)).nilpotent
    print("  property: catalog sums are nilpotent at the sample points")

    # fingerprints are basis-invariant: 3 points x 50 random changes
    for e in _catalog_pairs(include_defect=True):
        for value in (points[:3] if e.params else points[:1]):
            ad = e.instantiate({p: value for p in e.params}, strict=False)
            base = iso.fingerprint(ad)
            for _ in range(50):
                t = random_invertible(rng, ad.dim)
                assert iso.fingerprint(apply_basis_change(ad, t)) == base
    print("  property: fingerprint invariance under 50 changes per entry")

    # solver round-trip: 5 side-condition-respecting samples per solved branch
    sources = [catalog.null_filiform(3), catalog.get("As2_3"),
               catalog.get("As3_2"), catalog.get("As3_3"),
               catalog.get("As3_4"),
               catalog.get("As3_5", {"l": F(2)})]
    branches = 0
    for alg in sources:
        result = solver.enumerate_compatible(alg)
        for fam in result.families:
            produced = 0
            attempts = 0
            while produced < 5 and attempts < 80:
                attempts += 1
                assign = {p: F(rng.randint(-4, 4), rng.choice((1, 2)))
                          for p in fam.params}
                try:
                    sample = solver.sample_branch(fam, assign)
                except (SideConditionViolation, ConstraintViolation):
                    continue
                produced += 1
                assert check_antidendriform(sample).ok
            assert produced == 5
            branches += 1
    assert branches >= 10
    print(f"  property: solver round-trip on 5 samples x {branches} branches")

    # grid-oracle equivalence for every dimension <= 2 base algebra
    from test_solver import _check_grid_conservation
    from adkit.algebra import StructureConstants, UnaryAlgebra
    for i in range(1, 8):
        _check_grid_conservation(catalog.get(f"As2_{i}"))
    for table in ({}, {(1, 1, 1): "1"}):
        _check_grid_conservation(
            UnaryAlgebra(StructureConstants.from_table(1, table)))
    print("  property: grid-oracle conservation in dimensions 1 and 2")

    elapsed = time.monotonic() - start
    announce("criterion 6 (property suites)", True, elapsed)


def test_criterion_7_two_dimensional_cross_check():
    start = time.monotonic()

    # the abelian base: every branch negates the first operation, and all
    # samples are 2-nilpotent
    result = solver.enumerate_compatible(catalog.get("As2_1"))
    fams = list(result.families) + list(result.constrained)
    assert fams
    for fam in fams:
        assert fam.lhd == fam.rhd.neg()
    rng = random.Random(24601)
    sampled = 0
    for fam in fams:
        attempts = 0
        while sampled < 12 and attempts < 120:
            attempts += 1
            assign = {p: F(rng.randint(-3, 3)) for p in fam.params}
            try:
                sample = solver.sample_branch(fam, assign)
            except (SideConditionViolation, ConstraintViolation):
                continue
            sampled += 1
            assert is_two_nilpotent(sample)
            assert check_antidendriform(sample).ok
    assert sampled >= 6

    # the single-generator point e1>e1 = e2 reproduces the two-dimensional
    # family at parameter -1
    from adkit.algebra import StructureConstants
    target = StructureConstants.from_table(2, {(1, 1, 2): "1"})
    point_found = False
    for fam in fams:
        for assign_try in _assignments_matching(fam, target):
            try:
                sample = solver.sample_branch(fam, assign_try)
            except (SideConditionViolation, ConstraintViolation):
                continue
            if sample.rhd == target:
                ad23 = catalog.get("AD2_3", {"l": F(-1)})
                assert sample.lhd == ad23.lhd and sample.rhd == ad23.rhd
                point_found = True
                break
        if point_found:
            break
    assert point_found

    # the single-square base: samples of the solved family match the
    # registry tables after an explicit verified rescaling
    result3 = solver.enumerate_compatible(catalog.get("As2_3"))
    assert result3.status == "families" and len(result3.families) == 1
    (fam,) = result3.families
    (p,) = fam.params

    def sample_at(t):
        return solver.sample_branch(fam, {p: t})

    ident = iso.Witness.identity(2)
    assert iso.verify_witness(sample_at(F(0)), catalog.get("AD2_2"), ident).ok
    assert iso.verify_witness(sample_at(F(1)),
                              catalog.get("AD2_3", {"l": F(0)}), ident).ok
    # t = 1/2: rescale e2' = e2/2 onto the family at parameter 1
    w_half = iso.Witness([[1, 0], [0, F(1, 2)]])
    assert iso.verify_witness(sample_at(F(1, 2)),
                              catalog.get("AD2_3", {"l": F(1)}), w_half).ok
    # t = 3: rescale e2' = 3e2 onto the family at parameter -2/3
    w_three = iso.Witness([[1, 0], [0, 3]])
    assert iso.verify_witness(sample_at(F(3)),
                              catalog.get("AD2_3", {"l": F(-2, 3)}), w_three).ok
    # and the bounded search rediscovers a witness on its own
    found = iso.search_witness(sample_at(F(1, 2)),
                               catalog.get("AD2_3", {"l": F(1)}), bound=3)
    assert found.status == "found"

    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    announce("criterion 7 (two-dimensional cross-check)", ok, elapsed)
    assert elapsed < 10.0


def _assignments_matching(fam, target_rhd):
    """Assignments whose free cells reproduce the target tensor exactly."""
    assign = {}
    feasible = True
    n = fam.rhd.dim
    for p in fam.params:
        found = None
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if fam.rhd.c[i][j][k] == Poly.var(p):
                        found = target_rhd.c[i][j][k].constant_value()
        if found is None:
            feasible = False
            break
        assign[p] = found
    if feasible:
        yield assign
