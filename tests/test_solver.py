import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from adkit import catalog, solver
from adkit.algebra import (StructureConstants, UnaryAlgebra,
                           check_antidendriform)
from adkit.errors import (BudgetExceeded, ConstraintViolation,
                          MissingAssignment, NotAssociative,
                          SideConditionViolation)
from adkit.scalars import (Poly, format_poly, is_rational_square, poly_parse,
                           rational_sqrt)

F = Fraction

GRID = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]


# -- constraint generation ----------------------------------------------------


def test_one_dim_abelian_system_reduces_to_square():
    alg = UnaryAlgebra(StructureConstants.zero(1))
    system = solver.generate_constraints(alg)
    assert system.unknowns == ("u1_1_1",)
    square = Poly.var("u1_1_1") * Poly.var("u1_1_1")
    assert any(eq.poly == square or eq.poly == -square
               for eq in system.equations)
    result = solver.enumerate_compatible(alg)
    assert result.status == "families"
    (fam,) = result.families
    assert fam.params == ()
    assert fam.rhd == StructureConstants.zero(1)


def test_one_dim_idempotent_is_infeasible():
    alg = UnaryAlgebra(StructureConstants.from_table(1, {(1, 1, 1): "1"}))
    result = solver.enumerate_compatible(alg)
    assert result.status == "no-structure"


def test_generator_requires_associativity():
    bad = UnaryAlgebra(StructureConstants.from_table(
        2, {(1, 1, 1): "1", (1, 2, 1): "1"}))
    with pytest.raises(NotAssociative):
        solver.generate_constraints(bad)


def test_residual_budget_admits_dimension_8_and_stops_before_expanding(monkeypatch):
    # 7 identities x n^3 triples x n coordinates: mu0(8) fits, dimension 9 not
    assert 7 * 8 ** 4 <= solver.RESIDUAL_BUDGET < 7 * 9 ** 4
    mu3 = catalog.null_filiform(3)
    monkeypatch.setattr(solver, "RESIDUAL_BUDGET", 7 * 3 ** 4)
    assert solver.generate_constraints(mu3).equations
    expanded = []
    monkeypatch.setattr(solver, "RESIDUAL_BUDGET", 7 * 3 ** 4 - 1)
    monkeypatch.setattr(solver, "is_associative",
                        lambda alg: expanded.append(alg))
    monkeypatch.setattr(solver, "check_antidendriform",
                        lambda pair: expanded.append(pair))
    with pytest.raises(BudgetExceeded) as err:
        solver.enumerate_compatible(mu3)
    assert err.value.budget == "residual-budget"
    assert "567" in str(err.value) and "566" in str(err.value)
    assert expanded == []


def test_mixed_associator_equations_are_linear():
    for alg in (catalog.null_filiform(3), catalog.get("As3_2")):
        system = solver.generate_constraints(alg)
        unknowns = frozenset(system.unknowns)
        for eq in system.equations:
            if eq.prov.startswith("id5@"):
                assert eq.poly.degree_in(unknowns) <= 1


def test_zero_algebra_solutions_negate_the_first_operation():
    alg = UnaryAlgebra(StructureConstants.zero(2))
    result = solver.enumerate_compatible(alg)
    for fam in list(result.families) + list(result.constrained):
        assert fam.lhd == fam.rhd.neg()


def test_null_filiform_3_has_27_unknowns_and_low_index_freedom():
    system = solver.generate_constraints(catalog.null_filiform(3))
    assert len(system.unknowns) == 27
    result = solver.enumerate_compatible(catalog.null_filiform(3))
    (fam,) = result.families
    free = fam.branch.free_unknowns(result.system)
    # the surviving freedom sits in the products of the generator e1
    assert all(u.startswith("u1_") for u in free)


# -- elimination outcomes ------------------------------------------------------


def test_null_filiform_3_family_matches_registry():
    result = solver.enumerate_compatible(catalog.null_filiform(3))
    assert result.status == "families"
    (fam,) = result.families
    assert len(fam.params) == 1
    registry = catalog.entry("AD3_nullfiliform_family").tensors()
    renamed = {"a": Poly.var(fam.params[0])}
    assert fam.rhd == registry.rhd.subs(renamed)
    assert fam.lhd == registry.lhd.subs(renamed)


def test_null_filiform_4_closes_infeasible_with_replayable_contradiction():
    result = solver.enumerate_compatible(catalog.null_filiform(4))
    assert result.status == "no-structure"
    assert result.infeasible
    kinds = [b.trace[-1].kind for b in result.infeasible]
    assert "equation-contradiction" in kinds
    for branch in result.infeasible:
        assert solver.replay_certificate(result.system, branch)


def _two_pass_row_index(p: Poly, system: solver.ConstraintSystem):
    """The earlier row bookkeeping: the unknowns of p, sorted, then a second
    pass over the terms for the lowest linear pivot; the unknowns and the
    pivot are returned as their pivot orders."""
    order = system.unknown_order
    unknowns = tuple(sorted(p.variables() & system.unknown_set, key=order))
    orders = tuple(map(order, unknowns))
    if not unknowns:
        return orders, None
    occurrences = Counter()
    for m in p.terms:
        degree = 0
        for name, e in m:
            if name in unknowns:
                degree += e
                occurrences[name] += 1
        if degree > 1:
            return orders, None
    for var in unknowns:
        if occurrences[var] == 1 and ((var, 1),) in p.terms:
            return orders, order(var)
    return orders, None


@pytest.mark.parametrize("label", ["mu0_4", "As3_3"])
def test_index_row_matches_the_two_pass_oracle(label):
    alg = catalog.null_filiform(4) if label == "mu0_4" else catalog.get(label)
    system = solver.generate_constraints(alg)
    polys = [eq.poly for eq in system.equations]
    # with a parameter, an unknown can occur linearly in several terms
    u, v, w, l = (Poly.var(x) for x in ("u1_1_1", "u1_1_2", "u1_2_1", "l"))
    checked = polys + [u + l * u + v, l * u + v * 2 + 1, u * v + w, u * u + w,
                       l * l * w - u, Poly.const(3), Poly.zero()]
    # the longest branch, replayed one step at a time: every equation it
    # rewrites or adds is checked again
    branch = max(solver.eliminate(system), key=lambda b: len(b.trace))
    for step in branch.trace:
        if step.kind in ("substitute", "case-zero", "root-case"):
            mapping = {step.var: step.poly}
            rewritten = [p.subs(mapping) for p in polys]
            checked.extend(q for p, q in zip(polys, rewritten) if q is not p)
            polys = rewritten
        elif step.kind in ("case-nonzero", "combine"):
            polys.append(step.poly)
            checked.append(step.poly)
    assert len(checked) > len(system.equations)
    for p in checked:
        assert solver._index_row(p, system) == \
            (p,) + _two_pass_row_index(p, system)


#: The benchmark's inputs: mu0(3..5), and the 14 dimension-2 and -3 bases.
_SOLVER_INPUTS = (
    [(f"mu0_{n}", lambda n=n: catalog.null_filiform(n)) for n in (3, 4, 5)]
    + [(eid, lambda eid=eid: catalog.get(eid))
       for eid in [f"As2_{i}" for i in range(1, 8)]
       + [f"As3_{i}" for i in range(1, 7)]]
    + [("As3_5_l2", lambda: catalog.get("As3_5", {"l": F(2)}))])


@pytest.mark.parametrize("label", [label for label, _ in _SOLVER_INPUTS])
def test_drop_path_matches_subs_a_fresh_key_and_the_two_pass_oracle(
        label, monkeypatch):
    """Every ``u := 0`` rewrite, case-zero branches included: the kept terms
    are ``subs`` in its order, the key read off the old row is the key
    computed afresh, and the index is the two-pass one."""
    system = solver.generate_constraints(dict(_SOLVER_INPUTS)[label]())
    index_row = solver._index_row
    drops = []

    def checked(p, system, drop=None):
        q, *index = index_row(p, system, drop)
        if drop is not None:
            subs = p.subs({drop: 0})
            assert list(q.terms.items()) == list(subs.terms.items())
            assert q._key is not None  # read off p's, not computed
            assert q.normalized_key() == Poly(dict(q.terms)).normalized_key()
            assert tuple(index) == _two_pass_row_index(q, system)
            drops.append(drop)
        return (q, *index)

    monkeypatch.setattr(solver, "_index_row", checked)
    solver.eliminate(system)
    assert drops or label == "As3_1"  # As3_1 stops at the root


def _linear_rows(branch: solver.Branch) -> dict:
    """The linear map recomputed from the rows: id -> (#unknowns, pivot)."""
    return {rid: (len(row.unknowns), row.pivot)
            for rid, row in branch.rows.items() if row.pivot is not None}


@pytest.mark.parametrize("label", [label for label, _ in _SOLVER_INPUTS])
def test_every_terminal_branch_keeps_its_linear_rows(label):
    build = dict(_SOLVER_INPUTS)[label]
    branches = solver.eliminate(solver.generate_constraints(build()))
    assert branches
    for branch in branches:
        assert branch.linear == _linear_rows(branch)


def test_a_clone_keeps_its_own_linear_map():
    system = solver.generate_constraints(catalog.null_filiform(4))
    root = solver.Branch()
    for eq in system.equations:
        solver._write_row(root, system, None, eq.prov, eq.poly)
    solver._canonicalise(root)
    before = dict(root.linear)
    child = root.clone()
    assert child.linear == before and child.linear is not root.linear
    var, rhs, prov = solver._linear_candidate(child, system)
    solver._apply_substitution(child, system, var, rhs, "substitute", prov)
    solver._canonicalise(child)
    assert child.linear == _linear_rows(child) != before
    assert root.linear == before == _linear_rows(root)


def _full_row_candidate(branch: solver.Branch, system: solver.ConstraintSystem):
    """The earlier linear scan: the min over every row, after every step."""
    best = min(((len(row.unknowns), row.pivot, rid)
                for rid, row in branch.rows.items() if row.pivot is not None),
               default=None)
    if best is None:
        return None
    _, pivot, rid = best
    row = branch.rows[rid]
    var = system.unknowns[pivot]
    parts = row.poly.coefficients(var)
    assert set(parts) <= {0, 1} and parts[1].is_constant()
    rest = parts.get(0, Poly.zero())
    return var, rest * (Fraction(-1) / parts[1].constant_value()), row.prov


def test_linear_candidate_matches_the_full_row_scan(monkeypatch):
    picks = []
    candidate = solver._linear_candidate

    def checked(branch, system):
        got = candidate(branch, system)
        picks.append((got, _full_row_candidate(branch, system)))
        return got

    monkeypatch.setattr(solver, "_linear_candidate", checked)
    result = solver.enumerate_compatible(catalog.null_filiform(4))
    assert result.status == "no-structure"
    assert sum(got is not None for got, _ in picks) > 40
    for got, old in picks:
        assert got == old


def test_replay_rejects_tampered_certificates():
    result = solver.enumerate_compatible(catalog.null_filiform(4))
    branch = result.infeasible[0].clone()
    step = branch.trace[-1]
    branch.trace[-1] = solver.TraceStep(step.kind, step.var,
                                        Poly.const(99), step.prov, step.lineage)
    assert not solver.replay_certificate(result.system, branch)


def test_replay_rejects_a_tampered_mid_trace_substitution():
    result = solver.enumerate_compatible(catalog.null_filiform(4))
    branch = result.infeasible[0].clone()
    subs = [i for i, s in enumerate(branch.trace) if s.kind == "substitute"]
    middle = subs[len(subs) // 2]
    assert 0 < middle < len(branch.trace) - 1
    step = branch.trace[middle]
    branch.trace[middle] = solver.TraceStep(step.kind, step.var, step.poly + 1,
                                            step.prov)
    assert not solver.replay_certificate(result.system, branch)


def test_replay_rejects_a_tampered_combine_lineage():
    result = solver.enumerate_compatible(catalog.get("As3_3"))
    branches = [f.branch for f in result.families] + list(result.infeasible)
    branch = next(b for b in branches
                  if any(s.kind == "combine" for s in b.trace)).clone()
    assert solver.replay_certificate(result.system, branch)
    at = next(i for i, s in enumerate(branch.trace) if s.kind == "combine")
    step = branch.trace[at]
    (prov, coeff), *rest = step.lineage
    branch.trace[at] = solver.TraceStep(step.kind, step.var, step.poly,
                                        step.prov, ((prov, coeff + 1), *rest))
    assert not solver.replay_certificate(result.system, branch)


def test_a_side_condition_that_becomes_a_nonzero_constant_is_dropped():
    # u*w = 0 splits on u; on u != 0, w := 0 and then u := 1 turns the side
    # condition u into the constant 1, which holds forever
    u, v, w = (Poly.var(x) for x in ("u", "v", "w"))
    system = solver.ConstraintSystem(
        ("u", "v", "w"),
        (solver.Equation("E1", u * w), solver.Equation("E2", w * v + u - 1)))
    nonzero, zero = solver.eliminate(system)
    assert nonzero.path == ("u!=0",) and nonzero.status == "solved"
    assert nonzero.side == []
    assert [s.kind for s in nonzero.trace] == [
        "case-nonzero", "substitute", "substitute"]
    assert solver.replay_certificate(system, nonzero)
    assert zero.path == ("u=0",)
    assert (zero.status, zero.stuck_reason) == ("stuck", "nonlinear")


# -- moves that no registry input reaches ------------------------------------


def _system(*equations, unknowns=("u",)):
    """A hand-built system whose equations E0, E1, ... are parsed from text."""
    names = unknowns + ("a",)
    return solver.ConstraintSystem(unknowns, tuple(
        solver.Equation(f"E{i}", poly_parse(text, names))
        for i, text in enumerate(equations)))


def _steps(branch) -> list:
    return [(s.kind, s.var, None if s.poly is None else format_poly(s.poly),
             s.prov) for s in branch.trace]


def test_a_zero_discriminant_forces_the_double_root():
    system = _system("u^2-2*u+1")
    (branch,) = solver.eliminate(system)
    assert (branch.path, branch.status) == ((), "solved")
    assert _steps(branch) == [("substitute", "u", "1", "E0")]
    assert solver.replay_certificate(system, branch)


def test_a_square_discriminant_splits_on_the_two_roots():
    system = _system("u^2-1")
    plus, minus = sorted(solver.eliminate(system), key=lambda b: b.path)
    assert (plus.path, minus.path) == (("u:root+",), ("u:root-",))
    assert _steps(plus) == [("root-case", "u", "1", "E0")]
    assert _steps(minus) == [("root-case", "u", "-1", "E0")]
    for branch in (plus, minus):
        assert branch.status == "solved"
        assert solver.replay_certificate(system, branch)


def test_replay_rejects_a_tampered_root_case():
    system = _system("u^2-1")
    branch = solver.eliminate(system)[0].clone()
    step = branch.trace[0]
    assert step.kind == "root-case"
    branch.trace[0] = solver.TraceStep(step.kind, step.var, Poly.const(2),
                                       step.prov)
    assert not solver.replay_certificate(system, branch)


def test_a_non_square_discriminant_needs_an_extension():
    (branch,) = solver.eliminate(_system("u^2-2"))
    assert (branch.status, branch.stuck_reason) == ("stuck", "needs-extension")
    assert branch.trace == []


def test_the_root_split_comes_before_the_factor_split_of_one_row():
    # u^2-u = u*(u-1) fits both shapes; the quadratic test comes first
    system = _system("u^2-u")
    branches = solver.eliminate(system)
    assert [b.path for b in branches] == [("u:root+",), ("u:root-",)]
    assert [_steps(b) for b in branches] == [[("root-case", "u", "1", "E0")],
                                             [("root-case", "u", "0", "E0")]]


def test_splits_sort_by_pivot_order_then_row():
    # both rows offer a split on v; the earlier row's factor split wins
    system = _system("u*v-v", "v^2-v", unknowns=("u", "v"))
    branches = solver.eliminate(system)
    assert [(b.path, b.status) for b in branches] == [
        (("v!=0", "v:root+"), "solved"), (("v!=0", "v:root-"), "infeasible"),
        (("v=0",), "solved")]
    nonzero = ("case-nonzero", "v", "-1+u", "E0")
    assert _steps(branches[1]) == [
        nonzero, ("substitute", "u", "1", "E0/v"), ("root-case", "v", "0", "E1"),
        ("side-contradiction", None, "0", "E0")]
    assert _steps(branches[2]) == [("case-zero", "v", "0", "E0")]
    for branch in branches:
        assert solver.replay_certificate(system, branch)


def test_a_parametric_discriminant_falls_through_to_the_factor_split():
    system = _system("u^2+a*u")
    nonzero, zero = solver.eliminate(system)
    assert (nonzero.path, zero.path) == (("u!=0",), ("u=0",))
    assert _steps(nonzero)[0] == ("case-nonzero", "u", "a+u", "E0")
    assert _steps(zero) == [("case-zero", "u", "0", "E0")]
    for branch in (nonzero, zero):
        assert branch.status == "solved"
        assert solver.replay_certificate(system, branch)


# every monomial of degree at most two in u, v, w, alone and times a
_MONOMIALS = [unknowns + param
              for degree in range(3)
              for unknowns in combinations_with_replacement("uvw", degree)
              for param in ((), ("a",))]


@st.composite
def _random_systems(draw):
    """1-3 equations in u, v, w over the parameter a, with small integer
    coefficients."""
    equations = []
    for i in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(st.sampled_from(_MONOMIALS),
                                     st.integers(-2, 2), min_size=1, max_size=4))
        poly = Poly.zero()
        for mono, c in terms.items():
            term = Poly.const(c)
            for name in mono:
                term = term * Poly.var(name)
            poly = poly + term
        if not poly.is_zero():
            equations.append(solver.Equation(f"E{i}", poly))
    return solver.ConstraintSystem(("u", "v", "w"), tuple(equations))


# small rationals for the free unknowns and a; coordinate i starts its scan
# i places along, so the first point tried has distinct coordinates
_POINT_VALUES = (F(2), F(-1), F(1, 2), F(3), F(0), F(1), F(-2))


def _leaf_point(branch: solver.Branch, system: solver.ConstraintSystem):
    """Every unknown and a at a point of a solved leaf: the free unknowns
    and a scan small rationals until every side condition is nonzero."""
    names = branch.free_unknowns(system) + ("a",)
    size = len(_POINT_VALUES)
    for idx in iproduct(range(size), repeat=len(names)):
        point = {name: _POINT_VALUES[(k + i) % size]
                 for i, (name, k) in enumerate(zip(names, idx))}
        if all(p.eval(point) != 0 for p, _ in branch.side):
            point.update((u, rhs.eval(point)) for u, rhs in branch.subs.items())
            return point
    return None


def _leaf_contains(branch: solver.Branch, point: dict) -> bool:
    return (all(rhs.eval(point) == point[u] for u, rhs in branch.subs.items())
            and all(p.eval(point) != 0 for p, _ in branch.side)
            and all(row.poly.eval(point) == 0 for row in branch.rows.values()))


@settings(max_examples=200, deadline=None)
@given(_random_systems())
def test_random_systems_are_solved_soundly(system):
    branches = solver.eliminate(system, max_depth=6, step_limit=200)
    leaves = [b for b in branches if b.status in ("solved", "stuck")]
    for branch in branches:
        if branch.status == "infeasible":
            assert solver.replay_certificate(system, branch)
        elif branch.status == "solved":
            par = {u: branch.subs.get(u, Poly.var(u)) for u in system.unknowns}
            for eq in system.equations:
                assert eq.poly.subs(par).is_zero(), eq.prov
            # the leaves are pairwise disjoint: a point of this one lies in
            # no other solved or stuck leaf
            point = _leaf_point(branch, system)
            assert point is not None and _leaf_contains(branch, point)
            for other in leaves:
                if other is not branch:
                    assert not _leaf_contains(other, point), other.path


# -- the shape step: kept, filtered moves -----------------------------------------


def _full_scan_moves(row, names: tuple):
    """The earlier shape step, the reference: every unknown of the row read
    through ``Poly.coefficients``, in pivot order, nothing kept."""
    p = row.poly
    factored = False
    for n in row.unknowns:
        u = names[n]
        coeffs = p.coefficients(u)
        a = coeffs.get(2)
        if a is not None and max(coeffs) == 2 and a.is_constant():
            a = a.constant_value()
            b = coeffs.get(1, Poly.zero())
            disc = b * b - coeffs.get(0, Poly.zero()) * a * 4
            if disc.is_zero():
                yield "forced", n, u, b * (Fraction(-1) / (2 * a))
                return
            if disc.is_constant():
                d = disc.constant_value()
                if is_rational_square(d):
                    r = rational_sqrt(d)
                    yield "root", n, u, tuple(
                        (b + Poly.const(-sign * r)) * (Fraction(-1) / (2 * a))
                        for sign in (1, -1))
                else:
                    yield "extension", n, u, None
        if not factored and 0 not in coeffs:
            q = sum((c * Poly.var(u) ** (e - 1) for e, c in coeffs.items()),
                    Poly.zero())
            if q.degree_in(names[m] for m in row.unknowns) <= 1:
                factored = True
                yield "factor", n, u, q


def _check_moves(patch) -> list:
    """Patch ``solver._moves`` so that every call, kept moves included,
    must return the reference's moves; returns one flag per call, true when
    the call found moves kept for its record."""
    moves = solver._moves
    calls = []

    def checked(branch, rid, row, names):
        kept = branch.moves.get(rid, (None,))[0] is row
        got = moves(branch, rid, row, names)
        # kind, pivot order, unknown and payload, in the same order
        assert got == list(_full_scan_moves(row, names))
        calls.append(kept)
        return got

    patch.setattr(solver, "_moves", checked)
    return calls


@settings(max_examples=200, deadline=None)
@given(_random_systems())
def test_kept_filtered_moves_match_the_full_scan_on_random_systems(system):
    with pytest.MonkeyPatch.context() as patch:
        _check_moves(patch)
        solver.eliminate(system, max_depth=6, step_limit=200)


@pytest.mark.parametrize("label", [label for label, _ in _SOLVER_INPUTS])
def test_kept_filtered_moves_match_the_full_scan(label, monkeypatch):
    calls = _check_moves(monkeypatch)
    solver.eliminate(solver.generate_constraints(dict(_SOLVER_INPUTS)[label]()))
    # substitutions alone refute these; every other input stalls
    assert calls or label in ("mu0_4", "mu0_5", "As2_2", "As2_4", "As2_5",
                              "As2_6", "As2_7")
    if label == "As3_3":  # most calls there return moves kept earlier
        assert sum(calls) > len(calls) // 2


def test_kept_moves_read_each_record_once_per_movable_unknown(monkeypatch):
    """On As3_3 each row's Poly is read through ``Poly.coefficients`` at
    most once per unknown, and only for an unknown squared in some term or
    dividing every term: later stalls and child branches reuse the moves."""
    reads = Counter()
    polys = []                 # keeps each Poly read alive, so ids stay unique
    coefficients = Poly.coefficients

    def counted(p, name):
        polys.append(p)
        reads[id(p), name] += 1
        holding = [dict(m).get(name, 0) for m in p.terms]
        assert 2 in holding or 0 not in holding, (format_poly(p), name)
        return coefficients(p, name)

    monkeypatch.setattr(Poly, "coefficients", counted)
    system = solver.generate_constraints(catalog.get("As3_3"))
    branches = solver.eliminate(system)
    assert len(branches) > 2 and len(reads) > 100
    assert max(reads.values()) == 1


def test_idempotent_two_dim_algebras_are_infeasible():
    for eid in ("As2_2", "As2_7"):
        result = solver.enumerate_compatible(catalog.get(eid))
        assert result.status == "no-structure", eid


def test_null_filiform_5_stretch_goal():
    result = solver.enumerate_compatible(catalog.null_filiform(5))
    assert result.status == "no-structure"
    assert all(solver.replay_certificate(result.system, b)
               for b in result.infeasible)


def test_as3_3_families_cover_both_raw_cases():
    result = solver.enumerate_compatible(catalog.get("As3_3"))
    assert result.status == "families" and len(result.families) == 2
    by_params = sorted(result.families, key=lambda f: len(f.params))
    narrow, wide = by_params
    # the two-parameter family puts a nonzero multiple of e2 into e1>e1
    assert len(narrow.params) == 2 and narrow.side
    assert narrow.rhd.c[0][0][1] == Poly.var(narrow.params[0])
    # the four-parameter family keeps every product inside span{e3}
    assert len(wide.params) == 4 and not wide.side
    for (i, j, k), _ in wide.rhd.entries():
        assert k == 2


def test_as3_1_names_the_consequence_cap():
    result = solver.enumerate_compatible(catalog.get("As3_1"))
    assert result.status == "inconclusive"
    (fam,) = result.constrained
    assert len(fam.residual) > solver.CONSEQUENCE_CAP
    assert fam.branch.stuck_reason == "consequence-cap"


def test_a_zero_step_budget_leaves_the_root_stuck():
    system = solver.generate_constraints(catalog.get("As2_1"))
    (branch,) = solver.eliminate(system, step_limit=0)
    assert (branch.status, branch.stuck_reason) == ("stuck", "step-budget")
    assert branch.path == () and branch.trace == []


def _output_digests(result) -> tuple:
    """sha256 of every branch certificate and of every family's tensors,
    side conditions and residual equations, as canonical JSON."""
    fams = result.families + result.constrained
    branches = [f.branch for f in fams] + list(result.infeasible)
    certs = json.dumps([b.certificate() for b in branches], sort_keys=True)
    tensors = json.dumps(
        [[f.params, [[ijk, format_poly(p)] for ijk, p in f.rhd.entries()],
          [[ijk, format_poly(p)] for ijk, p in f.lhd.entries()],
          [format_poly(p) for p in f.side],
          [[e.prov, format_poly(e.poly)] for e in f.residual]] for f in fams],
        sort_keys=True)
    return (hashlib.sha256(certs.encode()).hexdigest(),
            hashlib.sha256(tensors.encode()).hexdigest())


# Recorded with the full-rewrite elimination loop, which rewrote and
# re-canonicalised every equation at every step; the incremental loop must
# reproduce its traces and families byte for byte.
PINNED_OUTPUTS = {
    "mu0_3": (lambda: catalog.null_filiform(3),
              "ef41e43db7be88cd21e3b343737baa8e25f264b069460714a093b77d11f1e9ed",
              "58fda45d8095aeb562e87dd12494de4743b25a218e252e5fac0a8cbb2b23c92b"),
    "mu0_4": (lambda: catalog.null_filiform(4),
              "4f82ce616899376fb5fcdb1551ffc57af4f8bc7c4fb3bdd24d1f26ec84f80cb4",
              "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    # Recorded before the one-pass substitution step; the heaviest system
    # the benchmark refutes.
    "mu0_5": (lambda: catalog.null_filiform(5),
              "af4bee8b37a7faa6f126c736890ff442491b6e1ce97965fe06a2411fb2e4feb8",
              "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "As3_3": (lambda: catalog.get("As3_3"),
              "384f9afc21860e5a4d191f57318265f2c04ff6180323a4ea2ee7d5484682a2d3",
              "1502f58b7707346520a191129b5a29522ab05f86c3cbf8eabe4afb723359f669"),
    "As3_5_l2": (lambda: catalog.get("As3_5", {"l": F(2)}),
                 "d0f2e3113b32e6eccc99320ef54bde0b80be38b6e863536034f04c95f7f564fb",
                 "89207e4fc5ff7a2b639d73032b434f2b790397e5504ab0b43c8aba11f3887719"),
    # Recorded with the dense consequence step, before its rows became
    # sparse; As3_2, As3_4 and As3_5 (symbolic l) carry combine lineages.
    "As2_1": (lambda: catalog.get("As2_1"),
              "e796b8bfaa5e1afea6617794a7d45975be9888f69e06dd06d1fe37ca199f349d",
              "31ddfe081df34e810cde243cb47a64834b9d6ca7b64704aad133b8986e535dc7"),
    "As2_2": (lambda: catalog.get("As2_2"),
              "06ca801884b78af49a81990de16565fea4419075302ca59757aefeb112fc9142",
              "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "As2_3": (lambda: catalog.get("As2_3"),
              "3ded45df09a0179a455b43ec3138132032b39d7bfdbf53954573d74f9a80d327",
              "e9333ec99a85ec92ddbac9980d2ccc2765f470ed5be1fc1509154816d488fba3"),
    "As2_4": (lambda: catalog.get("As2_4"),
              "06ca801884b78af49a81990de16565fea4419075302ca59757aefeb112fc9142",
              "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "As2_5": (lambda: catalog.get("As2_5"),
              "06ca801884b78af49a81990de16565fea4419075302ca59757aefeb112fc9142",
              "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "As2_6": (lambda: catalog.get("As2_6"),
              "06ca801884b78af49a81990de16565fea4419075302ca59757aefeb112fc9142",
              "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "As2_7": (lambda: catalog.get("As2_7"),
              "06ca801884b78af49a81990de16565fea4419075302ca59757aefeb112fc9142",
              "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "As3_1": (lambda: catalog.get("As3_1"),
              "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
              "f72741ba02c087720eea6468f2655b207fe4f4806c78a9ae32989732c722226a"),
    "As3_2": (lambda: catalog.get("As3_2"),
              "2e411ea5a56505bd266c70c1b4ae6c99b65d4fc67dcefb3629839b7ac25c0610",
              "aa3f1af290c67a939aa875419302df89fb4434ba63e53142a8111f88a11ebeac"),
    "As3_4": (lambda: catalog.get("As3_4"),
              "848e2cc3a4ac5a94393578124c0eb8da152da143f04bf9a030ada168d78658a6",
              "f2af665c2b96492fd9b616b21b4ad56f82439188bd78970f81ab80d0a9096cdf"),
    "As3_5": (lambda: catalog.get("As3_5"),
              "96908b07f20eeb809779228344638d4cc88b570e1e776e168b45a3f3c6eb08ea",
              "b727020c86f6f094e94efee72f059bddefaeee6f64cfa0b880d2d60e19540c11"),
    "As3_6": (lambda: catalog.get("As3_6"),
              "ef41e43db7be88cd21e3b343737baa8e25f264b069460714a093b77d11f1e9ed",
              "58fda45d8095aeb562e87dd12494de4743b25a218e252e5fac0a8cbb2b23c92b"),
}


@pytest.mark.parametrize("label", sorted(PINNED_OUTPUTS))
def test_certificates_and_families_are_pinned(label):
    build, certs, tensors = PINNED_OUTPUTS[label]
    assert _output_digests(solver.enumerate_compatible(build())) == \
        (certs, tensors)


# -- sampling --------------------------------------------------------------------


def test_samples_of_the_null_filiform_family_hit_both_registry_algebras():
    result = solver.enumerate_compatible(catalog.null_filiform(3))
    (fam,) = result.families
    p = fam.params[0]
    at0 = solver.sample_branch(fam, {p: F(0)})
    ad1 = catalog.get("AD3_1")
    assert at0.rhd == ad1.rhd and at0.lhd == ad1.lhd
    at1 = solver.sample_branch(fam, {p: F(1)})
    ad2 = catalog.get("AD3_2")
    assert at1.rhd == ad2.rhd and at1.lhd == ad2.lhd


def test_sample_of_abelian_branch_matches_two_dim_table():
    result = solver.enumerate_compatible(catalog.get("As2_1"))
    # pick the family able to represent e1>e1 = e2 with everything else zero
    target_rhd = StructureConstants.from_table(2, {(1, 1, 2): "1"})
    found = None
    for fam in list(result.families) + list(result.constrained):
        names = set(fam.params)
        want = {}
        ok = True
        for (i, j, k), poly in fam.rhd.entries():
            if poly.variables() <= names and len(poly.variables()) == 1:
                (v,) = poly.variables()
                value = F(1) if (i, j, k) == (0, 0, 1) else F(0)
                coeff = poly.terms[((v, 1),)] if ((v, 1),) in poly.terms else None
                if coeff is None:
                    ok = False
                    break
                want.setdefault(v, value / coeff)
        if not ok:
            continue
        assign = {p: want.get(p, F(0)) for p in fam.params}
        try:
            sample = solver.sample_branch(fam, assign)
        except (SideConditionViolation, ConstraintViolation):
            continue
        if sample.rhd == target_rhd:
            found = sample
            break
    assert found is not None
    # this is the two-dimensional family at parameter -1: (R, -R)
    ad23 = catalog.get("AD2_3", {"l": F(-1)})
    assert found.rhd == ad23.rhd and found.lhd == ad23.lhd


def test_sample_checks_side_conditions_and_residuals():
    result = solver.enumerate_compatible(catalog.get("As3_3"))
    sided = [f for f in result.families if f.side]
    assert sided
    fam = sided[0]
    zeroes = {p: F(0) for p in fam.params}
    with pytest.raises(SideConditionViolation):
        solver.sample_branch(fam, zeroes)
    with pytest.raises(MissingAssignment):
        solver.sample_branch(fam, {})


def test_round_trip_samples_pass_the_checker(rng):
    sources = [catalog.null_filiform(3), catalog.get("As2_3"),
               catalog.get("As3_3"), catalog.get("As3_4")]
    for alg in sources:
        result = solver.enumerate_compatible(alg)
        for fam in result.families:
            produced = 0
            attempts = 0
            while produced < 5 and attempts < 60:
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


def test_substitutions_reproduce_the_original_system_on_solved_branches():
    # the branch parametrisation (free unknowns kept, substituted ones
    # expanded) must annihilate every original equation
    for alg in (catalog.null_filiform(3), catalog.get("As2_3")):
        result = solver.enumerate_compatible(alg)
        for fam in result.families:
            branch = fam.branch
            par = {u: branch.subs.get(u, Poly.var(u))
                   for u in result.system.unknowns}
            for eq in result.system.equations:
                assert eq.poly.subs(par).is_zero(), eq.prov


def test_sum_of_sampled_solver_outputs_is_associative(rng):
    # two hundred samples drawn across the solved families
    from adkit.algebra import is_associative, sum_algebra
    fams = []
    for alg in (catalog.null_filiform(3), catalog.get("As2_3"),
                catalog.get("As3_4")):
        fams.extend(solver.enumerate_compatible(alg).families)
    produced = 0
    while produced < 200:
        fam = fams[produced % len(fams)]
        assign = {p: F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                  for p in fam.params}
        try:
            sample = solver.sample_branch(fam, assign)
        except (SideConditionViolation, ConstraintViolation):
            continue
        produced += 1
        assert is_associative(sum_algebra(sample)).ok


# -- grid conservation oracle -------------------------------------------------------


def _coordinate_residuals(s2, r2, l2, n, i, j, k, m):
    """Direct evaluation of the seven laws at coordinate m of the basis
    triple (i, j, k), on doubled integer tensors with l2 = s2 - r2.

    Returns the seven residual integers; the caller checks that all vanish.
    This is written straight from the law definitions as an oracle
    independent of both the symbolic checker and the solver.  The cells of
    r it reads are those of ``_cells_read``.
    """
    def comp(first, second, assoc_left):
        # assoc_left: (e_i first e_j) second e_k; else e_i second (e_j first e_k)
        total = 0
        for t in range(n):
            if assoc_left:
                total += first[i][j][t] * second[t][k][m]
            else:
                total += first[j][k][t] * second[i][t][m]
        return total

    rr = comp(r2, r2, False)       # x>(y>z)
    sl_r = comp(s2, r2, True)      # (x.y)>z
    s_lr = comp(s2, l2, False)     # x<(y.z)
    ll = comp(l2, l2, True)        # (x<y)<z
    rl = comp(r2, l2, True)        # (x>y)<z
    lr = comp(l2, r2, False)       # x>(y<z)
    return (rl - lr,               # id1
            rr + sl_r,             # id2
            rr + s_lr,             # id3
            rr - ll,               # id4
            sl_r - s_lr,           # id5
            sl_r + ll,             # id6
            s_lr + ll)             # id7


def _cells_read(n, i, j, k, m) -> set:
    """The cells of r (and l) that ``comp`` reads at coordinate (i, j, k, m):
    [i][j][t] and [t][k][m] when associating left, [j][k][t] and [i][t][m]
    when associating right."""
    return {cell for t in range(n)
            for cell in ((i, j, t), (t, k, m), (j, k, t), (i, t, m))}


def _brute_force_solutions(alg: UnaryAlgebra):
    """All grid tensors for the first operation satisfying every law, in the
    order of the product over the cells.

    The cells are fixed depth-first, and the laws at a coordinate are
    evaluated as soon as every cell they read is fixed, so a partial
    assignment that breaks one is not extended.
    """
    n = alg.dim
    s2 = [[[int(2 * alg.sc.c[i][j][k].constant_value()) for k in range(n)]
           for j in range(n)] for i in range(n)]
    cells = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    position = {cell: p for p, cell in enumerate(cells)}
    due = [[] for _ in cells]  # the coordinates whose last cell read is p
    for coord in iproduct(range(n), repeat=4):
        due[max(position[c] for c in _cells_read(n, *coord))].append(coord)
    r2 = [[[0] * n for _ in range(n)] for _ in range(n)]
    l2 = [[[0] * n for _ in range(n)] for _ in range(n)]
    values = [0] * len(cells)
    solutions = []

    def extend(p):
        if p == len(cells):
            solutions.append(tuple(values))
            return
        i, j, k = cells[p]
        for v in (-2, -1, 0, 1, 2):
            values[p] = r2[i][j][k] = v
            l2[i][j][k] = s2[i][j][k] - v
            if not any(any(_coordinate_residuals(s2, r2, l2, n, *coord))
                       for coord in due[p]):
                extend(p + 1)

    extend(0)
    return cells, solutions


def _claimed_grid_points(fam: solver.Family, cells):
    """Grid points inside the family's solution set.

    Each family parameter literally is the value of its own free tensor
    cell (free unknowns are renamed with coefficient one), so running the
    parameters over the grid exhausts every grid point of the set.
    """
    claimed = set()
    for combo in iproduct(GRID, repeat=len(fam.params)):
        assign = dict(zip(fam.params, combo))
        try:
            sample = solver.sample_branch(fam, assign)
        except (SideConditionViolation, ConstraintViolation):
            continue
        values = []
        on_grid = True
        for (i, j, k) in cells:
            v = sample.rhd.c[i][j][k].constant_value()
            if v not in GRID:
                on_grid = False
                break
            values.append(int(2 * v))
        if on_grid:
            claimed.add(tuple(values))
    return claimed


def _check_grid_conservation(alg: UnaryAlgebra):
    cells, solutions = _brute_force_solutions(alg)
    result = solver.enumerate_compatible(alg)
    fams = list(result.families) + list(result.constrained)
    # the families partition the solution set, so no grid point is claimed
    # twice and together they claim every solution
    claimed = [_claimed_grid_points(fam, cells) for fam in fams]
    union = set().union(*claimed)
    assert sum(map(len, claimed)) == len(union)
    assert union == set(solutions)


@pytest.mark.parametrize("eid", [f"As2_{i}" for i in range(1, 8)])
def test_grid_conservation_dim2(eid):
    _check_grid_conservation(catalog.get(eid))


def test_grid_conservation_dim1():
    for table in ({}, {(1, 1, 1): "1"}):
        _check_grid_conservation(
            UnaryAlgebra(StructureConstants.from_table(1, table)))
