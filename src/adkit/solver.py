"""Compatibility solver: which two-operation structures sum to a given
associative algebra?

The unknowns are the n^3 coefficients u{i}_{j}_{k} of the first operation on
basis pairs; the second operation is eliminated up front through the sum
constraint (lhd = mul - rhd), so the seven defining identities expand to
polynomial equations of total degree at most two in the unknowns.  Those from
the mixed-associator law (id5) are linear, which the generator asserts.

The elimination reads a ``ConstraintSystem``: named unknowns plus equations,
nothing about the base algebra, so any producer of polynomial equations may
build one; names that are not unknowns are treated as parameters.

Elimination loop, per branch:

1. canonicalise (drop zeros, deduplicate up to scaling, keeping the first
   occurrence);
2. substitute away unknowns that occur linearly with a constant
   coefficient, preferring equations with the fewest unknowns, then the
   lowest pivot in unknown order, then the earliest equation;
3. when substitutions stall, row-reduce the equations over their monomials
   to surface linear or constant consequences of rational combinations
   (each extracted row records its lineage so certificates replay); the
   rows are sparse, one dict per equation, and go straight to the linalg
   elimination loop; above ``CONSEQUENCE_CAP`` equations this step is
   skipped;
4. split on a quadratic: a factor shape (unknown)*(linear) = 0, or a
   single-unknown quadratic a*u^2 + b*u + c resolved through its
   discriminant (zero forces the double root, a constant square splits on
   the two polynomial roots);
5. a branch dies when an equation reduces to a nonzero rational constant,
   or a recorded side condition reduces to zero -- either way the branch
   carries a replayable trace ending in the contradiction;
6. branches that exceed the split budget, or whose remaining equations fit
   no supported shape, stay honestly "stuck", with the reason named:
   "split-budget", "step-budget", "needs-extension" (see below),
   "consequence-cap" (step 3 was skipped) or "nonlinear".

Each branch keeps its equations as rows with their unknowns and
linear-pivot candidate, computed when the row is written, and their
canonical key, computed when the row is canonicalised; an index maps each
unknown to the rows containing it.  A substitution rewrites only
the rows, substitutions and side conditions that contain its unknown, and
steps 1 and 5 look only at the rows written since the last pass; rows keep
their place in the list, so every tie-break above and the contradiction
reported are those of a full pass over the list.  Certificate replay keeps
the substitutions in trace order and brings an equation up to date only
when a step reads it.

The union of the surviving branches' solution sets (side conditions
included), together with the stuck branches, equals the original solution
set: substitutions and row combinations are invertible rewrites, and both
split shapes partition the solution set exactly.  A quadratic whose
discriminant is a nonzero non-square rational leaves the branch
"stuck: needs-extension" rather than infeasible, because the root exists
over the complex field even though no rational represents it.

Branches are independent after splitting (pure data), so they could be
processed concurrently; results are sorted by case path before reporting,
making the output order-independent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import linalg
from .algebra import (AdPair, IDENTITY_NAMES, StructureConstants, UnaryAlgebra,
                      _identity_residual, _triple_products, check_antidendriform,
                      is_associative)
from .errors import (ConstraintViolation, MissingAssignment, NotAssociative,
                     SideConditionViolation)
from .scalars import (Poly, format_poly, is_rational_square, rational_sqrt)


def unknown_name(i: int, j: int, k: int) -> str:
    """Variable name for the e_k coefficient of e_i rhd e_j (1-based)."""
    return f"u{i}_{j}_{k}"


@dataclass(frozen=True)
class Equation:
    prov: str
    poly: Poly


@dataclass(frozen=True)
class ConstraintSystem:
    """Polynomial equations in named unknowns; other names are parameters.

    ``eliminate`` and ``replay_certificate`` read only these two fields, so
    any producer of equations may build one; ``generate_constraints`` is the
    producer for the compatibility problem.
    """
    unknowns: tuple            # names, in pivot order
    equations: tuple           # Equations, each with a distinct prov

    def unknown_order(self, name: str) -> int:
        return self._index[name]

    def __post_init__(self):
        object.__setattr__(self, "_index",
                           {u: n for n, u in enumerate(self.unknowns)})
        object.__setattr__(self, "unknown_set", frozenset(self.unknowns))


def generate_constraints(assoc: UnaryAlgebra) -> ConstraintSystem:
    """Expand the seven identities over all basis triples into equations.

    The input must be associative (symbolically, in any parameters); the
    equations are deduplicated up to scaling, keeping the provenance of the
    first occurrence.
    """
    rep = is_associative(assoc)
    if not rep.ok:
        bad = ", ".join(str(tuple(x + 1 for x in t)) for t, _ in rep.violations[:3])
        raise NotAssociative(f"input is not associative (triples {bad})")
    n = assoc.dim
    names = tuple(unknown_name(i, j, k)
                  for i in range(1, n + 1) for j in range(1, n + 1)
                  for k in range(1, n + 1))
    name_set = frozenset(names)
    r_sym = StructureConstants(
        n, [[[Poly.var(unknown_name(i + 1, j + 1, k + 1)) for k in range(n)]
             for j in range(n)] for i in range(n)])
    l_sym = assoc.sc.add(r_sym.neg())
    s_sym = assoc.sc
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    prods = [_triple_products(r_sym, l_sym, s_sym, *t) for t in triples]
    seen: dict = {}
    equations = []
    for ident in IDENTITY_NAMES:
        for (i, j, k), pr in zip(triples, prods):
            res = _identity_residual(ident, pr)
            for m in range(n):
                p = res[m]
                if p.is_zero():
                    continue
                if ident == "id5" and p.degree_in(name_set) > 1:
                    raise AssertionError("mixed-associator equation is not linear")
                key = p.normalized_key()
                if key in seen:
                    continue
                prov = f"{ident}@({i + 1},{j + 1},{k + 1})#{m + 1}"
                seen[key] = prov
                equations.append(Equation(prov, p))
    return ConstraintSystem(names, tuple(equations))


@dataclass(frozen=True)
class TraceStep:
    kind: str                  # substitute | case-zero | case-nonzero |
                               # root-case | combine | equation-contradiction |
                               # side-contradiction
    var: str | None
    poly: Poly | None          # rhs, quotient, combination, or contradiction
    prov: str | None
    lineage: tuple = ()        # ((prov, coeff), ...) for combine steps


class _Row(NamedTuple):
    """A residual equation with the data the elimination loop reads from it.

    Everything but ``key`` is computed when the equation is written;
    ``key`` is set when the row survives canonicalisation.
    """
    eq: Equation
    unknowns: tuple            # unknowns occurring in eq.poly, in order
    pivot: tuple | None        # (unknown count, pivot order, var)
    key: tuple | None = None   # normalized_key, once canonicalised


@dataclass
class Branch:
    """A partial solution: substitutions, residual equations, side conditions.

    Residual equations are rows keyed by id.  Ids only grow and a rewrite
    keeps its row's id, so id order is list order.  ``uses`` maps each
    unknown to the ids of the rows that contained it when written; readers
    skip ids whose row has since been dropped or lost the unknown.  ``keys``
    maps each canonical key to its row, and ``fresh`` holds the ids written
    since the last canonicalisation; ``side_fresh`` flags a changed side
    condition.
    """
    subs: dict = field(default_factory=dict)        # var -> Poly, fully reduced
    sub_order: list = field(default_factory=list)
    rows: dict = field(default_factory=dict)        # id -> _Row, in list order
    uses: dict = field(default_factory=dict)        # unknown -> [row id]
    keys: dict = field(default_factory=dict)        # normalized_key -> row id
    fresh: set = field(default_factory=set)
    side: list = field(default_factory=list)        # [(Poly, origin prov)]
    side_fresh: bool = False
    trace: list = field(default_factory=list)       # [TraceStep]
    path: tuple = ()
    depth: int = 0
    status: str = "open"       # open | solved | infeasible | stuck
    stuck_reason: str = ""
    derived: int = 0           # counter for combination-derived equations
    next_row: int = 0

    @property
    def equations(self) -> list:
        """The residual equations, in list order."""
        return [row.eq for row in self.rows.values()]

    def clone(self) -> "Branch":
        return replace(self, subs=dict(self.subs),
                       sub_order=list(self.sub_order), rows=dict(self.rows),
                       uses={u: list(ids) for u, ids in self.uses.items()},
                       keys=dict(self.keys), fresh=set(self.fresh),
                       side=list(self.side), trace=list(self.trace))

    def free_unknowns(self, system: ConstraintSystem) -> tuple:
        return tuple(u for u in system.unknowns if u not in self.subs)

    def certificate(self) -> tuple:
        """Serialisable replayable record of this branch's derivation."""
        out = []
        for s in self.trace:
            record = {"kind": s.kind, "var": s.var,
                      "value": None if s.poly is None else format_poly(s.poly),
                      "prov": s.prov}
            if s.lineage:
                record["lineage"] = [[p, str(c)] for p, c in s.lineage]
            out.append(record)
        return tuple(out)


def _pivot(p: Poly, unknowns: tuple, order):
    """(unknown count, pivot order, var) for the lowest unknown ``var`` with
    p = a*var + rest, ``a`` a nonzero rational and ``rest`` free of ``var``;
    None unless p has degree one in the unknowns."""
    if not unknowns:
        return None
    occurrences = Counter()
    for m in p.terms:
        degree = 0
        for name, e in m:
            if name in unknowns:
                degree += e
                occurrences[name] += 1
        if degree > 1:
            return None
    for var in unknowns:
        if occurrences[var] == 1 and ((var, 1),) in p.terms:
            return (len(unknowns), order(var), var)
    return None


def _write_row(branch: Branch, system: ConstraintSystem, rid: int | None,
               eq: Equation):
    """Store ``eq`` as row ``rid`` (a new last row when None), re-index its
    unknowns and queue it for canonicalisation."""
    if rid is None:
        rid = branch.next_row
        branch.next_row += 1
    old = branch.rows.get(rid)
    before = () if old is None else old.unknowns
    if old is not None and old.key is not None:
        del branch.keys[old.key]
    order = system.unknown_order
    unknowns = tuple(sorted(eq.poly.variables() & system.unknown_set,
                            key=order))
    for u in unknowns:
        if u not in before:
            branch.uses.setdefault(u, []).append(rid)
    branch.rows[rid] = _Row(eq, unknowns, _pivot(eq.poly, unknowns, order))
    branch.fresh.add(rid)


def _drop_row(branch: Branch, rid: int):
    row = branch.rows.pop(rid)
    if row.key is not None:
        del branch.keys[row.key]


def _apply_substitution(branch: Branch, system: ConstraintSystem, var: str,
                        rhs: Poly, kind: str, prov: str):
    """Substitute ``rhs`` for ``var`` in the rows, substitutions and side
    conditions that contain ``var``; nothing else is rewritten."""
    mapping = {var: rhs}
    for v, p in branch.subs.items():
        if var in p.variables():
            branch.subs[v] = p.subs(mapping)
    branch.subs[var] = rhs
    branch.sub_order.append(var)
    for rid in sorted(set(branch.uses.pop(var, ()))):
        row = branch.rows.get(rid)
        if row is None or var not in row.unknowns:
            continue
        eq = row.eq
        _write_row(branch, system, rid,
                   Equation(eq.prov, eq.poly.subs(mapping)))
    for i, (p, origin) in enumerate(branch.side):
        if var in p.variables():
            branch.side[i] = (p.subs(mapping), origin)
            branch.side_fresh = True
    branch.trace.append(TraceStep(kind, var, rhs, prov))


def _linear_candidate(branch: Branch):
    """(var, rhs, prov) of the best linear pivot: fewest unknowns, then the
    lowest pivot order, then the earliest equation; None if there is none."""
    best = min(((row.pivot[0], row.pivot[1], rid)
                for rid, row in branch.rows.items() if row.pivot),
               default=None)
    if best is None:
        return None
    row = branch.rows[best[2]]
    var = row.pivot[2]
    a, b = row.eq.poly.linear_parts(var)
    return var, b * (Fraction(-1) / a.constant_value()), row.eq.prov


def _quadratic_shapes(p: Poly, unknowns: tuple):
    """Views of p as a*u^2 + b*u + c with a a nonzero rational constant.

    Yields (u, a, b, disc) in the order of ``unknowns``, the unknowns of p
    in pivot order; the discriminant decides the move: disc = 0 forces
    u := -b/2a exactly (p = a*(u + b/2a)^2), a nonzero constant square
    disc = r^2 factors p = a*(u - r1)*(u - r2) with polynomial roots, and a
    constant non-square disc has no root in the rationals even though one
    exists over the complex field.
    """
    for u in unknowns:
        a_terms: dict = {}
        b_terms: dict = {}
        c_terms: dict = {}
        ok = True
        for mono, coeff in p.terms.items():
            exps = dict(mono)
            e = exps.pop(u, 0)
            stripped = tuple(sorted(exps.items()))
            if e == 0:
                c_terms[stripped] = coeff
            elif e == 1:
                b_terms[stripped] = coeff
            elif e == 2:
                a_terms[stripped] = coeff
            else:
                ok = False
                break
        if not ok or not a_terms:
            continue
        a = Poly(a_terms, _trusted=True)
        if not a.is_constant():
            continue
        b = Poly(b_terms, _trusted=True)
        c = Poly(c_terms, _trusted=True)
        disc = b * b - a * c * 4
        yield u, a.constant_value(), b, disc


def _factor_shape(p: Poly, unknowns: tuple):
    """Match u * (linear) = 0; returns (u, quotient) with the first such u
    in ``unknowns``, the unknowns of p in pivot order."""
    for var in unknowns:
        q = p.divide_by_var(var)
        if q is not None and not q.is_zero():
            if q.degree_in(unknowns) <= 1:
                return var, q
    return None


def _linear_consequences(branch: Branch, unknown_set: frozenset) -> list:
    """Linear or constant equations hiding in the rational span of the
    current ones.

    The equations are viewed as vectors over their monomials, with the
    monomials that are quadratic in unknowns eliminated first; reduced rows
    whose leading monomial falls outside that block are degree <= 1
    consequences.  Row operations preserve the solution set, and each
    extracted row records its lineage (the rational combination of source
    equations) so certificates replay mechanically.
    """
    eqs = branch.equations
    if len(eqs) < 2:
        return []

    def udeg(mono):
        return sum(e for name, e in mono if name in unknown_set)

    monos = sorted({m for eq in eqs for m in eq.poly.terms},
                   key=lambda m: (-udeg(m), m))
    quadratic = sum(1 for m in monos if udeg(m) > 1)
    if not quadratic:
        return []
    col = {m: i for i, m in enumerate(monos)}
    width = len(monos)
    aug = []
    for i, eq in enumerate(eqs):
        row = {col[m]: c for m, c in eq.poly.terms.items()}
        row[width + i] = Fraction(1)
        aug.append(row)
    reduced, pivots = linalg.rref_sparse(aug, width)
    existing = set(branch.keys)
    out = []
    for row, pivot in zip(reduced, pivots):
        if pivot < quadratic:
            continue
        entries = sorted(row.items())
        poly = Poly({monos[j]: c for j, c in entries if j < width})
        key = poly.normalized_key()
        if key in existing:
            continue
        existing.add(key)
        lineage = tuple((eqs[j - width].prov, c) for j, c in entries if j >= width)
        out.append((poly, lineage))
    return out


def _canonicalise(branch: Branch) -> list:
    """Drop zero rows and rows that repeat an earlier row up to scaling,
    looking only at the fresh rows; returns the fresh rows kept, in order.

    Keys were distinct before, so keeping the lowest id of each key is the
    first-occurrence rule of a full pass over the list.
    """
    kept = []
    for rid in sorted(branch.fresh):
        row = branch.rows[rid]
        if row.eq.poly.is_zero():
            _drop_row(branch, rid)
            continue
        key = row.eq.poly.normalized_key()
        other = branch.keys.setdefault(key, rid)
        if other < rid:
            _drop_row(branch, rid)
            continue
        if other > rid:
            _drop_row(branch, other)
            branch.keys[key] = rid
        branch.rows[rid] = row._replace(key=key)
        kept.append(rid)
    branch.fresh = set()
    if branch.side_fresh:
        seen_sides = set()
        sides = []
        for p, origin in branch.side:
            key = p.normalized_key()
            if key in seen_sides:
                continue
            seen_sides.add(key)
            sides.append((p, origin))
        branch.side = sides
    return kept


def _scan_contradiction(branch: Branch, fresh: list) -> bool:
    """Report the first constant equation, else the first zero side condition.

    Only rewritten or new rows can have become constant: an older constant
    row would have ended the branch already.
    """
    for rid in fresh:
        eq = branch.rows[rid].eq
        if eq.poly.is_constant():
            branch.trace.append(TraceStep("equation-contradiction", None,
                                          eq.poly, eq.prov))
            branch.status = "infeasible"
            return True
    if not branch.side_fresh:
        return False
    branch.side_fresh = False
    kept_sides = []
    for p, origin in branch.side:
        if p.is_zero():
            branch.trace.append(TraceStep("side-contradiction", None, p, origin))
            branch.status = "infeasible"
            return True
        if p.is_constant():
            continue  # satisfied forever
        kept_sides.append((p, origin))
    branch.side = kept_sides
    return False


#: Above this many residual equations the consequence step is skipped, and
#: a branch that then fits no other move is stuck with "consequence-cap".
CONSEQUENCE_CAP = 200


def eliminate(system: ConstraintSystem, max_depth: int = 32,
              step_limit: int = 100_000) -> list:
    """Explore the case tree; returns terminal branches sorted by case path.

    ``max_depth`` bounds the number of splits along any root-to-leaf path;
    branches that would exceed it are marked stuck instead of split.
    """
    order = system.unknown_order
    root = Branch()
    for eq in system.equations:
        _write_row(root, system, None, eq)
    queue = [root]
    done = []
    while queue:
        branch = queue.pop()
        steps = 0
        while branch.status == "open":
            steps += 1
            if steps > step_limit:
                branch.status = "stuck"
                branch.stuck_reason = "step-budget"
                break
            fresh = _canonicalise(branch)
            if _scan_contradiction(branch, fresh):
                break
            if not branch.rows:
                branch.status = "solved"
                break
            cand = _linear_candidate(branch)
            if cand is not None:
                var, rhs, prov = cand
                _apply_substitution(branch, system, var, rhs, "substitute",
                                    prov)
                continue
            capped = len(branch.rows) > CONSEQUENCE_CAP
            consequences = ([] if capped
                            else _linear_consequences(branch, system.unknown_set))
            if consequences:
                for poly, lineage in consequences:
                    branch.derived += 1
                    prov = f"lin{branch.derived}"
                    _write_row(branch, system, None, Equation(prov, poly))
                    branch.trace.append(
                        TraceStep("combine", None, poly, prov, lineage))
                continue
            # quadratics in one unknown: a forced root needs no split
            forced = None
            splits = []
            needs_extension = False
            for rid, row in branch.rows.items():
                eq = row.eq
                for var, a, b, disc in _quadratic_shapes(eq.poly,
                                                         row.unknowns):
                    if disc.is_zero():
                        forced = (var, b * (Fraction(-1) / (2 * a)), eq.prov)
                        break
                    if disc.is_constant():
                        d = disc.constant_value()
                        if is_rational_square(d):
                            splits.append((order(var), rid,
                                           "root", var, (a, b, rational_sqrt(d)),
                                           eq.prov))
                        else:
                            needs_extension = True
                if forced is not None:
                    break
                fac = _factor_shape(eq.poly, row.unknowns)
                if fac is not None:
                    var, quotient = fac
                    splits.append((order(var), rid,
                                   "factor", var, quotient, eq.prov))
            if forced is not None:
                var, rhs, prov = forced
                _apply_substitution(branch, system, var, rhs, "substitute",
                                    prov)
                continue
            if splits:
                if branch.depth + 1 > max_depth:
                    branch.status = "stuck"
                    branch.stuck_reason = "split-budget"
                    break
                splits.sort(key=lambda s: (s[0], s[1]))
                _, rid, kind, var, payload, prov = splits[0]
                if kind == "root":
                    a, b, root = payload
                    for sign in (1, -1):
                        rhs = (b + Poly.const(-sign * root)) * \
                            (Fraction(-1) / (2 * a))
                        child = branch.clone()
                        child.depth += 1
                        child.path = branch.path + (f"{var}:root{'+' if sign > 0 else '-'}",)
                        _apply_substitution(child, system, var, rhs,
                                            "root-case", prov)
                        queue.append(child)
                else:
                    zero = branch.clone()
                    zero.depth += 1
                    zero.path = branch.path + (f"{var}=0",)
                    _apply_substitution(zero, system, var, Poly.zero(),
                                        "case-zero", prov)
                    nonzero = branch.clone()
                    nonzero.depth += 1
                    nonzero.path = branch.path + (f"{var}!=0",)
                    nonzero.side.append((Poly.var(var), prov))
                    nonzero.side_fresh = True
                    _write_row(nonzero, system, rid,
                               Equation(f"{prov}/{var}", payload))
                    nonzero.trace.append(
                        TraceStep("case-nonzero", var, payload, prov))
                    queue.append(nonzero)
                    queue.append(zero)
                branch.status = "split"
                break
            branch.status = "stuck"
            branch.stuck_reason = ("needs-extension" if needs_extension
                                   else "consequence-cap" if capped
                                   else "nonlinear")
        if branch.status != "split":
            done.append(branch)
    done.sort(key=lambda b: b.path)
    return done


def replay_certificate(system: ConstraintSystem, branch: Branch) -> bool:
    """Mechanically re-run a branch's trace against the original system.

    Each substitution must annihilate its source equation, each nonzero-case
    quotient must multiply back exactly, and the final step must exhibit the
    recorded contradiction.  Returns True when every step checks out.

    Substitutions are kept in trace order, and an equation or side
    condition is brought up to date only when a step reads it: it then
    receives the same substitutions in the same order as an eager rewrite.
    """
    done: list = []            # substitution mappings so far, in trace order
    # prov -> (poly, number of substitutions already applied)
    eqs = {e.prov: (e.poly, 0) for e in system.equations}
    sides: list = []           # [(Poly, substitutions applied, origin)]

    def catch_up(p: Poly, applied: int) -> Poly:
        for mapping in done[applied:]:
            p = p.subs(mapping)
        return p

    def current(prov: str):
        entry = eqs.get(prov)
        if entry is None:
            return None
        p = catch_up(*entry)
        eqs[prov] = (p, len(done))
        return p

    for step in branch.trace:
        if step.kind in ("substitute", "case-zero", "root-case"):
            src = current(step.prov)
            if src is None or not src.subs({step.var: step.poly}).is_zero():
                return False
            done.append({step.var: step.poly})
        elif step.kind == "case-nonzero":
            src = current(step.prov)
            if src is None or src != step.poly * Poly.var(step.var):
                return False
            eqs[f"{step.prov}/{step.var}"] = (step.poly, len(done))
            sides.append((Poly.var(step.var), len(done), step.prov))
        elif step.kind == "combine":
            total = Poly.zero()
            for prov, coeff in step.lineage:
                src = current(prov)
                if src is None:
                    return False
                total = total + src * coeff
            if total != step.poly:
                return False
            eqs[step.prov] = (step.poly, len(done))
        elif step.kind == "equation-contradiction":
            p = current(step.prov)
            if p is None or not p.is_constant() or p.is_zero() or p != step.poly:
                return False
        elif step.kind == "side-contradiction":
            if not any(origin == step.prov and catch_up(p, applied).is_zero()
                       for p, applied, origin in sides):
                return False
        else:
            return False
    return True


@dataclass(frozen=True)
class Family:
    """A branch converted to tensors over fresh parameters p1, p2, ...

    Solved branches have no residual equations; stuck branches keep theirs,
    and samples must satisfy them.
    """
    label: str
    params: tuple
    rhd: StructureConstants
    lhd: StructureConstants
    side: tuple                # Poly conditions, != 0
    residual: tuple            # Equations that must vanish at samples
    branch: Branch

    @property
    def solved(self) -> bool:
        return not self.residual

    def pair(self) -> AdPair:
        return AdPair(self.rhd, self.lhd, label=self.label)


@dataclass(frozen=True)
class EnumerationResult:
    system: ConstraintSystem
    families: tuple            # solved
    constrained: tuple         # stuck, with residual equations
    infeasible: tuple          # dead branches with certificates

    @property
    def status(self) -> str:
        if self.families or self.constrained:
            return "inconclusive" if self.constrained else "families"
        return "no-structure"


def _branch_parametrisation(branch: Branch, system: ConstraintSystem) -> dict:
    """Every unknown as a polynomial in the branch's free unknowns."""
    return {u: branch.subs.get(u, Poly.var(u)) for u in system.unknowns}


def _contained_in(b: Branch, a: Branch, system: ConstraintSystem) -> bool:
    """Exact containment of solution sets for solved branches.

    B lies inside A when A has no side conditions and every substitution
    relation of A becomes an identity under B's parametrisation.
    """
    if a.side:
        return False
    par_b = _branch_parametrisation(b, system)
    return all((par_b[v] - rhs.subs(par_b)).is_zero() for v, rhs in a.subs.items())


def _absorb_redundant_solved(solved: list, system: ConstraintSystem) -> list:
    """Drop solved branches contained in another solved branch.

    Dropping a contained branch leaves the union of solution sets unchanged;
    when two branches describe the same set, the lexicographically earlier
    case path survives.
    """
    kept = []
    for b in solved:
        drop = False
        for a in solved:
            if a is b or not _contained_in(b, a, system):
                continue
            if _contained_in(a, b, system):
                if a.path < b.path:
                    drop = True
                    break
            else:
                drop = True
                break
        if not drop:
            kept.append(b)
    return kept


def enumerate_compatible(assoc: UnaryAlgebra, max_depth: int = 32,
                         step_limit: int = 100_000) -> EnumerationResult:
    """Solve the compatibility system and package the outcome.

    Solved branches become parameterised pairs that are re-checked against
    the defining identities symbolically before being returned; infeasible
    branches carry replayable contradiction certificates.
    """
    system = generate_constraints(assoc)
    branches = eliminate(system, max_depth=max_depth, step_limit=step_limit)
    solved = [b for b in branches if b.status == "solved"]
    stuck = [b for b in branches if b.status == "stuck"]
    dead = [b for b in branches if b.status == "infeasible"]
    solved = _absorb_redundant_solved(solved, system)

    families = []
    constrained = []
    n = assoc.dim
    for number, branch in enumerate(solved + stuck, start=1):
        free = branch.free_unknowns(system)
        rename = {u: f"p{i}" for i, u in enumerate(free, start=1)}
        mapping = {u: Poly.var(p) for u, p in rename.items()}

        def entry_value(i, j, k):
            u = unknown_name(i + 1, j + 1, k + 1)
            return branch.subs.get(u, Poly.var(u)).subs(mapping)

        rhd = StructureConstants(
            n, [[[entry_value(i, j, k) for k in range(n)] for j in range(n)]
                for i in range(n)])
        lhd = assoc.sc.add(rhd.neg())
        fam = Family(
            label=f"family{number}",
            params=tuple(rename[u] for u in free),
            rhd=rhd, lhd=lhd,
            side=tuple(p.subs(mapping) for p, _ in branch.side),
            residual=tuple(Equation(e.prov, e.poly.subs(mapping))
                           for e in branch.equations),
            branch=branch)
        if branch.status == "solved":
            report = check_antidendriform(fam.pair())
            if not report.ok:
                raise AssertionError(
                    f"solved branch {fam.label} fails the identities; "
                    "the elimination is unsound")
            families.append(fam)
        else:
            constrained.append(fam)
    return EnumerationResult(system, tuple(families), tuple(constrained),
                             tuple(dead))


def sample_branch(family: Family, assign: Mapping[str, Fraction]) -> AdPair:
    """Instantiate a family at rational parameter values.

    ``assign`` covers the family parameters and any parameters of the base
    algebra.  The point must satisfy the side conditions (strictly nonzero)
    and any residual equations; the result then passes the defining
    identities by construction, which callers are encouraged to re-check.
    """
    for p in family.params:
        if p not in assign:
            raise MissingAssignment(f"no value for family parameter {p}")
    for cond in family.side:
        if cond.eval(assign) == 0:
            raise SideConditionViolation(
                f"side condition {format_poly(cond)} != 0 fails at the sample")
    for eq in family.residual:
        if eq.poly.eval(assign) != 0:
            raise ConstraintViolation(
                f"residual equation {eq.prov} is violated at the sample")
    rhd = family.rhd.map_entries(lambda p: Poly.const(p.eval(assign)))
    lhd = family.lhd.map_entries(lambda p: Poly.const(p.eval(assign)))
    return AdPair(rhd, lhd, label=f"{family.label}@sample")
