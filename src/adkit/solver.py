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
   elimination loop, which back-substitutes only the rows pivoting past the
   quadratic block; above ``CONSEQUENCE_CAP`` equations this step is skipped;
4. read each row as p = sum of c_e * u^e (``Poly.coefficients``), in pivot
   order, only for the unknowns u squared in some term or dividing every
   term: a*u^2 + b*u + c with a rational a is resolved through its
   discriminant (zero forces the double root, a constant square splits on
   the two polynomial roots), and the first u dividing p with a linear
   quotient splits u*(linear) = 0; splits are taken by (pivot order, row),
   a root split before a factor split; the moves are kept with the row's
   record, for later stalls of the branch and of children that inherit it;
5. a branch dies when an equation reduces to a nonzero rational constant,
   or a recorded side condition reduces to zero -- either way the branch
   carries a replayable trace ending in the contradiction;
6. branches that exceed the split budget, or whose remaining equations fit
   no supported shape, stay honestly "stuck", with the reason named:
   "split-budget", "step-budget", "needs-extension" (see below),
   "consequence-cap" (step 3 was skipped) or "nonlinear".

Each branch keeps its equations as rows, one record per equation built
once when it is written: its provenance, its Poly, its unknowns and its
linear pivot, the last two from one pass over the terms.  The canonical key
is the equation's primitive integer form, computed once and kept on its
Poly, so the root branch reuses the keys the generator deduplicated with
and a rewrite reads the old key back from the old Poly.  The map of linear
rows (id -> unknown count and pivot) changes with every row written or
dropped, so step 2 never scans the rows without a pivot.
A row names its unknowns by their integer pivot order (the position in
``ConstraintSystem.unknowns``), so they come out of one sort of ints, and
an index maps each pivot order to the rows containing that unknown.  A
substitution rewrites only the rows that contain its unknown: u := 0 (most
of them) in one pass that keeps the terms without u and indexes them, the
key read off the old row's (``Poly.part``); any other value in one pass of
``Poly.subs`` and one more to re-index.  Every substitution and side
condition goes through ``Poly.subs``, which hands back its input itself
when the unknown does not occur.  Steps 1 and 5 look only at the rows
written since the last pass, and step 5 settles the side conditions in one
pass over them; rows keep their place in the list, so every tie-break
above and the contradiction reported are those of a full pass over the
list.
Certificate replay keeps the substitutions in trace order and brings an
equation up to date only when a step reads it.

The union of the surviving branches' solution sets (side conditions
included), together with the stuck branches, equals the original solution
set: substitutions and row combinations are invertible rewrites, and both
split shapes partition the solution set exactly (u = 0 | u != 0, and
u = r1 | u = r2 with r1 - r2 a nonzero constant).  So the leaves are
pairwise disjoint, and ``enumerate_compatible`` reports them as they are,
one family each.  A quadratic whose
discriminant is a nonzero non-square rational leaves the branch
"stuck: needs-extension" rather than infeasible, because the root exists
over the complex field even though no rational represents it.

Branches are independent after splitting (pure data), so they could be
processed concurrently; results are sorted by case path before reporting,
making the output order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import linalg
from .algebra import (AdPair, IDENTITY_NAMES, StructureConstants, UnaryAlgebra,
                      check_antidendriform, is_associative)
from .errors import (BudgetExceeded, ConstraintViolation, MissingAssignment,
                     NotAssociative, SideConditionViolation)
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


#: The most residual coordinates ``generate_constraints`` expands: seven
#: identities over n^3 basis triples with n coordinates each, 7*n^4 in all.
#: It admits dimension 8 (28,672 coordinates), mu0(8) included.
RESIDUAL_BUDGET = 7 * 8 ** 4

#: The default split budget (case splits along any root-to-leaf path) and
#: step budget (elimination steps per branch) of ``eliminate``; a branch
#: that runs out of either is stuck with "split-budget" or "step-budget".
SPLIT_BUDGET = 32
STEP_BUDGET = 100_000


def generate_constraints(assoc: UnaryAlgebra) -> ConstraintSystem:
    """Expand the seven identities over all basis triples into equations.

    The input must be associative (symbolically, in any parameters).  The
    residuals are those ``check_antidendriform`` reports on (r, assoc - r),
    r the unknowns; the equations are deduplicated up to scaling, keeping
    the provenance of the first occurrence.  An input whose 7*n^4 residual
    coordinates exceed ``RESIDUAL_BUDGET`` raises ``BudgetExceeded`` before
    anything is expanded.
    """
    n = assoc.dim
    size = len(IDENTITY_NAMES) * n ** 4
    if size > RESIDUAL_BUDGET:
        raise BudgetExceeded(
            "residual-budget",
            f"dimension {n} needs {size:,} residual coordinates; "
            f"the residual-budget admits {RESIDUAL_BUDGET:,}")
    rep = is_associative(assoc)
    if not rep.ok:
        bad = ", ".join(str(tuple(x + 1 for x in t)) for t, _ in rep.violations[:3])
        raise NotAssociative(f"input is not associative (triples {bad})")
    names = tuple(unknown_name(i, j, k)
                  for i in range(1, n + 1) for j in range(1, n + 1)
                  for k in range(1, n + 1))
    name_set = frozenset(names)
    r_sym = StructureConstants(
        n, [[[Poly.var(unknown_name(i + 1, j + 1, k + 1)) for k in range(n)]
             for j in range(n)] for i in range(n)])
    failures = check_antidendriform(AdPair(r_sym, assoc.sc.add(r_sym.neg()))).failures
    seen: dict = {}
    equations = []
    for ident in IDENTITY_NAMES:
        for (i, j, k), res in failures[ident]:
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
    """A residual equation with the data the elimination loop reads from it,
    built once when the equation is written; its canonical key is read from
    the Poly, which keeps it."""
    prov: str
    poly: Poly
    unknowns: tuple            # pivot orders of poly's unknowns, ascending
    pivot: int | None          # pivot order of the lowest linear pivot


@dataclass
class Branch:
    """A partial solution: substitutions, residual equations, side conditions.

    Residual equations are rows keyed by id.  Ids only grow and a rewrite
    keeps its row's id, so id order is list order.  ``uses`` maps each
    unknown's pivot order to the ids of the rows that contained it when
    written; readers skip ids whose row has since been dropped or lost the
    unknown.  ``linear`` maps the id of each row with a pivot to
    ``(len(unknowns), pivot)``, the key of the linear choice.  ``fresh``
    holds the ids written since the last canonicalisation, and ``keys`` maps
    the canonical key of every other row (kept on its Poly, and for a u := 0
    rewrite read off the old row's) to its id.  ``moves`` maps an id to
    ``(record, moves)``, the moves last read from that row (``_moves``).
    """
    subs: dict = field(default_factory=dict)        # var -> Poly, fully reduced
    rows: dict = field(default_factory=dict)        # id -> _Row, in list order
    uses: dict = field(default_factory=dict)        # pivot order -> [row id]
    keys: dict = field(default_factory=dict)        # normalized_key -> row id
    linear: dict = field(default_factory=dict)      # id -> (#unknowns, pivot)
    moves: dict = field(default_factory=dict)       # id -> (_Row, moves)
    fresh: set = field(default_factory=set)
    side: list = field(default_factory=list)        # [(Poly, origin prov)]
    trace: list = field(default_factory=list)       # [TraceStep]
    path: tuple = ()
    status: str = "open"       # open | solved | infeasible | stuck
    stuck_reason: str = ""
    derived: int = 0           # counter for combination-derived equations
    next_row: int = 0

    def clone(self) -> "Branch":
        return replace(self, subs=dict(self.subs), rows=dict(self.rows),
                       uses={u: list(ids) for u, ids in self.uses.items()},
                       keys=dict(self.keys), linear=dict(self.linear),
                       moves=dict(self.moves), fresh=set(self.fresh),
                       side=list(self.side), trace=list(self.trace))

    @property
    def depth(self) -> int:
        """The number of splits above this branch: one path label each."""
        return len(self.path)

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


def _index_row(p: Poly, system: ConstraintSystem, drop: str | None = None):
    """p, the pivot orders of its unknowns, ascending, and its linear pivot,
    from one pass over p's terms.

    Occurrences are counted by each unknown's integer pivot order, so the
    row's unknowns come out of one sort of ints.  The pivot is the pivot
    order of the lowest unknown ``var`` with p = a*var + rest, ``a`` a
    nonzero rational and ``rest`` free of ``var``; None unless p has degree
    one in the unknowns.  With ``drop``, the pass first leaves out the terms
    that hold it and keeps the others in their order, so p becomes
    ``p.subs({drop: 0})``, with its key read off p's (``Poly.part``).
    """
    index = system._index
    terms = {} if drop else p.terms
    occurrences: dict = {}
    linear = True
    for m, c in p.terms.items():
        if drop:
            name = None  # the last name read, drop only when m holds it
            for name, _ in m:
                if name == drop:
                    break
            if name == drop:
                continue
            terms[m] = c
        degree = 0
        for name, e in m:
            if name in index:
                degree += e
                n = index[name]
                occurrences[n] = occurrences.get(n, 0) + 1
        if degree > 1:
            linear = False
    if drop:
        p = p.part(terms)
    order = tuple(sorted(occurrences))
    if linear:
        names = system.unknowns
        for n in order:
            if occurrences[n] == 1 and ((names[n], 1),) in terms:
                return p, order, n
    return p, order, None


def _write_row(branch: Branch, system: ConstraintSystem, rid: int | None,
               prov: str, poly: Poly, drop: str | None = None):
    """Store ``poly`` as row ``rid`` (a new last row when None), with
    ``drop`` := 0 when given, index its unknowns in the same pass
    (``_index_row``) and queue it for canonicalisation."""
    if rid is None:
        rid = branch.next_row
        branch.next_row += 1
    old = branch.rows.get(rid)
    before = ()
    if old is not None:
        before = old.unknowns
        if rid not in branch.fresh:
            del branch.keys[old.poly.normalized_key()]
    poly, unknowns, pivot = _index_row(poly, system, drop)
    if drop is None:  # dropping terms adds no unknown
        for n in unknowns:
            if n not in before:
                branch.uses.setdefault(n, []).append(rid)
    branch.rows[rid] = _Row(prov, poly, unknowns, pivot)
    if pivot is None:
        branch.linear.pop(rid, None)
    else:
        branch.linear[rid] = (len(unknowns), pivot)
    branch.fresh.add(rid)


def _apply_substitution(branch: Branch, system: ConstraintSystem, var: str,
                        rhs: Poly, kind: str, prov: str):
    """Substitute ``rhs`` for ``var`` in the rows that contain ``var``, in
    every substitution and in every side condition; ``Poly.subs`` returns
    its input itself when ``var`` does not occur, so nothing else changes;
    a zero ``rhs`` only drops terms from the rows."""
    mapping = {var: rhs}
    for v, p in branch.subs.items():
        branch.subs[v] = p.subs(mapping)
    branch.subs[var] = rhs
    n = system.unknown_order(var)
    zero = rhs.is_zero()
    for rid in sorted(set(branch.uses.pop(n, ()))):
        row = branch.rows.get(rid)
        if row is None or n not in row.unknowns:
            continue
        if zero:
            _write_row(branch, system, rid, row.prov, row.poly, var)
        else:
            _write_row(branch, system, rid, row.prov, row.poly.subs(mapping))
    branch.side = [(p.subs(mapping), origin) for p, origin in branch.side]
    branch.trace.append(TraceStep(kind, var, rhs, prov))


def _linear_candidate(branch: Branch, system: ConstraintSystem):
    """(var, rhs, prov) of the best linear pivot in ``branch.linear``: fewest
    unknowns, then the lowest pivot order, then the earliest equation; None
    if there is none."""
    best = min(((n, pivot, rid) for rid, (n, pivot) in branch.linear.items()),
               default=None)
    if best is None:
        return None
    _, pivot, rid = best
    row = branch.rows[rid]
    var = system.unknowns[pivot]
    # the pivot occurs only in the term a*var, a rational (see _index_row)
    a = row.poly.terms[((var, 1),)]
    return var, (row.poly - Poly.var(var) * a) * (Fraction(-1) / a), row.prov


def _moves(branch: Branch, rid: int, row: _Row, names: tuple) -> list:
    """The moves row ``rid`` (record ``row``) offers, read from
    p = sum of c_e * u^e in pivot order, as (kind, pivot order, u, payload);
    kept in ``branch.moves`` and read again while ``row`` is the row's record.

    Only an unknown squared in some term or dividing every term can offer a
    move, so p is read only for those.  With p = a*u^2 + b*u + c and a a
    nonzero rational, the discriminant decides: zero is "forced"
    u := -b/2a (p = a*(u + b/2a)^2) and ends the row, a constant square is
    "root" with the two roots of p = a*(u - r1)*(u - r2), and a constant
    non-square is "extension" (the roots lie outside the rationals).  The
    first u dividing p with a quotient of degree at most one is "factor",
    with that quotient.
    """
    kept = branch.moves.get(rid)
    if kept is not None and kept[0] is row:
        return kept[1]
    p = row.poly
    movable = {name for m in p.terms for name, e in m if e == 2}
    movable |= set.intersection(*({name for name, _ in m} for m in p.terms))
    moves = []
    factored = False
    for n in row.unknowns:
        u = names[n]
        if u not in movable:
            continue
        coeffs = p.coefficients(u)
        a = coeffs.get(2)
        if a is not None and max(coeffs) == 2 and a.is_constant():
            a = a.constant_value()
            b = coeffs.get(1, Poly.zero())
            disc = b * b - coeffs.get(0, Poly.zero()) * a * 4
            if disc.is_zero():
                moves.append(("forced", n, u, b * (Fraction(-1) / (2 * a))))
                break
            if disc.is_constant():
                d = disc.constant_value()
                if is_rational_square(d):
                    r = rational_sqrt(d)
                    moves.append(("root", n, u, tuple(
                        (b + Poly.const(-sign * r)) * (Fraction(-1) / (2 * a))
                        for sign in (1, -1))))
                else:
                    moves.append(("extension", n, u, None))
        if not factored and 0 not in coeffs:
            q = sum((c * Poly.var(u) ** (e - 1) for e, c in coeffs.items()),
                    Poly.zero())
            if q.degree_in(names[m] for m in row.unknowns) <= 1:
                factored = True
                moves.append(("factor", n, u, q))
    branch.moves[rid] = (row, moves)
    return moves


def _linear_consequences(branch: Branch, unknown_set: frozenset) -> list:
    """Linear or constant equations hiding in the rational span of the
    current ones.

    The equations are viewed as vectors over their monomials, with the
    monomials that are quadratic in unknowns eliminated first; reduced rows
    whose leading monomial falls outside that block are degree <= 1
    consequences, and only those are formed.  Row operations preserve the
    solution set, and each extracted row records its lineage (the rational
    combination of source equations) so certificates replay mechanically.
    """
    eqs = list(branch.rows.values())
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
        row[width + i] = 1
        aug.append(row)
    reduced, _ = linalg.rref_sparse(aug, width, quadratic)
    existing = set(branch.keys)
    out = []
    for row in reduced:
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
    fresh, branch.fresh = branch.fresh, set()
    kept = []
    for rid in sorted(fresh):
        poly = branch.rows[rid].poly
        if poly.is_zero():
            del branch.rows[rid]
            branch.linear.pop(rid, None)
            continue
        key = poly.normalized_key()
        other = branch.keys.setdefault(key, rid)
        if other < rid:
            del branch.rows[rid]
            branch.linear.pop(rid, None)
            continue
        if other > rid:
            del branch.rows[other]
            branch.linear.pop(other, None)
            branch.keys[key] = rid
        kept.append(rid)
    return kept


def _scan_contradiction(branch: Branch, fresh: list) -> bool:
    """Report the first constant equation, else the first zero side
    condition; otherwise drop the nonzero constant side conditions and those
    that repeat an earlier one up to scaling.

    Only rewritten or new rows can have become constant: an older constant
    row would have ended the branch already.  Every zero side condition has
    the key (), so the first one found is also the first occurrence.
    """
    for rid in fresh:
        row = branch.rows[rid]
        if not row.unknowns and row.poly.is_constant():
            branch.trace.append(TraceStep("equation-contradiction", None,
                                          row.poly, row.prov))
            branch.status = "infeasible"
            return True
    seen = set()
    kept = []
    for p, origin in branch.side:
        if p.is_zero():
            branch.trace.append(TraceStep("side-contradiction", None, p, origin))
            branch.status = "infeasible"
            return True
        key = p.normalized_key()
        if p.is_constant() or key in seen:
            continue  # a nonzero constant is satisfied forever
        seen.add(key)
        kept.append((p, origin))
    branch.side = kept
    return False


#: Above this many residual equations the consequence step is skipped, and
#: a branch that then fits no other move is stuck with "consequence-cap".
CONSEQUENCE_CAP = 200


def eliminate(system: ConstraintSystem, max_depth: int = SPLIT_BUDGET,
              step_limit: int = STEP_BUDGET) -> list:
    """Explore the case tree; returns terminal branches sorted by case path.

    ``max_depth`` bounds the number of splits along any root-to-leaf path;
    branches that would exceed it are marked stuck instead of split.
    """
    root = Branch()
    for eq in system.equations:
        _write_row(root, system, None, eq.prov, eq.poly)
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
            cand = _linear_candidate(branch, system)
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
                    _write_row(branch, system, None, prov, poly)
                    branch.trace.append(
                        TraceStep("combine", None, poly, prov, lineage))
                continue
            # a forced root needs no split; else the lowest (pivot, row) split
            forced = None
            splits = []
            needs_extension = False
            for rid, row in branch.rows.items():
                for kind, n, var, payload in _moves(branch, rid, row,
                                                    system.unknowns):
                    if kind == "forced":
                        forced = (var, payload, row.prov)
                    elif kind == "extension":
                        needs_extension = True
                    else:
                        splits.append((n, rid, kind, var, payload, row.prov))
                if forced is not None:
                    break
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
                    for sign, rhs in zip("+-", payload):
                        child = branch.clone()
                        child.path = branch.path + (f"{var}:root{sign}",)
                        _apply_substitution(child, system, var, rhs,
                                            "root-case", prov)
                        queue.append(child)
                else:
                    zero = branch.clone()
                    zero.path = branch.path + (f"{var}=0",)
                    _apply_substitution(zero, system, var, Poly.zero(),
                                        "case-zero", prov)
                    nonzero = branch.clone()
                    nonzero.path = branch.path + (f"{var}!=0",)
                    nonzero.side.append((Poly.var(var), prov))
                    _write_row(nonzero, system, rid, f"{prov}/{var}", payload)
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


def enumerate_compatible(assoc: UnaryAlgebra, max_depth: int = SPLIT_BUDGET,
                         step_limit: int = STEP_BUDGET) -> EnumerationResult:
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
            residual=tuple(Equation(row.prov, row.poly.subs(mapping))
                           for row in branch.rows.values()),
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
    return AdPair(family.rhd, family.lhd, label=f"{family.label}@sample").at(assign)
