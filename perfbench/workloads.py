"""The benchmark's workloads: seeded inputs, ops, and known-answer checks.

Every op goes through adkit's public functions and checks its output against
an answer known independently of the timing (PAPER.md, the README and the
registry).  An op returns a record of deterministic facts about its verdict;
a wrong verdict raises ``WrongAnswer`` and counts as a failed op.

``build(name, seed)`` does the set-up a user pays on every run: it renders
the seeded inputs to the file format and parses them back with
``fileio.parse_algebra``, so adkit receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from adkit import catalog, cli, fileio, iso, solver
from adkit.algebra import apply_basis_change
from adkit.scalars import poly_parse

WORKLOADS = ("enumerate-nilfil", "enumerate-lowdim", "iso-classify",
             "cli-registry")

#: Random basis changes per registry point in iso-classify.
ISO_COPIES = 8
#: Entry bound and candidate budget of the witness search in iso-classify.
#: Some registry points (AD3_6, AD3_11, AD3_12) leave the search so little
#: to pin down that it exhausts any budget; at adkit's default of 200,000
#: candidates one such op takes up to a minute, so the benchmark sets its
#: own budget and counts a not-found outcome as undecided, never as wrong.
ISO_SEARCH_BOUND = 2
ISO_SEARCH_BUDGET = 1000
#: cli-registry repeats whole passes until a run holds this many ops.
CLI_MIN_OPS = 100

#: Registry entry whose table fails the identities by design (README).
DEFECT = "AD3_17"
#: Bases with a nonzero idempotent, which rules out every compatible
#: structure (PAPER.md).
IDEMPOTENT_BASES = frozenset(("As2_2", "As2_4", "As2_5", "As2_6", "As2_7"))

SMALL_RATIONALS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                   Fraction(-2), Fraction(1, 2), Fraction(-1, 2), Fraction(3))


class WrongAnswer(Exception):
    """An op's output disagrees with the known answer."""


def expect(condition, message: str):
    if not condition:
        raise WrongAnswer(message)


@dataclass
class Op:
    name: str
    run: Callable[[], dict]     # returns the op's deterministic record


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    min_ops: int = 1
    inputs: dict = field(default_factory=dict)   # input label -> dimension


# -- enumerate workloads ------------------------------------------------------


def _carrying_bases() -> frozenset:
    """Base algebras over which the registry records a valid family."""
    return frozenset(e.associated_sum for e in catalog.entries()
                     if e.kind == "antidendriform" and e.id != DEFECT)


def _unique_steps(result) -> tuple:
    """Trace steps of the case tree, each counted once, and the branches.

    Children share their parent's TraceStep objects, so identity tells a
    shared prefix from the steps taken after a split.
    """
    branches = ([f.branch for f in result.families]
                + [f.branch for f in result.constrained]
                + list(result.infeasible))
    seen = {}
    for b in branches:
        for step in b.trace:
            seen.setdefault(id(step), step)
    return list(seen.values()), branches


def solver_counters(result) -> dict:
    steps, branches = _unique_steps(result)
    kinds = [s.kind for s in steps]
    split_nodes = {b.path[:i] for b in branches for i in range(len(b.path))}
    return {
        "solver.equations_generated": len(result.system.equations),
        "solver.substitutions": kinds.count("substitute"),
        "solver.splits": len(split_nodes),
        "solver.combines": kinds.count("combine"),
        "solver.branches_solved": len(result.families),
        "solver.branches_infeasible": len(result.infeasible),
        "solver.branches_stuck": len(result.constrained),
        "solver.max_depth": max((b.depth for b in branches), default=0),
    }


def _enumerate_op(label: str, base_id: str, alg) -> Op:
    carrying = base_id in _carrying_bases()
    obstructed = base_id in IDEMPOTENT_BASES or (
        base_id == "mu0" and alg.dim >= 4)

    def run():
        result = solver.enumerate_compatible(alg)
        status = result.status
        expect(all(solver.replay_certificate(result.system, b)
                   for b in result.infeasible),
               f"{label}: a certificate does not replay")
        if obstructed:
            expect(status == "no-structure",
                   f"{label}: expected no-structure, got {status}")
            expect(any(b.trace[-1].kind == "equation-contradiction"
                       and b.trace[-1].poly.is_constant()
                       and not b.trace[-1].poly.is_zero()
                       for b in result.infeasible),
                   f"{label}: no certificate ends in a nonzero constant")
        if base_id == "mu0" and alg.dim == 3:
            expect(status == "families" and len(result.families) == 1
                   and len(result.families[0].params) == 1,
                   f"{label}: expected one one-parameter family")
        if carrying:
            expect(status != "no-structure",
                   f"{label}: registry families exist, got no-structure")
        families = [(f.params, sorted(f.rhd.entries()), sorted(f.lhd.entries()),
                     f.side, [e.poly for e in f.residual])
                    for f in result.families + result.constrained]
        return {"status": status,
                "decided": status != "inconclusive",
                "counters": solver_counters(result),
                "digest": _digest([status, families,
                                   [b.certificate() for b in result.infeasible]])}

    return Op(f"enumerate:{label}", run)


def _parse(obj) -> object:
    return fileio.parse_algebra(fileio.render_algebra(obj))


def _build_enumerate(name: str, seed: int, tiny: bool) -> Workload:
    if name == "enumerate-nilfil":
        inputs = [(f"mu0_{n}", "mu0", catalog.null_filiform(n))
                  for n in ((3, 4) if tiny else (3, 4, 5))]
    else:
        inputs = [(eid, eid, catalog.get(eid))
                  for eid in [f"As2_{i}" for i in range(1, 8)]
                  + [f"As3_{i}" for i in range(1, 7)]]
        inputs.append(("As3_5_l2", "As3_5",
                       catalog.get("As3_5", {"l": Fraction(2)})))
        if tiny:
            inputs = inputs[:7]
    # The inputs are the registry's fixed bases, in a fixed order: the first
    # op of a process runs slower, and which input pays that would move
    # op_ms_p50 from seed to seed.
    ops = [_enumerate_op(label, base, _parse(alg))
           for label, base, alg in inputs]
    # lowdim's median op lies between two inputs of similar cost (As3_1 and
    # As2_1); from a single pass it spread 18% across seeds, so a run holds
    # at least two passes.
    min_ops = 2 * len(ops) if name == "enumerate-lowdim" and not tiny else 1
    return Workload(name, seed, ops, min_ops=min_ops,
                    inputs={label: alg.dim for label, _, alg in inputs})


# -- iso-classify -----------------------------------------------------------------


def random_invertible(rng: random.Random, dim: int) -> list:
    """Random invertible rational matrix L*U: L has a unit diagonal, U a
    diagonal of nonzero rationals."""
    lower = [[Fraction(1) if i == j else
              (rng.choice(SMALL_RATIONALS) if j < i else Fraction(0))
              for j in range(dim)] for i in range(dim)]
    upper = [[rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)))
              if i == j else
              (rng.choice(SMALL_RATIONALS) if j > i else Fraction(0))
              for j in range(dim)] for i in range(dim)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(dim))
             for j in range(dim)] for i in range(dim)]


def random_signed_permutation(rng: random.Random, dim: int) -> list:
    perm = list(range(dim))
    rng.shuffle(perm)
    return [[Fraction(rng.choice((1, -1))) if perm[i] == j else Fraction(0)
             for j in range(dim)] for i in range(dim)]


def registry_points():
    """Every two-operation registry entry at up to three sample points."""
    for e in catalog.entries():
        if e.kind != "antidendriform":
            continue
        values = (Fraction(0), Fraction(1), Fraction(-1)) if e.params else (
            Fraction(0),)
        for v in values:
            label = f"{e.id}@{v}" if e.params else e.id
            yield label, e.instantiate({p: v for p in e.params}, strict=False)


def _build_iso(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    points = list(registry_points())
    copies = ISO_COPIES
    if tiny:
        points, copies = points[:4], 1
    rng.shuffle(points)
    ops = []
    for label, obj in points:
        ad = _parse(obj)
        base = {}

        def base_op(ad=ad, base=base):
            fp = iso.fingerprint(ad)
            base["fp"] = fp
            return {"decided": True, "digest": _digest(fp.components())}

        ops.append(Op(f"fingerprint:{label}", base_op))
        for k in range(copies):
            t = random_invertible(rng, ad.dim)

            def copy_op(ad=ad, base=base, t=t, label=label):
                fp = iso.fingerprint(apply_basis_change(ad, t))
                expect(fp == base["fp"],
                       f"{label}: fingerprint changed under a basis change")
                return {"decided": True, "digest": _digest(fp.components())}

            ops.append(Op(f"fingerprint-copy:{label}#{k}", copy_op))
        t = random_signed_permutation(rng, ad.dim)

        def search_op(ad=ad, t=t, label=label):
            copy = apply_basis_change(ad, t)
            res = iso.search_witness(copy, ad, bound=ISO_SEARCH_BOUND,
                                     budget=ISO_SEARCH_BUDGET)
            expect(res.status != "separated",
                   f"{label}: isomorphic copy reported as separated")
            if res.status == "found":
                expect(iso.verify_witness(copy, ad, res.witness).ok,
                       f"{label}: found witness does not verify")
            return {"decided": res.status == "found",
                    "counters": {"iso.search.examined": res.examined,
                                 f"iso.search.{res.status}": 1},
                    "digest": _digest([res.status, res.examined, str(
                        res.witness and res.witness.entries)])}

        ops.append(Op(f"search:{label}", search_op))
    return Workload("iso-classify", seed, ops,
                    inputs={label: obj.dim for label, obj in points})


# -- cli-registry -------------------------------------------------------------------


def _cli_op(name: str, argv: list, check) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        expect(code in (0, 1), f"{name}: exit {code}: {err.getvalue().strip()}")
        check(code, json.loads(text))
        data = text.encode("utf-8")
        return {"decided": True,
                "counters": {"cli.report_bytes": len(data)},
                "digest": hashlib.sha256(data).hexdigest()}

    return Op(name, run)


def _check_catalog_verify(code, report):
    expect(code == 1 and report["results"]["failures"] == [DEFECT],
           f"catalog verify: expected failures [{DEFECT}], got "
           f"{report['results']['failures']}")


def _check_catalog_list(code, report):
    expect(code == 0 and len(report["results"]["entries"])
           == len(catalog.entries()) + 1, "catalog list: wrong entry count")


def _check_verify(entry_id):
    def check(code, report):
        want = "fail" if entry_id == DEFECT else "pass"
        expect(report["status"] == want and code == (want == "fail"),
               f"verify {entry_id}: expected {want}, got {report['status']}")
    return check


def _check_analyze(entry_id, kind):
    def check(code, report):
        expect(code == 0, f"analyze {entry_id}: exit {code}")
        if kind == "antidendriform":
            expect(all(at["sum_nilpotent"] for at in report["results"]["at"]),
                   f"analyze {entry_id}: a sum is not nilpotent")
    return check


def _check_iso(note):
    def check(code, report):
        expect(code == 0 and report["results"]["verified"],
               f"iso {note.note}: witness does not verify")
    return check


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _build_cli(seed: int, tiny: bool) -> Workload:
    """Export every registry entry and iso note; paths are relative to the
    repository root so that reports repeat byte for byte across runs."""
    root = os.path.join("perfbench", ".work", "cli-registry")
    os.makedirs(root, exist_ok=True)
    ops = [_cli_op("catalog-verify", ["catalog", "verify"],
                   _check_catalog_verify),
           _cli_op("catalog-list", ["catalog", "list"], _check_catalog_list)]
    sizes = {}
    chosen = catalog.entries()
    notes = [n for e in chosen for n in e.iso_notes]
    if tiny:
        chosen = [catalog.entry(i) for i in ("AD2_3", DEFECT, "As2_1")]
        notes = notes[:1]
    for e in chosen:
        path = os.path.join(root, f"{e.id}.json")
        text = fileio.render_algebra(e.tensors())
        _write(path, text)
        expect(fileio.render_algebra(fileio.parse_algebra(text)) == text,
               f"{e.id}: export does not parse back exactly")
        sizes[e.id] = e.dim
        ops.append(_cli_op(f"verify:{e.id}", ["verify", path],
                           _check_verify(e.id)))
        ops.append(_cli_op(f"analyze:{e.id}", ["analyze", path],
                           _check_analyze(e.id, e.kind)))
    for number, note in enumerate(notes, start=1):
        files = []
        for side, eid, subs in (("a", note.source_id, note.source_subs),
                                ("b", note.target_id, note.target_subs)):
            obj = catalog.entry(eid).tensors()
            if subs:
                obj = obj.subs({p: poly_parse(x) for p, x in subs})
            path = os.path.join(root, f"note{number}_{side}.json")
            _write(path, fileio.render_algebra(obj))
            fileio.parse_algebra(fileio.render_algebra(obj))
            files.append(path)
        wpath = os.path.join(root, f"note{number}_witness.json")
        _write(wpath, json.dumps({"dim": len(note.witness),
                                  "entries": [list(r) for r in note.witness]}))
        ops.append(_cli_op(f"iso:note{number}",
                           ["iso", files[0], files[1], "--witness", wpath],
                           _check_iso(note)))
    random.Random(seed).shuffle(ops)
    return Workload("cli-registry", seed, ops,
                    min_ops=1 if tiny else CLI_MIN_OPS,
                    inputs=sizes)


# -- shared ---------------------------------------------------------------------


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Set up a workload: generate its seeded inputs and parse them.

    ``tiny`` keeps a few inputs of each kind, for the harness's smoke test.
    """
    if name in ("enumerate-nilfil", "enumerate-lowdim"):
        return _build_enumerate(name, seed, tiny)
    if name == "iso-classify":
        return _build_iso(seed, tiny)
    if name == "cli-registry":
        return _build_cli(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
