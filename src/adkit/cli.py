"""Command-line front end.

Commands: ``verify``, ``catalog {list,verify,export}``, ``enumerate``,
``iso``, ``analyze``.  Reports are JSON with sorted keys and canonical
coefficient strings, so two runs on the same input are byte-identical and
golden-file diffable; ``--plain`` renders the same data for humans.
The argparse parser is built once per process, on the first ``main`` call,
and reused by every later call.

Each command returns its report, and ``main`` alone turns its status into
the exit code (``EXIT_CODES``): 0 all checks passed; 1 a mathematical failure
(an identity violation, an unexpected infeasibility, a failed witness); 3
inconclusive (stuck branches, search exhausted its bound); 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

from . import catalog, fileio, iso, solver
from .algebra import (AdPair, StructureConstants, UnaryAlgebra, center_ad,
                      center_associative, check_antidendriform, is_associative,
                      is_two_nilpotent, power_series, quotient_by_centers,
                      sum_algebra)
from .errors import AdkitError, AlgebraFormatError, BudgetExceeded, CenterMismatch
from .scalars import format_poly

EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 3}
EXIT_USAGE = 2

DEFAULT_SAMPLE_VALUES = (Fraction(0), Fraction(1), Fraction(-1),
                         Fraction(2), Fraction(3))


def _read(path: str, parse=fileio.parse_algebra):
    """The parsed file and its input record, from one read of its bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise AlgebraFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse(text), {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _vec_str(vec) -> list:
    return [str(x) for x in vec]


def _assign_str(assign) -> dict:
    return {k: str(v) for k, v in sorted(assign.items())}


# -- verify ----------------------------------------------------------------------


def _violations(found) -> list:
    return [{"triple": [x + 1 for x in t], "residual": _vec_str(res)}
            for t, res in found]


def cmd_verify(args) -> dict:
    obj, record = _read(args.file)
    if isinstance(obj, UnaryAlgebra):
        rep = is_associative(obj)
        results = {"kind": "associative", "associative": rep.ok,
                   "violations": _violations(rep.violations)}
    else:
        rep = check_antidendriform(obj)
        results = {
            "kind": "antidendriform",
            "pass": rep.ok,
            "identities": {name: {"ok": not found, "violations": _violations(found)}
                           for name, found in rep.failures.items()},
            "defining_equations_hold": rep.chains_ok,
        }
    return {"command": "verify", "inputs": [record], "results": results,
            "status": "pass" if rep.ok else "fail"}


# -- catalog ---------------------------------------------------------------------


def cmd_catalog_list(args) -> dict:
    entries = catalog.entries()
    rows = [{"id": e.id, "dim": e.dim, "kind": e.kind, "params": list(e.params),
             "constraints": [f"{expr} != 0" for expr in e.nonzero],
             "associated_sum": e.associated_sum, "auxiliary": e.auxiliary}
            for e in entries]
    rows.append({"id": "mu0", "dim": None, "kind": "associative",
                 "params": ["n"], "constraints": [], "associated_sum": None,
                 "auxiliary": False})
    shapes = Counter((e.kind, e.dim) for e in entries if not e.auxiliary)
    counts = {
        "associative_dim2": shapes["associative", 2],
        "associative_dim3_nilpotent": shapes["associative", 3],
        "antidendriform_dim2": shapes["antidendriform", 2],
        "antidendriform_dim3_families": shapes["antidendriform", 3],
    }
    return {"command": "catalog list", "inputs": [],
            "results": {"entries": rows, "counts": counts}, "status": "pass"}


def cmd_catalog_verify(args) -> dict:
    reports = catalog.verify_all()
    rows = [{"id": r.id, "axioms": r.axioms_ok,
             "sum_match": r.sum_ok, "detail": r.detail} for r in reports]
    failures = [r.id for r in reports if not r.ok]
    return {"command": "catalog verify", "inputs": [],
            "results": {"entries": rows, "failures": failures},
            "status": "fail" if failures else "pass"}


def cmd_catalog_export(args) -> None:
    if args.n is not None:
        if args.id != "mu0":
            raise AdkitError(f"--n applies only to mu0, not to {args.id}")
        fileio.check_dimension(args.n)
    if args.assign and args.id == "mu0":
        raise AdkitError("--assign does not apply to mu0, which takes --n")
    assign = fileio.parse_assignment(args.assign) if args.assign else None
    obj = catalog.get(args.id, assign=assign, n=args.n, strict=not args.force)
    text = fileio.render_algebra(obj)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- enumerate -------------------------------------------------------------------


def _family_dict(fam: solver.Family) -> dict:
    return {
        "label": fam.label,
        "params": list(fam.params),
        "rhd": fileio._entry_rows(fam.rhd),
        "lhd": fileio._entry_rows(fam.lhd),
        "side_conditions": [format_poly(p) + " != 0" for p in fam.side],
        "residual_equations": [
            {"provenance": eq.prov, "equation": format_poly(eq.poly) + " = 0"}
            for eq in fam.residual],
        "case_path": list(fam.branch.path),
        "stuck_reason": fam.branch.stuck_reason or None,
    }


def _certificate_dict(branch) -> list:
    return [{"provenance": step["prov"], "result": step["value"],
             "action": {k: step[k] for k in ("kind", "var", "lineage") if k in step}}
            for step in branch.certificate()]


def cmd_enumerate(args) -> dict:
    obj, record = _read(args.file)
    if not isinstance(obj, UnaryAlgebra):
        raise AdkitError("enumerate expects an associative algebra file")
    report = {
        "command": "enumerate",
        "inputs": [record],
        "options": {"max_splits": args.max_splits, "depth": args.depth},
    }
    try:
        result = solver.enumerate_compatible(obj, max_depth=args.max_splits,
                                             step_limit=args.depth)
    except BudgetExceeded as exc:
        report["status"] = "inconclusive"
        report["results"] = {"outcome": "inconclusive", "budget": exc.budget,
                             "reason": str(exc)}
        return report
    report["results"] = {
        "outcome": result.status,
        "families": [_family_dict(f) for f in result.families],
        "constrained_families": [_family_dict(f) for f in result.constrained],
        "infeasible_branches": [
            {"case_path": list(b.path), "certificate": _certificate_dict(b)}
            for b in result.infeasible],
    }
    if result.status == "no-structure":
        report["results"]["reason"] = "no compatible structure exists"
    report["status"] = {"families": "pass", "no-structure": "fail",
                        "inconclusive": "inconclusive"}[result.status]
    return report


# -- iso -------------------------------------------------------------------------


def cmd_iso(args) -> dict:
    (a, record_a), (b, record_b) = _read(args.file_a), _read(args.file_b)
    if not isinstance(a, AdPair) or not isinstance(b, AdPair):
        raise AdkitError("iso expects two antidendriform files")
    assign = fileio.parse_assignment(args.assign) if args.assign else {}
    if assign:
        a, b = a.subs(assign), b.subs(assign)
    report = {"command": "iso",
              "inputs": [record_a, record_b],
              "options": {"assign": _assign_str(assign)}}
    if not args.search:
        witness, record = _read(args.witness, fileio.parse_witness)
        if assign and witness.radicand is None:  # a radicand witness is constant
            witness = iso.Witness([[c.subs(assign) for c in row]
                                   for row in witness.entries])
        rep = iso.verify_witness(a, b, witness)
        report["inputs"].append(record)
        report["results"] = {
            "mode": "witness",
            "verified": rep.ok,
            "determinant": rep.det,
            "failures": [{"op": f[0][0], "pair": [f[0][1] + 1, f[0][2] + 1],
                          "coordinate": f[0][3] + 1, "residual": str(f[1])}
                         for f in rep.failures],
        }
        report["status"] = "pass" if rep.ok else "fail"
        return report
    leftover = (a.variables() | b.variables())
    if leftover:
        raise AdkitError(
            "search needs fully instantiated inputs; missing values for "
            + ", ".join(sorted(leftover)))
    radicand = fileio.parse_radicand(args.radicand)
    result = iso.search_witness(a, b, bound=args.bound, radicand=radicand)
    fp_a, fp_b = result.fingerprints
    report["results"] = {
        "mode": "search",
        "outcome": result.status,
        "fingerprint_a": _fingerprint_dict(fp_a),
        "fingerprint_b": _fingerprint_dict(fp_b),
    }
    if result.status == "found":
        report["results"]["witness"] = [
            [str(c) for c in row] for row in result.witness.entries]
        check = iso.verify_witness(a, b, result.witness)
        report["results"]["witness_verified"] = check.ok
        report["status"] = "pass" if check.ok else "fail"
    elif result.status == "separated":
        report["results"]["separating_components"] = list(result.separation)
        report["status"] = "pass"
    else:
        report["results"]["examined"] = result.examined
        report["status"] = "inconclusive"
    return report


def _fingerprint_dict(fp: iso.Fingerprint) -> dict:
    out = {}
    for name in iso.FINGERPRINT_COMPONENTS:
        value = getattr(fp, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


# -- analyze ---------------------------------------------------------------------


def _analyze_at(obj, assign) -> dict:
    out = {"assignment": _assign_str(assign)}
    obj = obj.at(assign)  # every helper reads the kept constants
    if isinstance(obj, AdPair):
        total = UnaryAlgebra(StructureConstants.from_constant(obj.dim, tuple(
            tuple(tuple(x + y for x, y in zip(u, v)) for u, v in zip(p, q))
            for p, q in zip(obj.rhd.constant_tensor(), obj.lhd.constant_tensor()))))
        z_sum = center_associative(total)
        z_ad = center_ad(obj)
        series = power_series(total)
        out.update({
            "center_sum": {"dim": len(z_sum), "basis": [_vec_str(v) for v in z_sum]},
            "center_ad": {"dim": len(z_ad), "basis": [_vec_str(v) for v in z_ad]},
            "sum_power_dims": list(series.dims),
            "sum_nilpotent": series.nilpotent,
            "sum_nilpotency_index": series.index,
            "sum_null_filiform": series.null_filiform,
        })
        try:
            quo = quotient_by_centers(obj, z_sum, z_ad)
            out["quotient_by_center"] = {
                "dim": quo.pair.dim,
                "rhd": fileio._entry_rows(quo.pair.rhd),
                "lhd": fileio._entry_rows(quo.pair.lhd),
                "kept_basis": [i + 1 for i in quo.kept_indices],
            }
        except CenterMismatch as exc:
            out["quotient_by_center"] = {"error": str(exc)}
    else:
        z = center_associative(obj)
        series = power_series(obj)
        out.update({
            "center": {"dim": len(z), "basis": [_vec_str(v) for v in z]},
            "power_dims": list(series.dims),
            "nilpotent": series.nilpotent,
            "nilpotency_index": series.index,
            "null_filiform": series.null_filiform,
            # all triple products vanish exactly when the cube is zero
            "two_nilpotent": (series.dims[1] == 0 if len(series.dims) == 2
                              else series.dims[2] == 0),
        })
    return out


def cmd_analyze(args) -> dict:
    obj, record = _read(args.file)
    assign = fileio.parse_assignment(args.assign) if args.assign else {}
    missing = [p for p in sorted(obj.variables()) if p not in assign]
    results: dict = {}
    if isinstance(obj, AdPair):
        results["sum"] = fileio._entry_rows(sum_algebra(obj).sc)
        results["two_nilpotent"] = is_two_nilpotent(obj)
    # with nothing missing, the one point is the assignment itself
    points = [{**assign, **dict(zip(missing, combo))}
              for combo in iproduct(DEFAULT_SAMPLE_VALUES, repeat=len(missing))]
    if missing:
        results["note"] = ("parameters " + ", ".join(missing)
                           + " sampled over the default values 0, 1, -1, 2, 3")
    results["at"] = [_analyze_at(obj, point) for point in points]
    return {"command": "analyze", "inputs": [record],
            "options": {"assign": _assign_str(assign)}, "results": results,
            "status": "pass"}


# -- plumbing --------------------------------------------------------------------


def _render_plain(value, indent=0) -> str:
    pad = "  " * indent
    if isinstance(value, (dict, list)) and not value:
        return f"{pad}(none)"
    if isinstance(value, dict):
        items = [(f"{k}:", value[k]) for k in sorted(value)]
    elif isinstance(value, list):
        items = [("-", v) for v in value]
    else:
        return f"{pad}{value}"
    lines = []
    for head, v in items:
        if isinstance(v, (dict, list)):
            lines.append(f"{pad}{head}")
            lines.append(_render_plain(v, indent + 1))
        else:
            lines.append(f"{pad}{head} {v}")
    return "\n".join(lines)


def _at_least(low: int):
    """argparse type for a budget: an int below ``low`` is a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adkit",
        description="verify, enumerate and cross-check anti-dendriform "
                    "structures on low-dimensional associative algebras")
    parser.add_argument("--plain", action="store_true",
                        help="human-readable output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the defining identities of a file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify)

    pc = sub.add_parser("catalog", help="registry of classified algebras")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("list", help="list entries")
    p.set_defaults(fn=cmd_catalog_list)
    p = csub.add_parser("verify", help="verify every entry symbolically")
    p.set_defaults(fn=cmd_catalog_verify)
    p = csub.add_parser("export", help="write an entry in the file format")
    p.add_argument("id")
    p.add_argument("--n", type=_at_least(1), default=None,
                   help="dimension for the null-filiform generator mu0")
    p.add_argument("--assign", default=None, help="e.g. a=1/2,l=-1")
    p.add_argument("--force", action="store_true",
                   help="allow assignments outside the entry's canonical range")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_catalog_export)

    p = sub.add_parser("enumerate",
                       help="enumerate compatible structures on an associative file")
    p.add_argument("file")
    p.add_argument("--max-splits", type=_at_least(0), default=solver.SPLIT_BUDGET,
                   help="case-split budget per branch path (default %(default)s)")
    p.add_argument("--depth", type=_at_least(0), default=solver.STEP_BUDGET,
                   help="hard cap on elimination steps per branch")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("iso", help="verify or search isomorphism evidence")
    p.add_argument("file_a")
    p.add_argument("file_b")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--witness", default=None, help="witness file to verify")
    mode.add_argument("--search", action="store_true", help="bounded witness search")
    p.add_argument("--bound", type=_at_least(1), default=3,
                   help="numerator/denominator bound for searched entries")
    p.add_argument("--assign", default=None, help="instantiate parameters")
    p.add_argument("--radicand", default=None,
                   help="retry the search over Q(sqrt(d)) with this d")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("analyze",
                       help="sum, centers, power series, nilpotency, quotient")
    p.add_argument("file")
    p.add_argument("--assign", default=None)
    p.set_defaults(fn=cmd_analyze)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and reused by every
    later one: ``parse_args`` returns a fresh namespace and leaves the
    parser as it is."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.fn(args)
    except (AdkitError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    if report is None:  # catalog export, which wrote its table
        return EXIT_CODES["pass"]
    if args.plain:
        sys.stdout.write(_render_plain(report) + "\n")
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_CODES[report["status"]]


if __name__ == "__main__":
    sys.exit(main())
